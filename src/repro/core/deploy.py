"""DeploySpec: one value object describing a full deploy configuration.

:class:`DeploySpec` collects the whole hand-off configuration — fusion mode,
fixed-point grid, lint, export targets, plan compilation — in one frozen
dataclass; :func:`deploy` runs the fuse → lint → re-pack → export →
plan-compile → prove → golden → audit pipeline from it in one call, and
every stage (``T2C``, ``export_model``, ``Plan.compile``) takes its
configuration from a spec and nowhere else.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

from repro.core.fixed_point import FixedPointFormat
from repro.runtime.spec import CompileSpec


@dataclass(frozen=True)
class DeploySpec:
    """Everything the integer hand-off needs, in one place.

    Attributes
    ----------
    fusion:
        Normalization-fusion mode: ``"channel"`` (sub-8-bit channel-wise
        scaling) or ``"prefuse"`` (8-bit BN folding into weights).
    fixed_point:
        ``INT(i, f)`` grid for the fused MulQuant scales.
    float_scale:
        Keep fused scales in float32 (industry-toolkit baseline mode).
    lint:
        Run the static verifier right after ``fuse()`` (the report lands on
        ``T2C.lint_report`` / ``Deployed.lint_report``).
    accum_bits:
        Accumulator register width the lint interval engine verifies against.
    export_dir:
        Write per-tensor artifacts + manifest here; ``None`` skips export.
    formats:
        Data formats to export (``dec``/``hex``/``bin``/``qint``).
    runtime:
        ``"auto"`` compiles the runtime plan, ``"none"`` skips it.
    compile:
        The :class:`repro.runtime.CompileSpec` the plan is compiled under
        (its thread count; the compiler picks kernels, fusion and tiling).

    There is no opt-out from the hand-off checks: :func:`deploy` always
    proves a compiled plan, records golden vectors against it, and audits
    an export (see docs/integrity.md).
    """

    fusion: str = "channel"
    fixed_point: FixedPointFormat = field(
        default_factory=lambda: FixedPointFormat(4, 12))
    float_scale: bool = False
    lint: bool = False
    accum_bits: int = 32
    export_dir: Optional[str] = None
    formats: Tuple[str, ...] = ("dec",)
    runtime: str = "auto"
    compile: CompileSpec = field(default_factory=CompileSpec)

    def __post_init__(self):
        if self.fusion not in ("channel", "prefuse"):
            raise ValueError(f"unknown fusion mode {self.fusion!r}; "
                             "expected 'channel' or 'prefuse'")
        if self.runtime not in ("auto", "none"):
            raise ValueError(f"unknown runtime {self.runtime!r}; expected "
                             "'auto' or 'none' (the compiler picks how "
                             "the plan runs)")
        if not isinstance(self.compile, CompileSpec):
            raise ValueError("DeploySpec.compile must be a CompileSpec, got "
                             f"{type(self.compile).__name__}")

    @classmethod
    def from_args(cls, args) -> "DeploySpec":
        """Build a spec from an ``argparse`` namespace (shared CLI flags).

        Missing attributes keep their dataclass defaults, so every subcommand
        maps through this one translation — ``--fusion``/``--float-scale``/
        ``--accum-bits``/``--out-dir``/``--formats``.
        """
        kw = {}
        for fld, attr in (("fusion", "fusion"), ("float_scale", "float_scale"),
                          ("lint", "lint"), ("accum_bits", "accum_bits"),
                          ("export_dir", "out_dir"), ("runtime", "runtime")):
            v = getattr(args, attr, None)
            if v is not None:
                kw[fld] = v
        fmts = getattr(args, "formats", None)
        if fmts is not None:
            kw["formats"] = tuple(fmts)
        kw["compile"] = CompileSpec.from_args(args)  # --threads
        return cls(**kw)

    def evolve(self, **changes) -> "DeploySpec":
        return replace(self, **changes)

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, FixedPointFormat):
                v = str(v)
            elif isinstance(v, CompileSpec):
                v = v.to_json()
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


@dataclass
class Deployed:
    """Result bundle of :func:`deploy`."""

    qnn: object                      #: vanilla re-packed integer model
    fused: object                    #: the fused Q-model (T2C's working copy)
    spec: DeploySpec
    plan: object = None              #: compiled runtime Plan (spec.runtime)
    lint_report: object = None
    manifest: Optional[dict] = None  #: export manifest when spec.export_dir
    integrity: object = None         #: IntegrityReport of the export audit
    plan_verification: object = None  #: PlanVerificationReport of the plan
    golden: object = None            #: GoldenSet self-test vectors of the plan

    def __call__(self, batch):
        """Run a batch through the fastest available executor."""
        if self.plan is not None:
            return self.plan(batch)
        from repro.tensor import no_grad
        from repro.tensor.tensor import Tensor

        with no_grad():
            return self.qnn(Tensor(batch)).data


def deploy(model, spec: Optional[DeploySpec] = None, **overrides) -> Deployed:
    """One-call hand-off: fuse, (lint,) re-pack, (export,) compile the plan.

    ``model`` is a calibrated dual-path Q-model; ``overrides`` are applied on
    top of ``spec`` (``deploy(qm, lint=True)``).  The stages run once each,
    in order: fuse (and lint) → re-pack (and export) → compile → prove the
    plan → record :data:`~repro.integrity.golden.DEFAULT_VECTORS` golden
    vectors → sign the proof and the golden set into the manifest → audit
    the published directory.  A plan that fails its proof raises
    :class:`~repro.lint.plan.PlanVerificationError`; an export that fails
    its audit raises :class:`~repro.export.errors.ArtifactError`.  Returns
    a :class:`Deployed` bundle whose ``plan`` (when compiled) is bit-exact
    against the interpreted ``qnn``.
    """
    from repro.core.t2c import T2C  # lazy: t2c imports this module

    spec = (spec or DeploySpec())
    if overrides:
        spec = spec.evolve(**overrides)
    t2c = T2C(model, spec=spec)
    t2c.fuse()  # lints too under spec.lint
    qnn = t2c.nn2chip()  # exports too under spec.export_dir
    manifest = t2c.last_manifest
    plan = plan_report = golden = integrity = None
    if spec.runtime != "none":
        from repro import telemetry
        from repro.integrity import GoldenSet
        from repro.integrity.golden import DEFAULT_INPUT_SHAPE
        from repro.lint.plan import PlanVerificationError
        from repro.runtime import Plan

        plan = Plan.compile(qnn, spec.compile)
        module_bits = (t2c.lint_report.min_accum_bits()
                       if t2c.lint_report is not None else None)
        plan_report = plan.verify(accum_bits=spec.accum_bits,
                                  module_bits=module_bits)
        if spec.accum_bits == 32:
            # seed the default-config cache so the registry gate reuses
            # this proof instead of re-deriving it
            plan._verification = plan_report
        if not plan_report.ok:
            raise PlanVerificationError(plan_report)
        try:
            golden = GoldenSet.record(plan, DEFAULT_INPUT_SHAPE)
        except Exception as exc:
            # a model with a different input contract simply ships without
            # golden vectors; the swap/fleet self-tests then no-op
            telemetry.emit("golden_record_skipped", level="warning",
                           model=plan.model_name, error=str(exc))
        else:
            telemetry.emit("golden_recorded", model=plan.model_name,
                           k=golden.k, seed=golden.seed)
    if spec.export_dir is not None:
        from repro.export.integrity import verify_artifacts
        from repro.export.writer import amend_manifest

        if plan_report is not None:
            proofs = {"plan_verification": plan_report.to_json()}
            if golden is not None:
                proofs["golden"] = golden.to_json()
            manifest = amend_manifest(spec.export_dir, proofs)
        # read the published directory back end to end: the write-side
        # round-trip already ran, this proves what a *consumer* will see
        integrity = verify_artifacts(spec.export_dir).raise_if_failed()
    return Deployed(qnn=qnn, fused=t2c.model, spec=spec, plan=plan,
                    lint_report=t2c.lint_report, manifest=manifest,
                    integrity=integrity, plan_verification=plan_report,
                    golden=golden)
