"""DeploySpec: one value object describing a full deploy configuration.

:class:`DeploySpec` collects the whole hand-off configuration — fusion mode,
fixed-point grid, lint, export targets, plan compilation — in one frozen
dataclass; :func:`deploy` runs the fuse → lint → re-pack → export →
plan-compile pipeline from it in one call, and every stage (``T2C``,
``export_model``, ``Plan.compile``) takes its configuration from a spec and
nowhere else.
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
        (its thread count; the compiler picks layout, fusion and tiling).
    verify_artifacts:
        Audit exported artifacts (checksums, header/payload consistency)
        whenever they are written or loaded from disk; on by default so a
        half-written or corrupted directory raises a typed
        :class:`~repro.export.errors.ArtifactError` instead of being served.
    verify_plan:
        Statically verify the compiled plan (register dataflow, no-alias,
        accumulator overflow proofs — see :mod:`repro.lint.plan`); on by
        default so :func:`deploy` raises
        :class:`~repro.lint.plan.PlanVerificationError` rather than hand
        over an unverified program.  The report lands on
        ``Deployed.plan_verification`` and in the export manifest.
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
    verify_artifacts: bool = True
    verify_plan: bool = True
    #: record this many deterministic input->output golden vectors against
    #: the compiled plan (0 skips).  They ride in ``Deployed.golden`` and
    #: the export manifest, and are replayed as a pre-cutover self-test by
    #: ``Server.swap`` and periodically per replica by the fleet health
    #: loop (see docs/integrity.md).
    golden_vectors: int = 4
    #: sample shape the golden vectors are drawn at (``None``: CIFAR-scale
    #: ``(3, 32, 32)``, which every bundled model takes)
    golden_input_shape: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.fusion not in ("channel", "prefuse"):
            raise ValueError(f"unknown fusion mode {self.fusion!r}; "
                             "expected 'channel' or 'prefuse'")
        if self.runtime not in ("auto", "none"):
            raise ValueError(f"unknown runtime {self.runtime!r}; expected "
                             "'auto' or 'none' (the compiler picks the "
                             "register layout)")
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
                          ("export_dir", "out_dir"), ("runtime", "runtime"),
                          ("verify_artifacts", "verify_artifacts"),
                          ("verify_plan", "verify_plan")):
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
    t2c: object                      #: the converter, for further inspection
    plan: object = None              #: compiled runtime Plan (spec.runtime)
    lint_report: object = None
    manifest: Optional[dict] = None  #: export manifest when spec.export_dir
    integrity: object = None         #: IntegrityReport when artifacts verified
    plan_verification: object = None  #: PlanVerificationReport when verified
    golden: object = None            #: GoldenSet self-test vectors (spec.golden_vectors)

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
    top of ``spec`` (``deploy(qm, lint=True)``).  Returns a
    :class:`Deployed` bundle whose ``plan`` (when compiled) is bit-exact
    against the interpreted ``qnn``.
    """
    from repro.core.t2c import T2C  # lazy: t2c imports this module

    spec = (spec or DeploySpec())
    if overrides:
        spec = spec.evolve(**overrides)
    t2c = T2C(model, spec=spec)
    t2c.fuse()  # lints too under spec.lint
    qnn = t2c.nn2chip()
    manifest = t2c.last_manifest
    plan = None
    plan_report = None
    if spec.runtime != "none":
        from repro.runtime import Plan

        plan = Plan.compile(qnn, spec.compile)
        if spec.verify_plan:
            from repro.lint.plan import PlanVerificationError

            module_bits = (t2c.lint_report.min_accum_bits()
                           if t2c.lint_report is not None else None)
            plan_report = plan.verify(accum_bits=spec.accum_bits,
                                      module_bits=module_bits)
            if spec.accum_bits == 32:
                # seed the default-config cache so the registry/server
                # gates reuse this proof instead of re-deriving it
                plan._verification = plan_report
            if not plan_report.ok:
                raise PlanVerificationError(plan_report)
            if spec.export_dir is not None:
                from repro.export.writer import amend_manifest

                manifest = amend_manifest(
                    spec.export_dir,
                    {"plan_verification": plan_report.to_json()})
    golden = None
    if plan is not None and spec.golden_vectors > 0:
        from repro import telemetry
        from repro.integrity import GoldenSet

        shape = tuple(spec.golden_input_shape or (3, 32, 32))
        try:
            golden = GoldenSet.record(plan, shape, k=spec.golden_vectors)
        except Exception as exc:
            # a model with a different input contract simply ships without
            # golden vectors; the swap/fleet self-test gates then no-op
            telemetry.emit("golden_record_skipped", level="warning",
                           model=plan.model_name, error=str(exc))
        else:
            telemetry.emit("golden_recorded", model=plan.model_name,
                           k=golden.k, seed=golden.seed)
            if spec.export_dir is not None:
                from repro.export.writer import amend_manifest

                manifest = amend_manifest(spec.export_dir,
                                          {"golden": golden.to_json()})
    integrity = None
    if spec.export_dir is not None and spec.verify_artifacts:
        # read the published directory back end to end: the write-side
        # round-trip already ran, this proves what a *consumer* will see
        from repro.export.integrity import verify_artifacts

        integrity = verify_artifacts(spec.export_dir).raise_if_failed()
    return Deployed(qnn=qnn, fused=t2c.model, spec=spec, t2c=t2c, plan=plan,
                    lint_report=t2c.lint_report, manifest=manifest,
                    integrity=integrity, plan_verification=plan_report,
                    golden=golden)


def deploy_registry(models, spec: Optional[DeploySpec] = None,
                    version: str = "1", **overrides):
    """Deploy a ``{name: calibrated Q-model}`` mapping into a ModelRegistry.

    The construction path for the online gateway: every entry goes through
    the same :func:`deploy` pipeline (fuse → lint → re-pack → plan-compile)
    under one shared spec, and lands in a
    :class:`repro.server.ModelRegistry` as ``name@version``, activated.
    """
    from repro.server.registry import ModelRegistry

    registry = ModelRegistry()
    for name, model in models.items():
        registry.register(name, version, deploy(model, spec, **overrides))
    return registry
