"""CompileSpec: one value object describing a full plan compilation.

Mirroring the :class:`repro.core.deploy.DeploySpec` migration, every knob of
the plan compiler lives in one frozen dataclass instead of loose keyword
arguments: the fusion level, the register layout, and the native kernel's
tiling/threading parameters.  ``Plan.compile``/``compile_program`` accept it
as their only configuration.

Fusion levels
-------------
``"none"``
    Emit the raw IR: every convolution becomes a ``conv_raw`` accumulator op
    followed by a standalone ``mulquant`` requantizer.  Reference/debug mode
    — it shows the program *before* operator fusion and runs on the
    replication kernels only.
``"requant"``
    Fuse conv → requant into ``conv_mq`` (the historical default: one native
    kernel pass per convolution, requant epilogue inlined).
``"full"``
    Additionally run the plan-level fusion pass: conv → requant → residual-add
    chains (including a foldable identity-shortcut requant) collapse into
    single ``conv_mq_res`` ops whose intermediates never touch the arena.
    Legality is proven per chain via :class:`repro.lint.plan.PlanLiveness`.

Tiling / threading knobs
------------------------
``threads``
    Native-kernel worker count; ``0`` resolves to the machine's usable CPU
    count (capped at 8).  Any thread count is bit-exact: tasks partition
    disjoint (sample-block × output-channel-chunk) regions and every output
    element is produced by the same arithmetic regardless of the partition.
``tile_kc``
    KiB of input sample planes per kernel block (the L2 working-set budget);
    ``0`` resolves to 512 KiB.
``tile_oc``
    Output channels accumulated per register block: ``4`` (64-lane tiles),
    ``8`` (32-lane tiles, half the activation streaming), or ``0`` to let
    the kernel pick per conv (``8`` when the group width allows it).
``im2col_cache``
    Memoize the im2col scratch buffers of the replication conv path across
    batches (same values, no per-call pad/gather allocations).
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

FUSION_LEVELS = ("none", "requant", "full")
LAYOUTS = ("auto", "channel", "batch")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True)
class CompileSpec:
    """Everything plan compilation needs, in one place.

    Attributes
    ----------
    fusion:
        Operator-fusion level: ``"none"``, ``"requant"`` or ``"full"``
        (see the module docstring).
    layout:
        Register storage: ``"auto"``, ``"channel"`` or ``"batch"``.
    threads:
        Native-kernel worker threads (``0`` = auto).
    tile_kc:
        KiB of input planes per native sample block (``0`` = auto, 512 KiB).
    tile_oc:
        Output channels per native register block (``0`` = auto, else 4/8).
    im2col_cache:
        Reuse im2col scratch buffers across batches on replication paths.
    """

    fusion: str = "full"
    layout: str = "auto"
    threads: int = 0
    tile_kc: int = 0
    tile_oc: int = 0
    im2col_cache: bool = True

    def __post_init__(self):
        if self.fusion not in FUSION_LEVELS:
            raise ValueError(f"unknown fusion level {self.fusion!r}; "
                             f"expected one of {FUSION_LEVELS}")
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}; "
                             f"expected one of {LAYOUTS}")
        if not (0 <= int(self.threads) <= 256):
            raise ValueError(f"threads must be in [0, 256], got {self.threads}")
        if int(self.tile_kc) < 0:
            raise ValueError(f"tile_kc must be >= 0, got {self.tile_kc}")
        if int(self.tile_oc) not in (0, 4, 8):
            raise ValueError(f"tile_oc must be 0 (auto), 4 or 8, "
                             f"got {self.tile_oc}")

    # ------------------------------------------------------------ resolution
    def resolved_threads(self) -> int:
        """Concrete worker count: the knob, or the usable-CPU count (<= 8)."""
        return int(self.threads) if self.threads else min(8, _usable_cpus())

    def tile_bytes(self) -> int:
        """Concrete L2 budget in bytes for one native sample block."""
        return (int(self.tile_kc) or 512) * 1024

    # ------------------------------------------------------------- plumbing
    @classmethod
    def from_args(cls, args) -> "CompileSpec":
        """Build a spec from an ``argparse`` namespace (shared CLI flags).

        Missing attributes keep their dataclass defaults: ``--fusion-level``/
        ``--threads``/``--tile-kc``/``--tile-oc``/``--no-im2col-cache`` map
        straight onto fields, as does a ``layout`` attribute when present.
        """
        kw = {}
        for fld, attr in (("fusion", "fusion_level"), ("threads", "threads"),
                          ("tile_kc", "tile_kc"), ("tile_oc", "tile_oc"),
                          ("im2col_cache", "im2col_cache"),
                          ("layout", "layout")):
            v = getattr(args, attr, None)
            if v is not None:
                kw[fld] = v
        return cls(**kw)

    def evolve(self, **changes) -> "CompileSpec":
        return replace(self, **changes)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
