"""CompileSpec: the one setting of plan compilation the compiler cannot observe.

Everything else the plan compiler decides from what it sees (see
``docs/compilation.md``): which convs may run on the native kernel from
their certified ranges, fusion from the liveness proof, the native
kernel's tiling from each conv's shape, the im2col gather from the
binding.  What it cannot see is how many cores the caller means the plan to
use, so that is the spec's only field.

``threads``
    Native-kernel worker count; ``0`` resolves to the machine's usable CPU
    count (capped at 8).  Any thread count is bit-exact: tasks partition
    disjoint (sample-block × output-channel-chunk) regions and every output
    element is produced by the same arithmetic regardless of the partition.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True)
class CompileSpec:
    """Plan-compile configuration: the native kernel's thread count."""

    threads: int = 0

    def __post_init__(self):
        if not (0 <= int(self.threads) <= 256):
            raise ValueError(f"threads must be in [0, 256], got {self.threads}")

    def resolved_threads(self) -> int:
        """Concrete worker count: the knob, or the usable-CPU count (<= 8)."""
        return int(self.threads) if self.threads else min(8, _usable_cpus())

    @classmethod
    def from_args(cls, args) -> "CompileSpec":
        """Build a spec from an ``argparse`` namespace (``--threads``); a
        missing or ``None`` attribute keeps the default."""
        threads = getattr(args, "threads", None)
        return cls() if threads is None else cls(threads=threads)

    def evolve(self, **changes) -> "CompileSpec":
        return replace(self, **changes)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
