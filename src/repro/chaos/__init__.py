"""Deterministic fault-injection harness for the deploy/serve pipeline.

The integrity store (:mod:`repro.export.integrity`) promises that corrupted
or half-written artifacts are *detected, never served*.  This package is the
adversary that keeps the promise honest: seeded injectors damage artifact
directories, compiled plans, a running gateway and a running fleet, and
:class:`ChaosPlan` scores whether every fault was detected by the defence
layers and whether service recovered on known-good state.

* :data:`CATALOG` — one row per injector: the kind of target it damages,
  the injector, and the defence layers that must each catch it.  Five
  kinds: ``artifact`` (``flip_bits``, ``truncate_file``,
  ``corrupt_header``, ``stale_manifest``), ``plan`` (``swap_register``,
  ``widen_scale``, ``drop_op``, ``fuse_illegal``), ``server``
  (``fail_exec``, ``stall_exec``, ``delay_clock``), ``fleet``
  (``kill_replica``, ``partition_replica``) and ``sdc``
  (``flip_live_weights``, ``flip_arena``, ``corrupt_golden``).  Every
  injector is a deterministic function of an explicit
  ``numpy.random.Generator``;
* :class:`ChaosPlan` — a seeded schedule of faults; fault ``i`` draws from
  ``np.random.default_rng([seed, i])`` so runs replay exactly;
  ``ChaosPlan.default(kind)`` schedules every row of one kind and
  ``ChaosPlan.run(target)`` injects and scores them;
* :class:`ChaosReport` — injected / detected / recovered / missed
  scorecard, rendered by ``repro.cli chaos``.

Quickstart::

    from repro.chaos import ChaosPlan

    report = ChaosPlan.default("artifact", seed=7).run(export_dir)
    assert report.ok            # zero missed faults
"""
from repro.chaos.injectors import (CATALOG, KINDS, NotApplicable,
                                   corrupt_golden, corrupt_header,
                                   delay_clock, drop_op, fail_exec,
                                   flip_arena, flip_bits, flip_live_weights,
                                   fuse_illegal, kill_replica,
                                   partition_replica, stale_manifest,
                                   stall_exec, swap_register, truncate_file,
                                   widen_scale)
from repro.chaos.plan import ChaosPlan, ChaosReport, FaultRecord

__all__ = [
    "ChaosPlan", "ChaosReport", "FaultRecord", "CATALOG", "KINDS",
    "NotApplicable",
    "flip_bits", "truncate_file", "corrupt_header", "stale_manifest",
    "swap_register", "widen_scale", "drop_op", "fuse_illegal",
    "fail_exec", "stall_exec", "delay_clock",
    "kill_replica", "partition_replica",
    "flip_live_weights", "flip_arena", "corrupt_golden",
]
