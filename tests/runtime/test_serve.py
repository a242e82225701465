"""plan.serve(): the offline batch stream, inline or on threads.

The offline serving contract: every path — inline (``workers < 2``) or
``workers`` threads over the one plan — yields *bit-exact* logits in input
order, a batch that raises surfaces as that error instead of a hang, and
the caller's telemetry switch is untouched.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.runtime import Plan


@pytest.fixture()
def plan_and_batches(deployed_factory):
    d, x, _ = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn)
    batches = [x + np.float32(i) for i in range(6)]
    expected = [plan(b) for b in batches]
    return plan, batches, expected


def _assert_stream_exact(outs, expected):
    assert len(outs) == len(expected)
    for i, (got, want) in enumerate(zip(outs, expected)):
        assert np.array_equal(got, want), f"batch {i} diverges"


def test_inline_path_bit_exact(plan_and_batches):
    """workers < 2 runs everything on the caller's thread, exact and in
    order."""
    plan, batches, expected = plan_and_batches
    for workers in (0, 1):
        _assert_stream_exact(list(plan.serve(batches, workers=workers)),
                             expected)


def test_threads_keep_order_across_batch_shapes(plan_and_batches):
    """Threads bind each batch shape on first use; a stream that mixes
    shapes still comes back exact and in input order."""
    plan, batches, _ = plan_and_batches
    big = np.concatenate([batches[0], batches[1]])
    mixed = [batches[0], big, batches[2], big + np.float32(1), batches[3]]
    expected = [plan(b) for b in mixed]
    for workers in (2, 4):
        _assert_stream_exact(list(plan.serve(mixed * 3, workers=workers)),
                             expected * 3)


def test_raising_batch_surfaces_in_order(plan_and_batches):
    """A batch the plan refuses re-raises from the stream at its position:
    the batches before it are yielded, nothing hangs."""
    plan, batches, expected = plan_and_batches
    bad = np.zeros((2, 1) + batches[0].shape[2:], dtype=np.float32)
    gen = plan.serve(batches[:3] + [bad] + batches[3:], workers=2)
    _assert_stream_exact([next(gen) for _ in range(3)], expected[:3])
    with pytest.raises(ValueError, match="channels"):
        next(gen)


@pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pool"])
def test_serve_preserves_parent_telemetry(plan_and_batches, workers):
    """After serve() completes (either path), the caller's telemetry switch
    is untouched."""
    plan, batches, expected = plan_and_batches
    prev = telemetry.set_enabled(True)
    try:
        assert telemetry.enabled()
        _assert_stream_exact(list(plan.serve(batches, workers=workers)),
                             expected)
        assert telemetry.enabled(), "plan.serve leaked a telemetry disable"
    finally:
        telemetry.set_enabled(prev)
