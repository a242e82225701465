"""Plan invariants: determinism, serving, fallbacks, error paths."""
from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import CompileError, Plan
from repro.runtime import ckernel


def test_compile_is_deterministic(deployed_factory):
    """Two compiles of the same model produce the identical program."""
    d, x, _ = deployed_factory("resnet20")
    p1 = Plan.compile(d.qnn)
    p2 = Plan.compile(d.qnn)
    assert p1.signature() == p2.signature()
    assert p1.describe() == p2.describe()
    assert [op.kind for op in p1.ops] == [op.kind for op in p2.ops]
    assert np.array_equal(p1(x), p2(x))


def test_signature_differs_across_models(deployed_factory):
    d1, _, _ = deployed_factory("resnet20")
    d2, _, _ = deployed_factory("vgg8")
    assert Plan.compile(d1.qnn).signature() != Plan.compile(d2.qnn).signature()


def test_serve_shared_memory_roundtrip(deployed_factory):
    """serve(workers=2) shards across the pool and preserves batch order."""
    d, x, _ = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn)
    batches = [x + np.float32(i) for i in range(5)]
    inline = [plan(b) for b in batches]
    served = list(plan.serve(batches, workers=2))
    assert len(served) == len(inline)
    for got, want in zip(served, inline):
        assert np.array_equal(got, want)


def test_serve_inline_fallback(deployed_factory):
    d, x, _ = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn)
    outs = list(plan.serve([x, x], workers=0))
    assert len(outs) == 2 and np.array_equal(outs[0], plan(x))


def test_numpy_fallback_without_ckernel(deployed_factory, no_ckernel):
    """With the kill switch set, a CNN compiles to the bit-exact batch
    replication instead of the native kernel."""
    d, x, ref = deployed_factory("resnet20")
    with no_ckernel():
        assert ckernel.load() is None
        plan = Plan.compile(d.qnn)
    assert plan.layout == "batch"
    assert np.array_equal(ref, plan(x))


def test_channel_plan_refuses_to_bind_without_ckernel(deployed_factory,
                                                      no_ckernel):
    """A channel plan has no numpy stand-in for its kernel ops: binding one
    after the kernel went away is a clear error, not a wrong answer."""
    d, x, _ = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn)
    if plan.layout != "channel":
        pytest.skip("native kernel unavailable")
    with no_ckernel():
        with pytest.raises(RuntimeError, match="native kernel"):
            plan(x)


def test_channel_layout_rejects_vit(deployed_factory):
    """The channel layout is for CNNs only: a ViT takes the batch layout
    even when the native kernel is loaded."""
    d, x, ref = deployed_factory("vit-7")
    plan = Plan.compile(d.qnn)
    assert plan.layout == "batch"
    assert np.array_equal(ref, plan(x))


def test_compile_rejects_unfused_model():
    from repro.core.qconfig import QConfig
    from repro.core.qmodels import quantize_model
    from repro.models import build_model

    qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                        QConfig(8, 8))
    with pytest.raises(CompileError):
        Plan.compile(qm)


def test_op_report_and_reset(deployed_factory):
    d, x, _ = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn)
    plan(x)
    rows = plan.op_report()
    assert rows and all(r["calls"] == 1 for r in rows)
    assert {r["kind"] for r in rows} >= {"conv_mq", "residual", "gap_mq"}
    plan.reset_op_stats()
    assert all(r["calls"] == 0 for r in plan.op_report())
