"""Plan invariants: determinism, serving, fallbacks, error paths."""
from __future__ import annotations

import contextlib
import copy

import numpy as np
import pytest

from repro.runtime import CompileError, CompileSpec, Plan
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
    """serve(workers=2) runs two threads sharing the plan's memory (its
    constants; each thread binds its own arena) and preserves batch
    order."""
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


def _native_convs(plan):
    return [op for op in plan.ops if getattr(op, "native", False)]


def test_numpy_fallback_without_ckernel(deployed_factory, no_ckernel):
    """With the kill switch set, a CNN compiles with no native conv and
    runs bit-exactly on the numpy bodies."""
    d, x, ref = deployed_factory("resnet20")
    with no_ckernel():
        assert ckernel.load() is None
        plan = Plan.compile(d.qnn)
        assert not _native_convs(plan)
        assert np.array_equal(ref, plan(x))


def test_native_plan_binds_without_ckernel(deployed_factory, no_ckernel):
    """A plan compiled with the kernel and bound where it is gone runs
    the same op list on the numpy bodies, bit-exactly."""
    d, x, ref = deployed_factory("resnet20")
    plan = Plan.compile(d.qnn)
    if not _native_convs(plan):
        pytest.skip("native kernel unavailable")
    moved = copy.deepcopy(plan)
    with no_ckernel():
        assert np.array_equal(ref, moved(x))
    assert moved._tls.by_shape[x.shape].arena.ck is None
    assert np.array_equal(ref, plan(x))


@pytest.mark.parametrize("threads", [1, 2])
def test_vit_runs_native_patch_conv(deployed_factory, threads):
    """A ViT compiles like any CNN: its patch conv takes the native kernel
    when it loaded, and the plan stays bit-exact."""
    d, x, ref = deployed_factory("vit-7")
    plan = Plan.compile(d.qnn, CompileSpec(threads=threads))
    if ckernel.load() is None:
        pytest.skip("native kernel unavailable")
    assert [op.name for op in _native_convs(plan)] == ["patch"]
    assert np.array_equal(ref, plan(x))


@pytest.mark.parametrize("model", ["resnet20", "vgg8", "vit-7"])
@pytest.mark.parametrize("body", ["native", "numpy"])
def test_wrong_input_channels_are_refused(deployed_factory, no_ckernel,
                                          model, body):
    """A batch whose channel count the first conv cannot read raises a
    ValueError naming the conv, before any buffer is allocated, and leaves
    no binding cached."""
    d, x, _ = deployed_factory(model)
    for c in (1, 4):
        bad = np.zeros((2, c) + x.shape[2:], dtype=np.float32)
        with contextlib.ExitStack() as stack:
            if body == "numpy":
                stack.enter_context(no_ckernel())
            plan = Plan.compile(d.qnn)
            with pytest.raises(ValueError, match="input has .* channels"
                               ) as err:
                plan(bad)
        assert plan.ops[1].name in str(err.value)
        assert not plan._tls.by_shape


def test_wrong_patch_grid_is_refused(deployed_factory):
    """A ViT image whose patch grid does not match the position table is
    refused during shape inference, naming the token op."""
    d, x, _ = deployed_factory("vit-7")
    plan = Plan.compile(d.qnn)
    side = x.shape[-1] // 2
    with pytest.raises(ValueError, match="patch grid") as err:
        plan(np.zeros(x.shape[:2] + (side, side), dtype=np.float32))
    tokens = next(op for op in plan.ops if op.kind == "tokens")
    assert tokens.name in str(err.value)
    assert not plan._tls.by_shape


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("body", ["native", "numpy"])
def test_non_finite_input_is_refused(deployed_factory, no_ckernel, body, value):
    """The input contract: one non-finite pixel raises a ValueError naming
    its position, where the cast onto the int8 input grid would have
    served finite logits the interpreted tree does not give."""
    d, x, ref = deployed_factory("resnet20")
    bad = x.copy()
    bad[1, 2, 5, 7] = value
    with contextlib.ExitStack() as stack:
        if body == "numpy":
            stack.enter_context(no_ckernel())
        plan = Plan.compile(d.qnn)
        with pytest.raises(ValueError, match=r"non-finite input .* \(1, 2, 5, 7\)"):
            plan(bad)
        assert np.array_equal(plan(x), ref)
