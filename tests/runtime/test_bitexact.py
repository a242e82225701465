"""Bit-exactness matrix: every registry model x fusion mode x scale mode.

The compiled plan's contract is *bitwise* equality with the interpreted
deploy model — fast paths are only taken where exactness is proven, so any
single differing ulp is a bug, not noise.  Both register layouts are
checked: the compiler's pick on this host (channel-major + native kernel on
CNNs when the kernel loaded) and the pure-numpy batch replication a host
without the kernel gets.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import MODELS
from repro.runtime import Plan, ckernel


@pytest.mark.parametrize("float_scale", [False, True],
                         ids=["fixed-point", "float-scale"])
@pytest.mark.parametrize("fusion", ["channel", "prefuse"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_plan_matches_tree_bitwise(deployed_factory, no_ckernel, model_name,
                                   fusion, float_scale):
    d, x, ref = deployed_factory(model_name, fusion, float_scale)
    plans = [Plan.compile(d.qnn)]
    with no_ckernel():
        plans.append(Plan.compile(d.qnn))
    assert plans[1].layout == "batch"
    for plan in plans:
        out = plan(x)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert np.array_equal(ref, out), (
            f"{model_name}/{fusion}/float_scale={float_scale}: plan layout "
            f"{plan.layout!r} diverges from the interpreted tree")


@pytest.mark.parametrize("model_name", ["resnet20", "mobilenet-v1"])
def test_channel_reference_fallback_matches_tree(deployed_factory,
                                                 monkeypatch, model_name):
    """A conv the native kernel may not take (accumulator bound >= 2^24, or
    more taps than its tables hold) replicates the interpreted sequence
    inside the channel plan.  CLI-width models have no such conv, so the
    kernel's tap cap is shrunk until it refuses every one."""
    ck = ckernel.load()
    if ck is None:
        pytest.skip("native kernel unavailable")

    def refused(*args, **kwargs):
        raise AssertionError("conv reached the native kernel")

    monkeypatch.setattr(ck, "taps_cap", 1)
    monkeypatch.setattr(ck, "conv_mq_cm", refused)
    monkeypatch.setattr(ck, "conv_mq_res_cm", refused)
    d, x, ref = deployed_factory(model_name)
    plan = Plan.compile(d.qnn)
    assert plan.layout == "channel"
    assert np.array_equal(plan(x), ref)


def test_deployed_call_uses_plan(deployed_factory, no_ckernel):
    """Deployed.__call__ routes through the compiled plan when present."""
    from repro.core import DeploySpec, deploy
    from repro.core.qconfig import QConfig
    from repro.core.qmodels import quantize_model
    from repro.core.t2c import calibrate_model
    from repro.models import build_model

    d, x, ref = deployed_factory("resnet20")
    assert d.plan is None  # factory compiles with runtime="none"
    rng = np.random.default_rng(0)
    qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)])
    with no_ckernel():
        d2 = deploy(qm, DeploySpec())
    assert d2.plan is not None and d2.plan.layout == "batch"
    x2 = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    assert np.array_equal(d2(x2), d2.plan(x2))


# ----------------------------------------------------- synthetic conv edges
def _tail(src, o):
    """``gap -> fc`` over channel register ``src`` (``o`` channels): a
    batch-layout output for plans whose result is a feature map."""
    from repro.runtime.kernels import MQParams
    from repro.runtime.program import GapMQOp, LinearMQOp

    return [GapMQOp("gap", (src,), src + 1,
                    MQParams(np.asarray(0.25), np.asarray(0.0), -128, 127, 1)),
            LinearMQOp("fc", (src + 1,), src + 2, np.ones((10, o), np.float32),
                       MQParams(np.asarray(0.5), np.asarray(0.0), -128, 127,
                                1))]


def _ops_plan(ops, layout):
    """A plan over ``ops`` (last register a feature map) plus the tail."""
    last = ops[-1]
    ops = list(ops) + _tail(last.dst, last.weight.shape[0])
    return Plan(ops, num_regs=last.dst + 3, output_reg=last.dst + 2,
                model_name="synthetic", out_features=10, layout=layout)


def _conv_plan(ops_fn, native, layout):
    """``in -> conv -> gap -> fc`` over ``ops_fn(native)``'s two ops."""
    return _ops_plan(ops_fn(native), layout)


def _conv_case(name, in_range, c, o, k, hw, stride, padding, groups,
               out_range, rng):
    """A conv op factory pinned to its range ends: int8 weights with
    +-127 (and -128) entries, and the kernel-eligibility flag the
    compiler would give it."""
    from repro.runtime.compiler import native_ok
    from repro.runtime.kernels import (EXACT_F32_LIMIT, MQParams,
                                       conv_reassociation_bound)
    from repro.runtime.program import ConvMQOp, InputQuantOp

    cg = c // groups
    w = rng.integers(-1, 2, size=(o, cg, k, k)).astype(np.float32)
    w.reshape(o, -1)[:, 0] = 127
    w.reshape(o, -1)[:, -1] = -127
    w.flat[1] = -128
    bound = conv_reassociation_bound(w, in_range)
    assert bound < EXACT_F32_LIMIT
    mq = MQParams(rng.uniform(1e-3, 4e-3, o), rng.uniform(-2, 2, o),
                  out_range[0], out_range[1], 1)

    def ops(native):
        return (InputQuantOp("in", (0,), 1, 1.0, *in_range),
                ConvMQOp(name, (1,), 2, w, stride, padding, groups, mq,
                         True, bound,
                         native=native and native_ok(ckernel.load(), w,
                                                     in_range)))
    return ops, hw, c


def _pinned_input(rng, n, c, hw, in_range):
    """Images whose codes sit mostly on the range ends (and past them, so
    the input quantizer clips); ``hw`` is a side or an ``(h, w)`` pair."""
    lo, hi = in_range
    h, w = (hw, hw) if isinstance(hw, int) else hw
    x = rng.choice([lo - 9.0, lo, hi, hi + 9.0, 0.0], size=(n, c, h, w))
    x += rng.integers(lo, hi + 1, size=x.shape) * (rng.random(x.shape) < 0.3)
    return x.astype(np.float32)


def _synthetic_cases():
    rng = np.random.default_rng(33)
    cap = ckernel.load().taps_cap
    return {
        # uint8 codes 0..255, odd planes, 8+1 output channels, int16 out
        "u8": _conv_case("u8", (0, 255), 16, 9, 3, 7, 1, 1, 1,
                         (-16384, 16368), rng),
        # signed stem: int8 -128..127, 3 channels padded to 4, stride 2
        "i8-stem": _conv_case("stem", (-128, 127), 3, 16, 3, 9, 2, 1, 1,
                              (0, 255), rng),
        # the kernel's full tap table; 7 samples per L2 sample block
        "taps-cap": _conv_case("cap", (0, 255), cap // 4, 9, 2, 3, 1, 0, 1,
                               (0, 255), rng),
        # depthwise: the planar int32 loop
        "depthwise": _conv_case("dw", (0, 255), 8, 8, 3, 6, 1, 1, 8,
                                (0, 255), rng),
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["u8", "i8-stem", "taps-cap", "depthwise"])
def test_kernel_range_ends_and_tile_edges(case, threads):
    """Plan == interpreted replication with every code on its range end,
    at batch sizes on both sides of the 16/32-lane tiles and across the
    L2 sample block."""
    from repro.integrity.abft import read_register
    from repro.runtime import CompileSpec
    from repro.runtime.program import SAMPLE_BLOCK_BYTES

    if ckernel.load() is None:
        pytest.skip("native kernel unavailable")
    ops_fn, hw, c = _synthetic_cases()[case]
    plan = _conv_plan(ops_fn, True, "channel")
    plan.spec = CompileSpec(threads=threads)
    ref = _conv_plan(ops_fn, False, "batch")
    conv = plan.ops[1]
    assert conv.native
    rng = np.random.default_rng(7)
    block = SAMPLE_BLOCK_BYTES // (4 * conv.cg * (hw + 2 * conv.padding) ** 2)
    sizes = [1, 15, 16, 17, 63, 64, 65]
    if case == "taps-cap":
        assert block < max(sizes)  # batches span several sample blocks
    for n in sizes:
        x = _pinned_input(rng, n, c, hw, (plan.ops[0].qlb, plan.ops[0].qub))
        out, want = plan(x), ref(x)
        got = read_register(plan._bindings[x.shape].arena, 2)
        assert np.array_equal(got, ref._bindings[x.shape].arena.regs[2]), (
            f"{case}: conv register diverges at batch {n}")
        assert np.array_equal(out, want), f"{case}: logits at batch {n}"


def test_wide_input_conv_takes_channel_reference():
    """A conv whose input codes need more than 8 bits is never native: it
    replicates the interpreted sequence inside the channel plan."""
    from repro.integrity.abft import read_register

    if ckernel.load() is None:
        pytest.skip("native kernel unavailable")
    rng = np.random.default_rng(5)
    ops_fn, hw, c = _conv_case("wide", (-512, 511), 8, 8, 3, 5, 1, 1, 1,
                               (0, 255), rng)
    plan = _conv_plan(ops_fn, True, "channel")
    ref = _conv_plan(ops_fn, False, "batch")
    assert not plan.ops[1].native
    x = _pinned_input(rng, 17, c, hw, (-512, 511))
    assert np.array_equal(plan(x), ref(x))
    assert plan._bindings[x.shape].arena.dtypes[1] == np.int16
    assert np.array_equal(read_register(plan._bindings[x.shape].arena, 2),
                          ref._bindings[x.shape].arena.regs[2])


@pytest.mark.parametrize("stride,fused", [(1, False), (2, False), (1, True)])
def test_rows_wider_than_the_epilogue_staging(stride, fused):
    """Output rows wider than the epilogue's 1024-code staging: plain convs
    (stride 1 runs as one span, stride 2 row segment by row segment) and a
    valid-padding conv fused with a requantized shortcut register."""
    from repro.integrity.abft import read_register
    from repro.runtime.compiler import native_ok
    from repro.runtime.kernels import MQParams
    from repro.runtime.program import ConvMQOp, ConvMQResOp

    if ckernel.load() is None:
        pytest.skip("native kernel unavailable")
    rng = np.random.default_rng(11)
    ops_fn, _, c = _conv_case("wide-rows", (0, 255), 4, 4, 3, None, stride,
                              0 if fused else 1, 1, (0, 255), rng)
    if fused:
        inq, conv = ops_fn(False)
        mq = MQParams(np.full(4, 0.01), np.zeros(4), -16384, 16368, 1)
        smq = MQParams(np.full(4, 3.0), np.full(4, 0.5), -16384, 16368, 1)

        def ops_fn(native):  # in -> conv -> conv + residual(first conv)
            ok = native and native_ok(ckernel.load(), conv.weight, (0, 255))
            return [inq,
                    ConvMQOp("a", (1,), 2, conv.weight, 1, 0, 1, conv.mq,
                             True, conv.bound, native=ok),
                    ConvMQResOp("res", (1, 2), 3, conv.weight, 1, 0, 1, mq,
                                True, conv.bound, 2.0, 0, 255, "merge",
                                smq=smq, smq_name="id", native=ok)]
    plan = _ops_plan(ops_fn(True), "channel")
    ref = _ops_plan(ops_fn(False), "batch")
    assert all(op.native for op in plan.ops if hasattr(op, "native"))
    x = _pinned_input(rng, 3, c, (5, 2100), (0, 255))
    assert np.array_equal(plan(x), ref(x))
    reg = 3 if fused else 2
    assert np.array_equal(read_register(plan._bindings[x.shape].arena, reg),
                          ref._bindings[x.shape].arena.regs[reg])
