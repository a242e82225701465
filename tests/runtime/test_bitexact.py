"""Bit-exactness matrix: every registry model x fusion mode x scale mode.

The compiled plan's contract is *bitwise* equality with the interpreted
deploy model — fast paths are only taken where exactness is proven, so any
single differing ulp is a bug, not noise.  Both op bodies are checked:
the native kernel where it loaded, and the numpy reference bodies a host
without the kernel runs over the same channel-major registers.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import MODELS
from repro.runtime import Plan, ckernel


def _native(plan) -> bool:
    return any(getattr(op, "native", False) for op in plan.ops)


@pytest.mark.parametrize("float_scale", [False, True],
                         ids=["fixed-point", "float-scale"])
@pytest.mark.parametrize("fusion", ["channel", "prefuse"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_plan_matches_tree_bitwise(deployed_factory, no_ckernel, model_name,
                                   fusion, float_scale):
    d, x, ref = deployed_factory(model_name, fusion, float_scale)
    plan = Plan.compile(d.qnn)
    outs = {"native": plan(x)}
    assert _native(plan) == (ckernel.load() is not None)
    with no_ckernel():
        plan = Plan.compile(d.qnn)
        outs["numpy"] = plan(x)
    assert not _native(plan)
    for body, out in outs.items():
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert np.array_equal(ref, out), (
            f"{model_name}/{fusion}/float_scale={float_scale}: the {body} "
            f"plan diverges from the interpreted tree")


@pytest.mark.parametrize("model_name", ["resnet20", "mobilenet-v1"])
def test_channel_reference_fallback_matches_tree(deployed_factory,
                                                 monkeypatch, model_name):
    """A conv the native kernel may not take (more taps than its tables
    hold) runs the interpreted float64 accumulation over the channel-major
    registers.  Registry models have no such conv, so the kernel's tap cap
    is shrunk until it refuses every one."""
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
    assert not _native(plan)
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
    assert d2.plan is not None and not _native(d2.plan)
    x2 = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    assert np.array_equal(d2(x2), d2.plan(x2))


# ----------------------------------------------------- synthetic conv edges
def _tail(src, o):
    """``gap -> fc`` over feature-map register ``src`` (``o`` channels):
    a logit output for plans whose result is a feature map."""
    from repro.runtime.kernels import MQParams
    from repro.runtime.program import GapMQOp, LinearMQOp

    return [GapMQOp("gap", (src,), src + 1,
                    MQParams(np.asarray(0.25), np.asarray(0.0), -128, 127, 1)),
            LinearMQOp("fc", (src + 1,), src + 2, np.ones((10, o), np.float32),
                       MQParams(np.asarray(0.5), np.asarray(0.0), -128, 127,
                                1))]


def _ops_plan(ops):
    """A plan over ``ops`` (last register a feature map with the last
    conv's channels) plus the tail."""
    last = ops[-1]
    o = next(op for op in reversed(ops) if hasattr(op, "weight"))
    ops = list(ops) + _tail(last.dst, o.weight.shape[0])
    return Plan(ops, num_regs=last.dst + 3, output_reg=last.dst + 2,
                model_name="synthetic", out_features=10)


def _diverging_registers(plan, ref, shape):
    """The feature-map registers whose codes differ between two bindings."""
    from repro.integrity.abft import read_register

    a, b = plan._tls.by_shape[shape].arena, ref._tls.by_shape[shape].arena
    return [r for r in sorted(a._cm_centers)
            if not np.array_equal(read_register(a, r), read_register(b, r))]


def _conv_case(name, in_range, c, o, k, hw, stride, padding, groups,
               out_range, rng, w=None, mq=None):
    """A conv op factory pinned to its range ends: int8 weights with
    +-127 (and -128) entries unless ``w`` is given, and the
    kernel-eligibility flag the compiler would give it."""
    from repro.runtime.compiler import native_ok
    from repro.runtime.kernels import MQParams, conv_accum_bound
    from repro.runtime.program import ConvMQOp, InputQuantOp

    if w is None:
        w = rng.integers(-1, 2, size=(o, c // groups, k, k)).astype(np.float32)
        w.reshape(o, -1)[:, 0] = 127
        w.reshape(o, -1)[:, -1] = -127
        w.flat[1] = -128
    if mq is None:
        mq = MQParams(rng.uniform(1e-3, 4e-3, o), rng.uniform(-2, 2, o),
                      out_range[0], out_range[1], 1)
    bound = conv_accum_bound(w, in_range)

    def ops(native):
        return (InputQuantOp("in", (0,), 1, 1.0, *in_range),
                ConvMQOp(name, (1,), 2, w, stride, padding, groups, mq, bound,
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


def _merge_case(in_range, c, hw, pre_range, out_range, rng):
    """``in -> conv`` plus a standalone ``mulquant`` shortcut off the
    input and their ``residual`` merge: the feature-map requant and merge
    ops, with the shortcut codes pinned to the ``pre_range`` ends and the
    merge clamping at the ``out_range`` ends."""
    from repro.runtime.kernels import MQParams
    from repro.runtime.program import MulQuantOp, ResidualOp

    conv_fn, _, _ = _conv_case("conv", in_range, c, c, 3, hw, 1, 1, 1,
                               pre_range, rng)
    top = max(abs(v) for v in pre_range) / max(abs(v) for v in in_range)
    smq = MQParams(rng.uniform(0.5, 1.5, c) * top, rng.uniform(-2, 2, c),
                   pre_range[0], pre_range[1], 1)

    def ops(native):
        inq, conv = conv_fn(native)
        return (inq, conv, MulQuantOp("id", (1,), 3, smq),
                ResidualOp("merge", (2, 3), 4, 64.0, *out_range))
    return ops, hw, c


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
        # uint8 input, int16 pre-add conv and shortcut, merged to uint8
        "merge-u8": _merge_case((0, 255), 8, 5, (-16384, 16368), (0, 255),
                                rng),
        # int8 input, int16 pre-add conv and shortcut, merged to int8
        "merge-i8": _merge_case((-128, 127), 4, 6, (-16384, 16368),
                                (-128, 127), rng),
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["u8", "i8-stem", "taps-cap", "depthwise",
                                  "merge-u8", "merge-i8"])
def test_kernel_range_ends_and_tile_edges(no_ckernel, case, threads):
    """The native plan == the same plan on its numpy bodies, with every
    code on its range end, at batch sizes on both sides of the 16/32-lane
    tiles and across the L2 sample block."""
    from repro.runtime import CompileSpec
    from repro.runtime.program import SAMPLE_BLOCK_BYTES

    if ckernel.load() is None:
        pytest.skip("native kernel unavailable")
    ops_fn, hw, c = _synthetic_cases()[case]
    plan = _ops_plan(ops_fn(True))
    plan.spec = CompileSpec(threads=threads)
    ref = _ops_plan(ops_fn(True))
    conv = plan.ops[1]
    assert conv.native
    rng = np.random.default_rng(7)
    block = SAMPLE_BLOCK_BYTES // (4 * conv.cg * (hw + 2 * conv.padding) ** 2)
    sizes = [1, 15, 16, 17, 63, 64, 65]
    if case == "taps-cap":
        assert block < max(sizes)  # batches span several sample blocks
    for n in sizes:
        x = _pinned_input(rng, n, c, hw, (plan.ops[0].qlb, plan.ops[0].qub))
        out = plan(x)
        with no_ckernel():
            want = ref(x)
        assert not _diverging_registers(plan, ref, x.shape), (
            f"{case}: registers diverge at batch {n}")
        assert np.array_equal(out, want), f"{case}: logits at batch {n}"


def test_wide_input_conv_takes_channel_reference(no_ckernel):
    """A conv whose input codes need more than 8 bits is never native: it
    replicates the interpreted sequence over the channel-major registers."""
    if ckernel.load() is None:
        pytest.skip("native kernel unavailable")
    rng = np.random.default_rng(5)
    ops_fn, hw, c = _conv_case("wide", (-512, 511), 8, 8, 3, 5, 1, 1, 1,
                               (0, 255), rng)
    plan = _ops_plan(ops_fn(True))
    ref = _ops_plan(ops_fn(False))
    assert not plan.ops[1].native
    x = _pinned_input(rng, 17, c, hw, (-512, 511))
    out = plan(x)
    with no_ckernel():
        assert np.array_equal(out, ref(x))
    assert plan._tls.by_shape[x.shape].arena.dtypes[1] == np.int16
    assert not _diverging_registers(plan, ref, x.shape)


@pytest.mark.parametrize("stride,fused", [(1, False), (2, False), (1, True)])
def test_rows_wider_than_the_epilogue_staging(no_ckernel, stride, fused):
    """Output rows wider than the epilogue's 1024-code staging: plain convs
    (stride 1 runs as one span, stride 2 row segment by row segment) and a
    valid-padding conv fused with a requantized shortcut register."""
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
                             conv.bound, native=ok),
                    ConvMQResOp("res", (1, 2), 3, conv.weight, 1, 0, 1, mq,
                                conv.bound, 2.0, 0, 255, "merge",
                                smq=smq, smq_name="id", native=ok)]
    plan = _ops_plan(ops_fn(True))
    ref = _ops_plan(ops_fn(True))
    assert all(op.native for op in plan.ops if hasattr(op, "native"))
    x = _pinned_input(rng, 3, c, (5, 2100), (0, 255))
    out = plan(x)
    with no_ckernel():
        assert np.array_equal(out, ref(x))
    assert not _diverging_registers(plan, ref, x.shape)


# ------------------------------------------------- exact conv accumulation
def test_conv_sum_past_float32_is_exact(no_ckernel):
    """A conv whose exact sums are odd and above 2^24 — 64 channels x 3x3
    of weights 127 (one even entry per output channel) over codes at 255 —
    which no float32 holds: the deploy-path ``QConv2d``, the native plan
    and the numpy-body plan all equal an int64 reference.  The requant
    subtracts each sum but 3, so one unit of rounding shows in the codes."""
    from repro.core.qlayers import QConv2d
    from repro.integrity.abft import read_register
    from repro.runtime.kernels import MQParams, requant
    from repro.tensor import no_grad
    from repro.tensor.tensor import Tensor

    o, c = 8, 64
    w = np.full((o, c, 3, 3), 127.0, dtype=np.float32)
    w[:, 0, 0, 0] = 126 - 2 * np.arange(o)
    x = np.full((2, c, 3, 3), 255.0, dtype=np.float32)
    want = np.einsum("nchw,ochw->no", x.astype(np.int64), w.astype(np.int64))
    assert (want % 2 == 1).all() and (want > 2 ** 24).all()
    want = want.reshape(2, o, 1, 1)

    conv = QConv2d(c, o, 3, bias=False)
    conv.wint.data = w
    conv.set_deploy(True)
    with no_grad():
        acc = conv(Tensor(x)).data
    assert acc.dtype == np.float64 and np.array_equal(acc, want)

    mq = MQParams(np.ones(o), 3.0 - want[0, :, 0, 0], -128, 127, 1)
    codes = requant(want, mq)
    assert (codes == 3).all()
    ops_fn, _, _ = _conv_case("odd-sum", (0, 255), c, o, 3, 3, 1, 0, 1,
                              (-128, 127), None, w=w, mq=mq)
    outs = {}
    if ckernel.load() is not None:
        plan = _ops_plan(ops_fn(True))
        assert plan.ops[1].native
        plan(x)
        outs["native"] = plan
    with no_ckernel():
        plan = _ops_plan(ops_fn(True))
        plan(x)
        outs["numpy"] = plan
    for body, plan in outs.items():
        got = read_register(plan._tls.by_shape[x.shape].arena, 2)
        assert np.array_equal(got, codes), f"{body} body rounds the sum"


@pytest.fixture(scope="module")
def paper_resnet18():
    """resnet18 at the paper's width (64), 8/8 bits, one calibration
    batch: 7 of its 20 convs have accumulator bounds past 2^24."""
    from repro.core import DeploySpec, deploy
    from repro.core.qconfig import QConfig
    from repro.core.qmodels import quantize_model
    from repro.core.t2c import calibrate_model
    from repro.models import build_model
    from repro.tensor import no_grad
    from repro.tensor.tensor import Tensor

    rng = np.random.default_rng(18)
    qm = quantize_model(build_model("resnet18", num_classes=10, width=64),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32))
                         .astype(np.float32)])
    d = deploy(qm, DeploySpec(runtime="none"))
    x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    with no_grad():
        ref = d.qnn(Tensor(x)).data
    return d, x, ref


@pytest.mark.parametrize("threads", [1, 2])
def test_paper_width_resnet18_bitexact(paper_resnet18, no_ckernel, threads):
    """Every conv of paper-width resnet18 runs natively (when the kernel
    loads) and under ABFT, and both bodies equal the interpreted tree."""
    from repro.runtime import CompileSpec

    d, x, ref = paper_resnet18
    spec = CompileSpec(threads=threads)
    plan = Plan.compile(d.qnn, spec)
    convs = [op for op in plan.ops if op.kind in ("conv_mq", "conv_mq_res")]
    assert len(convs) == 20
    assert max(op.bound for op in convs) > 2 ** 24
    if ckernel.load() is not None:
        assert all(op.native for op in convs)
    assert plan._abft_skipped == []
    report = plan.verify(input_shape=(3, 32, 32))
    assert report.ok
    assert not [line for line in report.render().splitlines()
                if "conv_mq" in line and "!f32" in line]
    assert np.array_equal(plan(x), ref)
    numpy_plan = Plan.compile(d.qnn, spec)
    with no_ckernel():  # the same ops, bound to their numpy bodies
        assert np.array_equal(numpy_plan(x), ref)
