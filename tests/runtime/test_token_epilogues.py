"""Differential tests of the token epilogues: native C pass == numpy
reference == the interpreted module.

The ViT's requant, LUT softmax, LUT GELU and the residual merge on plain
``(N, ...)`` registers each run as one C pass when the kernel is loaded
(``_ck/requant.c``) and as :mod:`repro.runtime.kernels` otherwise.  Both
must give the interpreted tree's values bit for bit (the sign of a zero
included) on the inputs a calibrated model rarely draws: exact ``k.5``
ties, both clamp edges and codes past them, every table shape, rows of
length 1, all-equal score rows and offsets past the table's end.  The
lean references must also equal the earlier numpy formulation, value for
value.  Finally, vit-7's token ops must really bind the native bodies
when the kernel loads, so a silent fallback cannot pass as a speedup.
A plan runs the first three in place over the GEMM result they follow
(``in_place=True``); each is checked that way too.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lut import LUTGelu, LUTSoftmax
from repro.core.mulquant import MulQuant
from repro.runtime import Plan, ckernel, kernels
from repro.tensor.tensor import Tensor

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

#: scales and biases that make exact ties (x * 0.5 with odd x), plus
#: ordinary fractions
SCALES = st.sampled_from([0.5, 0.25, 0.125, 0.375, 0.0123, 0.7071, 1.0])
BIASES = st.sampled_from([0.0, 0.5, -0.5, 0.25, -3.75, 1.3])
#: (lo, hi) clamp ranges: unsigned and signed 8-bit, 4-bit, one-sided
RANGES = st.sampled_from([(0, 255), (-128, 127), (-8, 7), (0, 3), (-1, 0)])


@pytest.fixture(scope="module")
def ck():
    kernel = ckernel.load()
    if kernel is None:
        pytest.skip("native kernel unavailable")
    return kernel


def _same(*arrays) -> None:
    """Bitwise equality (``array_equal`` would accept -0.0 for 0.0)."""
    first = arrays[0]
    for a in arrays[1:]:
        assert a.dtype == first.dtype and a.shape == first.shape
        assert np.array_equal(a, first)
        assert a.tobytes() == first.tobytes()


def _codes(draw, shape, lo=-600, hi=600):
    """Integer codes in float32, as every plain register holds them."""
    n = int(np.prod(shape))
    vals = draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    return np.asarray(vals, dtype=np.float32).reshape(shape)


def _old_requant(x, p):
    """The earlier numpy requant (sign(v) * floor(|v| + 0.5)); values only."""
    acc = np.asarray(x, dtype=np.float64)
    v = acc * kernels.broadcast_scale(p.m, acc.ndim, p.axis)
    v += kernels.broadcast_scale(p.b, acc.ndim, p.axis)
    r = np.floor(np.abs(v) + 0.5) * np.sign(v)
    return np.clip(r, p.lo, p.hi).astype(np.float32)


def _old_softmax(x, table, prob_bits):
    s = x.astype(np.int64)
    d = np.minimum(s.max(axis=-1, keepdims=True) - s, len(table) - 1)
    e = table[d]
    denom = e.sum(axis=-1, keepdims=True)
    return np.floor((e.astype(np.float64) * (1 << prob_bits) + denom // 2)
                    / denom).astype(np.float32)


@st.composite
def requant_cases(draw):
    """``(x, MulQuant)``: a plain register and a requantizer whose table
    is a scalar, per-channel on the last axis, or per-position (L, D)."""
    n, l, d = draw(st.integers(1, 3)), draw(st.integers(1, 4)), \
        draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["scalar", "channel", "position"]))
    token = kind == "position" or draw(st.booleans())
    shape = (n, l, d) if token else (n, d)
    table = {"scalar": (1,), "channel": (d,), "position": (l, d)}[kind]
    size = int(np.prod(table))
    scale = np.asarray(draw(st.lists(SCALES, min_size=size, max_size=size)))
    bias = np.asarray(draw(st.lists(BIASES, min_size=size, max_size=size)))
    lo, hi = draw(RANGES)
    mq = MulQuant(scale.reshape(table), bias.reshape(table), out_lo=lo,
                  out_hi=hi, channel_axis=-1,
                  float_scale=draw(st.booleans()))
    return _codes(draw, shape), mq


@SETTINGS
@given(requant_cases())
def test_requant_native_matches_reference_and_tree(ck, case):
    x, mq = case
    p = kernels.MQParams.of(mq)
    m, b = kernels.requant_table(p, x.shape)
    native = ck.requant_tok(m, b, p.lo, p.hi, x.shape)(x)
    over = ck.requant_tok(m, b, p.lo, p.hi, x.shape, in_place=True)(x.copy())
    ref = kernels.requant(x, p)
    _same(ref, mq(Tensor(x)).data, native, over)
    assert np.array_equal(ref, _old_requant(x, p))


def test_requant_ties_and_clamp_edges(ck):
    """Every k.5 tie in [-6.5, 6.5] rounds away from zero; the clamp keeps
    both edges and everything past them."""
    x = np.arange(-13, 14, dtype=np.float32).reshape(1, -1)
    p = kernels.MQParams(np.asarray(0.5), np.asarray(0.0), -4.0, 5.0, -1)
    native = ck.requant_tok(*kernels.requant_table(p, x.shape), p.lo, p.hi,
                            x.shape)(x)
    want = np.clip(np.sign(x) * np.ceil(np.abs(x) / 2), -4, 5)
    _same(kernels.requant(x, p), native)
    assert np.array_equal(native, want)
    assert native.min() == -4 and native.max() == 5


@pytest.mark.parametrize("kind", ["scalar", "channel", "position"])
def test_requant_table_period(kind):
    """The bind-time broadcast: rows of one period, m[j] for element j."""
    l, d = 3, 4
    table = {"scalar": (1,), "channel": (d,), "position": (l, d)}[kind]
    m = np.arange(1, 1 + np.prod(table), dtype=np.float64).reshape(table)
    p = kernels.MQParams(m, np.zeros(table), 0.0, 1.0, -1)
    tm, tb = kernels.requant_table(p, (2, l, d))
    assert tm.size == {"scalar": 1, "channel": d, "position": l * d}[kind]
    full = np.broadcast_to(kernels.broadcast_scale(m, 3, -1), (2, l, d))
    assert np.array_equal(np.resize(tm, 2 * l * d), full.reshape(-1))
    assert tb.shape == tm.shape and tm.flags.c_contiguous


@st.composite
def softmax_cases(draw):
    """Score rows whose offsets from the row max can pass the table end,
    rows of length 1 and all-equal rows."""
    rows, length = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    span = draw(st.integers(1, 40))            # table has span + 1 entries
    x = _codes(draw, (rows, length), -3 * span, 3 * span)
    if draw(st.booleans()):
        x[0] = x[0, 0]                          # an all-equal row
    lut = LUTSoftmax(draw(st.sampled_from([0.02, 0.1, 0.37, 1.5])),
                     -span // 2, span - span // 2,
                     prob_bits=draw(st.integers(4, 15)))
    return x.reshape(1, rows, length), lut


@SETTINGS
@given(softmax_cases())
def test_lut_softmax_native_matches_reference_and_tree(ck, case):
    x, lut = case
    table, pb = lut.table.data, lut.prob_bits
    native = ck.lut_softmax_tok(table, pb, x.shape)(x)
    over = ck.lut_softmax_tok(table, pb, x.shape, in_place=True)(x.copy())
    ref = kernels.lut_softmax(x, table, pb)
    _same(ref, lut(Tensor(x)).data, native, over)
    assert np.array_equal(ref, _old_softmax(x, table, pb))


def test_lut_softmax_edge_rows(ck):
    """A row of length 1 is certain; an all-equal row is uniform; a score
    past the table's span below its row max takes the last entry."""
    lut = LUTSoftmax(0.5, -4, 3, prob_bits=8)     # 8 entries
    table = lut.table.data
    outs = []
    for x in (np.full((1, 1, 1), 7.0, np.float32),
              np.full((1, 2, 5), -3.0, np.float32),
              np.asarray([[[100.0, -100.0, 93.0]]], np.float32)):
        native = ck.lut_softmax_tok(table, 8, x.shape)(x)
        _same(kernels.lut_softmax(x, table, 8), lut(Tensor(x)).data, native)
        outs.append(native)
    certain, uniform, capped = outs
    assert certain.item() == 256
    assert np.all(uniform == uniform.flat[0])
    assert capped[0, 0, 1] == capped[0, 0, 2] < capped[0, 0, 0]


@SETTINGS
@given(st.integers(-16, 0), st.integers(1, 24), st.integers(1, 40),
       st.data())
def test_lut_gelu_native_matches_reference_and_tree(ck, qlb, width, n,
                                                    data):
    qub = qlb + width
    gelu = LUTGelu(0.1, qlb, qub, 0.05, -20, 60)
    x = _codes(data.draw, (1, n), qlb - 30, qub + 30)  # past both ends
    table = gelu.table.data
    native = ck.lut_gelu_tok(table, qlb, qub, x.shape)(x)
    over = ck.lut_gelu_tok(table, qlb, qub, x.shape, in_place=True)(x.copy())
    _same(kernels.lut_gelu(x, table, qlb, qub), gelu(Tensor(x)).data,
          native, over)


@SETTINGS
@given(st.integers(1, 40), st.sampled_from([1.0, 2.0, 4.0, 0.75, 3.3]),
       RANGES, st.data())
def test_residual_native_matches_reference(ck, n, rs, rng_, data):
    lo, hi = rng_
    a = _codes(data.draw, (1, n), -300, 300)
    s = _codes(data.draw, (1, n), -300, 300)
    native = ck.residual_tok(rs, float(lo), float(hi), a.shape)(a, s)
    _same(kernels.residual_merge(a, s, rs, lo, hi), native)


def test_token_pass_refuses_a_non_float32_source(ck):
    p = kernels.MQParams(np.asarray(0.5), np.asarray(0.0), -8.0, 7.0, -1)
    run = ck.requant_tok(*kernels.requant_table(p, (2, 3)), p.lo, p.hi,
                         (2, 3))
    with pytest.raises(TypeError):
        run(np.zeros((2, 3), dtype=np.float64))


def _token_ops(plan):
    """Indices of the ops with a plain-register epilogue, and the binding."""
    binding = plan.live_bindings()[-1]
    shapes = binding.arena.shapes
    return binding, [i for i, op in enumerate(plan.ops)
                     if len(shapes[op.dst]) != 3
                     and op.kind not in ("tokens", "call_module")]


def test_vit_token_ops_bind_native_when_loaded(deployed_factory, no_ckernel):
    d, x, ref = deployed_factory("vit-7")
    plan = Plan.compile(d.qnn)
    assert np.array_equal(plan(x), ref)
    binding, token = _token_ops(plan)
    kinds = {plan.ops[i].kind for i in token}
    assert {"attention", "mlp", "head", "mulquant", "residual"} <= kinds
    loaded = ckernel.load() is not None
    assert [binding.native[i] for i in token] == [loaded] * len(token)
    with no_ckernel():
        plan = Plan.compile(d.qnn)
        assert np.array_equal(plan(x), ref)
        binding, token = _token_ops(plan)
        assert not any(binding.native)
