"""Numeric kernels for the compiled runtime — bit-exact by construction.

Two exactness strategies, chosen per op at compile time:

* **replication** — execute the very same numpy call sequence the interpreted
  module runs (same dtypes, same views, same reduction order).  Identical
  inputs through identical operations give identical bits; used for every op
  but the conv — the linear, attention, MLP and head GEMMs sum in float32 on
  both sides.
* **exact accumulation** — a conv sums integers, and an exact integer sum
  has one value in any order.  The native kernel multiplies uint8 (or
  XOR-biased int8) activation codes by int8 weights and sums in int32,
  exact while the accumulator bound stays below ``2**31``
  (:data:`EXACT_I32_LIMIT`); the interpreted tree and the numpy reference
  body sum the same integers in a float64 GEMM, exact below ``2**53``
  (:data:`EXACT_F64_LIMIT`).  So a conv runs on the integer kernel whenever
  its operands fit it.

One requant formulation serves every body.  ``v = acc * m + b`` in
float64 (the float32 accumulator or register code converts exactly), then
round half away from zero as ``copysign(floor(|v| + 0.5), v)``, then clip
to ``[lo, hi]``: :func:`requant` here, ``MulQuant.forward`` in the tree,
and the C passes of ``_ck/requant.c`` (built with ``-ffp-contract=off``, so
the multiply and the add round separately; the floor is the int64 cast of
the non-negative ``|v| + 0.5``).  The conv epilogues apply it to int32
accumulators in channel-major registers, the token epilogues
(``requant_tok``, with ``lut_softmax_tok``, ``lut_gelu_tok`` and
``residual_tok`` beside it) to the float32 GEMM results on plain
``(N, ...)`` registers, with the scale/bias table broadcast once at bind
(:func:`requant_table`).  :func:`requant`, :func:`lut_softmax`,
:func:`lut_gelu` and :func:`residual_merge` are the numpy reference bodies
a plan binds where the kernel is not loaded (``REPRO_NO_CKERNEL=1``).
"""
from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np

Shape = Tuple[int, ...]

#: largest integer magnitude n for which every integer in [-n, n] is exactly
#: representable in float32 — the float32 GEMMs of the linear, attention,
#: MLP and head ops sum exactly only while their bound stays below it, so
#: the verifier proves each such row below it (``exact_f32``) and refuses a
#: plan with a row past it (``plan.inexact-accum``)
EXACT_F32_LIMIT = float(2 ** 24)

#: the integer conv kernel's int32 accumulator limit
EXACT_I32_LIMIT = float(2 ** 31)

#: the float64 counterpart — the width a conv's float64 accumulation and
#: the ABFT column-checksum accumulator (which sums *across* output
#: channels, so it bounds the conv's own) are proven against (see
#: repro.integrity.abft and the plan.checksum-overflow rule).
EXACT_F64_LIMIT = float(2 ** 53)


def broadcast_scale(v: np.ndarray, ndim: int, channel_axis: int) -> np.ndarray:
    """Broadcast-align a MulQuant scale/bias vector (mirrors MulQuant._broadcast)."""
    if v.size == 1:
        return v.reshape(())
    if v.ndim > 1:
        return v
    shape = [1] * ndim
    shape[channel_axis % ndim] = v.size
    return v.reshape(shape)


class MQParams:
    """Frozen snapshot of one MulQuant's effective requantization constants."""

    __slots__ = ("m", "b", "lo", "hi", "axis")

    def __init__(self, m: np.ndarray, b: np.ndarray, lo: float, hi: float, axis: int):
        self.m = np.asarray(m, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.lo = float(lo)
        self.hi = float(hi)
        self.axis = int(axis)

    @classmethod
    def of(cls, mq) -> "MQParams":
        return cls(np.asarray(mq.effective_scale, dtype=np.float64),
                   np.asarray(mq.effective_bias, dtype=np.float64),
                   mq.out_lo, mq.out_hi, mq.channel_axis)

    def sig_update(self, h) -> None:
        h.update(self.m.tobytes())
        h.update(self.b.tobytes())
        h.update(repr((self.m.shape, self.b.shape, self.lo, self.hi, self.axis)).encode())


def requant(x: np.ndarray, p: MQParams) -> np.ndarray:
    """Replicate ``MulQuant.forward`` on a plain array; returns float32."""
    v = np.multiply(x, broadcast_scale(p.m, x.ndim, p.axis),
                    dtype=np.float64)
    v += broadcast_scale(p.b, x.ndim, p.axis)
    r = np.abs(v)
    r += 0.5
    np.floor(r, out=r)
    np.copysign(r, v, out=r)
    return np.clip(r, p.lo, p.hi, out=np.empty(r.shape, dtype=np.float32))


def requant_table(p: MQParams, shape: Shape) -> Tuple[np.ndarray, np.ndarray]:
    """One period of ``p``'s scale and bias over a plain register of
    ``shape`` (batch axis first), broadcast once at bind for the native
    token requant: the register is rows of ``period`` elements and element
    ``j`` of every row takes ``m[j]``, ``b[j]``.  A scalar pair has period
    1, a per-channel last-axis table the channel count, the fused
    LayerNorm's per-position table the whole ``(L, D)`` block."""
    nd = len(shape)
    tables = [broadcast_scale(t, nd, p.axis) for t in (p.m, p.b)]
    # the first axis either table varies along starts the period
    k = min(next((i for i, s in enumerate((1,) * (nd - t.ndim) + t.shape)
                  if s != 1), nd) for t in tables)
    lead = (0,) * k + (Ellipsis,)
    m, b = (np.ascontiguousarray(np.broadcast_to(t, shape)[lead],
                                 dtype=np.float64).reshape(-1)
            for t in tables)
    return m, b


def conv_accum_bound(weight: np.ndarray,
                     in_range: Tuple[float, float]) -> float:
    """Worst-case accumulator magnitude of a conv over an integer input range.

    ``weight`` is the (integer-valued) float kernel ``(O, Cg, kh, kw)``;
    ``in_range`` the proven integer code range of the input register.  Any
    partial sum of any summation order is bounded by this value.
    """
    amax = max(abs(in_range[0]), abs(in_range[1]))
    per_channel = np.abs(weight.astype(np.float64).reshape(weight.shape[0], -1)).sum(axis=1)
    return float(per_channel.max(initial=0.0) * amax)


_INT_TYPES = tuple((np.dtype(t), np.iinfo(t).min, np.iinfo(t).max)
                   for t in (np.uint8, np.int8, np.int16, np.int32))


def register_dtype(lo: float, hi: float) -> np.dtype:
    """Narrowest integer type holding the code range ``[lo, hi]`` (float32
    when no integer type up to int32 does) — a channel register's type."""
    for t, tmin, tmax in _INT_TYPES:
        if tmin <= lo and hi <= tmax:
            return t
    return np.dtype(np.float32)


def pack_conv_weight(weight: np.ndarray) -> Optional[np.ndarray]:
    """Pack a conv weight ``(O, Cg, kh, kw)`` for the native kernel, or
    None when its values are not all int8 integers.

    The pack is an int8 ``(O, kh, kw, Cq)`` array, channels zero-padded to
    ``Cq = 4 * ceil(Cg / 4)``.  Viewed as int32 it is the kernel's
    ``(O, kh*kw*Cq/4)`` matrix of words holding 4 channels' weights; see
    :func:`conv_weight_view` for the logical ``(O, Cg, kh, kw)`` view.  A
    weight that already is that view (a fused conv adopting its lowered
    conv's weights) returns the packed array itself: one pack per conv."""
    o, cg, kh, kw = weight.shape
    base = weight.base
    if (isinstance(base, np.ndarray) and base.dtype == np.int8
            and base.shape == (o, kh, kw, -(-cg // 4) * 4)
            and weight.strides == (base.strides[0], 1, base.strides[1],
                                   base.strides[2])):
        return base
    w8 = weight.astype(np.int8)
    if not (w8 == weight).all():  # the cast wraps or truncates non-codes
        return None
    packed = np.zeros((o, kh, kw, -(-cg // 4) * 4), dtype=np.int8)
    packed[..., :cg] = w8.transpose(0, 2, 3, 1)
    return packed


def conv_weight_view(packed: np.ndarray, cg: int) -> np.ndarray:
    """The logical ``(O, Cg, kh, kw)`` weight as a view of the packed array
    — writes through it land in what the kernel reads."""
    return packed[..., :cg].transpose(0, 3, 1, 2)


def lut_softmax(x: np.ndarray, table: np.ndarray, prob_bits: int) -> np.ndarray:
    """Replicate ``LUTSoftmax.forward`` on a plain array."""
    d = x.astype(np.int64)
    np.subtract(d.max(axis=-1, keepdims=True), d, out=d)
    np.minimum(d, len(table) - 1, out=d)
    e = table[d]
    p = np.multiply(e, 1 << prob_bits, dtype=np.float64)
    denom = e.sum(axis=-1, keepdims=True)
    p += denom // 2
    p /= denom
    return np.floor(p, out=p).astype(np.float32)


def lut_gelu(x: np.ndarray, table: np.ndarray, in_qlb: int, in_qub: int) -> np.ndarray:
    """Replicate ``LUTGelu.forward`` on a plain array."""
    idx = np.clip(x.astype(np.int64), in_qlb, in_qub) - in_qlb
    return table[idx].astype(np.float32)


def residual_merge(a: np.ndarray, s: np.ndarray, res_scale: float,
                   lo: float, hi: float) -> np.ndarray:
    """Replicate ``qmodels._residual_merge`` on plain arrays (float32 math)."""
    v = (a + s) / res_scale
    y = np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), lo, hi)
    return y.astype(np.float32)


def requant_residual(acc: np.ndarray, shortcut: np.ndarray, mq: MQParams,
                     res_scale: float, lo: float, hi: float,
                     smq: Optional[MQParams] = None) -> np.ndarray:
    """Pure-numpy reference of the fused conv→requant→residual epilogue.

    ``acc`` is the raw conv accumulator; ``shortcut`` the residual operand,
    either already requantized (``smq is None``) or a raw accumulator to be
    requantized by ``smq`` first.  Each stage replicates the corresponding
    standalone kernel exactly, so the fused result is bitwise the unfused
    ``residual_merge(requant(acc, mq), requant(shortcut, smq), ...)``.
    """
    a = requant(acc, mq)
    s = requant(shortcut, smq) if smq is not None else shortcut
    return residual_merge(a, s, res_scale, lo, hi)


def array_sig(h, *arrays: Optional[np.ndarray]) -> None:
    """Feed array contents + shapes into a hash (program signatures)."""
    for a in arrays:
        if a is None:
            h.update(b"<none>")
        else:
            a = np.ascontiguousarray(a)
            h.update(repr((a.shape, a.dtype.str)).encode())
            h.update(a.tobytes())


def new_sig() -> "hashlib._Hash":
    return hashlib.sha256()
