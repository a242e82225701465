"""Numeric kernels for the compiled runtime — bit-exact by construction.

Three exactness strategies, chosen per op at compile time:

* **replication** — execute the very same numpy call sequence the interpreted
  module runs (same dtypes, same views, same reduction order).  Identical
  inputs through identical operations give identical bits; used for every op
  whose cost is not dominated by the conv GEMM.
* **integer accumulation** — the native conv kernel multiplies uint8 (or
  XOR-biased int8) activation codes by int8 weights and sums in int32,
  which is exact by construction while the accumulator bound stays below
  ``2**31`` (:data:`EXACT_I32_LIMIT`).
* **the float32 certificate** — the interpreted tree sums the same
  integers in a float32 BLAS GEMM, which is exact only while every partial
  sum stays below ``2**24`` (:data:`EXACT_F32_LIMIT`): with integer weights
  and codes and ``max_o sum_k |w_ok| * max|x|`` under that bound, every
  summation order yields the same exact integer.  So a conv runs on the
  integer kernel only under this certificate (an exact int32 sum would
  otherwise disagree with the tree's rounded one); layers that exceed it
  fall back to replication.

The requantizer uses ``trunc(v + copysign(0.5, v))``, which is value-exact
to the interpreted ``sign(v) * floor(|v| + 0.5)`` for every float (both
halves round away from zero; negation and the 0.5 add are exact in IEEE
arithmetic either way), but needs one fewer full-size temporary.
"""
from __future__ import annotations

import hashlib
from typing import Optional, Tuple

import numpy as np

#: largest integer magnitude n for which every integer in [-n, n] is exactly
#: representable in float32 — the reassociation-safety threshold.
EXACT_F32_LIMIT = float(2 ** 24)

#: the integer conv kernel's int32 accumulator limit
EXACT_I32_LIMIT = float(2 ** 31)

#: the float64 counterpart — the width the ABFT column-checksum accumulator
#: (which sums *across* output channels) is proven against, since the
#: sampled verifier recomputes both sides of the checksum identity in
#: float64 (see repro.integrity.abft and the plan.checksum-overflow rule).
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


def round_half_away(v: np.ndarray) -> np.ndarray:
    """Round half away from zero — the interpreted datapath's formulation."""
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def requant(x: np.ndarray, p: MQParams) -> np.ndarray:
    """Replicate ``MulQuant.forward`` on a plain array; returns float32."""
    acc = x.astype(np.float64)
    m = broadcast_scale(p.m, acc.ndim, p.axis)
    b = broadcast_scale(p.b, acc.ndim, p.axis)
    v = acc * m + b
    r = round_half_away(v)
    return np.clip(r, p.lo, p.hi).astype(np.float32)


def conv_reassociation_bound(weight: np.ndarray,
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
    s = x.astype(np.int64)
    d = s.max(axis=-1, keepdims=True) - s
    d = np.minimum(d, len(table) - 1)
    e = table[d]
    denom = e.sum(axis=-1, keepdims=True)
    probs = np.floor((e.astype(np.float64) * (1 << prob_bits) + denom // 2) / denom)
    return probs.astype(np.float32)


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
