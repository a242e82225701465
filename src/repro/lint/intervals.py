"""Interval domain for the integer-datapath abstract interpreter.

An :class:`Interval` holds elementwise lower/upper bounds, either scalar
(one bound for the whole tensor) or vector (one bound per channel — the
shape MulQuant scales broadcast along).  All operations are *sound*: the
concrete value of every tensor element is guaranteed to lie inside the
propagated interval, assuming only the layer contracts (integer grids,
clamp ranges, frozen weights) and never any input data.
"""
from __future__ import annotations

from typing import Tuple, Union

import numpy as np

Bound = Union[float, np.ndarray]


class Interval:
    """Elementwise ``[lo, hi]`` bounds (float64 arrays, scalar or vector)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Bound, hi: Bound):
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        lo, hi = np.broadcast_arrays(lo, hi)
        if np.any(lo > hi):
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        self.lo = lo.copy()
        self.hi = hi.copy()

    # ------------------------------------------------------------ builders
    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def grid(qlb: float, qub: float) -> "Interval":
        """The full integer grid of a quantizer/clamp range."""
        return Interval(float(qlb), float(qub))

    @staticmethod
    def of_array(arr: np.ndarray) -> "Interval":
        """Bounds of a concrete tensor (e.g. an integer LUT or buffer)."""
        a = np.asarray(arr, dtype=np.float64)
        return Interval(float(a.min()), float(a.max()))

    @staticmethod
    def unbounded() -> "Interval":
        return Interval(-np.inf, np.inf)

    # ------------------------------------------------------------ queries
    @property
    def is_scalar(self) -> bool:
        return self.lo.ndim == 0

    @property
    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))

    def bounds(self) -> Tuple[float, float]:
        """Collapse to scalar ``(lo, hi)`` over all channels."""
        return float(np.min(self.lo)), float(np.max(self.hi))

    def scalar(self) -> "Interval":
        lo, hi = self.bounds()
        return Interval(lo, hi)

    # --------------------------------------------------------- arithmetic
    def shift(self, c: float) -> "Interval":
        return Interval(self.lo + c, self.hi + c)

    def hull(self, other: "Interval") -> "Interval":
        a, b = self.scalar(), other.scalar()
        return Interval(min(float(a.lo), float(b.lo)), max(float(a.hi), float(b.hi)))

    def hull_zero(self) -> "Interval":
        """Widen to include 0 (zero padding, accumulator reset state)."""
        return Interval(np.minimum(self.lo, 0.0), np.maximum(self.hi, 0.0))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "Interval") -> "Interval":
        cands = np.stack(np.broadcast_arrays(
            self.lo * other.lo, self.lo * other.hi,
            self.hi * other.lo, self.hi * other.hi))
        return Interval(cands.min(axis=0), cands.max(axis=0))

    def scale(self, m: Bound) -> "Interval":
        """Multiply by a known constant (scalar or per-channel vector)."""
        m = np.asarray(m, dtype=np.float64)
        a, b = self.lo * m, self.hi * m
        return Interval(np.minimum(a, b), np.maximum(a, b))

    def divide(self, d: float) -> "Interval":
        if d <= 0:
            raise ValueError("divisor must be positive")
        return Interval(self.lo / d, self.hi / d)

    def clamp(self, lo: float, hi: float) -> "Interval":
        return Interval(np.clip(self.lo, lo, hi), np.clip(self.hi, lo, hi))

    def round_half_away(self) -> "Interval":
        """Image under ``sign(v) * floor(|v| + 0.5)`` (monotone, elementwise)."""
        return Interval(_round_half_away(self.lo), _round_half_away(self.hi))

    def __repr__(self) -> str:
        lo, hi = self.bounds()
        tag = "" if self.is_scalar else f", channels={self.lo.size}"
        return f"Interval([{lo:g}, {hi:g}]{tag})"


def _round_half_away(v: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def min_signed_bits(lo: float, hi: float) -> int:
    """Smallest two's-complement width holding every value in ``[lo, hi]``.

    The accumulator register passes through 0 (its reset state), so callers
    should hull the range with 0 first if they want the register width.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return 128  # sentinel: unbounded never fits
    for bits in range(1, 128):
        if lo >= -(1 << (bits - 1)) and hi <= (1 << (bits - 1)) - 1:
            return bits
    return 128


def accum_bounds(weight2d: np.ndarray, x: Interval) -> Interval:
    """Per-output-channel accumulator bounds of ``w @ x`` with ``x`` interval.

    ``weight2d`` is ``(out_channels, reduce)`` — a linear weight, or a conv
    weight reshaped to ``(C_out, C_in/g * k * k)``.  Every reduced element is
    assumed to lie in the scalar hull of ``x``.  The bound is *tight*: it is
    attained by the input ``x_j = hi if w_j > 0 else lo`` (sign-matched),
    which is exactly what the worst-case cross-check tests construct.
    """
    lo, hi = x.bounds()
    w = np.asarray(weight2d, dtype=np.float64)
    wpos = np.clip(w, 0.0, None).sum(axis=1)
    wneg = np.clip(w, None, 0.0).sum(axis=1)
    return Interval(wpos * lo + wneg * hi, wpos * hi + wneg * lo)


def requant(v: Interval, mq) -> Interval:
    """Image of a MulQuant requant (an ``MQParams``: ``clamp(round(v * m +
    b), lo, hi)``), per channel where ``v`` and the scale line up."""
    m = mq.m
    if v.lo.size == m.size and m.ndim <= 1:
        v = Interval(v.lo.reshape(m.shape), v.hi.reshape(m.shape))
    else:
        v = v.scalar()
    v = v.scale(m)
    try:
        v = Interval(v.lo + mq.b, v.hi + mq.b)
    except ValueError:  # bias table not broadcastable against the bounds
        lo, hi = v.bounds()
        v = Interval(lo + float(np.min(mq.b)), hi + float(np.max(mq.b)))
    return v.round_half_away().clamp(mq.lo, mq.hi)
