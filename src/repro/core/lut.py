"""LUT-based non-linear function approximation (paper §3.2.2, Fig. 4).

Hardware accelerators implement transcendental functions with lookup tables
indexed by the integer activation.  Torch2Chip builds these tables
automatically from the calibrated quantizer scales:

* :class:`LUTSoftmax` — integer softmax: subtract the row max, look up
  ``exp`` of the (non-positive) integer difference, and renormalize into a
  power-of-two probability grid.
* :class:`LUTGelu` — a direct int -> int table for GELU (one entry per input
  code, e.g. 256 entries at 8-bit).

Both are deploy-only modules (pure integer in/out); their table resolution is
user-customizable, and the Fig. 4 bench sweeps it.
"""
from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class LUTSoftmax(Module):
    """Integer-only softmax over the last axis.

    Parameters
    ----------
    score_scale:
        Float scale of the integer attention scores (input grid step).
    score_qlb / score_qub:
        Integer range of the scores (defines the table span).
    prob_bits:
        Output probabilities are integers on the grid ``1 / 2**prob_bits``.
    exp_bits:
        Internal precision of the exp table entries.
    """

    def __init__(self, score_scale: float, score_qlb: int, score_qub: int,
                 prob_bits: int = 8, exp_bits: int = 15):
        super().__init__()
        self.score_scale = float(score_scale)
        self.prob_bits = prob_bits
        self.exp_bits = exp_bits
        span = score_qub - score_qlb  # max possible (x - max) magnitude
        d = np.arange(span + 1, dtype=np.float64)  # d = max - x  (>= 0)
        table = np.round(np.exp(-d * self.score_scale) * (1 << exp_bits))
        self.register_buffer("table", table.astype(np.int64))

    def forward(self, x: Tensor) -> Tensor:
        d = x.data.astype(np.int64)
        # non-negative integer offsets from the row max, in place
        np.subtract(d.max(axis=-1, keepdims=True), d, out=d)
        np.minimum(d, len(self.table.data) - 1, out=d)
        e = self.table.data[d]  # integer exp values
        probs = np.multiply(e, 1 << self.prob_bits, dtype=np.float64)
        denom = e.sum(axis=-1, keepdims=True)
        probs += denom // 2
        probs /= denom  # lint: allow-float (int divide unit)
        return Tensor(np.floor(probs, out=probs).astype(np.float32))

    @property
    def prob_scale(self) -> float:
        """Float value of one output probability LSB."""
        return 2.0 ** (-self.prob_bits)

    def extra_repr(self) -> str:
        return f"scale={self.score_scale:.5g}, entries={len(self.table.data)}, prob_bits={self.prob_bits}"


class LUTGelu(Module):
    """Integer-to-integer GELU lookup table.

    Maps input codes on the grid ``in_scale`` to output codes on the grid
    ``out_scale``; one table entry per representable input code.
    """

    def __init__(self, in_scale: float, in_qlb: int, in_qub: int,
                 out_scale: float, out_qlb: int, out_qub: int):
        super().__init__()
        self.in_qlb = in_qlb
        self.in_qub = in_qub
        self.in_scale = float(in_scale)
        self.out_scale = float(out_scale)
        codes = np.arange(in_qlb, in_qub + 1, dtype=np.float64)
        vals = _gelu_ref(codes * in_scale)
        table = np.clip(np.round(vals / out_scale), out_qlb, out_qub)
        self.register_buffer("table", table.astype(np.int64))

    def forward(self, x: Tensor) -> Tensor:
        idx = np.clip(x.data.astype(np.int64), self.in_qlb, self.in_qub) - self.in_qlb
        return Tensor(self.table.data[idx].astype(np.float32))

    def extra_repr(self) -> str:
        return f"in=[{self.in_qlb},{self.in_qub}]@{self.in_scale:.5g} -> @{self.out_scale:.5g}"


def _gelu_ref(x: np.ndarray) -> np.ndarray:
    """Float GELU reference (tanh approximation, matching the train path)."""
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def lut_softmax_reference_error(score_scale: float, prob_bits: int, n: int = 64,
                                seed: int = 0) -> float:
    """Mean |LUT softmax - float softmax| on random scores (diagnostics)."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(-128, 128, size=(n, 16))
    lut = LUTSoftmax(score_scale, -128, 127, prob_bits=prob_bits)
    approx = lut(Tensor(scores.astype(np.float32))).data * lut.prob_scale
    ref = F.softmax(Tensor(scores.astype(np.float32) * score_scale), axis=-1).data
    return float(np.abs(approx - ref).mean())
