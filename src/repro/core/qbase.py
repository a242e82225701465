"""``_QBase``: the Dual-Path quantizer base (paper §3.1).

The quantizer owns the scaling factor and zero point as registered buffers and
exposes two computation paths over one quantize chain
(:meth:`_QBase.quantize`: divide the transformed input by the scale, round,
clamp to the grid, dequantize):

* **training path** (``trainFunc``) — fake quantization: the chain with a
  straight-through estimator, so gradients flow.
* **inference path** (``evalFunc``) — integer-only: the same chain without
  the dequantization, the low-precision integer tensor hardware consumes.

A quantizer states three things once, and both paths (and the telemetry
audit) read them: its integer ``grid()``, its ``qscale()`` — the ``scale``
buffer, or a learnable ``Tensor`` that training copies into the buffer the
integer path reads — and an optional ``transform()`` of the input before it
is quantized; codes other than round-to-nearest override ``codes()``
(AdaRound's hard gate).  A method that departs from the chain on purpose in
training (AdaRound's soft gate, QDrop's random drop, stochastic rounding)
overrides ``trainFunc`` alone; its integer path is still the chain's.

The global switch is the ``deploy`` flag, toggled model-wide by
:meth:`repro.core.t2c.T2C`.  Calibration (PTQ range estimation) is a third
mode driven by the ``observe`` flag.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.nn.module import Module
from repro.telemetry import state as _telemetry_state
from repro.telemetry.saturation import record as _record_saturation
from repro.tensor import is_grad_enabled, no_grad
from repro.tensor.tensor import Tensor, _as_array, _make, _unbroadcast


@dataclass(frozen=True)
class QuantSpec:
    """Integer grid specification for an ``nbit`` signed/unsigned quantizer."""

    nbit: int
    unsigned: bool = False

    @property
    def qlb(self) -> int:
        """Lower bound of the integer grid."""
        return 0 if self.unsigned else -(1 << (self.nbit - 1))

    @property
    def qub(self) -> int:
        """Upper bound of the integer grid."""
        return (1 << self.nbit) - 1 if self.unsigned else (1 << (self.nbit - 1)) - 1

    @property
    def levels(self) -> int:
        return (1 << self.nbit)


def _rounded(x: np.ndarray, s: np.ndarray, zp: np.ndarray) -> np.ndarray:
    """``round(x / s + zp)`` before the clamp, in a fresh buffer."""
    v = x / s
    v += zp
    np.round(v, out=v)
    return v


def fake_quant(x: Tensor, scale, zero_point, lo: float, hi: float,
               dequant: bool = True, audit: Module = None,
               codes=_rounded) -> Tensor:
    """Fused ``clamp(round_ste(x / s + zp), lo, hi)``, then ``(q - zp) * s``
    when ``dequant``: one graph node whose forward runs the composed chain's
    float32 ops in the same order, in place on one buffer.  The backward
    replays the chain's straight-through gradient ``((g * s) * mask) / s``,
    ``mask`` marking the rounded values inside ``[lo, hi]``, so both
    directions are bitwise the six-node composition's.

    A learnable ``scale`` is a ``Tensor``; it receives the chain's gradient
    ``g * ((q - zp) - mask * x / s)``, summed to its shape.  ``codes`` gives
    the pre-clamp codes; an ``audit`` module counts those clamped (telemetry).
    """
    learned = scale if isinstance(scale, Tensor) and scale.requires_grad else None
    s, zp, lo, hi = _as_array(scale), _as_array(zero_point), float(lo), float(hi)
    v = codes(x.data, s, zp)
    if audit is not None:
        clipped = int(np.count_nonzero((v < lo) | (v > hi)))
        _record_saturation(audit, "quantizer", clipped, int(v.size))
    grad = is_grad_enabled() and (x.requires_grad or learned is not None)
    mask = (v >= lo) & (v <= hi) if grad else None
    np.clip(v, lo, hi, out=v)
    codes = v - zp if grad and learned is not None else None
    if dequant:
        v -= zp
        v *= s
    out = _make(v, (x,) if learned is None else (x, learned), "fake_quant")
    if out.requires_grad:
        def _bw(g):
            gx = g * s
            gx *= mask
            gx /= s
            grads = ((x, _unbroadcast(gx, x.shape)),)
            if learned is not None:
                gs = codes - mask * (x.data / s)
                gs *= g
                grads += ((learned, _unbroadcast(gs, learned.shape)),)
            return grads
        out._backward = _bw
    return out


def grad_scaled(p: Tensor, n: int, qub: int) -> Tensor:
    """``p`` unchanged in the forward pass; its gradient scaled by
    ``1 / sqrt(n * qub)`` (LSQ's step-size gradient scaling).  A learnable
    range's raw gradient sums over all ``n`` elements it quantizes."""
    g = 1.0 / math.sqrt(max(n * qub, 1))
    out = _make(p.data.copy(), (p,), "grad_scaled")
    if out.requires_grad:
        out._backward = lambda grad: ((p, grad * g),)
    return out


class _QBase(Module):
    """Bottom-level dual-path quantizer (see the module docstring).

    Buffers
    -------
    scale:
        Quantization step size.  Scalar for per-tensor quantizers; shape
        ``(C, 1, 1, 1)`` (conv) / ``(C, 1)`` (linear) for per-channel weight
        quantizers.
    zero_point:
        Integer offset (0 for the symmetric/unsigned-after-ReLU schemes used
        by the bundled quantizers; kept for custom asymmetric schemes).
    """

    def __init__(self, nbit: int = 8, unsigned: bool = False):
        super().__init__()
        self.spec = QuantSpec(nbit, unsigned)
        self.nbit = nbit
        self.unsigned = unsigned
        self.deploy = False
        self.observe = False
        self.register_buffer("scale", np.ones((), dtype=np.float32))
        self.register_buffer("zero_point", np.zeros((), dtype=np.float32))

    # ------------------------------------------------------------ utilities
    @property
    def qlb(self) -> int:
        return self.spec.qlb

    @property
    def qub(self) -> int:
        return self.spec.qub

    def set_scale(self, scale) -> None:
        """Register a new scale (any broadcastable shape)."""
        arr = np.asarray(scale, dtype=np.float32)
        arr = np.maximum(np.abs(arr), 1e-12)
        self.scale.data = arr
        self.scale = self.scale  # keep buffer registration fresh

    def set_zero_point(self, zp) -> None:
        self.zero_point.data = np.asarray(zp, dtype=np.float32)

    # ------------------------------------------------- what a quantizer states
    def grid(self) -> Tuple[int, int]:
        """The integer grid ``(lo, hi)`` the codes are clamped to."""
        return self.qlb, self.qub

    def qscale(self, x: Tensor):
        """The step the training path quantizes ``x`` with: the ``scale``
        buffer, or a ``Tensor`` when the step is learnable (copied into the
        buffer, which the integer path, :meth:`dq` and the fuser read)."""
        return self.scale.data

    def transform(self, x: Tensor) -> Tensor:
        """The input transform applied before quantizing (none)."""
        return x

    def codes(self, x: np.ndarray, s, zp) -> np.ndarray:
        """The pre-clamp codes of the transformed input (a fresh buffer)."""
        return _rounded(x, s, zp)

    # ------------------------------------------------------------ two paths
    def quantize(self, xt: Tensor, s, dequant: bool = True, audit: bool = False) -> Tensor:
        """The one chain both paths run: :func:`fake_quant` of the transformed
        input ``xt`` by step ``s`` (a learnable one is copied into the
        buffer) over :meth:`codes` and :meth:`grid`."""
        if isinstance(s, Tensor):
            self.set_scale(s.data.reshape(self.scale.data.shape))
        lo, hi = self.grid()
        return fake_quant(xt, s, self.zero_point.data, lo, hi, dequant,
                          self if audit else None, self.codes)

    def q(self, x: Tensor) -> Tensor:
        """Quantize to the integer grid (rounding, no dequant, no grad)."""
        with no_grad():
            return self.quantize(self.transform(x), self.scale.data, False)

    def dq(self, xq: Tensor) -> Tensor:
        """Map integers back to the float domain."""
        return (xq - Tensor(self.zero_point.data)) * Tensor(self.scale.data)

    def trainFunc(self, x: Tensor) -> Tensor:
        """Training path: fake quantization with straight-through estimator,
        one fused node (:func:`fake_quant`).

        Subclasses that compute their scale from data set it and then call
        this; a by-design training-time departure overrides it outright.
        """
        return self.quantize(self.transform(x), self.qscale(x))

    def evalFunc(self, x: Tensor) -> Tensor:
        """Inference path: low-precision integers only (paper Fig. 2), the
        codes the grid clamps counted when telemetry is on."""
        with no_grad():
            return self.quantize(self.transform(x.detach()), self.scale.data,
                                 False, _telemetry_state.enabled())

    def observeFunc(self, x: Tensor) -> None:
        """Calibration hook: update range statistics (PTQ)."""

    def forward(self, x: Tensor) -> Tensor:
        if self.observe:
            self.observeFunc(x.detach())
        if self.deploy:
            return self.evalFunc(x)
        return self.trainFunc(x)

    def extra_repr(self) -> str:
        return f"nbit={self.nbit}, unsigned={self.unsigned}, deploy={self.deploy}"


class IdentityQuantizer(_QBase):
    """No-op quantizer (full precision); useful as a default placeholder."""

    def __init__(self, **_):
        super().__init__(nbit=32)

    def trainFunc(self, x: Tensor) -> Tensor:
        return x

    def evalFunc(self, x: Tensor) -> Tensor:
        return x
