"""``_QBase``: the Dual-Path quantizer base (paper §3.1).

The quantizer owns the scaling factor and zero point as registered buffers and
exposes two computation paths:

* **training path** (``trainFunc``) — fake quantization: quantize, then
  dequantize, with a straight-through estimator so gradients flow.  This is
  the only method a user-customized quantizer must override.
* **inference path** (``evalFunc``) — integer-only: the quantizer emits the
  low-precision integer tensor (no dequantization), exactly what hardware
  consumes.

The global switch is the ``deploy`` flag, toggled model-wide by
:meth:`repro.core.t2c.T2C`.  Calibration (PTQ range estimation) is a third
mode driven by the ``observe`` flag.
"""
from __future__ import annotations

from dataclasses import dataclass

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
               dequant: bool = True) -> Tensor:
    """Fused ``clamp(round_ste(x / s + zp), lo, hi)``, then ``(q - zp) * s``
    when ``dequant``: one graph node whose forward runs the composed chain's
    float32 ops in the same order, in place on one buffer.  The backward
    replays the chain's straight-through gradient ``((g * s) * mask) / s``,
    ``mask`` marking the rounded values inside ``[lo, hi]``, so both
    directions are bitwise the six-node composition's.
    """
    s, zp, lo, hi = _as_array(scale), _as_array(zero_point), float(lo), float(hi)
    v = _rounded(x.data, s, zp)
    mask = (v >= lo) & (v <= hi) if x.requires_grad and is_grad_enabled() else None
    np.clip(v, lo, hi, out=v)
    if dequant:
        v -= zp
        v *= s
    out = _make(v, (x,), "fake_quant")
    if out.requires_grad:
        def _bw(g):
            gx = g * s
            gx *= mask
            gx /= s
            return ((x, _unbroadcast(gx, x.shape)),)
        out._backward = _bw
    return out


class _QBase(Module):
    """Bottom-level dual-path quantizer.

    Subclasses customize the *training path only* — typically by computing
    ``self.scale`` (and optionally ``self.zero_point``) from data or from
    learnable parameters — and Torch2Chip handles the integer-only inference
    path automatically.

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

    def __init__(self, nbit: int = 8, unsigned: bool = False, train_flag: bool = True):
        super().__init__()
        self.spec = QuantSpec(nbit, unsigned)
        self.nbit = nbit
        self.unsigned = unsigned
        self.train_flag = train_flag
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

    # ------------------------------------------------------------ two paths
    def q(self, x: Tensor) -> Tensor:
        """Quantize to the integer grid (rounding, no dequant, no grad)."""
        with no_grad():
            return fake_quant(x, self.scale.data, self.zero_point.data,
                              self.qlb, self.qub, dequant=False)

    def dq(self, xq: Tensor) -> Tensor:
        """Map integers back to the float domain."""
        return (xq - Tensor(self.zero_point.data)) * Tensor(self.scale.data)

    def trainFunc(self, x: Tensor) -> Tensor:
        """Training path: fake quantization with straight-through estimator,
        one fused node (:func:`fake_quant`).

        Subclasses override this to implement custom QAT/PTQ behaviour; the
        contract is to *also* keep ``self.scale``/``self.zero_point`` current
        so the automatic inference-path conversion stays correct.
        """
        return fake_quant(x, self.scale.data, self.zero_point.data, self.qlb, self.qub)

    def evalFunc(self, x: Tensor) -> Tensor:
        """Inference path: low-precision integers only (paper Fig. 2)."""
        if not _telemetry_state.enabled():
            return self.q(x.detach())
        # q()'s chain, auditing how many rounded codes the grid clamps
        lo, hi = float(self.qlb), float(self.qub)
        v = _rounded(x.data, _as_array(self.scale.data), _as_array(self.zero_point.data))
        clipped = int(np.count_nonzero((v < lo) | (v > hi)))
        _record_saturation(self, "quantizer", clipped, int(v.size))
        np.clip(v, lo, hi, out=v)
        with no_grad():
            return _make(v, (x,), "fake_quant")

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
