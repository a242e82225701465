"""MulQuant: the integer-only requantization module (paper §3.2, Fig. 3).

After fusion, every normalization layer + quantizer pair collapses into a
scale-and-shift on the integer accumulator::

    y_int = clamp( round( (acc * M) >> f_m  +  (B >> f_b) ), out_lo, out_hi )

``M`` (per-channel or scalar) and ``B`` are INT16 fixed-point integers.  The
requantization *scale* is a small number (product of quantization steps), so
it gets the many-fractional-bits format — ``INT(4, 12)`` in Table 1's
notation.  The *bias* lives in output-integer units (up to hundreds), so it
gets the complementary format with the integer/fractional split swapped
(``INT(12, 4)``).  Both are plain INT16 words realizable with two shifts on
hardware; see DESIGN.md for the notation discussion.

Two scale modes (paper Eq. 14 / 15):

* **unified** (8-bit "Pre-Fusing"): ``M`` is a scalar because BN was folded
  into the weights before quantization.
* **channel-wise** (sub-8-bit): ``M`` has one entry per output channel,
  carrying the BN ``gamma*`` factor that cannot be folded stably at low
  precision.

``float_scale=True`` reproduces the PyTorch/industry-toolkit baseline that
keeps the scaling factor in float32 (the "Float" rows in Tables 1-2).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.fixed_point import FixedPointFormat, from_fixed_point, to_fixed_point
from repro.nn.module import Module
from repro.telemetry import state as _telemetry_state
from repro.telemetry.saturation import record as _record_saturation
from repro.tensor.tensor import Tensor


class MulQuant(Module):
    """Integer scale-and-shift requantizer (deploy-path only, no autograd).

    Parameters
    ----------
    scale:
        Float requantization scale(s): scalar or per-channel vector.
    bias:
        Float bias(es) expressed in *output integer units*.
    fmt:
        Fixed-point format of the scale.  The bias uses the complementary
        format (integer/fractional widths swapped) unless ``bias_fmt`` is
        given explicitly.
    out_lo / out_hi:
        Output integer clamp range (e.g. ``0 / 255`` for an unsigned 8-bit
        consumer; a negative lower bound for pre-residual signed domains).
    channel_axis:
        Axis the per-channel scale broadcasts along (1 for NCHW feature maps,
        -1 for NLC token tensors).
    float_scale:
        Keep scale/bias as float32 (PyTorch-style baseline rows).
    """

    def __init__(
        self,
        scale,
        bias=None,
        fmt: Optional[FixedPointFormat] = None,
        bias_fmt: Optional[FixedPointFormat] = None,
        out_lo: float = -(2 ** 31),
        out_hi: float = 2 ** 31 - 1,
        channel_axis: int = 1,
        float_scale: bool = False,
    ):
        super().__init__()
        self.fmt = fmt or FixedPointFormat(4, 12)
        self.bias_fmt = bias_fmt or FixedPointFormat(self.fmt.frac_bits, self.fmt.int_bits)
        self.out_lo = out_lo
        self.out_hi = out_hi
        self.channel_axis = channel_axis
        self.float_scale = float_scale

        scale = np.atleast_1d(np.asarray(scale, dtype=np.float64))
        bias = np.zeros_like(scale) if bias is None else np.atleast_1d(np.asarray(bias, dtype=np.float64))
        # Intended (pre-encoding) values, kept as plain attributes — not
        # buffers, so the state dict is unchanged — for the static lint's
        # fixed-point round-trip check (contract.scale-roundtrip).
        self.scale_f = scale.copy()
        self.bias_f = bias.copy()
        if float_scale:
            self.shift = 0
            self.register_buffer("scale", scale.astype(np.float32))
            self.register_buffer("bias", bias.astype(np.float32))
        else:
            # Normalize the multiplier into the fixed-point sweet spot with a
            # power-of-two pre-shift (a barrel shift on hardware): store
            # M0 = M * 2^shift with max|M0| in [2^(i-2), 2^(i-1)), apply
            # y = (acc * M0) >> (frac + shift).  Without this, fused scales
            # (products of small quantization steps) underflow the grid.
            max_abs = float(np.abs(scale).max())
            fmt_max = float(1 << (self.fmt.int_bits - 1))
            if max_abs > 0:
                self.shift = int(np.floor(np.log2(fmt_max / max_abs)))
                # An exact power-of-two ratio would land on fmt_max itself,
                # which clamps; back off one shift so M0 stays representable.
                if max_abs * 2.0 ** self.shift >= fmt_max:
                    self.shift -= 1
            else:
                self.shift = 0
            self.register_buffer("scale", to_fixed_point(scale * (2.0 ** self.shift), self.fmt))
            self.register_buffer("bias", to_fixed_point(bias, self.bias_fmt))

    # ----------------------------------------------------------------- api
    @property
    def effective_scale(self) -> np.ndarray:
        """The float value the stored scale actually represents."""
        if self.float_scale:
            return self.scale.data
        return from_fixed_point(self.scale.data, self.fmt) * np.float32(2.0 ** (-self.shift))

    @property
    def effective_bias(self) -> np.ndarray:
        if self.float_scale:
            return self.bias.data
        return from_fixed_point(self.bias.data, self.bias_fmt)

    def _broadcast(self, v: np.ndarray, ndim: int) -> np.ndarray:
        if v.size == 1:
            return v.reshape(())
        if v.ndim > 1:
            # multi-axis table (e.g. per-position-per-channel fused LayerNorm):
            # align by trailing dimensions, numpy-style
            return v
        shape = [1] * ndim
        shape[self.channel_axis % ndim] = v.size
        return v.reshape(shape)

    def forward(self, x: Tensor) -> Tensor:
        nd = x.data.ndim
        m = self._broadcast(np.asarray(self.effective_scale, dtype=np.float64), nd)
        b = self._broadcast(np.asarray(self.effective_bias, dtype=np.float64), nd)
        # (acc * M) >> f_m + (B >> f_b), rounding half away from zero (the
        # add-half-then-truncate datapath).  float64 represents the integer
        # products exactly for the bit-widths used here, so this is
        # bit-equivalent to the two-shift integer implementation.  Two
        # full-size float64 buffers: the product (multiplied straight into
        # float64) and the rounded codes, clipped into the float32 result.
        v = np.multiply(x.data, m, dtype=np.float64)
        v += b
        r = np.abs(v)
        r += 0.5  # lint: allow-float (add-half rounding)
        np.floor(r, out=r)
        np.copysign(r, v, out=r)
        if _telemetry_state.enabled():
            # saturation audit: a requantizer clamping real accumulator mass
            # is invisible in accuracy numbers until it is too late
            clipped = int(np.count_nonzero((r < self.out_lo) | (r > self.out_hi)))
            _record_saturation(self, "mulquant", clipped, int(r.size))
        out = np.empty(r.shape, dtype=np.float32)
        return Tensor(np.clip(r, self.out_lo, self.out_hi, out=out))

    def extra_repr(self) -> str:
        kind = "float" if self.float_scale else f"scale={self.fmt}, bias={self.bias_fmt}"
        return f"{kind}, C={self.scale.data.size}, out=[{self.out_lo}, {self.out_hi}]"
