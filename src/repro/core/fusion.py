"""Automatic post-training fusion (paper §3.2).

Turns a calibrated/trained dual-path Q-model into an integer-only inference
graph by wiring a :class:`~repro.core.mulquant.MulQuant` behind every unit.

Two fusion modes:

* ``mode="channel"`` (sub-8-bit, paper Eq. 15): BN stays out of the weights;
  its ``gamma* = gamma / sigma-hat`` factor rides in the per-channel MulQuant
  scale.  Works at any precision.
* ``mode="prefuse"`` (8-bit, paper Eq. 14): BN is folded into the float
  weights *before* weight quantization (``W_fuse = gamma W / sigma-hat``);
  the MulQuant scale collapses to a unified scalar.  Mirrors the classic
  Jacob et al. (2018) scheme, which degrades below 8 bits (Park & Yoo, 2020)
  — the Fig. 3 ablation bench measures exactly that.

Fusers are architecture-aware (the ``fuser=NetFuser`` argument of the paper's
five-line flow): they know which unit feeds which, where residual branches
merge, and which quantizer defines each integer domain.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.fixed_point import FixedPointFormat
from repro.core.mulquant import MulQuant
from repro.core.qbase import _QBase
from repro.core.qlayers import QConv2d, QLinear
from repro.core.qmodels import (
    QBasicBlock,
    QBottleneck,
    QConvBNReLU,
    QLinearUnit,
    QMobileNetV1,
    QResNet,
)


def _scalar_scale(q: _QBase) -> float:
    s = np.asarray(q.scale.data).reshape(-1)
    if s.size != 1:
        raise ValueError("expected a per-tensor activation scale")
    return float(s[0])


def _weight_scale_vector(layer, out_ch: int) -> np.ndarray:
    s = np.asarray(layer.wq.scale.data, dtype=np.float64).reshape(-1)
    if s.size == 1:
        return np.full(out_ch, s[0])
    if s.size != out_ch:
        raise ValueError(f"weight scale size {s.size} != out channels {out_ch}")
    return s


def _bn_params(bn) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    gamma = bn.weight.data.astype(np.float64) if bn.affine else np.ones(bn.num_features)
    beta = bn.bias.data.astype(np.float64) if bn.affine else np.zeros(bn.num_features)
    mu = bn.running_mean.data.astype(np.float64)
    sigma = np.sqrt(bn.running_var.data.astype(np.float64) + bn.eps)
    return gamma, beta, mu, sigma


class FuserBase:
    """Shared unit-level fusion math."""

    def __init__(
        self,
        model,
        fmt: FixedPointFormat = FixedPointFormat(4, 12),
        mode: str = "channel",
        float_scale: bool = False,
        headroom: int = 4,
        res_shift: int = 4,
    ):
        if mode not in ("channel", "prefuse"):
            raise ValueError(f"unknown fusion mode {mode!r}")
        self.model = model
        self.fmt = fmt
        self.mode = mode
        self.float_scale = float_scale
        self.headroom = headroom
        # Residual branches are requantized into a domain 2**res_shift finer
        # than the consumer grid, added, then shifted back down — keeping the
        # two branch roundings sub-LSB (one extra barrel shift on hardware).
        self.res_scale = float(1 << res_shift)

    # ------------------------------------------------------------ helpers
    def _signed_range(self, qub: int) -> Tuple[float, float]:
        h = self.headroom * (qub + 1)
        return (-float(h), float(h) - 1)

    def fuse_unit(self, unit: QConvBNReLU, s_next: float, out_range: Tuple[float, float],
                  zp_next: float = 0.0) -> None:
        """Wire ``unit.mq`` so the deploy path lands in the consumer domain.

        Zero points (paper Eq. 2's optional ``Z``): the input offset is
        removed by the layer itself (integer subtract before the MACs, which
        keeps zero-padding exact); an asymmetric *consumer* grid adds
        ``+zp_next`` output codes through the MulQuant bias.
        """
        conv: QConv2d = unit.conv
        out_ch = conv.out_channels
        s_x = _scalar_scale(conv.aq)
        bias_f = conv.bias.data.astype(np.float64) if conv.bias is not None else np.zeros(out_ch)

        if unit.has_bn:
            gamma, beta, mu, sigma = _bn_params(unit.bn)
            mu_eff = mu - bias_f  # conv bias folds into the BN mean
            if self.mode == "prefuse":
                # Fold BN into the float weights, then (re)quantize per-tensor.
                w_fused = conv.weight.data.astype(np.float64) * (gamma / sigma).reshape(-1, 1, 1, 1)
                s_w = max(np.abs(w_fused).max() / conv.wq.qub, 1e-12)
                wint = np.clip(np.round(w_fused / s_w), *conv.wq.grid())
                conv.wint.data = wint.astype(np.float32)
                scale = np.full(out_ch, s_w * s_x / s_next)
                bias_units = (beta - gamma * mu_eff / sigma) / s_next
            else:
                conv.freeze_int_weight()
                s_w = _weight_scale_vector(conv, out_ch)
                scale = gamma * s_w * s_x / (sigma * s_next)
                bias_units = (beta - gamma * mu_eff / sigma) / s_next
        else:
            conv.freeze_int_weight()
            s_w = _weight_scale_vector(conv, out_ch)
            scale = s_w * s_x / s_next
            bias_units = bias_f / s_next

        bias_units = bias_units + zp_next  # asymmetric consumer grid offset

        if self.mode == "prefuse":
            scale = np.float64(np.asarray(scale).reshape(-1)[0])  # unified scalar (paper Eq. 14)
        unit.mq = MulQuant(scale, bias_units, fmt=self.fmt,
                           out_lo=out_range[0], out_hi=out_range[1],
                           channel_axis=1, float_scale=self.float_scale)

    def fuse_fc_logits(self, fc_unit: QLinearUnit) -> float:
        """Fuse the classifier head.

        Per-class scales are normalized by their maximum so they fit the
        fixed-point grid; argmax (and therefore accuracy) is invariant to the
        common factor, which is returned for logit reconstruction.
        """
        lin: QLinear = fc_unit.linear
        lin.freeze_int_weight()
        s_x = _scalar_scale(lin.aq)
        s_w = _weight_scale_vector(lin, lin.out_features)
        per_class = s_w * s_x
        s_max = float(per_class.max())
        scale = per_class / s_max
        bias_f = lin.bias.data.astype(np.float64) if lin.bias is not None else np.zeros(lin.out_features)
        bias_units = bias_f / s_max
        fc_unit.mq = MulQuant(scale, bias_units, fmt=self.fmt,
                              channel_axis=-1, float_scale=self.float_scale)
        return s_max

    def fuse(self):
        raise NotImplementedError


class ResNetFuser(FuserBase):
    """Fuser for :class:`QResNet` (handles residual branch requantization)."""

    def fuse(self) -> QResNet:
        m: QResNet = self.model
        blocks = list(m.blocks)

        # Stem feeds the first block's shared input quantizer.
        first_aq = blocks[0].aq_in
        self.fuse_unit(m.stem, _scalar_scale(first_aq), (0.0, float(first_aq.qub)))

        for i, blk in enumerate(blocks):
            next_aq = blocks[i + 1].aq_in if i + 1 < len(blocks) else m.fc.linear.aq
            s_out = _scalar_scale(next_aq)
            qub_out = next_aq.qub
            # Pre-residual branches land in a shared signed domain res_scale
            # times finer than the consumer grid.
            s_add = s_out / self.res_scale
            lo, hi = self._signed_range(qub_out)
            signed = (lo * self.res_scale, hi * self.res_scale)

            if isinstance(blk, QBasicBlock):
                inner_last = blk.unit2
                self.fuse_unit(blk.unit1, _scalar_scale(blk.unit2.conv.aq),
                               (0.0, float(blk.unit2.conv.aq.qub)))
            elif isinstance(blk, QBottleneck):
                inner_last = blk.unit3
                self.fuse_unit(blk.unit1, _scalar_scale(blk.unit2.conv.aq),
                               (0.0, float(blk.unit2.conv.aq.qub)))
                self.fuse_unit(blk.unit2, _scalar_scale(blk.unit3.conv.aq),
                               (0.0, float(blk.unit3.conv.aq.qub)))
            else:
                raise TypeError(type(blk))

            self.fuse_unit(inner_last, s_add, signed)
            if blk.down is not None:
                self.fuse_unit(blk.down, s_add, signed)
            else:
                s_in = _scalar_scale(blk.aq_in)
                blk.mq_id = MulQuant(s_in / s_add, fmt=self.fmt,
                                     out_lo=signed[0], out_hi=signed[1],
                                     float_scale=self.float_scale)
            blk.out_clamp = (0.0, float(qub_out))
            blk.res_scale = self.res_scale

        # Pooled features are already in the fc input domain; round + clamp.
        fc_aq = m.fc.linear.aq
        m.mq_pool = MulQuant(1.0, fmt=self.fmt, out_lo=0.0, out_hi=float(fc_aq.qub),
                             channel_axis=-1, float_scale=self.float_scale)
        self.fuse_fc_logits(m.fc)
        return m


def _zp_of(q: _QBase) -> float:
    return float(np.asarray(q.zero_point.data).reshape(-1)[0])


class MobileNetFuser(FuserBase):
    """Fuser for :class:`QMobileNetV1` (a straight unit chain)."""

    def fuse(self) -> QMobileNetV1:
        m: QMobileNetV1 = self.model
        units = list(m.units)
        for i, unit in enumerate(units):
            next_aq = units[i + 1].conv.aq if i + 1 < len(units) else m.fc.linear.aq
            self.fuse_unit(unit, _scalar_scale(next_aq), (0.0, float(next_aq.qub)),
                           zp_next=_zp_of(next_aq))
        fc_aq = m.fc.linear.aq
        m.mq_pool = MulQuant(1.0, fmt=self.fmt, out_lo=0.0, out_hi=float(fc_aq.qub),
                             channel_axis=-1, float_scale=self.float_scale)
        self.fuse_fc_logits(m.fc)
        return m


def build_fuser(model, **kwargs) -> FuserBase:
    """Pick the architecture-matched fuser for a Q-model."""
    if isinstance(model, QResNet):
        return ResNetFuser(model, **kwargs)
    if isinstance(model, QMobileNetV1):
        return MobileNetFuser(model, **kwargs)
    from repro.core.qvit import QVisionTransformer, ViTFuser

    if isinstance(model, QVisionTransformer):
        return ViTFuser(model, **kwargs)
    from repro.core.qvgg import QVGG, VGGFuser

    if isinstance(model, QVGG):
        return VGGFuser(model, **kwargs)
    raise TypeError(f"no fuser registered for {type(model).__name__}")
