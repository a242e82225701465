"""Dual-path VGG: the reference "extend the toolkit to a new architecture".

Follows the recipe in docs/customization.md §4: compose
:class:`~repro.core.qmodels.QConvBNReLU` units, keep the pooling modules
(integer max-pool is exact — the max of integer codes in a shared domain is
the code of the max), and write a chain fuser.
"""
from __future__ import annotations

from typing import List, Optional

from repro import nn
from repro.core.fusion import FuserBase, _scalar_scale
from repro.core.mulquant import MulQuant
from repro.core.qconfig import QConfig
from repro.core.qlayers import QConv2d, QLinear
from repro.core.qmodels import QConvBNReLU, QLinearUnit
from repro.models.vgg import VGG
from repro.tensor.tensor import Tensor


class QVGG(nn.Module):
    """Quantization-aware VGG: units and pools interleaved in one chain."""

    def __init__(self, model: VGG, qcfg: QConfig):
        super().__init__()
        self.qcfg = qcfg
        self.input_q = qcfg.make_input_q()
        steps = []
        mods = list(model.features)
        i = 0
        first = True
        while i < len(mods):
            m = mods[i]
            if isinstance(m, nn.MaxPool2d):
                steps.append(nn.MaxPool2d(m.kernel_size, m.stride))
                i += 1
                continue
            conv, bn = mods[i], mods[i + 1]  # conv-BN-ReLU triple
            aq = self.input_q if first else qcfg.make_aq()
            steps.append(QConvBNReLU(QConv2d.from_float(conv, qcfg.make_wq(), aq), bn, relu=True))
            first = False
            i += 3
        self.chain = nn.Sequential(*steps)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.fc = QLinearUnit(QLinear.from_float(model.fc, qcfg.make_wq(), qcfg.make_aq()))
        self.deploy = False
        self.mq_pool: Optional[MulQuant] = None

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            y = self.chain(self.input_q(x))
            y = self.mq_pool(self.flatten(self.pool(y)))
            return self.fc(y)
        y = self.chain(x)
        return self.fc(self.flatten(self.pool(y)))

    def units(self) -> List[QConvBNReLU]:
        return [s for s in self.chain if isinstance(s, QConvBNReLU)]


class VGGFuser(FuserBase):
    """Chain fuser: max-pools pass integer domains through unchanged."""

    def fuse(self) -> QVGG:
        from repro.core.fusion import _zp_of

        m: QVGG = self.model
        units = m.units()
        for i, unit in enumerate(units):
            next_aq = units[i + 1].conv.aq if i + 1 < len(units) else m.fc.linear.aq
            self.fuse_unit(unit, _scalar_scale(next_aq), (0.0, float(next_aq.qub)),
                           zp_next=_zp_of(next_aq))
        fc_aq = m.fc.linear.aq
        m.mq_pool = MulQuant(1.0, fmt=self.fmt, out_lo=0.0, out_hi=float(fc_aq.qub),
                             channel_axis=-1, float_scale=self.float_scale)
        self.fuse_fc_logits(m.fc)
        return m
