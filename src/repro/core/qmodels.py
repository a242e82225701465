"""Quantization-aware model structures with Dual-Path forward (CNNs).

Every vanilla architecture gets a Q-counterpart assembled from two reusable
units:

* :class:`QConvBNReLU` — ``aq -> conv(wq) -> BN -> ReLU`` in the training
  path; ``int-conv -> MulQuant`` in the deploy path.
* :class:`QLinearUnit` — same for fully-connected layers.

Residual blocks (:class:`QBasicBlock`, :class:`QBottleneck`) add the branch
requantization logic: in deploy mode both branches are requantized into a
shared signed integer domain, added, and clamped (ReLU == clamp-at-zero for
the unsigned consumer grid).

The ``vanilla -> custom`` converters (:func:`quantize_model` and friends)
re-use the float model's weights, matching the paper's workflow where a
pre-trained checkpoint enters the toolkit untouched.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import nn
from repro.core.qbase import _QBase
from repro.core.qconfig import QConfig
from repro.core.qlayers import QConv2d, QLinear
from repro.core.mulquant import MulQuant
from repro.models.mobilenet import MobileNetV1
from repro.models.resnet import BasicBlock, Bottleneck, ResNet
from repro.tensor.tensor import Tensor


class QConvBNReLU(nn.Module):
    """Conv + (BN) + (ReLU) unit with dual-path execution."""

    def __init__(self, conv: QConv2d, bn: Optional[nn.BatchNorm2d], relu: bool):
        super().__init__()
        self.conv = conv
        self.bn = bn if bn is not None else nn.Identity()
        self.has_bn = bn is not None
        self.relu = relu
        self.deploy = False
        self.mq: Optional[MulQuant] = None  # wired by the fuser

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            if self.mq is None:
                raise RuntimeError("deploy before fusion: MulQuant missing")
            return self.mq(self.conv(x))
        y = self.conv(x)
        if self.has_bn:
            y = self.bn(y)
        if self.relu:
            y = y.relu()
        return y


class QLinearUnit(nn.Module):
    """Linear unit with dual-path execution."""

    def __init__(self, linear: QLinear):
        super().__init__()
        self.linear = linear
        self.deploy = False
        self.mq: Optional[MulQuant] = None

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            if self.mq is None:
                raise RuntimeError("deploy before fusion: MulQuant missing")
            return self.mq(self.linear(x))
        return self.linear(x)


def _residual_merge(a: Tensor, s: Tensor, res_scale: float, out_clamp) -> Tensor:
    """Integer residual add in a fine pre-add domain.

    Branch MulQuants land in a domain ``res_scale``x finer than the output
    activation grid (one extra right-shift on hardware), so the two branch
    roundings contribute sub-LSB error instead of a full LSB — matching the
    fake-quant path, which rounds the *sum* once.  ReLU == the zero lower
    clamp of the unsigned consumer grid.
    """
    v = (a.data + s.data) / res_scale
    y = np.clip(np.sign(v) * np.floor(np.abs(v) + 0.5), out_clamp[0], out_clamp[1])
    return Tensor(y.astype(np.float32))


class QBasicBlock(nn.Module):
    """Dual-path BasicBlock.

    The block input quantizer is *shared* between the main branch and the
    (projection) shortcut so both consume the same integer domain.  The
    identity shortcut is also fake-quantized in the training path so the
    deploy-path branch requantization is faithful.
    """

    expansion = 1

    def __init__(self, block: BasicBlock, qcfg: QConfig):
        super().__init__()
        aq_in = qcfg.make_aq()
        self.unit1 = QConvBNReLU(QConv2d.from_float(block.conv1, qcfg.make_wq(), aq_in), block.bn1, relu=True)
        self.unit2 = QConvBNReLU(QConv2d.from_float(block.conv2, qcfg.make_wq(), qcfg.make_aq()), block.bn2, relu=False)
        self.aq_in = aq_in
        if isinstance(block.downsample, nn.Identity):
            self.down = None
        else:
            conv_d, bn_d = block.downsample[0], block.downsample[1]
            self.down = QConvBNReLU(QConv2d.from_float(conv_d, qcfg.make_wq(), aq_in), bn_d, relu=False)
        self.deploy = False
        self.mq_id: Optional[MulQuant] = None  # identity-shortcut requant
        self.out_clamp = (0.0, float(2 ** 31))  # set by the fuser
        self.res_scale = 1.0                    # pre-add domain refinement

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            a = self.unit2(self.unit1(x))
            s = self.down(x) if self.down is not None else self.mq_id(x)
            return _residual_merge(a, s, self.res_scale, self.out_clamp)
        a = self.unit2(self.unit1(x))
        s = self.down(x) if self.down is not None else self.aq_in(x)
        return (a + s).relu()

    def units(self) -> List[QConvBNReLU]:
        out = [self.unit1, self.unit2]
        if self.down is not None:
            out.append(self.down)
        return out


class QBottleneck(nn.Module):
    """Dual-path Bottleneck block (ResNet-50 family)."""

    expansion = 4

    def __init__(self, block: Bottleneck, qcfg: QConfig):
        super().__init__()
        aq_in = qcfg.make_aq()
        self.unit1 = QConvBNReLU(QConv2d.from_float(block.conv1, qcfg.make_wq(), aq_in), block.bn1, relu=True)
        self.unit2 = QConvBNReLU(QConv2d.from_float(block.conv2, qcfg.make_wq(), qcfg.make_aq()), block.bn2, relu=True)
        self.unit3 = QConvBNReLU(QConv2d.from_float(block.conv3, qcfg.make_wq(), qcfg.make_aq()), block.bn3, relu=False)
        self.aq_in = aq_in
        if isinstance(block.downsample, nn.Identity):
            self.down = None
        else:
            conv_d, bn_d = block.downsample[0], block.downsample[1]
            self.down = QConvBNReLU(QConv2d.from_float(conv_d, qcfg.make_wq(), aq_in), bn_d, relu=False)
        self.deploy = False
        self.mq_id: Optional[MulQuant] = None
        self.out_clamp = (0.0, float(2 ** 31))
        self.res_scale = 1.0

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            a = self.unit3(self.unit2(self.unit1(x)))
            s = self.down(x) if self.down is not None else self.mq_id(x)
            return _residual_merge(a, s, self.res_scale, self.out_clamp)
        a = self.unit3(self.unit2(self.unit1(x)))
        s = self.down(x) if self.down is not None else self.aq_in(x)
        return (a + s).relu()

    def units(self) -> List[QConvBNReLU]:
        out = [self.unit1, self.unit2, self.unit3]
        if self.down is not None:
            out.append(self.down)
        return out


class QResNet(nn.Module):
    """Quantization-aware ResNet with dual-path execution."""

    def __init__(self, model: ResNet, qcfg: QConfig):
        super().__init__()
        self.qcfg = qcfg
        self.input_q = qcfg.make_input_q()
        self.stem = QConvBNReLU(QConv2d.from_float(model.conv1, qcfg.make_wq(), self.input_q), model.bn1, relu=True)
        blocks = []
        for stage in model.stages:
            for block in stage:
                if isinstance(block, BasicBlock):
                    blocks.append(QBasicBlock(block, qcfg))
                elif isinstance(block, Bottleneck):
                    blocks.append(QBottleneck(block, qcfg))
                else:
                    raise TypeError(f"unknown block {type(block)}")
        self.blocks = nn.Sequential(*blocks)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.fc = QLinearUnit(QLinear.from_float(model.fc, qcfg.make_wq(), qcfg.make_aq()))
        self.deploy = False
        self.mq_pool: Optional[MulQuant] = None  # rounds pooled ints into the fc domain

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            xi = self.input_q(x)
            y = self.blocks(self.stem(xi))
            y = self.flatten(self.pool(y))
            y = self.mq_pool(y)
            return self.fc(y)
        y = self.blocks(self.stem(x))
        return self.fc(self.flatten(self.pool(y)))


class QMobileNetV1(nn.Module):
    """Quantization-aware MobileNet-V1: a pure chain of conv units."""

    def __init__(self, model: MobileNetV1, qcfg: QConfig):
        super().__init__()
        self.qcfg = qcfg
        self.input_q = qcfg.make_input_q()
        units = [QConvBNReLU(QConv2d.from_float(model.stem[0], qcfg.make_wq(), self.input_q),
                             model.stem[1], relu=True)]
        for block in model.blocks:
            # each block is Sequential(dw conv, bn, relu, pw conv, bn, relu)
            units.append(QConvBNReLU(QConv2d.from_float(block[0], qcfg.make_wq(), qcfg.make_aq()),
                                     block[1], relu=True))
            units.append(QConvBNReLU(QConv2d.from_float(block[3], qcfg.make_wq(), qcfg.make_aq()),
                                     block[4], relu=True))
        self.units = nn.Sequential(*units)
        self.pool = nn.AdaptiveAvgPool2d(1)
        self.flatten = nn.Flatten()
        self.fc = QLinearUnit(QLinear.from_float(model.fc, qcfg.make_wq(), qcfg.make_aq()))
        self.deploy = False
        self.mq_pool: Optional[MulQuant] = None

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            xi = self.input_q(x)
            y = self.units(xi)
            y = self.flatten(self.pool(y))
            y = self.mq_pool(y)
            return self.fc(y)
        y = self.units(x)
        return self.fc(self.flatten(self.pool(y)))


def quantize_model(model: nn.Module, qcfg: QConfig) -> nn.Module:
    """vanilla -> custom: wrap a float model with dual-path quantized modules."""
    if isinstance(model, ResNet):
        return QResNet(model, qcfg)
    if isinstance(model, MobileNetV1):
        return QMobileNetV1(model, qcfg)
    # ViT / VGG conversions live in their own modules to keep this one lean.
    from repro.core.qvit import QVisionTransformer
    from repro.models.vit import VisionTransformer

    if isinstance(model, VisionTransformer):
        return QVisionTransformer(model, qcfg)
    from repro.core.qvgg import QVGG
    from repro.models.vgg import VGG

    if isinstance(model, VGG):
        return QVGG(model, qcfg)
    raise TypeError(f"no quantized counterpart registered for {type(model).__name__}")
