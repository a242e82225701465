"""Dual-path base layers: ``QConv2d`` and ``QLinear`` (paper Fig. 2).

Each layer embeds a weight quantizer ``wq`` and an input-activation quantizer
``aq`` (both ``_QBase``) and splits computation into:

* **training path** — convolution/matmul over *dequantized* (fake-quantized)
  float tensors, fully differentiable;
* **inference path** (``deploy=True``) — the same operation over integer
  tensors only: the input is already integer (produced by the upstream
  MulQuant or the model's input quantizer) and the weight is the registered
  integer buffer ``wint``.

The layers subclass the vanilla ones so weight re-use and the final
"vanilla-custom-vanilla" re-pack are state-dict compatible.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro import nn
from repro.core.qbase import _QBase, IdentityQuantizer
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor


class _DualPath:
    """What both layers share: the embedded quantizers and the integer
    weight buffer ``wint``."""

    def _attach(self, wq: Optional[_QBase], aq: Optional[_QBase]) -> None:
        self.wq = wq or IdentityQuantizer()
        self.aq = aq or IdentityQuantizer()
        self.deploy = False
        self.register_buffer("wint", np.zeros_like(self.weight.data))

    def _reuse(self, layer):
        """Copy a vanilla layer's weights (vanilla -> custom)."""
        self.weight.data = layer.weight.data.copy()
        if layer.bias is not None:
            self.bias.data = layer.bias.data.copy()
        return self

    def freeze_int_weight(self) -> np.ndarray:
        """Snapshot the integer weight into the ``wint`` buffer (deploy prep).

        Runs the training path once (no grad) so data-dependent quantizers
        (SAWB, MinMax) refresh their scale from the final weights before the
        integer snapshot is taken.
        """
        with no_grad():
            self.wq.trainFunc(self.weight.detach())
            self.wint.data = self.wq.q(self.weight.detach()).data.copy()
        return self.wint.data

    def _int_input(self, x: Tensor) -> Tensor:
        """Asymmetric input grids subtract their zero point before the MACs
        (integer offset-subtract stage) so zero padding stays exact."""
        zp = float(np.asarray(self.aq.zero_point.data).reshape(-1)[0])
        return x - zp if zp != 0.0 else x


class QConv2d(_DualPath, nn.Conv2d):
    """Conv2d with embedded quantizers and a dual-path forward."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        wq: Optional[_QBase] = None,
        aq: Optional[_QBase] = None,
    ):
        super().__init__(in_channels, out_channels, kernel_size, stride, padding, groups, bias)
        self._attach(wq, aq)

    @classmethod
    def from_float(cls, conv: nn.Conv2d, wq: _QBase, aq: _QBase) -> "QConv2d":
        """Wrap a vanilla conv, re-using its weights (vanilla -> custom)."""
        return cls(conv.in_channels, conv.out_channels, conv.kernel_size, conv.stride,
                   conv.padding, conv.groups, bias=conv.bias is not None, wq=wq, aq=aq
                   )._reuse(conv)

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            # Integer-only: input already integer, weight from the frozen
            # buffer; bias is handled by the downstream MulQuant.  A float64
            # GEMM sums the codes exactly (below 2^53), like an int32 MAC array.
            return F.conv2d(self._int_input(x), self.wint.astype(np.float64), None,
                            self.stride, self.padding, self.groups)
        xdq = self.aq(x)
        wdq = self.wq(self.weight)
        return F.conv2d(xdq, wdq, self.bias, self.stride, self.padding, self.groups)


class QLinear(_DualPath, nn.Linear):
    """Linear with embedded quantizers and a dual-path forward."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 wq: Optional[_QBase] = None, aq: Optional[_QBase] = None):
        super().__init__(in_features, out_features, bias)
        self._attach(wq, aq)

    @classmethod
    def from_float(cls, lin: nn.Linear, wq: _QBase, aq: _QBase) -> "QLinear":
        return cls(lin.in_features, lin.out_features, bias=lin.bias is not None,
                   wq=wq, aq=aq)._reuse(lin)

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            return F.linear(self._int_input(x), Tensor(self.wint.data), None)
        xdq = self.aq(x)
        wdq = self.wq(self.weight)
        return F.linear(xdq, wdq, self.bias)
