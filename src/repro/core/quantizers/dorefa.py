"""DoReFa-Net quantizers (Zhou et al., 2016) — the classic low-bit baseline.

Weights are squashed with ``tanh`` and normalized to [-1, 1] before uniform
quantization; activations are clipped to [0, 1].  Both land on uniform grids,
so they deploy through the standard integer pipeline (the tanh squash is a
train-time transformation of the stored float weights; the deployed tensor is
the uniform integer grid).
"""
from __future__ import annotations

import numpy as np

from repro.core.qbase import _QBase
from repro.tensor.tensor import Tensor


class DoReFaWeightQuantizer(_QBase):
    """tanh-normalized symmetric weight quantizer, step ``1 / qub``."""

    def __init__(self, nbit: int = 4, **_):
        super().__init__(nbit=nbit, unsigned=False)
        self.set_scale(1.0 / self.qub)

    def transform(self, x: Tensor) -> Tensor:
        t = x.tanh()
        return t / float(np.abs(t.data).max() + 1e-12)  # in [-1, 1]


class DoReFaActQuantizer(_QBase):
    """Activations clipped to [0, alpha] (fixed alpha, DoReFa uses 1)."""

    def __init__(self, nbit: int = 4, alpha: float = 1.0, **_):
        super().__init__(nbit=nbit, unsigned=True)
        self.alpha = alpha
        self.set_scale(alpha / self.qub)

    def transform(self, x: Tensor) -> Tensor:
        return x.clamp(0.0, self.alpha)
