"""LSQ: Learned Step Size Quantization (Esser et al., 2020).

The step size is a parameter, the quantizer's learnable ``qscale``; the
fake-quant node gives it the LSQ step-size gradient ``round(x/s) - x/s`` in
the non-saturated region.  The per-element gradient is scaled by
``1/sqrt(N * qub)`` as in the paper for stable training.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.qbase import _QBase, grad_scaled
from repro.nn.module import Parameter
from repro.tensor.tensor import Tensor


class LSQQuantizer(_QBase):
    """Learnable step-size quantizer (weights: signed; acts: unsigned)."""

    def __init__(self, nbit: int = 4, unsigned: bool = False, step_init: float = 0.1, **_):
        super().__init__(nbit=nbit, unsigned=unsigned)
        self.step = Parameter(np.array([step_init], dtype=np.float32))
        self._initialized = False

    def _maybe_init(self, x: Tensor) -> None:
        if self._initialized:
            return
        # LSQ init: 2 * E|x| / sqrt(qub)
        init = 2.0 * float(np.abs(x.data).mean()) / math.sqrt(self.qub)
        self.step.data = np.array([max(init, 1e-6)], dtype=np.float32)
        self._initialized = True

    def qscale(self, x: Tensor) -> Tensor:
        return grad_scaled(self.step, x.size, self.qub).clamp(1e-6)

    def trainFunc(self, x: Tensor) -> Tensor:
        self._maybe_init(x)
        return super().trainFunc(x)
