"""AdaRound: adaptive rounding for PTQ (Nagel et al., 2020).

Instead of rounding to nearest, each weight learns whether to round up or
down through a rectified-sigmoid gate ``h(alpha)`` optimized against a
layer-wise reconstruction loss (paper Eq. 5/6):

* training path:   ``Wq = floor(W / S) + h(alpha)``     (soft, differentiable)
* inference path:  ``Wq = floor(W / S) + (alpha >= 0)`` (hard: its ``codes``)

This quantizer demonstrates the paper's point that Torch2Chip accommodates
adaptive methods that PyTorch's fixed nearest-rounding API cannot express:
only the training path is custom, and the deploy conversion still works
because the integer path is derived from the same registered state.
"""
from __future__ import annotations

import numpy as np

from repro.core.qbase import _QBase
from repro.nn.module import Parameter
from repro.tensor.tensor import Tensor

ZETA, GAMMA = 1.1, -0.1


class AdaRoundQuantizer(_QBase):
    """Weight quantizer with learnable rounding offsets (PTQ)."""

    def __init__(self, nbit: int = 8, **_):
        super().__init__(nbit=nbit, unsigned=False)
        self.alpha: Parameter | None = None
        self.soft = True  # soft h(alpha) during reconstruction; hard after

    # -------------------------------------------------------------- init
    def init_from_weight(self, w: np.ndarray) -> None:
        """Set the scale (max-abs symmetric) and initialize ``alpha`` so that
        ``h(alpha)`` reproduces the float rounding residual.

        Exactly-zero weights (pruned connections) are pinned to integer code
        0 in both paths so reconstruction cannot regrow them — sparsity must
        survive into the deployed tensors (paper §4.3).
        """
        scale = max(np.abs(w).max() / self.qub, 1e-12)
        self.set_scale(scale)
        rest = w / scale - np.floor(w / scale)  # in [0, 1)
        rest = np.clip(rest, 1e-4, 1 - 1e-4)
        # invert the rectified sigmoid: rest = sigmoid(a)*(Z-G)+G
        p = np.clip((rest - GAMMA) / (ZETA - GAMMA), 1e-4, 1 - 1e-4)
        alpha = -np.log(1.0 / p - 1.0)
        self.alpha = Parameter(alpha.astype(np.float32))
        self._nonzero = (w != 0).astype(np.float32)

    def h(self) -> Tensor:
        """Rectified sigmoid gate in [0, 1]."""
        if self.alpha is None:
            raise RuntimeError("AdaRoundQuantizer.init_from_weight was never called")
        return (self.alpha.sigmoid() * (ZETA - GAMMA) + GAMMA).clamp(0.0, 1.0)

    def reg_loss(self, beta: float = 2.0) -> Tensor:
        """Rounding regularizer pushing h(alpha) to {0, 1} (paper's f_reg)."""
        h = self.h()
        return (1.0 - (2.0 * h - 1.0).abs() ** beta).sum()

    # -------------------------------------------------------------- paths
    def _floor(self, w: np.ndarray) -> np.ndarray:
        if self.alpha is None:
            self.init_from_weight(w)
        return np.floor(w / self.scale.data)

    def codes(self, x: np.ndarray, s, zp) -> np.ndarray:
        """Hard codes ``floor(W / S) + (alpha >= 0)``, pruned weights at 0."""
        return (self._floor(x) + (self.alpha.data >= 0)) * self._nonzero

    def trainFunc(self, x: Tensor) -> Tensor:
        floor = self._floor(x.data)
        if not self.soft:   # the hard gate: no gradient, as deployed
            return super().trainFunc(x.detach())
        wq = (Tensor(floor) + self.h()).clamp(self.qlb, self.qub)
        return wq * Tensor(self._nonzero) * float(self.scale.data)
