"""RCF: learnable clipping function from APoT (Li et al., 2020).

APoT's "Reinforced Clipping Function" learns the clipping threshold jointly
with the weights, for both the (signed, symmetric) weight quantizer and the
(unsigned) activation quantizer.  We implement the uniform-grid variant the
paper's Table 2 uses for ResNet-18 and ViT-7 at 4/4 and 8/8.

The clipping threshold receives an LSQ-style ``1/sqrt(N * qub)`` gradient
rescaling: its raw gradient sums over every tensor element, which is orders
of magnitude larger than weight gradients and destabilizes joint SGD
otherwise.
"""
from __future__ import annotations

import numpy as np

from repro.core.qbase import grad_scaled
from repro.core.quantizers.pact import ClipQuantizer
from repro.tensor.tensor import Tensor


class _RCF(ClipQuantizer):
    """PACT's clip with a grad-scaled ``alpha``, lazily initialized from the
    first tensor seen (``init_alpha``) unless ``alpha_init`` is given."""

    def __init__(self, nbit: int, unsigned: bool, alpha_init, default: float):
        super().__init__(nbit, unsigned, alpha_init or default)
        # buffer so checkpoints remember that alpha is already data-scaled
        self.register_buffer("init_flag", np.float32(1.0 if alpha_init is not None else 0.0))

    def clip_level(self, x: Tensor) -> Tensor:
        return grad_scaled(self.alpha, x.size, self.qub).clamp(1e-4)

    def trainFunc(self, x: Tensor) -> Tensor:
        if float(self.init_flag.data) == 0.0:
            self.alpha.data = np.array([self.init_alpha(x.data)], dtype=np.float32)
            self.init_flag.data = np.float32(1.0)
        return super().trainFunc(x)


class RCFWeightQuantizer(_RCF):
    """Signed symmetric weight quantizer with learnable clipping ``alpha``,
    on the symmetric grid ``[-qub, qub]``.

    The threshold is lazily initialized from the first weight tensor seen
    (max-abs) — a fixed constant mis-scales by orders of magnitude across
    layers with different fan-in and silently zeroes small-weight layers.
    """

    def __init__(self, nbit: int = 4, alpha_init: float = None, **_):
        super().__init__(nbit, False, alpha_init, 1.0)

    def init_alpha(self, w: np.ndarray) -> float:
        return max(float(np.abs(w).max()), 1e-4)

    def grid(self):
        return -self.qub, self.qub


class RCFActQuantizer(_RCF):
    """Unsigned activation quantizer with learnable clipping ``alpha``.

    Lazily initialized from the 99.9th percentile of the first batch.
    """

    def __init__(self, nbit: int = 4, alpha_init: float = None, **_):
        super().__init__(nbit, True, alpha_init, 6.0)

    def init_alpha(self, x: np.ndarray) -> float:
        return max(float(np.percentile(np.clip(x, 0, None), 99.9)), 1e-2)
