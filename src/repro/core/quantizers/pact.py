"""PACT: Parameterized Clipping Activation (Choi et al., 2019).

Activations are clipped to a *learnable* threshold ``alpha`` before uniform
unsigned quantization.  The clipping threshold receives gradients through the
autograd graph (the straight-through estimator passes gradients to ``alpha``
exactly where the input saturates), so it co-trains with the weights.
"""
from __future__ import annotations

import numpy as np

from repro.core.qbase import _QBase
from repro.nn.module import Parameter
from repro.tensor import maximum, minimum
from repro.tensor.tensor import Tensor


class ClipQuantizer(_QBase):
    """A quantizer whose range is a learnable clipping level ``alpha``: the
    input is clipped to ``[0, alpha]`` (``[-alpha, alpha]`` when signed) and
    quantized with step ``alpha / qub``.  Shared by PACT and RCF."""

    def __init__(self, nbit: int, unsigned: bool, alpha_init: float):
        super().__init__(nbit=nbit, unsigned=unsigned)
        self.alpha = Parameter(np.array([alpha_init], dtype=np.float32))

    def clip_level(self, x: Tensor) -> Tensor:
        return self.alpha.clamp(1e-4)  # keep the threshold positive

    def transform(self, x: Tensor, alpha: Tensor = None) -> Tensor:
        alpha = self.clip_level(x) if alpha is None else alpha
        return minimum(x.relu() if self.unsigned else maximum(x, -alpha), alpha)

    def trainFunc(self, x: Tensor) -> Tensor:
        alpha = self.clip_level(x)   # once: the clip and the learnable step
        return self.quantize(self.transform(x, alpha), alpha * (1.0 / self.qub))


class PACTQuantizer(ClipQuantizer):
    """Unsigned activation quantizer with learnable clipping level."""

    def __init__(self, nbit: int = 4, alpha_init: float = 6.0, **_):
        super().__init__(nbit, True, alpha_init)
