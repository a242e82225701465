"""QDrop: randomly dropping activation quantization during PTQ (Wei et al., 2022).

During block-wise reconstruction, each activation element is passed through
*un*-quantized with probability ``p`` (default 0.5), which flattens the loss
landscape of the calibrated model and is the SoTA recipe for extremely low
bit PTQ.  At inference the quantizer behaves like a plain calibrated uniform
quantizer — so the deploy conversion is unchanged.  Paper Table 1 uses QDrop
for the 4/4 and 8/8 ResNet-50 PTQ rows.
"""
from __future__ import annotations

import numpy as np

from repro.core.quantizers.minmax import MinMaxQuantizer
from repro.tensor import where
from repro.tensor.tensor import Tensor


class QDropQuantizer(MinMaxQuantizer):
    """Unsigned activation quantizer with stochastic quantization dropping.

    Unlike its base it does not self-calibrate before
    :meth:`finalize_calibration`.
    """

    def __init__(self, nbit: int = 8, p: float = 0.5, observer: str = "mse", seed: int = 0,
                 unsigned: bool = True, **obs_kwargs):
        super().__init__(nbit=nbit, unsigned=unsigned, observer=observer, **obs_kwargs)
        self.p = p
        self.drop_enabled = True  # reconstruction phase only
        self._rng = np.random.default_rng(seed)

    def trainFunc(self, x: Tensor) -> Tensor:
        fq = self.quantize(x, self.scale.data)
        if self.drop_enabled and self.p > 0:
            keep_fp = Tensor((self._rng.random(x.shape) < self.p).astype(np.float32))
            return where(keep_fp.data.astype(bool), x, fq)
        return fq
