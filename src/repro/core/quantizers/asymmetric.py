"""Asymmetric (zero-point) activation quantizer.

The paper's Eq. (2) notes the optional integer zero point ``Z`` that shifts
the grid for signed/unsigned data.  This quantizer calibrates both scale and
zero point from the observed min/max range — useful for activations that are
neither ReLU-positive nor zero-centred (e.g. GELU outputs).
"""
from __future__ import annotations

import numpy as np

from repro.core.quantizers.minmax import MinMaxQuantizer


class AsymMinMaxQuantizer(MinMaxQuantizer):
    """Affine quantizer: ``xq = round(x / s) + z``, grid ``[0, 2^n - 1]``."""

    def __init__(self, nbit: int = 8, momentum: float = 0.9, **_):
        super().__init__(nbit=nbit, unsigned=True, momentum=momentum)

    def calibrate(self) -> None:
        """Set the scale and zero point from the observed min/max range."""
        lo = min(self.observer.min_val, 0.0)
        hi = max(self.observer.max_val, lo + 1e-8)
        scale = (hi - lo) / (self.qub - self.qlb)
        zp = np.round(-lo / scale)
        self.set_scale(scale)
        self.set_zero_point(np.clip(zp, self.qlb, self.qub))
