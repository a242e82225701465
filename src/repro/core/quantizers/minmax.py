"""MinMax quantizers: the OpenVINO-style PTQ baseline (paper Table 1).

``MinMaxQuantizer`` calibrates a per-tensor scale from observed ranges (any
observer from :mod:`repro.core.observer`); ``MinMaxChannelQuantizer`` is the
per-output-channel variant for weights; ``MinMaxWeightQuantizer`` computes the
scale directly from the current weight tensor every call (no calibration
passes needed).
"""
from __future__ import annotations

import numpy as np

from repro.core.observer import build_observer
from repro.core.qbase import _QBase
from repro.tensor.tensor import Tensor


class MinMaxQuantizer(_QBase):
    """Observer-calibrated per-tensor quantizer (PTQ).

    Calibration protocol: set ``observe=True``, run forward passes over the
    calibration set, call :meth:`finalize_calibration`.  Until then a
    training-mode forward self-calibrates online (QAT: EMA over training
    batches, analogous to BatchNorm running statistics).
    """

    def __init__(self, nbit: int = 8, unsigned: bool = False, observer: str = "minmax", **obs_kwargs):
        super().__init__(nbit=nbit, unsigned=unsigned)
        self.observer = build_observer(observer, **obs_kwargs)
        self.calibrated = False

    def observeFunc(self, x: Tensor) -> None:
        self.observer.update(x.data)

    def calibrate(self) -> None:
        """Set the scale from the accumulated range statistics."""
        self.set_scale(self.observer.compute_scale(self.qlb, self.qub))

    def finalize_calibration(self) -> None:
        """Fix the scale from the accumulated range statistics."""
        if not self.observer.initialized:
            raise RuntimeError("finalize_calibration before any observation")
        self.calibrate()
        self.calibrated = True
        self.observe = False

    def trainFunc(self, x: Tensor) -> Tensor:
        if not self.calibrated:
            if self.training and not self.observe:
                self.observer.update(x.data)
            if self.observer.initialized:
                self.calibrate()
        return super().trainFunc(x)


class MinMaxWeightQuantizer(_QBase):
    """Per-tensor symmetric weight quantizer; scale from the weight itself."""

    def __init__(self, nbit: int = 8, **_):
        super().__init__(nbit=nbit, unsigned=False)

    def trainFunc(self, x: Tensor) -> Tensor:
        self.set_scale(np.abs(x.data).max() / self.qub)
        return super().trainFunc(x)


class MinMaxChannelQuantizer(_QBase):
    """Per-output-channel symmetric weight quantizer.

    Scale shape follows the weight: ``(O, 1, 1, 1)`` for conv weights,
    ``(O, 1)`` for linear weights.
    """

    def __init__(self, nbit: int = 8, **_):
        super().__init__(nbit=nbit, unsigned=False)

    def _channel_scale(self, w: np.ndarray) -> np.ndarray:
        flat = np.abs(w.reshape(w.shape[0], -1)).max(axis=1)
        scale = np.maximum(flat / self.qub, 1e-12).astype(np.float32)
        return scale.reshape((w.shape[0],) + (1,) * (w.ndim - 1))

    def trainFunc(self, x: Tensor) -> Tensor:
        self.set_scale(self._channel_scale(x.data))
        return super().trainFunc(x)
