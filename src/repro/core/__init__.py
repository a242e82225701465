"""Torch2Chip core: the paper's contribution.

* :mod:`repro.core.qbase` — ``_QBase``: the Dual-Path quantizer bottom-level
  logic (training path = differentiable fake-quant, inference path =
  integer-only).
* :mod:`repro.core.quantizers` — the customizable quantizer zoo (MinMax, SAWB,
  PACT, RCF, LSQ, AdaRound, QDrop).
* :mod:`repro.core.qlayers` / :mod:`repro.core.qmodels` — dual-path layers and
  quantization-aware model blocks (CNN and ViT).
* :mod:`repro.core.mulquant` / :mod:`repro.core.fixed_point` — fixed-point
  ``INT(i, f)`` requantization (scale+shift) module.
* :mod:`repro.core.lut` — LUT-based softmax / GELU for the integer-only ViT.
* :mod:`repro.core.fusion` — automatic normalization fusion (8-bit pre-fusing
  and sub-8-bit channel-wise scaling).
* :mod:`repro.core.t2c` — the ``T2C`` top-level converter and vanilla re-pack.
"""
from repro.core.qbase import _QBase, QuantSpec
from repro.core.mulquant import MulQuant
from repro.core.fixed_point import to_fixed_point, from_fixed_point, FixedPointFormat
from repro.core.qlayers import QConv2d, QLinear
from repro.core.deploy import Deployed, DeploySpec, deploy
from repro.core.t2c import T2C

__all__ = [
    "_QBase", "QuantSpec", "MulQuant",
    "to_fixed_point", "from_fixed_point", "FixedPointFormat",
    "QConv2d", "QLinear", "T2C",
    "DeploySpec", "Deployed", "deploy",
]
