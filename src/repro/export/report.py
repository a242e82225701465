"""Model-size and compression accounting (Table 2's "Model Size (MB)")."""
from __future__ import annotations

from typing import Dict, Optional

from repro.nn.module import Module


def model_size_mb(model: Module, weight_bits: Optional[int] = None) -> float:
    """Storage of all parameters at the given precision (default float32).

    For a re-packed integer model pass the weight precision (the paper counts
    ``#params * wbit / 8`` bytes, e.g. ResNet-18 at 4-bit -> 5.59 MB).
    """
    n = sum(p.size for _, p in model.named_parameters())
    bits = weight_bits or 32
    return n * bits / 8 / 1e6


def compression_report(float_model: Module, wbit: int, abit: int,
                       extra_int16_params: int = 0) -> Dict:
    """Summary of the compression a deployment achieves.

    ``extra_int16_params`` counts MulQuant scale/bias words introduced by
    fusion (stored at INT16).
    """
    n = sum(p.size for _, p in float_model.named_parameters())
    fp_mb = n * 4 / 1e6
    int_mb = n * wbit / 8 / 1e6 + extra_int16_params * 2 / 1e6
    return {
        "num_params": int(n),
        "fp32_mb": fp_mb,
        "int_mb": int_mb,
        "ratio": fp_mb / int_mb if int_mb else float("inf"),
        "wbit": wbit,
        "abit": abit,
    }

