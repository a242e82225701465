"""Quantizer zoo built on the ``_QBase`` dual-path template.

Every quantizer states its grid, its scale and its input transform (AdaRound:
its codes) once, and ``_QBase`` runs the one quantize chain over them for
training and inference alike, so T2C converts it to integer-only inference
automatically — the paper's central workflow claim.  ``trainFunc`` is
overridden only for training-time departures by design (AdaRound's soft
gate, QDrop's drop) or to compute a shared value once (PACT's clip level).
"""
from repro.core.qbase import _QBase, IdentityQuantizer
from repro.core.quantizers.asymmetric import AsymMinMaxQuantizer
from repro.core.quantizers.dorefa import DoReFaWeightQuantizer, DoReFaActQuantizer
from repro.core.quantizers.minmax import MinMaxQuantizer, MinMaxChannelQuantizer, MinMaxWeightQuantizer
from repro.core.quantizers.sawb import SAWBQuantizer
from repro.core.quantizers.pact import PACTQuantizer
from repro.core.quantizers.rcf import RCFWeightQuantizer, RCFActQuantizer
from repro.core.quantizers.lsq import LSQQuantizer
from repro.core.quantizers.adaround import AdaRoundQuantizer
from repro.core.quantizers.qdrop import QDropQuantizer

#: name -> class registry for config-driven construction
QUANTIZERS = {
    "identity": IdentityQuantizer,
    "minmax": MinMaxQuantizer,
    "asym_minmax": AsymMinMaxQuantizer,
    "minmax_channel": MinMaxChannelQuantizer,
    "minmax_weight": MinMaxWeightQuantizer,
    "sawb": SAWBQuantizer,
    "pact": PACTQuantizer,
    "rcf_weight": RCFWeightQuantizer,
    "rcf_act": RCFActQuantizer,
    "lsq": LSQQuantizer,
    "adaround": AdaRoundQuantizer,
    "qdrop": QDropQuantizer,
    "dorefa_weight": DoReFaWeightQuantizer,
    "dorefa_act": DoReFaActQuantizer,
}


def build_quantizer(name: str, **kwargs) -> _QBase:
    """Instantiate a registered quantizer by name."""
    if name not in QUANTIZERS:
        raise KeyError(f"unknown quantizer {name!r}; known: {sorted(QUANTIZERS)}")
    return QUANTIZERS[name](**kwargs)


__all__ = [
    "QUANTIZERS", "build_quantizer",
    "MinMaxQuantizer", "AsymMinMaxQuantizer", "MinMaxChannelQuantizer", "MinMaxWeightQuantizer",
    "SAWBQuantizer", "PACTQuantizer", "RCFWeightQuantizer", "RCFActQuantizer",
    "LSQQuantizer", "AdaRoundQuantizer", "QDropQuantizer", "IdentityQuantizer",
    "DoReFaWeightQuantizer", "DoReFaActQuantizer",
]
