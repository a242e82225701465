"""Golden test-vector generation for RTL unit verification.

A chip designer verifying one fused unit (integer conv/linear + MulQuant)
against the Python golden model needs matched stimulus/response files:
input activations, weights, and the expected output integers, all in
``$readmemh``-ready hex.  :func:`generate_unit_vectors` runs the deploy-path
golden model over random in-grid stimuli and writes the triple.
"""
from __future__ import annotations

import json
import os
from typing import Dict, Optional

import numpy as np

from repro.core.qmodels import QConvBNReLU, QLinearUnit
from repro.export.formats import save_tensor
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor


def generate_unit_vectors(
    unit,
    input_shape,
    out_dir: str,
    name: str,
    n_vectors: int = 4,
    input_bits: int = 8,
    output_bits: int = 32,
    weight_bits: int = 8,
    seed: int = 0,
) -> Dict:
    """Run the fused unit over random integer stimuli; dump hex triples.

    ``unit`` must be a fused, deploy-mode :class:`QConvBNReLU` or
    :class:`QLinearUnit`.  ``input_shape`` excludes the batch dimension.
    Returns the manifest (also written as ``<name>_vectors.json``).
    """
    if not isinstance(unit, (QConvBNReLU, QLinearUnit)):
        raise TypeError(f"unsupported unit type {type(unit).__name__}")
    if not unit.deploy or unit.mq is None:
        raise RuntimeError("unit must be fused and in deploy mode")
    os.makedirs(out_dir, exist_ok=True)

    layer = unit.conv if isinstance(unit, QConvBNReLU) else unit.linear
    aq = layer.aq
    lo, hi = aq.qlb, aq.qub
    rng = np.random.default_rng(seed)
    x = rng.integers(lo, hi + 1, size=(n_vectors,) + tuple(input_shape)).astype(np.float32)
    with no_grad():
        y = unit(Tensor(x)).data
    # word widths sized to the actual ranges (unsigned 8-bit activation codes
    # need 16-bit two's-complement words, accumulators may need 32)
    from repro.export.formats import bits_needed

    input_bits = max(input_bits, bits_needed(np.array([lo, hi])))
    weight_bits = max(weight_bits, bits_needed(layer.wint.data))
    output_bits = max(8, bits_needed(y))

    manifest = {
        "name": name,
        "input_shape": list(input_shape),
        "n_vectors": n_vectors,
        "input_range": [lo, hi],
        "files": {
            "input": f"{name}_input.hex",
            "weight": f"{name}_weight.hex",
            "expected": f"{name}_expected.hex",
        },
        "bits": {"input": input_bits, "weight": weight_bits, "output": output_bits},
        "mulquant": {
            "scale_raw": np.asarray(unit.mq.scale.data).reshape(-1).tolist()
            if not unit.mq.float_scale else "float",
            "bias_raw": np.asarray(unit.mq.bias.data).reshape(-1).tolist()
            if not unit.mq.float_scale else "float",
            "shift": getattr(unit.mq, "shift", 0),
            "out_range": [unit.mq.out_lo, unit.mq.out_hi],
        },
    }
    save_tensor(os.path.join(out_dir, manifest["files"]["input"]), x, "hex", input_bits)
    save_tensor(os.path.join(out_dir, manifest["files"]["weight"]), layer.wint.data, "hex", weight_bits)
    save_tensor(os.path.join(out_dir, manifest["files"]["expected"]), y, "hex", output_bits)
    with open(os.path.join(out_dir, f"{name}_vectors.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    return manifest


def generate_model_vectors(qmodel, sample_input: np.ndarray, out_dir: str,
                           max_units: Optional[int] = None, seed: int = 0) -> Dict:
    """Test vectors for every fused conv unit of a deploy-mode model.

    Input shapes are discovered by tracing one sample through the network.
    """
    shapes = {}
    hooks = []
    units = [(n, m) for n, m in qmodel.named_modules() if isinstance(m, QConvBNReLU)]
    if max_units is not None:
        units = units[:max_units]

    for uname, unit in units:
        original = unit.forward

        def hooked(x, _unit=unit, _name=uname, _orig=None):
            shapes[_name] = tuple(x.shape[1:])
            return type(_unit).forward(_unit, x)

        object.__setattr__(unit, "forward", hooked)
        hooks.append(unit)
    try:
        with no_grad():
            qmodel(Tensor(np.asarray(sample_input, dtype=np.float32)))
    finally:
        for unit in hooks:
            object.__delattr__(unit, "forward")

    index = {"units": []}
    for i, (uname, unit) in enumerate(units):
        if uname not in shapes:
            continue
        safe = uname.replace(".", "_")
        manifest = generate_unit_vectors(unit, shapes[uname], out_dir, safe, seed=seed + i)
        index["units"].append({"unit": uname, "manifest": f"{safe}_vectors.json"})
    with open(os.path.join(out_dir, "vectors_index.json"), "w") as f:
        json.dump(index, f, indent=2)
    return index
