"""Shared fixtures for the compiled-runtime suite.

Deployed models are expensive to build (quantize + calibrate + fuse +
re-pack), so one bundle per (model, fusion, scale-mode) configuration is
cached for the whole session and shared by the exactness / determinism /
serving tests.  Everything here runs at CLI scale (narrow widths, 32x32
synthetic inputs); the bit-exactness contract is width-independent.
"""
from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.runtime import Plan
from repro.runtime.compiler import lower
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor

#: CPU-sized builds, mirroring repro.cli.MODEL_KWARGS
MODEL_KWARGS = {
    "resnet20": dict(width=8), "resnet18": dict(width=8),
    "resnet50": dict(width=8), "mobilenet-v1": dict(width_mult=0.5),
    "vgg8": dict(width_mult=0.5), "vit-7": dict(embed_dim=64),
}

_CACHE: Dict[Tuple, Tuple] = {}


def pytest_collection_modifyitems(items):
    """Everything under tests/runtime carries the `runtime` marker so the
    suite can be selected (`-m runtime`) or skipped in isolation."""
    for item in items:
        item.add_marker(pytest.mark.runtime)


def _build(model_name: str, fusion: str, float_scale: bool):
    import zlib

    seed = zlib.crc32(repr((model_name, fusion, float_scale)).encode())
    rng = np.random.default_rng(seed)
    kwargs = MODEL_KWARGS.get(model_name, {})
    qm = quantize_model(build_model(model_name, num_classes=10, **kwargs),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                         for _ in range(2)])
    d = deploy(qm, DeploySpec(fusion=fusion, float_scale=float_scale,
                              runtime="none"))
    x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    with no_grad():
        ref = d.qnn(Tensor(x)).data
    return d, x, ref


@pytest.fixture(scope="session")
def deployed_factory():
    """`get(model, fusion, float_scale) -> (Deployed, batch, tree_logits)`."""
    def get(model_name: str, fusion: str = "channel",
            float_scale: bool = False):
        key = (model_name, fusion, float_scale)
        if key not in _CACHE:
            _CACHE[key] = _build(*key)
        return _CACHE[key]
    return get


@pytest.fixture(scope="session")
def unfused_plan():
    """`get(qnn) -> Plan` over the compiler's lowered op list *before* the
    fusion pass — the reference the fused program must match bitwise."""
    def get(qnn):
        ops, num_regs, output_reg = lower(qnn)
        fused = Plan.compile(qnn)
        return Plan(ops, num_regs, output_reg, fused.model_name,
                    fused.out_features)
    return get
