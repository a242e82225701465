"""Shared fixtures for the fault-injection suite.

Everything here carries the ``chaos`` marker so the suite can be selected
(``-m chaos``) or excluded in isolation.  The exported artifact directory is
built once per session — injectors always work on copies.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import CATALOG
from repro.export.writer import export_state_dict


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.chaos)


def scored_by_catalog(report) -> bool:
    """Every injected record scored exactly its catalog row's layers, in row
    order (a not-applicable one scored none)."""
    return all(list(r.layers) == (list(CATALOG[r.injector].layers)
                                  if r.applicable else [])
               for r in report.records)


@pytest.fixture(scope="session")
def clean_export(tmp_path_factory):
    """One clean all-formats export; tests must never mutate it."""
    rng = np.random.default_rng(42)
    out = str(tmp_path_factory.mktemp("chaos") / "artifacts")
    state = {"a_weight": rng.integers(-8, 8, (4, 4)).astype(np.float32),
             "b_weight": rng.integers(-60, 60, (3, 5)).astype(np.float32),
             "c_bias": rng.integers(-4, 4, 6).astype(np.float32),
             "s_scale": np.linspace(0.05, 0.95, 4).astype(np.float32)}
    export_state_dict(state, out, formats=("dec", "hex", "bin", "qint"),
                      bits_map={"a_weight": 5})
    return out


@pytest.fixture(scope="session")
def compiled_plan():
    """One verified vgg8 plan for the whole suite; injectors work on
    deep copies, so tests must never mutate it directly."""
    from repro.core import DeploySpec, deploy
    from repro.core.qconfig import QConfig
    from repro.core.qmodels import quantize_model
    from repro.core.t2c import calibrate_model
    from repro.models import build_model

    rng = np.random.default_rng(20240508)
    qm = quantize_model(build_model("vgg8", num_classes=10, width_mult=0.5),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32))
                         .astype(np.float32) for _ in range(2)])
    d = deploy(qm, DeploySpec(runtime="auto"))
    assert d.plan is not None and d.plan_verification.ok
    return d.plan


@pytest.fixture(scope="session")
def vit_deployed():
    """One deployed vit-7 (calibrated, not trained): its plan has no
    conv->conv edge and pads no register.  Tests must never mutate it."""
    from repro.core import DeploySpec, deploy
    from repro.core.qconfig import QConfig
    from repro.core.qmodels import quantize_model
    from repro.core.t2c import calibrate_model
    from repro.models import build_model

    rng = np.random.default_rng(7)
    qm = quantize_model(build_model("vit-7", num_classes=10, embed_dim=64),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32))
                         .astype(np.float32)])
    return deploy(qm, DeploySpec())
