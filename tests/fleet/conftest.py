"""Shared fixtures for the replicated-fleet suite.

Everything here serves stub runners — the fleet's routing, health, rollout
and autoscaling logic is independent of model build cost; a real deployed
model runs behind a fleet (bitwise golden-vector probes per replica) in
``tests/chaos/test_sdc.py`` and ``repro.cli chaos --server/--sdc``.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import Fleet, FleetConfig
from repro.server import ServerConfig


def pytest_collection_modifyitems(items):
    """Everything under tests/fleet carries the `fleet` marker so the suite
    can be selected (`-m fleet`) or skipped in isolation."""
    for item in items:
        item.add_marker(pytest.mark.fleet)


def gain_runner(gain: float):
    """A deterministic stub model: ``logits = flat[:, :4] * gain``."""
    g = np.float32(gain)

    def run(batch):
        flat = np.asarray(batch, dtype=np.float32).reshape(len(batch), -1)
        return flat[:, :4] * g

    return run


def failing_runner(batch):
    raise RuntimeError("canary regression: refusing every batch")


def sample(value: float = 1.0) -> np.ndarray:
    return np.full((2, 4), value, dtype=np.float32)


def make_fleet(replicas: int = 3, *, runner=None, version: str = "1",
               model: str = "m", start: bool = False,
               **cfg_overrides) -> Fleet:
    """A fleet of stub replicas, one registered model, not yet started
    (tests drive ``health_tick`` by hand unless ``start=True``)."""
    defaults = dict(replicas=replicas, health_interval_s=0.05,
                    server=ServerConfig(max_batch=4, default_deadline_s=5.0))
    defaults.update(cfg_overrides)
    fleet = Fleet(FleetConfig(**defaults))
    fleet.add_model(model)
    fleet.register_version(model, version,
                           runner=runner if runner is not None
                           else gain_runner(2.0))
    if start:
        fleet.start()
    return fleet
