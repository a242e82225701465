"""Shared fixtures for the online-gateway suite.

Deployed bundles are expensive (quantize + calibrate + fuse + re-pack +
plan-compile), so one per model is cached for the whole session.  The
single-sample references are computed on the *interpreted* module tree —
the gateway's bit-exactness contract is against single-sample execution,
whatever batch mix the scheduler forms.

Stub runners (fast, deterministic, fail-on-demand) keep the scheduler /
admission / executor tests independent of model build cost.
"""
from __future__ import annotations

import threading
import time
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor

#: CPU-sized builds, mirroring repro.cli.MODEL_KWARGS
MODEL_KWARGS = {
    "resnet20": dict(width=8), "resnet18": dict(width=8),
    "resnet50": dict(width=8), "mobilenet-v1": dict(width_mult=0.5),
    "vgg8": dict(width_mult=0.5), "vit-7": dict(embed_dim=64),
}

_CACHE: Dict[str, Tuple] = {}


def pytest_collection_modifyitems(items):
    """Everything under tests/server carries the `server` marker so the
    suite can be selected (`-m server`) or skipped in isolation."""
    for item in items:
        item.add_marker(pytest.mark.server)


def _build(model_name: str):
    import zlib

    seed = zlib.crc32(model_name.encode())
    rng = np.random.default_rng(seed)
    kwargs = MODEL_KWARGS.get(model_name, {})
    qm = quantize_model(build_model(model_name, num_classes=10, **kwargs),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                         for _ in range(2)])
    d = deploy(qm, DeploySpec(runtime="auto"))
    samples = [rng.standard_normal((3, 32, 32)).astype(np.float32)
               for _ in range(6)]
    with no_grad():
        refs = [d.qnn(Tensor(s[None])).data[0] for s in samples]
    return d, samples, refs


@pytest.fixture(scope="session")
def served_factory():
    """`get(model) -> (Deployed, samples, single_sample_tree_logits)`."""
    def get(model_name: str):
        if model_name not in _CACHE:
            _CACHE[model_name] = _build(model_name)
        return _CACHE[model_name]
    return get


class StubPlan:
    """A fast fake plan: ``logits[i] = x[i].flat[:out_features] * gain``.

    Carries ``out_features``/``model_name``/``plan`` like a compiled plan.
    When ``crash_value`` is set, any batch containing a sample whose first
    element equals it raises — a deterministic stand-in for a plan call
    that fails on one batch.  ``delay_s`` sleeps inside every call, and
    ``in_flight``/``max_in_flight`` count the calls running at once.
    """

    out_features = 4
    model_name = "stub"

    def __init__(self, gain: float = 2.0, crash_value: float = None,
                 delay_s: float = 0.0):
        self.gain = np.float32(gain)
        self.crash_value = crash_value
        self.delay_s = delay_s
        self.plan = self      # lets ModelEntry.plan resolve like a Plan
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float32)
        flat = x.reshape(x.shape[0], -1)
        if self.crash_value is not None and np.any(
                flat[:, 0] == np.float32(self.crash_value)):
            raise RuntimeError(f"stub plan refuses {self.crash_value}")
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            if self.delay_s:
                time.sleep(self.delay_s)
            return flat[:, :self.out_features] * self.gain
        finally:
            with self._lock:
                self.in_flight -= 1


@pytest.fixture()
def stub_plan():
    return StubPlan


def stub_sample(value: float, shape=(2, 4)) -> np.ndarray:
    return np.full(shape, value, dtype=np.float32)
