"""Shared fixtures: RNGs, tiny datasets, small pre-trained models.

The heavier fixtures are session-scoped so the training cost is paid once per
test run.
"""
from __future__ import annotations

import contextlib
import faulthandler

import numpy as np
import pytest

from repro.data import make_dataset
from repro.models import build_model
from repro.runtime import ckernel
from repro.tensor import Tensor
from repro.utils import seed_everything


@pytest.fixture
def rng():
    return np.random.default_rng(0)


#: per-test wall bound; pytest-timeout is not available in this environment
WATCHDOG_S = 120


@pytest.fixture(autouse=True)
def _seed():
    seed_everything(0)


@pytest.fixture(autouse=True)
def _watchdog():
    """A wedged test dumps every thread's stack and exits the run instead of
    hanging the verifier."""
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def no_ckernel(monkeypatch):
    """``with no_ckernel(): ...`` runs its body with the native kernel
    unloaded (``REPRO_NO_CKERNEL=1``): plans compiled inside have no
    native conv, and plans bound inside run every op on its numpy body —
    the path of hosts without a C compiler."""
    @contextlib.contextmanager
    def unloaded():
        try:
            with monkeypatch.context() as mp:
                mp.setenv("REPRO_NO_CKERNEL", "1")
                ckernel.reset_for_tests()
                yield
        finally:
            ckernel.reset_for_tests()
    return unloaded


@pytest.fixture(scope="session")
def tiny_data():
    """Small synthetic-cifar10 splits (train=640, test=200)."""
    ds = make_dataset("synthetic-cifar10", noise=0.35)
    return ds.splits(640, 200)


@pytest.fixture(scope="session")
def resnet20_with_stats(tiny_data):
    """An (untrained) resnet20 with populated BN running statistics."""
    seed_everything(1)
    train, _ = tiny_data
    model = build_model("resnet20", num_classes=10, width=8)
    model.train()
    for i in range(3):
        model(Tensor(train.images[i * 64:(i + 1) * 64]))
    model.eval()
    return model


@pytest.fixture(scope="session")
def mobilenet_with_stats(tiny_data):
    """A briefly-trained MobileNet: untrained depthwise nets have near-tied
    logits that amplify integer-path LSB noise into meaningless correlation
    numbers, so equivalence tests need a model with real decision margins."""
    seed_everything(2)
    train, _ = tiny_data
    model = build_model("mobilenet-v1", num_classes=10, width_mult=1.0)
    from repro.optim import SGD
    from repro.tensor import functional as F

    opt = SGD(model.parameters(), lr=0.2, momentum=0.9, weight_decay=5e-4)
    model.train()
    for epoch in range(8):
        for i in range(len(train.images) // 64):
            x, y = train.images[i * 64:(i + 1) * 64], train.labels[i * 64:(i + 1) * 64]
            opt.zero_grad()
            F.cross_entropy(model(Tensor(x)), y).backward()
            opt.step()
    model.eval()
    return model


def numgrad(f, x, eps=1e-3):
    """Central-difference numeric gradient of scalar-valued ``f`` wrt ``x``."""
    g = np.zeros_like(x.data)
    it = np.nditer(x.data, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x.data[i]
        x.data[i] = old + eps
        fp = f().item()
        x.data[i] = old - eps
        fm = f().item()
        x.data[i] = old
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


@pytest.fixture
def gradcheck():
    def check(f, tensors, atol=5e-2, rtol=5e-2):
        loss = f()
        for t in tensors:
            t.grad = None
        loss.backward()
        for t in tensors:
            ng = numgrad(f, t)
            assert t.grad is not None, "no gradient accumulated"
            np.testing.assert_allclose(t.grad, ng, atol=atol, rtol=rtol)
    return check
