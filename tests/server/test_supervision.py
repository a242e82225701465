"""Degradation semantics: a failing batch among executors, hot swap under
load.

The gateway's promise is *no silent loss and no hang*: every accepted
request resolves as a correct answer or a typed, honest error, whatever a
plan call does underneath and however many executors share the plan.
"""
from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.server import Failed, ModelRegistry, Server
from tests.server.conftest import StubPlan, stub_sample


def test_failing_batch_under_load_spares_its_peers():
    """One batch whose plan call raises, among many on two executors: its
    request resolves as a non-retryable Failed, every other request is
    answered correctly, and both executors keep serving."""
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan(crash_value=666.0,
                                              delay_s=0.002))
    with Server(reg, max_batch=1, workers=2, default_deadline_s=60.0) as srv:
        pendings = [srv.submit("stub", stub_sample(
            666.0 if i == 20 else float(i))) for i in range(60)]
        for i, p in enumerate(pendings):
            r = p.result(timeout=60)
            if i == 20:
                assert isinstance(r, Failed) and not r.retryable, r
                assert "refuses" in r.error
            else:
                assert r.ok, (i, r)
                assert np.array_equal(
                    r.logits, np.full(4, 2.0 * i, dtype=np.float32))
        assert srv.status()["models"]["stub"]["executors"] == 2
    stats = srv.stats()["stub"]
    assert stats["failed"] == 1 and stats["ok"] == 59
    events = [e["kind"] for e in srv._lanes["stub"].flight.snapshot()]
    assert events.count("batch_failed") == 1


def test_hot_swap_under_load_loses_nothing():
    """Drain-and-cutover on two executors while a submitter is firing: zero
    requests lost, every answer consistent with the version that served it,
    and the flip is atomic (gain-2 answers before, gain-3 after, nothing
    else)."""
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan(gain=2.0))
    reg.register("stub", "2", runner=StubPlan(gain=3.0))
    results = []
    stop = threading.Event()

    def submitter(srv):
        i = 0
        while not stop.is_set():
            results.append((i, srv.submit("stub", stub_sample(i))))
            i += 1
            time.sleep(0.001)

    with Server(reg, max_batch=4, workers=2, default_deadline_s=30.0) as srv:
        t = threading.Thread(target=submitter, args=(srv,))
        t.start()
        time.sleep(0.05)
        srv.swap("stub", "2", timeout=30)
        time.sleep(0.05)
        stop.set()
        t.join()
        resolved = [(i, p.result(timeout=30)) for i, p in results]
    assert len(resolved) >= 20, "load thread barely ran"
    v1 = v2 = 0
    flipped = False
    for i, r in resolved:
        assert r.ok, (i, r)
        if r.model == "stub@1":
            assert not flipped, "gain-2 answer after the cutover"
            assert np.array_equal(r.logits, np.full(4, 2.0 * i, np.float32))
            v1 += 1
        else:
            assert r.model == "stub@2"
            flipped = True
            assert np.array_equal(r.logits, np.full(4, 3.0 * i, np.float32))
            v2 += 1
    assert v1 > 0 and v2 > 0, f"swap not exercised under load (v1={v1}, v2={v2})"
    stats = srv.stats()["stub"]
    assert stats["swaps"] == 1 and stats["failed"] == 0 and stats["shed"] == 0


def test_hot_swap_with_executors_serves_the_new_plan(served_factory):
    """A two-executor lane over a real plan: the swap waits until no
    executor is busy, then both executors serve the incoming version;
    in-flight work completes bit-exact on either side of the cutover."""
    d, samples, refs = served_factory("resnet20")
    reg = ModelRegistry()
    reg.register("resnet20", "1", d)
    reg.register("resnet20", "2", d)    # same bundle: exercises the drain
    with Server(reg, max_batch=4, workers=2, default_deadline_s=60.0) as srv:
        before = [srv.submit("resnet20", samples[i % len(samples)])
                  for i in range(12)]
        srv.swap("resnet20", "2", timeout=60)
        after = [srv.submit("resnet20", samples[i % len(samples)])
                 for i in range(12)]
        for i, p in enumerate(before + after):
            r = p.result(timeout=120)
            assert r.ok, (i, r)
            assert np.array_equal(r.logits, refs[i % len(refs)])
            if i >= len(before):
                assert r.model == "resnet20@2"
        assert srv.status()["models"]["resnet20"]["executors"] == 2
    assert srv.registry.active_version("resnet20") == "2"
    stats = srv.stats()["resnet20"]
    assert stats["ok"] == 24 and stats["failed"] == 0 and stats["swaps"] == 1


def test_swap_unknown_version_rejected_without_drain():
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan())
    with Server(reg) as srv:
        with pytest.raises(KeyError):
            srv.swap("stub", "9")
        assert srv.submit("stub", stub_sample(1.0)).result(timeout=10).ok
