"""Degradation semantics: worker death, double death, hot swap under load.

The gateway's promise is *no silent loss and no hang*: every accepted
request resolves as a correct answer or a typed, honest error, whatever the
worker pool does underneath.
"""
from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.server import Failed, ModelRegistry, Server
from tests.server.conftest import StubPlan, stub_sample

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pool supervision needs fork")


def _wait_for_pool(server, name, timeout=10.0):
    deadline = time.monotonic() + timeout
    lane = server._lanes.get(name)
    while time.monotonic() < deadline:
        lane = server._lanes.get(name)
        if lane is not None and lane.pool is not None:
            return lane
        time.sleep(0.005)
    raise AssertionError(f"lane {name} never built its pool")


def test_sigkill_under_load_every_request_answered(served_factory):
    """SIGKILL one pool worker mid-load: no hang, every accepted request is
    either answered bit-exactly or failed retryable; the pool respawns and
    keeps serving."""
    d, samples, refs = served_factory("resnet20")
    reg = ModelRegistry()
    reg.register("resnet20", "1", d)
    n = 60
    with Server(reg, max_batch=4, workers=2, default_deadline_s=60.0) as srv:
        pendings = []
        killed = False
        for i in range(n):
            pendings.append((i, srv.submit("resnet20", samples[i % len(samples)])))
            if not killed and i >= n // 3:
                lane = _wait_for_pool(srv, "resnet20")
                os.kill(lane.pool.procs[0].pid, signal.SIGKILL)
                killed = True
        assert killed
        answered = retryable = 0
        for i, p in pendings:
            r = p.result(timeout=120)
            if r.ok:
                answered += 1
                assert np.array_equal(r.logits, refs[i % len(refs)]), (
                    f"request {i} answered with wrong bits after death")
            else:
                assert isinstance(r, Failed) and r.retryable, (
                    f"request {i} resolved {r!r}: neither correct nor "
                    f"typed-retryable")
                retryable += 1
    stats = srv.stats()["resnet20"]
    assert answered + retryable == n, "silent loss"
    assert stats["worker_deaths"] >= 1
    assert answered >= n // 2, (
        "pool never recovered: almost everything failed")


def test_double_death_fails_retryable_not_hangs():
    """A batch that deterministically kills its worker (twice — once on the
    requeue too) must come back as retryable Failed; innocents sharing the
    pool are answered correctly.  ``max_inflight_batches=1`` makes the
    poison batch the only in-flight work at each death, so exactly it —
    and nothing else — exhausts the retry budget."""
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan(crash_value=666.0))
    with Server(reg, max_batch=1, workers=2, default_deadline_s=60.0,
                max_inflight_batches=1) as srv:
        poison = srv.submit("stub", stub_sample(666.0))
        innocents = [srv.submit("stub", stub_sample(i)) for i in range(4)]
        r = poison.result(timeout=120)
        assert isinstance(r, Failed) and r.retryable
        assert "twice" in r.error
        for i, p in enumerate(innocents):
            ri = p.result(timeout=120)
            assert ri.ok, (i, ri)
            assert np.array_equal(
                ri.logits, np.full(4, 2.0 * i, dtype=np.float32))
    stats = srv.stats()["stub"]
    assert stats["worker_deaths"] >= 2
    assert stats["failed"] == 1 and stats["ok"] == 4


def test_hot_swap_under_load_loses_nothing():
    """Drain-and-cutover while a submitter is firing: zero requests lost,
    every answer consistent with the version that served it, and the flip
    is atomic (gain-2 answers before, gain-3 after, nothing else)."""
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

    with Server(reg, max_batch=4, default_deadline_s=30.0) as srv:
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


def test_hot_swap_pooled_rebuilds_pool(served_factory):
    """Pooled lane swap: the old plan's pool is torn down after drain and a
    fresh pool serves the new version; in-flight work completes bit-exact."""
    d, samples, refs = served_factory("resnet20")
    reg = ModelRegistry()
    reg.register("resnet20", "1", d)
    reg.register("resnet20", "2", d)    # same bundle: exercises the rebuild
    with Server(reg, max_batch=4, workers=2, default_deadline_s=60.0) as srv:
        before = [srv.submit("resnet20", samples[i % len(samples)])
                  for i in range(12)]
        lane = _wait_for_pool(srv, "resnet20")
        old_procs = list(lane.pool.procs)
        assert lane.pooled and len(old_procs) == 2, (
            "pool not sized from the config's workers=2")
        srv.swap("resnet20", "2", timeout=60)
        after = [srv.submit("resnet20", samples[i % len(samples)])
                 for i in range(12)]
        for i, p in enumerate(before + after):
            r = p.result(timeout=120)
            assert r.ok, (i, r)
            assert np.array_equal(r.logits, refs[i % len(refs)])
    assert srv.registry.active_version("resnet20") == "2"
    assert all(not p.is_alive() for p in old_procs), (
        "old version's pool still running after cutover")
    stats = srv.stats()["resnet20"]
    assert stats["ok"] == 24 and stats["failed"] == 0 and stats["swaps"] == 1


def test_swap_unknown_version_rejected_without_drain():
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan())
    with Server(reg) as srv:
        with pytest.raises(KeyError):
            srv.swap("stub", "9")
        assert srv.submit("stub", stub_sample(1.0)).result(timeout=10).ok
