"""Concurrency regressions: metric mutation and EventLog emission.

The gateway mutates metrics from lane threads, the status exporter and the
submitting thread at once; unlocked ``self.sum += v`` read-modify-writes
lose updates under that interleaving.  These tests hammer the primitives
from many threads and assert *exact* totals — they fail reliably within a
few runs if the per-metric lock is removed.
"""
import sys
import threading

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.obs import RollingWindow
from repro.telemetry.report import EventLog

pytestmark = pytest.mark.obs

N_THREADS = 8
N_ITERS = 2_000


def _hammer(fn):
    barrier = threading.Barrier(N_THREADS)

    def run():
        barrier.wait()   # maximize overlap
        for _ in range(N_ITERS):
            fn()

    threads = [threading.Thread(target=run) for _ in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "hammer threads hung"


def test_histogram_exact_count_and_sum_under_contention():
    reg = MetricsRegistry(enabled=True)
    h = reg.histogram("lat", buckets=(0.5, 2.0))
    _hammer(lambda: h.observe(1.0))
    assert h.count == N_THREADS * N_ITERS
    assert h.sum == pytest.approx(N_THREADS * N_ITERS * 1.0)
    assert sum(h.bucket_counts) == N_THREADS * N_ITERS


def test_rolling_window_ledger_exact_under_contention():
    """Executors, submitters and fleet callbacks record into one window at
    once: every outcome lands exactly once in the totals, the histograms
    and the exposition rows (the fleet's lost count included)."""
    w = RollingWindow()
    calls = iter(range(N_THREADS * N_ITERS))

    def record():
        i = next(calls)
        if i % 3 == 0:
            w.observe_batch([0.002] * 4, [0.0005] * 4, deadline_misses=1)
        elif i % 3 == 1:
            w.observe_failed(lost=True)
        else:
            w.observe_shed()

    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _hammer(record)
    finally:
        sys.setswitchinterval(prev)
    thirds = N_THREADS * N_ITERS // 3
    batches = N_THREADS * N_ITERS - 2 * thirds
    t = w.totals()
    assert (t["ok"], t["failed"], t["shed"], t["lost"]) == (
        4 * batches, thirds, thirds, thirds)
    assert t["requests"] == t["ok"] + t["failed"] + t["shed"]
    assert (t["batches"], t["deadline_miss"]) == (batches, batches)
    rows = {(r["name"], r["labels"].get("status")): r
            for r in w.samples("server", {"model": "m"})}
    assert rows[("server_request_latency_seconds", None)]["count"] == t["ok"]
    assert rows[("server_batch_size", None)]["count"] == batches
    assert rows[("server_requests_total", "failed")]["value"] == thirds
    assert w.summary()["requests"] == t["requests"]


def test_counter_exact_under_contention():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("hits")
    _hammer(lambda: c.inc())
    assert c.value == N_THREADS * N_ITERS


def test_gauge_inc_exact_under_contention():
    reg = MetricsRegistry(enabled=True)
    g = reg.gauge("depth")
    _hammer(lambda: g.inc(1.0))
    assert g.value == N_THREADS * N_ITERS


def test_labels_child_creation_race_yields_one_child():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("per_model", labels=("model",))
    _hammer(lambda: c.labels(model="m").inc())
    assert len(c._children) == 1
    assert c.labels(model="m").value == N_THREADS * N_ITERS


def test_registry_get_or_create_race_yields_one_metric():
    reg = MetricsRegistry(enabled=True)
    _hammer(lambda: reg.counter("shared").inc())
    assert reg.counter("shared").value == N_THREADS * N_ITERS


class TestEventLogBounds:
    def test_ring_drops_oldest_and_counts(self):
        log = EventLog(max_events=5)
        for i in range(12):
            log.emit("tick", i=i)
        assert len(log) == 5
        assert log.dropped_events == 7
        assert [e["i"] for e in log.events] == [7, 8, 9, 10, 11]

    def test_unbounded_for_sessions(self):
        log = EventLog(max_events=None)
        for i in range(10):
            log.emit("tick", i=i)
        assert len(log) == 10
        assert log.dropped_events == 0

    def test_concurrent_emit_no_interleaved_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path=path, max_events=None)
        _hammer(lambda: log.emit("tick", payload="x" * 64))
        log.close()
        import json

        n = 0
        with open(path) as f:
            for line in f:
                json.loads(line)   # any torn write raises here
                n += 1
        assert n == N_THREADS * N_ITERS
        assert len(log) == N_THREADS * N_ITERS
