"""``python -m benchmarks.e2e --selftest``: the harness checks itself on
synthetic data — no model is built, nothing is timed.  (The repo's tier-1
tests live under ``tests/`` and do not import the benchmark.)
"""
from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

from benchmarks.e2e import estimators as est
from benchmarks.e2e import loadgen, report
from benchmarks.e2e.trace import Tracer, coverage, self_times

ROOT = Path(__file__).resolve().parents[2]


def check_segment_rates() -> None:
    done = np.arange(1, 8001) / 1000.0               # 1000 ops/s for 8 s
    rates = est.segment_rates(done, 0.0, 8.0)
    assert rates.size == est.segments(8.0) == 32
    assert np.allclose(rates, 1000.0), rates
    # whole batches of 64 landing every 30 ms: interpolation, not counting
    ends = np.arange(1, 200) * 0.03
    rates = est.segment_rates(ends, 0.0, 5.0, unit=64)
    assert np.allclose(rates, 64 / 0.03), rates
    # micro-batches: 16 stamps within 20 us every 10 ms are one burst each
    bursts = np.concatenate([b * 0.010 + np.arange(16) * 1e-6
                             for b in range(1, 301)])
    rates = est.segment_rates(bursts, 0.0, 2.9)
    assert np.allclose(rates, 1600.0, rtol=1e-3), rates
    lat = np.r_[np.full(50, 5.0), np.full(50, 9.0)]
    meds = est.segment_medians(lat, np.linspace(0, 0.499, 100), 0.0, 0.5)
    assert meds.tolist() == [5.0, 9.0]


def check_slow_stretch() -> None:
    """A window with a 30 % slow stretch leaves the best-slice rate within
    2 % (and even a window that is 70 % slow does)."""
    for slow_from, slow_to in ((0.35, 0.65), (0.0, 0.7)):
        t, now, done = 8.0, 0.0, []
        while now < t:
            slow = slow_from * t <= now < slow_to * t
            now += (1.0 / 400.0) if slow else (1.0 / 1000.0)   # 2.5x slower
            done.append(now)
        rates = est.segment_rates(done, 0.0, t)
        assert abs(rates.max() / 1000.0 - 1.0) < 0.02, rates
        assert len(done) / t < 0.85 * 1000.0             # ...the mean drifts


def check_latency() -> None:
    due = np.array([0.0, 1.0, 2.0, 3.0])
    done = np.array([0.1, 1.5, 2.1, 9.0])
    lat = est.due_latencies(due, done, [True, True, True, False])
    assert np.allclose(lat[:3], [0.1, 0.5, 0.1]) and np.isinf(lat[3])
    p50, n = est.percentile(lat, 50)
    assert n == 4 and np.isfinite(p50)
    assert est.supported_tail(50) == 50.0
    assert est.supported_tail(1000) == 99.0
    assert est.supported_tail(10000) == 99.9
    assert abs(est.spread([10, 10.1, 10.2, 10.3, 10.4]) - 0.03) < 0.01


def check_schedules() -> None:
    """Same seed -> identical due times, content ids, user ids; another seed
    -> different ones."""
    def draw(seed):
        due = loadgen.poisson_due(np.random.default_rng((seed, 0, 1)), 500.0, 4.0)
        pool = loadgen.ImagePool(np.zeros((8, 3, 4, 4), np.float32))
        z = loadgen.ZipfTraffic(pool, ("a", "b"), (0.7, 0.3), (seed, 0, 2),
                                catalogue=64)
        return (due,) + z.draw(0) + z.draw(1)

    a, b, c = draw(7), draw(7), draw(8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(x.shape == y.shape and np.array_equal(x, y)
                   for x, y in zip(a, c))
    due = a[0]
    assert abs(due.size / (500.0 * 4.0) - 1.0) < 0.1 and np.all(np.diff(due) > 0)


def check_zipf() -> None:
    p = loadgen.zipf_probs(4096, 1.1)
    assert abs(p[0] - 0.16) < 0.01, p[0]
    assert abs(p[:64].sum() - 0.64) < 0.02, p[:64].sum()
    rng = np.random.default_rng(0)
    draws = rng.choice(4096, size=12000, p=p)
    rep = est.repeat_fraction(draws.tolist())
    assert 0.75 < rep < 0.85, rep
    assert est.repeat_fraction(range(100)) == 0.0


def check_pool() -> None:
    rng = np.random.default_rng(0)
    pool = loadgen.ImagePool(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
    seen = {pool.sample(c).tobytes() for c in range(4 * 50)}
    assert len(seen) == 200                          # every content distinct
    x = pool.sample(5)
    assert x.shape == (3, 8, 8) and x.base is not None and x.flags.c_contiguous
    assert np.array_equal(x, pool.sample(5))
    traffic = loadgen.UniqueTraffic(pool, "m")
    assert traffic.request(9)[3] == 9


class _Handle:
    def __init__(self, resp):
        self._resp = resp

    def result(self, timeout=None):
        return self._resp


class _Resp:
    def __init__(self, ok, logits=None):
        self.ok, self.logits = ok, logits


def check_load_loops() -> None:
    pool = loadgen.ImagePool(np.ones((2, 1, 2, 2), np.float32))
    traffic = loadgen.ZipfTraffic(pool, ("a",), (1.0,), (0,), catalogue=4)
    calls = []
    lock = threading.Lock()

    def submit(model, x, deadline_s, route_key):
        with lock:
            calls.append(len(calls))
            k = len(calls)
        # request 5 answers differently from its content's first response
        return _Handle(_Resp(True, np.full(3, 9.0 if k == 5 else 1.0,
                                           np.float32)))

    seen = {}
    ph = loadgen.run_phase(submit, traffic, 0, seconds=1.0, deadline_s=1.0,
                           due=np.linspace(0, 0.05, 20), seen=seen,
                           sample_every=4)
    assert ph.counts() == {"sent": 20, "ok": 20, "shed": 0, "failed": 0,
                           "timeout": 0}
    assert [i for i, _ in ph.samples] == [0, 4, 8, 12, 16]
    assert ph.identity_mismatches >= 1
    assert np.all(np.diff(ph.done) >= 0) and len(ph.done) == 20
    ph = loadgen.run_phase(lambda *a: _Handle(_Resp(False)), traffic, 0,
                           seconds=0.1, deadline_s=1.0, outstanding=4)
    c = ph.counts()
    assert c["sent"] > 4 and c["failed"] == c["sent"], c


def check_tracer() -> None:
    spans = [
        {"id": 0, "name": "deploy", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "a", "start": 0.0, "end": 6.0, "parent": 0},
        {"id": 2, "name": "b", "start": 1.0, "end": 3.0, "parent": 1},
        {"id": 3, "name": "a", "start": 6.0, "end": 9.0, "parent": 0},
    ]
    assert self_times(spans, 0) == {"a": 7.0, "b": 2.0}
    assert abs(coverage(spans, 0) - 0.9) < 1e-12
    tr = Tracer()
    tr.wrap("os", "getcwd", "cwd")
    with tr.span("outer", op="x"):
        os.getcwd()
    tr.unwrap_all()
    os.getcwd()
    names = [(s["name"], s["parent"], s["op"]) for s in tr.spans]
    assert names == [("outer", None, "x"), ("cwd", 0, "x")], names


def check_benchmark_json() -> None:
    """``BENCHMARK.json`` declares exactly what the harness reports."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    assert set(report.SERVING) <= set(workloads)
    rnd = {"setup_s": 1.0, "good": 1, "attempted": 1, "peak_rss_mb": 1.0,
           "segment_rates": [1.0] * 8, "segment_p50_ms": [1.0] * 8}
    assert ([m["name"] for m in spec["end_to_end"]]
            == list(report.end_to_end("offline_cnn", [rnd])))
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]
                         if m["bound"] == max(x["bound"]
                                              for x in spec["end_to_end"])}


CHECKS = (check_segment_rates, check_slow_stretch, check_latency,
          check_schedules, check_zipf, check_pool, check_load_loops,
          check_tracer, check_benchmark_json)


def run() -> int:
    for check in CHECKS:
        check()
        print(f"ok  {check.__name__}")
    print(f"selftest: {len(CHECKS)} checks passed")
    return 0
