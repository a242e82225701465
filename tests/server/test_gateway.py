"""Gateway scheduling semantics: batching, deadlines, admission, typing.

These run on stub runners so they test the *scheduler*, not model math —
bit-exactness against real plans lives in ``test_bitexact.py``.
"""
from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.server import (
    Failed,
    ModelRegistry,
    Ok,
    Overloaded,
    Server,
    ServerConfig,
)
from tests.server.conftest import StubPlan, stub_sample


def _stub_server(delay_s: float = 0.0, **overrides):
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan(delay_s=delay_s))
    defaults = dict(max_batch=4, default_deadline_s=2.0)
    defaults.update(overrides)
    return reg, Server(reg, **defaults)


def _wait_busy(srv, name, timeout=10.0):
    """Block until one of ``name``'s executors is running a batch."""
    deadline = time.monotonic() + timeout
    while not srv._lanes[name].busy:
        assert time.monotonic() < deadline, f"lane {name} never got busy"
        time.sleep(0.001)


def test_requests_are_packed_into_micro_batches():
    """The idle lane dispatches the first request alone; the twelve that
    arrive while it executes ride the next three batches, each full."""
    _, srv = _stub_server(max_batch=4, delay_s=0.05)
    with srv:
        pendings = [srv.submit("stub", stub_sample(0))]
        _wait_busy(srv, "stub")
        pendings += [srv.submit("stub", stub_sample(i)) for i in range(1, 13)]
        responses = [p.result(timeout=5) for p in pendings]
    assert all(isinstance(r, Ok) for r in responses)
    for i, r in enumerate(responses):
        assert np.array_equal(r.logits, np.full(4, 2.0 * i, dtype=np.float32))
        assert r.queue_wait_s <= r.latency_s
    assert [r.batch_size for r in responses] == [1] + [4] * 12
    stats = srv.stats()["stub"]
    assert stats["ok"] == 13 and stats["batches"] == 4
    assert stats["mean_batch_size"] == pytest.approx(13 / 4)


def test_idle_lane_dispatches_at_once():
    """Work-conserving: a lone request on an idle lane is not held back
    for company — it is dispatched as soon as the lane thread wakes."""
    _, srv = _stub_server()
    with srv:
        waits = []
        for i in range(20):
            r = srv.submit("stub", stub_sample(i)).result(timeout=5)
            assert r.ok and r.batch_size == 1, r
            waits.append(r.queue_wait_s)
    median = float(np.median(waits))
    assert median < 0.002, f"idle lane held lone requests {median * 1e3:.2f} ms"


def test_busy_lane_forms_full_batches():
    """Saturation: a closed loop of 16 outstanding requests keeps the lane
    busy, so every batch after the idle lane's first one leaves full."""
    n_total, outstanding = 49, 16           # 1 + 12 full batches of 4
    _, srv = _stub_server(max_batch=4, delay_s=0.05, default_deadline_s=30.0)
    lock = threading.Lock()
    submitted = [1]
    responses = []

    def client(pending):
        while True:
            if pending is not None:
                r = pending.result(timeout=30)
                with lock:
                    responses.append(r)
            with lock:
                if submitted[0] == n_total:
                    return
                submitted[0] += 1
            pending = srv.submit("stub", stub_sample(1.0))

    with srv:
        first = srv.submit("stub", stub_sample(1.0))
        _wait_busy(srv, "stub")
        threads = [threading.Thread(target=client,
                                    args=(first if c == 0 else None,))
                   for c in range(outstanding)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert len(responses) == n_total and all(r.ok for r in responses)
    sizes = {r.batch_id: r.batch_size for r in responses}
    ordered = [sizes[b] for b in sorted(sizes)]
    assert ordered == [1] + [4] * 12, ordered


def test_two_executors_run_two_batches_at_once():
    """A lane with ``workers=2`` runs two batches at the same time: with
    one slow batch executing, the next request goes to the idle executor
    at once instead of waiting for the running batch to complete."""
    reg = ModelRegistry()
    stub = StubPlan(delay_s=0.3)
    reg.register("stub", "1", runner=stub)
    waits = []
    with Server(reg, max_batch=4, workers=2, default_deadline_s=30.0) as srv:
        for i in range(3):
            running = srv.submit("stub", stub_sample(2.0 * i))
            _wait_busy(srv, "stub")
            r = srv.submit("stub", stub_sample(2.0 * i + 1)).result(timeout=30)
            assert r.ok and r.batch_size == 1, r
            waits.append(r.queue_wait_s)
            assert running.result(timeout=30).ok
        assert srv.status()["models"]["stub"]["executors"] == 2
    assert stub.max_in_flight == 2, "the two batches never overlapped"
    assert max(waits) < 0.01, f"queue waits {waits} behind a busy executor"


def test_overloaded_when_projected_wait_exceeds_deadline():
    reg = ModelRegistry()
    reg.register("slow", "1", runner=StubPlan(delay_s=0.2))
    with Server(reg, max_batch=1, default_deadline_s=2.0,
                exec_time_init_s=0.2) as srv:
        pendings = [srv.submit("slow", stub_sample(i), deadline_s=0.45)
                    for i in range(8)]
        responses = [p.result(timeout=10) for p in pendings]
    shed = [r for r in responses if isinstance(r, Overloaded)]
    served = [r for r in responses if r.ok]
    assert shed, "projected-wait admission never shed under 8x overload"
    assert served, "admission shed everything including feasible work"
    for r in shed:
        assert r.retryable and r.reason in ("deadline", "queue_full")
        assert r.projected_wait_s > 0
    stats = srv.stats()["slow"]
    assert stats["shed"] == len(shed) and stats["ok"] == len(served)


def test_overloaded_when_queue_full():
    reg = ModelRegistry()
    reg.register("slow", "1", runner=StubPlan(delay_s=0.3))
    with Server(reg, max_batch=1, max_queue=2,
                default_deadline_s=60.0) as srv:
        pendings = [srv.submit("slow", stub_sample(i)) for i in range(12)]
        responses = [p.result(timeout=30) for p in pendings]
    full = [r for r in responses if isinstance(r, Overloaded)
            and r.reason == "queue_full"]
    assert full, "bounded queue never rejected despite max_queue=2"
    assert all(r.ok or isinstance(r, Overloaded) for r in responses)


def test_runner_exception_becomes_typed_failed():
    class Exploding:
        def __call__(self, x):
            raise ValueError("boom")

    reg = ModelRegistry()
    reg.register("bad", "1", runner=Exploding())
    with Server(reg, max_batch=2) as srv:
        r = srv.submit("bad", stub_sample(1.0)).result(timeout=5)
    assert isinstance(r, Failed)
    assert "boom" in r.error and not r.retryable, (
        "a deterministic plan error must not be marked retryable")


def test_unknown_model_and_closed_server():
    reg, srv = _stub_server()
    with pytest.raises(KeyError):
        srv.submit("ghost", stub_sample(0.0))
    srv.close()
    with pytest.raises(RuntimeError):
        srv.submit("stub", stub_sample(0.0))


def test_server_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(ServerConfig)] == [
        "max_batch", "max_queue", "default_deadline_s", "workers",
        "exec_time_init_s", "tracing", "profile_every", "slo_target",
        "dump_dir", "max_dumps", "abft_every", "scrub_interval_s"]
    for gone in ("shed_margin_s", "ewma_alpha", "dump_min_interval_s",
                 "obs_window_s", "flight_recorder_size", "trace_capacity",
                 "per_model", "max_linger_s", "max_inflight_batches"):
        with pytest.raises(TypeError):
            ServerConfig(**{gone: None})


@pytest.mark.parametrize("name,value", [
    ("max_batch", 0), ("max_batch", -1), ("max_queue", 0),
    ("default_deadline_s", 0.0),
    ("default_deadline_s", -1.0), ("exec_time_init_s", -1.0),
    ("workers", -1), ("slo_target", 0.0), ("slo_target", 1.0),
    ("profile_every", -1), ("max_dumps", -1), ("abft_every", -1),
    ("scrub_interval_s", -1.0)])
def test_server_config_refuses_out_of_range_values(name, value):
    with pytest.raises(ValueError, match=name):
        ServerConfig(**{name: value})
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan())
    with pytest.raises(ValueError, match=name):
        Server(reg, **{name: value})


def test_stats_report_latency_percentiles():
    _, srv = _stub_server()
    with srv:
        for i in range(10):
            srv.submit("stub", stub_sample(i)).result(timeout=5)
    s = srv.stats()["stub"]
    for block in ("latency_ms", "queue_wait_ms"):
        assert set(s[block]) == {"p50", "p95", "p99"}
        assert s[block]["p50"] <= s[block]["p95"] <= s[block]["p99"]
    assert s["requests"] == 10 and s["ok"] == 10


def test_concurrent_submitters_all_answered():
    _, srv = _stub_server(max_batch=8)
    results = {}

    def client(cid):
        pendings = [(i, srv.submit("stub", stub_sample(cid * 100 + i)))
                    for i in range(20)]
        results[cid] = [(i, p.result(timeout=10)) for i, p in pendings]

    with srv:
        threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert set(results) == {0, 1, 2, 3}
    for cid, rs in results.items():
        for i, r in rs:
            assert r.ok, (cid, i, r)
            assert np.array_equal(
                r.logits, np.full(4, 2.0 * (cid * 100 + i), dtype=np.float32))


def test_shape_mismatch_rejected_without_poisoning_the_lane():
    """A sample whose shape disagrees with the lane's expected input shape
    resolves as a typed non-retryable Failed at submit time — and the lane
    keeps serving well-shaped requests (no scheduler crash, no hang)."""
    _, srv = _stub_server()
    with srv:
        good = srv.submit("stub", stub_sample(1.0))           # learns (2, 4)
        bad = srv.submit("stub", stub_sample(2.0, shape=(3, 5)))
        r_bad = bad.result(timeout=5)
        assert isinstance(r_bad, Failed) and not r_bad.retryable
        assert "shape" in r_bad.error
        assert good.result(timeout=5).ok
        after = srv.submit("stub", stub_sample(3.0)).result(timeout=5)
        assert after.ok, "lane stopped serving after a malformed request"
    stats = srv.stats()["stub"]
    assert stats["failed"] == 1 and stats["ok"] == 2


def test_declared_input_shape_rejects_even_the_first_request():
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan(), input_shape=(2, 4))
    with Server(reg, max_batch=4, default_deadline_s=2.0) as srv:
        bad = srv.submit("stub", stub_sample(1.0, shape=(8,))).result(timeout=5)
        assert isinstance(bad, Failed) and not bad.retryable
        assert srv.submit("stub", stub_sample(1.0)).result(timeout=5).ok


def test_late_admit_on_closed_lane_resolves_not_hangs():
    """A request that races past Server.submit's closing check must still
    resolve: a closed lane's admit answers with a retryable Failed instead
    of enqueueing onto a scheduler thread that has already exited."""
    from repro.server.types import PendingRequest

    _, srv = _stub_server()
    with srv:
        assert srv.submit("stub", stub_sample(1.0)).result(timeout=5).ok
        lane = srv._lanes["stub"]
    for thread in lane.threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    req = PendingRequest(999, "stub", stub_sample(2.0), time.perf_counter(), 1.0)
    rejection = lane.admit(req)
    assert isinstance(rejection, Failed) and rejection.retryable


def test_swap_on_closed_server_fails_fast():
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan())
    reg.register("stub", "2", runner=StubPlan(gain=3.0))
    srv = Server(reg)
    assert srv.submit("stub", stub_sample(1.0)).result(timeout=5).ok
    srv.close()
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError):
        srv.swap("stub", "2", timeout=30)
    assert time.perf_counter() - t0 < 5.0, (
        "swap on a closed server burned the drain timeout instead of "
        "failing fast")


def test_lane_crash_resolves_everything_and_marks_lane_dead(monkeypatch):
    """If the scheduler loop itself dies, every queued request resolves as
    retryable Failed (no result() hang) and later submits are rejected with
    a typed result instead of being enqueued onto the dead lane."""
    from repro.server.server import _Lane

    def explode(self):
        raise RuntimeError("synthetic scheduler crash")

    monkeypatch.setattr(_Lane, "_form_batch_locked", explode)
    _, srv = _stub_server()
    pendings = [srv.submit("stub", stub_sample(i)) for i in range(5)]
    responses = [p.result(timeout=10) for p in pendings]
    assert all(isinstance(r, Failed) and r.retryable for r in responses)
    assert srv._lanes["stub"].dead
    late = srv.submit("stub", stub_sample(9.0)).result(timeout=5)
    assert isinstance(late, Failed) and late.retryable
    srv.close(timeout=5)


def test_telemetry_metrics_and_linked_spans():
    """Queue-wait/batch/latency metrics fill and, with telemetry on, every
    request's span tree links it to the batch that carried it."""
    prev = telemetry.set_enabled(True)
    try:
        _, srv = _stub_server()
        with srv:
            responses = [srv.submit("stub", stub_sample(i)).result(timeout=5)
                         for i in range(5)]
        assert all(r.ok for r in responses)
        reg = telemetry.get_registry()
        req_samples = reg.get("server_requests_total").samples()
        ok_row = [s for s in req_samples
                  if s["labels"] == {"model": "stub", "status": "ok"}]
        assert ok_row and ok_row[0]["value"] >= 5
        assert reg.get("server_request_latency_seconds") is not None
        for r in responses:
            roots, orphans = srv.trace_tree(r.request_id)
            assert len(roots) == 1 and orphans == []
            root = roots[0]["span"]
            assert root["name"] == "request"
            assert root["attrs"]["request_id"] == r.request_id
            batch = [c["span"] for c in roots[0]["children"]
                     if c["span"]["name"] == "batch"]
            assert len(batch) == 1, "request span not linked to a batch span"
            assert batch[0]["attrs"]["bid"] == r.batch_id
            assert batch[0]["attrs"]["size"] == r.batch_size
    finally:
        telemetry.set_enabled(prev)


class _GatedPlan:
    """Stub runner that parks every batch until ``release`` is set."""

    out_features = 4

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, x):
        self.started.set()
        assert self.release.wait(30), "gate never released"
        return np.asarray(x, dtype=np.float32).reshape(len(x), -1)[:, :4]


def test_killed_queued_requests_keep_a_trace():
    """Server.kill() fails every queued request; each still leaves exactly
    one connected span tree whose root records the failure."""
    gate = _GatedPlan()
    reg = ModelRegistry()
    reg.register("gated", "1", runner=gate)
    srv = Server(reg, max_batch=1, default_deadline_s=30.0, tracing=True)
    try:
        running = srv.submit("gated", stub_sample(0.0))
        assert gate.started.wait(10)
        queued = [srv.submit("gated", stub_sample(float(i)))
                  for i in range(1, 5)]
        srv.kill()
        for p in queued:
            r = p.result(timeout=5)
            assert isinstance(r, Failed) and r.retryable
    finally:
        gate.release.set()
    assert running.result(timeout=10).ok
    for p in [running] + queued:
        roots, orphans = srv.trace_tree(p.request_id)
        assert len(roots) == 1 and orphans == [], (p.request_id, roots)
    for p in queued:
        root = srv.trace_tree(p.request_id)[0][0]["span"]
        assert root["name"] == "request"
        assert root["attrs"]["status"] == "failed"
        assert root["attrs"]["error"] == "replica killed"
    lane = srv._lanes["gated"]
    for thread in lane.threads:
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_swap_refused_at_cutover_keeps_old_version_serving(tmp_path):
    """Artifacts that rot while the lane drains are refused by the cutover
    gate: swap() raises the typed error, the old version stays active and
    the lane keeps serving instead of dying."""
    from repro.export.errors import ArtifactError
    from repro.export.writer import export_state_dict

    art = str(tmp_path / "v2")
    export_state_dict({"w": np.arange(-4, 4).astype(np.float32)}, art)
    gate = _GatedPlan()
    reg = ModelRegistry()
    reg.register("m", "1", runner=gate)
    reg.register("m", "2", runner=StubPlan(), artifacts=art)
    errors = []

    def swap():
        try:
            srv.swap("m", "2", timeout=20)
        except Exception as exc:
            errors.append(exc)

    with Server(reg, max_batch=1, default_deadline_s=30.0) as srv:
        busy = srv.submit("m", stub_sample(1.0))
        assert gate.started.wait(10)
        swapper = threading.Thread(target=swap)
        swapper.start()
        lane = srv._lanes["m"]
        deadline = time.monotonic() + 10
        while lane.swap_target is None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert lane.swap_target == "2"
        with open(f"{art}/tensors.dec", "ab") as f:
            f.write(b"bitrot")
        gate.release.set()
        swapper.join(timeout=20)
        assert not swapper.is_alive()
        assert busy.result(timeout=10).ok
        assert len(errors) == 1 and isinstance(errors[0], ArtifactError)
        assert reg.active_version("m") == "1" and not lane.dead
        assert isinstance(srv.submit("m", stub_sample(2.0)).result(timeout=10),
                          Ok)


def test_stats_follow_recent_traffic_past_the_sample_cap(monkeypatch):
    """Percentiles cover the newest _CAP requests and mean_batch_size every
    completed batch: neither freezes once the cap is reached."""
    from repro.server.server import _LaneStats

    monkeypatch.setattr(_LaneStats, "_CAP", 4)
    gate = _GatedPlan()
    gate.release.set()
    reg = ModelRegistry()
    reg.register("gated", "1", runner=gate)
    hold_s = 0.2
    with Server(reg, max_batch=4, default_deadline_s=30.0) as srv:
        fast = [srv.submit("gated", stub_sample(float(i))).result(timeout=5)
                for i in range(4)]
        gate.started.clear()
        gate.release.clear()
        first = srv.submit("gated", stub_sample(10.0))
        assert gate.started.wait(10)
        slow = [srv.submit("gated", stub_sample(11.0 + i)) for i in range(4)]
        time.sleep(hold_s)
        gate.release.set()
        responses = fast + [first.result(timeout=10)] + [
            p.result(timeout=10) for p in slow]
    assert all(r.ok for r in responses)
    s = srv.stats()["gated"]
    sizes = {r.batch_id: r.batch_size for r in responses}
    assert s["batches"] == len(sizes)
    assert s["mean_batch_size"] == pytest.approx(
        sum(sizes.values()) / len(sizes))
    assert max(sizes.values()) > 1, "the held requests were never batched"
    # the newest four latencies all sat behind the gate
    assert s["latency_ms"]["p50"] >= hold_s * 1e3 / 2
    assert s["queue_wait_ms"]["p50"] >= hold_s * 1e3 / 2
