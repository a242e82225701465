"""Live observability through a real gateway: trace propagation from the
submitter to the lane's executor threads, flight-recorder auto-dumps, SLO
windows, the status surface, per-op profiling attribution and the CLI
top/trace workflow.
"""
from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro import cli
from repro.server import ModelRegistry, Server
from tests.server.conftest import StubPlan, stub_sample

pytestmark = pytest.mark.obs


def _stub_server(**overrides) -> Server:
    reg = ModelRegistry()
    reg.register("stub", "1", runner=StubPlan())
    defaults = dict(max_batch=4, default_deadline_s=5.0, tracing=True)
    defaults.update(overrides)
    return Server(reg, **defaults)


def _span_names(roots):
    names = []

    def walk(node):
        names.append(node["span"]["name"])
        for c in node["children"]:
            walk(c)

    for r in roots:
        walk(r)
    return names


class TestTracePropagation:
    def test_pool_request_yields_one_connected_tree(self):
        """A traced request through a lane with a pool of two executor
        threads produces a single connected span tree — admit -> queue ->
        batch -> exec -> reply — with no orphans, and the exec span nests
        under the request's batch span."""
        with _stub_server(workers=2) as srv:
            pendings = [srv.submit("stub", stub_sample(float(i)))
                        for i in range(8)]
            for p in pendings:
                assert p.result(timeout=60).ok
            for p in pendings:
                roots, orphans = srv.trace_tree(p.request_id)
                assert orphans == [], f"request {p.request_id}: orphan spans"
                assert len(roots) == 1, f"request {p.request_id}: {roots}"
                root = roots[0]["span"]
                assert root["name"] == "request"
                assert root["attrs"]["status"] == "ok"
                names = _span_names(roots)
                assert {"queue.wait", "batch", "exec"} <= set(names)
                nodes = _flatten(roots)
                exec_ = [n for n in nodes if n["span"]["name"] == "exec"][0]
                batch = [n for n in nodes if n["span"]["name"] == "batch"][0]
                assert exec_["span"]["parent_id"] == batch["span"]["span_id"]

    def test_inline_request_tree_connected(self):
        with _stub_server(workers=0) as srv:
            p = srv.submit("stub", stub_sample(1.0))
            assert p.result(timeout=30).ok
            roots, orphans = srv.trace_tree(p.request_id)
        assert orphans == [] and len(roots) == 1
        names = _span_names(roots)
        assert names[0] == "request"
        assert "queue.wait" in names and "batch" in names and "exec" in names

    def test_tracing_off_stores_nothing(self):
        with _stub_server(workers=0, tracing=False) as srv:
            p = srv.submit("stub", stub_sample(1.0))
            assert p.result(timeout=30).ok
            assert len(srv.trace_store) == 0
            assert p.ctx is None

    def test_failed_batch_tree_records_the_failure(self):
        """A traced request whose batch's plan call raises leaves one
        connected tree whose root records the failure, and the lane's
        flight recorder holds the ``batch_failed`` event."""
        reg = ModelRegistry()
        reg.register("stub", "1", runner=StubPlan(crash_value=7.0))
        with Server(reg, max_batch=1, workers=2, tracing=True,
                    default_deadline_s=30.0) as srv:
            bad = srv.submit("stub", stub_sample(7.0))
            r = bad.result(timeout=30)
            assert not r.ok and not r.retryable
            assert srv.submit("stub", stub_sample(1.0)).result(30).ok
            roots, orphans = srv.trace_tree(bad.request_id)
            events = srv._lanes["stub"].flight.snapshot()
        assert orphans == [] and len(roots) == 1
        root = roots[0]["span"]
        assert root["attrs"]["status"] == "failed"
        assert "refuses" in root["attrs"]["error"]
        assert [e["kind"] for e in events].count("batch_failed") == 1


def _flatten(roots):
    out = []

    def walk(node):
        out.append(node)
        for c in node["children"]:
            walk(c)

    for r in roots:
        walk(r)
    return out


class TestFlightRecorder:
    def test_forced_deadline_miss_auto_dumps(self, tmp_path):
        """A request answered after its deadline must leave a post-mortem:
        the lane flight recorder auto-dumps with reason deadline_miss (and
        writes it to dump_dir)."""
        reg = ModelRegistry()
        reg.register("slow", "1", runner=StubPlan(delay_s=0.08))
        with Server(reg, max_batch=4, workers=0,
                    default_deadline_s=0.02, exec_time_init_s=0.0001,
                    dump_dir=str(tmp_path)) as srv:
            p = srv.submit("slow", stub_sample(1.0))
            r = p.result(timeout=30)
            assert r.ok and r.latency_s > 0.02
            lane = srv._lanes["slow"]
            assert lane.stats.deadline_miss >= 1
            assert lane.flight.last_dump is not None
            assert lane.flight.last_dump["reason"] == "deadline_miss"
            dumps = [f for f in os.listdir(tmp_path)
                     if f.startswith("flight_slow") and "deadline_miss" in f]
            assert dumps, os.listdir(tmp_path)
            with open(tmp_path / dumps[0]) as f:
                dump = json.load(f)
            assert dump["reason"] == "deadline_miss"
            kinds = [e["kind"] for e in dump["events"]]
            assert "batch_complete" in kinds

    def test_shed_recorded_and_window_counts(self):
        with _stub_server(workers=0, max_queue=1,
                          default_deadline_s=0.000001) as srv:
            # an impossible deadline: admission sheds immediately
            p = srv.submit("stub", stub_sample(1.0))
            r = p.result(timeout=5)
            assert not r.ok
            lane = srv._lanes["stub"]
            assert lane.window.summary()["shed"] >= 1
            assert lane.flight.last_dump["reason"] == "shed"
            # the shed request still left a (single-span) trace
            roots, orphans = srv.trace_tree(p.request_id)
            assert len(roots) == 1 and orphans == []
            assert roots[0]["span"]["attrs"]["status"] == "shed"

    def test_manual_dump_all_lanes(self, tmp_path):
        with _stub_server(workers=0) as srv:
            assert srv.submit("stub", stub_sample(1.0)).result(30).ok
            path = str(tmp_path / "fr.json")
            dumps = srv.dump_flight_recorder(path=path)
            assert "stub" in dumps
            assert any(e["kind"] == "batch_complete"
                       for e in dumps["stub"]["events"])
            with open(path) as f:
                assert "stub" in json.load(f)

    def test_dump_dir_rotates_to_max_dumps(self, tmp_path):
        """Auto-dumps must not grow without bound: with ``max_dumps=N``
        only the newest N on-disk dumps per lane survive each write."""
        with _stub_server(workers=0, dump_dir=str(tmp_path),
                          max_dumps=3) as srv:
            assert srv.submit("stub", stub_sample(1.0)).result(30).ok
            lane = srv._lanes["stub"]
            for i in range(8):
                assert lane.auto_dump(f"test{i}", force=True) is not None
            dumps = sorted(f for f in os.listdir(tmp_path)
                           if f.startswith("flight_stub_"))
            assert len(dumps) == 3, dumps
            # the survivors are the *newest* three (sequence-numbered names)
            assert [d.split("_")[2] for d in dumps] == ["006", "007", "008"]

    def test_dump_rotation_unlimited_when_zero(self, tmp_path):
        with _stub_server(workers=0, dump_dir=str(tmp_path),
                          max_dumps=0) as srv:
            assert srv.submit("stub", stub_sample(1.0)).result(30).ok
            lane = srv._lanes["stub"]
            for i in range(5):
                lane.auto_dump(f"test{i}", force=True)
            dumps = [f for f in os.listdir(tmp_path)
                     if f.startswith("flight_stub_")]
            assert len(dumps) == 5, dumps


class TestStatusSurface:
    def test_status_and_exposition_coherent(self):
        with _stub_server(workers=0, slo_target=0.95) as srv:
            for i in range(20):
                assert srv.submit("stub", stub_sample(float(i))).result(30).ok
            status = srv.status()
            m = status["models"]["stub"]
            assert m["window"]["ok"] == 20
            assert m["window"]["slo"]["target"] == 0.95
            assert m["window"]["slo"]["error_budget_burn"] == 0.0
            assert m["cumulative"]["ok"] == 20
            assert status["tracing"] is True
            assert status["traces_held"] == 20
            from repro.telemetry.obs import parse_prometheus

            parsed = parse_prometheus(srv.render_exposition())
            by_model = dict((lab["model"], v) for lab, v in
                            parsed["server_window_ok"])
            assert by_model["stub"] == 20.0
            assert "server_slo_error_budget_burn" in parsed

    def test_status_export_files_and_cli_top(self, tmp_path, capsys):
        out = str(tmp_path / "obs")
        with _stub_server(workers=0) as srv:
            srv.start_status_export(out, interval_s=0.05)
            for i in range(8):
                assert srv.submit("stub", stub_sample(float(i))).result(30).ok
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not os.path.exists(
                    os.path.join(out, "metrics.prom")):
                time.sleep(0.01)
        # close() stops the exporter after a final write
        with open(os.path.join(out, "status.json")) as f:
            status = json.load(f)
        assert status["models"]["stub"]["window"]["requests"] >= 8
        from repro.telemetry.obs import parse_prometheus

        with open(os.path.join(out, "metrics.prom")) as f:
            assert "server_window_ok" in parse_prometheus(f.read())
        assert cli.main(["top", out, "--once"]) == 0
        frame = capsys.readouterr().out
        assert "stub" in frame and "burn" in frame

    def test_cli_trace_round_trip(self, tmp_path, capsys):
        with _stub_server(workers=0) as srv:
            p = srv.submit("stub", stub_sample(1.0))
            assert p.result(30).ok
            traces = str(tmp_path / "traces.jsonl")
            assert srv.dump_traces(traces) >= 3
        chrome = str(tmp_path / "chrome.json")
        assert cli.main(["trace", str(p.request_id), "--traces", traces,
                         "--chrome", chrome]) == 0
        text = capsys.readouterr().out
        assert "request" in text and "0 orphan(s)" in text
        with open(chrome) as f:
            events = json.load(f)["traceEvents"]
        assert {e["args"]["trace_id"] for e in events} == {p.request_id}
        assert cli.main(["trace", "999999", "--traces", traces]) == 1


class TestProfiling:
    def test_inline_profiling_attributes_wall_time(self, served_factory):
        """>= 90% of sampled plan wall time must land on named ops."""
        d, samples, _refs = served_factory("resnet20")
        reg = ModelRegistry()
        reg.register("resnet20", "1", d)
        with Server(reg, max_batch=4, workers=0, default_deadline_s=30.0,
                    profile_every=1, tracing=False) as srv:
            for i in range(8):
                assert srv.submit(
                    "resnet20", samples[i % len(samples)]).result(60).ok
            rep = srv.profile_report("resnet20")
        assert rep["sampled_batches"] >= 1
        assert rep["attributed_fraction"] >= 0.90, rep
        assert rep["per_op"][0]["seconds"] > 0
        kinds = {r["kind"] for r in rep["per_kind"]}
        assert kinds, "no op kinds attributed"

    def test_pool_profiling_ships_rows_to_gateway(self, served_factory):
        """Two executors sample the shared plan; each folds its own
        batch's rows into the lane's profile."""
        d, samples, _refs = served_factory("resnet20")
        reg = ModelRegistry()
        reg.register("resnet20", "1", d)
        with Server(reg, max_batch=4, workers=2, default_deadline_s=60.0,
                    profile_every=1, tracing=True) as srv:
            pendings = [srv.submit("resnet20", samples[i % len(samples)])
                        for i in range(8)]
            for p in pendings:
                assert p.result(timeout=120).ok
            rep = srv.profile_report("resnet20")
            batches = srv.stats()["resnet20"]["batches"]
        assert rep["sampled_batches"] == batches, \
            "an executor's sampled rows never reached the lane profile"
        assert rep["attributed_fraction"] >= 0.90, rep

    def test_plan_profiler_unit(self, served_factory):
        d, samples, _refs = served_factory("resnet20")
        plan = d.plan
        plan.enable_profiling(sample_every=2)
        try:
            x = np.stack(samples[:2])
            for _ in range(4):
                plan(x)
            rep = plan.profile_report()
        finally:
            plan.disable_profiling()
        assert rep["sampled_batches"] == 2   # every 2nd of 4 batches
        assert rep["attributed_fraction"] >= 0.90
