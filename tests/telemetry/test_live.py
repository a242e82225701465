"""Request-tracing primitives and operational observability units.

Covers the request-scoped tracing building blocks (TraceContext wire format,
flat span records, tree assembly, the bounded TraceStore, JSONL round-trip)
and the always-on obs primitives (RollingWindow + SLO arithmetic,
FlightRecorder ring/dump, ProfileAggregator attribution, the Prometheus
exposition round-trip).
"""
import json

import pytest

from repro.telemetry import obs, tracing
from repro.telemetry.metrics import MetricsRegistry

pytestmark = pytest.mark.obs


class TestTraceContext:
    def test_mint_and_child(self):
        ctx = tracing.TraceContext.mint(42, model="resnet20")
        assert ctx.trace_id == 42
        assert ctx.baggage == {"model": "resnet20"}
        child = ctx.child()
        assert child.trace_id == 42
        assert child.span_id != ctx.span_id

    def test_wire_round_trip(self):
        ctx = tracing.TraceContext.mint(7)
        back = tracing.TraceContext.from_wire(ctx.wire())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id

    def test_span_ids_unique_and_prefixed(self):
        ids = {tracing.new_span_id() for _ in range(100)}
        assert len(ids) == 100
        assert tracing.new_span_id("w123").startswith("w123-")


class TestBuildTree:
    def _rec(self, span_id, parent, t0=0.0, t1=1.0, trace_id=1):
        return tracing.span_record(trace_id, span_id, t0, t1,
                                   parent_id=parent, span_id=span_id)

    def test_connected_tree(self):
        records = [self._rec("root", None, 0, 10),
                   self._rec("a", "root", 1, 3),
                   self._rec("b", "root", 3, 9),
                   self._rec("b1", "b", 4, 8)]
        roots, orphans = tracing.build_tree(records)
        assert not orphans
        assert len(roots) == 1
        names = [c["span"]["name"] for c in roots[0]["children"]]
        assert names == ["a", "b"]
        assert roots[0]["children"][1]["children"][0]["span"]["name"] == "b1"

    def test_orphan_detected(self):
        records = [self._rec("root", None),
                   self._rec("lost", "no-such-parent")]
        roots, orphans = tracing.build_tree(records)
        assert len(roots) == 1
        assert [r["name"] for r in orphans] == ["lost"]

    def test_format_tree_and_chrome(self):
        records = [self._rec("root", None, 0, 10),
                   self._rec("a", "root", 1, 3)]
        roots, _ = tracing.build_tree(records)
        text = tracing.format_tree(roots)
        assert "root" in text and "  a" in text
        chrome = tracing.to_chrome_trace(records)
        assert len(chrome["traceEvents"]) == 2
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])


class TestTraceStore:
    def test_eviction_oldest_trace_first(self):
        store = tracing.TraceStore(capacity=2)
        for tid in (1, 2, 3):
            store.add(tracing.span_record(tid, "request", 0.0, 1.0))
        assert store.evicted == 1
        assert store.trace_ids() == [2, 3]
        assert store.get(1) == []

    def test_jsonl_round_trip(self, tmp_path):
        store = tracing.TraceStore()
        root = tracing.span_record(5, "request", 0.0, 2.0)
        store.add(root)
        store.add(tracing.span_record(5, "batch", 0.5, 1.5,
                                      parent_id=root["span_id"]))
        path = str(tmp_path / "traces.jsonl")
        assert store.dump_jsonl(path) == 2
        back = tracing.load_jsonl(path, trace_id=5)
        roots, orphans = tracing.build_tree(back)
        assert len(roots) == 1 and not orphans
        assert tracing.load_jsonl(path, trace_id=999) == []


class TestRollingWindow:
    def test_counts_and_slo(self):
        t = [100.0]
        w = obs.RollingWindow(window_s=10.0, bucket_s=1.0, clock=lambda: t[0])
        for _ in range(90):
            w.observe_ok(0.010, queue_wait_s=0.002)
        for _ in range(5):
            w.observe_shed()
        for _ in range(5):
            w.observe_ok(0.300, deadline_miss=True)
        s = w.summary(slo_target=0.99)
        assert s["requests"] == 100
        assert s["ok"] == 95 and s["shed"] == 5 and s["deadline_miss"] == 5
        # 10 bad / 100 requests = 10% bad over a 1% budget -> burn 10x
        assert s["slo"]["error_budget_burn"] == pytest.approx(10.0)
        assert s["latency_ms"]["p50"] == pytest.approx(10.0, rel=0.1)

    def test_window_slides(self):
        t = [0.0]
        w = obs.RollingWindow(window_s=5.0, bucket_s=1.0, clock=lambda: t[0])
        w.observe_ok(0.01)
        assert w.summary()["requests"] == 1
        t[0] = 100.0   # lap every bucket
        assert w.summary()["requests"] == 0


class TestFlightRecorder:
    def test_ring_bounds_and_drop_count(self):
        fr = obs.FlightRecorder(capacity=4)
        for i in range(10):
            fr.record("tick", i=i)
        assert len(fr) == 4
        assert fr.dropped_events == 6
        assert [e["i"] for e in fr.snapshot()] == [6, 7, 8, 9]
        assert [e["seq"] for e in fr.snapshot()] == [7, 8, 9, 10]

    def test_dump_writes_json(self, tmp_path):
        fr = obs.FlightRecorder(capacity=8)
        fr.record("deadline_miss", bid=3)
        path = str(tmp_path / "dump.json")
        dump = fr.dump("deadline_miss", path=path, model="m")
        assert dump["reason"] == "deadline_miss"
        assert dump["model"] == "m"
        with open(path) as f:
            on_disk = json.load(f)
        assert on_disk["events"][0]["kind"] == "deadline_miss"
        assert fr.last_dump["num_events"] == 1
        assert fr.last_dump["path"] == path


class TestProfileAggregator:
    def test_attribution(self):
        agg = obs.ProfileAggregator()
        agg.add([("conv_mq", "conv1", 0.008), ("linear_mq", "fc", 0.002)],
                wall_s=0.0105)
        agg.add([("conv_mq", "conv1", 0.009)], wall_s=0.0095)
        rep = agg.report()
        assert rep["sampled_batches"] == 2
        assert rep["attributed_fraction"] == pytest.approx(0.95, abs=0.01)
        assert rep["per_op"][0]["name"] == "conv1"
        assert rep["per_kind"][0]["kind"] == "conv_mq"
        assert rep["per_op"][0]["calls"] == 2

    def test_empty(self):
        rep = obs.ProfileAggregator().report()
        assert rep["sampled_batches"] == 0
        assert rep["attributed_fraction"] == 0.0


class TestExposition:
    def test_round_trip(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("requests_total", labels=("model",)).labels(
            model="resnet20").inc(7)
        reg.gauge("queue_depth").set(3)
        reg.histogram("latency_seconds",
                      buckets=(0.01, 0.1)).observe(0.05)
        text = obs.exposition(reg)
        assert "# TYPE requests_total counter" in text
        parsed = obs.parse_prometheus(text)
        assert parsed["requests_total"] == [({"model": "resnet20"}, 7.0)]
        assert parsed["queue_depth"] == [({}, 3.0)]
        # per-bin storage must come out cumulative with a +Inf bucket
        buckets = {lab["le"]: v for lab, v in parsed["latency_seconds_bucket"]}
        assert buckets == {"0.01": 0.0, "0.1": 1.0, "+Inf": 1.0}
        assert parsed["latency_seconds_count"] == [({}, 1.0)]

    def test_extra_samples_survive_disabled_registry(self):
        reg = MetricsRegistry(enabled=False)
        text = obs.exposition(reg, extra_samples=[
            {"name": "server_window_throughput_hz", "kind": "gauge",
             "labels": {"model": "m"}, "value": 12.5}])
        parsed = obs.parse_prometheus(text)
        assert parsed["server_window_throughput_hz"] == [({"model": "m"}, 12.5)]
