"""EventLog, the global emit sink, and TelemetrySession snapshots."""
import json
import os

from repro import telemetry
from repro.telemetry.report import EventLog


class TestEventLog:
    def test_buffered_events(self):
        log = EventLog()
        log.emit("step", loss=1.5, step=3)
        assert len(log) == 1
        ev = log.events[0]
        assert ev["kind"] == "step" and ev["loss"] == 1.5 and "ts" in ev

    def test_streams_jsonl(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("a", x=1)
        log.emit("b", y="z")
        log.close()
        lines = [json.loads(line) for line in open(path)]
        assert [e["kind"] for e in lines] == ["a", "b"]

    def test_numpy_values_jsonable(self, tmp_path):
        import numpy as np
        log = EventLog()
        log.emit("e", scalar=np.float32(1.5), arr=np.arange(3))
        assert log.events[0]["scalar"] == 1.5
        assert log.events[0]["arr"] == [0, 1, 2]
        json.dumps(log.events[0])


class TestGlobalEmit:
    def test_emit_noop_without_sink_or_switch(self):
        telemetry.emit("x")  # no sink, disabled: must not raise

    def test_emit_requires_enabled(self):
        log = EventLog()
        telemetry.set_event_sink(log)
        telemetry.emit("x")
        assert len(log) == 0
        telemetry.enable()
        telemetry.emit("x")
        assert len(log) == 1


class TestTelemetrySession:
    def test_enables_and_restores_switch(self, tmp_path):
        assert not telemetry.enabled()
        with telemetry.TelemetrySession(out_dir=str(tmp_path / "t")):
            assert telemetry.enabled()
        assert not telemetry.enabled()

    def test_writes_all_outputs(self, tmp_path):
        out = str(tmp_path / "run")
        with telemetry.TelemetrySession(out_dir=out, label="unit"):
            with telemetry.trace("stage"):
                telemetry.emit("step", loss=0.1)
            telemetry.get_registry().counter("c").inc()
        for fname in ("manifest.json", "trace.json", "trace.txt",
                      "events.jsonl", "metrics.json", "saturation.json"):
            assert os.path.exists(os.path.join(out, fname)), fname
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["label"] == "unit"
        assert manifest["num_events"] == 1
        assert manifest["num_spans"] == 1
        trace = json.load(open(os.path.join(out, "trace.json")))
        assert trace["traceEvents"][0]["name"] == "stage"
        assert {"trace_id", "span_id"} <= set(trace["traceEvents"][0]["args"])
        with open(os.path.join(out, "trace.txt")) as f:
            assert f.read().startswith("stage")

    def test_fresh_session_clears_prior_state(self, tmp_path):
        telemetry.enable()
        telemetry.get_registry().counter("old").inc()
        with telemetry.trace("old-span"):
            pass
        telemetry.disable()
        with telemetry.TelemetrySession(out_dir=str(tmp_path / "t")):
            assert telemetry.get_registry().get("old") is None
            assert telemetry.get_tracer().records == []

    def test_no_out_dir_collects_in_memory(self):
        with telemetry.TelemetrySession() as session:
            telemetry.emit("e")
        assert len(session.events) == 1

    def test_session_survives_exception(self, tmp_path):
        out = str(tmp_path / "err")
        try:
            with telemetry.TelemetrySession(out_dir=out):
                raise ValueError("boom")
        except ValueError:
            pass
        assert not telemetry.enabled()
        assert os.path.exists(os.path.join(out, "manifest.json"))
