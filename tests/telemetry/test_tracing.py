"""Tracer: span records, nesting by parent id, renderers, disabled path."""
import json
import threading
import time

import pytest

from repro import telemetry
from repro.telemetry.tracing import (
    NULL_SPAN,
    Tracer,
    build_tree,
    format_tree,
    to_chrome_trace,
)


def _by_name(tr):
    return {r["name"]: r for r in tr.records}


class TestSpans:
    def test_nesting(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner-1"):
                pass
            with tr.span("inner-2"):
                pass
        spans = _by_name(tr)
        outer = spans["outer"]
        assert outer["parent_id"] is None
        for name in ("inner-1", "inner-2"):
            assert spans[name]["parent_id"] == outer["span_id"]
            assert spans[name]["trace_id"] == outer["trace_id"]
        roots, orphans = build_tree(tr.records)
        assert len(roots) == 1 and not orphans
        assert [c["span"]["name"] for c in roots[0]["children"]] == [
            "inner-1", "inner-2"]

    def test_durations_ordered(self):
        tr = Tracer(enabled=True)
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        spans = _by_name(tr)
        outer, inner = spans["outer"], spans["inner"]
        assert outer["t0"] <= inner["t0"] <= inner["t1"] <= outer["t1"]
        assert (outer["t1"] - outer["t0"]) >= (inner["t1"] - inner["t0"])

    def test_annotate_and_attrs(self):
        tr = Tracer(enabled=True)
        with tr.span("s", model="resnet20") as span:
            span.annotate(batches=4)
        assert tr.records[0]["attrs"] == {"model": "resnet20", "batches": 4}

    def test_exception_recorded_and_tree_intact(self):
        tr = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert tr.records[0]["attrs"]["error"] == "RuntimeError"
        assert tr._stack() == []
        with tr.span("after"):
            pass
        assert tr.records[-1]["parent_id"] is None

    def test_sequential_roots(self):
        tr = Tracer(enabled=True)
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        roots, _ = build_tree(tr.records)
        assert [r["span"]["name"] for r in roots] == ["a", "b"]
        assert roots[0]["span"]["trace_id"] != roots[1]["span"]["trace_id"]


class TestExports:
    def _traced(self):
        tr = Tracer(enabled=True)
        with tr.span("fit", epochs=2):
            with tr.span("epoch", index=0):
                pass
        return tr

    def test_chrome_trace_shape(self):
        doc = to_chrome_trace(self._traced().records)
        events = doc["traceEvents"]
        assert len(events) == 2
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["dur"] >= 0 and ev["ts"] >= 0
            assert {"trace_id", "span_id"} <= set(ev["args"])
        assert events[0]["name"] == "fit"          # start order
        assert events[0]["args"]["epochs"] == 2

    def test_chrome_trace_json_serializable(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(to_chrome_trace(self._traced().records)))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["name"] == "fit"

    def test_format_tree_alignment(self):
        roots, _ = build_tree(self._traced().records)
        lines = format_tree(roots).split("\n")
        assert lines[0].startswith("fit")
        assert lines[1].startswith("  epoch")
        assert all(line.rstrip().endswith("ms") for line in lines)
        assert len({line.rindex("ms") for line in lines}) == 1

    def test_empty_tree(self):
        roots, orphans = build_tree(Tracer(enabled=True).records)
        assert roots == [] and orphans == []
        assert "no spans" in format_tree(roots)


class TestDisabledPath:
    def test_disabled_span_is_shared_null(self):
        tr = Tracer(enabled=False)
        s = tr.span("x")
        assert s is NULL_SPAN
        with s as inner:
            inner.annotate(a=1)
        assert tr.records == []

    def test_global_trace_follows_switch(self):
        assert telemetry.trace("x") is NULL_SPAN
        telemetry.enable()
        span = telemetry.trace("x")
        assert span is not NULL_SPAN


def test_threads_get_independent_trees():
    """Each thread nests under its own innermost open span: concurrent
    outer/inner pairs on one tracer never adopt another thread's parent."""
    tr = Tracer(enabled=True)
    n = 200
    barrier = threading.Barrier(2)

    def work(tag):
        barrier.wait(timeout=10)
        for _ in range(n):
            with tr.span("outer", thread=tag):
                time.sleep(0)       # yield the GIL inside each open span
                with tr.span("inner", thread=tag):
                    time.sleep(0)

    threads = [threading.Thread(target=work, args=(t,)) for t in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    roots, orphans = build_tree(tr.records)
    assert len(roots) == 2 * n and not orphans
    by_id = {r["span_id"]: r for r in tr.records}
    inners = [r for r in tr.records if r["name"] == "inner"]
    assert len(inners) == 2 * n
    for inner in inners:
        parent = by_id[inner["parent_id"]]
        assert parent["name"] == "outer"
        assert parent["attrs"]["thread"] == inner["attrs"]["thread"]
        assert parent["trace_id"] == inner["trace_id"]
