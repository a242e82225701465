"""Wall-clock tracing: one flat span record for the pipeline and the gateway.

Every span — an epoch, a fusion pass, a served request's queue wait, an
executor's plan call — is the same flat, JSON-able **span record**
(``trace_id``/``span_id``/``parent_id``/``name``/``t0``/``t1``/``proc``/
``pid``/``attrs``), created *complete* (both timestamps known).  Two
producers write them:

* :class:`Tracer` — ``with tracer.span(name): ...`` for code that opens and
  closes a region in one place (the compress→fuse→export pipeline, the
  plan executor).  Each thread nests under its own innermost open span, a
  root mints a new trace id, and the exit appends one record to
  ``tracer.records``.
* :class:`TraceContext` + :func:`span_record` — for a gateway request,
  which crosses the submitter thread and one of the lane's executor
  threads.  The context minted at ``Server.submit`` carries the trace id
  (the request id) and the current parent span id; ``wire()`` flattens it
  to a picklable tuple for a consumer in another process.  The code that
  knows such a span ended is rarely the code that opened it, hence
  complete records.

All timestamps are ``time.perf_counter()`` — ``CLOCK_MONOTONIC`` on Linux,
so clocks of different threads and processes are directly comparable.
One set of renderers serves both producers: :func:`build_tree` (``(roots, orphans)``),
:func:`format_tree` (aligned text), :func:`to_chrome_trace` (Chrome
``trace_event`` JSON for ``chrome://tracing`` / Perfetto), plus the bounded
per-request :class:`TraceStore` and its JSONL dump / :func:`load_jsonl`.

Disabled tracers short-circuit: ``span()`` returns a shared no-op context
manager, so a traced hot path costs one attribute read + one call when
telemetry is off.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.telemetry import state

_SPAN_IDS = itertools.count(1)


def new_span_id(prefix: str = "g") -> str:
    """Process-unique span id (``g-7``; ``prefix`` names another producer)."""
    return f"{prefix}-{next(_SPAN_IDS)}"


def span_record(trace_id: int, name: str, t0: float, t1: float,
                parent_id: Optional[str] = None,
                span_id: Optional[str] = None, proc: str = "main",
                attrs: Optional[Dict] = None) -> Dict:
    """A completed span as a flat, JSON-able record."""
    return {
        "trace_id": int(trace_id),
        "span_id": span_id if span_id is not None else new_span_id(),
        "parent_id": parent_id,
        "name": name,
        "t0": float(t0),
        "t1": float(t1),
        "proc": proc,
        "pid": os.getpid(),
        "attrs": dict(attrs or {}),
    }


# ------------------------------------------------------------ offline spans
class _OpenSpan:
    """A region being timed by :meth:`Tracer.span`; exit appends its record."""

    __slots__ = ("_tracer", "name", "attrs", "trace_id", "span_id",
                 "parent_id", "t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def annotate(self, **attrs) -> "_OpenSpan":
        """Attach key/value metadata to the record this span will write."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_OpenSpan":
        stack = self._tracer._stack()
        if stack:
            parent = stack[-1]
            self.trace_id, self.parent_id = parent.trace_id, parent.span_id
        else:
            self.trace_id, self.parent_id = next(self._tracer._trace_ids), None
        self.span_id = new_span_id()
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack()
        if self in stack:   # tolerate out-of-order exits: drop what it opened
            del stack[stack.index(self):]
        self._tracer.records.append(span_record(
            self.trace_id, self.name, self.t0, t1, parent_id=self.parent_id,
            span_id=self.span_id, attrs=self.attrs))


class _NullSpan:
    """Shared no-op span for the disabled path."""

    __slots__ = ()

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory + record collector for enter/exit regions.

    ``enabled=None`` follows the global telemetry switch (the default for the
    process-global tracer); ``True``/``False`` pins it for standalone use.
    Finished spans land in ``records`` in exit order; render them with
    :func:`build_tree` / :func:`format_tree` / :func:`to_chrome_trace`.
    """

    def __init__(self, enabled: Optional[bool] = None):
        self._enabled = enabled
        self.records: List[Dict] = []
        self._trace_ids = itertools.count(1)
        self._local = threading.local()

    @property
    def enabled(self) -> bool:
        return state.enabled() if self._enabled is None else self._enabled

    def span(self, name: str, **attrs):
        """Open a (nested) span; no-op when the tracer is disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _OpenSpan(self, name, attrs)

    def _stack(self) -> List[_OpenSpan]:
        """The calling thread's open spans, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def reset(self) -> None:
        self.records = []
        self._local = threading.local()


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer all built-in spans report to."""
    return _TRACER


# ------------------------------------------------------------ request spans
@dataclass
class TraceContext:
    """Identity of one traced request, carried on the request/batch.

    ``span_id`` is the *current parent*: spans created under this context
    become its children.  ``child()`` derives a context one level deeper.
    """

    trace_id: int
    span_id: str
    baggage: Dict = field(default_factory=dict)

    @classmethod
    def mint(cls, trace_id: int, **baggage) -> "TraceContext":
        return cls(trace_id=int(trace_id), span_id=new_span_id(),
                   baggage=dict(baggage))

    def child(self, span_id: Optional[str] = None) -> "TraceContext":
        return TraceContext(self.trace_id,
                            span_id if span_id is not None else new_span_id(),
                            dict(self.baggage))

    def wire(self) -> Tuple[int, str]:
        """The minimal picklable form that crosses the process boundary."""
        return (self.trace_id, self.span_id)

    @classmethod
    def from_wire(cls, wire: Tuple[int, str]) -> "TraceContext":
        trace_id, span_id = wire
        return cls(int(trace_id), str(span_id))


class TraceStore:
    """Bounded, thread-safe collection of span records keyed by trace id.

    Eviction is by trace insertion order (oldest whole trace first), so a
    long-running server holds the most recent ``capacity`` request trees.
    """

    def __init__(self, capacity: int = 2048):
        self.capacity = int(capacity)
        self._traces: "OrderedDict[int, List[Dict]]" = OrderedDict()
        self._lock = threading.Lock()
        self.evicted = 0

    def add(self, record: Dict) -> None:
        tid = record["trace_id"]
        with self._lock:
            spans = self._traces.get(tid)
            if spans is None:
                while len(self._traces) >= self.capacity:
                    self._traces.popitem(last=False)
                    self.evicted += 1
                spans = self._traces[tid] = []
            spans.append(record)

    def add_many(self, records: Iterable[Dict]) -> None:
        for r in records:
            self.add(r)

    def get(self, trace_id: int) -> List[Dict]:
        with self._lock:
            return list(self._traces.get(int(trace_id), ()))

    def trace_ids(self) -> List[int]:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def tree(self, trace_id: int) -> Tuple[List[Dict], List[Dict]]:
        return build_tree(self.get(trace_id))

    def chrome(self, trace_id: int) -> Dict:
        return to_chrome_trace(self.get(trace_id))

    def dump_jsonl(self, path: str) -> int:
        """One span record per line; returns the number of spans written."""
        n = 0
        with self._lock:
            spans = [r for recs in self._traces.values() for r in recs]
        with open(path, "w") as f:
            for r in spans:
                f.write(json.dumps(r, default=str) + "\n")
                n += 1
        return n


def load_jsonl(path: str, trace_id: Optional[int] = None) -> List[Dict]:
    """Read span records back from a :meth:`TraceStore.dump_jsonl` file."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if trace_id is None or int(r["trace_id"]) == int(trace_id):
                out.append(r)
    return out


# ---------------------------------------------------------------- renderers
def build_tree(records: Iterable[Dict]) -> Tuple[List[Dict], List[Dict]]:
    """Assemble flat span records into ``(roots, orphans)``.

    Each node is ``{"span": record, "children": [...]}``; children are
    ordered by start time.  A record whose ``parent_id`` names no span in
    the input lands in ``orphans`` — an empty orphan list is the
    "single connected span tree" contract the serving tests assert.
    """
    records = sorted(records, key=lambda r: (r["t0"], r["span_id"]))
    nodes = {r["span_id"]: {"span": r, "children": []} for r in records}
    roots: List[Dict] = []
    orphans: List[Dict] = []
    for r in records:
        node = nodes[r["span_id"]]
        parent = r.get("parent_id")
        if parent is None:
            roots.append(node)
        elif parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            orphans.append(r)
    return roots, orphans


def format_tree(roots: List[Dict]) -> str:
    """Aligned text rendering of an assembled span tree."""
    rows = []

    def rec(node, depth):
        span = node["span"]
        attrs = " ".join(f"{k}={v}" for k, v in span["attrs"].items())
        label = ("  " * depth + span["name"]
                 + (f" [{attrs}]" if attrs else "")
                 + (f" <{span['proc']}:{span['pid']}>"
                    if span["proc"] != "main" else ""))
        rows.append((label, f"{(span['t1'] - span['t0']) * 1e3:10.3f} ms"))
        for child in node["children"]:
            rec(child, depth + 1)

    for root in roots:
        rec(root, 0)
    if not rows:
        return "(no spans)"
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label.ljust(width)}  {dur}" for label, dur in rows)


def to_chrome_trace(records: Iterable[Dict]) -> Dict:
    """Chrome ``trace_event`` JSON for a set of span records.

    Events come out in start order.  ``pid``/``tid`` come from the records,
    so spans of different producers land on separate tracks in Perfetto,
    aligned on the shared monotonic clock.
    """
    records = sorted(records, key=lambda r: r["t0"])
    t0 = records[0]["t0"] if records else 0.0
    events = []
    for r in records:
        events.append({
            "name": r["name"],
            "ph": "X",
            "ts": round((r["t0"] - t0) * 1e6, 3),
            "dur": round((r["t1"] - r["t0"]) * 1e6, 3),
            "pid": r.get("pid", 0),
            "tid": 0 if r.get("proc") == "main" else 1,
            "args": {"trace_id": r["trace_id"], "span_id": r["span_id"],
                     **r["attrs"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
