"""Structured emission: JSONL event log and the run-level TelemetrySession.

Events are flat JSON objects (``{"ts": ..., "kind": ..., **fields}``) — one
per line when streamed to disk — covering things spans do not: training steps,
epoch summaries, export records.  :class:`TelemetrySession` bundles the whole
subsystem for one run: it flips the global switch on, captures a fresh
registry/tracer/event view, and snapshots everything to a machine-readable
manifest directory on exit::

    with TelemetrySession(out_dir="telemetry_out") as session:
        trainer.fit()
        ...
    # telemetry_out/{manifest.json, trace.json, trace.txt,
    #                events.jsonl, metrics.json, saturation.json}
"""
from __future__ import annotations

import collections
import json
import os
import threading
import time
from typing import Dict, List, Optional

from repro.telemetry import metrics, state, tracing
from repro.telemetry.saturation import saturation_report


def _jsonable(value):
    """Best-effort conversion of numpy scalars/arrays for json.dump."""
    if hasattr(value, "item") and getattr(value, "size", 1) == 1:
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return value


class EventLog:
    """Append-only structured event buffer, optionally streamed as JSONL.

    ``max_events`` bounds the in-memory buffer for long-running servers: a
    full ring drops the *oldest* event (counted in ``dropped_events``) so
    the log always holds the most recent history.  ``None`` keeps the
    buffer unbounded — the right choice for finite sessions whose events
    are snapshotted to disk.  ``emit`` is thread-safe: concurrent lane
    threads can never interleave partial JSONL lines in the stream.
    """

    #: generous default ring — hours of gateway events, bounded memory
    DEFAULT_MAX_EVENTS = 100_000

    def __init__(self, path: Optional[str] = None, append: bool = False,
                 max_events: Optional[int] = DEFAULT_MAX_EVENTS):
        self.max_events = max_events
        self.events: collections.deque = collections.deque(maxlen=max_events)
        self.dropped_events = 0
        self._lock = threading.Lock()
        self._path = path
        self._fh = open(path, "a" if append else "w") if path else None

    def emit(self, kind: str, **fields) -> Dict:
        event = {"ts": time.time(), "kind": kind}
        event.update({k: _jsonable(v) for k, v in fields.items()})
        line = json.dumps(event, default=str) + "\n"
        with self._lock:
            if (self.max_events is not None
                    and len(self.events) == self.max_events):
                self.dropped_events += 1
            self.events.append(event)
            if self._fh is not None:
                self._fh.write(line)
                self._fh.flush()
        return event

    def save(self, path: str) -> None:
        with self._lock:
            events = list(self.events)
        with open(path, "w") as f:
            for event in events:
                f.write(json.dumps(event, default=str) + "\n")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __len__(self) -> int:
        return len(self.events)


# The process-global event sink: `repro.telemetry.emit(...)` lands here when a
# session (or an explicit log) is installed and telemetry is enabled.
_SINK: Optional[EventLog] = None


def set_event_sink(log: Optional[EventLog]) -> Optional[EventLog]:
    """Install the global event sink; returns the previous one."""
    global _SINK
    prev = _SINK
    _SINK = log
    return prev


def emit_event(kind: str, **fields) -> None:
    """Route an event to the active sink; no-op when telemetry is off."""
    if _SINK is not None and state.enabled():
        _SINK.emit(kind, **fields)


class TelemetrySession:
    """Capture one run's telemetry and snapshot it to a manifest directory.

    Entering the session enables the global switch, resets the process-global
    registry and tracer (unless ``fresh=False``), and installs a JSONL event
    sink.  Leaving restores the previous switch/sink state and — when
    ``out_dir`` is set — writes the full snapshot.
    """

    def __init__(self, out_dir: Optional[str] = None, label: str = "run",
                 fresh: bool = True):
        self.out_dir = out_dir
        self.label = label
        self.fresh = fresh
        self.registry = metrics.get_registry()
        self.tracer = tracing.get_tracer()
        self.events: Optional[EventLog] = None
        self._prev_enabled = False
        self._prev_sink: Optional[EventLog] = None
        self._t0 = 0.0

    def __enter__(self) -> "TelemetrySession":
        self._t0 = time.time()
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
            self.events = EventLog(os.path.join(self.out_dir, "events.jsonl"))
        else:
            self.events = EventLog()
        if self.fresh:
            self.registry.clear()
            self.tracer.reset()
        self._prev_enabled = state.set_enabled(True)
        self._prev_sink = set_event_sink(self.events)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        state.set_enabled(self._prev_enabled)
        set_event_sink(self._prev_sink)
        if self.out_dir:
            self.write(self.out_dir)
        if self.events is not None:
            self.events.close()

    # -------------------------------------------------------------- output
    def write(self, out_dir: str, extra: Optional[Dict] = None) -> Dict:
        """Write the snapshot files; returns the manifest dict."""
        os.makedirs(out_dir, exist_ok=True)
        records = list(self.tracer.records)
        with open(os.path.join(out_dir, "trace.json"), "w") as f:
            json.dump(tracing.to_chrome_trace(records), f, indent=1,
                      default=str)
        with open(os.path.join(out_dir, "trace.txt"), "w") as f:
            roots, _ = tracing.build_tree(records)
            f.write(tracing.format_tree(roots) + "\n")
        with open(os.path.join(out_dir, "metrics.json"), "w") as f:
            json.dump(self.registry.snapshot(), f, indent=1, default=str)
        sat_rows = saturation_report(self.registry)
        with open(os.path.join(out_dir, "saturation.json"), "w") as f:
            json.dump(sat_rows, f, indent=1)
        if self.events is not None and self.events._path is None:
            self.events.save(os.path.join(out_dir, "events.jsonl"))
        manifest = {
            "label": self.label,
            "wall_time_s": time.time() - self._t0,
            "files": {
                "trace": "trace.json",
                "trace_text": "trace.txt",
                "events": "events.jsonl",
                "metrics": "metrics.json",
                "saturation": "saturation.json",
            },
            "num_events": len(self.events) if self.events is not None else 0,
            "num_spans": len(records),
            "num_saturation_sites": len(sat_rows),
        }
        if extra:
            manifest.update(extra)
        with open(os.path.join(out_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1, default=str)
        return manifest
