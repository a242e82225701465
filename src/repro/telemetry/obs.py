"""Operational observability primitives: rolling SLO windows, the flight
recorder, per-op profile aggregation and Prometheus-style text exposition.

Everything here is *always-on capable*: none of these classes consult the
global telemetry switch, because a live gateway needs its SLO arithmetic and
its crash post-mortems whether or not a :class:`TelemetrySession` is active.
They are deliberately cheap — a ring append, a bucket increment — so the
caller can leave them enabled in production paths.

* :class:`RollingWindow` — the one count of each resolved request:
  cumulative totals and histograms, plus a sliding window (a 60 s window
  shows the *current* p99 and shed rate).  ``summary(slo_target=...)``
  folds in the SLO view: deadline-hit ratio and error-budget burn rate,
  where burn ``1.0`` means the window consumes budget exactly as fast as
  the target allows and ``> 1.0`` means the budget is being eaten.
* :class:`FlightRecorder` — a bounded ring of recent structured events per
  lane.  On a deadline miss, shed storm, SDC detection or lane abort the
  server dumps the ring, turning a bare exit code into a post-mortem.
* :class:`ProfileAggregator` — folds sampled per-op timing rows (from the
  plan executors of a lane) into a per-op / per-kind
  breakdown with an *attributed fraction*: how much of sampled wall time the
  named ops account for.
* :func:`render_prometheus` — the ``text/plain; version=0.0.4`` exposition
  of metric samples (registry buckets are per-bin; the renderer emits the
  cumulative ``le`` form Prometheus expects, ``+Inf`` included).
"""
from __future__ import annotations

import bisect
import collections
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import (Histogram, MetricsRegistry,
                                     percentile_summary)


class _Bucket:
    __slots__ = ("epoch", "counts", "latencies", "queue_waits")

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.counts = collections.Counter()
        self.latencies: List[float] = []
        self.queue_waits: List[float] = []


class _Histogram(Histogram):
    """A registry-shaped histogram that its window's lock guards and no
    telemetry switch gates."""

    def add(self, values: Sequence[float]) -> None:
        for v in values:
            self.bucket_counts[bisect.bisect_left(self.buckets, v)] += 1
            self.sum += v
        self.count += len(values)

    def sample(self, name: str, labels: Dict[str, str]) -> Dict:
        return {"name": name, "kind": self.kind, "labels": labels,
                **self._value_dict()}


class RollingWindow:
    """The one outcome ledger of a lane or a fleet traffic class.

    Each resolved request is recorded once, with one call and one lock
    acquisition (an ok batch too), into cumulative totals and histograms
    and into a ring of ``window_s / bucket_s`` one-``bucket_s`` bins; a
    bin is lazily reset when the clock laps it, so there is no background
    thread.  Each bin keeps at most ``MAX_SAMPLES`` latency samples.
    """

    MAX_SAMPLES = 512

    def __init__(self, window_s: float = 60.0, bucket_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic):
        if window_s <= 0 or bucket_s <= 0:
            raise ValueError("window_s and bucket_s must be positive")
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self._clock = clock
        self._n = max(1, int(round(window_s / bucket_s)))
        self._ring: List[Optional[_Bucket]] = [None] * self._n
        self._lock = threading.Lock()
        self._totals = collections.Counter()
        self._latency = _Histogram("request_latency_seconds")
        self._queue_wait = _Histogram("queue_wait_seconds")
        self._batch_size = _Histogram("batch_size",
                                      buckets=(1, 2, 4, 8, 16, 32, 64, 128))

    def _bucket(self) -> _Bucket:
        epoch = int(self._clock() // self.bucket_s)
        slot = epoch % self._n
        b = self._ring[slot]
        if b is None or b.epoch != epoch:
            b = self._ring[slot] = _Bucket(epoch)
        return b

    # ------------------------------------------------------------- recording
    def observe_ok(self, latency_s: float, queue_wait_s: float = 0.0,
                   deadline_miss: bool = False) -> None:
        with self._lock:
            self._ok([float(latency_s)], [float(queue_wait_s)],
                     int(deadline_miss))

    def observe_batch(self, latencies_s: List[float],
                      queue_waits_s: List[float], deadline_misses: int = 0
                      ) -> None:
        """One answered micro-batch, its requests' stamps in order."""
        with self._lock:
            self._ok(latencies_s, queue_waits_s, deadline_misses)
            self._batch_size.add((len(latencies_s),))

    def _ok(self, latencies: List[float], queue_waits: List[float],
            misses: int) -> None:
        b = self._bucket()
        for counts in (b.counts, self._totals):
            counts["requests"] += len(latencies)
            counts["ok"] += len(latencies)
            counts["deadline_miss"] += misses
        room = max(0, self.MAX_SAMPLES - len(b.latencies))
        b.latencies.extend(latencies[:room])
        b.queue_waits.extend(queue_waits[:room])
        self._latency.add(latencies)
        self._queue_wait.add(queue_waits)

    def observe_shed(self, lost: bool = False) -> None:
        """``lost``: the request also ran out of fleet failovers."""
        self._unserved("shed", lost)

    def observe_failed(self, lost: bool = False) -> None:
        self._unserved("failed", lost)

    def _unserved(self, status: str, lost: bool) -> None:
        with self._lock:
            b = self._bucket()
            for counts in (b.counts, self._totals):
                counts["requests"] += 1
                counts[status] += 1
            self._totals["lost"] += lost

    # ------------------------------------------------------------- reporting
    def totals(self) -> collections.Counter:
        """Cumulative ``requests`` (= ``ok`` + ``shed`` + ``failed``),
        ``deadline_miss``, ``lost``, ``batches``, ``batched_requests``."""
        with self._lock:
            out = collections.Counter(self._totals)
            out["batches"] = self._batch_size.count
            out["batched_requests"] = self._batch_size.sum
        return out

    def summary(self, slo_target: Optional[float] = None) -> Dict:
        """Aggregate the live buckets; optionally fold in the SLO view."""
        with self._lock:
            now = self._clock()
            floor = int((now - self.window_s) // self.bucket_s)
            live = [b for b in self._ring
                    if b is not None and b.epoch > floor]
            counts = collections.Counter()
            latencies: List[float] = []
            queue_waits: List[float] = []
            for b in live:
                counts.update(b.counts)
                latencies.extend(b.latencies)
                queue_waits.extend(b.queue_waits)
            span = (now - min(b.epoch for b in live) * self.bucket_s
                    if live else self.bucket_s)
        span = max(min(span, self.window_s), self.bucket_s)
        total = counts["requests"]
        out = {
            "window_s": self.window_s,
            "span_s": round(span, 3),
            "requests": total,
            "ok": counts["ok"],
            "shed": counts["shed"],
            "failed": counts["failed"],
            "deadline_miss": counts["deadline_miss"],
            "rate_hz": round(total / span, 3),
            "throughput_hz": round(counts["ok"] / span, 3),
            "latency_ms": {k: v * 1e3 for k, v in
                           percentile_summary(latencies).items()},
            "queue_wait_ms": {k: v * 1e3 for k, v in
                              percentile_summary(queue_waits).items()},
        }
        if slo_target is not None:
            bad = counts["shed"] + counts["failed"] + counts["deadline_miss"]
            bad_rate = bad / total if total else 0.0
            budget = max(1.0 - float(slo_target), 1e-9)
            out["slo"] = {
                "target": float(slo_target),
                "good_rate": round(1.0 - bad_rate, 6),
                "bad_rate": round(bad_rate, 6),
                "error_budget_burn": round(bad_rate / budget, 3),
            }
        return out

    def samples(self, prefix: str, labels: Dict[str, str],
                slo_target: Optional[float] = None) -> List[Dict]:
        """Exposition rows: the latency / queue-wait / batch-size
        histograms, ``{prefix}_requests_total{status}``,
        ``{prefix}_deadline_miss_total`` and the ``{prefix}_window_*``
        gauges."""
        t = self.totals()
        with self._lock:   # a fleet class records no batches
            hists = [self._latency, self._queue_wait] + (
                [self._batch_size] if self._batch_size.count else [])
            rows = [h.sample(f"{prefix}_{h.name}", labels) for h in hists]
        rows += [{"name": f"{prefix}_requests_total", "kind": "counter",
                  "labels": {**labels, "status": k}, "value": t[k]}
                 for k in ("ok", "shed", "failed")]
        rows.append({"name": f"{prefix}_deadline_miss_total",
                     "kind": "counter", "labels": labels,
                     "value": t["deadline_miss"]})
        w = self.summary(slo_target=slo_target)
        gauges = [(f"window_{k}", w[k]) for k in
                  ("requests", "ok", "shed", "failed", "deadline_miss",
                   "throughput_hz")]
        gauges += [(f"window_latency_{p}_ms", w["latency_ms"][p])
                   for p in ("p50", "p99")]
        if slo_target is not None:
            gauges.append(("slo_error_budget_burn",
                           w["slo"]["error_budget_burn"]))
        return rows + [{"name": f"{prefix}_{name}", "kind": "gauge",
                        "labels": labels, "value": value}
                       for name, value in gauges]


class FlightRecorder:
    """Bounded ring of recent structured events, dumpable on demand.

    ``record`` is safe from any thread; events carry both a wall clock
    (``ts``, human-readable) and the monotonic span clock (``t``, joinable
    with trace timestamps).  The ring never blocks and never grows: once
    full, the oldest event is dropped and ``dropped_events`` counts it.
    """

    def __init__(self, capacity: int = 512):
        self.capacity = int(capacity)
        self._events: collections.deque = collections.deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.dropped_events = 0
        self.last_dump: Optional[Dict] = None

    def record(self, kind: str, **fields) -> None:
        event = {"seq": 0, "ts": time.time(), "t": time.perf_counter(),
                 "kind": kind}
        event.update(fields)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            if len(self._events) == self.capacity:
                self.dropped_events += 1
            self._events.append(event)

    def snapshot(self) -> List[Dict]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def dump(self, reason: str, path: Optional[str] = None,
             **context) -> Dict:
        """Freeze the ring into a post-mortem dict; optionally write JSON."""
        dump = {"reason": reason, "ts": time.time(),
                "dropped_events": self.dropped_events,
                **context,
                "events": self.snapshot()}
        self.last_dump = {k: v for k, v in dump.items() if k != "events"}
        self.last_dump["num_events"] = len(dump["events"])
        if path is not None:
            with open(path, "w") as f:
                json.dump(dump, f, indent=1, default=str)
            self.last_dump["path"] = path
        return dump


class ProfileAggregator:
    """Fold sampled ``(kind, name, seconds)`` op rows into a breakdown."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ops: Dict[Tuple[str, str], List[float]] = {}
        self.wall_seconds = 0.0
        self.sampled_batches = 0

    def add(self, rows: Iterable[Tuple[str, str, float]],
            wall_s: float) -> None:
        with self._lock:
            self.sampled_batches += 1
            self.wall_seconds += float(wall_s)
            for kind, name, dt in rows:
                cell = self._ops.get((kind, name))
                if cell is None:
                    cell = self._ops[(kind, name)] = [0.0, 0]
                cell[0] += float(dt)
                cell[1] += 1

    def report(self, top: Optional[int] = None) -> Dict:
        """Per-op and per-kind rows (hottest first) + attribution."""
        with self._lock:
            ops = {k: list(v) for k, v in self._ops.items()}
            wall = self.wall_seconds
            batches = self.sampled_batches
        attributed = sum(sec for sec, _ in ops.values())
        total = attributed or 1.0
        per_op = sorted(
            ({"kind": kind, "name": name, "seconds": round(sec, 6),
              "calls": calls, "share": round(sec / total, 4)}
             for (kind, name), (sec, calls) in ops.items()),
            key=lambda r: -r["seconds"])
        kinds = collections.Counter()
        for (kind, _), (sec, _c) in ops.items():
            kinds[kind] += sec
        per_kind = sorted(
            ({"kind": kind, "seconds": round(sec, 6),
              "share": round(sec / total, 4)}
             for kind, sec in kinds.items()),
            key=lambda r: -r["seconds"])
        return {
            "sampled_batches": batches,
            "wall_seconds": round(wall, 6),
            "attributed_seconds": round(attributed, 6),
            "attributed_fraction": round(attributed / wall, 4) if wall else 0.0,
            "per_kind": per_kind,
            "per_op": per_op if top is None else per_op[:top],
        }


# --------------------------------------------------------------- exposition
def _fmt_labels(labels: Dict[str, str], extra: Sequence[Tuple[str, str]] = ()
                ) -> str:
    items = [(k, str(v)) for k, v in labels.items()] + list(extra)
    if not items:
        return ""
    body = ",".join(
        '%s="%s"' % (k, v.replace("\\", r"\\").replace('"', r'\"'))
        for k, v in items)
    return "{" + body + "}"


def _fmt_value(v) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def render_prometheus(samples: Iterable[Dict]) -> str:
    """Render ``MetricsRegistry.collect()``-shaped samples as the Prometheus
    text format.  Histogram bins (stored per-bucket) become the cumulative
    ``_bucket{le=...}`` series with a trailing ``+Inf``, plus ``_sum`` and
    ``_count``."""
    by_name: "collections.OrderedDict[str, List[Dict]]" = collections.OrderedDict()
    for s in samples:
        by_name.setdefault(s["name"], []).append(s)
    lines: List[str] = []
    for name, group in by_name.items():
        kind = group[0].get("kind", "gauge")
        ptype = {"counter": "counter", "gauge": "gauge",
                 "histogram": "histogram"}.get(kind, "untyped")
        lines.append(f"# TYPE {name} {ptype}")
        for s in group:
            labels = s.get("labels", {})
            if kind == "histogram":
                cum = 0
                for le_key, count in s.get("buckets", {}).items():
                    ub = le_key.split("=", 1)[1]
                    cum += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_fmt_labels(labels, [('le', ub)])} {cum}")
                cum += s.get("overflow", 0)
                lines.append(
                    f"{name}_bucket{_fmt_labels(labels, [('le', '+Inf')])}"
                    f" {cum}")
                lines.append(f"{name}_sum{_fmt_labels(labels)}"
                             f" {_fmt_value(s.get('sum', 0.0))}")
                lines.append(f"{name}_count{_fmt_labels(labels)}"
                             f" {int(s.get('count', 0))}")
            else:
                lines.append(f"{name}{_fmt_labels(labels)}"
                             f" {_fmt_value(s.get('value', 0.0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def exposition(registry: MetricsRegistry,
               extra_samples: Iterable[Dict] = ()) -> str:
    """Text exposition of a registry plus caller-synthesized samples (the
    server and the fleet inject their always-on window rows this way, so
    the endpoint counts every request even when the global telemetry
    switch is off)."""
    return render_prometheus(list(registry.collect()) + list(extra_samples))


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Minimal parser for the exposition format (round-trip testing and the
    smoke stage's "does it parse" gate).  Returns
    ``{series_name: [(labels, value), ...]}``."""
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        if not metric:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels: Dict[str, str] = {}
        if "{" in metric:
            name, _, rest = metric.partition("{")
            body = rest.rstrip("}")
            if body:
                for item in body.split('",'):
                    k, _, v = item.partition("=")
                    labels[k.strip()] = v.strip().strip('"')
        else:
            name = metric
        out.setdefault(name, []).append((labels, float(value)))
    return out
