"""Metrics primitives: a process-global registry of counters/gauges/histograms.

The design follows the Prometheus client model — named metrics with optional
label dimensions, children addressed via :meth:`~Metric.labels` — shrunk to
what an offline compression toolkit needs: everything lives in-process and is
snapshotted to JSON at the end of a run instead of being scraped.

Zero-cost-when-off: every mutation (``inc``/``set``/``observe``) first checks
the registry's ``enabled`` property, which by default follows the global
telemetry switch in :mod:`repro.telemetry.state`.
"""
from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry import state

LabelKey = Tuple[str, ...]


def percentile_summary(samples: Sequence[float],
                       pcts: Sequence[float] = (50, 95, 99)) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` over raw samples.

    The shared tail-latency summary behind ``Server.stats()`` and the
    rolling SLO window, so their numbers stay directly comparable.  Empty
    input yields zeros.
    """
    import numpy as np

    keys = [f"p{int(p) if float(p).is_integer() else p}" for p in pcts]
    if not len(samples):
        return {k: 0.0 for k in keys}
    values = np.percentile(np.asarray(samples, dtype=np.float64), list(pcts))
    return {k: float(v) for k, v in zip(keys, values)}


def _label_key(label_names: Sequence[str], labels: Dict[str, str]) -> LabelKey:
    if set(labels) != set(label_names):
        raise ValueError(f"expected labels {tuple(label_names)}, got {tuple(labels)}")
    return tuple(str(labels[n]) for n in label_names)


class Metric:
    """Base metric: a family of children keyed by label values."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = (),
                 registry: Optional["MetricsRegistry"] = None):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._registry = registry
        self._children: Dict[LabelKey, "Metric"] = {}
        # mutation is read-modify-write (`self.sum += v`) and callers span
        # lane threads, the status exporter and the main thread — every
        # mutator and the child factory serialize on this per-metric lock
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._registry.enabled if self._registry is not None else state.enabled()

    def labels(self, **labels: str) -> "Metric":
        """Return (creating on first use) the child for these label values."""
        if not self.label_names:
            raise ValueError(f"metric {self.name!r} has no labels")
        key = _label_key(self.label_names, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = type(self)(self.name, self.help,
                                       registry=self._registry,
                                       **self._child_kwargs())
                    self._children[key] = child
        return child

    def _child_kwargs(self) -> Dict:
        return {}

    def _value_dict(self) -> Dict:
        raise NotImplementedError

    def samples(self) -> List[Dict]:
        """Flatten this family into JSON-able sample dicts."""
        if not self.label_names:
            return [{"name": self.name, "kind": self.kind, "labels": {},
                     **self._value_dict()}]
        out = []
        for key, child in sorted(self._children.items()):
            out.append({"name": self.name, "kind": self.kind,
                        "labels": dict(zip(self.label_names, key)),
                        **child._value_dict()})
        return out

    def reset(self) -> None:
        self._children.clear()


class Counter(Metric):
    """Monotonically increasing count (events, saturated elements, ...)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = (),
                 registry: Optional["MetricsRegistry"] = None):
        super().__init__(name, help, label_names, registry)
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if not self.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def _value_dict(self) -> Dict:
        return {"value": self.value}

    def reset(self) -> None:
        super().reset()
        self.value = 0


class Gauge(Metric):
    """Point-in-time value (learning rate, queue depth, last epoch loss)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = (),
                 registry: Optional["MetricsRegistry"] = None):
        super().__init__(name, help, label_names, registry)
        self.value = 0.0

    def set(self, value: float) -> None:
        if self.enabled:
            with self._lock:
                self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _value_dict(self) -> Dict:
        return {"value": self.value}

    def reset(self) -> None:
        super().reset()
        self.value = 0.0


#: default histogram buckets: wide log-spaced range that covers both
#: sub-millisecond layer timings and multi-second epoch durations
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)


class Histogram(Metric):
    """Cumulative-bucket histogram of observed values."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = (),
                 registry: Optional["MetricsRegistry"] = None,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, label_names, registry)
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0

    def _child_kwargs(self) -> Dict:
        return {"buckets": self.buckets}

    def observe(self, value: float) -> None:
        if not self.enabled:
            return
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            for i, ub in enumerate(self.buckets):
                if value <= ub:
                    self.bucket_counts[i] += 1
                    return
            self.bucket_counts[-1] += 1

    def _value_dict(self) -> Dict:
        return {"sum": self.sum, "count": self.count,
                "buckets": {("le=%g" % ub): c
                            for ub, c in zip(self.buckets, self.bucket_counts)},
                "overflow": self.bucket_counts[-1]}

    @property
    def mean(self) -> float:
        return self.sum / max(self.count, 1)

    def reset(self) -> None:
        super().reset()
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0


class MetricsRegistry:
    """Create-or-get factory and snapshot point for all metrics of a run.

    ``enabled=None`` (the default) defers to the global telemetry switch;
    pass ``True``/``False`` to pin a registry on or off regardless of it
    (useful for tests and for always-on ad-hoc measurement).
    """

    def __init__(self, enabled: Optional[bool] = None):
        self._enabled = enabled
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return state.enabled() if self._enabled is None else self._enabled

    # ------------------------------------------------------------ factories
    def _get_or_create(self, cls, name: str, help: str, labels: Sequence[str],
                       **kwargs) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.get(name)
                if m is None:
                    m = cls(name, help, label_names=labels, registry=self,
                            **kwargs)
                    self._metrics[name] = m
        if not isinstance(m, cls) or m.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as {m.kind} with labels "
                f"{m.label_names}")
        return m

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", labels: Sequence[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # ------------------------------------------------------------- querying
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def collect(self) -> List[Dict]:
        """All samples of all metric families, flattened."""
        out: List[Dict] = []
        for name in sorted(self._metrics):
            out.extend(self._metrics[name].samples())
        return out

    def snapshot(self) -> Dict:
        """JSON-able dump of the whole registry."""
        return {"metrics": self.collect()}

    def reset(self) -> None:
        for m in self._metrics.values():
            m.reset()

    def clear(self) -> None:
        self._metrics.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry all built-in instrumentation writes to."""
    return _REGISTRY
