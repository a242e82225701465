"""Telemetry: tracing spans, metrics, per-layer probes, saturation auditing.

The observability subsystem of the toolkit ("fully customizable, fully
observable").  Four pieces, all wired through the compress→fuse→export
pipeline and all zero-cost when the global switch is off:

* :mod:`~repro.telemetry.metrics` — process-global
  :class:`~repro.telemetry.metrics.MetricsRegistry` with labeled
  ``Counter``/``Gauge``/``Histogram`` primitives;
* :mod:`~repro.telemetry.tracing` — wall-clock spans as flat records, for
  the offline pipeline (:class:`Tracer`) and for gateway requests
  (:class:`TraceContext`/:class:`TraceStore`), rendered as Chrome
  ``trace_event`` JSON or an aligned text tree;
* :mod:`~repro.telemetry.hooks` — non-invasive per-layer forward-timing and
  activation-statistics instrumentation (:func:`instrument`);
* :mod:`~repro.telemetry.saturation` — clamp counters on every integer
  deploy-path saturation site (MulQuant, quantizers, input quant);
* :mod:`~repro.telemetry.report` — JSONL events and the run-level
  :class:`TelemetrySession` manifest writer.

Typical use::

    from repro import telemetry

    with telemetry.TelemetrySession(out_dir="telemetry_out"):
        qm = calibrate_model(quantize_model(model, qcfg), batches)
        qnn = T2C(qm).nn2chip()
        evaluate(qnn, test)
    # -> trace.json / events.jsonl / metrics.json / saturation.json

Hot paths guard on :func:`enabled`, so leaving telemetry off (the default)
keeps training and inference at seed speed.
"""
from repro.telemetry.state import disable, enable, enabled, set_enabled, suppressed
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile_summary,
)
from repro.telemetry.tracing import (
    NULL_SPAN,
    TraceContext,
    TraceStore,
    Tracer,
    build_tree,
    format_tree,
    get_tracer,
    load_jsonl,
    new_span_id,
    span_record,
    to_chrome_trace,
)
from repro.telemetry.hooks import (
    ForwardPatchSet,
    Instrumentation,
    attach_names,
    instrument,
    patch_forward,
    telemetry_name,
)
from repro.telemetry.saturation import record as record_saturation
from repro.telemetry.saturation import saturation_report
from repro.telemetry.report import (
    EventLog,
    TelemetrySession,
    emit_event,
    set_event_sink,
)
from repro.telemetry.obs import (
    FlightRecorder,
    ProfileAggregator,
    RollingWindow,
    exposition,
    parse_prometheus,
    render_prometheus,
)

__all__ = [
    "enable", "disable", "enabled", "set_enabled", "suppressed",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "percentile_summary",
    "Tracer", "NULL_SPAN", "get_tracer", "trace",
    "ForwardPatchSet", "Instrumentation", "attach_names", "instrument",
    "patch_forward", "telemetry_name",
    "record_saturation", "saturation_report",
    "EventLog", "TelemetrySession", "emit_event", "set_event_sink", "emit",
    "TraceContext", "TraceStore", "build_tree", "format_tree", "load_jsonl",
    "new_span_id", "span_record", "to_chrome_trace",
    "FlightRecorder", "ProfileAggregator", "RollingWindow",
    "exposition", "parse_prometheus", "render_prometheus",
]


def trace(name: str, **attrs):
    """Open a span on the global tracer (no-op context when disabled)."""
    return get_tracer().span(name, **attrs)


def emit(kind: str, **fields) -> None:
    """Emit a structured event to the active sink (no-op when disabled)."""
    emit_event(kind, **fields)
