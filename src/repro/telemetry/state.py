"""Global telemetry switch.

Every telemetry hot-path guard reduces to one module-level boolean read, so
the instrumented code (``MulQuant.forward``, quantizer deploy paths, the
training loop) pays nothing measurable when telemetry is off.  The switch is
process-global on purpose: instrumentation is wired permanently into the
pipeline and a single flag turns the whole subsystem on for a run.
"""
from __future__ import annotations


_ENABLED = False


def enable() -> None:
    """Turn telemetry collection on (metrics, spans, events, saturation)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn telemetry collection off; all hooks short-circuit."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Set the switch; returns the previous value (for save/restore)."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(flag)
    return prev

