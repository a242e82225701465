"""Background memory scrubbing for resident plan state.

A deployed plan's constants — packed weights, requant multiplier/bias
tables, LUTs — are written once at compile time and must never change;
the arena's padded feature-map borders ("guard words") are zeroed once
at allocation and never written again.  :func:`snapshot_constants` captures
a CRC32 baseline of every constant at ``Plan.compile``; :func:`scrub_plan`
re-walks the live buffers against it and checks every arena guard border,
returning a :class:`ScrubReport` whose mismatches are silent data
corruption by definition.

:class:`MemoryScrubber` is the background driver: a daemon thread that
scans its registered plans on an interval, under a bytes-per-second rate
limiter so scrubbing never competes with serving, emitting one telemetry
event per scan and invoking an ``on_fault`` callback (the server/fleet
quarantine hook) whenever a scan is dirty.
"""
from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.integrity.errors import SDCDetected


def _crc(arr: np.ndarray) -> int:
    # crc32 reads the buffer in place; no bytes copy
    return zlib.crc32(np.ascontiguousarray(arr)) & 0xFFFFFFFF


def _constant_arrays(op):
    """``(path, ndarray)`` pairs of one op's immutable parameter arrays.

    Walks the op's instance attributes generically: plain ndarrays
    (weights — a native conv's packed kernel words — and LUT tables) and
    MulQuant parameter snapshots (anything exposing ``m``/``b`` arrays) —
    so new op types are covered without registration.
    """
    state = vars(op)
    for name in sorted(state):
        val = state[name]
        if isinstance(val, np.ndarray):
            yield name, val
        elif (val is not None and hasattr(val, "m") and hasattr(val, "b")
                and isinstance(getattr(val, "m"), np.ndarray)):
            yield f"{name}.m", val.m
            yield f"{name}.b", val.b


def _resolve(op, path: str) -> Optional[np.ndarray]:
    obj = op
    for part in path.split("."):
        # instance state first: a property may shadow the resident array
        state = getattr(obj, "__dict__", {})
        obj = state[part] if part in state else getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def snapshot_constants(plan) -> List[Dict]:
    """CRC32 baseline of every constant array in the plan's ops."""
    baseline = []
    for i, op in enumerate(plan.ops):
        for path, arr in _constant_arrays(op):
            baseline.append({"op_index": i, "op": op.name, "field": path,
                             "crc32": _crc(arr), "nbytes": int(arr.nbytes)})
    return baseline


@dataclass
class ScrubReport:
    """Outcome of one scrub pass over a plan."""

    model: str
    entries: int = 0
    bytes_scanned: int = 0
    duration_s: float = 0.0
    mismatches: List[Dict] = field(default_factory=list)
    guard_faults: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.guard_faults

    def raise_if_failed(self) -> "ScrubReport":
        if not self.ok:
            first = (self.mismatches or self.guard_faults)[0]
            raise SDCDetected(
                "scrub", f"{len(self.mismatches)} constant and "
                         f"{len(self.guard_faults)} guard fault(s) in "
                         f"{self.model} (first: {first})",
                {"model": self.model, "mismatches": self.mismatches,
                 "guard_faults": self.guard_faults})
        return self

    def to_json(self) -> Dict:
        return {"model": self.model, "ok": self.ok, "entries": self.entries,
                "bytes_scanned": self.bytes_scanned,
                "duration_s": self.duration_s,
                "mismatches": self.mismatches,
                "guard_faults": self.guard_faults}


def arena_guard_faults(plan) -> List[Dict]:
    """Non-zero guard borders across the plan's live arena bindings.

    The arena zeroes each padded border once and relies on it
    staying zero (padding is free after the first batch) — any non-zero
    word there is corruption that silently feeds wrong taps to the conv
    kernels.
    """
    faults = []
    for key, binding in list(plan._bindings.items()):
        arena = binding.arena
        for reg, buf in arena._cm_bufs.items():
            p = arena.pads.get(reg, 0)
            if p <= 0:
                continue
            _, h, w = arena.shapes[reg]
            if (buf[:, :, :p, :].any() or buf[:, :, p + h:, :].any()
                    or buf[:, :, :, :p].any() or buf[:, :, :, p + w:].any()):
                faults.append({"binding": list(key), "register": int(reg)})
    return faults


def scrub_plan(plan) -> ScrubReport:
    """One full scan: every constant CRC plus every arena guard border."""
    t0 = time.perf_counter()
    baseline = getattr(plan, "_scrub_baseline", None)
    if baseline is None:
        baseline = snapshot_constants(plan)
        plan._scrub_baseline = baseline
    report = ScrubReport(model=plan.model_name)
    for entry in baseline:
        report.entries += 1
        arr = _resolve(plan.ops[entry["op_index"]], entry["field"])
        if arr is None:
            report.mismatches.append(dict(entry, reason="missing"))
            continue
        report.bytes_scanned += int(arr.nbytes)
        if _crc(arr) != entry["crc32"]:
            report.mismatches.append(dict(entry, reason="crc"))
    report.guard_faults = arena_guard_faults(plan)
    # list(): the lane thread may bind a new batch shape mid-scan
    for binding in list(plan._bindings.values()):
        arena = binding.arena
        for reg, buf in list(arena._cm_bufs.items()):
            center = arena._cm_centers.get(reg)
            if center is not None and buf.nbytes > center.nbytes:
                report.bytes_scanned += int(buf.nbytes - center.nbytes)
    report.duration_s = time.perf_counter() - t0
    return report


class MemoryScrubber:
    """Daemon thread scrubbing registered plans on an interval.

    Scans are rate-limited to ``RATE_MB_S``: after each scan the thread
    sleeps at least ``bytes_scanned / rate`` so a large model cannot
    monopolize memory bandwidth.  ``on_fault(name, report)`` fires once per
    dirty scan; scan stats land in ``last`` and one ``scrub_scan``
    telemetry event per pass.
    """

    #: scrub throughput cap, MB/s
    RATE_MB_S = 256.0

    def __init__(self, interval_s: float = 1.0,
                 on_fault: Optional[Callable] = None, name: str = "scrub"):
        self.interval_s = max(0.01, float(interval_s))
        self.on_fault = on_fault
        self.name = name
        self._targets: Dict[str, object] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.scans = 0
        self.faults = 0
        self.last: Optional[ScrubReport] = None

    # ------------------------------------------------------------ targets
    def add(self, name: str, plan) -> None:
        with self._lock:
            self._targets[name] = plan

    def remove(self, name: str) -> None:
        with self._lock:
            self._targets.pop(name, None)

    # ----------------------------------------------------------- scanning
    def scan_once(self) -> List[ScrubReport]:
        """One synchronous pass over every registered plan (rate-limited)."""
        with self._lock:
            targets = list(self._targets.items())
        reports = []
        for name, plan in targets:
            report = scrub_plan(plan)
            self.scans += 1
            self.last = report
            reports.append(report)
            telemetry.emit("scrub_scan", scrubber=self.name, plan=name,
                           ok=report.ok, entries=report.entries,
                           bytes=report.bytes_scanned,
                           seconds=round(report.duration_s, 6),
                           mismatches=len(report.mismatches),
                           guard_faults=len(report.guard_faults))
            if not report.ok:
                self.faults += 1
                if self.on_fault is not None:
                    self.on_fault(name, report)
            floor = report.bytes_scanned / (self.RATE_MB_S * 1e6)
            if floor > report.duration_s:
                if self._stop.wait(floor - report.duration_s):
                    break
        return reports

    # ------------------------------------------------------------- thread
    def start(self) -> "MemoryScrubber":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name=f"scrubber-{self.name}", daemon=True)
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.scan_once()
            except Exception:
                # the scrubber must never take the server down; faults are
                # reported through on_fault/telemetry, not exceptions
                pass

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
