"""Online inference gateway: work-conserving micro-batching over compiled plans.

:class:`Server` turns single-sample requests into well-packed batches for
the compiled runtime without blowing latency:

* **work-conserving micro-batcher** — requests land in a bounded per-model
  queue with a deadline; each of the lane's executor threads forms a batch
  of up to ``max_batch`` from the queue head the moment it is free, so
  requests wait only while every executor is busy and batch size grows
  with load on its own — no linger timer;
* **executors** — a lane runs ``max(1, workers)`` executor threads over
  the active version's one plan: the plan gives each thread its own
  bindings and the native kernels release the GIL, so k executors run k
  batches at once in one process;
* **admission control** — a full queue or a projected queue wait beyond the
  request's deadline sheds immediately with a typed
  :class:`~repro.server.types.Overloaded` result instead of accepting work
  the gateway would miss the deadline on; a sample whose shape disagrees
  with the model's expected input shape (declared via
  ``register(..., input_shape=...)`` or learned from the first request) is
  rejected with a typed :class:`~repro.server.types.Failed` at submit time,
  so one malformed request can never poison a batch;
* **executor failures** — a batch whose plan call raises resolves its
  requests as typed :class:`~repro.server.types.Failed` (retryable for a
  detected silent-data corruption, not otherwise) and leaves a
  ``batch_failed`` event in the flight recorder; the executor goes on with
  the next batch;
* **hot swap** — :meth:`Server.swap` drains the lane until no executor is
  busy, atomically flips the registry's active version, and only then
  resumes dispatch, so no batch runs on the outgoing plan after the flip
  and no in-flight request is lost;
* **observability** — each lane's always-on
  :class:`~repro.telemetry.obs.RollingWindow` counts every resolved
  request once, and ``stats()``, ``status()`` and ``render_exposition()``
  all read it; one span tree per traced request in ``trace_store``
  (request → queue.wait, batch → exec), and structured events for sheds,
  swaps and batch failures.

All timestamps use ``time.perf_counter()`` (monotonic), matching the span
clock so gateway spans align with the rest of a telemetry trace.
"""
from __future__ import annotations

import collections
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.export.errors import ArtifactError
from repro.integrity.errors import SDCDetected
from repro.lint.plan import PlanVerificationError
from repro.runtime.executor import check_finite
from repro.server.registry import ModelEntry, ModelRegistry
from repro.server.types import (Failed, Ok, Overloaded, PendingRequest,
                                Response)
from repro.telemetry import obs as _obs
from repro.telemetry import tracing

#: weight of the newest batch in the service-time EWMA
_EWMA_ALPHA = 0.2
#: auto-dump cooldown (storm guard) for non-forced flight-recorder dumps
_DUMP_MIN_INTERVAL_S = 1.0


@dataclass(frozen=True)
class ServerConfig:
    """Gateway tuning knobs, one set for every lane of a server."""

    max_batch: int = 16              #: close a batch at this size
    max_queue: int = 256             #: bounded queue; beyond this -> Overloaded
    default_deadline_s: float = 0.25  #: per-request deadline when unspecified
    #: executor threads per lane, i.e. batches a lane runs at once
    #: (0 and 1 both mean one); all of them share the lane's plan
    workers: int = 0
    #: seed of the batch service-time EWMA that admission's projected
    #: wait (``projected_wait_s``) reads; batching never waits on it
    exec_time_init_s: float = 0.005
    # ------------------------------------------------------- observability
    #: request-scoped tracing: True/False, or None to follow the global
    #: telemetry switch
    tracing: Optional[bool] = None
    #: sample every N-th batch for per-op profiling (0 = off)
    profile_every: int = 0
    slo_target: float = 0.99         #: good-request ratio target
    #: directory for automatic flight-recorder dumps (None = in-memory only)
    dump_dir: Optional[str] = None
    #: keep only the newest N on-disk flight dumps per lane (0 = unlimited)
    max_dumps: int = 16
    # -------------------------------------------------------- SDC defense
    #: verify every N-th batch of a plan-backed lane with the sampled ABFT
    #: checksum checker (0 = off), whatever the lane's executor count
    abft_every: int = 0
    #: background memory-scrub interval over active plans (0 = off)
    scrub_interval_s: float = 0.0

    def __post_init__(self):
        for name in ("max_batch", "max_queue"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0")
        for name in ("exec_time_init_s", "workers", "profile_every",
                     "max_dumps", "abft_every", "scrub_interval_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 < self.slo_target < 1:
            raise ValueError("slo_target must be in (0, 1)")


class _Batch:
    """One formed micro-batch on its way through execution."""

    __slots__ = ("bid", "requests", "x", "entry", "formed_t", "trace")

    def __init__(self, bid: int, requests: List[PendingRequest],
                 x: np.ndarray, entry: ModelEntry, formed_t: float):
        self.bid = bid
        self.requests = requests
        self.x = x
        self.entry = entry
        self.formed_t = formed_t
        #: per-request "batch" span ids (None when untraced); the exec
        #: span nests under them
        self.trace: Optional[List[Optional[str]]] = None


class _Lane:
    """One model name's queue plus its executor threads."""

    def __init__(self, server: "Server", name: str):
        self.server = server
        self.name = name
        self.cfg = server.config
        self.cond = threading.Condition()
        self.queue: collections.deque = collections.deque()
        self.closing = False
        self.dead = False                 # an executor crashed; lane aborted
        self.busy = 0                     # executors running a batch now
        #: batch service-time EWMA, updated under ``cond`` when an
        #: executor hands its finished batch back
        self.est_batch_s = self.cfg.exec_time_init_s
        self.swaps = 0
        self.swap_target: Optional[str] = None
        self.swap_done = threading.Event()
        #: the registry gate's refusal at cutover, re-raised by Server.swap
        self.swap_error: Optional[Exception] = None
        # always-on observability (independent of the telemetry switch):
        # the outcome ledger every view reads, flight-recorder ring, and
        # the per-op profile the executors fold their samples into
        self.window = _obs.RollingWindow()
        self.flight = _obs.FlightRecorder()
        self.profile = _obs.ProfileAggregator()
        self._last_dump_t = -math.inf
        self._dump_n = 0
        #: the entry whose plan carries this lane's profiler/ABFT checker
        self._armed_key: Optional[str] = None
        self.expected_shape = self._declared_shape()
        self.threads = [
            threading.Thread(target=self._run, daemon=True,
                             name=f"repro-server-{name}-{i}")
            for i in range(max(1, self.cfg.workers))]
        for thread in self.threads:
            thread.start()

    # ----------------------------------------------------------- admission
    def _declared_shape(self) -> Optional[tuple]:
        """The active entry's declared sample shape (``meta['input_shape']``
        at register time), if any; otherwise learned from the first request."""
        try:
            shape = self.server.registry.get(self.name).meta.get("input_shape")
        except KeyError:
            return None
        return tuple(shape) if shape is not None else None

    def projected_wait_s(self) -> float:
        """Estimated enqueue-to-answer time for one more request, now."""
        batches_ahead = (math.ceil((len(self.queue) + 1) / self.cfg.max_batch)
                         + self.busy)
        return batches_ahead * self.est_batch_s

    def admit(self, req: PendingRequest) -> Optional[Response]:
        """Append under the lane lock, or return the typed rejection.

        A closed or dead lane rejects with a retryable :class:`Failed`
        instead of enqueueing onto executors that will never drain the
        queue; a sample whose shape disagrees with the lane's expected
        input shape (it could never be stacked into a batch with its peers)
        or that holds a non-finite value (the input contract, which the
        plan would refuse) rejects with a non-retryable :class:`Failed`.
        """
        try:
            check_finite(req.sample)
        except ValueError as exc:
            return Failed(req.request_id, self.name, error=str(exc),
                          retryable=False)
        with self.cond:
            if self.closing or self.dead:
                return Failed(req.request_id, self.name,
                              error="gateway lane is closed" if self.closing
                              else "gateway lane crashed", retryable=True)
            shape = tuple(req.sample.shape)
            if self.expected_shape is None:
                self.expected_shape = shape
            elif shape != self.expected_shape:
                return Failed(
                    req.request_id, self.name,
                    error=f"sample shape {shape} does not match this model's "
                          f"expected input shape {self.expected_shape}",
                    retryable=False)
            if len(self.queue) >= self.cfg.max_queue:
                return Overloaded(req.request_id, self.name,
                                  reason="queue_full",
                                  projected_wait_s=self.projected_wait_s(),
                                  deadline_s=req.deadline_s)
            projected = self.projected_wait_s()
            if projected > req.deadline_s:
                return Overloaded(req.request_id, self.name,
                                  reason="deadline",
                                  projected_wait_s=projected,
                                  deadline_s=req.deadline_s)
            self.queue.append(req)
            self.cond.notify()
        return None

    # -------------------------------------------------------- observability
    def auto_dump(self, reason: str, force: bool = False,
                  **context) -> Optional[Dict]:
        """Freeze the flight-recorder ring for a post-mortem, rate-limited.

        Called on every anomaly (deadline miss, shed, SDC, lane abort); a
        1 s cooldown keeps an overload storm from turning into a dump
        storm.  ``force`` bypasses the cooldown for rare, high-signal events
        (SDC, lane abort) that must never be shadowed by a recent shed
        dump.  With ``dump_dir`` set the dump is also written
        as JSON; either way ``flight.last_dump`` records it.
        """
        now = time.monotonic()
        if not force and now - self._last_dump_t < _DUMP_MIN_INTERVAL_S:
            return None
        self._last_dump_t = now
        path = None
        if self.cfg.dump_dir:
            os.makedirs(self.cfg.dump_dir, exist_ok=True)
            self._dump_n += 1
            path = os.path.join(
                self.cfg.dump_dir,
                f"flight_{self.name}_{self._dump_n:03d}_{reason}.json")
        dump = self.flight.dump(reason, path=path, model=self.name)
        if path is not None and self.cfg.max_dumps > 0:
            self._rotate_dumps()
        telemetry.emit("server_flight_dump", model=self.name, reason=reason,
                       events=len(dump["events"]), path=path)
        return dump

    def _rotate_dumps(self) -> None:
        """Prune this lane's on-disk dumps to the newest ``max_dumps``.

        Dump filenames embed a zero-padded per-lane counter, so a plain
        lexicographic sort is age order; an unbounded dump directory on a
        long-lived gateway is a disk-exhaustion incident waiting to happen.
        """
        prefix = f"flight_{self.name}_"
        try:
            names = sorted(n for n in os.listdir(self.cfg.dump_dir)
                           if n.startswith(prefix) and n.endswith(".json"))
        except OSError:
            return
        for stale in names[:-self.cfg.max_dumps]:
            try:
                os.remove(os.path.join(self.cfg.dump_dir, stale))
            except OSError:
                pass

    # ----------------------------------------------------------- scheduling
    def _form_batch_locked(self) -> _Batch:
        take = min(self.cfg.max_batch, len(self.queue))
        requests = [self.queue.popleft() for _ in range(take)]
        entry = self.server.registry.get(self.name)
        x = np.ascontiguousarray(
            np.stack([r.sample for r in requests]), dtype=np.float32)
        batch = _Batch(self.server.next_batch_id(), requests, x, entry,
                       time.perf_counter())
        if any(r.ctx is not None for r in requests):
            batch.trace = [tracing.new_span_id() if r.ctx is not None
                           else None for r in requests]
        self.flight.record("batch_formed", bid=batch.bid, size=take,
                           queued=len(self.queue))
        return batch

    def _run(self) -> None:
        try:
            self._run_loop()
        except BaseException as exc:  # pragma: no cover - defensive backstop
            # An executor must never die silently: a crash here would
            # strand every queued request in result() forever.
            self._abort(f"lane executor crashed: "
                        f"{type(exc).__name__}: {exc}")

    def _abort(self, error: str) -> None:
        """Resolve everything this lane holds queued as retryable Failed,
        mark the lane dead (admit rejects from now on), release the swap
        waiter and stop the idle executors.  Batches already executing
        still complete."""
        with self.cond:
            self.dead = True
            queued = list(self.queue)
            self.queue.clear()
            if self.swap_target is not None:
                self.swap_target = None
                self.swap_done.set()
            self.cond.notify_all()
        telemetry.emit("server_lane_crashed", level="error", model=self.name,
                       error=error, queued=len(queued), busy=self.busy)
        self.flight.record("lane_abort", error=error, queued=len(queued),
                           busy=self.busy)
        self.auto_dump("lane_abort", force=True, error=error)
        for req in queued:
            self.resolve_unserved(req, Failed(req.request_id, self.name,
                                              error=error, retryable=True))

    def _run_loop(self) -> None:
        """One executor, work-conserving: whenever it is free it forms a
        batch from the queue head, so a request waits only while every
        executor is busy and then rides the next batch (up to
        ``max_batch``)."""
        batch = exec_s = None
        while True:
            with self.cond:
                if batch is not None:
                    self.busy -= 1
                    if exec_s is not None:
                        self.est_batch_s += _EWMA_ALPHA * (
                            exec_s - self.est_batch_s)
                while True:
                    if self.swap_target is not None and not self.busy:
                        self._cutover_locked()
                    if self.queue and self.swap_target is None:
                        batch = self._form_batch_locked()
                        self.busy += 1
                        break
                    if self.dead or (self.closing and not self.queue):
                        if self.swap_target is not None:  # raced with close
                            self.swap_target = None
                            self.swap_done.set()
                        return
                    self.cond.wait()
            exec_s = self._execute(batch)

    # ------------------------------------------------------------ execution
    def _arm(self, entry: ModelEntry) -> None:
        """Attach the configured profiler / ABFT checker to ``entry``'s
        plan once, however many executors reach it first."""
        plan = entry.plan
        if plan is None or self._armed_key == entry.key:
            return
        with self.cond:
            if self._armed_key == entry.key:
                return
            if self.cfg.profile_every and hasattr(plan, "enable_profiling"):
                plan.enable_profiling(sample_every=self.cfg.profile_every)
            if self.cfg.abft_every and hasattr(plan, "enable_abft"):
                plan.enable_abft(sample_every=self.cfg.abft_every)
            self._armed_key = entry.key

    def _execute(self, batch: _Batch) -> Optional[float]:
        """Run one batch and resolve its requests; returns the plan call's
        seconds when it answered, ``None`` when it failed."""
        if self.cfg.profile_every or self.cfg.abft_every:
            self._arm(batch.entry)
        t0 = time.perf_counter()
        try:
            y = batch.entry(batch.x)
        except SDCDetected as exc:
            # corruption, not workload: the requests themselves are fine —
            # fail them retryable so a fleet router re-runs them on a
            # healthy replica while this one gets quarantined
            self.server.record_sdc(self.name, exc, lane=self)
            self._fail_batch(batch, str(exc), retryable=True)
            return None
        except Exception as exc:
            self._fail_batch(batch, f"{type(exc).__name__}: {exc}",
                             retryable=False)
            return None
        t1 = time.perf_counter()
        prof = getattr(batch.entry.plan, "_profiler", None)
        if prof is not None:
            sampled = prof.pop_last()
            if sampled is not None:
                self.profile.add(*sampled)
        if batch.trace is not None:
            self.server.trace_store.add_many([
                tracing.span_record(req.ctx.trace_id, "exec", t0, t1,
                                    parent_id=batch.trace[i],
                                    attrs={"n": len(batch.requests)})
                for i, req in enumerate(batch.requests)
                if req.ctx is not None])
        self._complete(batch, np.asarray(y), t0, t1)
        return t1 - t0

    # ------------------------------------------------------------ hot swap
    def request_swap(self, version: str) -> None:
        with self.cond:
            if self.closing or self.dead:
                raise RuntimeError(
                    f"cannot swap model {self.name!r}: lane is "
                    + ("closed" if self.closing else "dead"))
            self.swap_target = version
            self.swap_error = None
            self.swap_done.clear()
            self.cond.notify()

    def _cutover_locked(self) -> None:
        version, self.swap_target = self.swap_target, None
        try:
            entry = self.server.registry.set_active(self.name, version)
        except (ArtifactError, PlanVerificationError) as exc:
            # the gate refused what rotted during the drain: the old
            # version keeps serving and swap() raises the refusal
            self.swap_error = exc
            self.swap_done.set()
            return
        self._armed_key = None       # arm the incoming plan
        declared = entry.meta.get("input_shape")
        if declared is not None:     # new version may take a different shape
            self.expected_shape = tuple(declared)
        self.swaps += 1
        telemetry.emit("server_swap", model=self.name, active=entry.key)
        self.server._ensure_scrub(self.name)   # scrub the incoming plan
        self.swap_done.set()
        self.cond.notify_all()   # idle executors: the queue is open again

    # ------------------------------------------------------------ resolution
    def _complete(self, batch: _Batch, y: np.ndarray, t0: float,
                  t1: float) -> None:
        missed = 0
        records: List[Dict] = []
        # bookkeeping first, _resolve() last: once a caller's result()
        # returns, the window/flight-recorder/trace state already reflects
        # that request (tests and pollers rely on this ordering).
        responses, latencies, queue_waits = [], [], []
        for i, req in enumerate(batch.requests):
            queue_wait = batch.formed_t - req.enqueue_t
            latency = t1 - req.enqueue_t
            miss = latency > req.deadline_s
            missed += miss
            latencies.append(latency)
            queue_waits.append(queue_wait)
            responses.append(Ok(req.request_id, batch.entry.key,
                               logits=y[i].copy(), queue_wait_s=queue_wait,
                               latency_s=latency,
                               batch_size=len(batch.requests),
                               batch_id=batch.bid))
            ctx = req.ctx
            if ctx is not None and batch.trace is not None:
                root = ctx.span_id
                records.append(tracing.span_record(
                    ctx.trace_id, "queue.wait", req.enqueue_t, batch.formed_t,
                    parent_id=root))
                records.append(tracing.span_record(
                    ctx.trace_id, "batch", batch.formed_t, t1,
                    parent_id=root, span_id=batch.trace[i],
                    attrs={"bid": batch.bid, "size": len(batch.requests)}))
                records.append(tracing.span_record(
                    ctx.trace_id, "request", req.enqueue_t, t1, span_id=root,
                    attrs={"request_id": req.request_id,
                           "model": batch.entry.key, "status": "ok",
                           "deadline_miss": miss,
                           "latency_ms": round(latency * 1e3, 3)}))
        if records:
            self.server.trace_store.add_many(records)
        self.window.observe_batch(latencies, queue_waits, missed)
        self.flight.record("batch_complete", bid=batch.bid,
                           size=len(batch.requests),
                           exec_ms=round((t1 - t0) * 1e3, 3),
                           deadline_miss=missed)
        if missed:
            self.auto_dump("deadline_miss", bid=batch.bid, missed=missed)
        for req, resp in zip(batch.requests, responses):
            req._resolve(resp)

    def _fail_batch(self, batch: _Batch, error: str, retryable: bool) -> None:
        telemetry.emit("server_batch_failed", level="error", model=self.name,
                       batch=batch.bid, error=error, retryable=retryable)
        self.flight.record("batch_failed", bid=batch.bid, error=error,
                           retryable=retryable, size=len(batch.requests))
        for req in batch.requests:
            self.resolve_unserved(req, Failed(req.request_id, batch.entry.key,
                                              error=error,
                                              retryable=retryable))

    def resolve_unserved(self, req: PendingRequest, response: Response,
                         status: Optional[str] = None) -> None:
        """The one outcome path for a request that gets no logits.

        Counts it in the lane's window as shed for an :class:`Overloaded`
        and failed otherwise, writes its root
        ``request`` span when traced (``status`` overrides the span's
        ``shed``/``failed`` label), then resolves it.
        """
        shed = isinstance(response, Overloaded)
        outcome = "shed" if shed else "failed"
        if shed:
            self.window.observe_shed()
        else:
            self.window.observe_failed()
        if req.ctx is not None:
            detail = ({"reason": response.reason} if shed
                      else {"error": response.error})
            self.server.trace_store.add(tracing.span_record(
                req.ctx.trace_id, "request", req.enqueue_t,
                time.perf_counter(), span_id=req.ctx.span_id,
                attrs={"request_id": req.request_id, "model": response.model,
                       "status": status or outcome, **detail}))
        req._resolve(response)

    # ------------------------------------------------------------- shutdown
    def close(self) -> None:
        with self.cond:
            self.closing = True
            self.cond.notify_all()


class Server:
    """The gateway front-end: ``submit() -> PendingRequest -> Response``.

    ::

        registry = ModelRegistry()
        registry.register("resnet20", "1", deploy(qmodel))
        with Server(registry, max_batch=16) as srv:
            pending = srv.submit("resnet20", sample, deadline_s=0.2)
            response = pending.result()
            if response.ok:
                logits = response.logits
    """

    def __init__(self, registry: ModelRegistry,
                 config: Optional[ServerConfig] = None, **overrides):
        self.registry = registry
        self.config = replace(config or ServerConfig(), **overrides) \
            if overrides else (config or ServerConfig())
        self._lanes: Dict[str, _Lane] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self.closing = False
        self.draining = False      #: intake off, queued work still completes
        self.killed = False        #: abrupt stop (replica-death simulation)
        self.drain_rejected = 0    #: submits bounced while draining
        self._t0 = time.time()
        self.sdc_events: List[Dict] = []   #: live SDC detections, in order
        self._scrubber = None              #: lazy shared MemoryScrubber
        self.trace_store = tracing.TraceStore()
        self._exporter: Optional[threading.Thread] = None
        self._exporter_stop = threading.Event()

    def tracing_active(self) -> bool:
        """Request tracing on? ``config.tracing`` pins it; ``None`` follows
        the global telemetry switch."""
        cfg = self.config.tracing
        return telemetry.enabled() if cfg is None else bool(cfg)

    # -------------------------------------------------------------- intake
    def _lane(self, name: str) -> _Lane:
        lane = self._lanes.get(name)
        if lane is None:
            with self._lock:
                lane = self._lanes.get(name)
                if lane is None:
                    lane = _Lane(self, name)
                    self._lanes[name] = lane
            self._ensure_scrub(name)
        return lane

    # ---------------------------------------------------------- SDC defense
    def record_sdc(self, model: str, exc, lane: Optional[_Lane] = None
                   ) -> None:
        """Account one live silent-data-corruption detection.

        Structured event + forced flight-recorder dump, and the event lands
        in ``sdc_events`` — the exposition's
        ``server_sdc_detected_total`` and the flag a fleet health loop
        quarantines the whole replica on (see
        :meth:`repro.fleet.Fleet`).  Called from the lane on an ABFT
        miss, from the scrubber's fault callback, and from fleet golden
        probes; never from the pre-cutover swap gate (a refused *incoming*
        version says nothing about the serving one).
        """
        source = getattr(exc, "source", "unknown")
        self.sdc_events.append({
            "model": model, "source": source, "error": str(exc),
            "detail": getattr(exc, "detail", None) or {}, "t": time.time()})
        telemetry.emit("server_sdc_detected", level="error", model=model,
                       source=source, error=str(exc))
        if lane is None:
            lane = self._lanes.get(model)
        if lane is not None:
            lane.flight.record("sdc_detected", source=source,
                               error=str(exc))
            lane.auto_dump("sdc", force=True, source=source)

    @property
    def sdc_detected(self) -> bool:
        """True once any live SDC (ABFT, scrub or golden) was recorded."""
        return bool(self.sdc_events)

    def _ensure_scrub(self, name: str) -> None:
        """Register ``name``'s active plan with the background scrubber
        (started lazily on the first plan-backed lane)."""
        if self.config.scrub_interval_s <= 0 or self.closing:
            return
        try:
            plan = self.registry.get(name).plan
        except KeyError:
            return
        if plan is None:
            return
        if self._scrubber is None:
            from repro.integrity import MemoryScrubber

            self._scrubber = MemoryScrubber(
                interval_s=self.config.scrub_interval_s,
                on_fault=self._on_scrub_fault, name="server").start()
        self._scrubber.add(name, plan)

    def _on_scrub_fault(self, name: str, report) -> None:
        try:
            report.raise_if_failed()
        except SDCDetected as exc:
            self.record_sdc(name, exc)

    def scrub_now(self) -> List:
        """One synchronous scrub pass over every registered plan (faults
        route through :meth:`record_sdc` like background scans)."""
        if self._scrubber is None:
            from repro.integrity import MemoryScrubber

            self._scrubber = MemoryScrubber(
                interval_s=max(self.config.scrub_interval_s, 1.0),
                on_fault=self._on_scrub_fault, name="server")
        # re-sync targets every pass: lanes appear lazily and swaps
        # replace the active plan object
        with self._lock:
            names = list(self._lanes)
        for name in names:
            try:
                plan = self.registry.get(name).plan
            except KeyError:
                continue
            if plan is not None:
                self._scrubber.add(name, plan)
        return self._scrubber.scan_once()

    def next_batch_id(self) -> int:
        return next(self._batch_ids)

    def submit(self, key: str, sample, deadline_s: Optional[float] = None
               ) -> PendingRequest:
        """Enqueue one *unbatched* sample for ``key`` (``name`` or
        ``name@version``); routing is by name, the active version serves.

        Always returns a handle: a shed request comes back as an already
        resolved :class:`Overloaded`, a sample whose shape disagrees with
        the model's expected input shape or that holds a non-finite value
        (or a submit that raced with :meth:`close`) as an already resolved
        :class:`Failed`.  Raises
        ``KeyError`` for unknown models and ``RuntimeError`` after
        :meth:`close`.
        """
        if self.closing:
            raise RuntimeError("server is closed")
        entry = self.registry.get(key)      # KeyError for unknown models
        x = np.ascontiguousarray(np.asarray(
            getattr(sample, "data", sample), dtype=np.float32))
        deadline = (self.config.default_deadline_s if deadline_s is None
                    else float(deadline_s))
        req = PendingRequest(next(self._ids), entry.name, x,
                             time.perf_counter(), deadline)
        if self.draining:
            # drain protocol: intake is off but queued work still completes;
            # the typed retryable Failed tells a fleet router to resubmit
            # elsewhere without burning this request
            self.drain_rejected += 1
            req._resolve(Failed(req.request_id, entry.name,
                                error="server is draining", retryable=True))
            return req
        if self.tracing_active():
            # trace_id == request_id: one id to correlate logs/spans/results
            req.ctx = tracing.TraceContext.mint(req.request_id,
                                                model=entry.name)
        lane = self._lane(entry.name)
        rejection = lane.admit(req)
        if isinstance(rejection, Overloaded):
            telemetry.emit("server_shed", model=entry.name,
                           request=req.request_id, reason=rejection.reason,
                           projected_wait_s=rejection.projected_wait_s)
            lane.flight.record("shed", request=req.request_id,
                               reason=rejection.reason,
                               projected_wait_s=rejection.projected_wait_s)
            lane.auto_dump("shed", shed_reason=rejection.reason)
            lane.resolve_unserved(req, rejection)
        elif rejection is not None:   # Failed: bad shape or value / closed lane
            telemetry.emit("server_rejected", model=entry.name,
                           request=req.request_id, error=rejection.error)
            lane.flight.record("rejected", request=req.request_id,
                               error=rejection.error)
            lane.resolve_unserved(req, rejection, status="rejected")
        return req

    # ------------------------------------------------------------- control
    def swap(self, name: str, version: str, timeout: float = 30.0) -> None:
        """Drain-and-cutover to ``name@version``: in-flight batches finish on
        the old plan, the active pointer flips atomically once no executor
        is busy, then dispatch resumes.  Queued requests are never dropped.
        The registry gate (:meth:`ModelRegistry.check`) runs before the
        drain and again at cutover; either refusal raises its typed error
        and the old version keeps serving.  Raises ``RuntimeError`` when the
        server (or the model's lane) is already closed instead of waiting
        out the timeout.
        """
        if self.closing:
            raise RuntimeError("server is closed")
        # refuse before draining a healthy lane: the old version keeps
        # serving and a refused one never becomes active
        self.registry.check(f"{name}@{version}", "swap")
        lane = self._lane(name)
        lane.request_swap(version)
        if not lane.swap_done.wait(timeout):
            raise TimeoutError(f"swap to {name}@{version} did not cut over "
                               f"within {timeout}s")
        with lane.cond:
            error, lane.swap_error = lane.swap_error, None
        if error is not None:
            raise error

    def stats(self) -> Dict[str, Dict]:
        """Per-model cumulative outcome counts plus the rolling window's
        p50/p95/p99 latency and queue wait (the numbers :meth:`status`
        reports)."""
        with self._lock:
            lanes = sorted(self._lanes.items())
        out = {}
        for name, lane in lanes:
            t = lane.window.totals()
            w = lane.window.summary()
            out[name] = {
                **{k: t[k] for k in ("requests", "ok", "shed", "failed",
                                     "deadline_miss", "batches")},
                "swaps": lane.swaps,
                "mean_batch_size": (t["batched_requests"] / t["batches"]
                                    if t["batches"] else 0.0),
                "est_batch_ms": lane.est_batch_s * 1e3,
                "latency_ms": w["latency_ms"],
                "queue_wait_ms": w["queue_wait_ms"],
            }
        return out

    # ------------------------------------------------------- observability
    def status(self) -> Dict:
        """One structured operational snapshot: per-model rolling SLO window
        (current p50/p95/p99, shed/miss rates, error-budget burn), cumulative
        counters, flight-recorder state, sampled per-op profile and trace
        store occupancy.  Always-on — works with telemetry off."""
        cumulative = self.stats()
        models: Dict[str, Dict] = {}
        with self._lock:
            lanes = dict(self._lanes)
        for name, lane in sorted(lanes.items()):
            prof = lane.profile.report(top=5)
            models[name] = {
                "window": lane.window.summary(
                    slo_target=lane.cfg.slo_target),
                "cumulative": cumulative.get(name, {}),
                "queue_depth": len(lane.queue),
                "inflight_batches": lane.busy,
                "executors": sum(t.is_alive() for t in lane.threads),
                "flight_recorder": {
                    "events": len(lane.flight),
                    "dropped_events": lane.flight.dropped_events,
                    "last_dump": lane.flight.last_dump,
                },
                "profile": prof if prof["sampled_batches"] else None,
            }
        return {
            "ts": time.time(),
            "uptime_s": round(time.time() - self._t0, 3),
            "closing": self.closing,
            "tracing": self.tracing_active(),
            "traces_held": len(self.trace_store),
            "traces_evicted": self.trace_store.evicted,
            "sdc": {"events": len(self.sdc_events),
                    "last": self.sdc_events[-1] if self.sdc_events else None},
            "models": models,
        }

    def _obs_samples(self) -> List[Dict]:
        """Exposition rows from the always-on lane windows, each lane's
        queue depth and the recorded SDC detections (the process registry
        holds no serving metric, so these count with telemetry off too)."""
        samples: List[Dict] = []
        with self._lock:
            lanes = sorted(self._lanes.items())
        for name, lane in lanes:
            lab = {"model": name}
            samples += lane.window.samples("server", lab,
                                           slo_target=lane.cfg.slo_target)
            samples.append({"name": "server_queue_depth", "kind": "gauge",
                            "labels": lab, "value": len(lane.queue)})
        sdc = collections.Counter((e["model"], e["source"])
                                  for e in list(self.sdc_events))
        for (model, source), n in sorted(sdc.items()):
            samples.append({"name": "server_sdc_detected_total",
                            "kind": "counter",
                            "labels": {"model": model, "source": source},
                            "value": n})
        return samples

    def render_exposition(self) -> str:
        """Prometheus text exposition: the process registry plus the
        always-on per-lane window rows."""
        return _obs.exposition(telemetry.get_registry(),
                               extra_samples=self._obs_samples())

    def trace_tree(self, request_id: int):
        """``(roots, orphans)`` span tree for one traced request."""
        return self.trace_store.tree(int(request_id))

    def dump_traces(self, path: str) -> int:
        """Write every held span record as JSONL; returns spans written."""
        return self.trace_store.dump_jsonl(path)

    def dump_flight_recorder(self, model: Optional[str] = None,
                             path: Optional[str] = None) -> Dict:
        """On-demand post-mortem: freeze each lane's ring (or one model's).

        Returns ``{model: dump}``; with ``path`` the combined dict is also
        written as JSON."""
        with self._lock:
            lanes = dict(self._lanes)
        if model is not None:
            lanes = {model: lanes[model]}   # KeyError for unknown models
        dumps = {name: lane.flight.dump("manual", model=name)
                 for name, lane in sorted(lanes.items())}
        if path is not None:
            with open(path, "w") as f:
                json.dump(dumps, f, indent=1, default=str)
        return dumps

    def profile_report(self, model: str, top: Optional[int] = None) -> Dict:
        """The sampled per-op breakdown folded from the lane's executors."""
        return self._lane(model).profile.report(top=top)

    def start_status_export(self, out_dir: str,
                            interval_s: float = 1.0) -> None:
        """Periodically write ``status.json`` + ``metrics.prom`` to a
        directory (atomic tmp+rename), the file-based stand-in for an HTTP
        endpoint that ``repro.cli top`` tails.  Stopped by :meth:`close`."""
        if self._exporter is not None:
            raise RuntimeError("status export already running")
        os.makedirs(out_dir, exist_ok=True)
        self._exporter_stop.clear()

        def _write() -> None:
            for fname, payload in (
                    ("status.json", json.dumps(self.status(), indent=1,
                                               default=str)),
                    ("metrics.prom", self.render_exposition())):
                tmp = os.path.join(out_dir, "." + fname + ".tmp")
                with open(tmp, "w") as f:
                    f.write(payload)
                os.replace(tmp, os.path.join(out_dir, fname))

        def _loop() -> None:
            while not self._exporter_stop.wait(interval_s):
                try:
                    _write()
                except Exception:   # an export glitch must not kill serving
                    pass
            try:
                _write()            # final snapshot on shutdown
            except Exception:
                pass

        self._exporter = threading.Thread(
            target=_loop, daemon=True, name="repro-server-status-export")
        self._exporter.start()

    def stop_status_export(self, timeout: float = 5.0) -> None:
        if self._exporter is None:
            return
        self._exporter_stop.set()
        self._exporter.join(timeout=timeout)
        self._exporter = None

    # ------------------------------------------------------- replica mode
    def drain(self) -> None:
        """Stop intake while letting every queued/in-flight request finish.

        The scale-in half of the fleet drain protocol: a draining server
        answers new :meth:`submit` calls with an already-resolved retryable
        :class:`~repro.server.types.Failed` (the router resubmits them on a
        peer replica) and keeps its lanes running until :meth:`drained`.
        Idempotent; finish with :meth:`close` once drained.
        """
        if not self.draining:
            self.draining = True
            telemetry.emit("server_draining",
                           pending=self.pending_count())

    def pending_count(self) -> int:
        """Requests this server still owes answers for: queued plus riding
        in-flight batches (a batch mid-execution counts as one — its exact
        size is not tracked outside its executor)."""
        total = 0
        with self._lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            with lane.cond:
                total += len(lane.queue) + lane.busy
        return total

    def drained(self) -> bool:
        """True once no lane holds queued or in-flight work."""
        return self.pending_count() == 0

    def healthy(self) -> bool:
        """Liveness for fleet health checks: accepting work and no crashed
        lane executor."""
        if self.closing or self.killed or self.draining:
            return False
        with self._lock:
            lanes = list(self._lanes.values())
        return not any(lane.dead for lane in lanes)

    def kill(self) -> None:
        """Abrupt replica death (the in-process stand-in for SIGKILL of a
        whole gateway process): every queued request resolves as a
        retryable :class:`~repro.server.types.Failed` *immediately* — no
        drain — so a fleet layer can requeue the lost work elsewhere, and
        the server refuses everything afterwards.  A batch an executor is
        already running still completes."""
        if self.killed:
            return
        self.killed = True
        self.closing = True
        with self._lock:
            lanes = list(self._lanes.values())
        telemetry.emit("server_killed", level="warning",
                       lanes=[lane.name for lane in lanes])
        for lane in lanes:
            lane._abort("replica killed")
            lane.close()        # wake the executors so they exit
        if self._scrubber is not None:
            self._scrubber.stop()
        self.stop_status_export()

    def close(self, timeout: float = 30.0) -> None:
        """Stop intake, drain every lane, stop the executor threads."""
        self.closing = True
        with self._lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.close()
        deadline = time.monotonic() + timeout
        for lane in lanes:
            for thread in lane.threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if self._scrubber is not None:
            self._scrubber.stop()
        self.stop_status_export()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
