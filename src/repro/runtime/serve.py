"""Throughput mode: shard a batch stream across a worker pool.

Workers are forked so they inherit the compiled plan (weights, buffers,
cached indices) by copy-on-write — nothing is pickled.  Each in-flight batch
occupies one shared-memory slot pair (input / output), so the only per-batch
IPC is two small queue messages; the arrays themselves never cross the pipe.
Results are re-ordered to input order before being yielded.

The pool itself is factored out as :class:`PlanPool` so that the online
gateway (:mod:`repro.server`) can supervise it directly: the parent never
blocks indefinitely on the done queue — every wait carries a timeout and a
liveness check, so a crashed/SIGKILLed worker surfaces as a typed
:class:`WorkerDied` (naming the in-flight batches) instead of a hang, and
:meth:`PlanPool.respawn` rebuilds the pool for callers that want to requeue
and continue rather than abort.

``serve_batches`` falls back to inline execution when ``workers < 2``, when
the platform has no ``fork`` start method, or for oversized batches that do
not fit the slots sized from the first batch.
"""
from __future__ import annotations

import collections
import queue as _qmod
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.telemetry import state as _tstate

#: how long one ``done.get`` blocks between pool liveness checks
_POLL_S = 0.2


def _can_fork() -> bool:
    import multiprocessing as mp

    try:
        return "fork" in mp.get_all_start_methods()
    except Exception:
        return False


class WorkerDied(RuntimeError):
    """A pool worker exited abnormally while the pool was serving.

    Workers only ever exit through the ``None`` shutdown sentinel, so any
    observed death (crash, OOM kill, SIGKILL) is abnormal.  ``in_flight``
    names the batch sequence numbers whose results can no longer be trusted
    to arrive; the caller decides whether to abort (offline ``serve``) or
    requeue-and-respawn (the online gateway).
    """

    def __init__(self, message: str, in_flight: Tuple[int, ...] = (),
                 exitcodes: Tuple[Optional[int], ...] = ()):
        super().__init__(message)
        self.in_flight = tuple(in_flight)
        self.exitcodes = tuple(exitcodes)


class BatchFailed(RuntimeError):
    """The plan raised inside a worker for one specific batch.

    Deterministic (the same batch fails inline too), so not retryable —
    unlike :class:`WorkerDied`.
    """

    def __init__(self, seq: int, message: str):
        super().__init__(message)
        self.seq = seq


def _worker_main(plan, tasks, done, in_names, out_names, slot_shape,
                 out_features, profile_every=0):
    """Worker loop: map a shared-memory input slot to its output slot.

    Tasks are ``(seq, slot, n, trace)`` where ``trace`` is ``None`` (the
    zero-overhead common case) or a list of ``(trace_id, parent_span_id)``
    wire tuples — one per request in the batch.  Completions are
    ``(seq, slot, n, err, extra)``; ``extra`` is ``None`` unless the batch
    was traced and/or profile-sampled, in which case it carries the
    worker-minted span records and/or the per-op timing rows back to the
    gateway.  Span timestamps are ``perf_counter`` (CLOCK_MONOTONIC), so
    they join the parent's gateway spans on one clock.
    """
    import os
    from multiprocessing import shared_memory

    from repro.telemetry import tracing

    # Workers are throughput engines; the parent keeps telemetry (a fork
    # inherits the enabled flag, and per-op spans from N processes would
    # interleave into one meaningless trace).  The suppression is a guard,
    # not a bare disable(), so running this loop in-process (tests, inline
    # fallback re-entry) leaves the caller's telemetry state untouched.
    in_shms = [shared_memory.SharedMemory(name=nm) for nm in in_names]
    out_shms = [shared_memory.SharedMemory(name=nm) for nm in out_names]
    max_n = slot_shape[0]
    span_prefix = f"w{os.getpid()}"
    prof = None
    if profile_every and hasattr(plan, "enable_profiling"):
        prof = plan.enable_profiling(sample_every=profile_every)
    try:
        with _tstate.suppressed():
            while True:
                task = tasks.get()
                if task is None:
                    return
                seq, slot, n, trace = task
                try:
                    x = np.ndarray(slot_shape, dtype=np.float32,
                                   buffer=in_shms[slot].buf)[:n]
                    t0 = time.perf_counter()
                    y = plan(x)
                    t1 = time.perf_counter()
                    out = np.ndarray((max_n, out_features), dtype=np.float32,
                                     buffer=out_shms[slot].buf)
                    out[:n] = y
                    extra = None
                    if trace:
                        extra = {"spans": [
                            tracing.span_record(
                                trace_id, "worker.exec", t0, t1,
                                parent_id=parent_id,
                                span_id=tracing.new_span_id(span_prefix),
                                proc="worker", attrs={"n": n, "seq": seq})
                            for trace_id, parent_id in trace]}
                    if prof is not None:
                        sampled = prof.pop_last()
                        if sampled is not None:
                            rows, wall_s = sampled
                            extra = extra or {}
                            extra["profile"] = {"rows": rows,
                                                "wall_s": wall_s}
                    done.put((seq, slot, n, None, extra))
                except Exception as exc:  # surface, don't hang the parent
                    done.put((seq, slot, n,
                              f"{type(exc).__name__}: {exc}", None))
    finally:
        for shm in in_shms + out_shms:
            shm.close()


class PlanPool:
    """Forked worker pool over one compiled plan with shared-memory I/O.

    Slots are sized once from ``slot_shape`` (``(max_batch, *sample)``); a
    batch fits when it matches the sample shape and is no larger than the
    slot.  The pool is deliberately passive — callers drive it::

        pool = PlanPool(plan, (max_n, C, H, W), workers=4)
        pool.submit(seq, x)                  # needs pool.free_slots > 0
        seq, logits = pool.wait_one()        # raises WorkerDied / BatchFailed
        pool.respawn()                       # after WorkerDied: fresh procs,
                                             # caller re-submits in-flight work
        pool.close()
    """

    def __init__(self, plan, slot_shape: Tuple[int, ...], workers: int,
                 slots: Optional[int] = None, profile_every: int = 0):
        if workers < 2:
            raise ValueError("PlanPool needs workers >= 2")
        if not _can_fork():
            raise RuntimeError("PlanPool requires the 'fork' start method")
        import multiprocessing as mp
        from multiprocessing import shared_memory

        self.plan = plan
        self.slot_shape = tuple(int(s) for s in slot_shape)
        self.max_n = self.slot_shape[0]
        self.workers = workers
        self.profile_every = int(profile_every)
        self.nslots = int(slots) if slots else workers * 2
        self._ctx = mp.get_context("fork")
        item = np.prod(self.slot_shape[1:], dtype=np.int64)
        self._in_shms = [shared_memory.SharedMemory(
            create=True, size=int(self.max_n * item * 4))
            for _ in range(self.nslots)]
        self._out_shms = [shared_memory.SharedMemory(
            create=True, size=int(self.max_n * plan.out_features * 4))
            for _ in range(self.nslots)]
        self._free = collections.deque(range(self.nslots))
        #: seq -> (slot, n) for batches handed to the pool, not yet returned
        self.in_flight: Dict[int, Tuple[int, int]] = {}
        self._tasks = None
        self._done = None
        self.procs: List = []
        self.respawns = 0
        self._spawn()

    # ------------------------------------------------------------ lifecycle
    def _spawn(self) -> None:
        self._tasks = self._ctx.Queue()
        self._done = self._ctx.Queue()
        self.procs = [self._ctx.Process(
            target=_worker_main,
            args=(self.plan, self._tasks, self._done,
                  [s.name for s in self._in_shms],
                  [s.name for s in self._out_shms],
                  self.slot_shape, self.plan.out_features,
                  self.profile_every),
            daemon=True) for _ in range(self.workers)]
        for proc in self.procs:
            proc.start()

    def _kill_procs(self) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        self.procs = []

    def _drop_queues(self) -> None:
        # A SIGKILLed worker can die holding a queue lock, poisoning it for
        # every later reader — respawn therefore abandons the old queue pair
        # entirely instead of draining it.
        for q in (self._tasks, self._done):
            if q is not None:
                try:
                    q.cancel_join_thread()
                    q.close()
                except Exception:
                    pass
        self._tasks = self._done = None

    def respawn(self) -> None:
        """Kill everything and restart with fresh queues and empty slots.

        All in-flight state is dropped — the caller owns the requeue policy
        (the gateway re-submits each lost batch exactly once).
        """
        self._kill_procs()
        self._drop_queues()
        self.in_flight.clear()
        self._free = collections.deque(range(self.nslots))
        self.respawns += 1
        self._spawn()

    def close(self) -> None:
        """Graceful shutdown: sentinel every worker, then reap and unlink."""
        if self._tasks is not None:
            for _ in self.procs:
                try:
                    self._tasks.put(None)
                except Exception:
                    break
        self._kill_procs()
        self._drop_queues()
        for shm in self._in_shms + self._out_shms:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._in_shms = []
        self._out_shms = []

    # ------------------------------------------------------------ data path
    @property
    def free_slots(self) -> int:
        return len(self._free)

    def fits(self, x: np.ndarray) -> bool:
        return (x.shape[0] <= self.max_n
                and tuple(x.shape[1:]) == self.slot_shape[1:])

    def submit(self, seq: int, x: np.ndarray, trace=None) -> None:
        """Copy ``x`` into a free slot and enqueue it for the workers.

        ``trace`` (optional) is a list of ``(trace_id, parent_span_id)``
        wire tuples, one per request in the batch; the worker answers with
        a ``worker.exec`` span record under each parent.
        """
        if not self._free:
            raise RuntimeError("PlanPool.submit with no free slot")
        if not self.fits(x):
            raise ValueError(
                f"batch shape {x.shape} does not fit slot {self.slot_shape}")
        slot = self._free.popleft()
        view = np.ndarray(self.slot_shape, dtype=np.float32,
                          buffer=self._in_shms[slot].buf)
        view[:x.shape[0]] = x
        self.in_flight[seq] = (slot, x.shape[0])
        self._tasks.put((seq, slot, x.shape[0], trace))

    def _check_alive(self) -> None:
        dead = [p for p in self.procs if not p.is_alive()]
        if dead:
            raise WorkerDied(
                f"{len(dead)}/{len(self.procs)} plan worker(s) died "
                f"(exit codes {[p.exitcode for p in dead]}) with "
                f"{len(self.in_flight)} batch(es) in flight: "
                f"{sorted(self.in_flight)}",
                in_flight=sorted(self.in_flight),
                exitcodes=tuple(p.exitcode for p in dead))

    def wait_one(self, timeout: Optional[float] = None) -> Tuple[int, np.ndarray]:
        """Block for one completion; never hangs on a dead pool.

        Raises :class:`WorkerDied` the moment any worker is observed dead,
        :class:`BatchFailed` when the plan raised for a batch, and
        ``TimeoutError`` when ``timeout`` elapses with all workers healthy.
        """
        seq, out, _extra = self.wait_one_ex(timeout)
        return seq, out

    def wait_one_ex(self, timeout: Optional[float] = None
                    ) -> Tuple[int, np.ndarray, Optional[Dict]]:
        """Like :meth:`wait_one` but also returns the worker's observability
        payload: ``None``, or a dict with ``spans`` (worker span records for
        a traced batch) and/or ``profile`` (sampled per-op timing rows)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._check_alive()
            wait = _POLL_S
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    raise TimeoutError("no completion within timeout")
            try:
                seq, slot, n, err, extra = self._done.get(timeout=wait)
            except _qmod.Empty:
                continue
            self.in_flight.pop(seq, None)
            self._free.append(slot)
            if err is not None:
                raise BatchFailed(seq, f"plan worker failed on batch {seq}: {err}")
            out = np.ndarray((self.max_n, self.plan.out_features),
                             dtype=np.float32, buffer=self._out_shms[slot].buf)
            return seq, out[:n].copy(), extra


def serve_batches(plan, batches: Iterable, workers: int = 0,
                  pool_hook=None) -> Iterator[np.ndarray]:
    """Stream logits for ``batches`` in input order (see module docstring).

    ``pool_hook`` is the supervision hook: called once with the live
    :class:`PlanPool` right after it spawns, so callers (gateway, tests) can
    watch or perturb the pool without threading state through the generator.
    """
    batches = iter(batches)
    if workers < 2 or not _can_fork():
        for b in batches:
            yield plan(b)
        return

    try:
        first = next(batches)
    except StopIteration:
        return
    first = np.ascontiguousarray(np.asarray(
        getattr(first, "data", first), dtype=np.float32))
    yield from _serve_pool(plan, first, batches, workers, pool_hook)


def _serve_pool(plan, first: np.ndarray, rest: Iterator, workers: int,
                pool_hook=None) -> Iterator[np.ndarray]:
    pool = PlanPool(plan, first.shape, workers)
    if pool_hook is not None:
        pool_hook(pool)
    telemetry.emit("plan_serve_start", workers=workers, slots=pool.nslots,
                   model=plan.model_name)

    pending = {}      # seq -> logits, completed out of order
    inline = {}       # seq -> logits computed in the parent (oversized batch)
    next_yield = 0
    seq = 0
    exhausted = False

    def submit(batch) -> None:
        nonlocal seq
        x = np.ascontiguousarray(np.asarray(
            getattr(batch, "data", batch), dtype=np.float32))
        if not pool.fits(x):
            inline[seq] = plan(x)  # shape outgrew the slots: run it here
        else:
            pool.submit(seq, x)
        seq += 1

    try:
        submit(first)
        while True:
            while not exhausted and pool.free_slots:
                try:
                    submit(next(rest))
                except StopIteration:
                    exhausted = True
            while next_yield in pending or next_yield in inline:
                store = pending if next_yield in pending else inline
                yield store.pop(next_yield)
                next_yield += 1
            if not pool.in_flight:
                if exhausted:
                    break
                continue
            try:
                got_seq, out = pool.wait_one()
            except WorkerDied as exc:
                raise RuntimeError(
                    f"plan.serve worker died mid-stream; in-flight batches "
                    f"{list(exc.in_flight)} are lost (exit codes "
                    f"{list(exc.exitcodes)})") from exc
            except BatchFailed as exc:
                raise RuntimeError(str(exc)) from exc
            pending[got_seq] = out
    finally:
        pool.close()
