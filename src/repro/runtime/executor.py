"""Plan: the executable compiled program.

``Plan.compile(qnn)`` compiles once; ``plan(batch)`` executes the flat op
list against a per-(batch-shape) binding — preallocated buffers, cached
gather indices, pre-broadcast requant constants — created lazily on the
first batch of each shape and reused for every subsequent one.

A plan is safe to call from many threads at once.  The constants (ops,
packed weights, requant parameters, checksum rows) are shared; each calling
thread gets its own bindings (arena, kernel scratch, prepared calls), so
concurrent calls never share a buffer.  The native kernels release the GIL,
which is how several threads over one plan use several cores.

Per-op wall time is accumulated always (one ``perf_counter`` read per op);
when the global telemetry switch is on, every op additionally opens a
telemetry span (``plan.<kind>``) so the Chrome trace shows the per-op
breakdown of every batch.
"""
from __future__ import annotations

import collections
import itertools
import threading
import time
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.runtime.arena import Arena, plan_pads
from repro.runtime.kernels import new_sig
from repro.runtime.spec import CompileSpec


class OpProfiler:
    """Opt-in, sampled per-op profiling attached to one :class:`Plan`.

    The plan already times every op of every batch to keep
    ``_op_seconds`` current, so the profiler adds *no timing calls to the
    hot path*: on every ``sample_every``-th batch it folds that batch's own
    per-op seconds into a :class:`~repro.telemetry.obs.ProfileAggregator`
    (concurrent batches on other threads never leak into a sample).
    ``pop_last`` hands the calling thread's newest sampled batch to the
    serving lane, which folds it into the lane's profile.
    """

    def __init__(self, plan: "Plan", sample_every: int = 16):
        from repro.telemetry.obs import ProfileAggregator

        self.plan = plan
        self.sample_every = max(1, int(sample_every))
        self.aggregator = ProfileAggregator()
        self._ticks = itertools.count(1)   # next() is atomic under the GIL
        self._local = threading.local()

    def tick(self) -> bool:
        """Advance the batch counter; True when this batch is sampled."""
        return next(self._ticks) % self.sample_every == 0

    def record(self, delta, wall_s: float) -> None:
        """Fold one sampled batch's per-op second deltas into the report.

        A fused op's delta is split across its constituent source layers
        (shares sum to 1.0), so attribution stays on real module names and
        the total attributed time — hence the ≥90% wall-attribution
        invariant — is unchanged by fusion.
        """
        ops = self.plan.ops
        rows = []
        for i, dt in enumerate(delta):
            if dt > 0.0:
                for kind, name, share in ops[i].constituents():
                    rows.append((kind, name, float(dt) * share))
        self._local.last = (rows, float(wall_s))
        self.aggregator.add(rows, wall_s)

    def pop_last(self):
        """``(rows, wall_s)`` of the newest batch this thread sampled, once;
        else None."""
        last = getattr(self._local, "last", None)
        self._local.last = None
        return last

    def report(self, top=None) -> Dict:
        return self.aggregator.report(top=top)


class _Binding:
    """A plan bound to one concrete (batch size, input shape) for one
    thread: the arena, its kernel scratch and the prepared op calls."""

    def __init__(self, plan: "Plan", in_shape: Tuple[int, ...]):
        from repro.runtime import ckernel

        self.shape = tuple(in_shape)
        n, sample_shape = in_shape[0], tuple(in_shape[1:])
        self.arena = Arena(
            n, plan.num_regs, ck=ckernel.load(),
            # the C ABI seats at most 16 workers
            threads=max(1, min(16, plan.spec.resolved_threads())))
        self.arena.shapes[0] = sample_shape
        for op in plan.ops:
            self.arena.shapes[op.dst] = op.infer(self.arena.shapes)
            self.arena.dtypes[op.dst] = op.out_dtype(self.arena.dtypes)
        self.arena.pads = plan_pads(plan.ops, self.arena.shapes)
        self.arena.pads.pop(0, None)  # register 0 is the raw input
        self.fns = [op.bind(self.arena) for op in plan.ops]
        # per op: did it bind its native-kernel body (else numpy reference)
        self.native = tuple(getattr(fn, "native", False) for fn in self.fns)


class _ThreadBindings(threading.local):
    """The calling thread's bindings of one plan, by input shape."""

    def __init__(self):
        self.by_shape: Dict[Tuple[int, ...], _Binding] = {}


def check_finite(x: np.ndarray) -> None:
    """The input contract: hardware has no NaN or infinity, so a
    non-finite input is refused with a ``ValueError`` naming its first
    position instead of being cast onto the integer input grid."""
    if not np.isfinite(x).all():
        pos = tuple(int(i) for i in np.argwhere(~np.isfinite(x))[0])
        raise ValueError(f"non-finite input {x[pos]} at position {pos}")


class Plan:
    """A compiled, bit-exact, batched executor for a re-packed deploy model."""

    def __init__(self, ops: List, num_regs: int, output_reg: int,
                 model_name: str, out_features: int,
                 spec: Optional[CompileSpec] = None):
        self.ops = ops
        self.num_regs = num_regs
        self.output_reg = output_reg
        self.model_name = model_name
        self.out_features = out_features
        # the compile configuration this program was built under — embedded
        # in verification reports and manifests
        self.spec = spec if spec is not None else CompileSpec()
        self.fusion_stats: Dict[str, int] = {"fused": 0, "folded_smq": 0}
        self.slots: Optional[Dict[int, int]] = None  # reg -> arena slot map
        self._profiler: Optional[OpProfiler] = None
        self._verification = None  # cached default-config verify() report
        self._abft = None          # sampled AbftChecker when enabled
        self._abft_rows = None     # compile-time checksum rows (op index ->)
        self._scrub_baseline = None  # CRC32 constant baseline for scrubbing
        self.__dict__.update(self._fresh_state())

    def _fresh_state(self) -> Dict:
        """Execution state no two plans (or copies) may share."""
        return {
            "_tls": _ThreadBindings(),
            # every live binding of every thread (scrub, ABFT, chaos)
            "_live": weakref.WeakSet(),
            "_bind_seq": itertools.count(),   # stable live_bindings order
            "_lock": threading.Lock(),   # guards _live and the op stats
            "_op_seconds": np.zeros(len(self.ops), dtype=np.float64),
            "_op_calls": np.zeros(len(self.ops), dtype=np.int64),
            "_batches": 0,
        }

    def __deepcopy__(self, memo):
        """Deep-copy with *fresh* execution state.

        The kernel closures cached in ``_Binding.fns`` capture their arena
        (and the source op's packed weights) by reference, and Python
        functions are atomic under ``deepcopy`` — so naively copying a plan
        that has already executed would leave the copy's bindings writing
        into the *original* plan's buffers while its own output register
        stays stale.  Replication (fleet ``materialize``) deepcopies served
        bundles, so the copy must rebind from scratch; the profiler/ABFT
        checkers likewise hold back-references and are re-attached by their
        owners on the copy.
        """
        import copy as _copy

        cls = self.__class__
        new = cls.__new__(cls)
        memo[id(self)] = new
        fresh = dict(_profiler=None, _abft=None, **self._fresh_state())
        for k, v in self.__dict__.items():
            if k in fresh:
                new.__dict__[k] = fresh[k]
            else:
                new.__dict__[k] = _copy.deepcopy(v, memo)
        return new

    # ------------------------------------------------------------ bindings
    def live_bindings(self) -> List[_Binding]:
        """Every live binding of every thread, oldest first per shape."""
        with self._lock:
            live = list(self._live)
        return sorted(live, key=lambda b: (b.shape, b.seq))

    def drop_bindings(self) -> None:
        """Forget every thread's bindings (after mutating the op list);
        each thread rebinds on its next call."""
        with self._lock:
            self._tls = _ThreadBindings()
            self._live = weakref.WeakSet()

    def _bind(self, shape: Tuple[int, ...]) -> _Binding:
        with telemetry.trace("plan.bind", shape=str(shape)):
            binding = _Binding(self, shape)
        with self._lock:
            binding.seq = next(self._bind_seq)
            self._live.add(binding)
        self._tls.by_shape[shape] = binding
        return binding

    # ------------------------------------------------------------- factory
    @classmethod
    def compile(cls, qnn, spec: Optional[CompileSpec] = None) -> "Plan":
        """Compile the deploy-ready model from ``T2C.nn2chip()``.

        The compiler picks fusion and tiling itself; ``spec`` (see
        :class:`repro.runtime.CompileSpec`) carries the thread count.
        """
        from repro.runtime.compiler import compile_program

        with telemetry.trace("plan.compile", model=type(qnn).__name__):
            plan = compile_program(qnn, spec)
        plan.capture_integrity_baseline()
        telemetry.emit("plan_compile", model=plan.model_name,
                       ops=len(plan.ops), registers=plan.num_regs,
                       fused_chains=plan.fusion_stats["fused"])
        return plan

    # -------------------------------------------------------- verification
    def verify(self, accum_bits: int = 32, input_shape=None,
               module_bits=None, require_po2: bool = False,
               refresh: bool = False):
        """Statically verify this program (see :func:`repro.lint.plan.verify_plan`).

        The default-configuration report is cached on the plan — the
        registry gate re-checks registers and swaps for free.  Pass
        ``refresh=True`` after mutating the op list (tests, chaos harness)
        to force a re-proof.
        """
        from repro.lint.plan import verify_plan

        default = (accum_bits == 32 and input_shape is None
                   and module_bits is None and not require_po2)
        if default and not refresh and self._verification is not None:
            return self._verification
        report = verify_plan(self, accum_bits=accum_bits,
                             input_shape=input_shape,
                             module_bits=module_bits,
                             require_po2=require_po2)
        if default:
            self._verification = report
        return report

    # ----------------------------------------------------------- execution
    def __call__(self, batch) -> np.ndarray:
        """Run one batch; returns the logits array, bit-exact vs. the tree.
        Raises ``ValueError`` on a non-finite input (:func:`check_finite`)."""
        clock = time.perf_counter
        t_in = clock()   # the profile's wall: input handling and every op
        x = np.ascontiguousarray(
            np.asarray(getattr(batch, "data", batch), dtype=np.float32))
        check_finite(x)
        binding = self._tls.by_shape.get(x.shape)
        if binding is None:
            binding = self._bind(x.shape)
            t_in = clock()   # a one-off bind is setup, not batch time
        regs = binding.arena.regs
        regs[0] = x
        stamps = [clock()]   # stamps[i + 1] - stamps[i]: op i's seconds
        stamp = stamps.append
        try:
            if telemetry.enabled():
                with telemetry.trace("plan.batch", model=self.model_name,
                                     batch=x.shape[0]):
                    for op, fn in zip(self.ops, binding.fns):
                        with telemetry.trace(f"plan.{op.kind}", op=op.name):
                            fn()
                            stamp(clock())
            else:
                for fn in binding.fns:
                    fn()
                    stamp(clock())
        finally:
            delta = np.diff(stamps)
            ran = len(delta)
            with self._lock:
                self._op_seconds[:ran] += delta
                self._op_calls[:ran] += 1
                self._batches += 1
        prof = self._profiler
        if prof is not None and prof.tick():
            prof.record(delta, stamps[-1] - t_in)
        abft = self._abft
        if abft is not None and abft.tick():
            # this thread's registers stay live until its next batch, so
            # the sampled checker reads them in place; a mismatch raises
            # SDCDetected and the batch fails instead of serving corrupted
            # logits
            abft.check(binding)
        return regs[self.output_reg].copy()

    def serve(self, batches: Iterable, workers: int = 0
              ) -> Iterator[np.ndarray]:
        """Stream logits for an iterable of batches, in input order (the
        *offline* batch API; single-request traffic goes through
        :class:`repro.server.Server`).

        ``workers >= 2`` runs that many threads over this one plan, each
        with its own bindings, at most ``2 * workers`` batches ahead of the
        consumer; otherwise batches run inline.  A batch that raises
        re-raises here, in order.
        """
        if workers < 2:
            for b in batches:
                yield self(b)
            return
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers,
                                thread_name_prefix="repro-plan-serve") as pool:
            ahead: collections.deque = collections.deque()
            try:
                for b in batches:
                    ahead.append(pool.submit(self, b))
                    if len(ahead) >= 2 * workers:
                        yield ahead.popleft().result()
                while ahead:
                    yield ahead.popleft().result()
            finally:
                for fut in ahead:   # consumer left early or a batch raised
                    fut.cancel()

    # ------------------------------------------------------------ integrity
    def capture_integrity_baseline(self) -> None:
        """Capture the SDC-defense baseline (checksum rows + constant CRCs).

        Called by :meth:`compile`; idempotent and cheap (one pass over the
        constant arrays), and re-runnable after an intentional mutation
        (tests, chaos harness) to re-baseline.
        """
        from repro.integrity import attach_checksums, snapshot_constants

        attach_checksums(self)
        self._scrub_baseline = snapshot_constants(self)

    def enable_abft(self, sample_every: int = 16):
        """Attach (or replace) the sampled ABFT checker; returns it.

        Every ``sample_every``-th batch one eligible op (round-robin) is
        verified against its compile-time checksum row and the live arena;
        a mismatch raises :class:`~repro.integrity.SDCDetected` from the
        offending ``plan(batch)`` call.
        """
        from repro.integrity import AbftChecker

        self._abft = AbftChecker(self, sample_every=sample_every)
        return self._abft

    def disable_abft(self) -> None:
        self._abft = None

    def scrub(self):
        """One synchronous scrub pass (constant CRCs + arena guards)."""
        from repro.integrity import scrub_plan

        return scrub_plan(self)

    # ----------------------------------------------------------- profiling
    def enable_profiling(self, sample_every: int = 16) -> OpProfiler:
        """Attach (or replace) the sampled per-op profiler; returns it."""
        self._profiler = OpProfiler(self, sample_every=sample_every)
        return self._profiler

    def disable_profiling(self) -> None:
        self._profiler = None

    def profile_report(self, top=None) -> Optional[Dict]:
        """The sampled profile breakdown, or ``None`` when never enabled."""
        return None if self._profiler is None else self._profiler.report(top)

    # ----------------------------------------------------------- reporting
    def reset_op_stats(self) -> None:
        """Zero the per-op timing accumulators (e.g. after warm-up)."""
        with self._lock:
            self._op_seconds[:] = 0.0
            self._op_calls[:] = 0
            self._batches = 0

    def op_report(self) -> List[Dict]:
        """Per-op cumulative timing rows, hottest first.

        Fused ops are expanded into their constituent source layers with
        their wall time split by work share, so the report keeps naming the
        layers of the unfused program (and the seconds still sum to the
        true total).
        """
        total = float(self._op_seconds.sum()) or 1.0
        rows = []
        for i, op in enumerate(self.ops):
            secs = float(self._op_seconds[i])
            for kind, name, share in op.constituents():
                rows.append({
                    "index": i,
                    "kind": kind,
                    "name": name,
                    "calls": int(self._op_calls[i]),
                    "seconds": secs * share,
                    "share": secs * share / total,
                })
        return sorted(rows, key=lambda r: -r["seconds"])

    def signature(self) -> str:
        """Content hash of the full program (ops, wiring and parameters).

        Two compiles of the same model produce identical signatures — the
        determinism contract tested in ``tests/runtime``.
        """
        h = new_sig()
        h.update(repr((self.model_name, self.num_regs, self.output_reg)).encode())
        for op in self.ops:
            op.sig_update(h)
        return h.hexdigest()

    def describe(self) -> str:
        """Human-readable program listing."""
        lines = [f"plan for {self.model_name}: {len(self.ops)} ops, "
                 f"{self.num_regs} registers, output r{self.output_reg}"]
        for i, op in enumerate(self.ops):
            lines.append(f"  [{i:3d}] {op.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Plan(model={self.model_name}, ops={len(self.ops)}, "
                f"regs={self.num_regs})")
