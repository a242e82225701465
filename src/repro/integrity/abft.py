"""ABFT column-checksum verification for the compiled integer runtime.

Algorithm-based fault tolerance (Huang & Abraham) for the plan's conv ops:
at compile time :func:`attach_checksums` folds one *checksum row* per conv —
the per-group sum of the weight matrix over output channels — into the plan.
Because the runtime is exact integer arithmetic, the checksum identity

    sum_o acc[o] == conv(x, sum_o weight[o])

holds as a float64 *equality* whenever both sides stay below the 2^53
exact-integer limit (the width the ``plan.checksum-overflow`` lint rule
proves).  At execute time :class:`AbftChecker` runs an opt-in, 1-in-N
sampled check (the same piggyback cadence as
:class:`~repro.runtime.executor.OpProfiler`): after a sampled batch it reads
the still-live arena registers, recomputes one op's accumulator on the first
sample, and asserts two equalities —

* **column checksum**: the recomputed accumulator (live weights) against the
  checksum row captured at compile time — a flipped live weight breaks it;
* **output**: the requantized recomputation against the register the serving
  kernel actually wrote — a corrupted arena or mis-executed kernel breaks it.

Any mismatch raises the typed :class:`~repro.integrity.errors.SDCDetected`.
``mulquant`` ops carry no weight matrix, so their sampled check is the full
recompute-equality of the requant epilogue.
"""
from __future__ import annotations

import itertools
import threading
from typing import Dict, List, Optional

import numpy as np

from repro.integrity.errors import SDCDetected
from repro.runtime import kernels
from repro.tensor.im2col import im2col

#: integer magnitudes below this are exactly representable in float64, so
#: checksum comparisons computed in float64 are equalities, not tolerances
EXACT_F64_LIMIT = kernels.EXACT_F64_LIMIT

#: op kinds the sampled checker covers
ABFT_KINDS = ("conv_mq", "conv_mq_res", "mulquant")


def checksum_row_bound(weight: np.ndarray, bound: float) -> float:
    """Worst-case magnitude of the column-checksum accumulator.

    ``bound`` is the compiler's per-channel accumulator bound
    (``max_o sum_k |w_ok| * max|x|``); scaling it by the ratio of the total
    to the maximum per-channel absolute weight sum gives the exact worst
    case of ``sum_o |acc_o|``, which dominates every partial sum on both
    sides of the checksum identity.
    """
    per_channel = np.abs(weight.reshape(weight.shape[0], -1)
                         .astype(np.float64)).sum(axis=1)
    peak = float(per_channel.max(initial=0.0))
    if peak <= 0.0:
        return 0.0
    return float(bound) * float(per_channel.sum()) / peak


def attach_checksums(plan) -> Dict[str, int]:
    """Fold per-group weight checksum rows into ``plan`` (idempotent).

    Every conv gets a row while its checksum accumulator provably stays
    under the 2^53 float64-exact limit (``plan.checksum-overflow`` refuses a
    plan where it does not).  Returns ``{"attached": n, "skipped": m}`` and
    stores the rows on ``plan._abft_rows`` keyed by op index.
    """
    rows: Dict[int, np.ndarray] = {}
    skipped: List[Dict] = []
    for i, op in enumerate(plan.ops):
        if op.kind not in ("conv_mq", "conv_mq_res"):
            continue
        w = op.weight
        wm = np.ascontiguousarray(w, dtype=np.float64).reshape(w.shape[0], -1)
        o = wm.shape[0]
        ck_bound = checksum_row_bound(wm, op.bound)
        if ck_bound >= EXACT_F64_LIMIT:
            skipped.append({"index": i, "name": op.name,
                            "reason": f"checksum bound {ck_bound:.3g} "
                                      f"reaches 2^53"})
            continue
        g = op.groups
        # one checksum row per conv group: (g, 1, cg*kh*kw)
        rows[i] = wm.reshape(g, o // g, -1).sum(axis=1, keepdims=True)
    plan._abft_rows = rows
    plan._abft_skipped = skipped
    return {"attached": len(rows), "skipped": len(skipped)}


def read_register(arena, reg: int, limit: Optional[int] = None):
    """A register's batch-major ``(N, ...)`` value, or None if unavailable.

    Feature maps live in channel-major padded integer buffers; this
    transposes the valid center back to the float32 the interpreted
    datapath holds.  ``limit`` slices the leading sample axis (the checker
    verifies one sample, not the batch).
    """
    if reg in arena._cm_centers:
        c = arena._cm_centers[reg]
        if limit is not None:
            c = c[:, :limit]
        return np.ascontiguousarray(c.transpose(1, 0, 2, 3),
                                    dtype=np.float32)
    v = arena.regs[reg] if reg < len(arena.regs) else None
    if v is None:
        return None
    return v if limit is None else v[:limit]


class AbftChecker:
    """Sampled post-batch checksum verifier attached to one Plan.

    ``tick()`` advances a batch counter and is True every ``sample_every``-th
    batch; ``check(binding)`` then verifies one eligible op (round-robin) on
    the first sample of the just-executed batch, raising
    :class:`SDCDetected` on any mismatch.  Registers are written once per
    execution, so they are still live when the check runs.
    """

    def __init__(self, plan, sample_every: int = 16):
        if getattr(plan, "_abft_rows", None) is None:
            attach_checksums(plan)
        self.plan = plan
        self.sample_every = max(1, int(sample_every))
        # executor threads share the checker: next() on a count is atomic
        # under the GIL, and the lock guards the cursor and the counters
        self._ticks = itertools.count(1)
        self._cursor = 0
        self._lock = threading.Lock()
        self._targets = [
            i for i, op in enumerate(plan.ops)
            if (op.kind == "mulquant"
                or (op.kind in ("conv_mq", "conv_mq_res")
                    and i in plan._abft_rows))]
        self.checks = 0
        self.failures = 0

    def tick(self) -> bool:
        """Advance the batch counter; True when this batch is verified."""
        if not self._targets:
            return False
        return next(self._ticks) % self.sample_every == 0

    def check(self, binding) -> Optional[int]:
        """Verify the next target op against the calling thread's live
        binding; returns the op index."""
        with self._lock:
            i = self._targets[self._cursor % len(self._targets)]
            self._cursor += 1
        op = self.plan.ops[i]
        try:
            if op.kind == "mulquant":
                self._check_mulquant(i, op, binding.arena)
            else:
                self._check_conv(i, op, binding.arena)
        except SDCDetected:
            with self._lock:
                self.failures += 1
            raise
        with self._lock:
            self.checks += 1
        return i

    # ------------------------------------------------------------- checks
    def _detail(self, i, op, check: str) -> Dict:
        return {"op_index": i, "op": op.name, "kind": op.kind,
                "check": check, "model": self.plan.model_name}

    def _check_conv(self, i, op, arena) -> None:
        x = read_register(arena, op.src[0], limit=1)
        served = read_register(arena, op.dst, limit=1)
        if x is None or served is None:
            return
        o, oh, ow = arena.shapes[op.dst]
        _, cg, kh, kw = op.weight.shape
        g, n, plane = op.groups, x.shape[0], oh * ow
        cols = im2col(x, kh, kw, op.stride, op.padding).astype(np.float64)
        wm = op.weight.reshape(o, cg * kh * kw).astype(np.float64)
        crow = self.plan._abft_rows[i]
        if g == 1:
            acc = np.matmul(wm, cols)                      # (n, o, plane)
            csum = np.matmul(crow[0], cols)                # (n, 1, plane)
            colsum = acc.sum(axis=1, keepdims=True)
        else:
            colsg = cols.reshape(n, g, cg * kh * kw, plane)
            accg = np.matmul(wm.reshape(g, o // g, -1)[None], colsg)
            csum = np.matmul(crow[None], colsg)            # (n, g, 1, plane)
            colsum = accg.sum(axis=2, keepdims=True)
            acc = accg.reshape(n, o, plane)
        if not np.array_equal(colsum, csum):
            raise SDCDetected(
                "abft", f"column checksum mismatch on {op.kind} op "
                        f"[{i}] {op.name} — live weights diverge from the "
                        f"compile-time checksum row",
                self._detail(i, op, "column-checksum"))
        acc = acc.reshape(n, o, oh, ow)
        if op.kind == "conv_mq":
            y = kernels.requant(acc, op.mq)
        else:
            shortcut = read_register(arena, op.src[1], limit=1)
            if shortcut is None:
                return
            y = kernels.requant_residual(acc, shortcut, op.mq,
                                         op.res_scale, op.res_lo,
                                         op.res_hi, op.smq)
        if not np.array_equal(y, served):
            raise SDCDetected(
                "abft", f"output mismatch on {op.kind} op [{i}] {op.name} "
                        f"— the served register diverges from the checked "
                        f"recomputation",
                self._detail(i, op, "output"))

    def _check_mulquant(self, i, op, arena) -> None:
        x = read_register(arena, op.src[0], limit=1)
        served = read_register(arena, op.dst, limit=1)
        if x is None or served is None:
            return
        if not np.array_equal(kernels.requant(x, op.mq), served):
            raise SDCDetected(
                "abft", f"output mismatch on mulquant op [{i}] {op.name} "
                        f"— the served register diverges from the requant "
                        f"recomputation",
                self._detail(i, op, "output"))
