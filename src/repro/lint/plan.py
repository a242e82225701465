"""Plan IR verifier: dataflow, aliasing, overflow and shift proofs.

The module-graph passes in :mod:`repro.lint.engine` verify the *model*; this
pass verifies the thing that actually serves traffic — the compiled
:class:`repro.runtime.executor.Plan`.  Four proofs over the flat op list:

* **dataflow / liveness** — a def-use graph over the SSA register file
  (every register written exactly once, register 0 is the model input).
  Reads of never- or later-defined registers are ``plan.dead-read`` errors,
  double writes are ``plan.alias`` errors.  The computed live ranges are the
  fusion-legality oracle: :meth:`PlanLiveness.dead_after` answers "which
  intermediates are dead here and safe to fuse away".
* **no-alias soundness** — under an optional register→arena-slot map
  (``Plan.slots``, identity today; any buffer-sharing pass must install one)
  two registers sharing a slot must have strictly disjoint live ranges, so
  no op ever reads a register after its slot was reused.
* **overflow safety** — interval abstract interpretation over the op list,
  mirroring the module-level engine's semantics kind by kind.  Every MAC
  site gets an accumulator row (``min_signed_bits`` vs ``accum_bits``), each
  ``ConvMQOp``'s compile-time accumulator ``bound`` is re-derived from the
  verifier's own propagated input range — a stale bound is a
  ``plan.accum-overflow`` error — a ``native`` conv's integer-kernel
  operands (8-bit input codes, int8 weights, int32-safe accumulator) are
  re-proved (``plan.kernel-operand``), every sum still done in float32
  (linear, attention, MLP, head, residual) is proved below 2^24
  (``plan.inexact-accum``), every conv's checksum accumulator
  is proved float64-exact (``plan.checksum-overflow``), and the rows are
  cross-checked against the module-level ``min_accum_bits`` proof when the
  caller provides it.
* **shift-exactness** — a per-requant certificate whether the scale is an
  exact power of two with an integral bias (the precondition for the po2
  shift-only deploy mode); ``require_po2=True`` turns a failed certificate
  into a ``plan.shift-inexact`` error.

Findings use the stable ``plan.*`` rules in :mod:`repro.lint.findings`; the
report gates :func:`repro.core.deploy`, ``ModelRegistry.register`` /
``set_active`` and ``Server.swap`` via :class:`PlanVerificationError`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lint.findings import (
    WARN,
    Finding,
    findings_summary,
    findings_to_json,
    has_errors,
    make_finding,
    reaches_severity,
    render_findings,
)
from repro.lint.intervals import (Interval, accum_bounds, min_signed_bits,
                                  requant)
from repro.runtime.kernels import (EXACT_F32_LIMIT, EXACT_F64_LIMIT,
                                   EXACT_I32_LIMIT)


class PlanVerificationError(RuntimeError):
    """A compiled plan failed verification; carries the full report."""

    def __init__(self, report: "PlanVerificationReport"):
        self.report = report
        s = findings_summary(report.findings)
        rules = sorted({f.rule for f in report.findings if f.severity == "ERROR"})
        super().__init__(
            f"plan verification failed for {report.model_name}: "
            f"{s['errors']} error(s) ({', '.join(rules)})")


# ====================================================================== #
# dataflow / liveness                                                    #
# ====================================================================== #

@dataclass
class PlanLiveness:
    """Def-use graph and live ranges over a plan's register file.

    Op indices run 0..n-1; the def site of register 0 (the model input) is
    -1 and the output register's last use is n (it must survive the whole
    program).  This is the oracle a fusion/buffer-sharing pass queries.
    """

    num_ops: int
    output_reg: int
    defs: Dict[int, int] = field(default_factory=dict)    #: reg -> def index
    uses: Dict[int, List[int]] = field(default_factory=dict)  #: reg -> read indices

    def last_use(self, reg: int) -> int:
        """Index of the last read (the def index for never-read registers)."""
        if reg == self.output_reg:
            return self.num_ops
        reads = self.uses.get(reg)
        return max(reads) if reads else self.defs.get(reg, -1)

    def live_range(self, reg: int) -> Tuple[int, int]:
        """``[def, last_use]`` — the span during which the value must survive."""
        return self.defs.get(reg, -1), self.last_use(reg)

    def dead_after(self, index: int) -> List[int]:
        """Registers whose value dies at op ``index`` — the fusion oracle.

        A register is dead after ``index`` when that op is its last reader
        (and it is not the program output).  A fusion pass may reuse or
        eliminate exactly these intermediates.
        """
        return sorted(r for r in self.defs
                      if r != self.output_reg and self.uses.get(r)
                      and max(self.uses[r]) == index)

    def dead_values(self) -> List[int]:
        """Registers written but never read (and not the output) — dead ops."""
        return sorted(r for r in self.defs
                      if r != self.output_reg and not self.uses.get(r))

    def max_live(self) -> int:
        """Peak number of simultaneously live registers (arena pressure)."""
        peak = 0
        ranges = [self.live_range(r) for r in
                  set(self.defs) | {0, self.output_reg}]
        for i in range(self.num_ops + 1):
            peak = max(peak, sum(1 for d, u in ranges if d <= i <= u))
        return peak

    def to_json(self) -> Dict:
        return {"registers": len(set(self.defs) | {0}),
                "max_live": self.max_live(),
                "dead_values": self.dead_values()}


def plan_liveness(plan) -> PlanLiveness:
    """Build the def-use graph of a plan (no findings; raw structure only)."""
    live = PlanLiveness(num_ops=len(plan.ops), output_reg=plan.output_reg)
    live.defs[0] = -1  # register 0 is the model input
    for i, op in enumerate(plan.ops):
        for s in op.src:
            live.uses.setdefault(s, []).append(i)
        if op.dst not in live.defs:
            live.defs[op.dst] = i
    return live


# ====================================================================== #
# report                                                                 #
# ====================================================================== #

@dataclass
class PlanVerificationReport:
    """Outcome of one :func:`verify_plan` run — findings + proof artifacts."""

    model_name: str
    signature: str
    num_ops: int
    num_regs: int
    findings: List[Finding] = field(default_factory=list)
    rows: List[Dict] = field(default_factory=list)
    shift_certificates: List[Dict] = field(default_factory=list)
    checksum_certificates: List[Dict] = field(default_factory=list)
    liveness: Optional[PlanLiveness] = None
    checked_module_rows: int = 0
    #: the CompileSpec the plan was built under (``{"threads": N}``) —
    #: embedded so manifests record how the program was compiled
    compile_spec: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not has_errors(self.findings)

    def exceeds(self, fail_on: str = "error") -> bool:
        return reaches_severity(self.findings, fail_on)

    def min_accum_bits(self) -> Dict[str, int]:
        return {r["layer"]: r["min_accum_bits"] for r in self.rows}

    def to_json(self) -> Dict:
        po2 = sum(c["po2"] for c in self.shift_certificates)
        return {
            "ok": self.ok,
            "model": self.model_name,
            "signature": self.signature,
            "ops": self.num_ops,
            "registers": self.num_regs,
            "summary": findings_summary(self.findings),
            "findings": findings_to_json(self.findings),
            "accumulators": self.rows,
            "shift": {"total": len(self.shift_certificates), "po2": po2,
                      "certificates": self.shift_certificates},
            "checksum": {
                "total": len(self.checksum_certificates),
                "abft_safe": sum(c["abft_safe"]
                                 for c in self.checksum_certificates),
                "certificates": self.checksum_certificates},
            "liveness": (self.liveness.to_json()
                         if self.liveness is not None else None),
            "checked_module_rows": self.checked_module_rows,
            "compile_spec": self.compile_spec,
        }

    def render(self) -> str:
        lines = [f"plan verification: {self.model_name} "
                 f"({self.num_ops} ops, {self.num_regs} registers)"]
        if self.liveness is not None:
            lines.append(f"  liveness: max {self.liveness.max_live()} "
                         f"registers live, "
                         f"{len(self.liveness.dead_values())} dead value(s)")
        if self.rows:
            lines.append("  accumulator bounds (proven worst case):")
            width = max(len(r["layer"]) for r in self.rows)
            for r in self.rows:
                tag = "" if r.get("exact_f32", True) else "  !f32"
                lines.append(
                    f"    {r['layer']:<{width}}  {r['kind']:<14} "
                    f"[{r['acc_lo']:>14.0f}, {r['acc_hi']:>14.0f}]  "
                    f"min {r['min_accum_bits']:>3d} bits{tag}")
        if self.shift_certificates:
            po2 = sum(c["po2"] for c in self.shift_certificates)
            lines.append(f"  shift certificates: {po2}/"
                         f"{len(self.shift_certificates)} scales are exact "
                         f"powers of two")
        if self.checksum_certificates:
            safe = sum(c["abft_safe"] for c in self.checksum_certificates)
            lines.append(f"  checksum certificates: {safe}/"
                         f"{len(self.checksum_certificates)} conv checksum "
                         f"accumulators proven float64-exact (ABFT-ready)")
        lines.append(render_findings(self.findings))
        s = findings_summary(self.findings)
        lines.append(f"plan verify: {s['errors']} error(s), "
                     f"{s['warnings']} warning(s), {s['infos']} info(s)")
        return "\n".join(lines)


# ====================================================================== #
# verifier                                                               #
# ====================================================================== #

class _PlanVerifier:
    def __init__(self, plan, accum_bits: int, require_po2: bool,
                 module_bits: Optional[Dict[str, int]],
                 input_shape: Optional[Tuple[int, ...]]):
        self.plan = plan
        self.accum_bits = accum_bits
        self.require_po2 = require_po2
        self.module_bits = module_bits or {}
        self.input_shape = tuple(input_shape) if input_shape else None
        self.findings: List[Finding] = []
        self.rows: List[Dict] = []
        self.certs: List[Dict] = []
        self.checksum_certs: List[Dict] = []
        self.ranges: Dict[int, Interval] = {0: Interval.unbounded()}
        self.shapes: Dict[int, Tuple[int, ...]] = {}
        self.tokens: Optional[int] = None
        self.checked_module_rows = 0

    # ---------------------------------------------------------- plumbing
    def finding(self, rule: str, where: str, message: str,
                severity: str = "") -> None:
        self.findings.append(make_finding(rule, where, message, severity))

    def _site(self, i: int, op) -> str:
        return f"[{i}] {op.name}"

    # -------------------------------------------------------- structural
    def check_structure(self, live: PlanLiveness) -> None:
        plan = self.plan
        written = {0}
        for i, op in enumerate(plan.ops):
            for s in op.src:
                if not (0 <= s < plan.num_regs):
                    self.finding("plan.shape-mismatch", self._site(i, op),
                                 f"source register r{s} out of range "
                                 f"(register file has {plan.num_regs})")
                elif s not in written:
                    origin = live.defs.get(s)
                    detail = (f"r{s} is defined later, by op [{origin}]"
                              if origin is not None else
                              f"r{s} is never written by any op")
                    self.finding("plan.dead-read", self._site(i, op),
                                 f"reads r{s} before it holds a value "
                                 f"({detail})")
            if not (0 <= op.dst < plan.num_regs):
                self.finding("plan.shape-mismatch", self._site(i, op),
                             f"destination register r{op.dst} out of range "
                             f"(register file has {plan.num_regs})")
            elif op.dst in written:
                self.finding("plan.alias", self._site(i, op),
                             f"rewrites r{op.dst}, already written by op "
                             f"[{live.defs.get(op.dst)}] — registers are "
                             f"written exactly once per execution")
            else:
                written.add(op.dst)
        if plan.output_reg not in written:
            self.finding("plan.dead-read", "<output>",
                         f"output register r{plan.output_reg} is never "
                         f"written")
        for r in live.dead_values():
            self.finding("plan.dead-read", f"r{r}",
                         f"register r{r} (written by op [{live.defs[r]}]) is "
                         f"never read and is not the output — dead op",
                         severity=WARN)

    def check_slots(self, live: PlanLiveness) -> None:
        """No-alias proof under the register→arena-slot map.

        Today the map is the identity (``Plan.slots`` is None) and the SSA
        write-once check above is the whole proof; a buffer-sharing pass
        must install its map so overlapping live ranges in one slot are
        caught here.
        """
        slots = getattr(self.plan, "slots", None)
        if not slots:
            return
        by_slot: Dict[int, List[int]] = {}
        for reg, slot in slots.items():
            by_slot.setdefault(int(slot), []).append(int(reg))
        for slot, regs in sorted(by_slot.items()):
            if len(regs) < 2:
                continue
            spans = sorted((live.live_range(r), r) for r in regs)
            for ((d1, u1), r1), ((d2, u2), r2) in zip(spans, spans[1:]):
                if d2 <= u1:  # ranges not strictly disjoint
                    self.finding(
                        "plan.alias", f"slot {slot}",
                        f"registers r{r1} (live [{d1}, {u1}]) and r{r2} "
                        f"(live [{d2}, {u2}]) share arena slot {slot} with "
                        f"overlapping live ranges — a read of r{r1} after "
                        f"op [{d2}] would observe r{r2}'s value")

    # ------------------------------------------------------------ shapes
    def check_shapes(self) -> None:
        if self.input_shape is None:
            return
        self.shapes[0] = self.input_shape
        for i, op in enumerate(self.plan.ops):
            checker = getattr(self, f"_shape_{op.kind}", None)
            try:
                if checker is not None:
                    checker(i, op)
                self.shapes[op.dst] = op.infer(self.shapes)
            except Exception as exc:  # missing src shape, bad rank, ...
                self.finding("plan.shape-mismatch", self._site(i, op),
                             f"shape inference failed: {exc}")

    def _shape_conv_mq(self, i, op) -> None:
        shape = self.shapes.get(op.src[0])
        if shape is None or len(shape) != 3:
            raise ValueError(f"conv input r{op.src[0]} is not (C, H, W): "
                             f"{shape}")
        c = shape[0]
        o, cg, _, _ = op.weight.shape
        if cg * op.groups != c:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"weight expects {cg * op.groups} input channels "
                         f"({op.groups} group(s) of {cg}); register r"
                         f"{op.src[0]} carries {c}")
        self._check_mq_size(i, op, op.mq, o, "mq")

    def _shape_conv_mq_res(self, i, op) -> None:
        self._shape_conv_mq(i, op)
        conv_out = op.infer(self.shapes)
        short = self.shapes.get(op.src[1])
        if short is not None and short != conv_out:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"fused residual shortcut r{op.src[1]} is {short} "
                         f"but the conv produces {conv_out}")
        if op.smq is not None:
            self._check_mq_size(i, op, op.smq, op.weight.shape[0], "smq")

    def _shape_linear_mq(self, i, op) -> None:
        shape = self.shapes.get(op.src[0])
        if shape and shape[-1] != op.weight.shape[1]:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"weight expects {op.weight.shape[1]} input "
                         f"features; register r{op.src[0]} carries "
                         f"{shape[-1]}")
        self._check_mq_size(i, op, op.mq, op.weight.shape[0], "mq")

    def _shape_residual(self, i, op) -> None:
        a, s = (self.shapes.get(r) for r in op.src)
        if a is not None and s is not None and a != s:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"residual operands disagree: r{op.src[0]} is {a}, "
                         f"r{op.src[1]} is {s}")

    def _shape_mulquant(self, i, op) -> None:
        shape = self.shapes.get(op.src[0])
        if shape and op.mq.m.size > 1 and op.mq.m.size not in shape:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"per-channel scale has {op.mq.m.size} entries but "
                         f"no axis of the input shape {shape} matches")

    def _shape_head(self, i, op) -> None:
        shape = self.shapes.get(op.src[0])
        if shape and shape[-1] != op.weight.shape[1]:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"head weight expects {op.weight.shape[1]} "
                         f"features; tokens carry {shape[-1]}")

    def _shape_attention(self, i, op) -> None:
        shape = self.shapes.get(op.src[0])
        d = op.qkv_w.shape[1]
        if shape and shape[-1] != d:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"qkv weight expects {d} features; tokens carry "
                         f"{shape[-1]}")
        if op.num_heads * op.head_dim != d:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"{op.num_heads} heads x {op.head_dim} dims != "
                         f"embed dim {d}")

    def _shape_mlp(self, i, op) -> None:
        if op.fc2_w.shape[1] != op.fc1_w.shape[0]:
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"fc2 expects {op.fc2_w.shape[1]} features; fc1 "
                         f"produces {op.fc1_w.shape[0]}")

    def _check_mq_size(self, i, op, mq, channels: int, what: str) -> None:
        if mq.m.size not in (1, channels):
            self.finding("plan.shape-mismatch", self._site(i, op),
                         f"{what} scale has {mq.m.size} entries for "
                         f"{channels} output channels")

    # --------------------------------------------------------- intervals
    def record_accum(self, layer: str, kind: str, acc: Interval) -> None:
        lo, hi = acc.bounds()
        # the register passes through 0 (reset state) between accumulations
        bits = min_signed_bits(min(lo, 0.0), max(hi, 0.0))
        row = {"layer": layer, "kind": kind, "acc_lo": lo, "acc_hi": hi,
               "min_accum_bits": bits}
        if kind != "conv_mq":  # a float32 sum (every conv body is exact)
            row["exact_f32"] = max(abs(lo), abs(hi)) < EXACT_F32_LIMIT
            if not row["exact_f32"]:
                self.finding("plan.inexact-accum", layer,
                             f"proven accumulator range [{lo:.0f}, "
                             f"{hi:.0f}] reaches 2^24: this float32 sum is "
                             f"no longer exact, so its requant can round "
                             f"differently from the integer datapath")
        self.rows.append(row)
        if bits > self.accum_bits:
            self.finding("plan.accum-overflow", layer,
                         f"proven accumulator range [{lo:.0f}, {hi:.0f}] "
                         f"needs {bits} bits (> {self.accum_bits}-bit "
                         f"accumulator)")
        self._cross_check_module(layer, bits)

    def _cross_check_module(self, layer: str, bits: int) -> None:
        """Compare a plan row against the module-level interval proof.

        Layer names share a namespace: plan ops carry unit paths
        (``blocks.0.unit1``), module rows the leaf (``blocks.0.unit1.conv``)
        — match exact or by dotted prefix, and only when unambiguous.
        """
        if not self.module_bits:
            return
        matches = [b for k, b in self.module_bits.items()
                   if k == layer or k.startswith(layer + ".")]
        if len(matches) != 1:
            return
        self.checked_module_rows += 1
        if bits > matches[0]:
            self.finding("plan.accum-overflow", layer,
                         f"plan-derived accumulator needs {bits} bits but "
                         f"the module-level proof established {matches[0]} "
                         f"— the compiled plan diverged from the model")

    def _input(self, i, op, idx: int = 0) -> Interval:
        x = self.ranges.get(op.src[idx], Interval.unbounded())
        if not x.is_bounded:
            self.finding("datapath.unbounded-input", self._site(i, op),
                         "no quantizer upstream bounds this op's input "
                         "register")
            return Interval.grid(-1.0, 1.0)  # keep walking with a token range
        return x

    def propagate(self) -> None:
        # ViT plans always carry the tokens op; scan it up front so the
        # attention context bound knows the sequence length (same derivation
        # as the module engine's pos_int read).
        for op in self.plan.ops:
            if op.kind == "tokens" and op.pos_int.ndim >= 2:
                self.tokens = int(op.pos_int.shape[-2])
        for i, op in enumerate(self.plan.ops):
            handler = getattr(self, f"_h_{op.kind}", None)
            if handler is None:
                self.finding("lint.unhandled-module", self._site(i, op),
                             f"no interval handler for op kind "
                             f"{op.kind!r}; range assumed preserved")
                out = self.ranges.get(op.src[0], Interval.unbounded()) \
                    if op.src else Interval.unbounded()
            else:
                out = handler(i, op)
            self.ranges[op.dst] = out
            self._check_certified_range(i, op, out)

    def _check_certified_range(self, i, op, out: Interval) -> None:
        """A register range re-derived past the one the compiler proved
        means the plan was mutated after compilation (e.g. a requant's
        scale and clamp widened): every consumer's proof is stale."""
        if op.out_range is None or not out.is_bounded:
            return
        (lo, hi), (c_lo, c_hi) = out.bounds(), op.out_range
        if lo < c_lo or hi > c_hi:
            self.finding("plan.accum-overflow", self._site(i, op),
                         f"stale range: the compiler proved r{op.dst} in "
                         f"[{c_lo:.0f}, {c_hi:.0f}] but the plan now "
                         f"derives [{lo:.0f}, {hi:.0f}]")

    # ----------------------------------------------- per-kind handlers
    def _h_input_quant(self, i, op) -> Interval:
        return Interval.grid(op.qlb, op.qub)

    def _h_conv_mq(self, i, op) -> Interval:
        return requant(self._conv_accum(i, op), op.mq)

    def _conv_accum(self, i, op) -> Interval:
        """The conv proof shared by both conv kinds: accumulator row,
        compile-time bound, kernel operands and checksum width, all from one
        float64 copy of the weights; returns the accumulator interval."""
        x = self._input(i, op).scalar()
        if op.padding:
            x = x.hull_zero()  # zero padding injects 0-codes into windows
        w = op.weight
        w2d = np.ascontiguousarray(w, dtype=np.float64).reshape(w.shape[0],
                                                                -1)
        abs_rows = np.abs(w2d).sum(axis=1)
        acc = accum_bounds(w2d, x)
        self.record_accum(op.name, "conv_mq", acc)
        # the compiler bounded the accumulator over a range at least as wide
        # as the propagated one: a re-derived bound past it means the plan
        # was mutated after compilation (e.g. an upstream scale widened)
        lo, hi = x.bounds()
        derived = float(abs_rows.max(initial=0.0) * max(abs(lo), abs(hi)))
        if derived > op.bound * (1.0 + 1e-12) + 0.5:
            self.finding("plan.accum-overflow", self._site(i, op),
                         f"stale bound: compile-time bound {op.bound:.0f} "
                         f"but the propagated input range re-derives "
                         f"{derived:.0f} — the plan no longer matches what "
                         f"the compiler proved")
        self._check_kernel_operands(i, op, x, abs_rows)
        self._check_checksum_width(i, op, x, abs_rows)
        return acc

    def _check_kernel_operands(self, i, op, x: Interval,
                               abs_rows: np.ndarray) -> None:
        """Prove a ``native`` conv's operands are what the integer kernel
        computes exactly: input codes of 8 bits (``uint8``, or ``int8``
        that the kernel XOR-biases into ``uint8``), int8 weights (the type
        of the resident packed array the kernel reads), and an int32
        accumulator — the biased worst case is ``max_o sum_k |w_ok| * 255``,
        which must stay below 2^31."""
        if not getattr(op, "native", False):
            return
        site = self._site(i, op)
        lo, hi = x.bounds()
        if not (0 <= lo and hi <= 255) and not (-128 <= lo and hi <= 127):
            self.finding("plan.kernel-operand", site,
                         f"input codes [{lo:.0f}, {hi:.0f}] fit neither "
                         f"uint8 nor int8; the integer kernel reads 8-bit "
                         f"registers")
        packed = vars(op)["weight"]
        if packed.dtype != np.int8:
            self.finding("plan.kernel-operand", site,
                         f"weights held as {packed.dtype} (span "
                         f"[{int(packed.min())}, {int(packed.max())}]); the "
                         f"integer kernel multiplies int8 weights")
        bound = float(abs_rows.max(initial=0.0) * 255.0)
        if bound >= EXACT_I32_LIMIT:
            self.finding("plan.kernel-operand", site,
                         f"biased accumulator bound {bound:.0f} reaches the "
                         f"2^31 int32 limit")

    def _check_checksum_width(self, i, op, x: Interval,
                              abs_rows: np.ndarray) -> None:
        """Prove the ABFT column-checksum accumulator float64-exact.

        The sampled verifier (:mod:`repro.integrity.abft`) sums the conv
        accumulator *across* output channels and compares it, in float64,
        against the checksum row folded in at compile time.  Both sides
        (and every partial sum of either association order) are bounded by
        ``sum_o sum_k |w_ok| * max|x|``; while that stays below 2^53 each
        intermediate is an exactly representable integer, so the checksum
        comparison is an equality.  The bound also dominates the conv's own
        float64 accumulation (the tree's and the numpy body's).  A conv
        whose bound reaches the limit is a ``plan.checksum-overflow``
        error — the runtime would attach a checksum it cannot trust.
        """
        lo, hi = x.bounds()
        bound = float(abs_rows.sum() * max(abs(lo), abs(hi)))
        safe = bound < EXACT_F64_LIMIT
        self.checksum_certs.append({
            "op": i, "layer": op.name, "kind": op.kind,
            "checksum_bound": bound, "abft_safe": safe})
        if not safe:
            self.finding("plan.checksum-overflow", self._site(i, op),
                         f"checksum accumulator bound {bound:.0f} reaches "
                         f"the 2^53 exact-float64 limit; the ABFT column "
                         f"checksum would compare inexact sums")

    def _h_conv_mq_res(self, i, op) -> Interval:
        """Fused conv+requant+residual: the proof decomposes exactly like
        the unfused chain — conv accumulator row under the conv's name,
        residual accumulator row under the original residual op's name — so
        fusion changes no row the report (or the module cross-check) sees."""
        a = requant(self._conv_accum(i, op), op.mq).scalar()
        s = self._input(i, op, 1).scalar()
        if op.smq is not None:
            s = requant(s, op.smq).scalar()
        merged = a + s
        self.record_accum(op.res_name, "residual", merged)
        return (merged.divide(op.res_scale).round_half_away()
                .clamp(op.res_lo, op.res_hi))

    def _h_linear_mq(self, i, op) -> Interval:
        x = self._input(i, op).scalar()
        w2d = op.weight.reshape(op.weight.shape[0], -1)
        acc = accum_bounds(w2d, x)
        self.record_accum(op.name, "linear_mq", acc)
        return requant(acc, op.mq)

    def _h_mulquant(self, i, op) -> Interval:
        return requant(self._input(i, op), op.mq)

    def _h_residual(self, i, op) -> Interval:
        a = self._input(i, op, 0).scalar()
        s = self._input(i, op, 1).scalar()
        acc = a + s
        self.record_accum(op.name, "residual", acc)
        return acc.divide(op.res_scale).round_half_away().clamp(op.lo, op.hi)

    def _h_maxpool(self, i, op) -> Interval:
        return self._input(i, op)

    def _h_gap_mq(self, i, op) -> Interval:
        # mean of values in [lo, hi] stays in [lo, hi]; mq re-rounds it
        return requant(self._input(i, op).scalar(), op.mq)

    def _h_tokens(self, i, op) -> Interval:
        x = self._input(i, op)
        tok = x.hull(Interval.of_array(op.cls_int))
        tok = tok + Interval.of_array(op.pos_int)
        return tok.clamp(float(op.qlb), float(op.qub))

    def _h_attention(self, i, op) -> Interval:
        x = self._input(i, op).scalar()
        acc = accum_bounds(op.qkv_w.reshape(op.qkv_w.shape[0], -1), x)
        self.record_accum(f"{op.name}.qkv", "linear_mq", acc)
        t = requant(acc, op.mq_qkv).scalar()
        q = k = v = t  # q/k/v share the clamp range of mq_qkv

        scores = (q * k).scale(float(op.head_dim))
        self.record_accum(f"{op.name}.scores", "matmul_qk", scores)
        s = requant(scores, op.mq_score)

        span = len(op.softmax_table) - 1
        s_lo, s_hi = s.bounds()
        if s_hi - s_lo > span:
            self.finding("contract.bitwidth-mismatch", self._site(i, op),
                         f"score range spans {s_hi - s_lo:.0f} codes but the "
                         f"softmax LUT covers {span}")
        # probs = round(e * 2^pb / sum(e)) <= 2^pb (one-hot row saturates it)
        p_hi = float(1 << op.prob_bits)

        # context probs @ V: the LUT normalizes each row to ~2^prob_bits
        # total mass (each entry rounds by at most 1/2), so the probability-
        # sum bound is far tighter than L * max.
        if self.tokens is None:
            self.finding("lint.unhandled-module",
                         f"{self._site(i, op)}.context",
                         "sequence length unknown; using prob-sum upper "
                         "bound only")
            s_max, s_min = p_hi, 0.0
        else:
            s_max = min(self.tokens * p_hi, p_hi + self.tokens / 2.0)
            s_min = max(0.0, p_hi - self.tokens / 2.0)
        v_lo, v_hi = v.bounds()
        ctx_hi = s_max * v_hi if v_hi >= 0 else s_min * v_hi
        ctx_lo = s_max * v_lo if v_lo <= 0 else s_min * v_lo
        ctx = Interval(ctx_lo, ctx_hi)
        self.record_accum(f"{op.name}.context", "matmul_attn_v", ctx)
        c = requant(ctx, op.mq_ctx).scalar()

        acc = accum_bounds(op.proj_w.reshape(op.proj_w.shape[0], -1), c)
        self.record_accum(f"{op.name}.proj", "linear_mq", acc)
        return requant(acc, op.mq_proj)

    def _h_mlp(self, i, op) -> Interval:
        x = self._input(i, op).scalar()
        acc = accum_bounds(op.fc1_w.reshape(op.fc1_w.shape[0], -1), x)
        self.record_accum(f"{op.name}.fc1", "linear_mq", acc)
        h = requant(acc, op.mq_fc1)
        h_lo, h_hi = h.bounds()
        if h_lo < op.gelu_qlb or h_hi > op.gelu_qub:
            self.finding("contract.bitwidth-mismatch", self._site(i, op),
                         f"fc1 output range [{h_lo:.0f}, {h_hi:.0f}] exceeds "
                         f"the GELU LUT grid [{op.gelu_qlb}, {op.gelu_qub}]")
        g = Interval.of_array(op.gelu_table)  # exact: the table is the layer
        acc = accum_bounds(op.fc2_w.reshape(op.fc2_w.shape[0], -1), g)
        self.record_accum(f"{op.name}.fc2", "linear_mq", acc)
        return requant(acc, op.mq_fc2)

    def _h_head(self, i, op) -> Interval:
        x = self._input(i, op).scalar()
        acc = accum_bounds(op.weight.reshape(op.weight.shape[0], -1), x)
        self.record_accum(f"{op.name}.linear", "linear_mq", acc)
        return requant(acc, op.mq)

    def _h_call_module(self, i, op) -> Interval:
        mod = op.module
        qlb = getattr(mod, "out_qlb", None)
        qub = getattr(mod, "out_qub", None)
        if qlb is not None and qub is not None and (qlb or qub):
            self.finding("lint.instant-layernorm", self._site(i, op),
                         "instant-statistics LayerNorm normalizes in float "
                         "at deploy")
            return Interval.grid(float(qlb), float(qub))
        self.finding("lint.unhandled-module", self._site(i, op),
                     f"interpreted module {type(mod).__name__} has no "
                     f"output grid; range assumed preserved")
        return self._input(i, op)

    # ----------------------------------------------------------- shifts
    def check_shifts(self) -> None:
        for i, op in enumerate(self.plan.ops):
            for param, mq in self._mq_params(op):
                self.certs.append(self._shift_certificate(i, op, param, mq))

    @staticmethod
    def _mq_params(op) -> List[Tuple[str, object]]:
        named = [("mq", "mq"), ("smq", "smq"),
                 ("mq_qkv", "mq_qkv"), ("mq_score", "mq_score"),
                 ("mq_ctx", "mq_ctx"), ("mq_proj", "mq_proj"),
                 ("mq_fc1", "mq_fc1"), ("mq_fc2", "mq_fc2")]
        return [(label, getattr(op, attr))
                for label, attr in named if getattr(op, attr, None) is not None]

    def _shift_certificate(self, i, op, param: str, mq) -> Dict:
        m = np.asarray(mq.m, dtype=np.float64).reshape(-1)
        positive = bool(np.all(m > 0))
        if positive:
            exps = np.round(np.log2(m))
            po2 = bool(np.all(np.exp2(exps) == m))
        else:
            exps, po2 = None, False
        bias_int = bool(np.all(np.asarray(mq.b) == np.round(mq.b)))
        cert = {
            "op": i, "layer": op.name, "param": param,
            "channels": int(m.size),
            "po2": po2,
            "bias_integral": bias_int,
            "shift_ok": po2 and bias_int,
            "shifts": ([int(e) for e in exps] if po2 else None),
        }
        if self.require_po2 and not cert["shift_ok"]:
            why = ("scale is not an exact power of two" if not po2
                   else "bias is not integral")
            self.finding("plan.shift-inexact",
                         f"{self._site(i, op)}.{param}",
                         f"{why}; the shift-only po2 deploy mode cannot "
                         f"represent this requant exactly")
        return cert

    # -------------------------------------------------------------- run
    def run(self) -> PlanVerificationReport:
        live = plan_liveness(self.plan)
        self.check_structure(live)
        self.check_slots(live)
        self.check_shapes()
        self.propagate()
        self.check_shifts()
        return PlanVerificationReport(
            model_name=self.plan.model_name,
            signature=self.plan.signature(),
            num_ops=len(self.plan.ops),
            num_regs=self.plan.num_regs,
            findings=self.findings,
            rows=self.rows,
            shift_certificates=self.certs,
            checksum_certificates=self.checksum_certs,
            liveness=live,
            checked_module_rows=self.checked_module_rows,
            compile_spec=(spec.to_json()
                          if (spec := getattr(self.plan, "spec", None))
                          is not None else None),
        )


def verify_plan(plan, accum_bits: int = 32,
                input_shape: Optional[Tuple[int, ...]] = None,
                module_bits: Optional[Dict[str, int]] = None,
                require_po2: bool = False) -> PlanVerificationReport:
    """Statically verify a compiled :class:`~repro.runtime.executor.Plan`.

    Parameters
    ----------
    accum_bits:
        Accumulator register width to prove MAC sites against.
    input_shape:
        Per-sample input shape (e.g. ``(3, 32, 32)``); enables the shape
        pass (wiring/rank/channel-count checks).  Interval and dataflow
        proofs run without it.
    module_bits:
        ``LintReport.min_accum_bits()`` of the corresponding model — plan
        rows whose proven width exceeds the module-level proof are flagged
        (the compiled plan diverged from the model it was compiled from).
    require_po2:
        Treat a non-power-of-two requant scale as an error (the gate for
        the shift-only po2 deploy mode).
    """
    return _PlanVerifier(plan, accum_bits=accum_bits, require_po2=require_po2,
                         module_bits=module_bits,
                         input_shape=input_shape).run()
