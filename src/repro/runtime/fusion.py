"""Plan-level operator fusion (runs on every compiled plan).

The compiler emits residual blocks as a three-op chain over the register
file::

    conv_mq   r_in        -> r_a     # main-path conv + requant
    mulquant  r_skip      -> r_s     # identity-shortcut requant
    residual  r_a, r_s    -> r_out   # (a + s) / res_scale, round, clamp

This pass collapses the chain into one ``conv_mq_res`` op whose epilogue
applies the requant, shortcut requant and residual merge while the conv
accumulator rows are still hot — ``r_a``/``r_s`` are never written, so the
intermediates cost no arena memory and no kernel store/load round-trip.

Legality is *proven*, not assumed, via the PR-7 liveness analysis
(:func:`repro.lint.plan.plan_liveness`): an op is folded only when its
destination register has **exactly one reader** (the residual being fused)
and is not the program output.  Any extra reader — a later skip connection,
a debug tap, the output itself — keeps the chain unfused, which is always
correct because every fused stage replicates the standalone op bit-exactly.
"""
from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Tuple

from repro.runtime.program import ConvMQOp, ConvMQResOp, MulQuantOp, ResidualOp


def _only_reader(live, reg: int, reader: int, output_reg: int) -> bool:
    """True iff ``reg`` is read exactly once, by op ``reader``, and is not
    the program output (which always has an implicit external reader)."""
    return reg != output_reg and live.uses.get(reg) == [reader]


def fuse_plan(ops: List, output_reg: int) -> Tuple[List, Dict[str, int]]:
    """Fuse conv→requant→residual chains; returns ``(new_ops, stats)``.

    ``stats`` counts ``{"fused": chains merged, "folded_smq": shortcut
    requants folded into those chains}``.  Ops whose chains fail the
    liveness proof are passed through untouched.
    """
    from repro.lint.plan import plan_liveness

    live = plan_liveness(SimpleNamespace(ops=list(ops), output_reg=output_reg))
    producer = {op.dst: i for i, op in enumerate(ops)}
    removed = set()
    fused: Dict[int, ConvMQResOp] = {}
    stats = {"fused": 0, "folded_smq": 0}

    for j, op in enumerate(ops):
        if not isinstance(op, ResidualOp):
            continue
        # pick the operand produced by a fusable conv (residual's f32 add is
        # commutative, so either side works bit-exactly)
        conv_i = None
        for a in op.src:
            i = producer.get(a)
            if (i is not None and i not in removed
                    and isinstance(ops[i], ConvMQOp)
                    and _only_reader(live, a, j, output_reg)):
                conv_i = i
                break
        if conv_i is None:
            continue
        conv = ops[conv_i]
        shortcut = op.src[1] if op.src[0] == conv.dst else op.src[0]
        # fold the shortcut's own requant when it too has a single reader
        smq = smq_name = None
        k = producer.get(shortcut)
        if (k is not None and k not in removed and isinstance(ops[k], MulQuantOp)
                and _only_reader(live, shortcut, j, output_reg)):
            smq, smq_name = ops[k].mq, ops[k].name
            shortcut = ops[k].src[0]
            removed.add(k)
            stats["folded_smq"] += 1
        removed.add(conv_i)
        fused[j] = ConvMQResOp(
            conv.name, (conv.src[0], shortcut), op.dst,
            conv.weight, conv.stride, conv.padding, conv.groups, conv.mq,
            conv.bound, op.res_scale, op.lo, op.hi, op.name, smq=smq,
            smq_name=smq_name, native=conv.native)
        stats["fused"] += 1

    new_ops = []
    for j, op in enumerate(ops):
        if j in removed:
            continue
        new_ops.append(fused.get(j, op))
    return new_ops, stats
