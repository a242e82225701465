"""Plan-level fusion: legality proofs, bit-exactness, profiler attribution.

The fusion pass (run on every compiled plan) collapses conv → requant →
residual chains into single ``conv_mq_res`` ops.  The contracts under test:

* the lowered program (``requant``: every conv already carries its
  requant, residual chains still three ops) and the fused one (``full``)
  produce *bitwise* identical outputs (the fused epilogue replicates the
  standalone op sequence exactly);
* legality is decided by the liveness oracle — a register with any extra
  reader, or the program output, is never folded away;
* fused programs keep attributing wall time to the original source layers
  (``constituents`` shares sum to 1.0 and the ≥90% wall-attribution
  invariant of the sampled profiler survives fusion).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import Plan
from repro.runtime.compiler import lower
from repro.runtime.fusion import fuse_plan
from repro.runtime.program import (ConvMQOp, ConvMQResOp, MulQuantOp,
                                   ResidualOp)

RESIDUAL_MODELS = ("resnet20", "resnet18")


class TestBitExactAcrossLevels:
    @pytest.mark.parametrize("model", ["resnet20", "mobilenet-v1", "vit-7"])
    @pytest.mark.parametrize("fusion", ["requant", "full"])
    def test_levels_match_tree(self, deployed_factory, unfused_plan, model,
                               fusion):
        d, x, ref = deployed_factory(model)
        plan = (Plan.compile(d.qnn) if fusion == "full"
                else unfused_plan(d.qnn))
        assert np.array_equal(plan(x), ref), (
            f"{model}: {fusion} program diverges from the tree")

    @pytest.mark.parametrize("model", RESIDUAL_MODELS)
    def test_full_actually_fuses_residual_chains(self, deployed_factory,
                                                 model):
        d, _, _ = deployed_factory(model)
        plan = Plan.compile(d.qnn)
        assert plan.fusion_stats["fused"] > 0
        assert any(isinstance(op, ConvMQResOp) for op in plan.ops)

    def test_requant_level_has_no_fused_residuals(self, deployed_factory):
        d, _, _ = deployed_factory("resnet20")
        ops, _, _ = lower(d.qnn)
        assert not any(isinstance(op, ConvMQResOp) for op in ops)
        assert any(isinstance(op, ResidualOp) for op in ops)


class TestFusePassProperties:
    @pytest.fixture(scope="class")
    def base(self, deployed_factory, unfused_plan):
        """The compiler's pre-fusion op list, as the pass receives it."""
        d, x, ref = deployed_factory("resnet20")
        return unfused_plan(d.qnn), x, ref

    def test_op_count_shrinks_by_stats(self, base):
        plan, _, _ = base
        ops, stats = fuse_plan(plan.ops, plan.output_reg)
        assert stats["fused"] > 0
        # each fused chain removes the conv; each folded shortcut requant
        # removes its mulquant; the residual slot becomes the fused op
        assert len(ops) == len(plan.ops) - stats["fused"] \
            - stats["folded_smq"]

    def test_eliminated_registers_never_referenced(self, base):
        plan, _, _ = base
        ops, _ = fuse_plan(plan.ops, plan.output_reg)
        written = {op.dst for op in ops}
        eliminated = {op.dst for op in plan.ops} - written
        assert plan.output_reg not in eliminated
        for op in ops:
            assert not (set(op.src) & eliminated), (
                f"{op.name} reads an eliminated register")

    def test_dataflow_stays_closed(self, base):
        plan, _, _ = base
        ops, _ = fuse_plan(plan.ops, plan.output_reg)
        defined = {0}
        for op in ops:
            assert set(op.src) <= defined, f"{op.name}: use before def"
            defined.add(op.dst)
        assert plan.output_reg in defined

    def test_extra_reader_forbids_fusion(self, base):
        plan, _, _ = base
        fused_ops, stats = fuse_plan(plan.ops, plan.output_reg)
        fused_names = {op.name for op in fused_ops
                       if isinstance(op, ConvMQResOp)}
        conv = next(op for op in plan.ops if isinstance(op, ConvMQOp)
                    and op.name in fused_names)
        # tap the conv's destination with a second reader: the liveness
        # oracle must refuse to fold that chain now
        some_mq = next(op.mq for op in plan.ops
                       if isinstance(op, MulQuantOp))
        tap = MulQuantOp("debug.tap", (conv.dst,),
                         max(op.dst for op in plan.ops) + 1, some_mq)
        tapped_ops, tapped_stats = fuse_plan(plan.ops + [tap],
                                             plan.output_reg)
        assert tapped_stats["fused"] <= stats["fused"]
        assert any(isinstance(op, ConvMQOp) and op.name == conv.name
                   for op in tapped_ops), (
            "conv with a second reader was fused away")

    def test_output_register_never_fused(self, base):
        plan, _, _ = base
        # pretend the first fusable conv's destination is the program
        # output: that chain must survive unfused
        fused_ops, _ = fuse_plan(plan.ops, plan.output_reg)
        fused_names = {op.name for op in fused_ops
                       if isinstance(op, ConvMQResOp)}
        conv = next(op for op in plan.ops if isinstance(op, ConvMQOp)
                    and op.name in fused_names)
        ops2, _ = fuse_plan(plan.ops, output_reg=conv.dst)
        assert any(isinstance(op, ConvMQOp) and op.name == conv.name
                   for op in ops2)

    def test_fused_constituent_shares_sum_to_one(self, base):
        plan, _, _ = base
        ops, _ = fuse_plan(plan.ops, plan.output_reg)
        for op in ops:
            parts = op.constituents()
            assert abs(sum(share for _, _, share in parts) - 1.0) < 1e-9
            if isinstance(op, ConvMQResOp):
                kinds = [kind for kind, _, _ in parts]
                assert kinds[0] == "conv_mq" and kinds[-1] == "residual"

    def test_fusion_is_idempotent(self, base):
        plan, _, _ = base
        ops1, stats1 = fuse_plan(plan.ops, plan.output_reg)
        ops2, stats2 = fuse_plan(ops1, plan.output_reg)
        assert stats2 == {"fused": 0, "folded_smq": 0}
        assert len(ops2) == len(ops1)


class TestProfilerAttribution:
    def test_op_report_names_invariant_under_fusion(self, deployed_factory,
                                                    unfused_plan):
        d, x, _ = deployed_factory("resnet20")
        fused = Plan.compile(d.qnn)
        unfused = unfused_plan(d.qnn)
        fused(x), unfused(x)
        names = lambda p: {(r["kind"], r["name"]) for r in p.op_report()}
        assert names(fused) == names(unfused)

    def test_op_report_seconds_conserved(self, deployed_factory):
        d, x, _ = deployed_factory("resnet20")
        plan = Plan.compile(d.qnn)
        for _ in range(3):
            plan(x)
        rows = plan.op_report()
        total = float(plan._op_seconds.sum())
        assert sum(r["seconds"] for r in rows) == pytest.approx(total)
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)

    def test_sampled_profile_attribution_survives_fusion(
            self, deployed_factory):
        d, x, _ = deployed_factory("resnet20")
        plan = Plan.compile(d.qnn)
        assert plan.fusion_stats["fused"] > 0
        prof = plan.enable_profiling(sample_every=1)
        for _ in range(4):
            plan(x)
        rep = prof.report()
        assert rep["sampled_batches"] == 4
        assert rep["attributed_fraction"] >= 0.90, rep["attributed_fraction"]
        per_op = {(r["kind"], r["name"]) for r in rep["per_op"]}
        for op in plan.ops:
            if isinstance(op, ConvMQResOp):
                assert ("residual", op.res_name) in per_op
                if op.smq is not None:
                    assert ("mulquant", op.smq_name) in per_op
