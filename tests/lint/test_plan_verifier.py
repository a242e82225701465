"""Plan-IR verifier: dataflow/no-alias/overflow/shift proofs over programs.

Two layers of coverage: hand-built synthetic plans that violate one
invariant each (so the rule-to-defect mapping is exact), and real compiled
plans from the deploy pipeline (which must verify with zero errors, and
whose report must round-trip through JSON for the export manifest).
"""
import copy
import json

import numpy as np
import pytest

from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.lint.findings import reaches_severity
from repro.lint.plan import (PlanVerificationError, plan_liveness,
                             verify_plan)
from repro.models import build_model
from repro.runtime.executor import Plan
from repro.runtime.kernels import MQParams
from repro.runtime.program import (InputQuantOp, LinearMQOp, MulQuantOp,
                                   ResidualOp)


def _mq(m=0.5, b=0.0, lo=-128.0, hi=127.0, axis=1):
    return MQParams(np.asarray(m), np.asarray(b), lo, hi, axis)


def _chain_plan(ops=None, num_regs=None, output_reg=None):
    """in -> mq -> mq with an overridable op list (the clean baseline)."""
    ops = ops if ops is not None else [
        InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
        MulQuantOp("a", (1,), 2, _mq()),
        MulQuantOp("b", (2,), 3, _mq()),
    ]
    n = num_regs if num_regs is not None else 4
    out = output_reg if output_reg is not None else n - 1
    return Plan(ops, num_regs=n, output_reg=out, model_name="tiny",
                out_features=1)


@pytest.fixture(scope="module")
def deployed_resnet():
    rng = np.random.default_rng(0)
    qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                         for _ in range(2)])
    return deploy(qm, DeploySpec(runtime="auto", lint=True))


class TestDataflow:
    def test_clean_chain_verifies(self):
        rep = verify_plan(_chain_plan())
        assert rep.ok
        assert not rep.findings

    def test_use_before_def_is_dead_read(self):
        plan = _chain_plan()
        plan.ops[1].src = (3,)  # reads the reg op 2 will define
        rep = verify_plan(plan)
        assert not rep.ok
        assert "plan.dead-read" in {f.rule for f in rep.findings}

    def test_never_written_read_is_dead_read(self):
        plan = _chain_plan(num_regs=5)
        plan.ops[1].src = (4,)  # nobody ever writes r4
        rep = verify_plan(plan)
        rules = {f.rule for f in rep.findings}
        assert "plan.dead-read" in rules

    def test_double_write_is_alias(self):
        plan = _chain_plan()
        plan.ops[2].dst = 2  # rewrites op 1's register
        rep = verify_plan(plan)
        assert "plan.alias" in {f.rule for f in rep.findings}

    def test_register_out_of_range(self):
        plan = _chain_plan()
        plan.ops[2].dst = 9
        rep = verify_plan(plan)
        assert "plan.shape-mismatch" in {f.rule for f in rep.findings}

    def test_unwritten_output_reg(self):
        plan = _chain_plan(num_regs=5, output_reg=4)
        rep = verify_plan(plan)
        assert not rep.ok
        assert any(f.rule == "plan.dead-read" and f.where == "<output>"
                   for f in rep.findings)

    def test_dead_value_is_warning_not_error(self):
        # an extra op whose result nobody consumes: wasteful, not unsound
        plan = _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
            MulQuantOp("dead", (1,), 2, _mq()),
            MulQuantOp("out", (1,), 3, _mq()),
        ])
        rep = verify_plan(plan)
        assert rep.ok  # no errors
        assert rep.exceeds("warning")
        assert not rep.exceeds("error")
        warn = [f for f in rep.findings if f.rule == "plan.dead-read"]
        assert warn and all(f.severity == "WARN" for f in warn)


class TestLiveness:
    def test_live_ranges_and_dead_after(self):
        plan = _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
            MulQuantOp("left", (1,), 2, _mq()),
            ResidualOp("merge", (2, 1), 3, res_scale=1.0, lo=-128, hi=127),
        ])
        live = plan_liveness(plan)
        assert live.live_range(1) == (0, 2)   # r1 read by ops 1 and 2
        assert live.live_range(2) == (1, 2)
        # output register survives to program end
        assert live.live_range(3) == (2, 3)
        # the residual is the last reader of both intermediates
        assert live.dead_after(2) == [1, 2]
        assert live.dead_after(1) == []
        assert live.max_live() >= 2

    def test_liveness_on_compiled_plan(self, deployed_resnet):
        live = plan_liveness(deployed_resnet.plan)
        # every non-output register dies somewhere: the fusion oracle
        # accounts for all intermediates exactly once
        dead = [r for i in range(len(deployed_resnet.plan.ops))
                for r in live.dead_after(i)]
        assert sorted(dead) == sorted(
            r for r in live.defs
            if r != deployed_resnet.plan.output_reg and live.uses.get(r))
        assert not live.dead_values()


class TestSlots:
    def test_overlapping_slot_ranges_alias(self):
        plan = _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
            MulQuantOp("a", (1,), 2, _mq()),
            ResidualOp("merge", (2, 1), 3, res_scale=1.0, lo=-128, hi=127),
        ])
        # r1 is live [0,2] and r2 live [1,2]: sharing a slot is unsound
        plan.slots = {1: 7, 2: 7, 3: 8}
        rep = verify_plan(plan)
        assert not rep.ok
        assert any(f.rule == "plan.alias" and "slot 7" in f.where
                   for f in rep.findings)

    def test_disjoint_slot_ranges_are_sound(self):
        plan = _chain_plan()  # straight chain: r1 dies at op 1, r2 at op 2
        plan.slots = {1: 7, 3: 7, 2: 8}  # r1 [0,1] and r3 [2,3] don't overlap
        rep = verify_plan(plan)
        assert rep.ok


class TestOverflow:
    def test_linear_accum_overflow_flagged(self):
        w = np.full((4, 3), 1000.0, dtype=np.float32)
        plan = _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
            LinearMQOp("fc", (1,), 2, w, _mq()),
        ], num_regs=3, output_reg=2)
        assert verify_plan(plan, accum_bits=32).ok
        rep = verify_plan(plan, accum_bits=16)
        assert not rep.ok
        assert any(f.rule == "plan.accum-overflow" and "16-bit" in f.message
                   for f in rep.findings)

    @staticmethod
    def _wide_linear(weight_code: float):
        """uint8 codes into a 2048-input linear of one constant weight."""
        w = np.full((2, 2048), weight_code, dtype=np.float32)
        return _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=0, qub=255),
            LinearMQOp("fc", (1,), 2, w, _mq()),
        ], num_regs=3, output_reg=2)

    def test_float32_sum_past_2_24_is_refused(self):
        """255 x 127 over 2048 inputs bounds the float32 GEMM at 66.3M,
        which fits the 32-bit accumulator but not float32's exact integers:
        the row is refused, not just tagged."""
        rep = verify_plan(self._wide_linear(127.0))
        assert not rep.ok
        hits = [f for f in rep.findings if f.rule == "plan.inexact-accum"]
        assert [f.where for f in hits] == ["fc"]
        assert "plan.accum-overflow" not in {f.rule for f in rep.findings}
        assert [r["exact_f32"] for r in rep.rows] == [False]

    def test_float32_sum_below_2_24_verifies(self):
        # 2048 * 255 * 32 = 16 711 680 < 2^24 = 16 777 216 < 2048 * 255 * 33
        assert verify_plan(self._wide_linear(32.0)).ok
        rep = verify_plan(self._wide_linear(33.0))
        assert {f.rule for f in rep.findings} == {"plan.inexact-accum"}

    def test_compiled_plan_rows_under_exact_f32(self, deployed_resnet):
        """Only sums still done in float32 carry the ``exact_f32`` flag:
        conv rows do not (a conv accumulates exactly on every body)."""
        rep = deployed_resnet.plan.verify(input_shape=(3, 32, 32))
        assert rep.ok
        assert rep.rows
        for r in rep.rows:
            assert ("exact_f32" in r) == (r["kind"] != "conv_mq")
            assert r.get("exact_f32", True)
        assert all(r["min_accum_bits"] <= 32 for r in rep.rows)

    def test_module_bits_cross_check_divergence(self, deployed_resnet):
        module_bits = deployed_resnet.lint_report.min_accum_bits()
        plan = deployed_resnet.plan
        assert verify_plan(plan, module_bits=module_bits).ok
        # pretend the module proof was tighter than what the plan needs:
        # the verifier must flag the divergence
        forged = {k: 1 for k in module_bits}
        rep = verify_plan(plan, module_bits=forged)
        assert not rep.ok
        assert any(f.rule == "plan.accum-overflow" and "diverged" in f.message
                   for f in rep.findings)
        assert rep.checked_module_rows > 0

    def test_stale_conv_certificate(self, deployed_resnet):
        plan = copy.deepcopy(deployed_resnet.plan)
        up = next(op for op in plan.ops
                  if op.kind == "conv_mq"
                  and any(o.kind == "conv_mq" and o.src[0] == op.dst
                          for o in plan.ops))
        up.mq.m = up.mq.m * 64.0
        up.mq.lo *= 64.0
        up.mq.hi *= 64.0
        rep = verify_plan(plan)
        assert not rep.ok
        assert any(f.rule == "plan.accum-overflow" and "stale" in f.message
                   for f in rep.findings)


class TestKernelOperands:
    """A ``native`` conv's integer-kernel operands are re-proved."""

    @staticmethod
    def _native_plan(deployed_resnet):
        from repro.runtime import ckernel

        if ckernel.load() is None:
            pytest.skip("native kernel unavailable")
        plan = copy.deepcopy(deployed_resnet.plan)
        native = [op for op in plan.ops if getattr(op, "native", False)]
        assert native, "a resnet20 plan runs its convs natively"
        return plan, native

    @staticmethod
    def _operand_findings(plan):
        return [f for f in verify_plan(plan).findings
                if f.rule == "plan.kernel-operand"]

    def test_compiled_plan_operands_prove(self, deployed_resnet):
        plan, _ = self._native_plan(deployed_resnet)
        assert self._operand_findings(plan) == []

    def test_widened_input_register_is_flagged(self, deployed_resnet):
        plan, native = self._native_plan(deployed_resnet)
        stem = native[0]
        iq = next(op for op in plan.ops if op.dst == stem.src[0])
        iq.qub = 300  # the stem's input codes no longer fit int8
        found = self._operand_findings(plan)
        assert any(stem.name in f.where and "int8" in f.message
                   for f in found), found

    def test_weight_pushed_to_200_is_flagged(self, deployed_resnet):
        plan, native = self._native_plan(deployed_resnet)
        op = native[-1]
        op.__dict__["weight"] = op.__dict__["weight"].astype(np.int16)
        op.weight[0, 0, 0, 0] = 200
        found = self._operand_findings(plan)
        assert any(op.name in f.where and "int16" in f.message
                   and "int8 weights" in f.message for f in found), found


class TestShiftCertificates:
    def test_po2_scale_certified(self):
        plan = _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
            MulQuantOp("po2", (1,), 2, _mq(m=0.25, b=3.0)),
        ], num_regs=3, output_reg=2)
        rep = verify_plan(plan, require_po2=True)
        assert rep.ok
        (cert,) = rep.shift_certificates
        assert cert["po2"] and cert["bias_integral"] and cert["shift_ok"]
        assert cert["shifts"] == [-2]

    def test_non_po2_scale_fails_require_po2(self):
        plan = _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
            MulQuantOp("q", (1,), 2, _mq(m=0.3)),
        ], num_regs=3, output_reg=2)
        assert verify_plan(plan).ok  # advisory by default
        rep = verify_plan(plan, require_po2=True)
        assert not rep.ok
        assert "plan.shift-inexact" in {f.rule for f in rep.findings}

    def test_fractional_bias_fails_require_po2(self):
        plan = _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
            MulQuantOp("q", (1,), 2, _mq(m=0.5, b=0.25)),
        ], num_regs=3, output_reg=2)
        rep = verify_plan(plan, require_po2=True)
        assert not rep.ok
        assert any("bias" in f.message for f in rep.findings
                   if f.rule == "plan.shift-inexact")

    def test_compiled_plan_records_all_requants(self, deployed_resnet):
        rep = deployed_resnet.plan.verify()
        mq_attrs = ("mq", "smq", "mq_qkv", "mq_score", "mq_ctx", "mq_proj",
                    "mq_fc1", "mq_fc2")
        mq_params = sum(1 for op in deployed_resnet.plan.ops for a in mq_attrs
                        if getattr(op, a, None) is not None)
        assert len(rep.shift_certificates) == mq_params


class TestShapePass:
    def test_shape_pass_needs_input_shape(self):
        plan = _chain_plan(ops=[
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127),
            LinearMQOp("fc", (1,), 2, np.ones((4, 3), np.float32), _mq()),
        ], num_regs=3, output_reg=2)
        assert verify_plan(plan).ok  # no shape info, no shape findings
        rep = verify_plan(plan, input_shape=(5,))  # fc wants 3 features
        assert not rep.ok
        assert "plan.shape-mismatch" in {f.rule for f in rep.findings}

    def test_compiled_plan_shapes_check_out(self, deployed_resnet):
        assert deployed_resnet.plan.verify(input_shape=(3, 32, 32)).ok


class TestReportAndGate:
    def test_report_round_trips_json(self, deployed_resnet):
        rep = deployed_resnet.plan.verify(input_shape=(3, 32, 32))
        doc = json.loads(json.dumps(rep.to_json()))
        assert doc["ok"] is True
        assert doc["ops"] == len(deployed_resnet.plan.ops)
        assert doc["accumulators"] and doc["shift"]["total"] > 0
        assert doc["liveness"]["max_live"] >= 2
        assert doc["signature"] == deployed_resnet.plan.signature()

    def test_manifest_embeds_verification(self, tmp_path):
        rng = np.random.default_rng(1)
        qm = quantize_model(build_model("vgg8", num_classes=10,
                                        width_mult=0.5), QConfig(8, 8))
        calibrate_model(qm, [rng.standard_normal(
            (4, 3, 32, 32)).astype(np.float32) for _ in range(2)])
        out = str(tmp_path / "artifacts")
        d = deploy(qm, DeploySpec(runtime="auto", export_dir=out))
        assert d.manifest["plan_verification"]["ok"] is True
        with open(tmp_path / "artifacts" / "manifest.json") as f:
            on_disk = json.load(f)
        assert on_disk["plan_verification"] == json.loads(
            json.dumps(d.manifest["plan_verification"]))
        # the amended manifest is re-signed: the integrity audit still passes
        from repro.export.integrity import verify_artifacts
        assert verify_artifacts(out).ok

    @staticmethod
    def _calibrated_vgg(seed):
        rng = np.random.default_rng(seed)
        qm = quantize_model(build_model("vgg8", num_classes=10,
                                        width_mult=0.5), QConfig(8, 8))
        calibrate_model(qm, [rng.standard_normal(
            (4, 3, 32, 32)).astype(np.float32) for _ in range(2)])
        return qm

    def test_deploy_gate_raises_on_bad_plan(self, monkeypatch):
        orig = Plan.compile.__func__

        def miscompile(cls, qnn, spec=None, **kw):
            plan = orig(cls, qnn, spec, **kw)
            plan.ops[-1].src = (plan.ops[-1].dst,)  # self-read: use-before-def
            return plan

        monkeypatch.setattr(Plan, "compile", classmethod(miscompile))
        with pytest.raises(PlanVerificationError) as ei:
            deploy(self._calibrated_vgg(2), DeploySpec(runtime="auto"))
        assert ei.value.report is not None
        assert not ei.value.report.ok

    def test_verify_cache_and_refresh(self, deployed_resnet):
        plan = copy.deepcopy(deployed_resnet.plan)
        plan._verification = None
        first = plan.verify()
        assert plan.verify() is first
        assert plan.verify(refresh=True) is not first
        # non-default configs never return the cached default report
        assert plan.verify(accum_bits=24) is not first

    def test_error_exception_names_rules(self):
        plan = _chain_plan()
        plan.ops[1].src = (3,)
        rep = verify_plan(plan)
        err = PlanVerificationError(rep)
        assert "plan.dead-read" in str(err)
        assert err.report is rep

    def test_reaches_severity_validates_threshold(self):
        with pytest.raises(ValueError):
            reaches_severity([], "fatal")
