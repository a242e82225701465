"""CompileError paths: every refusal names the offending module, and the
plan signature is sensitive to every op parameter (no silent collisions)."""
import copy

import numpy as np
import pytest

from repro.runtime import ckernel
from repro.runtime.compiler import CompileError, compile_program
from repro.runtime.executor import Plan
from repro.runtime.kernels import MQParams, new_sig
from repro.runtime.program import (ConvMQOp, InputQuantOp, LinearMQOp,
                                   MulQuantOp, ResidualOp)


class TestCompileErrors:
    def test_non_repacked_model_refused(self):
        class NotAModel:
            pass

        with pytest.raises(CompileError, match="NotAModel"):
            compile_program(NotAModel())
        with pytest.raises(CompileError, match="nn2chip"):
            compile_program(object())

    def test_unsupported_architecture_named(self):
        from repro import nn
        from repro.core.vanilla import InputQuant

        class ExoticNet(nn.Module):
            def __init__(self):
                super().__init__()
                self.input_q = InputQuant(scale=0.05, qlb=-128, qub=127)

        with pytest.raises(CompileError) as ei:
            compile_program(ExoticNet())
        assert "ExoticNet" in str(ei.value)
        assert "QResNet" in str(ei.value)  # the refusal lists what IS supported

    def test_vit_compiles_like_a_cnn(self, deployed_factory):
        # no refusal left to raise: a ViT takes the one register model,
        # its patch conv native wherever the kernel loaded
        d, _, _ = deployed_factory("vit-7")
        plan = compile_program(d.qnn)
        assert not hasattr(plan, "layout")
        assert plan.ops[1].native == (ckernel.load() is not None)

    def test_malformed_unit_names_offender(self, deployed_factory):
        d, _, _ = deployed_factory("vgg8")
        qnn = copy.deepcopy(d.qnn)
        # find a conv unit and unwire its MulQuant: the exact state a
        # missed fuse() leaves behind
        victim = next(m for _, m in qnn.named_modules()
                      if hasattr(m, "conv") and getattr(m, "mq", None)
                      is not None)
        name = next(n for n, m in qnn.named_modules() if m is victim)
        victim.mq = None
        with pytest.raises(CompileError) as ei:
            compile_program(qnn)
        assert name in str(ei.value)
        assert "MulQuant" in str(ei.value)

    def test_missing_pool_mq_refused(self, deployed_factory):
        d, _, _ = deployed_factory("vgg8")
        qnn = copy.deepcopy(d.qnn)
        qnn.mq_pool = None
        with pytest.raises(CompileError, match="mq_pool"):
            compile_program(qnn)


def _digest(op):
    h = new_sig()
    op.sig_update(h)
    return h.hexdigest()


def _mq(m=0.5, b=0.0, lo=-128.0, hi=127.0, axis=1):
    return MQParams(np.asarray(m), np.asarray(b), lo, hi, axis)


class TestSignatureSensitivity:
    """Op.sig_update must change whenever any op parameter changes —
    otherwise two different programs could share a signature and the
    determinism/caching contracts would silently lie."""

    def test_input_quant_params(self):
        base = InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127)
        assert _digest(base) == _digest(
            InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=127))
        for variant in (
                InputQuantOp("in", (0,), 1, scale=0.06, qlb=-128, qub=127),
                InputQuantOp("in", (0,), 1, scale=0.05, qlb=-127, qub=127),
                InputQuantOp("in", (0,), 1, scale=0.05, qlb=-128, qub=126),
                InputQuantOp("in2", (0,), 1, scale=0.05, qlb=-128, qub=127),
                InputQuantOp("in", (0,), 2, scale=0.05, qlb=-128, qub=127)):
            assert _digest(variant) != _digest(base)

    def test_mulquant_params(self):
        base = MulQuantOp("q", (1,), 2, _mq())
        assert _digest(base) == _digest(MulQuantOp("q", (1,), 2, _mq()))
        for variant in (MulQuantOp("q", (1,), 2, _mq(m=0.25)),
                        MulQuantOp("q", (1,), 2, _mq(b=1.0)),
                        MulQuantOp("q", (1,), 2, _mq(lo=-64.0)),
                        MulQuantOp("q", (1,), 2, _mq(hi=63.0)),
                        MulQuantOp("q", (2,), 3, _mq())):
            assert _digest(variant) != _digest(base)

    def test_weight_bytes_matter(self):
        w = np.arange(12, dtype=np.float32).reshape(4, 3)
        base = LinearMQOp("fc", (1,), 2, w, _mq())
        assert _digest(base) == _digest(LinearMQOp("fc", (1,), 2, w.copy(),
                                                   _mq()))
        w2 = w.copy()
        w2[0, 0] += 1.0
        assert _digest(LinearMQOp("fc", (1,), 2, w2, _mq())) != _digest(base)

    def test_residual_params(self):
        base = ResidualOp("r", (1, 2), 3, res_scale=2.0, lo=-128, hi=127)
        for variant in (
                ResidualOp("r", (1, 2), 3, res_scale=4.0, lo=-128, hi=127),
                ResidualOp("r", (1, 2), 3, res_scale=2.0, lo=-64, hi=127),
                ResidualOp("r", (2, 1), 3, res_scale=2.0, lo=-128, hi=127)):
            assert _digest(variant) != _digest(base)

    def test_plan_signature_tracks_ops(self, deployed_factory):
        d, _, _ = deployed_factory("vgg8")
        plan = d.plan if d.plan is not None else Plan.compile(d.qnn)
        sig = plan.signature()
        assert sig == plan.signature()  # deterministic
        mutant = copy.deepcopy(plan)
        mq_op = next(op for op in mutant.ops
                     if getattr(op, "mq", None) is not None)
        mq_op.mq.m = mq_op.mq.m * 2.0
        assert mutant.signature() != sig

    def test_conv_certificate_in_signature(self, deployed_factory):
        d, _, _ = deployed_factory("resnet20")
        plan = d.plan if d.plan is not None else Plan.compile(d.qnn)
        conv = next(op for op in plan.ops if isinstance(op, ConvMQOp))
        h1 = new_sig()
        conv.sig_update(h1)
        conv.stride += 1
        h2 = new_sig()
        conv.sig_update(h2)
        conv.stride -= 1
        assert h1.hexdigest() != h2.hexdigest()
