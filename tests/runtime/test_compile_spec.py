"""CompileSpec: validation, CLI translation and plumbing.

The spec is the *single* compile entry point — ``Plan.compile(qnn, spec)``
and ``DeploySpec.compile`` both route through it, the compiled plan records
it, and the static verifier embeds it in the report.  Its only field is
``threads``: native convs, fusion, tiling and the im2col gather are the
compiler's decisions, and the old knobs are rejected as unknown kwargs.
"""
from __future__ import annotations

import argparse
import dataclasses

import numpy as np
import pytest

from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.runtime import CompileSpec, Plan, ckernel
from repro.runtime.arena import Arena
from repro.runtime.compiler import compile_program


class TestValidation:
    def test_defaults(self):
        assert [f.name for f in dataclasses.fields(CompileSpec)] == ["threads"]
        assert CompileSpec().threads == 0

    @pytest.mark.parametrize("bad", [
        dict(fusion="max"), dict(layout="diagonal"), dict(threads=-1),
        dict(threads=257), dict(tile_kc=-1), dict(tile_oc=3),
        dict(im2col_cache=False),
    ])
    def test_rejects_bad_values(self, bad):
        # out-of-range threads are a ValueError; the deleted knobs are
        # unknown keywords
        with pytest.raises(ValueError if "threads" in bad else TypeError):
            CompileSpec(**bad)

    def test_frozen(self):
        with pytest.raises(Exception):
            CompileSpec().threads = 2

    def test_evolve_and_json(self):
        spec = CompileSpec().evolve(threads=2)
        assert spec.threads == 2
        assert spec.to_json() == {"threads": 2}

    def test_resolution(self):
        assert CompileSpec(threads=4).resolved_threads() == 4
        assert 1 <= CompileSpec().resolved_threads() <= 8


class TestFromArgs:
    def test_maps_cli_flags(self):
        spec = CompileSpec.from_args(argparse.Namespace(threads=2))
        assert spec == CompileSpec(threads=2)

    def test_missing_attrs_keep_defaults(self):
        assert CompileSpec.from_args(argparse.Namespace()) == CompileSpec()

    def test_none_values_keep_defaults(self):
        args = argparse.Namespace(threads=None)
        assert CompileSpec.from_args(args) == CompileSpec()

    def test_runtime_attr_is_not_a_layout(self):
        # neither attribute maps onto the spec: the compiler picks kernels
        for attr in ("runtime", "layout"):
            args = argparse.Namespace(**{attr: "batch"})
            assert CompileSpec.from_args(args) == CompileSpec()


class TestPlanCompile:
    def test_plan_records_spec(self, deployed_factory):
        d, x, ref = deployed_factory("resnet20")
        spec = CompileSpec(threads=1)
        plan = Plan.compile(d.qnn, spec)
        assert plan.spec is spec
        assert np.array_equal(plan(x), ref)

    def test_verification_report_embeds_spec(self, deployed_factory):
        d, _, _ = deployed_factory("resnet20")
        spec = CompileSpec(threads=2)
        plan = Plan.compile(d.qnn, spec)
        rep = plan.verify(input_shape=(3, 32, 32))
        assert rep.ok
        js = rep.to_json()
        assert js["compile_spec"] == {"threads": 2}
        assert "layout" not in js

    def test_layout_kwarg_is_gone(self, deployed_factory):
        d, x, ref = deployed_factory("resnet20")
        with pytest.raises(TypeError):
            Plan.compile(d.qnn, layout="batch")
        with pytest.raises(TypeError):
            compile_program(d.qnn, layout="batch")
        with pytest.raises(TypeError):
            CompileSpec(layout="batch")
        with pytest.raises(TypeError):
            Plan([], 1, 0, "m", 10, layout="batch")
        with pytest.raises(TypeError):
            Arena(1, 1, layout="batch")
        plan = Plan.compile(d.qnn)
        assert not hasattr(plan, "layout")
        assert (any(getattr(op, "native", False) for op in plan.ops)
                == (ckernel.load() is not None))
        assert np.array_equal(plan(x), ref)


def _calibrated_vgg(seed=11):
    rng = np.random.default_rng(seed)
    qm = quantize_model(build_model("vgg8", num_classes=10, width_mult=0.5),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32))
                         .astype(np.float32) for _ in range(2)])
    return qm


class TestDeployPlumbing:
    def test_deploy_spec_carries_compile_spec(self):
        cspec = CompileSpec(threads=1)
        d = deploy(_calibrated_vgg(), DeploySpec(compile=cspec))
        assert d.plan is not None and d.plan.spec is cspec
        assert d.spec.to_json()["compile"] == {"threads": 1}

    def test_deploy_spec_rejects_non_spec_compile(self):
        with pytest.raises(ValueError, match="CompileSpec"):
            DeploySpec(compile="full")

    def test_runtime_is_not_a_layout(self, no_ckernel):
        with pytest.raises(ValueError, match="compiler picks"):
            DeploySpec(runtime="batch")
        with no_ckernel():
            d = deploy(_calibrated_vgg(), DeploySpec())
        assert d.plan is not None
        assert not any(getattr(op, "native", False) for op in d.plan.ops)
