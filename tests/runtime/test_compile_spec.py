"""CompileSpec: validation, CLI translation and plumbing.

The spec is the *single* compile entry point — ``Plan.compile(qnn, spec)``
and ``DeploySpec.compile`` both route through it, the compiled plan records
it, and the static verifier embeds it in the report.  There is no
``layout=`` kwarg and no layout-valued ``DeploySpec.runtime``.
"""
from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.runtime import CompileSpec, Plan
from repro.runtime.compiler import compile_program


class TestValidation:
    def test_defaults(self):
        spec = CompileSpec()
        assert spec.fusion == "full" and spec.layout == "auto"
        assert spec.threads == 0 and spec.tile_kc == 0 and spec.tile_oc == 0
        assert spec.im2col_cache

    @pytest.mark.parametrize("bad", [
        dict(fusion="max"), dict(layout="diagonal"), dict(threads=-1),
        dict(threads=257), dict(tile_kc=-1), dict(tile_oc=3),
        dict(tile_oc=16),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            CompileSpec(**bad)

    def test_frozen(self):
        with pytest.raises(Exception):
            CompileSpec().fusion = "none"

    def test_evolve_and_json(self):
        spec = CompileSpec().evolve(fusion="requant", threads=2)
        assert spec.fusion == "requant" and spec.threads == 2
        js = spec.to_json()
        assert js == {"fusion": "requant", "layout": "auto", "threads": 2,
                      "tile_kc": 0, "tile_oc": 0, "im2col_cache": True}

    def test_resolution(self):
        assert CompileSpec(threads=4).resolved_threads() == 4
        assert CompileSpec().resolved_threads() >= 1
        assert CompileSpec().tile_bytes() == 512 * 1024
        assert CompileSpec(tile_kc=64).tile_bytes() == 64 * 1024


class TestFromArgs:
    def test_maps_cli_flags(self):
        args = argparse.Namespace(fusion_level="requant", threads=2,
                                  tile_kc=256, tile_oc=8, im2col_cache=False)
        spec = CompileSpec.from_args(args)
        assert spec == CompileSpec(fusion="requant", threads=2, tile_kc=256,
                                   tile_oc=8, im2col_cache=False)

    def test_missing_attrs_keep_defaults(self):
        assert CompileSpec.from_args(argparse.Namespace()) == CompileSpec()

    def test_none_values_keep_defaults(self):
        args = argparse.Namespace(fusion_level=None, threads=None,
                                  tile_kc=None, tile_oc=None,
                                  im2col_cache=None)
        assert CompileSpec.from_args(args) == CompileSpec()

    def test_runtime_attr_is_not_a_layout(self):
        spec = CompileSpec.from_args(argparse.Namespace(runtime="batch"))
        assert spec.layout == "auto"
        spec = CompileSpec.from_args(argparse.Namespace(layout="channel"))
        assert spec.layout == "channel"


class TestPlanCompile:
    def test_plan_records_spec(self, deployed_factory):
        d, x, ref = deployed_factory("resnet20")
        spec = CompileSpec(fusion="requant", threads=1)
        plan = Plan.compile(d.qnn, spec)
        assert plan.spec is spec
        assert np.array_equal(plan(x), ref)

    def test_verification_report_embeds_spec(self, deployed_factory):
        d, _, _ = deployed_factory("resnet20")
        spec = CompileSpec(fusion="full", threads=2)
        rep = Plan.compile(d.qnn, spec).verify(input_shape=(3, 32, 32))
        assert rep.ok
        assert rep.to_json()["compile_spec"] == spec.to_json()

    def test_layout_kwarg_is_gone(self, deployed_factory):
        d, x, ref = deployed_factory("resnet20")
        with pytest.raises(TypeError):
            Plan.compile(d.qnn, layout="batch")
        with pytest.raises(TypeError):
            compile_program(d.qnn, layout="batch")
        plan = Plan.compile(d.qnn, CompileSpec(layout="batch"))
        assert plan.layout == "batch" and plan.spec.layout == "batch"
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
        cspec = CompileSpec(fusion="requant", threads=1)
        d = deploy(_calibrated_vgg(), DeploySpec(compile=cspec))
        assert d.plan is not None and d.plan.spec is cspec
        assert d.spec.to_json()["compile"] == cspec.to_json()

    def test_deploy_spec_rejects_non_spec_compile(self):
        with pytest.raises(ValueError, match="CompileSpec"):
            DeploySpec(compile="full")

    def test_runtime_is_not_a_layout(self):
        with pytest.raises(ValueError, match="compile.layout"):
            DeploySpec(runtime="batch")
        d = deploy(_calibrated_vgg(),
                   DeploySpec(compile=CompileSpec(layout="batch")))
        assert d.plan is not None and d.plan.layout == "batch"
