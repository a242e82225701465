"""DeploySpec / deploy() API: one spec, one spelling per stage."""
from __future__ import annotations

import argparse
import os
import tempfile

import numpy as np
import pytest

from repro import telemetry
from repro.core import DeploySpec, T2C, deploy
from repro.core.fixed_point import FixedPointFormat
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.runtime import CompileSpec


def _calibrated(seed=0, batches=1):
    rng = np.random.default_rng(seed)
    qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                         for _ in range(batches)])
    return qm


class TestDeploySpec:
    def test_defaults(self):
        spec = DeploySpec()
        assert spec.fusion == "channel" and not spec.float_scale
        assert spec.fixed_point == FixedPointFormat(4, 12)
        assert spec.export_dir is None and spec.formats == ("dec",)
        assert spec.runtime == "auto" and spec.accum_bits == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            DeploySpec(fusion="magic")
        with pytest.raises(ValueError):
            DeploySpec(runtime="diagonal")

    def test_from_args_maps_cli_flags(self):
        args = argparse.Namespace(fusion="prefuse", float_scale=True,
                                  accum_bits=24, out_dir="deploy/",
                                  formats=["hex", "qint"], runtime="none")
        spec = DeploySpec.from_args(args)
        assert spec.fusion == "prefuse" and spec.float_scale
        assert spec.accum_bits == 24 and spec.export_dir == "deploy/"
        assert spec.formats == ("hex", "qint")
        assert spec.runtime == "none" and spec.compile == CompileSpec()
        # how the plan runs is the compiler's pick, never a runtime value
        with pytest.raises(ValueError, match="compiler picks"):
            DeploySpec.from_args(argparse.Namespace(runtime="batch"))

    def test_from_args_maps_compile_flags(self):
        spec = DeploySpec.from_args(argparse.Namespace(threads=2))
        assert spec.compile == CompileSpec(threads=2)

    def test_from_args_defaults_for_missing_attrs(self):
        spec = DeploySpec.from_args(argparse.Namespace())
        assert spec == DeploySpec()

    def test_deploy_spec_fields_are_pinned(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(DeploySpec)] == [
            "fusion", "fixed_point", "float_scale", "lint", "accum_bits",
            "export_dir", "formats", "runtime", "compile"]
        # the hand-off checks have no opt-out
        for kwargs in (dict(verify_artifacts=False), dict(verify_plan=False),
                       dict(golden_vectors=0),
                       dict(golden_input_shape=(3, 32, 32))):
            with pytest.raises(TypeError):
                DeploySpec(**kwargs)

    def test_evolve_and_json(self):
        spec = DeploySpec().evolve(fusion="prefuse")
        assert spec.fusion == "prefuse"
        js = spec.to_json()
        assert js["fusion"] == "prefuse" and js["formats"] == ["dec"]


class TestDeploy:
    def test_one_call_deploy_compiles_exact_plan(self, no_ckernel):
        qm = _calibrated()
        with no_ckernel():
            d = deploy(qm, DeploySpec())
        assert not any(getattr(op, "native", False) for op in d.plan.ops)
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
        from repro.tensor import no_grad
        from repro.tensor.tensor import Tensor

        with no_grad():
            ref = d.qnn(Tensor(x)).data
        assert np.array_equal(ref, d.plan(x))
        assert np.array_equal(ref, d(x))

    def test_lint_and_export_through_spec(self):
        qm = _calibrated(seed=2)
        with tempfile.TemporaryDirectory() as td:
            d = deploy(qm, DeploySpec(lint=True, export_dir=td,
                                      formats=("dec",), runtime="none"))
            assert d.plan is None
            assert d.lint_report is not None and d.lint_report.ok
            assert d.manifest is not None
            assert os.path.exists(os.path.join(td, "manifest.json"))

    def test_overrides(self):
        qm = _calibrated(seed=3)
        d = deploy(qm, runtime="none")
        assert d.plan is None and d.spec.runtime == "none"

    def test_export_is_verified_by_default(self):
        qm = _calibrated(seed=9)
        with tempfile.TemporaryDirectory() as td:
            out = os.path.join(td, "art")
            d = deploy(qm, DeploySpec(export_dir=out, formats=("dec", "qint"),
                                      runtime="none"))
            assert d.integrity is not None and d.integrity.ok
            assert d.integrity.tensors_checked == len(d.manifest["tensors"])

    def test_each_handoff_result_is_produced_once(self, tmp_path,
                                                  monkeypatch):
        """One deploy() signs its manifest once, audits once and proves the
        plan once; registering the bundle audits again and re-proves
        nothing (the gate reuses the proof cached on the plan)."""
        import repro.export.integrity
        import repro.export.writer
        import repro.lint.plan
        from repro.runtime import Plan
        from repro.server import ModelRegistry

        calls = {"amend": 0, "audit": 0, "verify": 0, "prove": 0}

        def counted(key, fn):
            def wrapper(*a, **kw):
                calls[key] += 1
                return fn(*a, **kw)
            return wrapper

        monkeypatch.setattr(repro.export.writer, "amend_manifest", counted(
            "amend", repro.export.writer.amend_manifest))
        monkeypatch.setattr(repro.export.integrity, "verify_artifacts",
                            counted("audit",
                                    repro.export.integrity.verify_artifacts))
        monkeypatch.setattr(Plan, "verify", counted("verify", Plan.verify))
        monkeypatch.setattr(repro.lint.plan, "verify_plan", counted(
            "prove", repro.lint.plan.verify_plan))
        out = str(tmp_path / "art")
        d = deploy(_calibrated(seed=10), DeploySpec(export_dir=out, lint=True))
        assert calls == {"amend": 1, "audit": 1, "verify": 1, "prove": 1}
        assert {"plan_verification", "golden"} <= set(d.manifest)
        ModelRegistry().register("m", "1", d)
        assert calls["audit"] == 2 and calls["prove"] == 1

    @pytest.mark.parametrize("accum_bits", [16, 32])
    def test_lint_runs_once_with_spec_accum_bits(self, monkeypatch,
                                                 accum_bits):
        import repro.lint
        from repro.lint import lint_model

        calls = []

        def counting(model, **kw):
            calls.append(kw)
            return lint_model(model, **kw)

        monkeypatch.setattr(repro.lint, "lint_model", counting)
        d = deploy(_calibrated(seed=11), lint=True, accum_bits=accum_bits,
                   runtime="none")
        assert calls == [dict(accum_bits=accum_bits)]
        assert d.lint_report.to_json() == lint_model(
            d.fused, accum_bits=accum_bits).to_json()


class TestOneSpelling:
    """The pre-spec kwargs are gone, not deprecated."""

    def test_t2c_takes_only_a_spec(self):
        qm = _calibrated(seed=4)
        for kwargs in (dict(mode="prefuse"), dict(float_scale=False),
                       dict(fmt=FixedPointFormat(4, 12)),
                       dict(lint_after_fuse=False)):
            with pytest.raises(TypeError):
                T2C(qm, **kwargs)
        assert T2C(qm, spec=DeploySpec(fusion="prefuse")).mode == "prefuse"

    def test_nn2chip_exports_from_the_spec(self, tmp_path):
        with pytest.raises(TypeError):
            T2C(_calibrated(seed=6)).nn2chip(save_model=True)
        out = str(tmp_path / "out")
        T2C(_calibrated(seed=6), spec=DeploySpec(export_dir=out)).nn2chip()
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_export_model_takes_a_spec(self, tmp_path):
        from repro.export.writer import export_model

        qnn = T2C(_calibrated(seed=7)).nn2chip()
        out = str(tmp_path / "out")
        with pytest.raises(TypeError):
            export_model(qnn, out, formats=("dec",))
        with pytest.raises(ValueError, match="export_dir"):
            export_model(qnn, DeploySpec())
        manifest = export_model(qnn, DeploySpec(export_dir=out))
        assert manifest["tensors"]


class TestStaleCalibration:
    def test_uncalibrated_quantizer_is_surfaced(self):
        from repro.lint import lint_model
        from repro.telemetry.report import EventLog, set_event_sink

        qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                            QConfig(8, 8))
        log = EventLog()
        prev = set_event_sink(log)
        telemetry.enable()
        try:
            calibrate_model(qm, [])  # zero batches: every observer is stale
        finally:
            telemetry.disable()
            set_event_sink(prev)
        stale_events = [e for e in log.events
                        if e["kind"] == "calibration_stale"]
        assert stale_events and stale_events[0]["severity"] == "WARNING"
        assert stale_events[0]["count"] == len(qm._stale_calibration) > 0

        T2C(qm).fuse()
        rep = lint_model(qm)
        stale = [f for f in rep.findings
                 if f.rule == "contract.stale-calibration"]
        assert stale, "lint must surface never-calibrated quantizers"
        assert all(f.severity == "WARN" for f in stale)
        # fusion renames some modules, but the surviving quantizer paths
        # still appear among the recorded stale names
        assert {f.where for f in stale} & set(qm._stale_calibration)

    def test_calibrated_model_has_no_stale_findings(self):
        from repro.lint import lint_model

        qm = _calibrated(seed=8)
        assert qm._stale_calibration == []
        T2C(qm).fuse()
        rep = lint_model(qm)
        assert not [f for f in rep.findings
                    if f.rule == "contract.stale-calibration"]
