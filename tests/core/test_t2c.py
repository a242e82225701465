"""T2C top-level converter and the vanilla re-pack."""
import os

import numpy as np
import pytest

from repro import nn
from repro.core.qconfig import QConfig
from repro.core.qlayers import QConv2d, QLinear
from repro.core.qmodels import quantize_model
from repro.core.t2c import DeploySpec, T2C, calibrate_model
from repro.core.vanilla import InputQuant, integer_state_report, repack
from repro.tensor import Tensor, no_grad


@pytest.fixture
def fused_qm(resnet20_with_stats, tiny_data):
    train, _ = tiny_data
    qm = quantize_model(resnet20_with_stats, QConfig(8, 8))
    calibrate_model(qm, [train.images[i * 64:(i + 1) * 64] for i in range(4)])
    t2c = T2C(qm)
    t2c.fuse()
    return qm, t2c


class TestCalibration:
    def test_sets_activation_scales(self, resnet20_with_stats, tiny_data):
        train, _ = tiny_data
        qm = quantize_model(resnet20_with_stats, QConfig(8, 8))
        calibrate_model(qm, [train.images[:64]])
        assert float(qm.stem.conv.aq.scale.data) != 1.0
        assert qm.stem.conv.aq.calibrated

    def test_observe_flags_cleared(self, resnet20_with_stats, tiny_data):
        from repro.core.qbase import _QBase
        train, _ = tiny_data
        qm = quantize_model(resnet20_with_stats, QConfig(8, 8))
        calibrate_model(qm, [train.images[:64]])
        assert all(not m.observe for m in qm.modules() if isinstance(m, _QBase))


class TestFuse:
    def test_fuse_switches_deploy(self, fused_qm):
        qm, _ = fused_qm
        assert qm.deploy
        assert qm.stem.conv.deploy

    def test_double_fuse_not_required_for_nn2chip(self, resnet20_with_stats, tiny_data):
        train, _ = tiny_data
        qm = quantize_model(resnet20_with_stats, QConfig(8, 8))
        calibrate_model(qm, [train.images[:64]])
        qnn = T2C(qm).nn2chip()  # implicit fuse
        assert isinstance(qnn.input_q, InputQuant)


class TestRepack:
    def test_repack_equals_fused_bitwise(self, fused_qm, tiny_data):
        qm, t2c = fused_qm
        _, test = tiny_data
        qnn = t2c.nn2chip()
        x = Tensor(test.images[:32])
        with no_grad():
            np.testing.assert_array_equal(qm(x).data, qnn(x).data)

    def test_repack_has_no_custom_layers(self, fused_qm):
        _, t2c = fused_qm
        qnn = t2c.nn2chip()
        for m in qnn.modules():
            assert not isinstance(m, (QConv2d, QLinear))

    def test_repack_weights_are_integers(self, fused_qm):
        _, t2c = fused_qm
        qnn = t2c.nn2chip()
        report = integer_state_report(qnn)
        # only the ADC scale (input_q.scale) may be non-integer
        assert report["names_non_integer"] == ["input_q.scale"]

    def test_repack_drops_batchnorm(self, fused_qm):
        _, t2c = fused_qm
        qnn = t2c.nn2chip()
        assert not any(isinstance(m, nn.BatchNorm2d) for m in qnn.modules())

    def test_original_model_untouched(self, fused_qm):
        qm, t2c = fused_qm
        t2c.nn2chip()
        assert isinstance(qm.stem.conv, QConv2d)  # source not mutated

    def test_repacked_weight_range_matches_precision(self, fused_qm):
        _, t2c = fused_qm
        qnn = t2c.nn2chip()
        for name, p in qnn.named_parameters():
            if name.endswith("weight"):
                assert p.data.min() >= -128 and p.data.max() <= 127


class TestExportIntegration:
    def test_nn2chip_exports(self, resnet20_with_stats, tiny_data, tmp_path):
        train, _ = tiny_data
        qm = quantize_model(resnet20_with_stats, QConfig(8, 8))
        calibrate_model(qm, [train.images[:64]])
        T2C(qm, spec=DeploySpec(export_dir=str(tmp_path / "out"),
                                formats=("dec", "hex", "qint"))).nn2chip()
        assert (tmp_path / "out" / "manifest.json").exists()
        assert sorted(os.listdir(tmp_path / "out")) == [
            "manifest.json", "tensors.dec", "tensors.float.txt",
            "tensors.hex", "tensors.qint"]
