"""Fusion: BN algebra, channel vs prefuse modes, integer==fake-quant."""
import numpy as np
import pytest

from repro.core.fusion import MobileNetFuser, ResNetFuser, build_fuser
from repro.core.qconfig import QConfig
from repro.core.qmodels import QMobileNetV1, QResNet, quantize_model
from repro.core.t2c import DeploySpec, T2C, calibrate_model
from repro.tensor import Tensor, no_grad


@pytest.fixture
def calibrated_resnet(resnet20_with_stats, tiny_data):
    train, _ = tiny_data
    qm = quantize_model(resnet20_with_stats, QConfig(wbit=8, abit=8))
    calibrate_model(qm, [train.images[i * 64:(i + 1) * 64] for i in range(4)])
    qm.eval()
    return qm


class TestFusionAlgebra:
    def test_fused_mulquant_reproduces_conv_bn_relu(self, rng):
        """One unit, by hand: int-conv + MulQuant == quantize(relu(bn(conv)))."""
        from repro import nn
        from repro.core.qlayers import QConv2d
        from repro.core.qmodels import QConvBNReLU
        from repro.core.quantizers import MinMaxChannelQuantizer, MinMaxQuantizer

        conv = nn.Conv2d(4, 8, 3, padding=1, bias=False)
        bn = nn.BatchNorm2d(8)
        bn.running_mean.data = rng.standard_normal(8).astype(np.float32) * 0.2
        bn.running_var.data = rng.random(8).astype(np.float32) + 0.5
        bn.weight.data = rng.random(8).astype(np.float32) + 0.5
        bn.bias.data = rng.standard_normal(8).astype(np.float32) * 0.1
        bn.eval()

        aq = MinMaxQuantizer(nbit=8)
        unit = QConvBNReLU(QConv2d.from_float(conv, MinMaxChannelQuantizer(nbit=8), aq), bn, relu=True)
        unit.eval()
        x = Tensor(rng.standard_normal((4, 4, 8, 8)).astype(np.float32))
        with no_grad():
            aq.observer.update(x.data)
            aq.finalize_calibration()
            y_fake = unit(x).data  # train path (fake quant)

        s_next = 0.01
        fuser = ResNetFuser.__new__(ResNetFuser)
        from repro.core.fixed_point import FixedPointFormat
        fuser.fmt, fuser.mode, fuser.float_scale, fuser.headroom = FixedPointFormat(4, 12), "channel", False, 4
        fuser.fuse_unit(unit, s_next, (0.0, 255.0))
        unit.set_deploy(True)
        with no_grad():
            x_int = aq.q(x)
            y_int = unit(x_int).data
        np.testing.assert_allclose(y_int * s_next, np.clip(y_fake, 0, 255 * s_next), atol=1.5 * s_next)

    def test_zero_point_folds_into_bias(self, rng):
        """Asymmetric input grids (paper Eq. 2's Z) deploy exactly: the layer
        subtracts the integer offset before the MACs (zero padding stays
        exact) and the consumer offset rides in the MulQuant bias."""
        from repro import nn
        from repro.core.fixed_point import FixedPointFormat
        from repro.core.qlayers import QConv2d
        from repro.core.qmodels import QConvBNReLU
        from repro.core.quantizers import AsymMinMaxQuantizer, MinMaxChannelQuantizer
        from repro.tensor import no_grad

        conv = nn.Conv2d(4, 6, 3, padding=1, bias=True)
        aq = AsymMinMaxQuantizer(nbit=8)
        unit = QConvBNReLU(QConv2d.from_float(conv, MinMaxChannelQuantizer(nbit=8), aq),
                           bn=None, relu=False)
        unit.eval()
        x = Tensor((rng.standard_normal((4, 4, 8, 8)) * 2 - 1.5).astype(np.float32))
        with no_grad():
            aq.observer.update(x.data)
            aq.finalize_calibration()
            assert float(aq.zero_point.data) > 0  # genuinely asymmetric
            y_fake = unit(x).data

        fuser = ResNetFuser.__new__(ResNetFuser)
        fuser.fmt, fuser.mode, fuser.float_scale, fuser.headroom = \
            FixedPointFormat(4, 12), "channel", False, 4
        s_next = 0.02
        fuser.fuse_unit(unit, s_next, (-(2 ** 20), 2 ** 20))
        unit.set_deploy(True)
        with no_grad():
            x_int = aq.q(x)
            y_int = unit(x_int).data
        np.testing.assert_allclose(y_int * s_next, y_fake, atol=1.5 * s_next)

    def test_prefuse_folds_bn_into_weights(self, calibrated_resnet):
        qm = calibrated_resnet
        T2C(qm, spec=DeploySpec(fusion="prefuse")).fuse()
        # unified scalar scale: MulQuant scale has a single entry
        assert qm.stem.mq.scale.data.size == 1

    def test_channel_mode_keeps_per_channel_scale(self, calibrated_resnet):
        qm = calibrated_resnet
        T2C(qm, spec=DeploySpec(fusion="channel")).fuse()
        assert qm.stem.mq.scale.data.size == qm.stem.conv.out_channels


class TestIntegerEquivalence:
    def _agreement(self, model_fixture, tiny_data, qcfg, mode):
        train, test = tiny_data
        qm = quantize_model(model_fixture, qcfg)
        calibrate_model(qm, [train.images[i * 64:(i + 1) * 64] for i in range(4)])
        qm.eval()
        x = Tensor(test.images[:64])
        with no_grad():
            fq = qm(x).data
        T2C(qm, spec=DeploySpec(fusion=mode)).fuse()
        with no_grad():
            ii = qm(x).data
        corr = np.mean([np.corrcoef(fq[i], ii[i])[0, 1] for i in range(len(fq))])
        return corr

    def test_resnet_channel_mode_high_fidelity(self, resnet20_with_stats, tiny_data):
        corr = self._agreement(resnet20_with_stats, tiny_data, QConfig(8, 8), "channel")
        assert corr > 0.995

    def test_resnet_prefuse_8bit_ok(self, resnet20_with_stats, tiny_data):
        corr = self._agreement(resnet20_with_stats, tiny_data, QConfig(8, 8), "prefuse")
        assert corr > 0.98

    def test_mobilenet_channel_mode(self, mobilenet_with_stats, tiny_data):
        corr = self._agreement(mobilenet_with_stats, tiny_data, QConfig(8, 8), "channel")
        assert corr > 0.85

    def test_sub8bit_channel_beats_prefuse(self, mobilenet_with_stats, tiny_data):
        """The paper's central fusion claim (Park & Yoo 2020): at 4 bits the
        channel-wise scheme must be more faithful than pre-fusing on a
        depthwise network."""
        c_ch = self._agreement(mobilenet_with_stats, tiny_data, QConfig(4, 4), "channel")
        c_pf = self._agreement(mobilenet_with_stats, tiny_data, QConfig(4, 4), "prefuse")
        assert c_ch > c_pf

    def test_integer_outputs_are_integers(self, calibrated_resnet, tiny_data):
        _, test = tiny_data
        T2C(calibrated_resnet).fuse()
        with no_grad():
            out = calibrated_resnet(Tensor(test.images[:8])).data
        np.testing.assert_array_equal(out, np.round(out))


class TestFuserDispatch:
    def test_build_fuser_resnet(self, calibrated_resnet):
        assert isinstance(build_fuser(calibrated_resnet), ResNetFuser)

    def test_build_fuser_mobilenet(self, mobilenet_with_stats):
        qm = quantize_model(mobilenet_with_stats, QConfig(8, 8))
        assert isinstance(build_fuser(qm), MobileNetFuser)

    def test_unknown_model_raises(self):
        from repro import nn
        with pytest.raises(TypeError):
            build_fuser(nn.Linear(2, 2))

    def test_bad_mode_raises(self, calibrated_resnet):
        with pytest.raises(ValueError):
            T2C(calibrated_resnet, spec=DeploySpec(fusion="magic"))
