"""Fig. 3 ablation: fusion modes vs precision (paper §3.2.1).

The workflow figure's underlying claim — validated numerically here — is
that (a) the automatic fusion produces an integer-only model equivalent to
the fake-quant model, and (b) the 8-bit "Pre-Fusing" scheme (fold BN into
weights) destabilizes below 8 bits, while the channel-wise scaling scheme
(MulQuant carries gamma*) keeps working — the reason Torch2Chip supports
both (paper Eq. 14 vs Eq. 15, Park & Yoo 2020).

Sweep: {ResNet-20, MobileNet-V1} x {8, 6, 4 bits} x {channel, prefuse}.
"""
import numpy as np
import pytest

from benchmarks.conftest import EPOCHS, get_or_train, print_table
from repro.core import DeploySpec, T2C
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.tensor import Tensor, no_grad
from repro.trainer import Trainer, evaluate
from repro.utils import seed_everything

ARCHS = [("resnet20", dict(width=8), 0.1), ("mobilenet-v1", dict(width_mult=1.0), 0.2)]
BITS = (8, 6, 4)


@pytest.fixture(scope="module")
def fp_models(cifar_data):
    train, test = cifar_data
    models = {}
    for arch, kwargs, lr in ARCHS:
        def builder(arch=arch, kwargs=kwargs):
            seed_everything(90)
            return build_model(arch, num_classes=10, **kwargs)

        def factory(arch=arch, kwargs=kwargs, lr=lr):
            m = builder()
            Trainer(m, train, test, epochs=EPOCHS, batch_size=64, lr=lr).fit()
            return m

        models[arch] = get_or_train(f"fig3_{arch}_fp", factory, builder)
    return models


@pytest.fixture(scope="module")
def fig3(fp_models, cifar_data):
    train, test = cifar_data
    results = {}
    rows = []
    for arch, _, _ in ARCHS:
        model = fp_models[arch]
        fp_acc = evaluate(model, test)
        for bits in BITS:
            for mode in ("channel", "prefuse"):
                qm = quantize_model(model, QConfig(bits, bits))
                calibrate_model(qm, [train.images[i * 64:(i + 1) * 64] for i in range(8)])
                fq_acc = evaluate(qm, test)
                T2C(qm, spec=DeploySpec(fusion=mode)).fuse()
                int_acc = evaluate(qm, test)
                results[(arch, bits, mode)] = dict(fp=fp_acc, fq=fq_acc, integer=int_acc)
                rows.append([arch, f"{bits}/{bits}", mode, f"{fq_acc:.4f}",
                             f"{int_acc:.4f}", f"{int_acc - fq_acc:+.4f}"])
    print_table("Fig 3 ablation: fusion mode vs precision",
                ["Model", "W/A", "Fusion", "FakeQuant", "Integer", "Int-FQ gap"], rows)
    return results


class TestFig3Claims:
    def test_8bit_integer_equivalence_both_modes(self, fig3):
        for arch, _, _ in ARCHS:
            for mode in ("channel", "prefuse"):
                r = fig3[(arch, 8, mode)]
                assert abs(r["integer"] - r["fq"]) < 0.04, (arch, mode)

    def test_channel_mode_faithful_at_all_precisions(self, fig3):
        for (arch, bits, mode), r in fig3.items():
            if mode == "channel":
                assert r["integer"] >= r["fq"] - 0.08, (arch, bits)

    def test_prefuse_degrades_sub8bit_on_mobilenet(self, fig3):
        """The depthwise net is where pre-fusing breaks at low precision."""
        gap_pf = fig3[("mobilenet-v1", 4, "prefuse")]["integer"] - fig3[("mobilenet-v1", 4, "prefuse")]["fq"]
        gap_ch = fig3[("mobilenet-v1", 4, "channel")]["integer"] - fig3[("mobilenet-v1", 4, "channel")]["fq"]
        assert gap_ch >= gap_pf - 0.02  # channel at least as faithful

    def test_lower_precision_lower_accuracy(self, fig3):
        for arch, _, _ in ARCHS:
            a8 = fig3[(arch, 8, "channel")]["integer"]
            a4 = fig3[(arch, 4, "channel")]["integer"]
            assert a4 <= a8 + 0.03


def test_fusion_conversion_latency(benchmark, fp_models, cifar_data):
    """pytest-benchmark target: full T2C fuse() of a calibrated ResNet-20."""
    train, _ = cifar_data
    model = fp_models["resnet20"]

    def convert():
        qm = quantize_model(model, QConfig(8, 8))
        calibrate_model(qm, [train.images[:64]])
        T2C(qm).fuse()
        return qm

    benchmark(convert)
