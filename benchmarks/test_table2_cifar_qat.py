"""Table 2: integer-only DNN zoo on the CIFAR-10 stand-in.

Paper rows (model / method / W-A / accuracy / model size):
  SAWB+PACT ResNet-20 QAT 2/2 + 4/4; RCF ResNet-18 QAT 4/4 + 8/8;
  RCF ViT-7 QAT 8/8; PROFIT MobileNet-V1 QAT 4/4 + 8/8;
  AdaRound MobileNet-V1 PTQ 8/8; PyTorch-style float-scale PTQ 8/8.

Reproduced claims:
  * every QAT config trains to a working model; 8/8 ~= fp; 4/4 within a few
    points; 2/2 degrades the most for its model;
  * integer-only accuracy tracks the fake-quant accuracy for every row;
  * exported model size scales as wbit/32 of the fp32 size;
  * Torch2Chip integer-scale deployment >= the float-scale PyTorch-style
    baseline for MobileNet 8/8.
"""
import numpy as np
import pytest

from benchmarks.conftest import EPOCHS, get_or_train, print_table
from repro.core import DeploySpec, T2C
from repro.core.qconfig import QConfig
from repro.export.report import model_size_mb
from repro.models import build_model
from repro.optim import AdamW
from repro.trainer import PTQTrainer, Trainer, evaluate
from repro.trainer.profit import PROFITTrainer
from repro.trainer.qat import QATTrainer
from repro.utils import seed_everything

QAT_ROWS = [
    # (row id, model name, model kwargs, qcfg, trainer kind)
    # "qat-ws" = warm-start QAT from a trained fp32 model: the paper trains
    # 200 epochs from scratch, which the 6-epoch CPU budget cannot match for
    # the deeper ResNet-18 at 4 bits (see DESIGN.md scale note).
    ("SAWB+PACT 2/2", "resnet20", dict(width=8),
     QConfig(2, 2, wq="sawb", aq="pact"), "qat"),
    ("SAWB+PACT 4/4", "resnet20", dict(width=8),
     QConfig(4, 4, wq="sawb", aq="pact"), "qat"),
    ("RCF 4/4", "resnet18", dict(width=8),
     QConfig(4, 4, wq="rcf_weight", aq="rcf_act"), "qat-ws"),
    ("RCF 8/8", "resnet18", dict(width=8),
     QConfig(8, 8, wq="rcf_weight", aq="rcf_act"), "qat-ws"),
    ("RCF ViT-7 8/8", "vit-7", dict(embed_dim=64),
     QConfig(8, 8, wq="rcf_weight", aq="minmax"), "qat-adam"),
    ("PROFIT MobileNet 4/4", "mobilenet-v1", dict(width_mult=1.0),
     QConfig(4, 4, wq="sawb", aq="pact"), "profit"),
    ("PROFIT MobileNet 8/8", "mobilenet-v1", dict(width_mult=1.0),
     QConfig(8, 8, wq="sawb", aq="pact"), "profit"),
]


def _build(model_name, kwargs, seed):
    seed_everything(seed)
    return build_model(model_name, num_classes=10, **kwargs)


def _train_qat(row, cifar_data):
    rid, model_name, kwargs, qcfg, kind = row
    train, test = cifar_data
    seed = abs(hash(rid)) % 1000

    def builder():
        from repro.core.qmodels import quantize_model
        return quantize_model(_build(model_name, kwargs, seed), qcfg)

    def factory():
        model = _build(model_name, kwargs, seed)
        common = dict(train_set=train, test_set=test, epochs=EPOCHS, batch_size=64)
        if kind == "profit":
            t = PROFITTrainer(model, qcfg=qcfg, phases=3, lr=0.2, **common)
        elif kind == "qat-adam":
            from repro.core.qmodels import quantize_model
            qm = quantize_model(model, qcfg)
            opt = AdamW(qm.parameters(), lr=1e-3, weight_decay=0.05)
            t = QATTrainer(qm, optimizer=opt, **common)
        elif kind == "qat-ws":
            fp_epochs = max(EPOCHS // 2, 1)
            Trainer(model, train, test, epochs=fp_epochs, batch_size=64, lr=0.1).fit()
            t = QATTrainer(model, qcfg=qcfg, lr=0.02, **common)
        else:
            t = QATTrainer(model, qcfg=qcfg, lr=0.1, **common)
        t.fit()
        return t.qmodel

    key = "table2_" + rid.lower().replace(" ", "_").replace("/", "-").replace(":", "")
    if kind == "qat-ws":
        key += "_ws"
    return get_or_train(key, factory, builder)


@pytest.fixture(scope="module")
def table2(cifar_data):
    train, test = cifar_data
    results = {}
    rows = []
    for row in QAT_ROWS:
        rid, model_name, kwargs, qcfg, _ = row
        qm = _train_qat(row, cifar_data)
        fq_acc = evaluate(qm, test)
        qnn = T2C(qm).nn2chip()
        int_acc = evaluate(qnn, test)
        fp_model = _build(model_name, kwargs, 0)
        size = model_size_mb(fp_model, qcfg.wbit)
        results[rid] = dict(fq=fq_acc, integer=int_acc, size=size,
                            params=fp_model.num_parameters())
        rows.append([rid, model_name, f"{qcfg.wbit}/{qcfg.abit}",
                     f"{fq_acc:.4f}", f"{int_acc:.4f}", f"{size:.3f}"])

    # PTQ rows on a shared fp32 MobileNet.
    def fp_factory():
        seed_everything(200)
        m = build_model("mobilenet-v1", num_classes=10, width_mult=1.0)
        Trainer(m, train, test, epochs=EPOCHS, batch_size=64, lr=0.2).fit()
        return m

    def fp_builder():
        seed_everything(200)
        return build_model("mobilenet-v1", num_classes=10, width_mult=1.0)

    fp = get_or_train("table2_mobilenet_fp", fp_factory, fp_builder)
    fp_acc = evaluate(fp, test)
    for rid, qcfg, reconstruct, float_scale, mode in [
        ("AdaRound PTQ 8/8", QConfig(8, 8, wq="adaround"), True, False, "channel"),
        ("PyTorch-style PTQ 8/8", QConfig(8, 8), False, True, "prefuse"),
    ]:
        qm = PTQTrainer(fp, train, qcfg=qcfg, calib_batches=8, batch_size=64,
                        reconstruct=reconstruct, recon_iters=80).fit()
        fq_acc = evaluate(qm, test)
        T2C(qm, spec=DeploySpec(fusion=mode,
                                float_scale=float_scale)).fuse()
        int_acc = evaluate(qm, test)
        size = model_size_mb(fp, qcfg.wbit)
        results[rid] = dict(fq=fq_acc, integer=int_acc, size=size, fp=fp_acc)
        rows.append([rid, "mobilenet-v1", "8/8", f"{fq_acc:.4f}", f"{int_acc:.4f}", f"{size:.3f}"])

    print_table("Table 2: CIFAR-10 (synthetic) integer-only DNN zoo",
                ["Method", "Model", "W/A", "FakeQuant", "Integer", "Size(MB)"], rows)
    return results


class TestTable2Claims:
    def test_all_rows_learned(self, table2):
        for rid, r in table2.items():
            assert r["integer"] > 0.4, f"{rid} failed to learn (acc={r['integer']})"

    def test_integer_tracks_fakequant(self, table2):
        for rid, r in table2.items():
            # 2-bit grids leave sub-LSB residual effects a larger relative
            # footprint; the deployment claim is correspondingly looser there.
            tol = 0.2 if "2/2" in rid else 0.08
            assert abs(r["fq"] - r["integer"]) < tol, f"{rid} integer path diverged"

    def test_2bit_worse_than_4bit(self, table2):
        assert table2["SAWB+PACT 2/2"]["integer"] <= table2["SAWB+PACT 4/4"]["integer"] + 0.02

    def test_8bit_at_least_4bit(self, table2):
        assert table2["RCF 8/8"]["integer"] >= table2["RCF 4/4"]["integer"] - 0.03
        assert (table2["PROFIT MobileNet 8/8"]["integer"]
                >= table2["PROFIT MobileNet 4/4"]["integer"] - 0.03)

    def test_model_size_scales_with_bits(self, table2):
        assert table2["SAWB+PACT 2/2"]["size"] == pytest.approx(
            table2["SAWB+PACT 4/4"]["size"] / 2, rel=0.01)
        assert table2["RCF 4/4"]["size"] == pytest.approx(
            table2["RCF 8/8"]["size"] / 2, rel=0.01)

    def test_t2c_integer_competitive_with_float_scale_baseline(self, table2):
        assert (table2["AdaRound PTQ 8/8"]["integer"]
                >= table2["PyTorch-style PTQ 8/8"]["integer"] - 0.02)


def test_qat_epoch_throughput(benchmark, cifar_data):
    """pytest-benchmark target: one QAT optimization step (train path)."""
    from repro.core.qmodels import quantize_model
    from repro.optim import SGD
    from repro.tensor import Tensor
    from repro.tensor import functional as F

    train, _ = cifar_data
    seed_everything(0)
    qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                        QConfig(4, 4, wq="sawb", aq="pact"))
    opt = SGD(qm.parameters(), lr=0.1, momentum=0.9)
    qm.train()
    x, y = train.images[:64], train.labels[:64]

    def step():
        opt.zero_grad()
        F.cross_entropy(qm(Tensor(x)), y).backward()
        opt.step()

    benchmark(step)
