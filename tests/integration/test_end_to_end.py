"""End-to-end: the paper's five-line workflow, export, reload, verify."""
import os

import numpy as np
import pytest

from repro.core import DeploySpec, T2C
from repro.core.qconfig import QConfig
from repro.data import make_dataset
from repro.export import read_tensor
from repro.export.writer import export_model
from repro.models import build_model
from repro.tensor import Tensor, no_grad
from repro.trainer import TRAINER, evaluate
from repro.utils import seed_everything

import json


@pytest.fixture(scope="module")
def workflow_artifacts(tmp_path_factory):
    """Run the full five-line flow once; share across assertions."""
    seed_everything(42)
    ds = make_dataset("synthetic-cifar10", noise=0.35, num_classes=4)
    train, test = ds.splits(600, 200)

    model = build_model("resnet20", num_classes=4, width=8)
    trainer = TRAINER["qat"](model, qcfg=QConfig(wbit=4, abit=4, wq="sawb", aq="pact"),
                             train_set=train, test_set=test, epochs=3, batch_size=50, lr=0.1)
    trainer.fit()
    out_dir = str(tmp_path_factory.mktemp("export"))
    nn2c = T2C(trainer.qmodel, spec=DeploySpec(export_dir=out_dir,
                                               formats=("dec", "hex", "qint")))
    qnn = nn2c.nn2chip()
    return dict(train=train, test=test, trainer=trainer, qmodel=trainer.qmodel,
                qnn=qnn, out_dir=out_dir)


class TestFiveLineWorkflow:
    def test_qat_learned(self, workflow_artifacts):
        acc = workflow_artifacts["trainer"].evaluate()
        assert acc > 0.6  # 4 classes, chance 0.25

    def test_integer_model_tracks_fakequant(self, workflow_artifacts):
        a = workflow_artifacts
        fq_acc = a["trainer"].evaluate()
        int_acc = evaluate(a["qnn"], a["test"])
        assert abs(fq_acc - int_acc) < 0.08

    def test_exported_weight_reloads_identically(self, workflow_artifacts):
        a = workflow_artifacts
        with open(os.path.join(a["out_dir"], "manifest.json")) as f:
            manifest = json.load(f)
        state = a["qnn"].state_dict()
        name = "stem.conv.weight"
        entry = manifest["tensors"][name]
        hexed = read_tensor(a["out_dir"], name, "hex")
        assert list(hexed.shape) == entry["shape"]
        np.testing.assert_array_equal(hexed, state[name])

    def test_hex_and_dec_encode_same_values(self, workflow_artifacts):
        a = workflow_artifacts
        with open(os.path.join(a["out_dir"], "manifest.json")) as f:
            manifest = json.load(f)
        name = "stem.conv.weight"
        entry = manifest["tensors"][name]
        hexed = read_tensor(a["out_dir"], name, "hex")
        dec = read_tensor(a["out_dir"], name, "dec")
        assert list(dec.shape) == entry["shape"]
        np.testing.assert_array_equal(hexed, dec)

    def test_4bit_weights_within_range(self, workflow_artifacts):
        state = workflow_artifacts["qnn"].state_dict()
        w = state["stem.conv.weight"]
        assert w.min() >= -8 and w.max() <= 7  # 4-bit signed grid

    def test_rebuilt_model_from_export_matches(self, workflow_artifacts):
        """Load every exported integer tensor into a fresh repack and compare
        logits — the full RTL-style reload path."""
        a = workflow_artifacts
        import copy
        clone = copy.deepcopy(a["qnn"])
        with open(os.path.join(a["out_dir"], "manifest.json")) as f:
            manifest = json.load(f)
        own = dict(clone.named_parameters())
        own.update(dict(clone.named_buffers()))
        for name, entry in manifest["tensors"].items():
            if not entry["integer"] or name not in own:
                continue
            arr = read_tensor(a["out_dir"], name, "dec")
            own[name].data = arr.astype(own[name].data.dtype)
        x = Tensor(a["test"].images[:16])
        with no_grad():
            np.testing.assert_array_equal(clone(x).data, a["qnn"](x).data)
