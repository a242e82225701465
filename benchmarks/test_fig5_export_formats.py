"""Fig. 5: versatile parameter extraction with multiple output formats.

Validates the extraction fan-out of Fig. 5 end-to-end: a deployed model is
exported as decimal / hexadecimal / binary text (RTL `$readmem*` style) and
as the packed qint container, every format round-trips bit-exactly, and the
qint payload achieves the expected compression over fp32.
"""
import json
import os

import numpy as np
import pytest

from benchmarks.conftest import get_or_train, print_table
from repro.core import DeploySpec, T2C
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.export import read_tensor
from repro.export.writer import export_model
from repro.models import build_model
from repro.trainer import Trainer, evaluate
from repro.utils import seed_everything


@pytest.fixture(scope="module")
def deployed(cifar_data):
    train, test = cifar_data

    def builder():
        seed_everything(90)
        return build_model("resnet20", num_classes=10, width=8)

    def factory():
        m = builder()
        Trainer(m, train, test, epochs=6, batch_size=64, lr=0.1).fit()
        return m

    model = get_or_train("fig3_resnet20_fp", factory, builder)  # shared cache
    qm = quantize_model(model, QConfig(4, 4))
    calibrate_model(qm, [train.images[i * 64:(i + 1) * 64] for i in range(8)])
    qnn = T2C(qm).nn2chip()
    return qnn


@pytest.fixture(scope="module")
def exported(deployed, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fig5"))
    manifest = export_model(deployed, DeploySpec(
        export_dir=out, formats=("dec", "hex", "bin", "qint")))
    return out, manifest


class TestFig5Claims:
    def test_all_formats_roundtrip_bit_exact(self, deployed, exported):
        out, manifest = exported
        state = deployed.state_dict()
        checked = 0
        for name, entry in manifest["tensors"].items():
            if not entry["integer"]:
                continue
            ref = state[name]
            for fmt in ("dec", "hex", "bin", "qint"):
                np.testing.assert_array_equal(read_tensor(out, name, fmt), ref,
                                              err_msg=f"{name}:{fmt}")
            checked += 1
        assert checked > 20  # the whole model, not a token tensor

    def test_qint_compression_ratio(self, deployed, exported):
        out, manifest = exported
        fp_bytes = 0
        qint_bytes = 0
        rows = []
        for name, entry in manifest["tensors"].items():
            if not entry["integer"] or "weight" not in name:
                continue
            n = int(np.prod(entry["shape"]))
            fp_bytes += n * 4
            qint_bytes += entry["files"]["qint"]["bytes"]
        ratio = fp_bytes / qint_bytes
        rows.append(["weights", f"{fp_bytes/1e3:.1f} kB", f"{qint_bytes/1e3:.1f} kB", f"{ratio:.2f}x"])
        print_table("Fig 5: export formats / compression", ["tensors", "fp32", "qint", "ratio"], rows)
        # 4-bit weights stored in int8 containers: exactly 4x over fp32
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_hex_words_are_fixed_width(self, exported):
        out, manifest = exported
        name, entry = next((n, e) for n, e in manifest["tensors"].items()
                           if e["integer"] and "weight" in n)
        sl = entry["files"]["hex"]
        with open(os.path.join(out, sl["file"]), "rb") as f:
            f.seek(sl["offset"])
            lines = f.read(sl["bytes"]).decode().splitlines()
        assert len({len(line) for line in lines}) == 1  # $readmemh requires uniform words

    def test_manifest_complete(self, deployed, exported):
        _, manifest = exported
        state_names = set(deployed.state_dict())
        assert state_names == set(manifest["tensors"])


def test_export_throughput(benchmark, deployed, tmp_path):
    """pytest-benchmark target: full model export in hex."""
    count = [0]

    def run():
        d = str(tmp_path / f"run{count[0]}")
        count[0] += 1
        export_model(deployed, DeploySpec(export_dir=d, formats=("hex",)))

    benchmark(run)
