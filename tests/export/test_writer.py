"""Model-level export writer + size reporting."""
import json
import os

import numpy as np
import pytest

from repro.export import load_state_dict, read_tensor, verify_artifacts
from repro.export.report import compression_report, model_size_mb
from repro.export.writer import export_state_dict
from repro.models import build_model


class TestWriter:
    def test_manifest_lists_all_tensors(self, tmp_path, rng):
        state = {"a.weight": rng.integers(-8, 8, (3, 3)).astype(np.float32),
                 "b.bias": rng.integers(-8, 8, 5).astype(np.float32)}
        manifest = export_state_dict(state, str(tmp_path), formats=("dec", "hex"))
        assert set(manifest["tensors"]) == {"a.weight", "b.bias"}
        assert (tmp_path / "manifest.json").exists()

    def test_integer_tensor_roundtrip_via_files(self, tmp_path, rng):
        x = rng.integers(-100, 100, (4, 4)).astype(np.float32)
        export_state_dict({"w": x}, str(tmp_path), formats=("hex",))
        np.testing.assert_array_equal(read_tensor(str(tmp_path), "w", "hex"),
                                      x)

    def test_float_tensor_flagged(self, tmp_path):
        manifest = export_state_dict({"scale": np.array([0.123], dtype=np.float32)}, str(tmp_path))
        assert manifest["tensors"]["scale"]["integer"] is False

    def test_qint_format(self, tmp_path, rng):
        x = rng.integers(-8, 8, 10).astype(np.float32)
        manifest = export_state_dict({"w": x}, str(tmp_path),
                                     formats=("qint",))
        assert sorted(os.listdir(tmp_path)) == ["manifest.json",
                                                "tensors.qint"]
        header = manifest["tensors"]["w"]["files"]["qint"]["header"]
        assert header == {"shape": [10], "bits": 4, "stored_bits": 8,
                          "scale": 1.0, "byteorder": "little"}

    def test_manifest_json_parseable(self, tmp_path, rng):
        export_state_dict({"w": np.ones(4, dtype=np.float32)}, str(tmp_path))
        with open(tmp_path / "manifest.json") as f:
            data = json.load(f)
        assert "tensors" in data


class TestValidation:
    def test_clean_export_has_empty_lint(self, tmp_path, rng):
        x = rng.integers(-8, 8, (3, 3)).astype(np.float32)
        manifest = export_state_dict({"w": x}, str(tmp_path),
                                     formats=("dec", "hex", "qint"))
        assert manifest["lint"]["findings"] == []
        assert manifest["lint"]["summary"]["warnings"] == 0

    def test_declared_width_too_small_warns_and_widens(self, tmp_path, rng):
        x = rng.integers(-100, 100, (4, 4)).astype(np.float32)
        x[0, 0] = 100  # needs 8 bits; declare only 4
        manifest = export_state_dict({"w": x}, str(tmp_path), formats=("hex",),
                                     bits_map={"w": 4})
        rules = [f["rule"] for f in manifest["lint"]["findings"]]
        assert rules == ["export.width-overflow"]
        # files were widened, so they still decode exactly
        assert manifest["tensors"]["w"]["bits"] >= 8
        np.testing.assert_array_equal(read_tensor(str(tmp_path), "w", "hex"),
                                      x)

    def test_declared_width_sufficient_is_kept(self, tmp_path, rng):
        x = rng.integers(-8, 8, 6).astype(np.float32)
        manifest = export_state_dict({"w": x}, str(tmp_path), formats=("dec",),
                                     bits_map={"w": 16})
        assert manifest["tensors"]["w"]["bits"] == 16
        assert manifest["lint"]["findings"] == []

    def test_validation_covers_all_formats(self, tmp_path, rng):
        x = rng.integers(-1000, 1000, (2, 5)).astype(np.float32)
        manifest = export_state_dict({"w": x}, str(tmp_path),
                                     formats=("dec", "hex", "bin", "qint"))
        assert manifest["lint"]["findings"] == []


    def test_near_integer_floats_are_not_rounded(self, tmp_path):
        """Only exactly integral tensors take the integer path: a float a
        hair away from an integer keeps its value."""
        state = {"s": np.float32([123456.7, 2.0]),
                 "t": np.float32([3.0000002]),
                 "i": np.float32([3.0, -2.0])}
        manifest = export_state_dict(state, str(tmp_path),
                                     formats=("dec", "qint"))
        kinds = {n: e["integer"] for n, e in manifest["tensors"].items()}
        assert kinds == {"s": False, "t": False, "i": True}
        assert verify_artifacts(str(tmp_path)).ok
        back = load_state_dict(str(tmp_path))
        for name, arr in state.items():
            np.testing.assert_array_equal(back[name], arr)


class TestContainerLayout:
    """One container per format: the file and fsync counts do not grow
    with the number of tensors."""

    FORMATS = ("dec", "hex", "bin", "qint")

    def _export_counting(self, tmp_path, monkeypatch, n, tag):
        import repro.export.writer as writer

        calls = []
        real = os.fsync
        monkeypatch.setattr(writer.os, "fsync",
                            lambda fd: calls.append(fd) or real(fd))
        rng = np.random.default_rng(n)
        state = {f"t{i}.weight": rng.integers(-100, 100, (4, 3))
                 .astype(np.float32) for i in range(n)}
        out = tmp_path / tag
        export_state_dict(state, str(out), formats=self.FORMATS)
        assert verify_artifacts(str(out)).ok
        return sorted(os.listdir(out)), len(calls)

    def test_file_and_fsync_counts_do_not_grow(self, tmp_path, monkeypatch):
        files3, syncs3 = self._export_counting(tmp_path, monkeypatch, 3, "a")
        files60, syncs60 = self._export_counting(tmp_path, monkeypatch, 60,
                                                 "b")
        assert files3 == files60 == [
            "manifest.json", "tensors.bin", "tensors.dec", "tensors.hex",
            "tensors.qint"]
        assert len(files60) <= 6
        assert syncs3 == syncs60

    def test_qint_slices_are_64_byte_aligned(self, tmp_path, rng):
        state = {f"t{i}": rng.integers(-100, 100, 3 + i).astype(np.float32)
                 for i in range(5)}
        manifest = export_state_dict(state, str(tmp_path), formats=("qint",))
        offsets = [e["files"]["qint"]["offset"]
                   for e in manifest["tensors"].values()]
        assert offsets == [0, 64, 128, 192, 256]


class TestReport:
    def test_model_size_fp32(self):
        m = build_model("resnet20", width=16)
        mb = model_size_mb(m)
        n = m.num_parameters()
        assert mb == pytest.approx(n * 4 / 1e6)

    def test_model_size_scales_with_bits(self):
        m = build_model("resnet20", width=16)
        assert model_size_mb(m, 4) == pytest.approx(model_size_mb(m, 8) / 2)

    def test_compression_report_ratio(self):
        m = build_model("resnet20", width=8)
        rep = compression_report(m, wbit=8, abit=8)
        assert rep["ratio"] == pytest.approx(4.0, rel=0.01)
        rep4 = compression_report(m, wbit=4, abit=4)
        assert rep4["ratio"] == pytest.approx(8.0, rel=0.01)

    def test_extra_params_counted(self):
        m = build_model("resnet20", width=8)
        base = compression_report(m, 8, 8)["int_mb"]
        extra = compression_report(m, 8, 8, extra_int16_params=1000)["int_mb"]
        assert extra == pytest.approx(base + 0.002)
