"""Packed qint container."""
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.export.errors import (ChecksumMismatch, HeaderMismatch,
                                 TruncatedArtifact)
from repro.export.qint import (dequantize, pack_qint, unpack_qint,
                               validate_header)


class TestPack:
    def test_8bit_payload_size(self):
        payload, header = pack_qint(np.zeros((4, 4)), bits=8)
        assert len(payload) == 16
        assert header["stored_bits"] == 8

    def test_sub_byte_uses_int8_container(self):
        _, header = pack_qint(np.zeros(4), bits=4)
        assert header["stored_bits"] == 8

    def test_16bit_container(self):
        payload, header = pack_qint(np.array([1000, -1000]), bits=12)
        assert header["stored_bits"] == 16
        assert len(payload) == 4

    def test_range_check(self):
        with pytest.raises(ValueError):
            pack_qint(np.array([300]), bits=8)

    def test_roundtrip(self, rng):
        x = rng.integers(-8, 8, (3, 7))
        payload, header = pack_qint(x, bits=4)
        np.testing.assert_array_equal(unpack_qint(payload, header), x)

    def test_dequantize_uses_scale(self):
        payload, header = pack_qint(np.array([4]), bits=8, scale=0.25)
        x = unpack_qint(payload, header)
        np.testing.assert_allclose(dequantize(x, header), [1.0])


class TestFiles:
    def test_save_load(self, tmp_path, rng):
        from repro.export import read_tensor
        from repro.export.writer import export_state_dict

        x = rng.integers(-128, 128, (5, 5))
        manifest = export_state_dict({"w": x.astype(np.float32)},
                                     str(tmp_path), formats=("qint",))
        np.testing.assert_array_equal(read_tensor(str(tmp_path), "w", "qint"),
                                      x)
        header = manifest["tensors"]["w"]["files"]["qint"]["header"]
        assert header["scale"] == pytest.approx(1.0)


class TestMangledHeaders:
    """Regression: the qint decode used to reshape() blindly off the header,
    so a mangled header surfaced as a numpy ValueError (or worse, silently
    decoded garbage).  The header now lives in the manifest; every
    inconsistency — even one re-signed into the digest — must raise a
    typed ArtifactError from ``read_tensor``."""

    def _saved(self, tmp_path, rng, bits=8):
        from repro.export.writer import export_state_dict

        x = rng.integers(-100, 100, (4, 6))
        out = str(tmp_path / "art")
        export_state_dict({"w": x.astype(np.float32)}, out,
                          formats=("qint",), bits_map={"w": bits})
        return out, x

    def _mangle(self, base, **edits):
        from repro.export import manifest_digest

        path = os.path.join(base, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        sl = manifest["tensors"]["w"]["files"]["qint"]
        for k, v in edits.items():
            if k in ("header", "sha256"):
                sl[k] = v
            elif v is None:
                sl["header"].pop(k, None)
            else:
                sl["header"][k] = v
            if k == "bits":     # keep the entry agreeing with its header
                manifest["tensors"]["w"]["bits"] = v
        manifest["digest"] = manifest_digest(manifest)
        with open(path, "w") as f:
            json.dump(manifest, f)

    def _load(self, base):
        from repro.export import read_tensor

        return read_tensor(base, "w", "qint")

    def test_wrong_element_count_is_header_mismatch(self, tmp_path, rng):
        base, _ = self._saved(tmp_path, rng)
        self._mangle(base, shape=[4, 7])        # payload holds 24, header says 28
        with pytest.raises(TruncatedArtifact):
            self._load(base)
        self._mangle(base, shape=[2, 6])        # payload longer than declared
        with pytest.raises(HeaderMismatch):
            self._load(base)

    def test_missing_and_nonnumeric_fields(self, tmp_path, rng):
        base, _ = self._saved(tmp_path, rng)
        self._mangle(base, shape=None)
        with pytest.raises(HeaderMismatch):
            self._load(base)
        self._mangle(base, shape=[4, "six"])
        with pytest.raises(HeaderMismatch):
            self._load(base)

    def test_bits_out_of_container_range(self, tmp_path, rng):
        base, _ = self._saved(tmp_path, rng)
        self._mangle(base, bits=1)              # below the minimum of 2
        with pytest.raises(HeaderMismatch):
            self._load(base)
        self._mangle(base, bits=12)             # wider than the 8-bit container
        with pytest.raises(HeaderMismatch):
            self._load(base)

    def test_unknown_container_and_byteorder(self, tmp_path, rng):
        base, _ = self._saved(tmp_path, rng)
        self._mangle(base, stored_bits=12)
        with pytest.raises(HeaderMismatch):
            self._load(base)
        self._mangle(base, stored_bits=8, byteorder="big")
        with pytest.raises(HeaderMismatch):
            self._load(base)

    def test_values_outside_declared_bits(self, tmp_path, rng):
        base, _ = self._saved(tmp_path, rng, bits=8)
        self._mangle(base, bits=4)  # payload holds values beyond 4-bit range
        with pytest.raises(HeaderMismatch):
            self._load(base)

    def test_truncated_payload(self, tmp_path, rng):
        base, _ = self._saved(tmp_path, rng)
        path = os.path.join(base, "tensors.qint")
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 5)
        with pytest.raises(TruncatedArtifact):
            self._load(base)

    def test_header_not_json(self, tmp_path, rng):
        base, _ = self._saved(tmp_path, rng)
        self._mangle(base, header="{ not json")
        with pytest.raises(HeaderMismatch):
            self._load(base)

    def test_missing_files_are_truncated(self, tmp_path, rng):
        base, _ = self._saved(tmp_path, rng)
        os.remove(os.path.join(base, "tensors.qint"))
        with pytest.raises(TruncatedArtifact):
            self._load(base)

    def test_payload_checksum_enforced_when_given(self, tmp_path, rng):
        base, x = self._saved(tmp_path, rng)
        np.testing.assert_array_equal(self._load(base), x)
        self._mangle(base, sha256="0" * 64)
        with pytest.raises(ChecksumMismatch):
            self._load(base)

    def test_validate_header_accepts_clean(self, tmp_path, rng):
        base, x = self._saved(tmp_path, rng)
        with open(os.path.join(base, "manifest.json")) as f:
            header = json.load(f)["tensors"]["w"]["files"]["qint"]["header"]
        shape, bits, stored_bits, dtype = validate_header(
            header, payload_len=x.size)
        assert shape == (4, 6) and stored_bits == 8


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.lists(st.integers(-100, 100), min_size=1, max_size=32))
def test_qint_roundtrip_property(bits, vals):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    arr = np.clip(np.array(vals), lo, hi)
    payload, header = pack_qint(arr, bits=bits)
    np.testing.assert_array_equal(unpack_qint(payload, header), arr)
