"""Checksummed artifact store: verified round-trips, corruption detection,
atomic publication (crash mid-export leaves no partially-visible dir)."""
import json
import os

import numpy as np
import pytest

from repro.export import (ChecksumMismatch, HeaderMismatch, StaleManifest,
                          TruncatedArtifact, load_state_dict, manifest_digest,
                          read_manifest, read_tensor, verify_artifacts)
from repro.export.writer import export_state_dict

ALL_FORMATS = ("dec", "hex", "bin", "qint")


def _export(tmp_path, rng, formats=ALL_FORMATS, name="art"):
    state = {"a_weight": rng.integers(-8, 8, (3, 4)).astype(np.float32),
             "b_bias": rng.integers(-100, 100, 7).astype(np.float32),
             "s_scale": np.linspace(0.1, 0.9, 5).astype(np.float32)}
    out = str(tmp_path / name)
    manifest = export_state_dict(state, out, formats=formats,
                                 bits_map={"a_weight": 5})
    return out, state, manifest


def _rules(report):
    return sorted({f.rule for f in report.findings})


def _damage_slice(out, name, fmt, edit):
    """Apply ``edit`` to the bytes of one tensor's slice, in place."""
    sl = read_manifest(out)["tensors"][name]["files"][fmt]
    path = os.path.join(out, sl["file"])
    data = bytearray(open(path, "rb").read())
    data[sl["offset"]:sl["offset"] + sl["bytes"]] = edit(
        bytearray(data[sl["offset"]:sl["offset"] + sl["bytes"]]))
    open(path, "wb").write(bytes(data))
    return sl["file"]


def _resign(out, edit):
    """Edit the manifest and re-sign its digest."""
    mpath = os.path.join(out, "manifest.json")
    manifest = json.load(open(mpath))
    edit(manifest)
    manifest["digest"] = manifest_digest(manifest)
    json.dump(manifest, open(mpath, "w"))


class TestCleanRoundtrip:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_each_format_verifies_and_loads(self, tmp_path, rng, fmt):
        out, state, _ = _export(tmp_path, rng, formats=(fmt,))
        report = verify_artifacts(out)
        assert report.ok and report.findings == []
        # one container for the format, one for the float tensor
        assert report.tensors_checked == 3 and report.files_checked == 2
        back = load_state_dict(out)
        np.testing.assert_array_equal(back["a_weight"],
                                      state["a_weight"].astype(np.int64))
        np.testing.assert_array_equal(back["b_bias"],
                                      state["b_bias"].astype(np.int64))
        np.testing.assert_allclose(back["s_scale"], state["s_scale"],
                                   rtol=1e-5)

    def test_all_formats_together(self, tmp_path, rng):
        out, state, _ = _export(tmp_path, rng)
        assert verify_artifacts(out).ok
        for fmt in ALL_FORMATS:
            back = load_state_dict(out, prefer=(fmt,))
            np.testing.assert_array_equal(
                back["a_weight"], state["a_weight"].astype(np.int64))

    def test_manifest_is_schema3_and_signed(self, tmp_path, rng):
        out, _, manifest = _export(tmp_path, rng)
        assert manifest["schema"] == 3
        assert manifest["digest"] == manifest_digest(manifest)
        on_disk = read_manifest(out)
        assert on_disk["digest"] == manifest["digest"]
        assert set(manifest["checksums"]) == {
            f for f in os.listdir(out) if f != "manifest.json"}


class TestCorruptionDetection:
    def test_flipped_byte_is_checksum_mismatch(self, tmp_path, rng):
        out, _, _ = _export(tmp_path, rng)

        def flip(b):
            b[0] ^= 0xFF
            return b
        fname = _damage_slice(out, "b_bias", "qint", flip)
        report = verify_artifacts(out)
        assert _rules(report) == ["integrity.checksum-mismatch"]
        # the finding names the tensor whose slice no longer hashes
        assert [f.where for f in report.findings] == [f"{fname}:b_bias"]
        with pytest.raises(ChecksumMismatch):
            load_state_dict(out)

    def test_truncated_file_is_truncated(self, tmp_path, rng):
        out, _, _ = _export(tmp_path, rng)
        path = os.path.join(out, "tensors.dec")
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        assert "integrity.truncated" in _rules(verify_artifacts(out))
        with pytest.raises(TruncatedArtifact):
            load_state_dict(out)

    def test_missing_file_is_detected(self, tmp_path, rng):
        out, _, _ = _export(tmp_path, rng)
        os.remove(os.path.join(out, "tensors.hex"))
        assert "integrity.missing-file" in _rules(verify_artifacts(out))
        with pytest.raises(TruncatedArtifact):
            load_state_dict(out)

    def test_edited_manifest_is_stale(self, tmp_path, rng):
        out, _, _ = _export(tmp_path, rng)
        mpath = os.path.join(out, "manifest.json")
        manifest = json.load(open(mpath))
        manifest["tensors"]["a_weight"]["bits"] = 13   # not re-signed
        json.dump(manifest, open(mpath, "w"))
        assert _rules(verify_artifacts(out)) == ["integrity.stale-manifest"]
        with pytest.raises(StaleManifest):
            load_state_dict(out)

    def test_schema_v1_manifest_is_stale(self, tmp_path, rng):
        out, _, _ = _export(tmp_path, rng)
        mpath = os.path.join(out, "manifest.json")
        manifest = json.load(open(mpath))
        manifest["schema"] = 1
        manifest["digest"] = manifest_digest(manifest)  # even re-signed
        json.dump(manifest, open(mpath, "w"))
        with pytest.raises(StaleManifest):
            read_manifest(out)

    def test_resigned_header_tamper_caught_semantically(self, tmp_path, rng):
        """The nastiest case: the header lives under the manifest digest, so
        a tamperer re-signs the digest; only header-vs-payload validation
        can object."""
        out, _, _ = _export(tmp_path, rng)

        def grow(m):
            header = m["tensors"]["a_weight"]["files"]["qint"]["header"]
            header["shape"] = [int(header["shape"][0]) + 1,
                               header["shape"][1]]
        _resign(out, grow)
        assert _rules(verify_artifacts(out)) == ["integrity.truncated"]
        with pytest.raises((TruncatedArtifact, HeaderMismatch)):
            load_state_dict(out)

    def test_schema_v2_per_file_manifest_is_stale(self, tmp_path, rng):
        out, _, _ = _export(tmp_path, rng)
        _resign(out, lambda m: m.__setitem__("schema", 2))
        with pytest.raises(StaleManifest):
            read_manifest(out)
        assert _rules(verify_artifacts(out)) == ["integrity.stale-manifest"]

    def test_damage_outside_every_slice_names_the_container(self, tmp_path,
                                                            rng):
        """A flipped byte in the qint alignment padding changes the
        container's hash but no slice's: the finding names the file."""
        out, _, manifest = _export(tmp_path, rng)
        sl = manifest["tensors"]["b_bias"]["files"]["qint"]
        assert sl["offset"] % 64 == 0 and sl["offset"] > 0
        path = os.path.join(out, "tensors.qint")
        data = bytearray(open(path, "rb").read())
        data[sl["offset"] - 1] ^= 0x01
        open(path, "wb").write(bytes(data))
        report = verify_artifacts(out)
        assert [(f.rule, f.where) for f in report.findings] == [
            ("integrity.checksum-mismatch", "tensors.qint")]
        with pytest.raises(ChecksumMismatch):
            load_state_dict(out)

    def test_unlisted_file_is_warning_only(self, tmp_path, rng):
        out, _, _ = _export(tmp_path, rng)
        open(os.path.join(out, "stray.txt"), "w").write("not an artifact")
        report = verify_artifacts(out)
        assert report.ok
        assert _rules(report) == ["integrity.unlisted-file"]

    def test_missing_directory_and_manifest(self, tmp_path):
        report = verify_artifacts(str(tmp_path / "nope"))
        assert not report.ok
        with pytest.raises(TruncatedArtifact):
            read_manifest(str(tmp_path / "nope"))
        os.makedirs(tmp_path / "empty")
        with pytest.raises(TruncatedArtifact):
            read_manifest(str(tmp_path / "empty"))


class TestReadTensor:
    """One layer read through the container index, without the rest."""

    @pytest.fixture(scope="class")
    def resnet_export(self, tmp_path_factory):
        from repro.core import DeploySpec
        from repro.core.qconfig import QConfig
        from repro.core.qmodels import quantize_model
        from repro.core.t2c import T2C, calibrate_model
        from repro.models import build_model

        rng = np.random.default_rng(0)
        qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                            QConfig(8, 8))
        calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32))
                             .astype(np.float32)])
        out = str(tmp_path_factory.mktemp("resnet") / "art")
        T2C(qm, spec=DeploySpec(export_dir=out,
                                formats=ALL_FORMATS)).nn2chip()
        return out

    def test_every_format_matches_the_qint_decode(self, resnet_export):
        manifest = read_manifest(resnet_export)
        integer = [n for n, e in manifest["tensors"].items() if e["integer"]]
        assert len(integer) > 20
        for name in integer:
            ref = read_tensor(resnet_export, name, "qint")
            assert ref.shape == tuple(manifest["tensors"][name]["shape"])
            for fmt in ("dec", "hex", "bin"):
                np.testing.assert_array_equal(
                    read_tensor(resnet_export, name, fmt), ref,
                    err_msg=f"{name}:{fmt}")

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_other_slices_damage_does_not_matter(self, resnet_export,
                                                 tmp_path, fmt):
        import shutil

        out = str(tmp_path / "copy")
        shutil.copytree(resnet_export, out)
        name, other = "stem.conv.weight", "fc.linear.weight"
        before = read_tensor(out, name, fmt)

        def flip(b):
            b[len(b) // 2] ^= 0x04
            return b
        _damage_slice(out, other, fmt, flip)
        np.testing.assert_array_equal(read_tensor(out, name, fmt), before)
        with pytest.raises(ChecksumMismatch):
            read_tensor(out, other, fmt)
        _damage_slice(out, name, fmt, flip)
        with pytest.raises(ChecksumMismatch):
            read_tensor(out, name, fmt)


class TestAtomicPublication:
    def test_no_staging_dir_left_after_success(self, tmp_path, rng):
        _export(tmp_path, rng)
        assert [n for n in os.listdir(tmp_path)] == ["art"]

    def test_failed_export_cleans_staging_and_leaves_no_target(
            self, tmp_path, rng, monkeypatch):
        import repro.export.writer as writer

        def boom(*a, **k):
            raise RuntimeError("disk on fire")
        monkeypatch.setattr(writer, "_write_file", boom)
        with pytest.raises(RuntimeError):
            export_state_dict({"w": rng.integers(-8, 8, 4).astype(np.float32)},
                              str(tmp_path / "art"), formats=("dec",))
        assert os.listdir(tmp_path) == []

    def test_reexport_replaces_previous_atomically(self, tmp_path, rng):
        out, _, _ = _export(tmp_path, rng)
        state2 = {"only_weight": rng.integers(-4, 4, (2, 2)).astype(np.float32)}
        export_state_dict(state2, out, formats=("dec",))
        report = verify_artifacts(out)
        assert report.ok and report.tensors_checked == 1
        assert sorted(load_state_dict(out)) == ["only_weight"]

    @pytest.mark.parametrize("die_on_call", [1, 3])
    def test_sigkill_mid_export_leaves_target_absent_or_valid(
            self, tmp_path, rng, die_on_call):
        """Hard-kill (os._exit, no unwinding, no cleanup) halfway through
        writing a container: the target directory must be either absent or
        a fully valid artifact set — never partial."""
        import repro.export.writer as writer

        out = str(tmp_path / "art")
        state = {f"t{i}_weight": rng.integers(-8, 8, (8, 8)).astype(np.float32)
                 for i in range(6)}
        pid = os.fork()
        if pid == 0:  # child — must never return into pytest
            try:
                orig = writer._write_file
                calls = {"n": 0}

                def dying_write(path, data):
                    calls["n"] += 1
                    if calls["n"] >= die_on_call:
                        with open(path, "wb") as f:
                            f.write(data[:len(data) // 2])
                        os._exit(9)
                    return orig(path, data)

                writer._write_file = dying_write
                writer.export_state_dict(state, out, formats=ALL_FORMATS)
            except BaseException:
                pass
            os._exit(7)   # export survived the sabotage: wrong path
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 9, "child was supposed to die mid-export"
        assert not os.path.exists(out), \
            "crash before publish must leave no visible target dir"

    def test_sigkill_mid_reexport_keeps_previous_version_valid(
            self, tmp_path, rng):
        import repro.export.writer as writer

        out, state, _ = _export(tmp_path, rng)
        before = load_state_dict(out)
        pid = os.fork()
        if pid == 0:
            try:
                writer._write_file = lambda *a, **k: os._exit(9)
                writer.export_state_dict(
                    {"new_weight": np.arange(4, dtype=np.float32)},
                    out, formats=("dec",))
            except BaseException:
                pass
            os._exit(7)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 9
        report = verify_artifacts(out)
        assert report.ok, "previous artifact set must stay fully valid"
        after = load_state_dict(out)
        assert sorted(after) == sorted(before)
        np.testing.assert_array_equal(after["a_weight"], before["a_weight"])


class TestWidthOverflowTelemetry:
    def test_widened_export_notes_manifest_and_emits_warning(self, tmp_path,
                                                             rng):
        from repro import telemetry

        x = rng.integers(-100, 100, (4, 4)).astype(np.float32)
        x[0, 0] = 100  # needs 8 bits, declared 4
        with telemetry.TelemetrySession(out_dir=None) as session:
            manifest = export_state_dict({"w": x}, str(tmp_path / "art"),
                                         formats=("dec",), bits_map={"w": 4})
        assert manifest["tensors"]["w"]["widened_from"] == 4
        events = [e for e in session.events.events
                  if e["kind"] == "export_width_overflow"]
        assert len(events) == 1
        assert events[0]["level"] == "warning"
        assert events[0]["declared_bits"] == 4
        assert events[0]["widened_to"] >= 8
