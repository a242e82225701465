"""Model-level export: one file per tensor + manifest (paper Fig. 5).

Every exported artifact is *validated*: the writer decodes each hex/bin/dec/
qint file straight back off disk and compares against the source tensor
(``export.roundtrip-mismatch`` on any difference), and a tensor whose values
need more bits than the ``bits_map`` declared produces an
``export.width-overflow`` WARN — plus a ``export_width_overflow`` telemetry
WARNING event and a ``widened_from`` manifest note — while the files are
widened to a safe word size.  The findings ride in the manifest under
``"lint"`` so downstream reports can embed them.

Exports are *atomic* and *checksummed* (manifest schema v2): everything is
written into a ``<out_dir>.tmp-<pid>`` staging directory, fsynced, and
published with a single ``rename`` — a crash at any point leaves either the
previous artifact set or nothing, never a partially-visible directory.  The
manifest records a SHA-256 digest per file plus a digest over its own
canonical content, which :func:`repro.export.integrity.verify_artifacts`
checks on the load side.
"""
from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.export.formats import bits_needed, load_tensor, save_tensor
from repro.export.integrity import (MANIFEST_SCHEMA, file_checksums,
                                    manifest_digest)
from repro.export.qint import load_qint, save_qint
from repro.lint.findings import Finding, findings_summary, findings_to_json, make_finding
from repro.nn.module import Module
from repro.telemetry import emit as _emit
from repro.telemetry import trace as _trace


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on this fs
        pass
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. O_RDONLY dirs on odd platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _publish(tmp_dir: str, out_dir: str) -> None:
    """Atomically move the fully-written staging dir onto ``out_dir``.

    Every file (and the staging dir itself) is fsynced first, so the rename
    is the single commit point: readers see the old artifact set, then the
    complete new one — never a mix, never a partial write.
    """
    for name in os.listdir(tmp_dir):
        _fsync_file(os.path.join(tmp_dir, name))
    _fsync_dir(tmp_dir)
    if os.path.isdir(out_dir) and not os.path.islink(out_dir):
        shutil.rmtree(out_dir)
    elif os.path.exists(out_dir) or os.path.islink(out_dir):
        os.remove(out_dir)
    os.rename(tmp_dir, out_dir)
    parent = os.path.dirname(os.path.abspath(out_dir))
    _fsync_dir(parent)


def export_state_dict(
    state: Dict[str, np.ndarray],
    out_dir: str,
    formats: Sequence[str] = ("dec",),
    bits_map: Optional[Dict[str, int]] = None,
) -> Dict:
    """Export a dict of integer tensors; returns the manifest.

    Non-integer tensors (e.g. the input quantizer scale, float-scale-mode
    MulQuants) are recorded in the manifest and stored as decimal floats.
    Every artifact is decoded back and compared to the source tensor;
    findings land in ``manifest["lint"]``.  The whole directory is staged
    and published with a single rename (see :func:`_publish`).
    """
    out_dir = os.path.normpath(out_dir)
    work_dir = f"{out_dir}.tmp-{os.getpid()}"
    if os.path.isdir(work_dir):   # stale staging from a past crash
        shutil.rmtree(work_dir)
    os.makedirs(work_dir)
    try:
        manifest = _write_tensors(state, work_dir, formats, bits_map)
        manifest["checksums"] = file_checksums(work_dir)
        manifest["digest"] = manifest_digest(manifest)
        with open(os.path.join(work_dir, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=2)
            f.flush()
            os.fsync(f.fileno())
        _publish(work_dir, out_dir)
    except BaseException:
        shutil.rmtree(work_dir, ignore_errors=True)
        raise
    return manifest


def amend_manifest(out_dir: str, updates: Dict) -> Dict:
    """Merge ``updates`` into a published manifest and re-sign its digest.

    Used to embed post-export reports (e.g. the plan verification proof)
    without re-writing tensors.  The manifest is re-written atomically
    (tmp file + fsync + rename), so a crash leaves the old signed manifest.
    """
    path = os.path.join(os.path.normpath(out_dir), "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    manifest.update(updates)
    manifest["digest"] = manifest_digest(manifest)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, path)
    _fsync_dir(os.path.dirname(path))
    return manifest


def _write_tensors(state: Dict[str, np.ndarray], out_dir: str,
                   formats: Sequence[str],
                   bits_map: Optional[Dict[str, int]]) -> Dict:
    """Write every tensor's files into ``out_dir``; returns the manifest
    body (checksums/digest are stamped by the caller once all bytes exist)."""
    manifest = {"schema": MANIFEST_SCHEMA, "tensors": {},
                "formats": list(formats)}
    findings: List[Finding] = []
    for name, arr in state.items():
        arr = np.asarray(arr)
        safe = name.replace(".", "_")
        entry = {"shape": list(arr.shape), "files": {}}
        integral = bool(np.allclose(arr, np.round(arr))) and arr.size > 0
        entry["integer"] = integral
        if integral:
            declared = (bits_map or {}).get(name)
            needed = bits_needed(arr)
            bits = max(declared, needed) if declared else needed
            if declared and needed > declared:
                findings.append(make_finding(
                    "export.width-overflow", name,
                    f"values need {needed} bits but {declared} were declared; "
                    f"artifacts widened to {bits} bits"))
                entry["widened_from"] = declared
                _emit("export_width_overflow", level="warning", tensor=name,
                      declared_bits=declared, needed_bits=needed,
                      widened_to=bits)
            entry["bits"] = bits
            for fmt in formats:
                fname = f"{safe}.{fmt}"
                if fmt == "qint":
                    save_qint(os.path.join(out_dir, safe + ".qint"), arr, bits)
                    entry["files"][fmt] = safe + ".qint.bin"
                else:
                    save_tensor(os.path.join(out_dir, fname), arr, fmt, bits)
                    entry["files"][fmt] = fname
                findings.extend(
                    _verify_roundtrip(out_dir, safe, name, fmt, arr, bits))
        else:
            fname = f"{safe}.float.txt"
            np.savetxt(os.path.join(out_dir, fname), arr.reshape(-1))
            entry["files"]["float"] = fname
        manifest["tensors"][name] = entry
    manifest["lint"] = {
        "summary": findings_summary(findings),
        "findings": findings_to_json(findings),
    }
    return manifest


def _verify_roundtrip(out_dir: str, safe: str, name: str, fmt: str,
                      arr: np.ndarray, bits: int) -> List[Finding]:
    """Decode one artifact back off disk and compare against the source."""
    from repro.export.errors import ArtifactError

    try:
        if fmt == "qint":
            decoded, _ = load_qint(os.path.join(out_dir, safe + ".qint"))
            decoded = decoded.reshape(arr.shape)
        else:
            decoded = load_tensor(os.path.join(out_dir, f"{safe}.{fmt}"),
                                  fmt, bits, shape=arr.shape)
    except (ValueError, OSError, ArtifactError) as exc:
        return [make_finding("export.roundtrip-mismatch", name,
                             f"{fmt} artifact failed to decode: {exc}")]
    src = np.asarray(np.round(arr), dtype=np.int64)
    if not np.array_equal(decoded, src):
        bad = int(np.count_nonzero(decoded != src))
        return [make_finding(
            "export.roundtrip-mismatch", name,
            f"{fmt} artifact decodes to {bad} differing value(s) of {src.size}")]
    return []


def export_model(model: Module, spec) -> Dict:
    """Export every parameter/buffer of a (re-packed) model.

    Destination and formats come from ``spec.export_dir`` / ``spec.formats``
    (a :class:`~repro.core.deploy.DeploySpec`).
    """
    if spec.export_dir is None:
        raise ValueError("export_model() needs spec.export_dir to be set")
    out_dir, formats = spec.export_dir, spec.formats
    with _trace("export_model", out_dir=out_dir, formats=",".join(formats)):
        state = model.state_dict()
        manifest = export_state_dict(state, out_dir, formats=formats)
        s = manifest["lint"]["summary"]
        _emit("export", out_dir=out_dir, formats=list(formats),
              tensors=len(manifest["tensors"]),
              lint_errors=s["errors"], lint_warnings=s["warnings"])
    return manifest
