"""Model-level export: one container per format + manifest (paper Fig. 5).

Each requested format is one container file (``tensors.dec``,
``tensors.hex``, ``tensors.bin``, ``tensors.qint``; non-integer tensors go
to ``tensors.float.txt``) holding every tensor's slice, concatenated in
manifest order.  Text slices are one word per line; ``qint`` slices are raw
little-endian payloads, each starting on a :data:`QINT_ALIGN`-byte
boundary so a read-only ``mmap`` can view them in place.  The manifest
indexes every slice (``{"file", "offset", "bytes", "sha256"}``, plus the
qint header) — an RTL consumer reads one layer with
:func:`repro.export.integrity.read_tensor` without touching the rest.

Every exported artifact is *validated*: the writer decodes each slice
straight back off disk and compares against the source tensor
(``export.roundtrip-mismatch`` on any difference), and a tensor whose values
need more bits than the ``bits_map`` declared produces an
``export.width-overflow`` WARN — plus a ``export_width_overflow`` telemetry
WARNING event and a ``widened_from`` manifest note — while the slices are
widened to a safe word size.  The findings ride in the manifest under
``"lint"`` so downstream reports can embed them.

Exports are *atomic* and *checksummed* (manifest schema 3): every container
is built in memory and written into a ``<out_dir>.tmp-<pid>`` staging
directory with one ``open`` and one fsync, and the directory is published
with a single ``rename`` — a crash at any point leaves either the previous
artifact set or nothing, never a partially-visible directory.  The manifest
records a SHA-256 digest per container and per slice plus a digest over its
own canonical content, which :func:`repro.export.integrity.verify_artifacts`
checks on the load side.
"""
from __future__ import annotations

import json
import os
import shutil
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.export.errors import ArtifactError
from repro.export.formats import bits_needed, encode_words
from repro.export.integrity import (CONTAINERS, MANIFEST_SCHEMA,
                                    decode_slice, manifest_digest,
                                    sha256_bytes)
from repro.export.qint import pack_qint
from repro.lint.findings import Finding, findings_summary, findings_to_json, make_finding
from repro.nn.module import Module
from repro.telemetry import emit as _emit
from repro.telemetry import trace as _trace

#: every qint slice starts on a multiple of this many bytes
QINT_ALIGN = 64


def _write_file(path: str, data: bytes) -> None:
    """Write one staged file and fsync it before closing."""
    with open(path, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


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

    Every file was fsynced as it was written (:func:`_write_file`); the
    staging dir itself is fsynced here, so the rename is the single commit
    point: readers see the old artifact set, then the complete new one —
    never a mix, never a partial write.
    """
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
    Every slice is decoded back off disk and compared to the source tensor;
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
        manifest["digest"] = manifest_digest(manifest)
        _write_file(os.path.join(work_dir, "manifest.json"),
                    json.dumps(manifest).encode())
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
    _write_file(tmp, json.dumps(manifest).encode())
    os.rename(tmp, path)
    _fsync_dir(os.path.dirname(path))
    return manifest


def _write_tensors(state: Dict[str, np.ndarray], out_dir: str,
                   formats: Sequence[str],
                   bits_map: Optional[Dict[str, int]]) -> Dict:
    """Build every container in memory, write each once into ``out_dir``
    and decode it back; returns the manifest body (the digest is stamped by
    the caller)."""
    manifest = {"schema": MANIFEST_SCHEMA, "tensors": {},
                "formats": list(formats)}
    findings: List[Finding] = []
    blobs: Dict[str, bytearray] = {}

    def append(fmt: str, data: bytes, align: int = 1) -> Dict:
        buf = blobs.setdefault(fmt, bytearray())
        buf += bytes(-len(buf) % align)
        sl = {"file": CONTAINERS[fmt], "offset": len(buf),
              "bytes": len(data), "sha256": sha256_bytes(data)}
        buf += data
        return sl

    for name, arr in state.items():
        arr = np.asarray(arr)
        entry = {"shape": list(arr.shape), "files": {}}
        integral = arr.size > 0 and bool(np.array_equal(arr, np.round(arr)))
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
                if fmt == "qint":
                    payload, header = pack_qint(arr, bits)
                    entry["files"][fmt] = dict(
                        append(fmt, payload, QINT_ALIGN), header=header)
                else:
                    entry["files"][fmt] = append(
                        fmt, encode_words(arr, fmt, bits))
        else:
            flat = arr.reshape(-1).astype(np.float64).tolist()
            entry["files"]["float"] = append(
                "float", "".join(f"{v!r}\n" for v in flat).encode())
        manifest["tensors"][name] = entry

    manifest["checksums"] = {}
    for fmt, buf in blobs.items():
        _write_file(os.path.join(out_dir, CONTAINERS[fmt]), buf)
        manifest["checksums"][CONTAINERS[fmt]] = {
            "sha256": sha256_bytes(buf), "bytes": len(buf)}
    findings.extend(_verify_roundtrip(out_dir, manifest["tensors"], state))
    manifest["lint"] = {
        "summary": findings_summary(findings),
        "findings": findings_to_json(findings),
    }
    return manifest


def _verify_roundtrip(out_dir: str, tensors: Dict,
                      state: Dict[str, np.ndarray]) -> List[Finding]:
    """Read each written container back off disk once and decode every
    integer slice in it against its source tensor."""
    findings: List[Finding] = []
    disk: Dict[str, bytes] = {}
    for name, entry in tensors.items():
        if not entry["integer"]:
            continue
        src = np.asarray(state[name], dtype=np.int64).reshape(-1)
        for fmt, sl in entry["files"].items():
            try:
                if sl["file"] not in disk:
                    with open(os.path.join(out_dir, sl["file"]), "rb") as f:
                        disk[sl["file"]] = f.read()
                chunk = disk[sl["file"]][sl["offset"]:sl["offset"] + sl["bytes"]]
                decoded = decode_slice(chunk, fmt, entry, sl)
            except (OSError, ArtifactError) as exc:
                findings.append(make_finding(
                    "export.roundtrip-mismatch", name,
                    f"{fmt} slice failed to decode: {exc}"))
                continue
            if not np.array_equal(decoded, src):
                bad = (int(np.count_nonzero(decoded != src))
                       if decoded.shape == src.shape else src.size)
                findings.append(make_finding(
                    "export.roundtrip-mismatch", name,
                    f"{fmt} slice decodes to {bad} differing value(s) of "
                    f"{src.size}"))
    return findings


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
