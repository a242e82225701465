"""Artifact integrity: checksummed manifests and the verified load path.

An export directory (manifest schema 3) holds one container file per
format (:data:`CONTAINERS`) plus ``manifest.json``.  The manifest indexes
every tensor's slice of each container — ``{"file", "offset", "bytes",
"sha256"}``, plus the qint header for a ``qint`` slice — records a SHA-256
digest per container, and signs its own canonical content.  This module is
the *read side* of that contract:

* :func:`verify_artifacts` — audit a directory end to end (manifest schema
  and digest, per-container checksums and, on a damaged container, per-slice
  checksums, payload-vs-header consistency for every format, cross-format
  agreement), reading each container once, and report typed ``integrity.*``
  findings through the same :class:`~repro.lint.findings.Finding` model the
  static verifier uses;
* :func:`read_tensor` — read one tensor's slice through the index, checked
  against its own digest, without reading any other slice;
* :func:`load_state_dict` — read the tensors back, verifying first by
  default, raising a typed :class:`~repro.export.errors.ArtifactError`
  instead of silently accepting corrupted bytes;
* the digest helpers shared with the writer.

A silently corrupted or half-written artifact defeats the "bit-exact from
training to chip" hand-off, so everything downstream — ``deploy()``,
:class:`~repro.server.ModelRegistry`, ``repro.cli verify-artifacts`` —
routes through :func:`verify_artifacts` before trusting a directory.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.export.errors import (ArtifactError, ChecksumMismatch,
                                 HeaderMismatch, StaleManifest,
                                 TruncatedArtifact, error_for_rule)
from repro.export.formats import decode_words
from repro.export.qint import unpack_qint
from repro.lint.findings import (Finding, findings_summary, findings_to_json,
                                 has_errors, make_finding, render_findings,
                                 sort_findings)

#: current manifest schema; older manifests (per-tensor files) fail
#: verification as stale
MANIFEST_SCHEMA = 3

#: format -> the container file holding every tensor's slice in it
CONTAINERS = {"dec": "tensors.dec", "hex": "tensors.hex",
              "bin": "tensors.bin", "qint": "tensors.qint",
              "float": "tensors.float.txt"}

#: order in which load_state_dict picks a source format for a tensor
_PREFERRED_FORMATS = ("qint", "dec", "hex", "bin")


# --------------------------------------------------------------- primitives
def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_digest(manifest: Dict) -> str:
    """Digest over the canonical manifest content, excluding the digest
    field itself — the writer's sign-off that the manifest is complete."""
    body = {k: v for k, v in manifest.items() if k != "digest"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"),
                       default=str)
    return sha256_bytes(canon.encode())


# ------------------------------------------------------------------- report
@dataclass
class IntegrityReport:
    """Outcome of one :func:`verify_artifacts` audit."""

    out_dir: str
    findings: List[Finding] = field(default_factory=list)
    tensors_checked: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not has_errors(self.findings)

    def to_json(self) -> Dict:
        return {
            "out_dir": self.out_dir,
            "ok": self.ok,
            "tensors_checked": self.tensors_checked,
            "files_checked": self.files_checked,
            "summary": findings_summary(self.findings),
            "findings": findings_to_json(self.findings),
        }

    def render(self) -> str:
        head = (f"artifact verification: {self.out_dir} — "
                f"{'OK' if self.ok else 'FAILED'} "
                f"({self.tensors_checked} tensors, "
                f"{self.files_checked} files)")
        return head + "\n" + render_findings(self.findings)

    def raise_if_failed(self) -> "IntegrityReport":
        """Raise the typed :class:`ArtifactError` for the worst finding."""
        for f in sort_findings(self.findings):
            if f.severity == "ERROR":
                raise error_for_rule(f.rule)(
                    f.message, path=os.path.join(self.out_dir, f.where)
                    if os.sep not in f.where else f.where)
        return self


# ----------------------------------------------------------------- manifest
def read_manifest(out_dir: str) -> Dict:
    """Load + structurally validate ``manifest.json``; typed raises only."""
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.isdir(out_dir):
        raise TruncatedArtifact("artifact directory missing", path=out_dir)
    if not os.path.exists(path):
        raise TruncatedArtifact(
            "manifest.json missing — export incomplete or not an artifact "
            "directory", path=path)
    try:
        with open(path) as f:
            manifest = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StaleManifest(f"manifest.json is not valid JSON: {exc}",
                            path=path)
    if not isinstance(manifest, dict) or "tensors" not in manifest:
        raise StaleManifest("manifest.json has no tensor table", path=path)
    schema = manifest.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise StaleManifest(
            f"manifest schema {schema!r} is not the checksummed schema "
            f"{MANIFEST_SCHEMA}; re-export the artifacts", path=path)
    recorded = manifest.get("digest")
    if not recorded:
        raise StaleManifest("manifest carries no digest sign-off", path=path)
    actual = manifest_digest(manifest)
    if actual != recorded:
        raise StaleManifest(
            f"manifest content hashes to {actual[:12]}… but records "
            f"{recorded[:12]}… — edited after export or torn write",
            path=path)
    return manifest


# ------------------------------------------------------------- verification
def verify_artifacts(out_dir: str, deep: bool = True) -> IntegrityReport:
    """Audit an export directory; never raises for content problems.

    Checks, in order: manifest presence/schema/digest; per-container
    existence, size and SHA-256 against the recorded checksums — on a
    damaged container, each slice against its own digest, so a finding
    names the tensor whose bytes changed; (with ``deep``) every intact
    slice decoded — element count vs declared shape, values within the
    declared bit-width, qint header consistency — and cross-format
    agreement.  Each container is read once.  Returns an
    :class:`IntegrityReport` whose findings use stable ``integrity.*`` rule
    ids; ``report.raise_if_failed()`` converts the worst one into its typed
    :class:`~repro.export.errors.ArtifactError`.
    """
    report = IntegrityReport(out_dir=out_dir)
    try:
        manifest = read_manifest(out_dir)
    except ArtifactError as exc:
        report.findings.append(
            make_finding(exc.rule, "manifest.json", str(exc)))
        return report

    tensors = manifest.get("tensors", {})
    members: Dict[str, List[Tuple[str, str, Dict]]] = {}
    for name, entry in tensors.items():
        for fmt, sl in entry.get("files", {}).items():
            if isinstance(sl, dict):
                members.setdefault(sl.get("file"), []).append((name, fmt, sl))
    checksums = manifest.get("checksums", {})
    blobs: Dict[str, bytes] = {}
    damaged: set = set()        # (tensor, fmt) whose slice is unusable
    for fname, meta in checksums.items():
        report.files_checked += 1
        data, findings, bad = _check_container(out_dir, fname, meta,
                                               members.get(fname, []))
        report.findings.extend(findings)
        damaged |= bad
        if data is not None:
            blobs[fname] = data

    listed = set(checksums) | {"manifest.json"}
    for fname in sorted(os.listdir(out_dir)):
        if fname not in listed and os.path.isfile(os.path.join(out_dir, fname)):
            report.findings.append(make_finding(
                "integrity.unlisted-file", fname,
                "file present on disk but not covered by the manifest"))

    report.tensors_checked = len(tensors)
    if deep:
        for name, entry in tensors.items():
            report.findings.extend(
                _verify_tensor(name, entry, blobs, damaged))
    report.findings = sort_findings(report.findings)
    return report


def _check_container(out_dir: str, fname: str, meta: Dict,
                     members: List[Tuple[str, str, Dict]]
                     ) -> Tuple[Optional[bytes], List[Finding], set]:
    """Read one container and check it against its recorded checksum;
    returns ``(bytes or None, findings, damaged (tensor, fmt) pairs)``."""
    try:
        with open(os.path.join(out_dir, fname), "rb") as f:
            data = f.read()
    except OSError:
        return None, [make_finding(
            "integrity.missing-file", fname,
            "file listed in the manifest is missing on disk")], \
            {(name, fmt) for name, fmt, _ in members}
    size, want = len(data), meta.get("bytes")
    if size == want and sha256_bytes(data) == meta.get("sha256"):
        return data, [], set()
    findings, bad = [], set()
    for name, fmt, sl in members:
        try:
            _check_slice(_slice_of(data, sl), sl)
        except ArtifactError as exc:
            findings.append(make_finding(exc.rule, f"{fname}:{name}",
                                         f"{fmt} slice: {exc}"))
            bad.add((name, fmt))
    if not findings:    # the damage sits outside every slice
        rule = ("integrity.truncated" if size < (want or 0)
                else "integrity.checksum-mismatch")
        findings.append(make_finding(
            rule, fname, f"file holds {size} bytes hashing to "
            f"{sha256_bytes(data)[:12]}…, manifest records {want} bytes "
            f"hashing to {str(meta.get('sha256'))[:12]}…"))
    return data, findings, bad


def _slice_of(data: bytes, sl: Dict) -> bytes:
    """The bytes a manifest slice entry addresses (may come back short)."""
    try:
        offset, size = int(sl["offset"]), int(sl["bytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise HeaderMismatch(f"slice index entry is malformed: {exc!r}")
    if offset < 0 or size < 0:
        raise HeaderMismatch(f"slice index entry has negative offset "
                             f"{offset} or size {size}")
    return data[offset:offset + size]


def _check_slice(chunk: bytes, sl: Dict) -> None:
    """Raise unless ``chunk`` is the full slice and hashes to its digest."""
    if len(chunk) < int(sl["bytes"]):
        raise TruncatedArtifact(f"slice holds {len(chunk)} of its "
                                f"{sl['bytes']} bytes")
    got = sha256_bytes(chunk)
    if got != sl.get("sha256"):
        raise ChecksumMismatch(f"slice hashes to {got[:12]}…, manifest "
                               f"records {str(sl.get('sha256'))[:12]}…")


def decode_slice(chunk: bytes, fmt: str, entry: Dict,
                  sl: Dict) -> np.ndarray:
    """Decode one slice to a flat array; typed raises only."""
    try:
        if fmt == "float":
            return np.array(chunk.split()).astype(np.float64)
        bits = int(entry["bits"])
        if fmt != "qint":
            return decode_words(chunk, fmt, bits)
        header = sl.get("header")
        if not isinstance(header, dict):
            raise HeaderMismatch(f"qint header is not an object: {header!r}")
        if int(header.get("bits", bits)) != bits:
            raise HeaderMismatch(f"qint header declares {header.get('bits')} "
                                 f"bits, manifest declares {bits}")
        return unpack_qint(chunk, header).reshape(-1)
    except (KeyError, TypeError, ValueError) as exc:
        raise HeaderMismatch(f"{fmt} slice failed to decode: {exc}")


def _verify_tensor(name: str, entry: Dict, blobs: Dict[str, bytes],
                   damaged: set) -> List[Finding]:
    """Semantic checks for one tensor across all of its exported formats."""
    findings: List[Finding] = []
    shape = tuple(int(s) for s in entry.get("shape", []))
    count = int(math.prod(shape))
    decoded: Dict[str, np.ndarray] = {}
    for fmt, sl in entry.get("files", {}).items():
        if (name, fmt) in damaged:
            continue        # byte-level finding already recorded
        fname = sl.get("file") if isinstance(sl, dict) else None
        where = f"{fname}:{name}"
        if fname not in blobs:
            findings.append(make_finding(
                "integrity.missing-file", where,
                f"{fmt} slice points into a file the manifest does not "
                f"checksum"))
            continue
        try:
            arr = decode_slice(_slice_of(blobs[fname], sl), fmt, entry, sl)
        except ArtifactError as exc:
            findings.append(make_finding(exc.rule, where, str(exc)))
            continue
        if arr.size != count:
            findings.append(make_finding(
                "integrity.header-mismatch", where,
                f"{fmt} slice holds {arr.size} values, manifest shape "
                f"{list(shape)} needs {count}"))
            continue
        decoded[fmt] = arr
    if len(decoded) > 1:
        ref_fmt = next(iter(decoded))
        ref = decoded[ref_fmt]
        for fmt, arr in decoded.items():
            if fmt != ref_fmt and not np.array_equal(arr, ref):
                findings.append(make_finding(
                    "integrity.format-divergence", name,
                    f"{fmt} and {ref_fmt} artifacts decode to different "
                    f"values"))
    return findings


# -------------------------------------------------------------- load path
def read_tensor(out_dir: str, name: str, fmt: str) -> np.ndarray:
    """Read one tensor through the container index: seek to its ``fmt``
    slice, check the slice's SHA-256, decode it.  No other slice is read.

    Integer formats come back as ``int64``, ``"float"`` as ``float32``, in
    the manifest shape; damage raises a typed :class:`ArtifactError`.
    """
    return _read_tensor(out_dir, read_manifest(out_dir), name, fmt)


def _read_tensor(out_dir: str, manifest: Dict, name: str,
                 fmt: str) -> np.ndarray:
    if name not in manifest["tensors"]:
        raise KeyError(f"no tensor {name!r} in {out_dir}")
    entry = manifest["tensors"][name]
    files = entry.get("files", {})
    if fmt not in files:
        raise TruncatedArtifact(f"tensor {name!r} has no {fmt} slice (have "
                                f"{sorted(files)})", path=out_dir)
    sl = files[fmt]
    path = os.path.join(out_dir, str(sl.get("file")))
    try:
        try:
            with open(path, "rb") as f:
                f.seek(int(sl["offset"]))
                chunk = f.read(int(sl["bytes"]))
        except OSError:
            raise TruncatedArtifact(f"{fmt} container missing")
        except (KeyError, TypeError, ValueError) as exc:
            raise HeaderMismatch(f"slice index entry is malformed: {exc!r}")
        _check_slice(chunk, sl)
        arr = decode_slice(chunk, fmt, entry, sl)
        shape = tuple(int(s) for s in entry["shape"])
        if arr.size != math.prod(shape):
            raise HeaderMismatch(
                f"{fmt} slice decodes to {arr.size} values, manifest shape "
                f"{list(shape)} needs {math.prod(shape)}")
    except ArtifactError as exc:
        exc.path = exc.path or f"{path}:{name}"
        raise
    return arr.reshape(shape).astype(np.float32 if fmt == "float"
                                      else np.int64)


def load_state_dict(out_dir: str, verify: bool = True,
                    prefer: Sequence[str] = _PREFERRED_FORMATS
                    ) -> Dict[str, np.ndarray]:
    """Read an exported artifact directory back into ``{name: array}``.

    With ``verify`` (default), the directory is audited first and the worst
    finding raised as its typed :class:`ArtifactError` — a corrupted tensor
    can never be silently loaded.  Every tensor is then read with
    :func:`read_tensor`: integer tensors as ``int64`` from the first
    available format in ``prefer``, float tensors as ``float32``.
    """
    if verify:
        verify_artifacts(out_dir).raise_if_failed()
    manifest = read_manifest(out_dir)
    state: Dict[str, np.ndarray] = {}
    for name, entry in manifest["tensors"].items():
        files = entry.get("files", {})
        fmt = "float"
        if entry.get("integer", False):
            fmt = next((f for f in prefer if f in files), None)
            if fmt is None:
                raise TruncatedArtifact(
                    f"tensor {name!r} has no loadable format (have "
                    f"{sorted(files)})", path=out_dir)
        state[name] = _read_tensor(out_dir, manifest, name, fmt)
    return state
