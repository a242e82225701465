"""Packed integer container: the ``torch.qint8`` analogue.

Integer tensors are stored as little-endian ``int8``/``int16``/``int32``
payloads with a header carrying shape, dtype and scale metadata.  In an
export directory every payload is one 64-byte-aligned slice of the
``tensors.qint`` container and its header sits in the tensor's manifest
entry, under the manifest digest.

The decode path is *hardened*: before any reshape, the header is validated
against the payload (element count, container dtype, declared bit range) and
every inconsistency raises a typed :class:`~repro.export.errors.ArtifactError`
subclass — :class:`HeaderMismatch` for metadata that disagrees with the
bytes, :class:`TruncatedArtifact` for a short payload — never a bare numpy
``ValueError`` from a blind reshape.
"""
from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.export.errors import HeaderMismatch, TruncatedArtifact

_DTYPES = {8: np.int8, 16: np.int16, 32: np.int32}


def _dtype_for(bits: int):
    for b in sorted(_DTYPES):
        if bits <= b:
            return _DTYPES[b], b
    raise ValueError(f"no integer container for {bits} bits")


def pack_qint(x: np.ndarray, bits: int, scale: float = 1.0) -> Tuple[bytes, Dict]:
    """Pack an integer-valued array into raw bytes + metadata header."""
    dtype, stored_bits = _dtype_for(bits)
    vals = np.asarray(np.round(x), dtype=np.int64)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if vals.min() < lo or vals.max() > hi:
        raise ValueError(f"values exceed declared {bits}-bit range")
    payload = vals.astype(dtype).tobytes()
    header = {
        "shape": list(x.shape),
        "bits": bits,
        "stored_bits": stored_bits,
        "scale": float(scale),
        "byteorder": "little",
    }
    return payload, header


def validate_header(header: Dict, payload_len: Optional[int] = None) -> Tuple:
    """Check a qint header for internal consistency (and, when given, against
    the payload length).  Returns ``(shape, bits, stored_bits, dtype)``;
    raises :class:`HeaderMismatch` / :class:`TruncatedArtifact`.
    """
    try:
        shape = tuple(int(s) for s in header["shape"])
        bits = int(header["bits"])
        stored_bits = int(header["stored_bits"])
    except (KeyError, TypeError, ValueError) as exc:
        raise HeaderMismatch(f"qint header missing or non-numeric field: {exc}")
    if any(s < 0 for s in shape):
        raise HeaderMismatch(f"qint header declares negative dimension in "
                             f"shape {list(shape)}")
    if stored_bits not in _DTYPES:
        raise HeaderMismatch(f"qint header declares unknown container width "
                             f"{stored_bits} (want one of {sorted(_DTYPES)})")
    if not 2 <= bits <= stored_bits:
        raise HeaderMismatch(f"declared {bits}-bit values do not fit the "
                             f"{stored_bits}-bit container")
    if header.get("byteorder", "little") != "little":
        raise HeaderMismatch(f"unsupported byteorder "
                             f"{header.get('byteorder')!r}")
    dtype = _DTYPES[stored_bits]
    if payload_len is not None:
        expected = int(math.prod(shape)) * np.dtype(dtype).itemsize
        if payload_len < expected:
            raise TruncatedArtifact(
                f"qint payload holds {payload_len} bytes but the header "
                f"shape {list(shape)} needs {expected}")
        if payload_len > expected:
            raise HeaderMismatch(
                f"qint payload holds {payload_len} bytes, more than the "
                f"{expected} its header shape {list(shape)} declares")
    return shape, bits, stored_bits, dtype


def unpack_qint(payload: bytes, header: Dict) -> np.ndarray:
    """Decode a payload; validates the header before touching numpy."""
    shape, bits, _, dtype = validate_header(header, payload_len=len(payload))
    arr = np.frombuffer(payload, dtype=dtype).astype(np.int64)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if arr.size and (int(arr.min()) < lo or int(arr.max()) > hi):
        raise HeaderMismatch(
            f"payload values span [{int(arr.min())}, {int(arr.max())}], "
            f"outside the declared {bits}-bit range [{lo}, {hi}]")
    return arr.reshape(shape)


def dequantize(x: np.ndarray, header: Dict) -> np.ndarray:
    """Recover float values from a qint payload via its scale metadata."""
    return (x * header["scale"]).astype(np.float32)
