"""Deployment-format export (paper §3.4, Fig. 5).

Integer tensors from the re-packed model are written in the formats RTL
verification consumes:

* ``dec`` — plain decimal integers, one per line;
* ``hex`` — two's-complement hexadecimal words (``$readmemh``-ready);
* ``bin`` — two's-complement binary words (``$readmemb``-ready);
* ``qint`` — packed little-endian int8/int16/int32 binary whose header
  (shape, bits, scale) sits in the manifest (the ``torch.qint`` analogue).

An export directory holds one container file per format plus a signed
``manifest.json`` indexing every tensor's slice; :func:`read_tensor` reads
one layer through that index.
"""
from repro.export.formats import (
    to_twos_complement,
    from_twos_complement,
    format_hex,
    format_bin,
    parse_hex,
    parse_bin,
    save_tensor,
    load_tensor,
)
from repro.export.qint import pack_qint, unpack_qint
from repro.export.errors import (
    ArtifactError,
    ChecksumMismatch,
    HeaderMismatch,
    StaleManifest,
    TruncatedArtifact,
)
from repro.export.integrity import (
    IntegrityReport,
    MANIFEST_SCHEMA,
    load_state_dict,
    manifest_digest,
    read_manifest,
    read_tensor,
    verify_artifacts,
)
from repro.export.writer import export_model, export_state_dict
from repro.export.report import model_size_mb, compression_report
from repro.export.unroll import PEArraySpec, unroll_matrix, unroll_conv_weight, write_banks, reassemble

__all__ = [
    "to_twos_complement", "from_twos_complement",
    "format_hex", "format_bin", "parse_hex", "parse_bin",
    "save_tensor", "load_tensor",
    "pack_qint", "unpack_qint",
    "ArtifactError", "TruncatedArtifact", "ChecksumMismatch",
    "HeaderMismatch", "StaleManifest",
    "IntegrityReport", "MANIFEST_SCHEMA", "verify_artifacts",
    "load_state_dict", "read_manifest", "read_tensor", "manifest_digest",
    "export_model", "export_state_dict",
    "model_size_mb", "compression_report",
    "PEArraySpec", "unroll_matrix", "unroll_conv_weight", "write_banks", "reassemble",
]
