"""Typed failure hierarchy for the artifact lifecycle.

Every way a deploy artifact can be bad gets its own exception class so that
callers (``read_tensor``, ``verify_artifacts``, ``ModelRegistry``, the CLI)
can reject corrupted tensors with a precise, catchable error instead of a
numpy reshape traceback.  Each class carries the stable ``integrity.*`` rule
id its finding is reported under, so exceptions and
:class:`~repro.lint.findings.Finding` rows stay in one vocabulary.
"""
from __future__ import annotations

from typing import Optional


class ArtifactError(Exception):
    """Base class: a deploy artifact failed verification.

    ``path`` names the offending file or directory when known.
    """

    rule = "integrity.invalid"

    def __init__(self, message: str, *, path: Optional[str] = None):
        super().__init__(message)
        self.path = path

    def __str__(self) -> str:
        base = super().__str__()
        return f"{base} [{self.path}]" if self.path else base


class TruncatedArtifact(ArtifactError):
    """A payload, header or manifest file is missing or shorter than its
    metadata says it must be (classic crash-mid-write signature)."""

    rule = "integrity.truncated"


class ChecksumMismatch(ArtifactError):
    """A file's bytes no longer hash to the digest recorded at export time
    (bit rot, tampering, or a concurrent writer)."""

    rule = "integrity.checksum-mismatch"


class HeaderMismatch(ArtifactError):
    """A header's declared shape/dtype/bit-width disagrees with the payload
    (element count, container dtype, or values outside the declared range)."""

    rule = "integrity.header-mismatch"


class StaleManifest(ArtifactError):
    """The manifest is unreadable, from an unknown schema, or its recorded
    digest no longer matches its content — it cannot vouch for anything."""

    rule = "integrity.stale-manifest"


#: rule id -> exception class, for turning findings back into typed raises
ERRORS_BY_RULE = {
    cls.rule: cls
    for cls in (TruncatedArtifact, ChecksumMismatch, HeaderMismatch,
                StaleManifest, ArtifactError)
}
#: rules with no 1:1 class map onto the closest parent
ERRORS_BY_RULE.setdefault("integrity.missing-file", TruncatedArtifact)
ERRORS_BY_RULE.setdefault("integrity.format-divergence", ChecksumMismatch)


def error_for_rule(rule: str) -> type:
    """The exception class a failed ``integrity.*`` rule raises as."""
    return ERRORS_BY_RULE.get(rule, ArtifactError)
