"""Finding model and rule catalog for the static verifier.

Every lint pass (interval engine, contract checker, purity lint, export
validation) reports through the same :class:`Finding` record: a stable rule
id from :data:`RULES`, a severity, the site (module path or ``file:line``)
and a human-readable message.  Stable ids let CI configs silence or gate on
individual rules without string-matching messages.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List

ERROR = "ERROR"
WARN = "WARN"
INFO = "INFO"

_SEVERITY_RANK = {ERROR: 0, WARN: 1, INFO: 2}

#: rule id -> (default severity, one-line description).  This is the
#: authoritative catalog rendered in docs/deployment.md.
RULES: Dict[str, tuple] = {
    # -- interval engine (datapath.*) ------------------------------------
    "datapath.accum-overflow": (
        ERROR, "proven accumulator range exceeds the configured width"),
    "datapath.unbounded-input": (
        ERROR, "a weighted layer is reachable with an unbounded value interval"),
    # -- graph contracts (contract.*) ------------------------------------
    "contract.unfused-batchnorm": (
        ERROR, "BatchNorm survives on the integer deploy path (fusion missed it)"),
    "contract.missing-mulquant": (
        ERROR, "deploy unit has no MulQuant wired (fuse() not run or incomplete)"),
    "contract.leftover-quantizer": (
        ERROR, "train-path quantizer module survived the vanilla re-pack"),
    "contract.observer-active": (
        WARN, "quantizer still in calibration mode (observe=True) at deploy"),
    "contract.stale-calibration": (
        WARN, "quantizer observer never saw a calibration batch; its scale "
              "is still at initialization"),
    "contract.train-flag": (
        WARN, "module still on the training path (deploy=False) in a fused model"),
    "contract.bitwidth-mismatch": (
        ERROR, "producer emits integer codes outside the consumer's grid"),
    "contract.scale-underflow": (
        ERROR, "MulQuant scale quantized to zero (channel silenced) by the fixed-point grid"),
    "contract.scale-roundtrip": (
        WARN, "MulQuant scale fixed-point round-trip error beyond tolerance"),
    "contract.bias-roundtrip": (
        WARN, "MulQuant bias fixed-point error beyond half an output LSB"),
    "contract.unfrozen-weight": (
        ERROR, "integer weight buffer is all-zero while the float weight is not"),
    "contract.non-integer-weight": (
        ERROR, "non-integer tensor on the integer deploy path"),
    "contract.pruning-mask-lost": (
        WARN, "zeros of the pruned float weight did not survive into the integer weight"),
    "deploy.asymmetric-grid": (
        WARN, "asymmetric activation grid reaches the symmetric-only vanilla re-pack"),
    # -- deploy-path purity (purity.*) -----------------------------------
    "purity.float-div": (
        ERROR, "float-producing division in a deploy-path forward"),
    "purity.float-stat": (
        ERROR, "float statistic (mean/std/var) in a deploy-path forward"),
    "purity.float-cast": (
        WARN, "float constructor/cast in a deploy-path forward"),
    "purity.float-literal": (
        WARN, "non-integral float literal in deploy-path arithmetic"),
    # -- export validation (export.*) ------------------------------------
    "export.width-overflow": (
        WARN, "tensor values need more bits than the declared word width"),
    "export.roundtrip-mismatch": (
        ERROR, "exported artifact does not decode back to the source tensor"),
    # -- artifact integrity (integrity.*) --------------------------------
    "integrity.missing-file": (
        ERROR, "file listed in the artifact manifest is missing on disk"),
    "integrity.truncated": (
        ERROR, "artifact file is shorter than its recorded/declared size"),
    "integrity.checksum-mismatch": (
        ERROR, "artifact bytes no longer hash to the manifest's SHA-256"),
    "integrity.header-mismatch": (
        ERROR, "artifact header (shape/dtype/bits) disagrees with its payload"),
    "integrity.stale-manifest": (
        ERROR, "manifest unreadable, unknown schema, or digest sign-off broken"),
    "integrity.format-divergence": (
        ERROR, "two formats of the same tensor decode to different values"),
    "integrity.unlisted-file": (
        WARN, "file present in the artifact directory but not in the manifest"),
    # -- plan IR verifier (plan.*) ---------------------------------------
    "plan.alias": (
        ERROR, "a register (or shared arena slot) is rewritten while an earlier value is still live"),
    "plan.dead-read": (
        ERROR, "an op reads a register that is never written, or before its defining op"),
    "plan.accum-overflow": (
        ERROR, "plan-level interval proof exceeds the accumulator width, the op's compile-time bound, or the module-level proof"),
    "plan.shift-inexact": (
        ERROR, "requant scale is not an exact power of two (po2 deploy-mode precondition)"),
    "plan.checksum-overflow": (
        ERROR, "a conv's ABFT column-checksum accumulator (which bounds its float64 sum) can exceed the 2^53 exact-float64 limit, so checksum equality would not be sound"),
    "plan.kernel-operand": (
        ERROR, "a native-kernel conv's input codes do not fit 8 bits, its weights are not int8, or its int32 accumulator can overflow"),
    "plan.inexact-accum": (
        ERROR, "a sum still done in float32 (linear, attention, MLP, head, residual) can reach 2^24, past which float32 no longer holds every integer"),
    "plan.shape-mismatch": (
        ERROR, "op wiring inconsistent: register ids, shapes or operand dimensions disagree"),
    # -- engine bookkeeping (lint.*) -------------------------------------
    "lint.unhandled-module": (
        WARN, "no interval handler for this module type; assumed range-preserving"),
    "lint.instant-layernorm": (
        INFO, "instant-statistics LayerNorm keeps a float normalization at deploy"),
}


@dataclass(frozen=True)
class Finding:
    """One lint finding with a stable rule id."""

    rule: str
    severity: str
    where: str
    message: str

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown lint rule id {self.rule!r}")
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        return f"{self.severity:<5} {self.rule:<28} {self.where}: {self.message}"


def make_finding(rule: str, where: str, message: str, severity: str = "") -> Finding:
    """Build a finding, defaulting the severity from the rule catalog."""
    return Finding(rule, severity or RULES[rule][0], where, message)


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable order: errors first, then by rule id and site."""
    return sorted(findings, key=lambda f: (_SEVERITY_RANK[f.severity], f.rule, f.where))


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity == ERROR for f in findings)


def reaches_severity(findings: Iterable[Finding], fail_on: str = "error") -> bool:
    """True when any finding is at or above the ``fail_on`` threshold.

    ``fail_on`` is ``"error"`` (the default exit-2 gate) or ``"warning"``
    (strict CI mode: WARN findings fail too).  INFO never gates.
    """
    thresholds = {"error": ERROR, "warning": WARN}
    if fail_on not in thresholds:
        raise ValueError(f"unknown fail-on threshold {fail_on!r}; "
                         f"expected 'error' or 'warning'")
    rank = _SEVERITY_RANK[thresholds[fail_on]]
    return any(_SEVERITY_RANK[f.severity] <= rank for f in findings)


def findings_summary(findings: Iterable[Finding]) -> Dict:
    """Counts by severity and rule — the shape embedded in export manifests."""
    findings = list(findings)
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return {
        "errors": sum(f.severity == ERROR for f in findings),
        "warnings": sum(f.severity == WARN for f in findings),
        "infos": sum(f.severity == INFO for f in findings),
        "by_rule": dict(sorted(by_rule.items())),
    }


def findings_to_json(findings: Iterable[Finding]) -> List[Dict]:
    return [asdict(f) for f in sort_findings(findings)]


def render_findings(findings: Iterable[Finding]) -> str:
    """Plain-text report: one line per finding, errors first."""
    findings = sort_findings(findings)
    if not findings:
        return "no findings"
    return "\n".join(str(f) for f in findings)
