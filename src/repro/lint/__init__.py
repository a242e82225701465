"""Static verification of the integer deploy path (``repro.cli lint``).

Three passes, no input data required:

* :mod:`repro.lint.engine` — interval abstract interpretation proving
  worst-case accumulator ranges and minimum safe register widths;
* :mod:`repro.lint.contracts` — structural deploy contracts (fusion
  completeness, fixed-point faithfulness, integer-only state);
* :mod:`repro.lint.purity` — AST lint holding the deploy-path *sources* to
  the integer-only invariant (runs with no model at all);
* :mod:`repro.lint.plan` — plan-IR verifier over compiled
  :class:`~repro.runtime.executor.Plan` programs: register dataflow /
  liveness, arena no-alias soundness, accumulator overflow proofs (the
  native conv's int32 operands, every conv's float64 checksum width) and
  power-of-two shift certificates.

Findings share the stable rule catalog in :mod:`repro.lint.findings`.
"""
from repro.lint.contracts import check_contracts, model_kind
from repro.lint.engine import IntervalEngine, IntervalReport, lint_intervals
from repro.lint.findings import (
    ERROR,
    INFO,
    RULES,
    WARN,
    Finding,
    findings_summary,
    findings_to_json,
    has_errors,
    make_finding,
    reaches_severity,
    render_findings,
    sort_findings,
)
from repro.lint.intervals import Interval, accum_bounds, min_signed_bits
from repro.lint.plan import (
    PlanLiveness,
    PlanVerificationError,
    PlanVerificationReport,
    plan_liveness,
    verify_plan,
)
from repro.lint.purity import lint_purity
from repro.lint.runner import LintReport, lint_model, lint_sources

__all__ = [
    "ERROR", "WARN", "INFO", "RULES", "Finding",
    "make_finding", "sort_findings", "has_errors", "reaches_severity",
    "findings_summary", "findings_to_json", "render_findings",
    "Interval", "accum_bounds", "min_signed_bits",
    "IntervalEngine", "IntervalReport", "lint_intervals",
    "check_contracts", "model_kind",
    "lint_purity",
    "LintReport", "lint_model", "lint_sources",
    "PlanLiveness", "PlanVerificationError", "PlanVerificationReport",
    "plan_liveness", "verify_plan",
]
