"""Evidence grading, claim gates, and report rendering.

Claim templates are a closed enum; free text is never gated and therefore
never emitted as a verdict. The report serializer derives the closure-ratio
section from the final-closure verdict itself, so a blocked final claim can
never appear next to a numeric ratio: the forbidden combination is
unrepresentable, not merely unvalidated.
"""

from __future__ import annotations

import json
from decimal import Decimal
from enum import Enum
from functools import cache
from json.encoder import encode_basestring
from typing import NamedTuple

from .admissibility import BandAssignment, band_text
from .core_model import (
    PERIOD,
    REPORT_SCHEMA_VERSION,
    SOURCE,
    UNIT,
    Breakpoint,
    BreakpointCode,
    CaseBundle,
    ClaimBlockReason,
    ClaimLevel,
    EthRewardRow,
    EvidenceGrade,
    EvidenceSource,
    GateDecision,
    GateOutcome,
    Motive,
    ReasonCode,
    RouteKind,
    TriState,
    UnitKind,
    Verbatim,
    canonical_decimal,
    canonical_json,
    dump_record,
    order_block_reasons,
)
from .coverage import CoverageResult, FeeShareResult, RcrBlocked, RcrInterval, RcrPoint
from .errors import EvrcError, InputError
from .numerator import NumeratorResult


class ClaimTemplate(str, Enum):
    """Closed set of gateable claim statements.

    New statement kinds require a new enum entry plus a gate rule here;
    anything outside the enum is rejected as input, never silently emitted.
    """

    MECHANISM_ROUTE_EXISTS = "MECHANISM_ROUTE_EXISTS"
    BOUNDED_FEE_SHARE = "BOUNDED_FEE_SHARE"
    NO_ROUTE_IN_CAPTURED_SOURCES = "NO_ROUTE_IN_CAPTURED_SOURCES"
    FINAL_RCR = "FINAL_RCR"
    FINAL_NCD = "FINAL_NCD"
    HISTORICAL_ROUTE_NULL = "HISTORICAL_ROUTE_NULL"
    NO_REVENUE = "NO_REVENUE"
    STABLE_FEE_REPLACEMENT = "STABLE_FEE_REPLACEMENT"
    BURN_AS_COVERAGE = "BURN_AS_COVERAGE"
    EXTERNALLY_FUNDED_REWARDS = "EXTERNALLY_FUNDED_REWARDS"
    CROSS_RECIPIENT_COVERAGE = "CROSS_RECIPIENT_COVERAGE"


TEMPLATE_LEVELS: dict[ClaimTemplate, ClaimLevel] = {
    ClaimTemplate.MECHANISM_ROUTE_EXISTS: ClaimLevel.MECHANISM,
    ClaimTemplate.BOUNDED_FEE_SHARE: ClaimLevel.BOUNDED_NUMERIC,
    ClaimTemplate.NO_ROUTE_IN_CAPTURED_SOURCES: ClaimLevel.BOUNDED_NUMERIC,
    ClaimTemplate.FINAL_RCR: ClaimLevel.FINAL_CLOSURE,
    ClaimTemplate.FINAL_NCD: ClaimLevel.FINAL_CLOSURE,
    ClaimTemplate.HISTORICAL_ROUTE_NULL: ClaimLevel.FINAL_CLOSURE,
    ClaimTemplate.NO_REVENUE: ClaimLevel.FINAL_CLOSURE,
    ClaimTemplate.STABLE_FEE_REPLACEMENT: ClaimLevel.FINAL_CLOSURE,
    ClaimTemplate.BURN_AS_COVERAGE: ClaimLevel.FINAL_CLOSURE,
    ClaimTemplate.EXTERNALLY_FUNDED_REWARDS: ClaimLevel.FINAL_CLOSURE,
    ClaimTemplate.CROSS_RECIPIENT_COVERAGE: ClaimLevel.FINAL_CLOSURE,
}


class ClaimVerdict(NamedTuple):
    template: ClaimTemplate
    allowed: bool
    blocking_reasons: tuple[ClaimBlockReason, ...]


def grade_evidence(sources: list[EvidenceSource] | tuple[EvidenceSource, ...],
                   level: ClaimLevel) -> bool:
    """Is the source set sufficient for claims at this level?

    Mechanism claims need G1 or G2; bounded numeric claims need G1, or G2
    with fields and dates specified; final closure claims need G1. A case
    supported only by media/narrative (G3) is insufficient at every level.
    """
    has_g1 = any(s.grade is EvidenceGrade.G1 for s in sources)
    has_g2 = any(s.grade is EvidenceGrade.G2 for s in sources)
    has_g2_numeric = any(s.grade is EvidenceGrade.G2 and s.fields_and_dates_specified
                         for s in sources)
    if level is ClaimLevel.MECHANISM:
        return has_g1 or has_g2
    if level is ClaimLevel.BOUNDED_NUMERIC:
        return has_g1 or has_g2_numeric
    return has_g1


def _level_blockers(level: ClaimLevel, bundle: CaseBundle,
                    outcomes: tuple[GateOutcome, ...] | list[GateOutcome],
                    coverage: CoverageResult) -> list[ClaimBlockReason]:
    """Blocking reasons shared by every template at a level; strictly nested.

    Evidence grading is nested by level, so one check at the requested level
    covers the levels below it. Final closure also inherits the closure
    ratio's block reasons (unit, recipient, denominator) from coverage.
    """
    blockers: list[ClaimBlockReason] = []
    if not grade_evidence(bundle.sources, level):
        blockers.append(ClaimBlockReason.EVIDENCE_GRADE_INSUFFICIENT)
    if level is not ClaimLevel.FINAL_CLOSURE:
        return blockers

    accepted = [o for o in outcomes if o.decision is GateDecision.ACCEPTED]
    if not accepted:
        blockers.append(ClaimBlockReason.NO_ACCEPTED_ROUTE)

    if isinstance(coverage.rcr, RcrBlocked):
        blockers.extend(coverage.rcr.reasons)

    # Unknown-motive flows offered toward the numerator narrow the claim:
    # bounded stays available, final closure does not.
    if any(f.motive is Motive.UNKNOWN and f.intended_numerator for f in bundle.flows):
        blockers.append(ClaimBlockReason.MOTIVE_UNCLEAR_NARROWED)

    # A revocable route lowers the claim gate instead of the band.
    accepted_route_ids = {o.route_id for o in accepted if o.route_id}
    if any(r.checks.revocability is TriState.YES for r in bundle.routes
           if r.id in accepted_route_ids):
        blockers.append(ClaimBlockReason.REVOCABLE_ROUTE_DOWNGRADE)

    return blockers


def _mechanism_route_exists(outcomes) -> bool:
    """A route mechanism exists: some positive-band route whose flow was not
    demonstrably rejected (accepted or merely source-blocked). In a validated
    case each route names one flow, whose outcome carries the route's band."""
    rejected = GateDecision.REJECTED
    return any(o.band_e and o.decision is not rejected for o in outcomes)


# Templates blocked by fixed reasons, whatever the case's evidence.
_FIXED_REASONS: dict[ClaimTemplate, tuple[ClaimBlockReason, ...]] = {
    # Appears in claim boundaries as a label only; no formula exists.
    ClaimTemplate.FINAL_NCD: (ClaimBlockReason.UNDEFINED_METRIC,),
    # Absence in captured sources never proves historical absence.
    ClaimTemplate.HISTORICAL_ROUTE_NULL: (ClaimBlockReason.SOURCE_COVERAGE_GAP,),
    # A single captured window cannot establish a stable replacement.
    ClaimTemplate.STABLE_FEE_REPLACEMENT: (ClaimBlockReason.SOURCE_COVERAGE_GAP,),
    ClaimTemplate.BURN_AS_COVERAGE: (ClaimBlockReason.B3_BURN_CONFUSION,),
    # Coverage for a recipient other than the case's specified one.
    ClaimTemplate.CROSS_RECIPIENT_COVERAGE: (ClaimBlockReason.RECIPIENT_UNSPECIFIED,),
    ClaimTemplate.NO_REVENUE: (ClaimBlockReason.SOURCE_COVERAGE_GAP,),
}


def gate_claim(tmpl: ClaimTemplate, bundle: CaseBundle,
               outcomes: tuple[GateOutcome, ...] | list[GateOutcome],
               coverage: CoverageResult,
               breakpoints: tuple[Breakpoint, ...]) -> ClaimVerdict:
    """Gate one claim template against the fully-coded case."""
    if not isinstance(tmpl, ClaimTemplate):
        raise InputError(f"unknown claim template {tmpl!r}")

    reasons: list[ClaimBlockReason]
    if tmpl in _FIXED_REASONS:
        reasons = list(_FIXED_REASONS[tmpl])
        landing_activity = bundle.flows and bundle.unit.kind in (
            UnitKind.APP, UnitKind.COMPANY, UnitKind.COMPOSITE)
        if tmpl is ClaimTemplate.NO_REVENUE and landing_activity:
            reasons.append(ClaimBlockReason.LANDING_ACTIVITY_RECORDED)
    else:
        reasons = _level_blockers(TEMPLATE_LEVELS[tmpl], bundle, outcomes, coverage)
        accepted_any = any(o.decision is GateDecision.ACCEPTED for o in outcomes)
        if tmpl is ClaimTemplate.MECHANISM_ROUTE_EXISTS:
            if not _mechanism_route_exists(outcomes):
                reasons.append(ClaimBlockReason.NO_ACCEPTED_ROUTE)
        elif tmpl is ClaimTemplate.BOUNDED_FEE_SHARE:
            has_rows = bool(bundle.block_rows or bundle.eth_reward_rows
                            or bundle.fee_rows)
            if not accepted_any and not has_rows:
                reasons.append(ClaimBlockReason.NO_ACCEPTED_ROUTE)
        elif tmpl is ClaimTemplate.NO_ROUTE_IN_CAPTURED_SOURCES:
            if accepted_any:
                reasons.append(ClaimBlockReason.ACCEPTED_ROUTE_PRESENT)
        elif tmpl is ClaimTemplate.EXTERNALLY_FUNDED_REWARDS:
            if any(b.code is BreakpointCode.B4_ISSUANCE_MARKET_DEPENDENCE
                   for b in breakpoints):
                reasons.append(ClaimBlockReason.B4_DEPENDENCE)

    ordered = order_block_reasons(reasons)
    return ClaimVerdict(template=tmpl, allowed=not ordered, blocking_reasons=ordered)


def gate_all_claims(bundle: CaseBundle, outcomes, coverage: CoverageResult,
                    breakpoints: tuple[Breakpoint, ...]) -> tuple[ClaimVerdict, ...]:
    """Gate every template in enum order; reports carry the full verdict set."""
    return tuple(gate_claim(t, bundle, outcomes, coverage, breakpoints)
                 for t in ClaimTemplate)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

class CaseReport(NamedTuple):
    """A case report. `head` is the report document without its
    `gate_outcomes`, which are written straight from `outcomes` and `bands`,
    one template per outcome shape; the report's bytes are its only source."""
    head: dict
    outcomes: tuple[GateOutcome, ...]
    bands: dict[str, BandAssignment]

    @property
    def document(self) -> dict:
        """The report as a plain document: its JSON bytes read back."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        return canonical_json({**self.head, "gate_outcomes": Verbatim(
            _outcomes_json(self.outcomes, self.bands))})

    def to_text(self) -> str:
        return _render_text(self.head, self.outcomes)


# A gate outcome's report form repeats per shape: its decision, reason codes,
# band and band rules. Each shape's text is laid out once, with holes for the
# fields that vary per flow. The closed enums and the band table bound the
# shapes, so no input grows these caches.
_HOLE = Verbatim("\x00")  # never in the writer's output, which escapes it


@cache
def _outcome_json_template(decision: GateDecision, reason_codes: tuple[ReasonCode, ...],
                           band_e: Decimal | None,
                           band_rules: tuple[str, ...] | None) -> tuple[str, str, str, str]:
    """An outcome's JSON text, as it is indented in the report's
    `gate_outcomes` list, split at its holes: flow_id, narrative, route_id."""
    doc = {"flow_id": _HOLE, "route_id": _HOLE, "decision": decision._value_,
           "reason_codes": [c._value_ for c in reason_codes], "narrative": _HOLE,
           "band": band_text(band_e) if band_e is not None else None}
    if band_rules is not None:
        doc["band_rules"] = list(band_rules)
    # Strings are written with their newlines escaped, so every newline of
    # the text starts a line and takes the list item's indent.
    text = canonical_json(doc)[:-1].replace("\n", "\n    ")
    first, between, after, last = text.split(_HOLE.text)
    return first, between, after, last


def _outcomes_json(outcomes: tuple[GateOutcome, ...], bands: dict[str, BandAssignment]) -> str:
    """The report's `gate_outcomes` list as JSON text, at its depth."""
    if not outcomes:
        return "[]"
    items = []
    # Unpacked: a named tuple's fields read faster by position than by name,
    # and an enum member's `_value_` faster than its `value` property.
    for flow_id, route_id, decision, reason_codes, narrative, band_e in outcomes:
        first, between, after, last = _outcome_json_template(
            decision, reason_codes, band_e,
            # every route of a validated case has its band
            bands[route_id].applied_rules if route_id else None)
        route = "null" if route_id is None else encode_basestring(route_id)
        items.append(f"{first}{encode_basestring(flow_id)}{between}"
                     f"{encode_basestring(narrative)}{after}{route}{last}")
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


@cache
def _outcome_line_suffix(decision: GateDecision, reason_codes: tuple[ReasonCode, ...],
                         band_e: Decimal | None) -> str:
    """What follows the flow id on an outcome's line of the text report."""
    band = f" band={band_text(band_e)}" if band_e is not None else ""
    return f": {decision._value_}{band} [{', '.join(c._value_ for c in reason_codes)}]"


def _rcr_section(rcr: RcrPoint | RcrInterval | RcrBlocked, final_verdict: ClaimVerdict,
                 tag: dict) -> dict:
    """Closure-ratio section derived from the final-closure verdict; a
    reported ratio carries `tag`, the grade and period of every figure.

    When the final claim is blocked the section has no value field at all, so
    a numeric ratio cannot coexist with a blocked verdict.
    """
    if not final_verdict.allowed:
        return {
            "status": "blocked",
            "reasons": [r.value for r in final_verdict.blocking_reasons],
        }
    if isinstance(rcr, RcrPoint):
        return {"status": "reported", "value": canonical_decimal(rcr.value), **tag}
    if isinstance(rcr, RcrInterval):
        return {"status": "reported", "interval_low": canonical_decimal(rcr.low),
                "interval_high": canonical_decimal(rcr.high), **tag}
    raise EvrcError(
        "internal invariant failure: final closure claim allowed while the "
        "closure ratio is blocked")


def render_report(bundle: CaseBundle,
                  outcomes: tuple[GateOutcome, ...] | list[GateOutcome],
                  coverage: CoverageResult,
                  breakpoints: tuple[Breakpoint, ...],
                  verdicts: tuple[ClaimVerdict, ...],
                  numerator: NumeratorResult,
                  bands: dict[str, BandAssignment],
                  coding_trace: list[str],
                  eth_rows: list[tuple[EthRewardRow, Decimal]] | None = None,
                  fee_share: FeeShareResult | None = None) -> CaseReport:
    """Assemble the machine-readable case report (schema evrc-report/1)."""
    grade = bundle.best_evidence_grade()
    # Every numeric figure carries its evidence grade and period.
    tag = {"evidence_grade": grade.value if grade else None,
           "period": bundle.analysis_period_label}

    def figure(value: Decimal) -> dict:
        return {"value": canonical_decimal(value), **tag}

    final_verdict = next(v for v in verdicts
                         if v.template is ClaimTemplate.FINAL_RCR)

    denom = coverage.denominator
    denom_doc: dict = {"status": denom.status.value, "source_ids": list(denom.source_ids)}
    if denom.value is not None:
        denom_doc["value"] = figure(denom.value)
    if denom.bound_low is not None and denom.bound_high is not None:
        denom_doc["bound_low"] = figure(denom.bound_low)
        denom_doc["bound_high"] = figure(denom.bound_high)

    accepted_route_ids = {o.route_id for o in outcomes
                          if o.decision is GateDecision.ACCEPTED and o.route_id}
    pooled_capture = (
        bundle.unit.kind in (UnitKind.APP, UnitKind.COMPANY)
        and any(r.route_kind is RouteKind.CONTRACTUAL_PLATFORM_RULE
                for r in bundle.routes if r.id in accepted_route_ids)
    )
    # _level_blockers adds this reason exactly when an accepted route is
    # revocable, so the flag is read from the final verdict, not recomputed.
    revocable_flag = (ClaimBlockReason.REVOCABLE_ROUTE_DOWNGRADE
                      in final_verdict.blocking_reasons)
    source_gap_flag = any(o.decision is GateDecision.SOURCE_BLOCKED for o in outcomes)

    warnings: list[str] = []
    if numerator.negative_warning:
        warnings.append("net external-use value is negative (deductions exceed "
                        "admissible inflows); reported unclamped")
    if fee_share is not None and fee_share.skipped_starts:
        warnings.append(
            f"{len(fee_share.skipped_starts)} zero-total fee windows skipped")

    num_doc = {
        "alpha": canonical_decimal(numerator.alpha) if numerator.alpha is not None else None,
        "alpha_note": (bundle.numerator_config.note
                       if bundle.numerator_config else None),
        "net_external_value": figure(numerator.value),
        "breakdown": {
            "use_oriented": canonical_decimal(numerator.class_sums[Motive.USE_ORIENTED]),
            "financial_service": canonical_decimal(
                numerator.class_sums[Motive.FINANCIAL_SERVICE]),
            "mixed": canonical_decimal(numerator.class_sums[Motive.MIXED]),
            "mixed_after_haircut": canonical_decimal(numerator.mixed_after_haircut),
            "excluded_investment": canonical_decimal(
                numerator.class_sums[Motive.INVESTMENT_DEPENDENT]),
            "excluded_subsidy": canonical_decimal(
                numerator.class_sums[Motive.SUBSIDY_LOOP]),
            "excluded_unknown": canonical_decimal(numerator.class_sums[Motive.UNKNOWN]),
            "rebates": canonical_decimal(numerator.rebates),
            "emissions": canonical_decimal(numerator.emissions),
            "wash_self_dealing": canonical_decimal(numerator.wash_self_dealing),
        },
        "negative_value_warning": numerator.negative_warning,
        "note": "Route-admissible value is computed from per-flow accepted "
                "amounts; this net figure is a separate screening guardrail.",
    }

    row_analytics: dict = {}
    if eth_rows:
        row_analytics["eth_reward_decomposition"] = [
            {
                "window": row.window,
                "validator_reward": figure(reward),
                "base_fee_burn": figure(row.base_fee_burn),
            }
            for row, reward in eth_rows
        ]
    if fee_share is not None:
        row_analytics["btc_fee_share"] = {
            "window": fee_share.window,
            "max_share": (figure(fee_share.max_share)
                          if fee_share.max_share is not None else None),
            "max_window_start": fee_share.max_window_start,
            "windows_evaluated": len(fee_share.shares),
            "windows_skipped": list(fee_share.skipped_starts),
        }

    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "case_id": bundle.case_id,
        "currency": bundle.currency,
        "unit": dump_record(UNIT, bundle.unit),
        "recipient": {
            "id": bundle.recipient.id,
            "recipient_class": bundle.recipient.recipient_class.value,
            "is_specified": bundle.recipient.is_specified,
            "function_note": bundle.recipient.function_note,
        },
        "period": dump_record(PERIOD, bundle.analysis_period()),
        "coding_trace": list(coding_trace),
        "numerator_guardrail": num_doc,
        "breakpoints": [
            {"code": b.code.value, "justification": [c.value for c in b.justification]}
            for b in breakpoints
        ],
        "b4_dominance_threshold": canonical_decimal(bundle.b4_dominance_threshold),
        "coverage": {
            "rav_weighted": figure(coverage.rav.rav_weighted),
            "rav_unweighted": figure(coverage.rav.rav_unweighted),
            "accepted_flow_ids": list(coverage.rav.accepted_flow_ids),
            "denominator": denom_doc,
            "rcr": _rcr_section(coverage.rcr, final_verdict, tag),
        },
        "row_analytics": row_analytics,
        "claims": [
            {
                "template": v.template.value,
                "level": TEMPLATE_LEVELS[v.template].value,
                "allowed": v.allowed,
                "blocking_reasons": [r.value for r in v.blocking_reasons],
            }
            for v in verdicts
        ],
        "evidence_sources": [dump_record(SOURCE, s) for s in bundle.sources],
        "flags": {
            "pooled_capture_baseline": pooled_capture,
            "revocable_route_flag": revocable_flag,
            "source_coverage_gap": source_gap_flag,
        },
        "warnings": warnings,
    }
    return CaseReport(head=document, outcomes=tuple(outcomes), bands=bands)


def _render_text(doc: dict, outcomes: tuple[GateOutcome, ...]) -> str:
    """Deterministic plain-text rendering of a report: its head and outcomes."""
    lines: list[str] = []
    lines.append(f"case: {doc['case_id']}  ({doc['unit']['kind']} unit, "
                 f"recipient class {doc['recipient']['recipient_class']})")
    lines.append(f"period: {doc['period']['label']}  currency: {doc['currency']}")
    lines.append("")
    lines.append("coding trace:")
    for step in doc["coding_trace"]:
        lines.append(f"  {step}")
    lines.append("")
    ng = doc["numerator_guardrail"]
    alpha = ng["alpha"] if ng["alpha"] is not None else "n/a"
    lines.append(f"net external-use value: {ng['net_external_value']['value']} "
                 f"(alpha={alpha})")
    lines.append("")
    lines.append("gate outcomes:")
    lines.extend("  " + flow_id + _outcome_line_suffix(decision, reason_codes, band_e)
                 for flow_id, _, decision, reason_codes, _, band_e in outcomes)
    lines.append("")
    bps = ", ".join(b["code"] for b in doc["breakpoints"]) or "none"
    lines.append(f"breakpoints: {bps} "
                 f"(B4 dominance threshold {doc['b4_dominance_threshold']})")
    cov = doc["coverage"]
    lines.append(f"RAV weighted: {cov['rav_weighted']['value']}  "
                 f"unweighted: {cov['rav_unweighted']['value']}")
    rcr = cov["rcr"]
    if rcr["status"] == "reported":
        if "value" in rcr:
            lines.append(f"RCR: {rcr['value']}")
        else:
            lines.append(f"RCR: [{rcr['interval_low']}, {rcr['interval_high']}]")
    else:
        lines.append(f"RCR: blocked [{', '.join(rcr['reasons'])}]")
    lines.append("")
    lines.append("claims:")
    for c in doc["claims"]:
        if c["allowed"]:
            lines.append(f"  {c['template']}: allowed ({c['level']})")
        else:
            lines.append(f"  {c['template']}: blocked "
                         f"[{', '.join(c['blocking_reasons'])}]")
    if doc["warnings"]:
        lines.append("")
        lines.append("warnings:")
        for w in doc["warnings"]:
            lines.append(f"  - {w}")
    return "\n".join(lines) + "\n"
