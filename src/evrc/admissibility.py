"""Stage one of the two-stage test: route bands, per-flow gating, breakpoints.

Band assignment combines the ordinal route-kind band with a conservative
downgrade table over the four checks. The downgrade table is configuration,
not user-tunable: unknown never upgrades, and governance-mediated routes stay
capped at 0.5 unless a vote already produced an escrowed/contractual/executed
payment rule.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from functools import cache
from typing import NamedTuple

from .core_model import (
    DECIMAL_CONTEXT,
    Breakpoint,
    BreakpointCode,
    CaseBundle,
    CriticalRecipient,
    DenominatorStatus,
    GateDecision,
    GateOutcome,
    Landing,
    Motive,
    ReasonCode,
    Route,
    RouteKind,
    TriState,
    ValueFlow,
    canonical_decimal,
)
from .coverage import CoverageResult
from .errors import GateOrderingError, InputError

BAND_NONE = Decimal("0")
BAND_VOLUNTARY = Decimal("0.25")
BAND_GOVERNANCE = Decimal("0.5")
BAND_CONTRACTUAL = Decimal("0.75")
BAND_PROTOCOL = Decimal("1.0")

_BASE_BANDS = {
    RouteKind.NONE: (BAND_NONE, "NO_ROUTE"),
    RouteKind.VOLUNTARY_DISCRETIONARY: (BAND_VOLUNTARY, "BASE_VOLUNTARY"),
    RouteKind.GOVERNANCE_MEDIATED: (BAND_GOVERNANCE, "BASE_GOVERNANCE"),
    RouteKind.CONTRACTUAL_PLATFORM_RULE: (BAND_CONTRACTUAL, "BASE_CONTRACTUAL"),
    RouteKind.PROTOCOL_ENFORCED: (BAND_PROTOCOL, "BASE_PROTOCOL"),
}

# A band takes one of the five values above, so each value's report text is
# derived once.
band_text = cache(canonical_decimal)

ADMISSIBLE_MOTIVES = frozenset({Motive.USE_ORIENTED, Motive.FINANCIAL_SERVICE, Motive.MIXED})


class BandAssignment(NamedTuple):
    band_e: Decimal
    applied_rules: tuple[str, ...]


def assign_band(route: Route) -> BandAssignment:
    """Derive the routing-strength band for one route.

    Rules fire in a fixed order (base band, governance escrow/cap,
    enforceability cap, auditability cap) and every rule whose condition
    holds is recorded in `applied_rules`. Only the route kind, the escrow
    flag, enforceability and auditability decide the band, so each of their
    combinations is derived once.
    """
    checks = route.checks
    return _band_for(route.route_kind, route.escrowed_or_executed,
                     checks.enforceability, checks.auditability)


@cache
def _band_for(route_kind: RouteKind, escrowed_or_executed: bool,
              enforceability: TriState, auditability: TriState) -> BandAssignment:
    band, base_rule = _BASE_BANDS[route_kind]
    rules = [base_rule]

    if route_kind is RouteKind.GOVERNANCE_MEDIATED:
        if escrowed_or_executed:
            # The vote already created an escrowed/contractual/executed rule;
            # the route behaves like a contractual one.
            band = BAND_CONTRACTUAL
            rules.append("GOV_ESCROW_UPGRADE")
        else:
            rules.append("GOV_CAP")

    def cap(limit: Decimal, rule: str) -> None:
        nonlocal band
        rules.append(rule)
        if band > limit:
            band = limit

    if enforceability is TriState.NO:
        cap(BAND_VOLUNTARY, "ENFORCEABILITY_CAP")
    elif enforceability is TriState.UNKNOWN:
        cap(BAND_GOVERNANCE, "UNKNOWN_DOWNGRADE")

    if auditability is TriState.NO:
        cap(BAND_VOLUNTARY, "AUDITABILITY_CAP")
    elif auditability is TriState.UNKNOWN:
        cap(BAND_VOLUNTARY, "UNKNOWN_DOWNGRADE")

    return BandAssignment(band, tuple(rules))


_REJECTION_PHRASES = {
    ReasonCode.NO_ROUTE: "no route to the recipient identified",
    ReasonCode.BAND_ZERO: "route band is zero",
    ReasonCode.BENEFICIARY_UNSPECIFIC:
        "route does not name the recipient or a reward pool for the recipient",
    ReasonCode.MOTIVE_EXCLUDED: "payment motive is excluded from external-use admission",
    ReasonCode.LANDING_BURN_MISMATCH: "burn landing cannot fund the paid recipient",
    ReasonCode.PERIOD_MISMATCH: "flow period does not match the case period",
}

_SATISFIED_CODES = (
    ReasonCode.ROUTE_PRESENT,
    ReasonCode.BAND_POSITIVE,
    ReasonCode.BENEFICIARY_SPECIFIC,
    ReasonCode.MOTIVE_INCLUDED,
    ReasonCode.LANDING_COMPATIBLE,
    ReasonCode.PERIOD_MATCH,
)


def admit_flow(flow: ValueFlow, route: Route | None, recipient: CriticalRecipient,
               *, band: BandAssignment | None, case_period_label: str) -> GateOutcome:
    """Decide accepted / rejected / source-blocked for one flow.

    Reason codes enumerate every failed condition, not just the first;
    accepted outcomes carry the satisfied-gate codes instead.
    """
    if route is not None:
        if band is None:
            raise GateOrderingError("assign_band must run before admit_flow")
        if route.flow_id != flow.id:
            raise InputError(
                f"route {route.id!r} does not reference flow {flow.id!r}")
        if route.recipient_id != recipient.id:
            raise InputError(
                f"route {route.id!r} does not reference recipient {recipient.id!r}")

    band_e = band.band_e if band is not None else None

    if route is not None and route.source_gap and route.checks.all_unknown():
        return GateOutcome(
            flow.id, route.id, GateDecision.SOURCE_BLOCKED, (ReasonCode.SOURCE_COVERAGE_GAP,),
            "source-blocked: the route's existence cannot be resolved from captured sources",
            band_e)

    failed: list[ReasonCode] = []
    if route is None:
        failed.append(ReasonCode.NO_ROUTE)
    else:
        if band_e == 0:
            failed.append(ReasonCode.BAND_ZERO)
        if route.checks.beneficiary_specificity is not TriState.YES:
            failed.append(ReasonCode.BENEFICIARY_UNSPECIFIC)
    if flow.motive not in ADMISSIBLE_MOTIVES:
        failed.append(ReasonCode.MOTIVE_EXCLUDED)
    if flow.landing is Landing.BURN:
        failed.append(ReasonCode.LANDING_BURN_MISMATCH)
    if flow.period_label != case_period_label:
        failed.append(ReasonCode.PERIOD_MISMATCH)

    if failed:
        codes = tuple(failed)
        return GateOutcome(flow.id, route.id if route else None, GateDecision.REJECTED,
                           codes, _rejection_narrative(codes), band_e)

    return GateOutcome(
        flow.id, route.id, GateDecision.ACCEPTED, _SATISFIED_CODES,
        f"accepted: route {route.id} (band {band_text(band_e)}) "
        "satisfies all admissibility gates",
        band_e)


@cache
def _rejection_narrative(failed: tuple[ReasonCode, ...]) -> str:
    return "rejected: " + "; ".join(_REJECTION_PHRASES[c] for c in failed)


_CODE_ORDER = {m: i for i, m in enumerate(ReasonCode)}


def _justification(outcomes: list[GateOutcome]) -> tuple[ReasonCode, ...]:
    codes = {c for o in outcomes for c in o.reason_codes}
    return tuple(sorted(codes, key=_CODE_ORDER.__getitem__))


def classify_breakpoints(bundle: CaseBundle,
                         outcomes: list[GateOutcome] | tuple[GateOutcome, ...],
                         coverage: CoverageResult) -> tuple[Breakpoint, ...]:
    """Classify B1-B4 from gated flows and the case's coverage.

    Recipient payments are the accepted flows plus the flows the coder marked
    as part of the recipient's incoming reward stream; the B4 dominance share
    compares the band-weighted RAV against the coverage denominator (falling
    back to the summed recipient payments when no denominator value is
    usable).
    """
    by_flow = {o.flow_id: o for o in outcomes}
    missing = [f.id for f in bundle.flows if f.id not in by_flow]
    if missing:
        raise GateOrderingError(
            f"breakpoint classification requires gate outcomes for every flow; "
            f"missing: {missing}")

    found: list[Breakpoint] = []

    b1_outcomes = [by_flow[f.id] for f in bundle.flows
                   if f.intended_numerator
                   and f.motive in (Motive.INVESTMENT_DEPENDENT, Motive.SUBSIDY_LOOP)]
    if b1_outcomes:
        found.append(Breakpoint(BreakpointCode.B1_PSEUDO_CONSUMPTION,
                                _justification(b1_outcomes)))

    issuance_loop = any(f.landing is Landing.NEW_ISSUANCE and f.pays_recipient
                        for f in bundle.flows)
    b2_outcomes = [by_flow[f.id] for f in bundle.flows
                   if f.landing is Landing.APP
                   and by_flow[f.id].decision is not GateDecision.ACCEPTED]
    if issuance_loop and b2_outcomes:
        found.append(Breakpoint(BreakpointCode.B2_APP_PROTOCOL_FRACTURE,
                                _justification(b2_outcomes)))

    b3_outcomes = [by_flow[f.id] for f in bundle.flows
                   if f.intended_numerator and f.landing is Landing.BURN]
    if b3_outcomes:
        found.append(Breakpoint(BreakpointCode.B3_BURN_CAPTURE_MISMATCH,
                                _justification(b3_outcomes)))

    recipient_payment_flows = [
        f for f in bundle.flows
        if f.pays_recipient or by_flow[f.id].decision is GateDecision.ACCEPTED
    ]
    all_issuance = bool(recipient_payment_flows) and all(
        f.landing is Landing.NEW_ISSUANCE for f in recipient_payment_flows)

    denom = coverage.denominator
    if denom.status is DenominatorStatus.MEASURED and denom.value:
        total = denom.value
    elif denom.status is DenominatorStatus.BOUNDED and denom.bound_high:
        # The generous bound is the conservative choice: it makes the
        # external share smaller, never larger.
        total = denom.bound_high
    else:
        total = sum((f.amount for f in recipient_payment_flows), Decimal(0))

    share_below = False
    if total > 0:
        with decimal.localcontext(DECIMAL_CONTEXT):
            share_below = (coverage.rav.rav_weighted / total
                           < bundle.b4_dominance_threshold)

    if all_issuance or share_below:
        b4_outcomes = [by_flow[f.id] for f in recipient_payment_flows
                       if by_flow[f.id].decision is not GateDecision.ACCEPTED]
        found.append(Breakpoint(BreakpointCode.B4_ISSUANCE_MARKET_DEPENDENCE,
                                _justification(b4_outcomes)))

    return tuple(sorted(found, key=lambda b: b.code.value))
