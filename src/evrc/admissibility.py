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
from collections import namedtuple
from functools import cache

from .core_model import (
    DECIMAL_CONTEXT,
    EXACT_CONTEXT,
    Breakpoint,
    BreakpointCode,
    CaseBundle,
    DenominatorStatus,
    GateDecision,
    GateOutcome,
    Landing,
    Motive,
    OutcomeShape,
    ReasonCode,
    Route,
    RouteKind,
    TriState,
    ValueFlow,
    canonical_decimal,
)
from .claims import outcome_layout
from .coverage import CoverageResult
from .errors import GateOrderingError

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

ADMISSIBLE_MOTIVES = frozenset({Motive.USE_ORIENTED, Motive.FINANCIAL_SERVICE, Motive.MIXED})
_PSEUDO_CONSUMPTION_MOTIVES = (Motive.INVESTMENT_DEPENDENT, Motive.SUBSIDY_LOOP)

# The members that `admit_flow` and `classify_breakpoints` read per flow,
# bound once. Read through the class, a 4000-flow op of `tools/ab_pairs.py`
# takes 1.027/1.028/1.002/1.005 times as long on 3.10-3.13.
_ACCEPTED = GateDecision.ACCEPTED
_BURN = Landing.BURN
_APP = Landing.APP
_NEW_ISSUANCE = Landing.NEW_ISSUANCE
_YES = TriState.YES


class BandAssignment(namedtuple("BandAssignment", "band_e applied_rules")):
    __slots__ = ()


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


def admit_flow(flow: ValueFlow, route: Route | None, *, band: BandAssignment | None,
               case_period_label: str) -> GateOutcome:
    """Decide accepted / rejected / source-blocked for one flow and its route,
    which names the flow and the case recipient in a validated case.

    Reason codes enumerate every failed condition, not just the first;
    accepted outcomes carry the satisfied-gate codes instead. The outcome's
    shape depends only on the band and the facts read here, so it is looked
    up once per flow in `_shape`.
    """
    if route is None:
        return GateOutcome(flow.id, None, _shape(
            band.band_e if band is not None else None, None, _NO_ROUTE_FACT,
            flow.motive in ADMISSIBLE_MOTIVES, flow.landing is not _BURN,
            flow.period_label == case_period_label))
    if band is None:
        raise GateOrderingError("assign_band must run before admit_flow")
    route_id = route.id
    # A report names no band rules for a route whose id is empty.
    band_rules = band.applied_rules if route_id != "" else None
    checks = route.checks
    if route.source_gap and checks.all_unknown():
        return GateOutcome(flow.id, route_id, _shape(band.band_e, band_rules, _SOURCE_GAP_FACT))
    return GateOutcome(flow.id, route_id, _shape(
        band.band_e, band_rules, checks.beneficiary_specificity is _YES,
        flow.motive in ADMISSIBLE_MOTIVES, flow.landing is not _BURN,
        flow.period_label == case_period_label))


# What `admit_flow` reads of a route besides its band: none, one whose
# existence the captured sources cannot resolve, or one that does (True) or
# does not (False) name the recipient.
_NO_ROUTE_FACT = None
_SOURCE_GAP_FACT = "source_gap"


@cache
def _shape(band_e: Decimal | None, band_rules: tuple[str, ...] | None,
           route_fact: bool | str | None, motive_admissible: bool = True,
           landing_compatible: bool = True, period_match: bool = True) -> OutcomeShape:
    """The outcome of a flow whose route has `route_fact`, band `band_e` and
    the `band_rules` a report names, and whose motive, landing and period
    pass or fail as given. The closed enums and the band table bound the
    cache; no id reaches it."""
    narrative: tuple[str, ...]
    if route_fact is _SOURCE_GAP_FACT:
        decision, codes = GateDecision.SOURCE_BLOCKED, (ReasonCode.SOURCE_COVERAGE_GAP,)
        narrative = ("source-blocked: the route's existence cannot be resolved "
                     "from captured sources",)
    else:
        failed = [code for code, holds in (
            (ReasonCode.NO_ROUTE, route_fact is not _NO_ROUTE_FACT),
            (ReasonCode.BAND_ZERO, route_fact is _NO_ROUTE_FACT or band_e != 0),
            (ReasonCode.BENEFICIARY_UNSPECIFIC, route_fact is not False),
            (ReasonCode.MOTIVE_EXCLUDED, motive_admissible),
            (ReasonCode.LANDING_BURN_MISMATCH, landing_compatible),
            (ReasonCode.PERIOD_MISMATCH, period_match)) if not holds]
        if failed:
            decision, codes = GateDecision.REJECTED, tuple(failed)
            narrative = ("rejected: " + "; ".join(_REJECTION_PHRASES[c] for c in failed),)
        else:
            decision, codes = GateDecision.ACCEPTED, _SATISFIED_CODES
            narrative = ("accepted: route ",
                         f" (band {canonical_decimal(band_e)}) satisfies all admissibility gates")
    return OutcomeShape(decision, codes, band_e, narrative, *outcome_layout(
        decision, codes, band_e, band_rules, narrative, route_fact is not _NO_ROUTE_FACT))


_CODE_ORDER = {m: i for i, m in enumerate(ReasonCode)}


def _justification(shapes: list[OutcomeShape]) -> tuple[ReasonCode, ...]:
    codes = {c for shape in shapes for c in shape.reason_codes}
    return tuple(sorted(codes, key=_CODE_ORDER.__getitem__))


def classify_breakpoints(bundle: CaseBundle,
                         coverage: CoverageResult) -> tuple[Breakpoint, ...]:
    """Classify B1-B4 from the case's coverage and the gate outcomes it
    carries.

    Recipient payments are the accepted flows plus the flows the coder marked
    as part of the recipient's incoming reward stream; the B4 dominance share
    compares the band-weighted RAV against the coverage denominator (falling
    back to the summed recipient payments when it is unavailable).
    """
    gated = [(f, o.shape) for f, o in zip(bundle.flows, coverage.rav.outcomes)]
    found: list[Breakpoint] = []

    b1_shapes = [shape for f, shape in gated
                 if f.intended_numerator
                 and f.motive in _PSEUDO_CONSUMPTION_MOTIVES]
    if b1_shapes:
        found.append(Breakpoint(BreakpointCode.B1_PSEUDO_CONSUMPTION,
                                _justification(b1_shapes)))

    issuance_loop = any(f.landing is _NEW_ISSUANCE and f.pays_recipient
                        for f in bundle.flows)
    b2_shapes = [shape for f, shape in gated
                 if f.landing is _APP and shape.decision is not _ACCEPTED]
    if issuance_loop and b2_shapes:
        found.append(Breakpoint(BreakpointCode.B2_APP_PROTOCOL_FRACTURE,
                                _justification(b2_shapes)))

    b3_shapes = [shape for f, shape in gated
                 if f.intended_numerator and f.landing is _BURN]
    if b3_shapes:
        found.append(Breakpoint(BreakpointCode.B3_BURN_CAPTURE_MISMATCH,
                                _justification(b3_shapes)))

    recipient_payments = [(f, shape) for f, shape in gated
                          if f.pays_recipient or shape.decision is _ACCEPTED]
    all_issuance = bool(recipient_payments) and all(
        f.landing is _NEW_ISSUANCE for f, _ in recipient_payments)

    denom = coverage.denominator
    if denom.status is DenominatorStatus.MEASURED:
        total = denom.value
    elif denom.status is DenominatorStatus.BOUNDED:
        # The generous bound is the conservative choice: it makes the
        # external share smaller, never larger.
        total = denom.bound_high
    else:
        with decimal.localcontext(EXACT_CONTEXT):
            total = sum((f.amount for f, _ in recipient_payments), Decimal(0))

    share_below = False
    if total > 0:
        with decimal.localcontext(DECIMAL_CONTEXT):
            share_below = (coverage.rav.rav_weighted / total
                           < bundle.b4_dominance_threshold)

    if all_issuance or share_below:
        b4_shapes = [shape for _, shape in recipient_payments
                     if shape.decision is not _ACCEPTED]
        found.append(Breakpoint(BreakpointCode.B4_ISSUANCE_MARKET_DEPENDENCE,
                                _justification(b4_shapes)))

    return tuple(sorted(found, key=lambda b: b.code.value))
