"""Shared test helpers: randomized bundle generator and independent oracles.

The RAV oracle deliberately re-derives band assignment and the admissibility
gates from the documented rule table instead of calling the engine, so the
two implementations check each other.
"""

from __future__ import annotations

import random
from decimal import Decimal

from evrc.core_model import (
    AnalysisUnit,
    CaseBundle,
    CriticalRecipient,
    Deductions,
    DenominatorStatus,
    EvidenceGrade,
    EvidenceSource,
    Landing,
    Motive,
    NumeratorConfig,
    Period,
    PeriodBasis,
    RecipientClass,
    RewardDenominator,
    Route,
    RouteChecks,
    RouteKind,
    TriState,
    UnitKind,
    ValueFlow,
)

CASE_NAMES = ["youtube", "steem", "bitcoin", "ethereum", "aave", "filecoin",
              "usdc", "xrp"]

_TRI = [TriState.YES, TriState.NO, TriState.UNKNOWN]
_ROUTE_KINDS = list(RouteKind)
_MOTIVES = list(Motive)
_LANDINGS = list(Landing)


def _amount(rng: random.Random) -> Decimal:
    return Decimal(rng.randint(0, 10**8)).scaleb(-2)


def make_route(rng: random.Random, flow_id: str = "f0",
               recipient_id: str = "w0", route_id: str = "r0") -> Route:
    checks = RouteChecks(
        enforceability=rng.choice(_TRI),
        beneficiary_specificity=rng.choice(_TRI),
        revocability=rng.choice(_TRI),
        auditability=rng.choice(_TRI),
    )
    if rng.random() < 0.15:
        checks = RouteChecks(TriState.UNKNOWN, TriState.UNKNOWN,
                             TriState.UNKNOWN, TriState.UNKNOWN)
    return Route(
        id=route_id, flow_id=flow_id, recipient_id=recipient_id,
        route_kind=rng.choice(_ROUTE_KINDS), checks=checks,
        escrowed_or_executed=rng.random() < 0.3,
        source_gap=rng.random() < 0.3,
    )


def make_bundle(rng: random.Random, max_flows: int = 10) -> CaseBundle:
    """A schema-valid randomized bundle exercising every gate path."""
    unit_kind = rng.choice(list(UnitKind))
    unit = AnalysisUnit(id="u0", kind=unit_kind, boundary_note="generated",
                        is_mixed=rng.random() < 0.15)
    recipient = CriticalRecipient(
        id="w0", unit_id="u0", recipient_class=rng.choice(list(RecipientClass)),
        function_note="generated", is_specified=rng.random() < 0.9)

    periods = [Period("P1", "2024-01-01T00:00:00+00:00",
                      "2025-01-01T00:00:00+00:00", PeriodBasis.WALL_CLOCK)]
    has_other_period = rng.random() < 0.3
    if has_other_period:
        periods.append(Period("P0", "2023-01-01T00:00:00+00:00",
                              "2024-01-01T00:00:00+00:00", PeriodBasis.WALL_CLOCK))

    n_flows = rng.randint(0, max_flows)
    flows: list[ValueFlow] = []
    routes: list[Route] = []
    for i in range(n_flows):
        period_label = "P0" if has_other_period and rng.random() < 0.15 else "P1"
        deductions = Deductions()
        if rng.random() < 0.3:
            deductions = Deductions(rebates=_amount(rng).scaleb(-2),
                                    emissions=_amount(rng).scaleb(-2),
                                    wash_self_dealing=_amount(rng).scaleb(-2))
        landing = rng.choice(_LANDINGS)
        flows.append(ValueFlow(
            id=f"f{i}", amount=_amount(rng), currency="USD",
            period_label=period_label, motive=rng.choice(_MOTIVES),
            landing=landing,
            landing_note="generated" if landing is Landing.OTHER else "",
            deductions=deductions,
            intended_numerator=rng.random() < 0.5,
            pays_recipient=rng.random() < 0.3,
        ))
        if rng.random() < 0.7:
            routes.append(make_route(rng, flow_id=f"f{i}", recipient_id="w0",
                                     route_id=f"r{i}"))

    grades = [rng.choice(list(EvidenceGrade)) for _ in range(rng.randint(1, 3))]
    sources = tuple(
        EvidenceSource(id=f"s{i}", grade=g, capture_date="2025-01-01T00:00:00+00:00",
                       locator="generated", fields_and_dates_specified=rng.random() < 0.6)
        for i, g in enumerate(grades)
    )

    status = rng.choice(list(DenominatorStatus))
    if status is DenominatorStatus.MEASURED:
        denom = RewardDenominator("w0", "P1", status,
                                  value=_amount(rng) + Decimal("0.01"))
    elif status is DenominatorStatus.BOUNDED:
        low = _amount(rng) + Decimal("0.01")
        denom = RewardDenominator("w0", "P1", status, bound_low=low,
                                  bound_high=low + _amount(rng))
    else:
        denom = RewardDenominator("w0", "P1", status)

    return CaseBundle(
        case_id=f"gen-{rng.randint(0, 10**9)}", currency="USD", unit=unit,
        recipient=recipient, periods=tuple(periods), analysis_period_label="P1",
        flows=tuple(flows), routes=tuple(routes), sources=sources,
        denominators=(denom,),
        numerator_config=NumeratorConfig(
            alpha=Decimal(rng.randint(0, 100)).scaleb(-2), note="generated"),
    )


# ---------------------------------------------------------------------------
# Independent oracles (straight from the documented rule tables)
# ---------------------------------------------------------------------------

_BANDS = {
    "none": Decimal("0"),
    "voluntary_discretionary": Decimal("0.25"),
    "governance_mediated": Decimal("0.5"),
    "contractual_platform_rule": Decimal("0.75"),
    "protocol_enforced": Decimal("1.0"),
}


def oracle_band(route: Route) -> Decimal:
    band = _BANDS[route.route_kind.value]
    if route.route_kind.value == "governance_mediated" and route.escrowed_or_executed:
        band = Decimal("0.75")
    enf = route.checks.enforceability.value
    if enf == "no":
        band = min(band, Decimal("0.25"))
    elif enf == "unknown":
        band = min(band, Decimal("0.5"))
    aud = route.checks.auditability.value
    if aud in ("no", "unknown"):
        band = min(band, Decimal("0.25"))
    return band


def oracle_rav(bundle: CaseBundle) -> tuple[Decimal, Decimal]:
    """Exhaustive re-derivation of route-admissible value from raw inputs."""
    weighted = Decimal(0)
    unweighted = Decimal(0)
    for flow in bundle.flows:
        candidates = [r for r in bundle.routes if r.flow_id == flow.id]
        if not candidates:
            continue
        route = candidates[0]
        checks = route.checks
        all_unknown = all(c.value == "unknown" for c in (
            checks.enforceability, checks.beneficiary_specificity,
            checks.revocability, checks.auditability))
        if all_unknown and route.source_gap:
            continue  # source-blocked
        band = oracle_band(route)
        if band <= 0:
            continue
        if checks.beneficiary_specificity.value != "yes":
            continue
        if flow.motive.value not in ("U", "F", "M"):
            continue
        if flow.landing.value == "burn":
            continue
        if flow.period_label != bundle.analysis_period_label:
            continue
        weighted += flow.amount * band
        unweighted += flow.amount
    return weighted, unweighted
