"""Shared test helpers: randomized bundle generator and independent oracles.

The RAV oracle deliberately re-derives band assignment and the admissibility
gates from the documented rule table instead of calling the engine, so the
two implementations check each other; `reference_read` does the same for
the readers compiled from the field tables, and `reference_document` and
`reference_text` for the reports written from per-shape templates.
"""

from __future__ import annotations

import random
from decimal import Decimal
from functools import partial

from evrc import core_model, ingest
from evrc.admissibility import band_text
from evrc.claims import CaseReport
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
    Record,
    RewardDenominator,
    Route,
    RouteChecks,
    RouteKind,
    TriState,
    UnitKind,
    ValidCase,
    ValueFlow,
    Violation,
    validate_bundle,
)
from evrc.errors import InputError

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


def valid(bundle: CaseBundle) -> ValidCase:
    """`bundle` as validation passes it, ready for `run_case`; a bundle that
    validation refuses fails the calling test."""
    violations, config_error, case = validate_bundle(bundle)
    assert (violations, config_error) == ([], None), (violations, config_error)
    return case


def make_bundle(rng: random.Random, max_flows: int = 10) -> ValidCase:
    """A randomized case exercising every gate path, validated; `_replace`
    on it gives a plain bundle, which `valid` validates again."""
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

    return valid(CaseBundle(
        case_id=f"gen-{rng.randint(0, 10**9)}", currency="USD", unit=unit,
        recipient=recipient, periods=tuple(periods), analysis_period_label="P1",
        flows=tuple(flows), routes=tuple(routes), sources=sources,
        denominators=(denom,),
        numerator_config=NumeratorConfig(
            alpha=Decimal(rng.randint(0, 100)).scaleb(-2), note="generated"),
    ))


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


# ---------------------------------------------------------------------------
# Reference reader: the per-field loop the compiled readers replaced
# ---------------------------------------------------------------------------

def all_records() -> dict[str, Record]:
    """Every field table of `core_model` and `ingest` by name, the wrapper
    of each list file included."""
    found = {name: v for m in (core_model, ingest) for name, v in vars(m).items()
             if isinstance(v, Record)}
    found.update((file_name, wrapper) for file_name, (_, wrapper) in ingest.LIST_FILES.items())
    return found


def _reference_codec(spec) -> tuple:
    """(JSON types stored as read, parse, whether parse collects its own
    violations) for a field type; records, and lists of them, are read by
    `reference_read` itself, never by a compiled reader."""
    if isinstance(spec, Record):
        return frozenset(), partial(reference_read, spec), True
    if isinstance(spec, list):
        (item,) = spec
        _, parse_item, collects = _reference_codec(item)

        def parse_list(raw, path, out):
            if type(raw) is not list:
                out.append(Violation(path, "must be a list"))
                return None
            parsed = []
            for i, x in enumerate(raw):
                if collects:
                    parsed.append(parse_item(x, f"{path}[{i}]", out))
                else:
                    try:
                        parsed.append(parse_item(x))
                    except InputError as exc:
                        out.append(Violation(f"{path}[{i}]", str(exc)))
            return tuple(x for x in parsed if x is not None)
        return frozenset(), parse_list, True
    return core_model._codec(spec)[:3]


def reference_read(record: Record, raw, path: str, out: list[Violation]):
    """Read one record as the interpreting loop over its table did."""
    if type(raw) is not dict:
        out.append(Violation(path, "must be an object"))
        return None
    at = (lambda key: f"{path}.{key}") if path else (lambda key: key)
    for key in raw:
        if key not in record.keys:
            out.append(Violation(at(key), record.refused.get(key, "unknown field")))
    values = []
    ok = True
    for field in record.table:
        plain, parse, collects = _reference_codec(field.type)
        value = raw.get(field.key, core_model._MISSING)
        if type(value) in plain:
            values.append(value)
            continue
        if value is core_model._MISSING:
            if field.required:
                out.append(Violation(at(field.key), "required field missing"))
                ok = False
            values.append(field.default)
            continue
        if value is None and field.default is None and not field.required:
            values.append(None)
            continue
        if collects:
            value = parse(value, at(field.key), out)
        else:
            try:
                value = parse(value)
            except InputError as exc:
                out.append(Violation(at(field.key), str(exc)))
                value = None
        if value is None:
            ok = ok and not field.required
            value = field.default
        values.append(value)
    if not ok:
        return None
    if record.cls is dict:
        return dict(zip((f.attr or f.key for f in record.table), values))
    return record.cls._make(values)


# ---------------------------------------------------------------------------
# Reference report: one document tree per report, read key by key
# ---------------------------------------------------------------------------

def reference_document(report: CaseReport) -> dict:
    """`report` as a document, its gate outcomes built as one dict per flow."""
    outcome_docs = []
    for flow_id, route_id, decision, reason_codes, narrative, band_e in report.outcomes:
        doc = {
            "flow_id": flow_id,
            "route_id": route_id,
            "decision": decision.value,
            "reason_codes": [c.value for c in reason_codes],
            "narrative": narrative,
            "band": band_text(band_e) if band_e is not None else None,
        }
        if route_id:
            doc["band_rules"] = list(report.bands[route_id].applied_rules)
        outcome_docs.append(doc)
    return {**report.head, "gate_outcomes": outcome_docs}


def reference_text(doc: dict) -> str:
    """The plain-text report of a whole report document."""
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
    for o in doc["gate_outcomes"]:
        band = f" band={o['band']}" if o["band"] is not None else ""
        lines.append(f"  {o['flow_id']}: {o['decision']}{band} "
                     f"[{', '.join(o['reason_codes'])}]")
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
