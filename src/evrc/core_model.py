"""Domain types for the value-routing engine.

Everything downstream (band assignment, gating, coverage, claim gating,
reports) operates on the immutable types defined here. Monetary amounts are
exact decimals so that gate decisions and emitted reports are bit-reproducible;
a bundle carries exactly one quote currency and every flow must use it.
"""

from __future__ import annotations

import decimal
import json
from dataclasses import dataclass, field
from datetime import datetime
from decimal import Decimal
from enum import Enum

from .errors import InputError

# High precision so ratio arithmetic never flips a gate on rounding.
DECIMAL_CONTEXT = decimal.Context(prec=50)

DEFAULT_B4_THRESHOLD = Decimal("0.5")

CASE_SCHEMA_VERSION = "evrc-case/1"
FLOWS_SCHEMA_VERSION = "evrc-flows/1"
ROUTES_SCHEMA_VERSION = "evrc-routes/1"
SOURCES_SCHEMA_VERSION = "evrc-sources/1"
DENOMINATORS_SCHEMA_VERSION = "evrc-denominators/1"
REPORT_SCHEMA_VERSION = "evrc-report/1"


def canonical_decimal(value: Decimal) -> str:
    """Render a decimal canonically: no exponent, no trailing zeros."""
    if value == 0:
        return "0"
    return format(value.normalize(), "f")


def parse_decimal(raw) -> Decimal:
    """Parse a JSON scalar into an exact Decimal.

    Floats are refused: binary floats would smuggle rounding into gate
    decisions. Amounts in files must be strings or integers, and finite:
    NaN and infinities compare unlike numbers and would corrupt every gate.
    """
    if isinstance(raw, bool) or isinstance(raw, float):
        raise InputError(f"amount must be a string or integer, got {raw!r}")
    if isinstance(raw, int):
        return Decimal(raw)
    if isinstance(raw, str):
        try:
            value = Decimal(raw)
        except decimal.InvalidOperation as exc:
            raise InputError(f"not a decimal: {raw!r}") from exc
        if not value.is_finite():
            raise InputError(f"not a finite decimal: {raw!r}")
        return value
    raise InputError(f"amount must be a string or integer, got {raw!r}")


def _row_field(raw, key: str):
    """One field of a raw CSV or JSON row; a missing field is an input error."""
    if not isinstance(raw, dict) or key not in raw:
        raise InputError(f"row lacks the {key!r} field: {raw!r}")
    return raw[key]


def _parse_height(raw) -> int:
    """A block height: an integer, or a string holding one."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise InputError(f"block height must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# Enums
# ---------------------------------------------------------------------------

class UnitKind(str, Enum):
    PROTOCOL = "protocol"
    APP = "app"
    COMPANY = "company"
    ISSUER = "issuer"
    CHAIN = "chain"
    DAO = "dao"
    COMPOSITE = "composite"


class RecipientClass(str, Enum):
    AUTHORS_CURATORS = "authors_curators"
    MINERS = "miners"
    VALIDATORS = "validators"
    SUPPLIERS_RISK_LAYERS = "suppliers_risk_layers"
    STORAGE_PROVIDERS = "storage_providers"
    ISSUER_OPERATORS = "issuer_operators"
    OTHER = "other"


class PeriodBasis(str, Enum):
    WALL_CLOCK = "wall_clock"
    BLOCK_HEIGHT = "block_height"


class Motive(str, Enum):
    """Payment motive classes. X (unknown) is first-class, never coerced."""

    USE_ORIENTED = "U"
    FINANCIAL_SERVICE = "F"
    MIXED = "M"
    INVESTMENT_DEPENDENT = "I"
    SUBSIDY_LOOP = "S"
    UNKNOWN = "X"


class Landing(str, Enum):
    """Where a payment first settles."""

    APP = "app"
    PROTOCOL = "protocol"
    BURN = "burn"
    NEW_ISSUANCE = "new_issuance"
    TREASURY = "treasury"
    ISSUER_BALANCE_SHEET = "issuer_balance_sheet"
    SECONDARY_MARKET = "secondary_market"
    OTHER = "other"


class TriState(str, Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class RouteKind(str, Enum):
    NONE = "none"
    VOLUNTARY_DISCRETIONARY = "voluntary_discretionary"
    GOVERNANCE_MEDIATED = "governance_mediated"
    CONTRACTUAL_PLATFORM_RULE = "contractual_platform_rule"
    PROTOCOL_ENFORCED = "protocol_enforced"


class EvidenceGrade(str, Enum):
    G1 = "G1"  # code / on-chain / audited artifacts
    G2 = "G2"  # official docs and dashboards
    G3 = "G3"  # media / narrative; never sufficient for closure claims


class DenominatorStatus(str, Enum):
    MEASURED = "measured"
    BOUNDED = "bounded"
    UNAVAILABLE = "unavailable"


class GateDecision(str, Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    SOURCE_BLOCKED = "source_blocked"


class ReasonCode(str, Enum):
    """Per-flow gate reason codes.

    Failure codes explain rejections/blocks; satisfied codes are attached to
    accepted outcomes so an accepted decision never ships with an empty
    reason list.
    """

    NO_ROUTE = "no_route"
    BAND_ZERO = "band_zero"
    BENEFICIARY_UNSPECIFIC = "beneficiary_unspecific"
    MOTIVE_EXCLUDED = "motive_excluded"
    LANDING_BURN_MISMATCH = "landing_burn_mismatch"
    UNIT_MIXED = "unit_mixed"
    EVIDENCE_INSUFFICIENT = "evidence_insufficient"
    PERIOD_MISMATCH = "period_mismatch"
    SOURCE_COVERAGE_GAP = "source_coverage_gap"
    # satisfied-gate codes (accepted outcomes only)
    ROUTE_PRESENT = "route_present"
    BAND_POSITIVE = "band_positive"
    BENEFICIARY_SPECIFIC = "beneficiary_specific"
    MOTIVE_INCLUDED = "motive_included"
    LANDING_COMPATIBLE = "landing_compatible"
    PERIOD_MATCH = "period_match"


class BreakpointCode(str, Enum):
    B1_PSEUDO_CONSUMPTION = "B1"
    B2_APP_PROTOCOL_FRACTURE = "B2"
    B3_BURN_CAPTURE_MISMATCH = "B3"
    B4_ISSUANCE_MARKET_DEPENDENCE = "B4"


class ClaimLevel(str, Enum):
    MECHANISM = "mechanism_claim"
    BOUNDED_NUMERIC = "bounded_numeric_claim"
    FINAL_CLOSURE = "final_closure_claim"


class ClaimBlockReason(str, Enum):
    """Why a claim template is blocked for a case."""

    UNIT_MIXED = "unit_mixed"
    RECIPIENT_UNSPECIFIED = "recipient_unspecified"
    NO_ACCEPTED_ROUTE = "no_accepted_route"
    EVIDENCE_GRADE_INSUFFICIENT = "evidence_grade_insufficient"
    DENOMINATOR_UNAVAILABLE = "denominator_unavailable"
    MOTIVE_UNCLEAR_NARROWED = "motive_unclear_narrowed"
    B3_BURN_CONFUSION = "b3_burn_confusion"
    B4_DEPENDENCE = "b4_dependence"
    SOURCE_COVERAGE_GAP = "source_coverage_gap"
    REVOCABLE_ROUTE_DOWNGRADE = "revocable_route_downgrade"
    # engine extensions (see README: claim templates and gates)
    ACCEPTED_ROUTE_PRESENT = "accepted_route_present"
    LANDING_ACTIVITY_RECORDED = "landing_activity_recorded"
    UNDEFINED_METRIC = "undefined_metric"


_BLOCK_REASON_ORDER = {m: i for i, m in enumerate(ClaimBlockReason)}


def order_block_reasons(reasons) -> tuple[ClaimBlockReason, ...]:
    """Deduplicate and sort blocking reasons into the canonical enum order."""
    return tuple(sorted(set(reasons), key=_BLOCK_REASON_ORDER.__getitem__))


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisUnit:
    id: str
    kind: UnitKind
    boundary_note: str
    is_mixed: bool
    # True when the input file carried an explicit is_mixed value; composite
    # units must never receive a defaulted value.
    is_mixed_explicit: bool = True


@dataclass(frozen=True)
class CriticalRecipient:
    id: str
    unit_id: str
    recipient_class: RecipientClass
    function_note: str
    is_specified: bool


@dataclass(frozen=True)
class Period:
    label: str
    start: str | int
    end: str | int
    basis: PeriodBasis


@dataclass(frozen=True)
class Deductions:
    rebates: Decimal = Decimal(0)
    emissions: Decimal = Decimal(0)
    wash_self_dealing: Decimal = Decimal(0)


@dataclass(frozen=True)
class ValueFlow:
    id: str
    amount: Decimal
    currency: str
    period_label: str
    motive: Motive
    landing: Landing
    payer_note: str = ""
    landing_note: str = ""
    deductions: Deductions = field(default_factory=Deductions)
    # Coder decisions: was this flow offered toward the consumption numerator,
    # and does it form part of the recipient's incoming reward stream?
    intended_numerator: bool = False
    pays_recipient: bool = False


@dataclass(frozen=True)
class RouteChecks:
    enforceability: TriState
    beneficiary_specificity: TriState
    revocability: TriState  # yes = the route CAN be stopped without breaking a binding rule
    auditability: TriState

    def all_unknown(self) -> bool:
        return all(
            v is TriState.UNKNOWN
            for v in (self.enforceability, self.beneficiary_specificity,
                      self.revocability, self.auditability)
        )


@dataclass(frozen=True)
class Route:
    """A landing-to-recipient pathway.

    The routing-strength band is intentionally NOT a field here: bands are
    derived by the admissibility stage and never accepted from input files.
    """

    id: str
    flow_id: str
    recipient_id: str
    route_kind: RouteKind
    checks: RouteChecks
    escrowed_or_executed: bool = False
    # Coder marked the route's existence unresolvable from captured sources.
    source_gap: bool = False


@dataclass(frozen=True)
class EvidenceSource:
    id: str
    grade: EvidenceGrade
    capture_date: str
    locator: str
    fields_and_dates_specified: bool = False


@dataclass(frozen=True)
class RewardDenominator:
    recipient_id: str
    period_label: str
    status: DenominatorStatus
    value: Decimal | None = None
    bound_low: Decimal | None = None
    bound_high: Decimal | None = None
    source_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class GateOutcome:
    flow_id: str
    route_id: str | None
    decision: GateDecision
    reason_codes: tuple[ReasonCode, ...]
    narrative: str
    band_e: Decimal | None = None


@dataclass(frozen=True)
class Breakpoint:
    code: BreakpointCode
    justification: tuple[ReasonCode, ...] = ()


@dataclass(frozen=True)
class NumeratorConfig:
    """Disclosed haircut for mixed-motive flows; required whenever M-flows exist."""

    alpha: Decimal
    note: str


@dataclass(frozen=True)
class BtcBlockRow:
    height: int
    fees: Decimal
    subsidy: Decimal

    @classmethod
    def from_raw(cls, raw: dict) -> "BtcBlockRow":
        """Build a row from a raw CSV or JSON record."""
        return cls(height=_parse_height(_row_field(raw, "height")),
                   fees=parse_decimal(_row_field(raw, "fees")),
                   subsidy=parse_decimal(_row_field(raw, "subsidy")))


@dataclass(frozen=True)
class EthRewardRow:
    window: str
    priority_fees_to_proposer: Decimal
    proposer_mev: Decimal
    consensus_issuance: Decimal
    penalties_slashing: Decimal
    base_fee_burn: Decimal

    @classmethod
    def from_raw(cls, raw: dict) -> "EthRewardRow":
        """Build a row from a raw CSV record."""
        return cls(window=str(_row_field(raw, "window")), **{
            name: parse_decimal(_row_field(raw, name))
            for name in ("priority_fees_to_proposer", "proposer_mev",
                         "consensus_issuance", "penalties_slashing", "base_fee_burn")})


@dataclass(frozen=True)
class ProtocolFeeRow:
    period: str
    fees: Decimal
    revenue: Decimal

    @classmethod
    def from_raw(cls, raw: dict) -> "ProtocolFeeRow":
        """Build a row from a raw CSV or JSON record."""
        return cls(period=str(_row_field(raw, "period")),
                   fees=parse_decimal(_row_field(raw, "fees")),
                   revenue=parse_decimal(_row_field(raw, "revenue")))


@dataclass(frozen=True)
class CaseBundle:
    """One complete coding unit: everything the pipeline needs for a case."""

    case_id: str
    currency: str
    unit: AnalysisUnit
    recipient: CriticalRecipient
    periods: tuple[Period, ...]
    analysis_period_label: str
    flows: tuple[ValueFlow, ...]
    routes: tuple[Route, ...]
    sources: tuple[EvidenceSource, ...]
    denominators: tuple[RewardDenominator, ...]
    numerator_config: NumeratorConfig | None = None
    b4_dominance_threshold: Decimal = DEFAULT_B4_THRESHOLD
    block_rows: tuple[BtcBlockRow, ...] = ()
    eth_reward_rows: tuple[EthRewardRow, ...] = ()
    fee_rows: tuple[ProtocolFeeRow, ...] = ()
    feeshare_window: int | None = None

    def analysis_period(self) -> Period:
        for p in self.periods:
            if p.label == self.analysis_period_label:
                return p
        raise InputError(f"analysis period {self.analysis_period_label!r} not found")

    def route_for_flow(self, flow_id: str) -> Route | None:
        for r in self.routes:
            if r.flow_id == flow_id:
                return r
        return None

    def case_denominator(self) -> RewardDenominator | None:
        for d in self.denominators:
            if (d.recipient_id == self.recipient.id
                    and d.period_label == self.analysis_period_label):
                return d
        return None

    def best_evidence_grade(self) -> EvidenceGrade | None:
        order = [EvidenceGrade.G1, EvidenceGrade.G2, EvidenceGrade.G3]
        present = {s.grade for s in self.sources}
        for g in order:
            if g in present:
                return g
        return None


@dataclass(frozen=True)
class Violation:
    """A schema/invariant violation: data, not a fault."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# ---------------------------------------------------------------------------
# Parsing (combined-dict form; file IO lives in ingest)
# ---------------------------------------------------------------------------

def _parse_enum(enum_cls, raw, path: str, violations: list[Violation]):
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(m.value for m in enum_cls)
        violations.append(Violation(path, f"invalid value {raw!r}; expected one of: {valid}"))
        return None


def _parse_dec_field(raw, path: str, violations: list[Violation]) -> Decimal | None:
    if raw is None:
        return None
    try:
        return parse_decimal(raw)
    except InputError as exc:
        violations.append(Violation(path, str(exc)))
        return None


def _req(record: dict, key: str, path: str, violations: list[Violation]):
    if key not in record:
        violations.append(Violation(f"{path}.{key}", "required field missing"))
        return None
    return record[key]


def parse_bundle(data: dict) -> tuple[CaseBundle | None, list[Violation]]:
    """Build a CaseBundle from the combined-dict form.

    Collects violations instead of raising wherever the record remains
    structurally walkable; returns (None, violations) only when the case
    skeleton itself is unusable.
    """
    violations: list[Violation] = []
    case = data.get("case")
    if not isinstance(case, dict):
        return None, [Violation("case", "case record missing or not an object")]

    case_id = _req(case, "case_id", "case", violations)
    currency = _req(case, "currency", "case", violations)

    unit_raw = _req(case, "unit", "case", violations)
    unit = None
    if isinstance(unit_raw, dict):
        kind = _parse_enum(UnitKind, _req(unit_raw, "kind", "case.unit", violations),
                           "case.unit.kind", violations)
        if kind is not None and "id" in unit_raw:
            unit = AnalysisUnit(
                id=unit_raw["id"],
                kind=kind,
                boundary_note=unit_raw.get("boundary_note", ""),
                is_mixed=bool(unit_raw.get("is_mixed", False)),
                is_mixed_explicit="is_mixed" in unit_raw,
            )
    elif unit_raw is not None:
        violations.append(Violation("case.unit", "must be an object"))

    rec_raw = _req(case, "recipient", "case", violations)
    recipient = None
    if isinstance(rec_raw, dict):
        rclass = _parse_enum(RecipientClass,
                             _req(rec_raw, "recipient_class", "case.recipient", violations),
                             "case.recipient.recipient_class", violations)
        if rclass is not None and "id" in rec_raw:
            recipient = CriticalRecipient(
                id=rec_raw["id"],
                unit_id=rec_raw.get("unit_id", ""),
                recipient_class=rclass,
                function_note=rec_raw.get("function_note", ""),
                is_specified=bool(rec_raw.get("is_specified", False)),
            )
    elif rec_raw is not None:
        violations.append(Violation("case.recipient", "must be an object"))

    periods: list[Period] = []
    for i, p in enumerate(case.get("periods", [])):
        path = f"case.periods[{i}]"
        basis = _parse_enum(PeriodBasis, _req(p, "basis", path, violations),
                            f"{path}.basis", violations)
        if basis is None or "label" not in p:
            continue
        periods.append(Period(label=p["label"], start=p.get("start"),
                              end=p.get("end"), basis=basis))
    if not periods:
        violations.append(Violation("case.periods", "at least one period is required"))
    analysis_period_label = case.get("analysis_period", periods[0].label if periods else "")

    num_cfg = None
    if "numerator" in case and case["numerator"] is not None:
        n = case["numerator"]
        alpha = _parse_dec_field(_req(n, "alpha", "case.numerator", violations),
                                 "case.numerator.alpha", violations)
        if alpha is not None:
            num_cfg = NumeratorConfig(alpha=alpha, note=n.get("note", ""))

    b4_threshold = DEFAULT_B4_THRESHOLD
    if "b4_dominance_threshold" in case:
        parsed = _parse_dec_field(case["b4_dominance_threshold"],
                                  "case.b4_dominance_threshold", violations)
        if parsed is not None:
            b4_threshold = parsed

    flows: list[ValueFlow] = []
    for i, f in enumerate(data.get("flows", [])):
        path = f"flows[{i}]"
        motive = _parse_enum(Motive, _req(f, "motive", path, violations),
                             f"{path}.motive", violations)
        landing = _parse_enum(Landing, _req(f, "landing", path, violations),
                              f"{path}.landing", violations)
        amount = _parse_dec_field(_req(f, "amount", path, violations),
                                  f"{path}.amount", violations)
        if motive is None or landing is None or amount is None or "id" not in f:
            continue
        ded_raw = f.get("deductions", {}) or {}
        ded_vals = {}
        for key in ("rebates", "emissions", "wash_self_dealing"):
            v = _parse_dec_field(ded_raw.get(key, "0"), f"{path}.deductions.{key}", violations)
            ded_vals[key] = v if v is not None else Decimal(0)
        flows.append(ValueFlow(
            id=f["id"], amount=amount, currency=f.get("currency", ""),
            period_label=f.get("period_label", ""), motive=motive, landing=landing,
            payer_note=f.get("payer_note", ""), landing_note=f.get("landing_note", ""),
            deductions=Deductions(**ded_vals),
            intended_numerator=bool(f.get("intended_numerator", False)),
            pays_recipient=bool(f.get("pays_recipient", False)),
        ))

    routes: list[Route] = []
    for i, r in enumerate(data.get("routes", [])):
        path = f"routes[{i}]"
        if "band_E" in r or "band_e" in r:
            violations.append(Violation(f"{path}.band_E", "band_E is derived-only"))
        kind = _parse_enum(RouteKind, _req(r, "route_kind", path, violations),
                           f"{path}.route_kind", violations)
        checks_raw = _req(r, "checks", path, violations)
        checks = None
        if isinstance(checks_raw, dict):
            parsed_checks = {}
            for key in ("enforceability", "beneficiary_specificity",
                        "revocability", "auditability"):
                val = _parse_enum(TriState, _req(checks_raw, key, f"{path}.checks", violations),
                                  f"{path}.checks.{key}", violations)
                parsed_checks[key] = val
            if all(v is not None for v in parsed_checks.values()):
                checks = RouteChecks(**parsed_checks)
        elif checks_raw is not None:
            violations.append(Violation(f"{path}.checks", "must be an object"))
        if kind is None or checks is None or "id" not in r:
            continue
        routes.append(Route(
            id=r["id"], flow_id=r.get("flow_id", ""), recipient_id=r.get("recipient_id", ""),
            route_kind=kind, checks=checks,
            escrowed_or_executed=bool(r.get("escrowed_or_executed", False)),
            source_gap=bool(r.get("source_gap", False)),
        ))

    sources: list[EvidenceSource] = []
    for i, s in enumerate(data.get("sources", [])):
        path = f"sources[{i}]"
        grade = _parse_enum(EvidenceGrade, _req(s, "grade", path, violations),
                            f"{path}.grade", violations)
        if grade is None or "id" not in s:
            continue
        sources.append(EvidenceSource(
            id=s["id"], grade=grade, capture_date=s.get("capture_date", ""),
            locator=s.get("locator", ""),
            fields_and_dates_specified=bool(s.get("fields_and_dates_specified", False)),
        ))

    denominators: list[RewardDenominator] = []
    for i, d in enumerate(data.get("denominators", [])):
        path = f"denominators[{i}]"
        status = _parse_enum(DenominatorStatus, _req(d, "status", path, violations),
                             f"{path}.status", violations)
        if status is None:
            continue
        denominators.append(RewardDenominator(
            recipient_id=d.get("recipient_id", ""),
            period_label=d.get("period_label", ""),
            status=status,
            value=_parse_dec_field(d.get("value"), f"{path}.value", violations),
            bound_low=_parse_dec_field(d.get("bound_low"), f"{path}.bound_low", violations),
            bound_high=_parse_dec_field(d.get("bound_high"), f"{path}.bound_high", violations),
            source_ids=tuple(d.get("source_ids", [])),
        ))

    block_rows = tuple(BtcBlockRow.from_raw(r) for r in data.get("block_rows", []))
    eth_rows = tuple(EthRewardRow.from_raw(r) for r in data.get("eth_reward_rows", []))
    fee_rows = tuple(ProtocolFeeRow.from_raw(r) for r in data.get("fee_rows", []))

    if unit is None or recipient is None or not periods or case_id is None or currency is None:
        return None, violations

    bundle = CaseBundle(
        case_id=case_id, currency=currency, unit=unit, recipient=recipient,
        periods=tuple(periods), analysis_period_label=analysis_period_label,
        flows=tuple(flows), routes=tuple(routes), sources=tuple(sources),
        denominators=tuple(denominators), numerator_config=num_cfg,
        b4_dominance_threshold=b4_threshold,
        block_rows=block_rows, eth_reward_rows=eth_rows, fee_rows=fee_rows,
        feeshare_window=case.get("feeshare_window"),
    )
    return bundle, violations


# ---------------------------------------------------------------------------
# Serialization (canonical form; inverse of parse_bundle)
# ---------------------------------------------------------------------------

def _dec_or_none(value: Decimal | None):
    return None if value is None else canonical_decimal(value)


def bundle_to_dict(bundle: CaseBundle) -> dict:
    """Serialize to the combined-dict form with canonical decimal rendering."""
    case: dict = {
        "schema_version": CASE_SCHEMA_VERSION,
        "case_id": bundle.case_id,
        "currency": bundle.currency,
        "unit": {
            "id": bundle.unit.id,
            "kind": bundle.unit.kind.value,
            "boundary_note": bundle.unit.boundary_note,
            "is_mixed": bundle.unit.is_mixed,
        },
        "recipient": {
            "id": bundle.recipient.id,
            "unit_id": bundle.recipient.unit_id,
            "recipient_class": bundle.recipient.recipient_class.value,
            "function_note": bundle.recipient.function_note,
            "is_specified": bundle.recipient.is_specified,
        },
        "periods": [
            {"label": p.label, "start": p.start, "end": p.end, "basis": p.basis.value}
            for p in bundle.periods
        ],
        "analysis_period": bundle.analysis_period_label,
        "b4_dominance_threshold": canonical_decimal(bundle.b4_dominance_threshold),
    }
    if bundle.numerator_config is not None:
        case["numerator"] = {
            "alpha": canonical_decimal(bundle.numerator_config.alpha),
            "note": bundle.numerator_config.note,
        }
    if bundle.feeshare_window is not None:
        case["feeshare_window"] = bundle.feeshare_window

    return {
        "case": case,
        "flows": [
            {
                "id": f.id,
                "amount": canonical_decimal(f.amount),
                "currency": f.currency,
                "period_label": f.period_label,
                "motive": f.motive.value,
                "landing": f.landing.value,
                "landing_note": f.landing_note,
                "payer_note": f.payer_note,
                "deductions": {
                    "rebates": canonical_decimal(f.deductions.rebates),
                    "emissions": canonical_decimal(f.deductions.emissions),
                    "wash_self_dealing": canonical_decimal(f.deductions.wash_self_dealing),
                },
                "intended_numerator": f.intended_numerator,
                "pays_recipient": f.pays_recipient,
            }
            for f in bundle.flows
        ],
        "routes": [
            {
                "id": r.id,
                "flow_id": r.flow_id,
                "recipient_id": r.recipient_id,
                "route_kind": r.route_kind.value,
                "checks": {
                    "enforceability": r.checks.enforceability.value,
                    "beneficiary_specificity": r.checks.beneficiary_specificity.value,
                    "revocability": r.checks.revocability.value,
                    "auditability": r.checks.auditability.value,
                },
                "escrowed_or_executed": r.escrowed_or_executed,
                "source_gap": r.source_gap,
            }
            for r in bundle.routes
        ],
        "sources": [
            {
                "id": s.id,
                "grade": s.grade.value,
                "capture_date": s.capture_date,
                "locator": s.locator,
                "fields_and_dates_specified": s.fields_and_dates_specified,
            }
            for s in bundle.sources
        ],
        "denominators": [
            {
                "recipient_id": d.recipient_id,
                "period_label": d.period_label,
                "status": d.status.value,
                "value": _dec_or_none(d.value),
                "bound_low": _dec_or_none(d.bound_low),
                "bound_high": _dec_or_none(d.bound_high),
                "source_ids": list(d.source_ids),
            }
            for d in bundle.denominators
        ],
        "block_rows": [
            {"height": r.height, "fees": canonical_decimal(r.fees),
             "subsidy": canonical_decimal(r.subsidy)}
            for r in bundle.block_rows
        ],
        "eth_reward_rows": [
            {
                "window": r.window,
                "priority_fees_to_proposer": canonical_decimal(r.priority_fees_to_proposer),
                "proposer_mev": canonical_decimal(r.proposer_mev),
                "consensus_issuance": canonical_decimal(r.consensus_issuance),
                "penalties_slashing": canonical_decimal(r.penalties_slashing),
                "base_fee_burn": canonical_decimal(r.base_fee_burn),
            }
            for r in bundle.eth_reward_rows
        ],
        "fee_rows": [
            {"period": r.period, "fees": canonical_decimal(r.fees),
             "revenue": canonical_decimal(r.revenue)}
            for r in bundle.fee_rows
        ],
    }


def canonical_json(obj) -> str:
    """Byte-stable JSON rendering used for all machine outputs."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _parse_instant(raw) -> datetime | None:
    if not isinstance(raw, str):
        return None
    text = raw.replace("Z", "+00:00")
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


def validate_bundle(bundle: CaseBundle) -> list[Violation]:
    """Check referential integrity, invariants, and coding-order completeness.

    Violations are data: an empty list means the bundle is computable.
    """
    v: list[Violation] = []

    # unit / recipient
    if bundle.unit.kind is UnitKind.COMPOSITE and not bundle.unit.is_mixed_explicit:
        v.append(Violation("case.unit.is_mixed",
                           "composite units must set is_mixed explicitly"))
    if bundle.recipient.unit_id != bundle.unit.id:
        v.append(Violation("case.recipient.unit_id",
                           f"references unknown unit {bundle.recipient.unit_id!r}"))

    # periods
    labels = [p.label for p in bundle.periods]
    if len(labels) != len(set(labels)):
        v.append(Violation("case.periods", "period labels must be unique"))
    period_labels = set(labels)
    if bundle.analysis_period_label not in period_labels:
        v.append(Violation("case.analysis_period",
                           f"label {bundle.analysis_period_label!r} does not resolve to a period"))
    for i, p in enumerate(bundle.periods):
        path = f"case.periods[{i}]"
        if p.basis is PeriodBasis.BLOCK_HEIGHT:
            if not (isinstance(p.start, int) and isinstance(p.end, int)):
                v.append(Violation(path, "block-height periods need integer start/end"))
            elif not p.start < p.end:
                v.append(Violation(path, "start must be < end"))
        else:
            start, end = _parse_instant(p.start), _parse_instant(p.end)
            if start is None or end is None:
                v.append(Violation(path, "wall-clock periods need ISO-8601 start/end"))
            elif not start < end:
                v.append(Violation(path, "start must be < end"))

    # flows
    flow_ids = set()
    for i, f in enumerate(bundle.flows):
        path = f"flows[{i}]"
        if f.id in flow_ids:
            v.append(Violation(f"{path}.id", f"duplicate flow id {f.id!r}"))
        flow_ids.add(f.id)
        if f.amount < 0:
            v.append(Violation(f"{path}.amount", "must be >= 0"))
        for name, val in (("rebates", f.deductions.rebates),
                          ("emissions", f.deductions.emissions),
                          ("wash_self_dealing", f.deductions.wash_self_dealing)):
            if val < 0:
                v.append(Violation(f"{path}.deductions.{name}", "must be >= 0"))
        if f.currency != bundle.currency:
            v.append(Violation(f"{path}.currency",
                               f"{f.currency!r} differs from case currency {bundle.currency!r}"))
        if f.period_label not in period_labels:
            v.append(Violation(f"{path}.period_label",
                               f"references unknown period {f.period_label!r}"))
        if f.landing is Landing.OTHER and not f.landing_note:
            v.append(Violation(f"{path}.landing_note",
                               "required when landing is 'other'"))

    # routes
    route_ids = set()
    seen_pairs = set()
    for i, r in enumerate(bundle.routes):
        path = f"routes[{i}]"
        if r.id in route_ids:
            v.append(Violation(f"{path}.id", f"duplicate route id {r.id!r}"))
        route_ids.add(r.id)
        if r.flow_id not in flow_ids:
            v.append(Violation(f"{path}.flow_id",
                               f"references unknown flow {r.flow_id!r}"))
        if r.recipient_id != bundle.recipient.id:
            v.append(Violation(f"{path}.recipient_id",
                               f"references unknown recipient {r.recipient_id!r}"))
        pair = (r.flow_id, r.recipient_id)
        if pair in seen_pairs:
            v.append(Violation(path,
                               f"duplicate route for flow {r.flow_id!r} and recipient "
                               f"{r.recipient_id!r}; at most one route per pair"))
        seen_pairs.add(pair)

    # sources (coding order step 8 needs at least one graded source)
    if not bundle.sources:
        v.append(Violation("sources", "at least one evidence source is required"))
    source_ids = set()
    for i, s in enumerate(bundle.sources):
        path = f"sources[{i}]"
        if s.id in source_ids:
            v.append(Violation(f"{path}.id", f"duplicate source id {s.id!r}"))
        source_ids.add(s.id)

    # denominators (coding order step 7 needs a record, even if unavailable)
    matching = 0
    for i, d in enumerate(bundle.denominators):
        path = f"denominators[{i}]"
        if d.recipient_id != bundle.recipient.id:
            v.append(Violation(f"{path}.recipient_id",
                               f"references unknown recipient {d.recipient_id!r}"))
        if d.period_label not in period_labels:
            v.append(Violation(f"{path}.period_label",
                               f"references unknown period {d.period_label!r}"))
        if d.status is DenominatorStatus.MEASURED:
            if d.value is None or d.value <= 0:
                v.append(Violation(f"{path}.value",
                                   "measured denominators require value > 0"))
        if d.status is DenominatorStatus.BOUNDED:
            if d.bound_low is None or d.bound_high is None:
                v.append(Violation(f"{path}", "bounded denominators require both bounds"))
            elif d.bound_low > d.bound_high:
                v.append(Violation(f"{path}", "bound_low must be <= bound_high"))
            elif d.bound_low <= 0:
                v.append(Violation(f"{path}.bound_low",
                                   "must be > 0 (a zero lower bound makes the ratio unbounded)"))
        for sid in d.source_ids:
            if sid not in source_ids:
                v.append(Violation(f"{path}.source_ids",
                                   f"references unknown source {sid!r}"))
        if (d.recipient_id == bundle.recipient.id
                and d.period_label == bundle.analysis_period_label):
            matching += 1
    if matching == 0:
        v.append(Violation("denominators",
                           "a denominator record for the case recipient and analysis "
                           "period is required (status may be 'unavailable')"))
    elif matching > 1:
        v.append(Violation("denominators",
                           "multiple denominator records match the case recipient "
                           "and analysis period"))

    # numerator config
    if bundle.numerator_config is not None:
        cfg = bundle.numerator_config
        if not (0 <= cfg.alpha <= 1):
            v.append(Violation("case.numerator.alpha", "must be in [0, 1]"))
        if not cfg.note.strip():
            v.append(Violation("case.numerator.note",
                               "a written justification for alpha is required"))
    if not (0 < bundle.b4_dominance_threshold <= 1):
        v.append(Violation("case.b4_dominance_threshold", "must be in (0, 1]"))

    # block rows must be contiguous if present
    heights = [r.height for r in bundle.block_rows]
    for prev, cur in zip(heights, heights[1:]):
        if cur != prev + 1:
            v.append(Violation("block_rows",
                               f"gap between heights {prev} and {cur}"))
            break

    return v
