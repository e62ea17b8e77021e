"""Domain types for the value-routing engine.

Everything downstream (band assignment, gating, coverage, claim gating,
reports) operates on the immutable types defined here. Monetary amounts are
exact decimals so that gate decisions and emitted reports are bit-reproducible;
a bundle carries exactly one quote currency and every flow must use it.
"""

from __future__ import annotations

import decimal
from datetime import datetime
from decimal import Decimal
from enum import Enum
from functools import cached_property, lru_cache, partial
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import InputError

# Divisions (shares, ratios) round here, to 50 digits, so ratio arithmetic
# never flips a gate on rounding.
DECIMAL_CONTEXT = decimal.Context(prec=50)

# Every sum and product of amounts runs here and is exact: the precision
# allocates only the digits a result needs, and no sum of admissible amounts
# reaches the exponent limits. A trapped Inexact would be an engine bug.
EXACT_CONTEXT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                Emin=decimal.MIN_EMIN)
EXACT_CONTEXT.traps[decimal.Inexact] = True

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


# Far beyond any real amount (a wei is 1E-18 ether), yet small enough that
# sums, band weights and ratios of such values stay inside the decimal
# context's exponent range (Emax 999999) instead of raising Overflow.
MAX_DECIMAL_EXPONENT = 1000


def _plain_number_text(raw: str) -> bool:
    """Whether `Decimal` or `int` would read `raw` as written: they also take
    "1_000", " 5 " and non-ASCII digits such as "٥", silently."""
    return raw.isascii() and "_" not in raw and raw == raw.strip()


def parse_decimal(raw) -> Decimal:
    """Parse a JSON scalar into an exact Decimal.

    Floats are refused: binary floats would smuggle rounding into gate
    decisions. Amounts in files must be strings or integers, and finite:
    NaN and infinities compare unlike numbers and would corrupt every gate.
    A nonzero amount's exponent must lie within ±MAX_DECIMAL_EXPONENT.
    A string is refused when `Decimal` would read it only by coercion: with
    underscores, surrounding whitespace or non-ASCII digits.
    """
    kind = type(raw)
    if kind is str:
        return _parse_decimal_text(raw)
    if kind is not int:
        raise InputError(f"amount must be a string or integer, got {raw!r}")
    return _in_range(Decimal(raw), raw)


# Case files repeat few decimal texts ("0" above all), so each is read once;
# a refused text is never cached and raises again on every read.
@lru_cache(maxsize=1024)
def _parse_decimal_text(raw: str) -> Decimal:
    """The str path of `parse_decimal`."""
    if not _plain_number_text(raw):
        raise InputError(f"not a plain decimal (no underscores, surrounding "
                         f"spaces or non-ASCII digits): {raw!r}")
    try:
        value = Decimal(raw)
    except decimal.InvalidOperation as exc:
        raise InputError(f"not a decimal: {raw!r}") from exc
    if not value.is_finite():
        raise InputError(f"not a finite decimal: {raw!r}")
    return _in_range(value, raw)


def _in_range(value: Decimal, raw) -> Decimal:
    if value and abs(value.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise InputError(f"decimal out of range (exponent beyond "
                         f"±{MAX_DECIMAL_EXPONENT}): {raw!r}")
    return value


def _row_field(raw, key: str):
    """One field of a raw CSV or JSON row; a missing field is an input error."""
    if not isinstance(raw, dict) or key not in raw:
        raise InputError(f"row lacks the {key!r} field: {raw!r}")
    return raw[key]


def _row_amount(raw, key: str) -> Decimal:
    """A decimal field of a raw row; row amounts are never negative."""
    value = parse_decimal(_row_field(raw, key))
    if value < 0:
        raise InputError(f"{key} must be >= 0, got {raw[key]!r}")
    return value


def _parse_height(raw) -> int:
    """A block height: an integer, or a string holding one."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and _plain_number_text(raw):
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


_UNKNOWN = TriState.UNKNOWN  # read per route; a read through the class costs more


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

class AnalysisUnit(NamedTuple):
    id: str
    kind: UnitKind
    boundary_note: str
    is_mixed: bool


class CriticalRecipient(NamedTuple):
    id: str
    unit_id: str
    recipient_class: RecipientClass
    function_note: str
    is_specified: bool


class Period(NamedTuple):
    label: str
    start: str | int
    end: str | int
    basis: PeriodBasis


class Deductions(NamedTuple):
    rebates: Decimal = Decimal(0)
    emissions: Decimal = Decimal(0)
    wash_self_dealing: Decimal = Decimal(0)


class ValueFlow(NamedTuple):
    id: str
    amount: Decimal
    currency: str
    period_label: str
    motive: Motive
    landing: Landing
    payer_note: str = ""
    landing_note: str = ""
    deductions: Deductions = Deductions()
    # Coder decisions: was this flow offered toward the consumption numerator,
    # and does it form part of the recipient's incoming reward stream?
    intended_numerator: bool = False
    pays_recipient: bool = False


class RouteChecks(NamedTuple):
    enforceability: TriState
    beneficiary_specificity: TriState
    revocability: TriState  # yes = the route CAN be stopped without breaking a binding rule
    auditability: TriState

    def all_unknown(self) -> bool:
        return all(v is _UNKNOWN for v in self)


class Route(NamedTuple):
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


class EvidenceSource(NamedTuple):
    id: str
    grade: EvidenceGrade
    capture_date: str
    locator: str
    fields_and_dates_specified: bool = False


class RewardDenominator(NamedTuple):
    recipient_id: str
    period_label: str
    status: DenominatorStatus
    value: Decimal | None = None
    bound_low: Decimal | None = None
    bound_high: Decimal | None = None
    source_ids: tuple[str, ...] = ()


class GateOutcome(NamedTuple):
    flow_id: str
    route_id: str | None
    decision: GateDecision
    reason_codes: tuple[ReasonCode, ...]
    narrative: str
    band_e: Decimal | None = None


class Breakpoint(NamedTuple):
    code: BreakpointCode
    justification: tuple[ReasonCode, ...] = ()


class NumeratorConfig(NamedTuple):
    """Disclosed haircut for mixed-motive flows; required whenever M-flows exist."""

    alpha: Decimal
    note: str


class BtcBlockRow(NamedTuple):
    height: int
    fees: Decimal
    subsidy: Decimal

    @classmethod
    def from_raw(cls, raw: dict) -> "BtcBlockRow":
        """Build a row from a raw CSV or JSON record."""
        return cls(height=_parse_height(_row_field(raw, "height")),
                   fees=_row_amount(raw, "fees"),
                   subsidy=_row_amount(raw, "subsidy"))


class EthRewardRow(NamedTuple):
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
            name: _row_amount(raw, name)
            for name in ("priority_fees_to_proposer", "proposer_mev",
                         "consensus_issuance", "penalties_slashing", "base_fee_burn")})


class ProtocolFeeRow(NamedTuple):
    period: str
    fees: Decimal
    revenue: Decimal

    @classmethod
    def from_raw(cls, raw: dict) -> "ProtocolFeeRow":
        """Build a row from a raw CSV or JSON record."""
        return cls(period=str(_row_field(raw, "period")),
                   fees=parse_decimal(_row_field(raw, "fees")),
                   revenue=parse_decimal(_row_field(raw, "revenue")))


class _CaseBundleFields(NamedTuple):
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


class CaseBundle(_CaseBundleFields):
    """One complete coding unit: everything the pipeline needs for a case.

    A named tuple with an instance dict, which holds only the cached
    flow->route index; setting an attribute raises, as on every record.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"CaseBundle is immutable; cannot set {name!r}")

    def analysis_period(self) -> Period:
        return next(p for p in self.periods if p.label == self.analysis_period_label)

    @cached_property
    def _route_by_flow(self) -> dict[str, Route]:
        # Built once per bundle; not a field, so `==`, `_replace` and
        # serialisation never see it. The first route for a flow wins, as in
        # an unvalidated bundle whose routes repeat a flow_id.
        index: dict[str, Route] = {}
        for r in self.routes:
            index.setdefault(r.flow_id, r)
        return index

    def route_for_flow(self, flow_id: str) -> Route | None:
        return self._route_by_flow.get(flow_id)

    def case_denominators(self) -> list[RewardDenominator]:
        """The denominator records for the case recipient and analysis period."""
        return [d for d in self.denominators if d.recipient_id == self.recipient.id
                and d.period_label == self.analysis_period_label]

    def case_denominator(self) -> RewardDenominator | None:
        return next(iter(self.case_denominators()), None)

    def best_evidence_grade(self) -> EvidenceGrade | None:
        order = [EvidenceGrade.G1, EvidenceGrade.G2, EvidenceGrade.G3]
        present = {s.grade for s in self.sources}
        for g in order:
            if g in present:
                return g
        return None


class ValidCase(CaseBundle):
    """A `CaseBundle` that `validate_bundle` found codable; only it makes one,
    and `run_case` takes nothing else. `_replace` gives a plain `CaseBundle`,
    so an edited case must be validated again."""

    def __new__(cls, *args, **kwargs):
        raise TypeError("a ValidCase is made only by validate_bundle")

    @classmethod
    def _make(cls, iterable) -> CaseBundle:
        return CaseBundle._make(iterable)


class Violation(NamedTuple):
    """A schema/invariant violation: data, not a fault."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# ---------------------------------------------------------------------------
# Field tables: the case schema
# ---------------------------------------------------------------------------

class Field(NamedTuple):
    """One key of a JSON record.

    `type` is str, bool, int, str | int, Decimal, an Enum class, a `Record`,
    a row class with `from_raw`, or a one-element list `[t]` for a list of t;
    `dict` takes a JSON object as read, and `object` any JSON value (for a
    value checked where it is parsed).
    A non-required field whose default is None also accepts JSON null.
    Rules that `validate_bundle` checks: `min`, the least value; `ref`, the
    `Record` whose ids the value (or each item) must name; `unique`, no repeats.
    """

    key: str
    type: object
    required: bool = False
    default: object = None
    attr: str = ""  # the attribute it is stored under, when not `key`
    min: int | None = None
    ref: Record | None = None
    unique: bool = False


class Record:
    """A JSON object read into `cls`, a named tuple whose fields are the
    table's attributes in table order, or a dict keyed by them.

    Keys in `refused` are rejected with their own message instead of
    "unknown field"; `noun` names the record in validation messages.
    """

    def __init__(self, cls, table: tuple[Field, ...], refused: dict | None = None,
                 noun: str = ""):
        attrs = tuple(f.attr or f.key for f in table)
        if cls is not dict and attrs != cls._fields:
            raise TypeError(f"{cls.__name__} fields {cls._fields} differ from "
                            f"its table {attrs}")
        self.cls = cls
        self.table = table
        self.keys_in_order = tuple(f.key for f in table)
        self.keys = frozenset(self.keys_in_order)
        self.refused = refused or {}
        self.noun = noun
        # (key, attr, JSON types stored as read, parse, whether parse collects
        #  its own violations, dump, required, default)
        self.plan = tuple((f.key, attr, *_codec(f.type), f.required, f.default)
                          for f, attr in zip(table, attrs))
        self.rules = tuple(_rules(table))

    def read(self, raw, path: str, out: list[Violation]):
        """Read one record, appending a `Violation` for each fault found in it.

        A non-required field that fails takes its default; the record itself
        is None when it is not an object or a required field is missing or
        fails. The first read builds the table's reader (`_build_reader`),
        which from then on stands in for this method on the instance.
        """
        return _reader(self)(raw, path, out)


def _rules(table: tuple[Field, ...]):
    """(key, attr, min, ref, unique, whether a list) per field with a rule; the
    rules of a nested record are read through its field."""
    for f in table:
        attr = f.attr or f.key
        if isinstance(f.type, Record):
            yield from ((f"{f.key}.{key}", f"{attr}.{sub}", *rest)
                        for key, sub, *rest in f.type.rules)
        elif f.min is not None or f.ref is not None or f.unique:
            yield f.key, attr, f.min, f.ref, f.unique, isinstance(f.type, list)


_MISSING = object()


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


_JSON_TYPES = {str: "a string", bool: "a boolean", int: "an integer",
               str | int: "a string or an integer", dict: "an object"}
# The exact Python types a JSON value of each plain type has: a JSON true is
# a bool, never an integer.
_PLAIN = {spec: frozenset(getattr(spec, "__args__", (spec,))) for spec in _JSON_TYPES}


def _json_type(spec):
    def parse(raw):
        if type(raw) in _PLAIN[spec]:
            return raw
        raise InputError(f"must be {_JSON_TYPES[spec]}, got {raw!r}")
    return parse


def _enum(cls):
    members = {m.value: m for m in cls}
    valid = ", ".join(members)

    def parse(raw):
        if type(raw) is str:
            member = members.get(raw)
            if member is not None:
                return member
        raise InputError(f"invalid value {raw!r}; expected one of: {valid}")
    return parse


def _row_dump(row) -> dict:
    return {k: canonical_decimal(v) if isinstance(v, Decimal) else v
            for k, v in row._asdict().items()}


def _collecting(parse):
    """Adapt a scalar parser to report its failure as a violation at `path`."""
    def collect(raw, path, out):
        try:
            return parse(raw)
        except InputError as exc:
            out.append(Violation(path, str(exc)))
            return None
    return collect


def _codec(spec) -> tuple:
    """(JSON types stored as read, parse, whether parse collects its own
    violations, dump) for a field type."""
    if isinstance(spec, Record):
        return frozenset(), spec.read, True, partial(dump_record, spec)
    if isinstance(spec, list):
        (item,) = spec
        _, parse_item, collects, dump_item = _codec(item)
        if not collects:
            parse_item = _collecting(parse_item)

        def parse_list(raw, path, out):
            if type(raw) is not list:
                out.append(Violation(path, "must be a list"))
                return None
            # Looked up per list, not per item: a record's reader is built on
            # its first read.
            parse = item.read if isinstance(item, Record) else parse_item
            # Items are read without their paths; only a list with a fault is
            # read again with them, for its violations.
            found = len(out)
            parsed = [parse(x, "", out) for x in raw]
            if len(out) != found:
                del out[found:]
                parsed = [parse(x, f"{path}[{i}]", out) for i, x in enumerate(raw)]
            return tuple(x for x in parsed if x is not None)
        return frozenset(), parse_list, True, lambda value: [dump_item(x) for x in value]
    if hasattr(spec, "from_raw"):
        # Row records raise InputError rather than collect violations.
        return frozenset(), lambda raw, path, out: spec.from_raw(raw), True, _row_dump
    if isinstance(spec, type) and issubclass(spec, Enum):
        return frozenset(), _enum(spec), False, lambda value: value.value
    if spec is Decimal:
        return frozenset(), parse_decimal, False, canonical_decimal
    if spec is object:
        return frozenset(), lambda raw: raw, False, lambda value: value
    return _PLAIN[spec], _json_type(spec), False, lambda value: value


def _read_field(entry: tuple, value, path: str, out: list[Violation]):
    """The one fault path of every reader: field `entry` of `record.plan` when
    its `value` (`_MISSING` if absent) fails the reader's fast test, and every
    value of a field kind that has none. Returns the value read; a field that
    fails gives its default if it is not required, else None."""
    key, _, plain, parse, collects, _, required, default = entry
    if type(value) in plain:
        return value
    if value is _MISSING:
        if required:
            out.append(Violation(_at(path, key), "required field missing"))
            return None
        return default
    if value is None and default is None and not required:
        return None
    if collects:
        value = parse(value, _at(path, key), out)
    else:
        try:
            value = parse(value)
        except InputError as exc:
            out.append(Violation(_at(path, key), str(exc)))
            value = None
    if value is None:
        return None if required else default
    return value


def _unknown_keys(record: Record, raw: dict, path: str, out: list[Violation]) -> None:
    for key in raw:
        if key not in record.keys:
            out.append(Violation(_at(path, key), record.refused.get(key, "unknown field")))


def _spread(record: Record, raw: dict, path: str, out: list[Violation]) -> list:
    """The fault path of a record that lacks one of its table's keys: each
    field's value in table order, `_MISSING` if absent; unknown keys are
    reported first."""
    _unknown_keys(record, raw, path, out)
    get = raw.get
    return [get(key, _MISSING) for key in record.keys_in_order]


def _reader(record: Record):
    """`record`'s reader, built on its first use and then kept as `record.read`."""
    read = vars(record).get("read")
    if read is None:
        read = record.read = _build_reader(record)
    return read


def _build_reader(record: Record):
    """Compile `record`'s table into one straight-line `read(raw, path, out)`.

    One `itemgetter` call takes every field's value, in table order, into a
    local of its own; a record that lacks a key takes them from `_spread`
    instead. Each value is then kept after one exact test: a plain str,
    bool, int or dict field its `type(v) is T`, an enum field a `dict.get`
    on its members, a Decimal field a str that `parse_decimal` reads (its
    cached str path), a nested record an object that record's reader reads.
    A value that fails
    its test, and every value of a union, list, row or `object` field, goes
    to `_read_field`, so faults, defaults and violations are those of one
    generic path. A named tuple is built with `tuple.__new__`.
    """
    names = {"field": _read_field, "record": record, "spread": _spread,
             "unknown_keys": _unknown_keys, "Violation": Violation,
             "InputError": InputError, "parse_decimal_text": _parse_decimal_text,
             "Decimal": Decimal, "cls": record.cls, "new": tuple.__new__}
    fields = ", ".join(f"v{i}" for i in range(len(record.table))) + ","
    names["values"] = itemgetter(*record.keys_in_order)  # a tuple unless one key
    lines = ["def read(raw, path, out):",
             "    if type(raw) is not dict:",
             "        out.append(Violation(path, 'must be an object'))",
             "        return None",
             "    try:",
             f"        {fields if len(record.table) > 1 else 'v0'} = values(raw)",
             f"        if len(raw) != {len(record.table)}:",
             "            unknown_keys(record, raw, path, out)",
             "    except KeyError:",
             f"        {fields} = spread(record, raw, path, out)"]
    for i, f in enumerate(record.table):
        v, spec, fault = f"v{i}", f.type, f"field(p{i}, v{i}, path, out)"
        names[f"p{i}"] = record.plan[i]
        if spec in (str, bool, int, dict):
            lines += [f"    if type({v}) is not {spec.__name__}:", f"        {v} = {fault}"]
        elif isinstance(spec, type) and issubclass(spec, Enum):
            names[f"m{i}"] = {m.value: m for m in spec}
            lines += [f"    member = m{i}.get({v}) if type({v}) is str else None",
                      f"    {v} = {fault} if member is None else member"]
        elif spec is Decimal:
            lines += [f"    if type({v}) is str:",
                      "        try:", f"            {v} = parse_decimal_text({v})",
                      "        except InputError:", "            pass",
                      f"    if type({v}) is not Decimal:", f"        {v} = {fault}"]
        elif isinstance(spec, Record):
            names[f"r{i}"] = _reader(spec)
            lines += [f"    if type({v}) is dict:",
                      f"        {v} = r{i}({v}, path + {'.' + f.key!r} if path else {f.key!r}, out)",
                      "    else:", f"        {v} = {fault}"]
            if not f.required and f.default is not None:
                names[f"d{i}"] = f.default
                lines += [f"    if {v} is None:", f"        {v} = d{i}"]
        else:
            lines.append(f"    {v} = {fault}")
    if record.cls is dict:
        built = "{" + ", ".join(f"{entry[1]!r}: v{i}" for i, entry in enumerate(record.plan)) + "}"
    else:
        built = f"new(cls, ({fields}))"
    # A required field that fails reads None, and one that passes never does.
    failed = " or ".join(f"v{i} is None" for i, f in enumerate(record.table) if f.required)
    lines.append(f"    return None if {failed} else {built}" if failed else f"    return {built}")
    name = record.cls.__name__ if record.cls is not dict else "/".join(sorted(record.keys))
    exec(compile("\n".join(lines), f"<reader of {name}>", "exec"), names)
    return names["read"]


def dump_record(record: Record, obj) -> dict:
    """The canonical JSON form of `obj`; None values and absent attributes are left out."""
    out = {}
    for key, attr, _, _, _, dump, _, _ in record.plan:
        value = getattr(obj, attr, None)
        if value is not None:
            out[key] = dump(value)
    return out


def check_rules(record: Record, objs, at: str, ids: dict, out: list[Violation]) -> None:
    """Append a `Violation` for each `min`, `ref` or `unique` rule of `record`
    that one of `objs` breaks, in item order and then table order. Item i's
    path is `at.format(i)`; `ids` maps each record a `ref` names to its ids."""
    found = []  # (item index, rule index, message): violations are rare
    for r, (_, attr, least, ref, unique, many) in enumerate(record.rules):
        values = enumerate(map(attrgetter(attr), objs))
        if unique:
            seen = set()
            for i, value in values:
                if value in seen:
                    found.append((i, r, f"duplicate {record.noun} id {value!r}"))
                seen.add(value)
        elif ref is not None:
            known = ids[ref]
            items = ((i, item) for i, value in values for item in value) if many else values
            for i, item in items:
                if item not in known:
                    found.append((i, r, f"references unknown {ref.noun} {item!r}"))
        else:
            found.extend((i, r, f"must be >= {least}") for i, value in values if value < least)
    found.sort(key=lambda f: f[:2])
    out.extend(Violation(f"{at.format(i)}.{record.rules[r][0]}", message)
               for i, r, message in found)


UNIT = Record(AnalysisUnit, (
    Field("id", str, required=True),
    Field("kind", UnitKind, required=True),
    Field("boundary_note", str, default=""),
    Field("is_mixed", bool, default=False),
), noun="unit")

RECIPIENT = Record(CriticalRecipient, (
    Field("id", str, required=True),
    Field("unit_id", str, default="", ref=UNIT),
    Field("recipient_class", RecipientClass, required=True),
    Field("function_note", str, default=""),
    Field("is_specified", bool, default=False),
), noun="recipient")

PERIOD = Record(Period, (
    Field("label", str, required=True),
    Field("start", str | int),
    Field("end", str | int),
    Field("basis", PeriodBasis, required=True),
), noun="period")

NUMERATOR = Record(NumeratorConfig, (
    Field("alpha", Decimal, required=True),
    Field("note", str, default=""),
))

ROW_FILE = Record(dict, (
    Field("kind", str, required=True),
    Field("path", str, required=True),
    Field("grade", EvidenceGrade),
    Field("source_id", str),
))

CASE = Record(dict, (
    Field("schema_version", str),
    Field("case_id", str, required=True),
    Field("currency", str, required=True),
    Field("unit", UNIT, required=True),
    Field("recipient", RECIPIENT, required=True),
    Field("periods", [PERIOD], default=()),
    Field("analysis_period", str, attr="analysis_period_label"),
    Field("numerator", NUMERATOR, attr="numerator_config"),
    Field("b4_dominance_threshold", Decimal, default=DEFAULT_B4_THRESHOLD),
    Field("feeshare_window", int),
    Field("row_files", [ROW_FILE], default=()),
))

DEDUCTIONS = Record(Deductions, tuple(
    Field(key, Decimal, default=Decimal(0), min=0)
    for key in ("rebates", "emissions", "wash_self_dealing")))

FLOW = Record(ValueFlow, (
    Field("id", str, required=True, unique=True),
    Field("amount", Decimal, required=True, min=0),
    Field("currency", str, default=""),
    Field("period_label", str, default="", ref=PERIOD),
    Field("motive", Motive, required=True),
    Field("landing", Landing, required=True),
    Field("payer_note", str, default=""),
    Field("landing_note", str, default=""),
    Field("deductions", DEDUCTIONS, default=Deductions()),
    Field("intended_numerator", bool, default=False),
    Field("pays_recipient", bool, default=False),
), noun="flow")

CHECKS = Record(RouteChecks, tuple(
    Field(key, TriState, required=True)
    for key in ("enforceability", "beneficiary_specificity", "revocability", "auditability")))

ROUTE = Record(Route, (
    Field("id", str, required=True, unique=True),
    Field("flow_id", str, default="", ref=FLOW),
    Field("recipient_id", str, default="", ref=RECIPIENT),
    Field("route_kind", RouteKind, required=True),
    Field("checks", CHECKS, required=True),
    Field("escrowed_or_executed", bool, default=False),
    Field("source_gap", bool, default=False),
), refused={"band_E": "band_E is derived-only", "band_e": "band_E is derived-only"},
    noun="route")

SOURCE = Record(EvidenceSource, (
    Field("id", str, required=True, unique=True),
    Field("grade", EvidenceGrade, required=True),
    Field("capture_date", str, default=""),
    Field("locator", str, default=""),
    Field("fields_and_dates_specified", bool, default=False),
), noun="source")

DENOMINATOR = Record(RewardDenominator, (
    Field("recipient_id", str, default="", ref=RECIPIENT),
    Field("period_label", str, default="", ref=PERIOD),
    Field("status", DenominatorStatus, required=True),
    Field("value", Decimal),
    Field("bound_low", Decimal),
    Field("bound_high", Decimal),
    Field("source_ids", [str], default=(), ref=SOURCE),
))

# The combined-dict form: `case` plus one list per case file or row file.
# The case record's fields are stored on the bundle itself.
BUNDLE = Record(dict, (
    Field("case", CASE, required=True),
    Field("flows", [FLOW], default=()),
    Field("routes", [ROUTE], default=()),
    Field("sources", [SOURCE], default=()),
    Field("denominators", [DENOMINATOR], default=()),
    Field("block_rows", [BtcBlockRow], default=()),
    Field("eth_reward_rows", [EthRewardRow], default=()),
    Field("fee_rows", [ProtocolFeeRow], default=()),
))


def parse_bundle(data: dict) -> tuple[CaseBundle | None, list[Violation]]:
    """Build a CaseBundle from the combined-dict form.

    Collects violations instead of raising wherever the record remains
    structurally walkable; returns (None, violations) only when the case
    skeleton itself is unusable. Malformed row records raise `InputError`.
    """
    if not isinstance(data.get("case"), dict):
        return None, [Violation("case", "case record missing or not an object")]
    violations: list[Violation] = []
    parts = BUNDLE.read(data, "", violations)
    case = parts["case"] if parts is not None else None
    if case is not None and not case["periods"]:
        violations.append(Violation("case.periods", "at least one period is required"))
        case = None
    if case is None:
        return None, violations
    del case["schema_version"], case["row_files"]
    if case["analysis_period_label"] is None:
        case["analysis_period_label"] = case["periods"][0].label
    # A composite unit never receives a defaulted is_mixed.
    if case["unit"].kind is UnitKind.COMPOSITE and "is_mixed" not in data["case"]["unit"]:
        violations.append(Violation("case.unit.is_mixed",
                                    "composite units must set is_mixed explicitly"))
    parts.update(case)
    del parts["case"]
    return CaseBundle(**parts), violations


def bundle_to_dict(bundle: CaseBundle) -> dict:
    """Serialize to the combined-dict form with canonical decimal rendering."""
    return {**dump_record(BUNDLE, bundle),
            "case": {"schema_version": CASE_SCHEMA_VERSION, **dump_record(CASE, bundle)}}


class Verbatim(NamedTuple):
    """JSON text that `canonical_json` writes as is: the caller lays it out
    for the depth it is written at."""
    text: str


def canonical_json(obj) -> str:
    """Byte-stable JSON rendering used for all machine outputs: the bytes of
    `json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"`,
    where each `Verbatim` value stands for the JSON its text holds.

    Only str, int, bool, None, str-keyed dict, list, tuple and `Verbatim`
    are written; any other type, a record (a named tuple) or an enum member
    included, raises TypeError.
    """
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write_json(obj, newline: str, emit) -> None:
    """Emit `obj` as indented JSON; `newline` starts a line at its depth.

    A str member of a dict or list, the commonest value, is written in place
    rather than by a recursive call.
    """
    kind = type(obj)
    if kind is str:
        emit(encode_basestring(obj))
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):  # keys of unlike types raise TypeError here
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            if type(value) is str:
                emit(f"{sep}{encode_basestring(key)}: {encode_basestring(value)}")
            else:
                emit(f"{sep}{encode_basestring(key)}: ")
                _write_json(value, inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            if type(item) is str:
                emit(sep + encode_basestring(item))
            else:
                emit(sep)
                _write_json(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif kind is int:
        emit(repr(obj))
    elif kind is Verbatim:
        emit(obj.text)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def parse_instant(raw) -> datetime | None:
    """An ISO-8601 date-time (a trailing Z is UTC), or None."""
    if not isinstance(raw, str):
        return None
    text = raw.replace("Z", "+00:00")
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        return None


NO_ALPHA = "mixed-motive flows are present but no disclosed alpha was configured"


def validate_bundle(bundle: CaseBundle, found: list[Violation] | tuple = ()
                    ) -> tuple[list[Violation], str | None, ValidCase | None]:
    """Decide whether `bundle` may be coded: the one place that does.

    Checks referential integrity, invariants, coding-order completeness and
    the disclosure of alpha. Returns the violations (first those `found`
    while reading the bundle), the configuration error, and the
    `ValidCase` only when both of the others are empty. Violations are data.
    """
    v: list[Violation] = list(found)
    labels = [p.label for p in bundle.periods]
    # the ids that the field tables' `ref` rules name
    ids = {UNIT: {bundle.unit.id}, RECIPIENT: {bundle.recipient.id}, PERIOD: set(labels),
           FLOW: {f.id for f in bundle.flows}, SOURCE: {s.id for s in bundle.sources}}

    check_rules(CASE, (bundle,), "case", ids, v)

    # periods
    if len(labels) != len(ids[PERIOD]):
        v.append(Violation("case.periods", "period labels must be unique"))
    if bundle.analysis_period_label not in ids[PERIOD]:
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
            start, end = parse_instant(p.start), parse_instant(p.end)
            if start is None or end is None:
                v.append(Violation(path, "wall-clock periods need ISO-8601 start/end"))
            elif not start < end:
                v.append(Violation(path, "start must be < end"))

    check_rules(FLOW, bundle.flows, "flows[{}]", ids, v)
    for i, f in enumerate(bundle.flows):
        if f.currency != bundle.currency:
            v.append(Violation(f"flows[{i}].currency",
                               f"{f.currency!r} differs from case currency {bundle.currency!r}"))
        if f.landing is Landing.OTHER and not f.landing_note:
            v.append(Violation(f"flows[{i}].landing_note",
                               "required when landing is 'other'"))

    check_rules(ROUTE, bundle.routes, "routes[{}]", ids, v)
    seen_pairs = set()
    for i, r in enumerate(bundle.routes):
        pair = (r.flow_id, r.recipient_id)
        if pair in seen_pairs:
            v.append(Violation(f"routes[{i}]",
                               f"duplicate route for flow {r.flow_id!r} and recipient "
                               f"{r.recipient_id!r}; at most one route per pair"))
        seen_pairs.add(pair)

    # coding order step 8 needs at least one graded source
    if not bundle.sources:
        v.append(Violation("sources", "at least one evidence source is required"))
    check_rules(SOURCE, bundle.sources, "sources[{}]", ids, v)

    # denominators (coding order step 7 needs a record, even if unavailable)
    check_rules(DENOMINATOR, bundle.denominators, "denominators[{}]", ids, v)
    for i, d in enumerate(bundle.denominators):
        path = f"denominators[{i}]"
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
    matching = len(bundle.case_denominators())
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

    # block rows must be contiguous if present, and an explicit window fit them
    heights = [r.height for r in bundle.block_rows]
    for prev, cur in zip(heights, heights[1:]):
        if cur != prev + 1:
            v.append(Violation("block_rows",
                               f"gap between heights {prev} and {cur}"))
            break
    window = bundle.feeshare_window  # 0 or absent: the default window
    if heights and window and not 0 < window <= len(heights):
        v.append(Violation("case.feeshare_window",
                           f"must be in [1, {len(heights)}], the number of block rows"))

    # coding order step 3: mixed motives need a disclosed alpha, never a default
    config_error = (NO_ALPHA if bundle.numerator_config is None
                    and any(f.motive is Motive.MIXED for f in bundle.flows) else None)
    valid = not v and config_error is None
    return v, config_error, tuple.__new__(ValidCase, bundle) if valid else None
