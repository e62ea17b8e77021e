"""Domain types for the value-routing engine.

Everything downstream (band assignment, gating, coverage, claim gating,
reports) operates on the immutable types defined here. Monetary amounts are
exact decimals so that gate decisions and emitted reports are bit-reproducible;
a bundle carries exactly one quote currency and every flow must use it.
"""

from __future__ import annotations

import decimal
import gc
import re
from collections import defaultdict, namedtuple
from datetime import datetime
from decimal import Decimal
from enum import Enum
from functools import cached_property, partial, wraps
from itertools import chain, takewhile
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter

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
    if kind is int:
        value = Decimal(raw)
    elif kind is not str:
        raise InputError(f"amount must be a string or integer, got {raw!r}")
    # `Decimal` also reads "1_000", " 5 " and non-ASCII digits such as "٥".
    elif not (raw.isascii() and "_" not in raw and raw == raw.strip()):
        raise InputError(f"not a plain decimal (no underscores, surrounding "
                         f"spaces or non-ASCII digits): {raw!r}")
    else:
        try:
            value = Decimal(raw)
        except decimal.InvalidOperation as exc:
            raise InputError(f"not a decimal: {raw!r}") from exc
        if not value.is_finite():
            raise InputError(f"not a finite decimal: {raw!r}")
    if value and abs(value.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise InputError(f"decimal out of range (exponent beyond "
                         f"±{MAX_DECIMAL_EXPONENT}): {raw!r}")
    return value


def without_cycle_collection(build):
    """`build` run with the cyclic garbage collector paused, for the builders
    of a case's many records. The engine makes no reference cycles, so
    reference counting frees all it builds, and the collector's passes over
    the young records find nothing. The collector is enabled again on return
    only if it was enabled on entry, so a nested build, or a caller that
    paused it, finds it as it was. Without the pause, a 4000-flow op of
    `tools/ab_pairs.py` takes 1.110/1.094/1.089/1.116 times as long on
    3.10-3.13, and a replay `evrc fetch btc_blocks` of a 20k-row snapshot
    (paused in `read_rows`) 1.061/1.051/1.043/1.054 times (medians of 6 runs
    of 21 in-process pairs; A/A 1.004/0.989/1.011/1.003). `read_csv_rows`,
    the CSV read of `evrc feeshare`, is not paused: on a 20k-row CSV that op
    was no slower without it (0.994/0.981/0.993/0.992, 4 runs)."""
    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def parse_height(raw) -> int:
    """A block height written as text, as a CSV cell or an `evrc fetch
    --range` bound holds one: plain ASCII digits only."""
    if type(raw) is str and raw.isascii() and raw.isdigit():
        try:
            return int(raw)
        except ValueError:  # more digits than `int` reads from text
            pass
    raise InputError(f"block height must be an integer, got {raw!r}")


# The `Field` type of a block height (see `Field`).
Height = parse_height


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
# The records a case file reads (`AnalysisUnit`, `ValueFlow`, `Route`, ...)
# are made by their field tables, below, and so is `CaseBundle`.

class OutcomeShape(namedtuple("OutcomeShape", "decision reason_codes band_e narrative "
                                               "json_head json_tail text")):
    """What a gate outcome holds beyond its flow and route ids. It is the same
    for every flow whose route and flow facts decide alike, so
    `admissibility.admit_flow` makes each shape once and shares it.

    `narrative` is the narrative split at the route id it names: one piece
    when it names none. `json_head`, `json_tail` and `text` are the
    outcome's report pieces, as `claims.outcome_layout` lays them out; the
    band rules a report names are written in the JSON pieces alone.
    """
    __slots__ = ()


class GateOutcome(namedtuple("GateOutcome", "flow_id route_id shape")):
    """One flow's admissibility outcome: its ids and its shared shape, which
    answers for the rest."""
    __slots__ = ()

    @property
    def decision(self) -> GateDecision:
        return self.shape.decision

    @property
    def reason_codes(self) -> tuple[ReasonCode, ...]:
        return self.shape.reason_codes

    @property
    def band_e(self) -> Decimal | None:
        return self.shape.band_e

    @property
    def narrative(self) -> str:
        return (self.route_id or "").join(self.shape.narrative)


class Breakpoint(namedtuple("Breakpoint", "code justification", defaults=((),))):
    __slots__ = ()


class Violation(namedtuple("Violation", "path message")):
    """A schema/invariant violation: data, not a fault."""
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# ---------------------------------------------------------------------------
# Field tables: the case schema
# ---------------------------------------------------------------------------

class Field(namedtuple("Field", "key type required default attr min ref unique",
                       defaults=(False, None, "", None, None, False))):
    """One key of a JSON record, stored under the attribute `attr` when that
    is not empty, else under `key`.

    `type` is str, bool, int, str | int, Decimal, `Height` (a block height,
    an int or digits as text; not a class but `parse_height`, which reads
    it), an Enum class, a `Record`, or a one-element list `[t]` for a list of t;
    `dict` takes a JSON object as read, and `object` any JSON value (for a
    value checked where it is parsed).
    A non-required field whose default is None also accepts JSON null.
    Rules that `validate_bundle` checks: `min`, the least value; `ref`, the
    `Record` whose ids the value (or each item) must name; `unique`, no repeats.
    """
    __slots__ = ()


def _named_tuple(name: str, table: tuple[Field, ...]) -> type:
    """The named tuple `name` of `table`'s attributes, in table order. Its
    constructor defaults are the table defaults of the trailing fields that
    are not required, so it may be called with fewer values than a read
    gives; every read passes all of them."""
    attrs = tuple(f.attr or f.key for f in table)
    defaults = [f.default for f in takewhile(lambda f: not f.required, reversed(table))]
    return namedtuple(name, attrs, defaults=defaults[::-1], module=__name__)


class Record:
    """A JSON object read into `cls`: for a `name`, the named tuple of that
    name this table makes (`_named_tuple`), or for `dict`, a dict keyed by
    the attributes.

    Keys in `refused` are rejected with their own message instead of
    "unknown field"; `noun` names the record in validation messages.
    """

    def __init__(self, name: str | type[dict], table: tuple[Field, ...],
                 refused: dict | None = None, noun: str = ""):
        attrs = tuple(f.attr or f.key for f in table)
        self.cls = cls = name if name is dict else _named_tuple(name, table)
        self.table = table
        self.keys_in_order = tuple(f.key for f in table)
        self.keys = frozenset(self.keys_in_order)
        self.refused = refused or {}
        self.noun = noun
        # `_read_items`' fast columns. Without them, a 4000-flow op of
        # `tools/ab_pairs.py` takes 1.011/1.050/1.061/1.035 times as long on 3.10-3.13.
        self.getters = tuple(map(itemgetter, self.keys_in_order))
        # The record of its fields' values in table order, made without the
        # named tuple's `__new__`. With `cls._make`: 1.032/1.017/1.062/1.024.
        self.make = (partial(tuple.__new__, cls) if cls is not dict
                     else lambda values: dict(zip(attrs, values)))
        # (key, attr, JSON types stored as read, parse, dump, JSON types a
        #  column reads whole, column reader or nested record, required, default)
        self.plan = tuple((f.key, attr, *_codec(f.type), f.required, f.default)
                          for f, attr in zip(table, attrs))
        self.rules = tuple(_rules(table))
        # read_list(raw, path, out): a JSON list of these records, as a field
        # of type [self] reads it
        self.read_list = _codec([self])[1]

    def read(self, raw, path: str, out: list[Violation]):
        """One record at `path`, read by `_read_items` as a list of one."""
        (record,), _ = _read_items(self, [raw], lambda _: path, {0: out})
        return record


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
_STR, _DICT = frozenset({str}), frozenset({dict})


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


def _column(parse):
    """A column reader of str values through the scalar parser `parse`: each
    distinct text is read once, and its repeats share the one value. Parsing
    every value instead, a 4000-flow op of `tools/ab_pairs.py` takes
    1.065/1.061/1.055/1.095 times as long on 3.10-3.13. A column whose texts
    are all distinct is parsed as it is."""
    def column(values):
        read = dict.fromkeys(values)
        try:
            if len(read) == len(values):
                return list(map(parse, values))
            for text in read:
                read[text] = parse(text)
        except InputError:
            return None
        return list(map(read.__getitem__, values))
    return column


class _Kept(tuple):
    """The records read from a list, less the items that failed to read;
    `at` holds each record's index in the list, for later checks' paths."""


def _indexes(items):
    """The index of each of `items` in the list it was read from."""
    return getattr(items, "at", range(len(items)))


def _collecting(parse):
    """A scalar parser that reports its failure as a violation at `path`."""
    def collect(raw, path, out):
        try:
            return parse(raw)
        except InputError as exc:
            out.append(Violation(path, str(exc)))
            return None
    return collect


def _codec(spec) -> tuple:
    """(JSON types stored as read, parse, dump, JSON types a column reads
    whole, column reader) for a field type. `parse(raw, path, out)` appends
    each fault to `out`, at `path`, and returns None for a value it cannot
    read. A column reader takes every value of one field in a list of
    records, all of those types, and returns them read, or None on a fault;
    a nested record stands in for its own."""
    if isinstance(spec, Record):
        return frozenset(), spec.read, partial(dump_record, spec), _DICT, spec
    if isinstance(spec, list):
        (item,) = spec
        _, parse_item, dump_item, *_ = _codec(item)

        def parse_list(raw, path, out):
            if type(raw) is not list:
                out.append(Violation(path, "must be a list"))
                return None
            if isinstance(item, Record):
                faults = defaultdict(list)
                parsed, failed = _read_items(item, raw, lambda i: f"{path}[{i}]", faults)
                out += chain.from_iterable(faults[i] for i in sorted(faults))
                if not failed:
                    return parsed
            else:
                parsed = [parse_item(x, f"{path}[{i}]", out) for i, x in enumerate(raw)]
            kept = _Kept(x for x in parsed if x is not None)
            if len(kept) == len(parsed):
                return tuple(kept)
            kept.at = [i for i, x in enumerate(parsed) if x is not None]
            return kept
        return (frozenset(), parse_list, lambda value: [dump_item(x) for x in value],
                frozenset(), None)
    if isinstance(spec, type) and issubclass(spec, Enum):
        parse = _enum(spec)
        return frozenset(), _collecting(parse), lambda value: value.value, _STR, _column(parse)
    if spec is Decimal:
        return (frozenset(), _collecting(parse_decimal), canonical_decimal, _STR,
                _column(parse_decimal))
    if spec is Height:
        return (_PLAIN[int], _collecting(parse_height), lambda value: value, _STR,
                _column(parse_height))
    if spec is object:
        return frozenset(), lambda raw, path, out: raw, lambda value: value, frozenset(), None
    return (_PLAIN[spec], _collecting(_json_type(spec)), lambda value: value, frozenset(),
            None)


def _read_field(entry: tuple, value, at, k, faults: dict):
    """Field `entry` of `record.plan` read from item `k`'s `value` (`_MISSING`
    if absent), each fault appended to `faults[k]` at its path under `at(k)`.
    A field that fails gives its default if it is not required, else None."""
    key, _, plain, parse, _, _, _, required, default = entry
    if type(value) in plain:
        return value
    if value is _MISSING:
        if required:
            faults[k].append(Violation(_at(at(k), key), "required field missing"))
            return None
        return default
    if value is None and default is None and not required:
        return None
    value = parse(value, _at(at(k), key), faults[k])
    if value is None:
        return None if required else default
    return value


def _read_items(record: Record, raw: list, at, faults: dict, keys=None) -> tuple:
    """The one record read: the list `raw` of `record`s, a field at a time.
    Item n is keyed `keys[n]` (n by default); its faults go to `faults[key]`
    at its path `at(key)`: "must be an object", or its unknown keys, then its
    fields' faults in table order. A column all of plain types is kept as
    read, one all of the type its reader takes goes to it whole, and a nested
    record's objects go to this read as one list (`_read_nested`); any other
    column, or one its reader refuses, is read value by value by
    `_read_field`. Returns the records, None for each
    item that is not an object or whose required field read None (only an
    `object` field reads a null without a fault), and those items' keys."""
    keys = range(len(raw)) if keys is None else keys
    objs, obj_keys, failed = raw, keys, set()
    if set(map(type, raw)) - _DICT:
        failed = {k for k, x in zip(keys, raw) if type(x) is not dict}
        for k in failed:
            faults[k].append(Violation(at(k), "must be an object"))
        obj_keys, objs = [k for k in keys if k not in failed], [x for x in raw if type(x) is dict]
    columns = None
    if set(map(len, objs)) == {len(record.keys)}:
        try:
            columns = [list(map(get, objs)) for get in record.getters]
        except KeyError:  # an unknown key in place of a known one
            pass
    if columns is None:
        if not record.keys.issuperset(chain.from_iterable(objs)):
            for k, obj in zip(obj_keys, objs):
                faults[k] += [Violation(_at(at(k), key), record.refused.get(key, "unknown field"))
                              for key in obj if key not in record.keys]
        columns = [[obj.get(key, _MISSING) for obj in objs] for key in record.keys_in_order]
    read = []
    for entry, values in zip(record.plan, columns):
        key, _, plain, _, _, kinds, column, required, default = entry
        found = set(map(type, values))
        if found <= plain:
            pass
        elif dict in found and type(column) is Record:
            values, bad = _read_nested(entry, values, at, obj_keys, faults, found == kinds)
            if required:
                failed |= bad
            elif bad:
                values = [default if value is None else value for value in values]
        elif found == kinds and (whole := column(values)) is not None:
            values = whole
        else:
            values = [_read_field(entry, value, at, k, faults)
                      for k, value in zip(obj_keys, values)]
            if required:
                failed.update(k for k, value in zip(obj_keys, values) if value is None)
        read.append(values)
    made = map(record.make, zip(*read))
    if not failed:
        return tuple(made), failed
    records = [next(made) if type(x) is dict else None for x in raw]
    return [None if k in failed else r for k, r in zip(keys, records)], failed


def _read_nested(entry: tuple, values: list, at, keys, faults: dict, all_objects: bool):
    """The column `values` of nested-record field `entry`, item n keyed
    `keys[n]`, read, and the keys of the items that read None. The column's
    objects are read as one list under their own items' keys, and any other
    value (absent, null or not an object) by itself."""
    key, _, _, _, _, _, record, *_ = entry
    def path(k):
        return _at(at(k), key)
    if all_objects:
        return _read_items(record, values, path, faults, keys)
    objs = [value for value in values if type(value) is dict]
    read = iter(_read_items(record, objs, path, faults,
                            [k for k, value in zip(keys, values) if type(value) is dict])[0])
    values = [next(read) if type(value) is dict else _read_field(entry, value, at, k, faults)
              for k, value in zip(keys, values)]
    return values, {k for k, value in zip(keys, values) if value is None}


def dump_record(record: Record, obj) -> dict:
    """The canonical JSON form of `obj`; None values and absent attributes are left out."""
    out = {}
    for key, attr, _, _, dump, *_ in record.plan:
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
        column = list(map(attrgetter(attr), objs))
        # Each rule is tested on the whole column first; only a column that
        # breaks it is scanned item by item, for the violations' paths. Scanning
        # every column, a 4000-flow op takes 1.023/1.027/1.022/1.026 times as long.
        if unique:
            if len(set(column)) == len(column):
                continue
        elif ref is not None:
            if ids[ref].issuperset(chain.from_iterable(column) if many else column):
                continue
        elif not column or min(column) >= least:
            continue
        values = zip(_indexes(objs), column)
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


UNIT = Record("AnalysisUnit", (
    Field("id", str, required=True),
    Field("kind", UnitKind, required=True),
    Field("boundary_note", str, default=""),
    Field("is_mixed", bool, default=False),
), noun="unit")
AnalysisUnit = UNIT.cls

RECIPIENT = Record("CriticalRecipient", (
    Field("id", str, required=True),
    Field("unit_id", str, default="", ref=UNIT),
    Field("recipient_class", RecipientClass, required=True),
    Field("function_note", str, default=""),
    Field("is_specified", bool, default=False),
), noun="recipient")
CriticalRecipient = RECIPIENT.cls

PERIOD = Record("Period", (
    Field("label", str, required=True),
    Field("start", str | int),
    Field("end", str | int),
    Field("basis", PeriodBasis, required=True),
), noun="period")
Period = PERIOD.cls

# The disclosed haircut for mixed-motive flows; required whenever M-flows exist.
NUMERATOR = Record("NumeratorConfig", (
    Field("alpha", Decimal, required=True),
    Field("note", str, default=""),
))
NumeratorConfig = NUMERATOR.cls

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

DEDUCTIONS = Record("Deductions", tuple(
    Field(key, Decimal, default=Decimal(0), min=0)
    for key in ("rebates", "emissions", "wash_self_dealing")))
Deductions = DEDUCTIONS.cls

FLOW = Record("ValueFlow", (
    Field("id", str, required=True, unique=True),
    Field("amount", Decimal, required=True, min=0),
    Field("currency", str, default=""),
    Field("period_label", str, default="", ref=PERIOD),
    Field("motive", Motive, required=True),
    Field("landing", Landing, required=True),
    Field("payer_note", str, default=""),
    Field("landing_note", str, default=""),
    Field("deductions", DEDUCTIONS, default=Deductions()),
    # Coder decisions: was this flow offered toward the consumption numerator,
    # and does it form part of the recipient's incoming reward stream?
    Field("intended_numerator", bool, default=False),
    Field("pays_recipient", bool, default=False),
), noun="flow")
ValueFlow = FLOW.cls

# revocability yes = the route CAN be stopped without breaking a binding rule
CHECKS = Record("RouteChecks", tuple(
    Field(key, TriState, required=True)
    for key in ("enforceability", "beneficiary_specificity", "revocability", "auditability")))
RouteChecks = CHECKS.cls
RouteChecks.all_unknown = lambda self: all(v is TriState.UNKNOWN for v in self)

# A landing-to-recipient pathway. The routing-strength band is intentionally
# NOT a field: bands are derived by the admissibility stage and never
# accepted from input files.
ROUTE = Record("Route", (
    Field("id", str, required=True, unique=True),
    Field("flow_id", str, default="", ref=FLOW),
    Field("recipient_id", str, default="", ref=RECIPIENT),
    Field("route_kind", RouteKind, required=True),
    Field("checks", CHECKS, required=True),
    Field("escrowed_or_executed", bool, default=False),
    # Coder marked the route's existence unresolvable from captured sources.
    Field("source_gap", bool, default=False),
), refused={"band_E": "band_E is derived-only", "band_e": "band_E is derived-only"},
    noun="route")
Route = ROUTE.cls

SOURCE = Record("EvidenceSource", (
    Field("id", str, required=True, unique=True),
    Field("grade", EvidenceGrade, required=True),
    Field("capture_date", str, default=""),
    Field("locator", str, default=""),
    Field("fields_and_dates_specified", bool, default=False),
), noun="source")
EvidenceSource = SOURCE.cls

BLOCK_ROW = Record("BtcBlockRow", (
    Field("height", Height, required=True),
    Field("fees", Decimal, required=True, min=0),
    Field("subsidy", Decimal, required=True, min=0),
))
BtcBlockRow = BLOCK_ROW.cls

ETH_REWARD_ROW = Record("EthRewardRow", (
    Field("window", str, required=True),
    *(Field(key, Decimal, required=True, min=0)
      for key in ("priority_fees_to_proposer", "proposer_mev", "consensus_issuance",
                  "penalties_slashing", "base_fee_burn")),
))
EthRewardRow = ETH_REWARD_ROW.cls

FEE_ROW = Record("ProtocolFeeRow", (
    Field("period", str, required=True),
    Field("fees", Decimal, required=True),
    Field("revenue", Decimal, required=True),
))
ProtocolFeeRow = FEE_ROW.cls

DENOMINATOR = Record("RewardDenominator", (
    Field("recipient_id", str, default="", ref=RECIPIENT),
    Field("period_label", str, default="", ref=PERIOD),
    Field("status", DenominatorStatus, required=True),
    Field("value", Decimal),
    Field("bound_low", Decimal),
    Field("bound_high", Decimal),
    Field("source_ids", [str], default=(), ref=SOURCE),
))
RewardDenominator = DENOMINATOR.cls

# The combined-dict form: `case` plus one list per case file or row file.
# The case record's fields are stored on the bundle itself.
BUNDLE = Record(dict, (
    Field("case", CASE, required=True),
    Field("flows", [FLOW], default=()),
    Field("routes", [ROUTE], default=()),
    Field("sources", [SOURCE], default=()),
    Field("denominators", [DENOMINATOR], default=()),
    Field("block_rows", [BLOCK_ROW], default=()),
    Field("eth_reward_rows", [ETH_REWARD_ROW], default=()),
    Field("fee_rows", [FEE_ROW], default=()),
))


# The keys only a case file holds: the version and row files of `case.json`,
# and the `case` nesting of the combined-dict form.
FILE_ONLY_KEYS = frozenset({"schema_version", "row_files", "case"})


class CaseBundle(_named_tuple("CaseBundle", tuple(
        f for f in CASE.table + BUNDLE.table if f.key not in FILE_ONLY_KEYS))):
    """One complete coding unit: everything the pipeline needs for a case.

    Its fields are the attributes of `CASE` and then of `BUNDLE`, less
    `FILE_ONLY_KEYS`, with the defaults `_named_tuple` takes from those
    tables. A named tuple with an instance dict, which holds only the cached
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


@without_cycle_collection
def read_rows(record: Record, raw, path: str) -> tuple:
    """The records of the list `raw` at `path`, read and checked against
    `record`'s rules as a case's lists are; the first violation raises an
    `InputError` that names its path."""
    out: list[Violation] = []
    rows = record.read_list(raw, path, out)
    if not out:
        check_rules(record, rows, path + "[{}]", {}, out)
    if out:
        raise InputError(str(out[0]))
    return rows


def parse_bundle(data: dict) -> tuple[CaseBundle | None, list[Violation]]:
    """Build a CaseBundle from the combined-dict form.

    Collects violations instead of raising wherever the record remains
    structurally walkable; returns (None, violations) only when the case
    skeleton itself is unusable.
    """
    violations: list[Violation] = []
    parts = BUNDLE.read(data, "", violations)
    case = parts["case"] if parts is not None else None
    if case is not None and not case["periods"]:
        violations.append(Violation("case.periods", "at least one period is required"))
        case = None
    if case is None:
        return None, violations
    if case["analysis_period_label"] is None:
        case["analysis_period_label"] = case["periods"][0].label
    # A composite unit never receives a defaulted is_mixed.
    if case["unit"].kind is UnitKind.COMPOSITE and "is_mixed" not in data["case"]["unit"]:
        violations.append(Violation("case.unit.is_mixed",
                                    "composite units must set is_mixed explicitly"))
    parts.update(case)
    return CaseBundle._make(map(parts.__getitem__, CaseBundle._fields)), violations


def bundle_to_dict(bundle: CaseBundle) -> dict:
    """Serialize to the combined-dict form with canonical decimal rendering."""
    return {**dump_record(BUNDLE, bundle),
            "case": {"schema_version": CASE_SCHEMA_VERSION, **dump_record(CASE, bundle)}}


class Verbatim(namedtuple("Verbatim", "text")):
    """JSON text that `canonical_json` writes as is: the caller lays it out
    for the depth it is written at."""
    __slots__ = ()


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
    """Emit `obj` as indented JSON; `newline` starts a line at its depth."""
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
            emit(f"{sep}{encode_basestring(key)}: ")
            _write_json(obj[key], inner, emit)
            sep = "," + inner
        emit(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
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

# The text `datetime.fromisoformat` reads on every supported Python, as 3.10
# documents it: YYYY-MM-DD[*HH[:MM[:SS[.fff[fff]]]][+HH:MM[:SS[.ffffff]]]],
# where * is any one character. Python 3.11 reads more (20240101, 2100-W01-1).
# Hours stop at 23, so that no version reads 24:00 as the next midnight.
_INSTANT = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}(.([01][0-9]|2[0-3])"
                      r"(:[0-9]{2}(:[0-9]{2}(\.[0-9]{3}([0-9]{3})?)?)?)?"
                      r"([+-][0-9]{2}:[0-9]{2}(:[0-9]{2}(\.[0-9]{6})?)?)?)?", re.DOTALL)


def parse_instant(raw) -> datetime | None:
    """An ISO-8601 date-time in the grammar of `_INSTANT` (a Z reads as
    +00:00), or None."""
    if not isinstance(raw, str):
        return None
    text = raw.replace("Z", "+00:00")
    if not _INSTANT.fullmatch(text):
        return None
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
    for i, p in zip(_indexes(bundle.periods), bundle.periods):
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
            elif (start.tzinfo is None) != (end.tzinfo is None):
                v.append(Violation(path, "start and end must both carry a UTC offset, "
                                         "or neither"))
            elif not start < end:
                v.append(Violation(path, "start must be < end"))

    check_rules(FLOW, bundle.flows, "flows[{}]", ids, v)
    for i, f in zip(_indexes(bundle.flows), bundle.flows):
        if f.currency != bundle.currency:
            v.append(Violation(f"flows[{i}].currency",
                               f"{f.currency!r} differs from case currency {bundle.currency!r}"))
        if f.landing is Landing.OTHER and not f.landing_note:
            v.append(Violation(f"flows[{i}].landing_note",
                               "required when landing is 'other'"))

    check_rules(ROUTE, bundle.routes, "routes[{}]", ids, v)
    seen_pairs = set()
    for i, r in zip(_indexes(bundle.routes), bundle.routes):
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
    for i, d in zip(_indexes(bundle.denominators), bundle.denominators):
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

    check_rules(BLOCK_ROW, bundle.block_rows, "block_rows[{}]", ids, v)
    check_rules(ETH_REWARD_ROW, bundle.eth_reward_rows, "eth_reward_rows[{}]", ids, v)
    # Block rows must be contiguous if present, and an explicit window fit
    # them (it fits no rows at all); rows with one left out for a fault are
    # judged once all read.
    kept = type(bundle.block_rows) is _Kept
    heights = [] if kept else [r.height for r in bundle.block_rows]
    for prev, cur in zip(heights, heights[1:]):
        if cur != prev + 1:
            v.append(Violation("block_rows",
                               f"gap between heights {prev} and {cur}"))
            break
    window = bundle.feeshare_window  # 0 or absent: the default window
    if window and not kept and not 0 < window <= len(heights):
        v.append(Violation("case.feeshare_window",
                           f"must be in [1, {len(heights)}], the number of block rows"
                           if heights else "is set, but the case has no block rows"))

    # coding order step 3: mixed motives need a disclosed alpha, never a default
    config_error = (NO_ALPHA if bundle.numerator_config is None
                    and any(f.motive is Motive.MIXED for f in bundle.flows) else None)
    valid = not v and config_error is None
    return v, config_error, tuple.__new__(ValidCase, bundle) if valid else None
