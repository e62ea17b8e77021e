"""Schema validation, canonical serialization, and round-trip properties."""

from __future__ import annotations

import random
from decimal import Decimal
from enum import Enum

import pytest
from helpers import CASE_NAMES, all_records, make_bundle, make_route, reference_read, valid
from hypothesis import given, settings
from hypothesis import strategies as st

from evrc.core_model import (
    BtcBlockRow,
    CaseBundle,
    ClaimBlockReason,
    ClaimLevel,
    Deductions,
    DenominatorStatus,
    EvidenceGrade,
    Field,
    GateDecision,
    Landing,
    Motive,
    NumeratorConfig,
    PeriodBasis,
    ReasonCode,
    RecipientClass,
    Record,
    RewardDenominator,
    Route,
    RouteKind,
    TriState,
    UnitKind,
    ValidCase,
    ValueFlow,
    Violation,
    bundle_to_dict,
    canonical_decimal,
    canonical_json,
    parse_bundle,
    parse_decimal,
    validate_bundle,
)
from evrc.errors import GateOrderingError, InputError
from evrc.ingest import load_case
from evrc.pipeline import run_case


def test_shipped_fixtures_are_violation_free(case_dir):
    for name in CASE_NAMES:
        result = load_case(case_dir(name))
        assert result.ok and type(result.bundle) is ValidCase, name
        assert result.violations == [], (name, result.violations)
        assert result.config_error is None, name


def _two_flow_bundle() -> CaseBundle:
    """A valid bundle with flows f0 and f1, routes r0 and r1, and one source,
    s0, which the denominator cites."""
    bundle = make_bundle(random.Random(7), max_flows=0)
    flows = tuple(ValueFlow(id=f"f{i}", amount=Decimal("10"), currency="USD",
                            period_label="P1", motive=Motive.USE_ORIENTED,
                            landing=Landing.PROTOCOL) for i in range(2))
    routes = tuple(make_route(random.Random(i), flow_id=f"f{i}", route_id=f"r{i}")
                   for i in range(2))
    denominator = bundle.denominators[0]._replace(source_ids=("s0",))
    return bundle._replace(flows=flows, routes=routes, sources=bundle.sources[:1],
                   denominators=(denominator,))


def _at_flow(index: int, **changes):
    def change(b: CaseBundle) -> CaseBundle:
        flows = list(b.flows)
        flows[index] = flows[index]._replace(**changes)
        return b._replace(flows=tuple(flows))
    return change


def _at_route(index: int, **changes):
    def change(b: CaseBundle) -> CaseBundle:
        routes = list(b.routes)
        routes[index] = routes[index]._replace(**changes)
        return b._replace(routes=tuple(routes))
    return change


def _extra_denominator(recipient_id: str, period_label: str):
    def change(b: CaseBundle) -> CaseBundle:
        extra = RewardDenominator(recipient_id, period_label, DenominatorStatus.UNAVAILABLE)
        return b._replace(denominators=b.denominators + (extra,))
    return change


MINUS_ONE = Decimal(-1)

TABLE_RULES = [  # (change to a valid bundle, path, message): the field tables' rules
    (_at_flow(0, amount=MINUS_ONE), "flows[0].amount", "must be >= 0"),
    (_at_flow(1, deductions=Deductions(rebates=MINUS_ONE)),
     "flows[1].deductions.rebates", "must be >= 0"),
    (_at_flow(0, deductions=Deductions(emissions=MINUS_ONE)),
     "flows[0].deductions.emissions", "must be >= 0"),
    (_at_flow(0, deductions=Deductions(wash_self_dealing=MINUS_ONE)),
     "flows[0].deductions.wash_self_dealing", "must be >= 0"),
    (lambda b: b._replace(flows=b.flows + b.flows[:1]),
     "flows[2].id", "duplicate flow id 'f0'"),
    (_at_route(1, id="r0"), "routes[1].id", "duplicate route id 'r0'"),
    (lambda b: b._replace(sources=b.sources * 2), "sources[1].id",
     "duplicate source id 's0'"),
    (_at_flow(1, period_label="P9"), "flows[1].period_label",
     "references unknown period 'P9'"),
    (_at_route(0, flow_id="f-missing"), "routes[0].flow_id",
     "references unknown flow 'f-missing'"),
    (_at_route(1, recipient_id="w9"), "routes[1].recipient_id",
     "references unknown recipient 'w9'"),
    (_extra_denominator("w9", "P1"), "denominators[1].recipient_id",
     "references unknown recipient 'w9'"),
    (_extra_denominator("w0", "P9"), "denominators[1].period_label",
     "references unknown period 'P9'"),
    (lambda b: b._replace(denominators=(b.denominators[0]._replace(
                                            source_ids=("s0", "s9")),)),
     "denominators[0].source_ids", "references unknown source 's9'"),
    (lambda b: b._replace(recipient=b.recipient._replace(unit_id="u9")),
     "case.recipient.unit_id", "references unknown unit 'u9'"),
]


@pytest.mark.parametrize("change,path,message", TABLE_RULES,
                         ids=[rule[1] for rule in TABLE_RULES])
def test_table_rule_is_one_violation_at_its_path(change, path, message):
    bundle = _two_flow_bundle()
    assert validate_bundle(bundle)[:2] == ([], None)
    assert validate_bundle(change(bundle)) == ([Violation(path, message)], None, None)


def _numerator(alpha="0.5", note="disclosed"):
    return lambda b: b._replace(numerator_config=NumeratorConfig(Decimal(alpha), note))


def _denominator(status, **bounds):
    return lambda b: b._replace(denominators=(RewardDenominator(
        "w0", "P1", status, **{k: Decimal(v) for k, v in bounds.items()}),))


MEASURED, BOUNDED = DenominatorStatus.MEASURED, DenominatorStatus.BOUNDED
NO_VALUE = "measured denominators require value > 0"

# validate_bundle's own rules; each makes a check in a stage unreachable
CASE_RULES = {
    "alpha-below-0": (_numerator(alpha="-0.01"), "case.numerator.alpha", "must be in [0, 1]"),
    "alpha-above-1": (_numerator(alpha="1.5"), "case.numerator.alpha", "must be in [0, 1]"),
    "blank-note": (_numerator(note=" \t"), "case.numerator.note",
                   "a written justification for alpha is required"),
    "measured-zero": (_denominator(MEASURED, value=0), "denominators[0].value", NO_VALUE),
    "measured-negative": (_denominator(MEASURED, value=-1), "denominators[0].value", NO_VALUE),
    "measured-missing": (_denominator(MEASURED), "denominators[0].value", NO_VALUE),
    "bounded-no-low": (_denominator(BOUNDED, bound_high=1), "denominators[0]",
                       "bounded denominators require both bounds"),
    "bounded-no-high": (_denominator(BOUNDED, bound_low=1), "denominators[0]",
                        "bounded denominators require both bounds"),
    "bounded-inverted": (_denominator(BOUNDED, bound_low=2, bound_high=1), "denominators[0]",
                         "bound_low must be <= bound_high"),
    "bounded-zero-low": (_denominator(BOUNDED, bound_low=0, bound_high=1),
                         "denominators[0].bound_low",
                         "must be > 0 (a zero lower bound makes the ratio unbounded)"),
}


@pytest.mark.parametrize("change,path,message", CASE_RULES.values(), ids=CASE_RULES)
def test_case_rule_is_one_violation_at_its_path(change, path, message):
    bundle = _two_flow_bundle()
    assert validate_bundle(bundle)[:2] == ([], None)
    assert validate_bundle(change(bundle)) == ([Violation(path, message)], None, None)


def test_mixed_flow_without_alpha_is_the_configuration_error():
    bundle = _at_flow(0, motive=Motive.MIXED)(_two_flow_bundle())
    assert type(validate_bundle(bundle)[2]) is ValidCase
    no_alpha = bundle._replace(numerator_config=None)
    assert validate_bundle(no_alpha) == (
        [], "mixed-motive flows are present but no disclosed alpha was configured", None)
    # Violations and the configuration error are reported together.
    both = validate_bundle(_at_flow(1, currency="EUR")(no_alpha))
    assert [v.path for v in both[0]] == ["flows[1].currency"] and both[1] and both[2] is None
    # Without a mixed flow no alpha is needed.
    assert validate_bundle(_two_flow_bundle()._replace(numerator_config=None))[:2] == ([], None)


def test_violations_found_reading_the_bundle_come_first_and_refuse_it():
    read = [Violation("flows[9].motive", "invalid value")]
    violations, config_error, case = validate_bundle(_at_flow(1, currency="EUR")(
        _two_flow_bundle()), read)
    assert violations == read + [Violation("flows[1].currency",
                                           "'EUR' differs from case currency 'USD'")]
    assert (config_error, case) == (None, None)
    assert validate_bundle(_two_flow_bundle(), read) == (read, None, None)


def test_only_validation_makes_a_valid_case():
    case = valid(_two_flow_bundle())
    with pytest.raises(TypeError):
        ValidCase(*case)
    # An edited case is a plain bundle again, and run_case refuses it, as
    # compute_rcr refuses raw numbers.
    assert type(case._replace(case_id="x")) is CaseBundle
    for edited in (case._replace(), ValidCase._make(case)):
        assert type(edited) is CaseBundle and edited == case
        with pytest.raises(GateOrderingError, match="ValidCase"):
            run_case(edited)
    assert run_case(valid(case._replace())).report.to_json() == run_case(case).report.to_json()


def test_band_in_input_file_is_rejected():
    rng = random.Random(8)
    bundle = make_bundle(rng, max_flows=2)
    data = bundle_to_dict(bundle)
    data["routes"] = [{
        "id": "r0", "flow_id": "f0", "recipient_id": "w0",
        "route_kind": "protocol_enforced",
        "checks": {"enforceability": "yes", "beneficiary_specificity": "yes",
                   "revocability": "no", "auditability": "yes"},
        "band_E": "1.0",
    }]
    _, violations = parse_bundle(data)
    assert any("band_E is derived-only" in v.message for v in violations)


def test_composite_unit_requires_explicit_is_mixed():
    rng = random.Random(9)
    bundle = make_bundle(rng, max_flows=0)
    data = bundle_to_dict(bundle)
    data["case"]["unit"]["kind"] = "composite"
    del data["case"]["unit"]["is_mixed"]
    parsed, violations = parse_bundle(data)
    assert parsed is not None
    assert violations == [Violation("case.unit.is_mixed",
                                    "composite units must set is_mixed explicitly")]
    assert validate_bundle(parsed)[:2] == ([], None)
    assert validate_bundle(parsed, violations) == (violations, None, None)


def test_duplicate_route_per_flow_recipient_pair_flagged():
    rng = random.Random(10)
    bundle = make_bundle(rng, max_flows=0)
    from evrc.core_model import RouteChecks, ValueFlow

    flow = ValueFlow(id="f0", amount=Decimal("10"), currency="USD",
                     period_label="P1", motive=Motive.USE_ORIENTED,
                     landing=Landing.PROTOCOL)
    checks = RouteChecks(TriState.YES, TriState.YES, TriState.NO, TriState.YES)
    r1 = Route(id="r1", flow_id="f0", recipient_id="w0",
               route_kind=RouteKind.PROTOCOL_ENFORCED, checks=checks)
    r2 = Route(id="r2", flow_id="f0", recipient_id="w0",
               route_kind=RouteKind.GOVERNANCE_MEDIATED, checks=checks)
    bundle = bundle._replace(flows=(flow,), routes=(r1, r2))
    violations, _, _ = validate_bundle(bundle)
    assert any("at most one route" in v.message for v in violations)


def test_float_amount_is_refused():
    with pytest.raises(InputError):
        parse_decimal(1.5)
    with pytest.raises(InputError):
        parse_decimal(True)
    assert parse_decimal("1.50") == Decimal("1.5")
    assert parse_decimal(3) == Decimal(3)
    assert parse_decimal("-2.5E+3") == Decimal("-2500")


def test_each_decimal_text_is_read_once_and_a_refused_one_every_time():
    assert parse_decimal("0.25") is parse_decimal("0.25")
    assert parse_decimal("0.250") == Decimal("0.25") and str(parse_decimal("0.250")) == "0.250"
    for _ in range(2):
        with pytest.raises(InputError, match="not a finite decimal: 'NaN'"):
            parse_decimal("NaN")


# Text that `Decimal` and `int` read only by coercing it.
COERCED_NUMBERS = ["1_000", " 5 ", "5\n", "\t5", "\u0665", "\uff15", "1\u0660"]


@pytest.mark.parametrize("raw", COERCED_NUMBERS, ids=ascii)
def test_coerced_number_text_is_refused(raw):
    with pytest.raises(InputError, match="plain decimal"):
        parse_decimal(raw)
    with pytest.raises(InputError, match="block height"):
        BtcBlockRow.from_raw({"height": raw, "fees": "1", "subsidy": "1"})


@pytest.mark.parametrize("raw", ["1E+1001", "-1E-1001", 10**1001],
                         ids=["1E+1001", "-1E-1001", "int-10**1001"])
def test_decimal_beyond_the_exponent_bound_is_refused(raw):
    with pytest.raises(InputError, match="out of range"):
        parse_decimal(raw)


@pytest.mark.parametrize("raw", ["9.9E+1000", "-1E-1000", "0E-5000", 10**1000],
                         ids=["9.9E+1000", "-1E-1000", "0E-5000", "int-10**1000"])
def test_decimal_at_the_exponent_bound_is_accepted(raw):
    assert parse_decimal(raw) == Decimal(raw)


def test_currency_mismatch_flagged():
    rng = random.Random(11)
    bundle = make_bundle(rng, max_flows=1)
    while not bundle.flows:
        bundle = make_bundle(rng, max_flows=1)
    flow = bundle.flows[0]._replace(currency="EUR")
    bundle = bundle._replace(flows=(flow,))
    violations, _, _ = validate_bundle(bundle)
    assert any("currency" in v.path for v in violations)


def test_measured_denominator_requires_positive_value():
    rng = random.Random(12)
    bundle = make_bundle(rng, max_flows=0)
    from evrc.core_model import RewardDenominator

    denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                              value=Decimal("0"))
    bundle = bundle._replace(denominators=(denom,))
    violations, _, _ = validate_bundle(bundle)
    assert any("value > 0" in v.message for v in violations)


@pytest.mark.parametrize("raw,expected", [
    (Decimal("0.50"), "0.5"),
    (Decimal("100.00"), "100"),
    (Decimal("0"), "0"),
    (Decimal("1E+2"), "100"),
    (Decimal("0.740"), "0.74"),
    (Decimal("-3.10"), "-3.1"),
])
def test_canonical_decimal(raw, expected):
    assert canonical_decimal(raw) == expected


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_round_trip_parse_serialize_parse(seed):
    bundle = make_bundle(random.Random(seed))
    data = bundle_to_dict(bundle)
    reparsed, violations = parse_bundle(data)
    assert violations == []
    assert reparsed == bundle
    assert bundle_to_dict(reparsed) == data


@given(st.integers(min_value=0, max_value=2**32), st.booleans())
@settings(max_examples=50, deadline=None)
def test_route_for_flow_is_the_first_route_naming_the_flow(seed, repeat):
    rng = random.Random(seed)
    bundle = make_bundle(rng)
    if repeat and bundle.routes:
        # Never validated: routes repeat a flow_id, before or after the original.
        routes = list(bundle.routes)
        for k in range(rng.randint(1, 3)):
            twin = rng.choice(routes)
            routes.insert(rng.randrange(len(routes) + 1),
                          make_route(rng, flow_id=twin.flow_id, route_id=f"dup{k}"))
        bundle = bundle._replace(routes=tuple(routes))

    def first(b: CaseBundle, flow_id: str) -> Route | None:
        return next((r for r in b.routes if r.flow_id == flow_id), None)

    flow_ids = ({f.id for f in bundle.flows} | {r.flow_id for r in bundle.routes}
                | {"no-such-flow"})
    for fid in flow_ids:
        assert bundle.route_for_flow(fid) == first(bundle, fid)

    # The index built above is not part of the bundle's value, and a replaced
    # bundle builds its own from its own routes.
    fresh = bundle._replace()
    assert bundle == fresh
    assert bundle_to_dict(bundle) == bundle_to_dict(fresh)
    flipped = bundle._replace(routes=bundle.routes[::-1])
    for fid in flow_ids:
        assert flipped.route_for_flow(fid) == first(flipped, fid)


def _routed_bundle_dict(seed: int) -> dict:
    rng = random.Random(seed)
    bundle = make_bundle(rng)
    while not bundle.routes:
        bundle = make_bundle(rng)
    return bundle_to_dict(bundle)


STRICTNESS = [
    (["flows", 0, "id"], 7, "flows[0].id", "must be a string"),
    (["routes", 0, "checks", "auditability"], True, "routes[0].checks.auditability",
     "invalid value"),
    (["routes", 0, "band_e"], "1.0", "routes[0].band_e", "band_E is derived-only"),
    (["case", "unit", "is_mixed"], 0, "case.unit.is_mixed", "must be a boolean"),
    (["case", "unit", "colour"], "red", "case.unit.colour", "unknown field"),
    (["denominators", 0, "source_ids"], ["s0", 1], "denominators[0].source_ids[1]",
     "must be a string"),
    (["case", "recipient"], [], "case.recipient", "must be an object"),
    (["routes"], {}, "routes", "must be a list"),
]


@pytest.mark.parametrize("keys,value,field_path,message", STRICTNESS,
                         ids=[case[2] for case in STRICTNESS])
def test_wrong_type_or_unknown_key_is_a_violation_at_its_path(keys, value, field_path,
                                                              message):
    data = _routed_bundle_dict(15)
    parent = data
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    _, violations = parse_bundle(data)
    assert [v for v in violations if v.path == field_path and message in v.message], \
        violations


def test_null_means_absent_for_optional_fields():
    data = _routed_bundle_dict(16)
    data["case"]["numerator"] = None
    data["denominators"][0]["bound_high"] = None
    bundle, violations = parse_bundle(data)
    assert violations == []
    assert bundle.numerator_config is None
    assert bundle.denominators[0].bound_high is None


@pytest.mark.parametrize("enum_cls", [
    UnitKind, RecipientClass, PeriodBasis, Motive, Landing, TriState, RouteKind,
    EvidenceGrade, DenominatorStatus, GateDecision, ReasonCode, ClaimLevel,
    ClaimBlockReason,
])
def test_enum_values_round_trip(enum_cls):
    for member in enum_cls:
        assert enum_cls(member.value) is member


@given(st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=200)
def test_canonical_decimal_is_reparseable(mantissa, shift):
    value = Decimal(mantissa).scaleb(-shift)
    rendered = canonical_decimal(value)
    assert Decimal(rendered) == value
    assert "E" not in rendered and "e" not in rendered


def test_violation_str_carries_field_path():
    v = Violation(path="routes[0].flow_id", message="references unknown flow 'x'")
    assert str(v).startswith("routes[0].flow_id:")


def test_generated_bundles_are_schema_valid():
    rng = random.Random(14)
    for _ in range(100):
        bundle = make_bundle(rng)
        assert validate_bundle(bundle)[:2] == ([], None)


JSON_DOCS = st.recursive(
    st.one_of(st.none(), st.booleans(),
              st.integers(), st.integers(min_value=-10**40, max_value=10**40),
              st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f",
                                          "é\u2028\U0001F600", "\ud800", ""])),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(doc=JSON_DOCS)
def test_canonical_json_matches_json_dumps(doc):
    import json

    expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_json(doc) == expected


@pytest.mark.parametrize("value", [
    1.5, Decimal("1"), Violation("p", "m"), GateDecision.ACCEPTED, {1: "k"}, {"a", "b"}])
def test_canonical_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        canonical_json({"list": [value]})


def _record_classes():
    import enum
    import inspect

    import evrc

    modules = [getattr(evrc, name) for name in ("core_model", "coverage", "ingest", "claims",
                                                "admissibility", "numerator", "pipeline")]
    return [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__
            and not issubclass(cls, (enum.Enum, Exception)) and cls is not Record]


def test_every_record_is_an_immutable_tuple():
    records = _record_classes()
    # The bundle's named-tuple base holds its fields; it is checked with the rest.
    assert CaseBundle in records and CaseBundle.__base__ in records and ValidCase in records
    assert len(records) == 38
    for cls in records:
        assert issubclass(cls, tuple), cls
        obj = cls._make([None] * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(obj, cls._fields[0], 1)
        with pytest.raises(AttributeError):
            obj.extra = 1


# ---------------------------------------------------------------------------
# Compiled readers against the reference loop
# ---------------------------------------------------------------------------

RECORDS = all_records()
# No shipped table has one key, nor an optional nested record that can fail
# and has a default; the readers handle both.
RECORDS["one-key"] = Record(dict, (Field("x", int, required=True),))
RECORDS["optional-nested"] = Record(dict, (
    Field("inner", RECORDS["one-key"], default={"x": 0}), Field("n", int)))
_NOT_OF_ANY_FIELD = [None, True, False, 0, 1, -1, 1.5, "", "x", [], [1], {}, {"k": 1}]
_BAD_DECIMALS = ["nan", "-Infinity", "sNaN", "1E+1001", "1e", "", "x", *COERCED_NUMBERS]
_ROW_VALUES = {"int": st.one_of(st.integers(0, 10**6), st.integers(0, 10**6).map(str)),
               "Decimal": st.decimals(0, 10**6, places=3).map(str),
               "str": st.text(max_size=3)}


def _valid(spec):
    """JSON values that a field of type `spec` reads without a fault."""
    if isinstance(spec, Record):
        return _raw_record(spec, valid=True)
    if isinstance(spec, list):
        return st.lists(_valid(spec[0]), max_size=3)
    if hasattr(spec, "from_raw"):
        return st.fixed_dictionaries({name: _ROW_VALUES[getattr(kind, "__forward_arg__", kind)]
                                      for name, kind in spec.__annotations__.items()})
    if isinstance(spec, type) and issubclass(spec, Enum):
        return st.sampled_from([m.value for m in spec])
    if spec is Decimal:
        return st.one_of(st.integers(-10**6, 10**6),
                         st.decimals(-10**6, 10**6, places=3).map(str))
    return {str: st.text(max_size=3), bool: st.booleans(), int: st.integers(),
            str | int: st.one_of(st.text(max_size=3), st.integers()),
            dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
            object: st.sampled_from(_NOT_OF_ANY_FIELD[1:])}[spec]  # a null reads as absent


def _bad(spec):
    """JSON values, mostly faulty, for a field of type `spec`: wrong JSON
    types (a bool for an int and an int for a bool among them), bad enum
    values and decimals, and faults inside nested records, rows and lists."""
    plain = st.sampled_from(_NOT_OF_ANY_FIELD)
    if isinstance(spec, Record):  # mostly an object with faults inside
        return st.one_of(plain, *[_raw_record(spec, valid=False)] * 3)
    if isinstance(spec, list):
        return st.one_of(plain, st.lists(st.one_of(_valid(spec[0]), _bad(spec[0])),
                                         min_size=1, max_size=3))
    if hasattr(spec, "from_raw"):
        fields = list(spec._fields)
        return st.one_of(plain, st.builds(
            lambda row, key, value: {**row, key: value} if value is not None else
            {k: v for k, v in row.items() if k != key},
            _valid(spec), st.sampled_from(fields),
            st.sampled_from([None, "-1", "x", *_BAD_DECIMALS])))
    if isinstance(spec, type) and issubclass(spec, Enum):
        return st.one_of(plain, st.sampled_from(
            ["nope", *(m.value.upper() + "!" for m in spec), *(m.name for m in spec)]))
    if spec is Decimal:
        return st.one_of(plain, st.sampled_from(_BAD_DECIMALS))
    return plain


@st.composite
def _raw_record(draw, record, valid):
    """A JSON object for `record`; when not `valid`, fields may be null or
    faulty and unknown or refused keys may appear, in any order. Either
    every field is present, or each non-required one may be absent."""
    raw = {}
    choices = ("valid",) if valid else ("valid", "valid", "null", "bad")
    if not draw(st.booleans(), label="complete"):
        choices += ("absent",)
    for f in record.table:
        how = "valid" if valid and f.required else draw(st.sampled_from(choices))
        if how != "absent":
            raw[f.key] = (draw(_valid(f.type)) if how == "valid" else
                          None if how == "null" else draw(_bad(f.type)))
    if not valid:
        for key in draw(st.lists(st.sampled_from(("zz", *record.refused)),
                                 max_size=2, unique=True)):
            raw[key] = draw(st.sampled_from(_NOT_OF_ANY_FIELD))
    return dict(draw(st.permutations(list(raw.items()))))


def _outcome(read, raw, path):
    out = []
    try:
        result = read(raw, path, out)
    except InputError as exc:  # a row record raises rather than collects
        return "raised", str(exc), out
    return repr(result), out


@pytest.mark.parametrize("name", RECORDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data(), path=st.sampled_from(["", "case", "flows[3]"]))
def test_compiled_reader_matches_the_reference_loop(name, data, path):
    record = RECORDS[name]
    how = data.draw(st.sampled_from(["valid", "faulty", "faulty", "any value"]))
    raw = data.draw(st.sampled_from(_NOT_OF_ANY_FIELD) if how == "any value" else
                    _raw_record(record, valid=how == "valid"), label="raw")
    got = _outcome(record.read, raw, path)
    assert got == _outcome(lambda *args: reference_read(record, *args), raw, path)
    if how == "valid":
        assert got[-1] == [] and got[0] not in ("None", "raised")
