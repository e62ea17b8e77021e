"""Schema validation, canonical serialization, and round-trip properties."""

from __future__ import annotations

import random
from collections import defaultdict
from decimal import Decimal
from enum import Enum

import pytest
from helpers import CASE_NAMES, all_records, make_bundle, make_route, reference_read, valid
from hypothesis import given, settings
from hypothesis import strategies as st

from evrc import core_model
from evrc.core_model import (
    BLOCK_ROW,
    FEE_ROW,
    FLOW,
    SOURCE,
    CaseBundle,
    ClaimBlockReason,
    ClaimLevel,
    Deductions,
    DenominatorStatus,
    EvidenceGrade,
    Field,
    GateDecision,
    Height,
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
    parse_height,
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


def test_each_decimal_text_of_a_column_is_read_once_and_a_refused_one_every_time():
    out = []
    rows = FEE_ROW.read_list([{"period": "p", "fees": "0.25", "revenue": "0.250"}] * 3,
                             "fee_rows", out)
    assert out == [] and len({id(r.fees) for r in rows}) == 1
    assert rows[0].fees == rows[0].revenue and str(rows[0].revenue) == "0.250"
    for _ in range(2):
        with pytest.raises(InputError, match="not a finite decimal: 'NaN'"):
            parse_decimal("NaN")


def test_rule_violations_come_in_item_order_then_table_order():
    def flow(flow_id, amount="1", period="P1", rebates="0"):
        return ValueFlow(id=flow_id, amount=Decimal(amount), currency="USD",
                         period_label=period, motive=Motive.USE_ORIENTED,
                         landing=Landing.PROTOCOL, deductions=Deductions(Decimal(rebates)))
    ids = {core_model.PERIOD: {"P1"}}
    out = []
    core_model.check_rules(FLOW, [flow("f0"), flow("f1")], "flows[{}]", ids, out)
    assert out == []
    flows = [flow("f0", period="P9"), flow("f1", amount="-1"),
             flow("f0", amount="-2", rebates="-1"), flow("f1")]
    core_model.check_rules(FLOW, flows, "flows[{}]", ids, out)
    assert out == [Violation("flows[0].period_label", "references unknown period 'P9'"),
                   Violation("flows[1].amount", "must be >= 0"),
                   Violation("flows[2].id", "duplicate flow id 'f0'"),
                   Violation("flows[2].amount", "must be >= 0"),
                   Violation("flows[2].deductions.rebates", "must be >= 0"),
                   Violation("flows[3].id", "duplicate flow id 'f1'")]


# Per text-read field type: a record, its field, the scalar parser, the
# record's other fields, and texts that a column may mix (refused ones, and
# decimals read at and inside the exponent bound).
COLUMNS = {
    "decimal": (FEE_ROW, "fees", parse_decimal, {"period": "p", "revenue": "1"},
                ["1_0", " 5", "\u0665", "NaN", "-Infinity", "", ".", "1e", "--1", "1e1001",
                 "9" * 1002, "9" * 1001, "1e1000", "0", "0E-5000", "1.50", "-2.5E+3", "+7"]),
    "enum": (SOURCE, "grade", core_model._enum(EvidenceGrade), {"id": "s"},
             ["G1", "G2", "G3", "g1", "G4", "", " G1", "G1 "]),
    "height": (BLOCK_ROW, "height", parse_height, {"fees": "1", "subsidy": "1"},
               ["0", "7", "839928", "007", "9" * 30, "9" * 4301, "-1", "+1", "1.0", "1e3",
                "", " 5", "\u0665"]),
}


@pytest.mark.parametrize("kind", COLUMNS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_column_reads_as_its_texts_read_one_by_one(kind, data):
    record, key, parse, rest, choices = COLUMNS[kind]
    texts = data.draw(st.lists(st.sampled_from(choices), max_size=8))
    raw = [{**rest, key: text} for text in texts]
    expected = []
    records = [record.read(x, f"rows[{i}]", expected) for i, x in enumerate(raw)]
    out = []
    assert (repr(record.read_list(raw, "rows", out)), out) == (
        repr(tuple(r for r in records if r is not None)), expected)
    # The column reader refuses exactly the columns holding a refused text.
    column = core_model._column(parse)(texts)
    assert (column is None) == bool(expected)
    if column is not None:
        assert repr(column) == repr([parse(text) for text in texts])


def test_a_column_parses_each_distinct_text_once_in_order():
    calls = []
    column = core_model._column(lambda text: calls.append(text) or int(text))
    assert column(["3", "1", "2"]) == [3, 1, 2] and calls == ["3", "1", "2"]
    calls.clear()
    assert column(["3", "1", "3", "2"]) == [3, 1, 3, 2] and calls == ["3", "1", "2"]


# Text that `Decimal` and `int` read only by coercing it.
COERCED_NUMBERS = ["1_000", " 5 ", "5\n", "\t5", "\u0665", "\uff15", "1\u0660"]


@pytest.mark.parametrize("raw", COERCED_NUMBERS, ids=ascii)
def test_coerced_number_text_is_refused(raw):
    with pytest.raises(InputError, match="plain decimal"):
        parse_decimal(raw)
    out = []
    assert BLOCK_ROW.read({"height": raw, "fees": "1", "subsidy": "1"}, "row", out) is None
    assert out == [Violation("row.height", f"block height must be an integer, got {raw!r}")]


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


@pytest.mark.parametrize("data,message", [({}, "required field missing"),
                                          ({"case": 5}, "must be an object")])
def test_a_bundle_without_a_case_object_is_refused_by_its_read(data, message):
    assert parse_bundle(data) == (None, [Violation("case", message)])


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
            and not issubclass(cls, (enum.Enum, Exception))
            and cls not in (Record, core_model._Kept)]  # a table; a list read with holes


def test_every_record_is_an_immutable_tuple():
    records = _record_classes()
    # The bundle's named-tuple base is made from the tables and named by no module.
    assert CaseBundle in records and ValidCase in records
    assert len(records) == 38  # `OutcomeShape` included
    for cls in records:
        assert issubclass(cls, tuple), cls
        obj = cls._make([None] * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(obj, cls._fields[0], 1)
        with pytest.raises(AttributeError):
            obj.extra = 1


TABLE_RECORDS = [r for r in vars(core_model).values() if isinstance(r, Record) and r.cls is not dict]


def _defaults(table) -> dict:
    """The table defaults of the trailing fields of `table` that are not required."""
    trailing = []
    for f in reversed(table):
        if f.required:
            break
        trailing.insert(0, f)
    return {f.attr or f.key: f.default for f in trailing}


def test_each_table_makes_its_named_tuple():
    assert len(TABLE_RECORDS) == 13
    for record in TABLE_RECORDS:
        cls = record.cls
        assert cls._fields == tuple(f.attr or f.key for f in record.table), cls
        assert cls._field_defaults == _defaults(record.table), cls
        assert cls.__module__ == "evrc.core_model"
        assert getattr(core_model, cls.__name__) is cls
    # Constructors that a table's defaults widened; each read still passes every value.
    assert core_model.AnalysisUnit("u", UnitKind.APP) == ("u", UnitKind.APP, "", False)
    assert core_model.EvidenceSource("s", EvidenceGrade.G1) == ("s", EvidenceGrade.G1, "", "",
                                                                 False)


def test_the_case_and_bundle_tables_make_the_case_bundle():
    # What the bundle stores: every field of both tables but the keys only a case file holds.
    stored = tuple(f for f in core_model.CASE.table + core_model.BUNDLE.table
                   if f.key not in {"schema_version", "row_files", "case"})
    for cls in (CaseBundle, ValidCase):
        assert cls._fields == tuple(f.attr or f.key for f in stored)
        assert cls._field_defaults == _defaults(stored)


def test_routes_read_from_shipped_cases_answer_all_unknown(case_dir):
    routes = [r for name in CASE_NAMES for r in load_case(case_dir(name)).bundle.routes]
    assert routes and all(type(r) is Route for r in routes)
    answers = [r.checks.all_unknown() for r in routes]
    assert answers == [set(r.checks) == {TriState.UNKNOWN} for r in routes]
    assert set(answers) == {True, False}


# ---------------------------------------------------------------------------
# Reads against the reference loop
# ---------------------------------------------------------------------------

RECORDS = all_records()
# No shipped table has one key, nor an optional nested record that can fail
# and has a default; the reads handle both.
RECORDS["one-key"] = Record(dict, (Field("x", int, required=True),))
RECORDS["optional-nested"] = Record(dict, (
    Field("inner", RECORDS["one-key"], default={"x": 0}), Field("n", int)))
_NOT_OF_ANY_FIELD = [None, True, False, 0, 1, -1, 1.5, "", "x", [], [1], {}, {"k": 1}]
_BAD_DECIMALS = ["nan", "-Infinity", "sNaN", "1E+1001", "1e", "", "x", *COERCED_NUMBERS]


def _valid(spec):
    """JSON values that a field of type `spec` reads without a fault."""
    if isinstance(spec, Record):
        return _raw_record(spec, valid=True)
    if isinstance(spec, list):
        return st.lists(_valid(spec[0]), max_size=3)
    if isinstance(spec, type) and issubclass(spec, Enum):
        return st.sampled_from([m.value for m in spec])
    if spec is Decimal:
        return st.one_of(st.integers(-10**6, 10**6),
                         st.decimals(-10**6, 10**6, places=3).map(str))
    return {str: st.text(max_size=3), bool: st.booleans(), int: st.integers(),
            str | int: st.one_of(st.text(max_size=3), st.integers()),
            Height: st.one_of(st.integers(), st.integers(0, 10**6).map(str)),
            dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
            object: st.sampled_from(_NOT_OF_ANY_FIELD[1:])}[spec]  # a null reads as absent


def _bad(spec):
    """JSON values, mostly faulty, for a field of type `spec`: wrong JSON
    types (a bool for an int and an int for a bool among them), bad enum
    values, decimals and block heights, and faults inside nested records and
    lists."""
    plain = st.sampled_from(_NOT_OF_ANY_FIELD)
    if isinstance(spec, Record):  # mostly an object with faults inside
        return st.one_of(plain, *[_raw_record(spec, valid=False)] * 3)
    if isinstance(spec, list):
        return st.one_of(plain, st.lists(st.one_of(_valid(spec[0]), _bad(spec[0])),
                                         min_size=1, max_size=3))
    if isinstance(spec, type) and issubclass(spec, Enum):
        return st.one_of(plain, st.sampled_from(
            ["nope", *(m.value.upper() + "!" for m in spec), *(m.name for m in spec)]))
    if spec is Decimal:
        return st.one_of(plain, st.sampled_from(_BAD_DECIMALS))
    if spec is Height:
        return st.one_of(plain, st.sampled_from(["-1", "+1", "1.0", "9" * 5000, *_BAD_DECIMALS]))
    return plain


@st.composite
def _raw_record(draw, record, valid, complete=None):
    """A JSON object for `record`; when not `valid`, fields may be null or
    faulty and unknown or refused keys may appear, in any order. Either
    every field is present, or each non-required one may be absent; which
    one is drawn unless `complete` says."""
    raw = {}
    choices = ("valid",) if valid else ("valid", "valid", "null", "bad")
    if not (draw(st.booleans(), label="complete") if complete is None else complete):
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
    return repr(read(raw, path, out)), out


@pytest.mark.parametrize("name", RECORDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data(), path=st.sampled_from(["", "case", "flows[3]"]))
def test_compiled_reader_matches_the_reference_loop(name, data, path):
    # The per-record read, `Record.read`, of every table. (The name is that of
    # the test's first subject, kept so that its record in the suite carries on.)
    record = RECORDS[name]
    how = data.draw(st.sampled_from(["valid", "faulty", "faulty", "any value"]))
    raw = data.draw(st.sampled_from(_NOT_OF_ANY_FIELD) if how == "any value" else
                    _raw_record(record, valid=how == "valid"), label="raw")
    got = _outcome(record.read, raw, path)
    assert got == _outcome(lambda *args: reference_read(record, *args), raw, path)
    if how == "valid":
        assert got[-1] == [] and got[0] != "None"


def _without_a_key(record):
    """A valid object for `record` lacking one of its non-required keys (none
    for a table without one)."""
    optional = [f.key for f in record.table if not f.required]
    if not optional:
        return st.nothing()
    return st.builds(lambda raw, key: {k: v for k, v in raw.items() if k != key},
                     _raw_record(record, valid=True), st.sampled_from(optional))


def _with_unknown_key(record):
    return st.builds(lambda raw, key: {**raw, key: 1},
                     _raw_record(record, valid=True), st.sampled_from(("zz", *record.refused)))


def _with_one_fault(record):
    """A valid object for `record` with one field's value mostly faulty."""
    return st.builds(lambda raw, field: {**raw, field[0]: field[1]},
                     _raw_record(record, valid=True, complete=True),
                     st.sampled_from(record.table).flatmap(
                         lambda f: st.tuples(st.just(f.key), _bad(f.type))))


def _csv_row(record, faulty=False):
    """A row as a CSV file gives it, every cell text; a `faulty` one has
    one cell that its column cannot read."""
    good = {Decimal: st.decimals(-10**6, 10**6, places=3).map(str),
            Height: st.integers(0, 10**6).map(str), str: st.text(max_size=3)}
    bad = {Decimal: st.sampled_from(_BAD_DECIMALS),
           Height: st.sampled_from(["-1", "+1", "1.0", "x", "", "9" * 5000])}
    row = st.fixed_dictionaries({f.key: good[f.type] for f in record.table})
    if not faulty:
        return row
    return st.builds(lambda row, field: {**row, field[0]: field[1]}, row,
                     st.sampled_from([f for f in record.table if f.type in bad]).flatmap(
                         lambda f: st.tuples(st.just(f.key), bad[f.type])))


ROW_TABLES = ["BLOCK_ROW", "ETH_REWARD_ROW", "FEE_ROW"]


# The tables read as list items, and a table with an optional nested record.
@pytest.mark.parametrize("name", ["FLOW", "ROUTE", "SOURCE", "DENOMINATOR", "PERIOD",
                                  "ROW_FILE", *ROW_TABLES, "optional-nested"])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), path=st.sampled_from(["flows", "case.periods"]))
def test_list_read_column_by_column_matches_the_reference_loop(name, data, path):
    # A list of records is read a field at a time over all its items, in one
    # pass, by `_read_items`: its records and violations are those of
    # reading each item at its own path, and each item's faults are its own.
    record = RECORDS[name]
    hows = ["every key", "one fault", "any items"]
    if not all(f.required for f in record.table):
        hows.append("a key missing")
    how = data.draw(st.sampled_from(hows + ["csv", "csv, one fault"] if name in ROW_TABLES
                                    else hows))
    complete = _raw_record(record, valid=True, complete=True)
    csv_rows = _csv_row(record) if name in ROW_TABLES else None
    item = {"csv": csv_rows, "csv, one fault": csv_rows,
            "a key missing": st.one_of(complete, _without_a_key(record)),
            "any items": st.one_of(complete, _without_a_key(record),
                                   _raw_record(record, valid=False), _with_one_fault(record),
                                   _with_unknown_key(record),
                                   st.sampled_from(_NOT_OF_ANY_FIELD))}.get(how, complete)
    raw = data.draw(st.lists(item, max_size=4), label="raw")
    extra = {"a key missing": _without_a_key(record), "one fault": _with_one_fault(record),
             "csv, one fault": _csv_row(record, faulty=True) if csv_rows is not None else None}
    if how in extra:
        raw.insert(data.draw(st.integers(0, len(raw))), data.draw(extra[how]))
    per_item = [[] for _ in raw]
    records = [reference_read(record, x, f"{path}[{i}]", per_item[i]) for i, x in enumerate(raw)]
    expected = [v for faults in per_item for v in faults]
    read_list = core_model._codec([record])[1]
    assert _outcome(read_list, raw, path) == (
        repr(tuple(r for r in records if r is not None)), expected)
    faults = defaultdict(list)
    got, failed = core_model._read_items(record, raw, lambda i: f"{path}[{i}]", faults)
    assert (repr(list(got)), failed, [faults[i] for i in range(len(raw))]) == (
        repr(records), {i for i, r in enumerate(records) if r is None}, per_item)
    if how in ("every key", "a key missing", "csv"):
        assert expected == [] and not failed


def test_a_fault_reads_only_its_column_value_by_value(monkeypatch):
    # One bad amount in a list of 50 flows: the amount column, which its
    # reader refuses, is read value by value; no other field is read again.
    flows = [ValueFlow(id=f"f{i}", amount=Decimal(i), currency="USD", period_label="P1",
                       motive=Motive.USE_ORIENTED, landing=Landing.PROTOCOL,
                       deductions=Deductions(Decimal(1))) for i in range(50)]
    raw = [core_model.dump_record(FLOW, flow) for flow in flows]
    raw[17]["amount"] = "1_0"
    calls = []
    read_field = core_model._read_field
    monkeypatch.setattr(core_model, "_read_field",
                        lambda *args: calls.append(args) or read_field(*args))
    out = []
    rows = FLOW.read_list(raw, "flows", out)
    assert out == [Violation("flows[17].amount", "not a plain decimal (no underscores, "
                                                 "surrounding spaces or non-ASCII digits): '1_0'")]
    assert list(rows) == flows[:17] + flows[18:] and rows.at == [*range(17), *range(18, 50)]
    assert len(calls) <= len(raw)


def test_a_nested_column_with_absent_values_reads_its_objects_as_one_list(monkeypatch):
    # Every other flow omits `deductions`: the column's objects are read by one
    # nested `_read_items`, each fault at its own path, and only the absent
    # values by themselves.
    flows = [ValueFlow(id=f"f{i}", amount=Decimal(i), currency="USD", period_label="P1",
                       motive=Motive.USE_ORIENTED, landing=Landing.PROTOCOL,
                       deductions=Deductions(Decimal(i % 3))) for i in range(50)]
    raw = [core_model.dump_record(FLOW, flow) for flow in flows]
    for item in raw[1::2]:
        del item["deductions"]
    raw[4]["deductions"]["rebates"] = "1_0"
    calls = []
    read_items = core_model._read_items
    monkeypatch.setattr(core_model, "_read_items", lambda record, items, *args: calls.append(
        (record, len(items))) or read_items(record, items, *args))
    out = []
    rows = FLOW.read_list(raw, "flows", out)
    assert calls == [(FLOW, 50), (core_model.DEDUCTIONS, 25)]
    assert out == [Violation("flows[4].deductions.rebates", "not a plain decimal (no underscores, "
                                                            "surrounding spaces or non-ASCII "
                                                            "digits): '1_0'")]
    expected = [flow._replace(deductions=Deductions()) if i % 2 or i == 4 else flow
                for i, flow in enumerate(flows)]
    assert rows == tuple(expected)
    reference = []
    assert [reference_read(FLOW, x, f"flows[{i}]", reference) for i, x in enumerate(raw)] == expected
    assert reference == out
