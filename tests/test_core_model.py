"""Schema validation, canonical serialization, and round-trip properties."""

from __future__ import annotations

import random
from decimal import Decimal

import pytest
from helpers import CASE_NAMES, make_bundle, make_route
from hypothesis import given, settings
from hypothesis import strategies as st

from evrc.core_model import (
    CaseBundle,
    ClaimBlockReason,
    ClaimLevel,
    Deductions,
    DenominatorStatus,
    EvidenceGrade,
    GateDecision,
    Landing,
    Motive,
    PeriodBasis,
    ReasonCode,
    RecipientClass,
    Record,
    RewardDenominator,
    Route,
    RouteKind,
    TriState,
    UnitKind,
    ValueFlow,
    Violation,
    bundle_to_dict,
    canonical_decimal,
    canonical_json,
    parse_bundle,
    parse_decimal,
    validate_bundle,
)
from evrc.errors import InputError
from evrc.ingest import load_case


def test_shipped_fixtures_are_violation_free(case_dir):
    for name in CASE_NAMES:
        result = load_case(case_dir(name))
        assert result.bundle is not None, name
        assert result.violations == [], (name, result.violations)


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
    assert validate_bundle(bundle) == []
    assert validate_bundle(change(bundle)) == [Violation(path, message)]


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
    assert validate_bundle(parsed) == []


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
    violations = validate_bundle(bundle)
    assert any("at most one route" in v.message for v in violations)


def test_float_amount_is_refused():
    with pytest.raises(InputError):
        parse_decimal(1.5)
    with pytest.raises(InputError):
        parse_decimal(True)
    assert parse_decimal("1.50") == Decimal("1.5")
    assert parse_decimal(3) == Decimal(3)


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
    violations = validate_bundle(bundle)
    assert any("currency" in v.path for v in violations)


def test_measured_denominator_requires_positive_value():
    rng = random.Random(12)
    bundle = make_bundle(rng, max_flows=0)
    from evrc.core_model import RewardDenominator

    denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                              value=Decimal("0"))
    bundle = bundle._replace(denominators=(denom,))
    violations = validate_bundle(bundle)
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
        assert validate_bundle(bundle) == []


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
    assert CaseBundle in records and CaseBundle.__base__ in records
    assert len(records) == 36
    for cls in records:
        assert issubclass(cls, tuple), cls
        obj = cls._make([None] * len(cls._fields))
        with pytest.raises(AttributeError):
            setattr(obj, cls._fields[0], 1)
        with pytest.raises(AttributeError):
            obj.extra = 1
