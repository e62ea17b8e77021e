"""Evidence grading, claim gates, golden fixture verdicts, and rendering."""

from __future__ import annotations

import json
import random
from decimal import Decimal

import pytest
from helpers import CASE_NAMES, make_bundle, reference_document, reference_text, valid

from evrc import claims
from evrc.claims import ClaimTemplate, TEMPLATE_LEVELS, gate_claim, grade_evidence
from evrc.core_model import ClaimLevel, EvidenceGrade, EvidenceSource, canonical_json
from evrc.errors import InputError
from evrc.ingest import load_case
from evrc.pipeline import run_case


def src(grade, fields=True, sid="s"):
    return EvidenceSource(id=sid, grade=grade, capture_date="2025-01-01T00:00:00+00:00",
                          locator="x", fields_and_dates_specified=fields)


class TestGradeEvidence:
    def test_media_only_insufficient_at_every_level(self):
        sources = [src(EvidenceGrade.G3, sid="a"), src(EvidenceGrade.G3, sid="b")]
        for level in ClaimLevel:
            assert grade_evidence(sources, level) is False

    def test_single_g1_sufficient_for_final_closure(self):
        assert grade_evidence([src(EvidenceGrade.G1)], ClaimLevel.FINAL_CLOSURE)

    def test_g2_without_fields_insufficient_for_bounded_numeric(self):
        sources = [src(EvidenceGrade.G2, fields=False)]
        assert grade_evidence(sources, ClaimLevel.MECHANISM) is True
        assert grade_evidence(sources, ClaimLevel.BOUNDED_NUMERIC) is False

    def test_g2_with_fields_sufficient_for_bounded_but_not_final(self):
        sources = [src(EvidenceGrade.G2, fields=True)]
        assert grade_evidence(sources, ClaimLevel.BOUNDED_NUMERIC) is True
        assert grade_evidence(sources, ClaimLevel.FINAL_CLOSURE) is False

    def test_empty_sources_insufficient(self):
        for level in ClaimLevel:
            assert grade_evidence([], level) is False


def _verdicts(case_path):
    result = run_case(load_case(case_path).bundle)
    return {v.template: v for v in result.verdicts}, result


class TestGateClaim:
    def test_steem_final_rcr_blocked_with_exact_reasons(self, case_dir):
        verdicts, _ = _verdicts(case_dir("steem"))
        v = verdicts[ClaimTemplate.FINAL_RCR]
        assert not v.allowed
        assert [r.value for r in v.blocking_reasons] == [
            "no_accepted_route", "denominator_unavailable"]

    def test_steem_no_revenue_blocked(self, case_dir):
        verdicts, _ = _verdicts(case_dir("steem"))
        assert not verdicts[ClaimTemplate.NO_REVENUE].allowed

    def test_bitcoin_mechanism_allowed(self, case_dir):
        verdicts, _ = _verdicts(case_dir("bitcoin"))
        assert verdicts[ClaimTemplate.MECHANISM_ROUTE_EXISTS].allowed

    def test_unknown_template_is_input_error(self, case_dir):
        result = run_case(load_case(case_dir("bitcoin")).bundle)
        with pytest.raises(InputError):
            gate_claim("CENTRALIZATION_FAIRER", result.bundle, result.outcomes,
                       result.coverage, result.breakpoints)

    def test_claim_level_gates_are_nested(self):
        # If the final-closure level passes, mechanism and bounded pass too.
        from evrc.claims import _level_blockers

        rng = random.Random(41)
        for _ in range(200):
            bundle = make_bundle(rng)
            result = run_case(bundle)
            final = _level_blockers(ClaimLevel.FINAL_CLOSURE, bundle,
                                    result.outcomes, result.coverage)
            bounded = _level_blockers(ClaimLevel.BOUNDED_NUMERIC, bundle,
                                      result.outcomes, result.coverage)
            mech = _level_blockers(ClaimLevel.MECHANISM, bundle,
                                   result.outcomes, result.coverage)
            if not final:
                assert not bounded and not mech
            if not bounded:
                assert not mech


# Expected verdicts per shipped case: template -> allowed | list of reasons.
GOLDEN = {
    "youtube": {
        "breakpoints": [],
        "MECHANISM_ROUTE_EXISTS": True,
        "BOUNDED_FEE_SHARE": True,
        "NO_ROUTE_IN_CAPTURED_SOURCES": ["accepted_route_present"],
        "FINAL_RCR": ["evidence_grade_insufficient", "revocable_route_downgrade"],
        "NO_REVENUE": ["source_coverage_gap", "landing_activity_recorded"],
        "pooled_capture_baseline": True,
    },
    "steem": {
        "breakpoints": ["B2", "B4"],
        "MECHANISM_ROUTE_EXISTS": ["no_accepted_route"],
        "BOUNDED_FEE_SHARE": ["no_accepted_route"],
        "NO_ROUTE_IN_CAPTURED_SOURCES": True,
        "FINAL_RCR": ["no_accepted_route", "denominator_unavailable"],
        "FINAL_NCD": ["undefined_metric"],
        "HISTORICAL_ROUTE_NULL": ["source_coverage_gap"],
        "NO_REVENUE": ["source_coverage_gap", "landing_activity_recorded"],
        "EXTERNALLY_FUNDED_REWARDS": ["no_accepted_route",
                                      "denominator_unavailable", "b4_dependence"],
    },
    "bitcoin": {
        "breakpoints": [],
        "MECHANISM_ROUTE_EXISTS": True,
        "BOUNDED_FEE_SHARE": True,
        "FINAL_RCR": ["evidence_grade_insufficient"],
        "FINAL_NCD": ["undefined_metric"],
        "STABLE_FEE_REPLACEMENT": ["source_coverage_gap"],
        "NO_REVENUE": ["source_coverage_gap"],
    },
    "ethereum": {
        "breakpoints": [],
        "MECHANISM_ROUTE_EXISTS": True,
        "BOUNDED_FEE_SHARE": True,
        "FINAL_RCR": ["evidence_grade_insufficient", "denominator_unavailable",
                      "revocable_route_downgrade"],
        "BURN_AS_COVERAGE": ["b3_burn_confusion"],
    },
    "aave": {
        "breakpoints": [],
        "MECHANISM_ROUTE_EXISTS": True,
        "BOUNDED_FEE_SHARE": True,
        "FINAL_RCR": ["evidence_grade_insufficient", "revocable_route_downgrade"],
    },
    "filecoin": {
        "breakpoints": ["B4"],
        "MECHANISM_ROUTE_EXISTS": True,
        "BOUNDED_FEE_SHARE": ["no_accepted_route"],
        "NO_ROUTE_IN_CAPTURED_SOURCES": True,
        "FINAL_RCR": ["no_accepted_route", "denominator_unavailable"],
        "EXTERNALLY_FUNDED_REWARDS": ["no_accepted_route",
                                      "denominator_unavailable", "b4_dependence"],
    },
    "usdc": {
        "breakpoints": [],
        "MECHANISM_ROUTE_EXISTS": True,
        "BOUNDED_FEE_SHARE": True,
        "FINAL_RCR": ["revocable_route_downgrade"],
        "CROSS_RECIPIENT_COVERAGE": ["recipient_unspecified"],
    },
    "xrp": {
        "breakpoints": ["B3"],
        "MECHANISM_ROUTE_EXISTS": ["no_accepted_route"],
        "NO_ROUTE_IN_CAPTURED_SOURCES": True,
        "FINAL_RCR": ["no_accepted_route", "denominator_unavailable"],
        "BURN_AS_COVERAGE": ["b3_burn_confusion"],
    },
}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_golden_fixture_verdicts(name, case_dir):
    verdicts, result = _verdicts(case_dir(name))
    expected = GOLDEN[name]
    assert [b.code.value for b in result.breakpoints] == expected["breakpoints"]
    for key, want in expected.items():
        if key in ("breakpoints", "pooled_capture_baseline"):
            continue
        v = verdicts[ClaimTemplate(key)]
        if want is True:
            assert v.allowed, (name, key, v.blocking_reasons)
        else:
            assert not v.allowed, (name, key)
            assert [r.value for r in v.blocking_reasons] == want, (name, key)
    if "pooled_capture_baseline" in expected:
        flags = result.report.document["flags"]
        assert flags["pooled_capture_baseline"] is expected["pooled_capture_baseline"]


class TestRenderReport:
    def test_report_is_byte_stable(self, case_dir):
        for name in CASE_NAMES:
            bundle = load_case(case_dir(name)).bundle
            a = run_case(bundle).report.to_json()
            b = run_case(bundle).report.to_json()
            assert a == b

    def test_outcome_documents_share_no_list(self):
        rng = random.Random(11)
        doc = run_case(make_bundle(rng, max_flows=40)).report.document
        lists = [value for o in doc["gate_outcomes"] for value in o.values()
                 if isinstance(value, list)]
        # Equal lists abound (reason codes and band rules repeat), yet each
        # document holds its own.
        assert len({tuple(value) for value in lists}) < len(lists)
        assert any("band_rules" in o for o in doc["gate_outcomes"])
        assert len({id(value) for value in lists}) == len(lists)

    def test_blocked_final_claim_has_no_numeric_rcr(self, case_dir):
        # Bitcoin's ratio is computable internally but the final claim is
        # blocked, so the report must withhold the number.
        result = run_case(load_case(case_dir("bitcoin")).bundle)
        rcr = result.report.document["coverage"]["rcr"]
        assert rcr["status"] == "blocked"
        assert "value" not in rcr and "interval_low" not in rcr

    def test_every_numeric_figure_carries_grade_and_period(self, case_dir):
        doc = run_case(load_case(case_dir("aave")).bundle).report.document
        cov = doc["coverage"]
        for figure in (cov["rav_weighted"], cov["rav_unweighted"],
                       doc["numerator_guardrail"]["net_external_value"]):
            assert set(figure) == {"value", "evidence_grade", "period"}
            assert figure["period"] == doc["period"]["label"]

    def test_b4_threshold_echoed_in_every_report(self, case_dir):
        for name in CASE_NAMES:
            doc = run_case(load_case(case_dir(name)).bundle).report.document
            assert doc["b4_dominance_threshold"] == "0.5"

    def test_xrp_report_carries_b3_and_blocked_burn_claim(self, case_dir):
        doc = run_case(load_case(case_dir("xrp")).bundle).report.document
        assert [b["code"] for b in doc["breakpoints"]] == ["B3"]
        burn = next(c for c in doc["claims"] if c["template"] == "BURN_AS_COVERAGE")
        assert burn["allowed"] is False
        assert burn["blocking_reasons"] == ["b3_burn_confusion"]

    def test_usdc_host_chain_coverage_blocked(self, case_dir):
        doc = run_case(load_case(case_dir("usdc")).bundle).report.document
        cross = next(c for c in doc["claims"]
                     if c["template"] == "CROSS_RECIPIENT_COVERAGE")
        assert cross["allowed"] is False

    def test_report_json_parses_and_is_versioned(self, case_dir):
        raw = run_case(load_case(case_dir("steem")).bundle).report.to_json()
        doc = json.loads(raw)
        assert doc["schema_version"] == "evrc-report/1"

    def test_allowed_final_claim_reports_numeric_rcr(self):
        # A synthetic case where every final gate passes: the ratio
        # is reported, with value, grade and period.
        from evrc.core_model import (AnalysisUnit, CriticalRecipient,
                                     DenominatorStatus, Landing, Motive,
                                     RecipientClass, RewardDenominator, Route,
                                     RouteChecks, RouteKind, TriState, UnitKind,
                                     ValueFlow)

        rng = random.Random(42)
        bundle = make_bundle(rng, max_flows=0)
        unit = AnalysisUnit(id="u0", kind=UnitKind.CHAIN, boundary_note="",
                            is_mixed=False)
        recipient = CriticalRecipient(id="w0", unit_id="u0",
                                      recipient_class=RecipientClass.MINERS,
                                      function_note="", is_specified=True)
        flow = ValueFlow(id="f0", amount=Decimal("100"), currency="USD",
                         period_label="P1", motive=Motive.USE_ORIENTED,
                         landing=Landing.PROTOCOL)
        route = Route(id="r0", flow_id="f0", recipient_id="w0",
                      route_kind=RouteKind.PROTOCOL_ENFORCED,
                      checks=RouteChecks(TriState.YES, TriState.YES,
                                         TriState.NO, TriState.YES))
        denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                                  value=Decimal("200"))
        bundle = valid(bundle._replace(
            unit=unit, recipient=recipient,
            flows=(flow,), routes=(route,), denominators=(denom,),
            sources=(src(EvidenceGrade.G1, sid="g1"),)))
        result = run_case(bundle)
        final = next(v for v in result.verdicts
                     if v.template is ClaimTemplate.FINAL_RCR)
        assert final.allowed, final.blocking_reasons
        rcr = result.report.document["coverage"]["rcr"]
        assert rcr["status"] == "reported"
        assert rcr["value"] == "0.5"

    def test_template_levels_cover_every_template(self):
        assert set(TEMPLATE_LEVELS) == set(ClaimTemplate)


# Text that JSON escapes, or writes as is where an escaping bug would show:
# quotes, backslashes, control characters, U+2028, non-ASCII text and the
# markers of Python's format strings.
ODD_ID_PARTS = ['"', "\\", "\x00", "\n", "\x1f", "\u2028", "é", "流", "%", "%s", "{}", "{0}"]


def _with_odd_ids(bundle, rng: random.Random, empty_route_id: bool = True):
    """`bundle` validated again, its flow and route ids made of `ODD_ID_PARTS`;
    if `empty_route_id`, now and then one route id is empty, which a report
    writes without band rules."""
    def odd(prefix: str, i: int) -> str:
        return "".join(rng.choices(ODD_ID_PARTS, k=rng.randint(1, 4))) + f"{prefix}{i}"

    flow_ids = {f.id: odd("f", i) for i, f in enumerate(bundle.flows)}
    route_ids = [odd("r", i) for i in range(len(bundle.routes))]
    if route_ids and empty_route_id and rng.random() < 0.3:
        route_ids[0] = ""
    return valid(bundle._replace(
        flows=tuple(f._replace(id=flow_ids[f.id]) for f in bundle.flows),
        routes=tuple(r._replace(id=route_id, flow_id=flow_ids[r.flow_id])
                     for r, route_id in zip(bundle.routes, route_ids))))


@pytest.mark.parametrize("seed", range(4))
def test_reports_written_from_templates_match_the_document_tree(seed):
    rng = random.Random(seed)
    for _ in range(25):
        report = run_case(_with_odd_ids(make_bundle(rng, max_flows=30), rng)).report
        document = reference_document(report)
        assert report.to_json() == canonical_json(document)
        assert report.to_text() == reference_text(document)
        assert canonical_json(report.document) == report.to_json()


def test_template_caches_stop_growing_once_every_shape_is_seen():
    rng = random.Random(5)
    bundles = [make_bundle(rng, max_flows=30) for _ in range(40)]
    for cached in (claims._outcome_json_template, claims._outcome_line_suffix):
        cached.cache_clear()
    reports = [run_case(b).report for b in bundles]
    for report in reports:
        report.to_json(), report.to_text()
    shapes = {(o.decision, o.reason_codes, o.band_e,
               r.bands[o.route_id].applied_rules if o.route_id else None)
              for r in reports for o in r.outcomes}
    sizes = (claims._outcome_json_template.cache_info().currsize,
             claims._outcome_line_suffix.cache_info().currsize)
    assert sizes == (len(shapes), len({shape[:3] for shape in shapes}))
    # New ids, and so new accepted narratives, give no new shape.
    for bundle in bundles:
        report = run_case(_with_odd_ids(bundle, rng, empty_route_id=False)).report
        report.to_json(), report.to_text()
    assert (claims._outcome_json_template.cache_info().currsize,
            claims._outcome_line_suffix.cache_info().currsize) == sizes


def test_unknown_motive_narrows_final_claims_but_not_bounded():
    # An unknown-motive flow offered toward the numerator narrows the case:
    # bounded numeric claims stay available, final closure is blocked.
    from evrc.core_model import (AnalysisUnit, CriticalRecipient,
                                 DenominatorStatus, Landing, Motive,
                                 RecipientClass, RewardDenominator, Route,
                                 RouteChecks, RouteKind, TriState, UnitKind,
                                 ValueFlow)

    rng = random.Random(43)
    bundle = make_bundle(rng, max_flows=0)
    unit = AnalysisUnit(id="u0", kind=UnitKind.CHAIN, boundary_note="",
                        is_mixed=False)
    recipient = CriticalRecipient(id="w0", unit_id="u0",
                                  recipient_class=RecipientClass.MINERS,
                                  function_note="", is_specified=True)
    checks = RouteChecks(TriState.YES, TriState.YES, TriState.NO, TriState.YES)
    accepted_flow = ValueFlow(id="f0", amount=Decimal("100"), currency="USD",
                              period_label="P1", motive=Motive.USE_ORIENTED,
                              landing=Landing.PROTOCOL)
    unknown_flow = ValueFlow(id="f1", amount=Decimal("40"), currency="USD",
                             period_label="P1", motive=Motive.UNKNOWN,
                             landing=Landing.PROTOCOL, intended_numerator=True)
    route = Route(id="r0", flow_id="f0", recipient_id="w0",
                  route_kind=RouteKind.PROTOCOL_ENFORCED, checks=checks)
    denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                              value=Decimal("200"))
    bundle = valid(bundle._replace(unit=unit, recipient=recipient,
                                   flows=(accepted_flow, unknown_flow), routes=(route,),
                                   denominators=(denom,),
                                   sources=(src(EvidenceGrade.G1, sid="g1"),)))
    result = run_case(bundle)
    verdicts = {v.template: v for v in result.verdicts}
    final = verdicts[ClaimTemplate.FINAL_RCR]
    assert not final.allowed
    assert [r.value for r in final.blocking_reasons] == ["motive_unclear_narrowed"]
    assert verdicts[ClaimTemplate.BOUNDED_FEE_SHARE].allowed
    assert verdicts[ClaimTemplate.MECHANISM_ROUTE_EXISTS].allowed
