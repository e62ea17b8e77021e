"""Band assignment, per-flow gating, and breakpoint classification."""

from __future__ import annotations

import itertools
import random
from decimal import Decimal

import pytest
from helpers import make_bundle, make_route, oracle_band, valid
from hypothesis import given, settings
from hypothesis import strategies as st

from evrc.admissibility import (
    _REJECTION_PHRASES,
    admit_flow,
    assign_band,
    classify_breakpoints,
)
from evrc.core_model import (
    AnalysisUnit,
    BreakpointCode,
    CriticalRecipient,
    GateDecision,
    Landing,
    Motive,
    ReasonCode,
    RecipientClass,
    Route,
    RouteChecks,
    RouteKind,
    TriState,
    UnitKind,
    ValueFlow,
)
from evrc.errors import GateOrderingError
from evrc.ingest import load_case
from evrc.pipeline import run_case

YES, NO, UNK = TriState.YES, TriState.NO, TriState.UNKNOWN


def route_with(kind, enf=YES, ben=YES, rev=NO, aud=YES, escrowed=False,
               source_gap=False, flow_id="f0"):
    return Route(id="r0", flow_id=flow_id, recipient_id="w0", route_kind=kind,
                 checks=RouteChecks(enf, ben, rev, aud),
                 escrowed_or_executed=escrowed, source_gap=source_gap)


def flow_with(motive=Motive.USE_ORIENTED, landing=Landing.PROTOCOL,
              period="P1", flow_id="f0", amount="100"):
    return ValueFlow(id=flow_id, amount=Decimal(amount), currency="USD",
                     period_label=period, motive=motive, landing=landing)


UNIT = AnalysisUnit(id="u0", kind=UnitKind.CHAIN, boundary_note="", is_mixed=False)
RECIPIENT = CriticalRecipient(id="w0", unit_id="u0",
                              recipient_class=RecipientClass.MINERS,
                              function_note="", is_specified=True)


class TestAssignBand:
    def test_protocol_enforced_all_yes_revocable_no_is_full_band(self):
        band = assign_band(route_with(RouteKind.PROTOCOL_ENFORCED, rev=NO))
        assert band.band_e == Decimal("1.0")
        assert band.applied_rules == ("BASE_PROTOCOL",)

    def test_governance_without_escrow_capped_at_half(self):
        band = assign_band(route_with(RouteKind.GOVERNANCE_MEDIATED, rev=YES))
        assert band.band_e == Decimal("0.5")
        assert "GOV_CAP" in band.applied_rules

    def test_governance_with_escrow_upgrades_to_contractual_band(self):
        band = assign_band(route_with(RouteKind.GOVERNANCE_MEDIATED, escrowed=True))
        assert band.band_e == Decimal("0.75")
        assert "GOV_ESCROW_UPGRADE" in band.applied_rules

    def test_contractual_with_unknown_auditability_downgrades(self):
        # Hand-applied downgrade table: base 0.75, unknown auditability caps
        # to 0.25.
        band = assign_band(route_with(RouteKind.CONTRACTUAL_PLATFORM_RULE, aud=UNK))
        assert band.band_e == Decimal("0.25")
        assert band.applied_rules == ("BASE_CONTRACTUAL", "UNKNOWN_DOWNGRADE")

    def test_no_route_kind_is_band_zero(self):
        band = assign_band(route_with(RouteKind.NONE))
        assert band.band_e == 0
        assert band.applied_rules[0] == "NO_ROUTE"

    def test_enforceability_no_caps_at_quarter(self):
        band = assign_band(route_with(RouteKind.PROTOCOL_ENFORCED, enf=NO))
        assert band.band_e == Decimal("0.25")
        assert "ENFORCEABILITY_CAP" in band.applied_rules

    def test_enforceability_unknown_caps_at_half(self):
        band = assign_band(route_with(RouteKind.PROTOCOL_ENFORCED, enf=UNK))
        assert band.band_e == Decimal("0.5")

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_governance_cap_soundness(self, rnd):
        route = make_route(rnd)
        band = assign_band(route)
        if (route.route_kind is RouteKind.GOVERNANCE_MEDIATED
                and not route.escrowed_or_executed):
            assert band.band_e <= Decimal("0.5")

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_band_matches_independent_table(self, rnd):
        route = make_route(rnd)
        assert assign_band(route).band_e == oracle_band(route)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_check_improvement_monotonicity(self, rnd):
        route = make_route(rnd)
        before = assign_band(route).band_e
        for field in ("enforceability", "beneficiary_specificity",
                      "revocability", "auditability"):
            if getattr(route.checks, field) is YES:
                continue
            improved = route._replace(checks=route.checks._replace(**{field: YES}))
            assert assign_band(improved).band_e >= before

    def test_every_band_shape_matches_the_table_and_the_rule_order(self):
        base = {RouteKind.NONE: "NO_ROUTE",
                RouteKind.VOLUNTARY_DISCRETIONARY: "BASE_VOLUNTARY",
                RouteKind.GOVERNANCE_MEDIATED: "BASE_GOVERNANCE",
                RouteKind.CONTRACTUAL_PLATFORM_RULE: "BASE_CONTRACTUAL",
                RouteKind.PROTOCOL_ENFORCED: "BASE_PROTOCOL"}
        enf_rules = {YES: [], NO: ["ENFORCEABILITY_CAP"], UNK: ["UNKNOWN_DOWNGRADE"]}
        aud_rules = {YES: [], NO: ["AUDITABILITY_CAP"], UNK: ["UNKNOWN_DOWNGRADE"]}
        shapes = list(itertools.product(RouteKind, (False, True), TriState, TriState))
        assert len(shapes) == 5 * 2 * 3 * 3
        for kind, escrowed, enf, aud in shapes:
            route = route_with(kind, enf=enf, aud=aud, escrowed=escrowed)
            band = assign_band(route)
            assert band.band_e == oracle_band(route), (kind, escrowed, enf, aud)
            rules = [base[kind]]
            if kind is RouteKind.GOVERNANCE_MEDIATED:
                rules.append("GOV_ESCROW_UPGRADE" if escrowed else "GOV_CAP")
            rules += enf_rules[enf] + aud_rules[aud]
            assert band.applied_rules == tuple(rules), (kind, escrowed, enf, aud)

    @given(st.randoms(use_true_random=False), st.text(max_size=5), st.text(max_size=5),
           st.text(max_size=5), st.booleans(), st.sampled_from(TriState),
           st.sampled_from(TriState))
    @settings(max_examples=200, deadline=None)
    def test_fields_outside_the_band_shape_leave_the_band_unchanged(
            self, rnd, route_id, flow_id, recipient_id, source_gap, ben, rev):
        route = make_route(rnd)
        other = route._replace(
            id=route_id, flow_id=flow_id, recipient_id=recipient_id, source_gap=source_gap,
            checks=route.checks._replace(beneficiary_specificity=ben, revocability=rev))
        assert assign_band(other) == assign_band(route)


class TestAdmitFlow:
    def test_app_landing_without_route_rejected_no_route_only(self):
        # Front-end/company landing with no route record contributes nothing.
        flow = flow_with(landing=Landing.APP)
        out = admit_flow(flow, None, band=None,
                         case_period_label="P1")
        assert out.decision is GateDecision.REJECTED
        assert out.reason_codes == (ReasonCode.NO_ROUTE,)

    def test_burn_landing_with_full_route_rejected_for_burn_only(self):
        flow = flow_with(landing=Landing.BURN)
        route = route_with(RouteKind.PROTOCOL_ENFORCED)
        out = admit_flow(flow, route, band=assign_band(route),
                         case_period_label="P1")
        assert out.decision is GateDecision.REJECTED
        assert out.reason_codes == (ReasonCode.LANDING_BURN_MISMATCH,)

    def test_protocol_fee_flow_accepted(self):
        flow = flow_with(motive=Motive.USE_ORIENTED, landing=Landing.PROTOCOL)
        route = route_with(RouteKind.PROTOCOL_ENFORCED)
        out = admit_flow(flow, route, band=assign_band(route),
                         case_period_label="P1")
        assert out.decision is GateDecision.ACCEPTED
        assert out.reason_codes  # satisfied-gate codes, never empty
        assert out.band_e == Decimal("1.0")

    def test_reason_codes_enumerate_every_failed_condition(self):
        flow = flow_with(motive=Motive.INVESTMENT_DEPENDENT, landing=Landing.BURN,
                         period="P-other")
        out = admit_flow(flow, None, band=None,
                         case_period_label="P1")
        assert set(out.reason_codes) == {
            ReasonCode.NO_ROUTE, ReasonCode.MOTIVE_EXCLUDED,
            ReasonCode.LANDING_BURN_MISMATCH, ReasonCode.PERIOD_MISMATCH,
        }

    def test_all_unknown_checks_with_gap_flag_source_blocked(self):
        flow = flow_with()
        route = route_with(RouteKind.PROTOCOL_ENFORCED, enf=UNK, ben=UNK,
                           rev=UNK, aud=UNK, source_gap=True)
        out = admit_flow(flow, route, band=assign_band(route),
                         case_period_label="P1")
        assert out.decision is GateDecision.SOURCE_BLOCKED
        assert out.reason_codes == (ReasonCode.SOURCE_COVERAGE_GAP,)

    def test_all_unknown_without_gap_flag_is_rejected_not_blocked(self):
        flow = flow_with()
        route = route_with(RouteKind.PROTOCOL_ENFORCED, enf=UNK, ben=UNK,
                           rev=UNK, aud=UNK, source_gap=False)
        out = admit_flow(flow, route, band=assign_band(route),
                         case_period_label="P1")
        assert out.decision is GateDecision.REJECTED
        assert ReasonCode.BENEFICIARY_UNSPECIFIC in out.reason_codes

    def test_band_must_be_assigned_before_admission(self):
        flow = flow_with()
        route = route_with(RouteKind.PROTOCOL_ENFORCED)
        with pytest.raises(GateOrderingError):
            admit_flow(flow, route, band=None,
                       case_period_label="P1")

    def test_route_kind_none_rejected_for_zero_band(self):
        flow = flow_with()
        route = route_with(RouteKind.NONE)
        out = admit_flow(flow, route, band=assign_band(route),
                         case_period_label="P1")
        assert out.decision is GateDecision.REJECTED
        assert ReasonCode.BAND_ZERO in out.reason_codes

    def test_generic_treasury_beneficiary_fails_specificity(self):
        flow = flow_with(landing=Landing.TREASURY)
        route = route_with(RouteKind.GOVERNANCE_MEDIATED, ben=NO)
        out = admit_flow(flow, route, band=assign_band(route),
                         case_period_label="P1")
        assert out.decision is GateDecision.REJECTED
        assert out.reason_codes == (ReasonCode.BENEFICIARY_UNSPECIFIC,)

    def test_each_rejection_narrative_joins_the_phrases_of_its_codes(self):
        # Every combination of failed conditions; a route-less flow cannot
        # also fail the band or beneficiary conditions.
        seen = set()
        for has_route, zero, unspecific, excluded, burn, off_period in itertools.product(
                (False, True), repeat=6):
            if not has_route and (zero or unspecific):
                continue
            flow = flow_with(motive=Motive.SUBSIDY_LOOP if excluded else Motive.USE_ORIENTED,
                             landing=Landing.BURN if burn else Landing.PROTOCOL,
                             period="P-other" if off_period else "P1")
            route = route_with(RouteKind.NONE if zero else RouteKind.PROTOCOL_ENFORCED,
                               ben=NO if unspecific else YES) if has_route else None
            band = assign_band(route) if route is not None else None
            expected = tuple(code for code, failed in (
                (ReasonCode.NO_ROUTE, not has_route), (ReasonCode.BAND_ZERO, zero),
                (ReasonCode.BENEFICIARY_UNSPECIFIC, unspecific),
                (ReasonCode.MOTIVE_EXCLUDED, excluded),
                (ReasonCode.LANDING_BURN_MISMATCH, burn),
                (ReasonCode.PERIOD_MISMATCH, off_period)) if failed)
            for _ in range(2):  # the second call reads the narrative back
                out = admit_flow(flow, route, band=band, case_period_label="P1")
                if not expected:
                    assert out.decision is GateDecision.ACCEPTED
                    continue
                assert out.decision is GateDecision.REJECTED
                assert out.reason_codes == expected
                assert out.narrative == "rejected: " + "; ".join(
                    _REJECTION_PHRASES[c] for c in expected)
            seen.add(expected)
        assert len(seen) == 8 + 4 * 8  # without a route, and with one; () is accepted


class TestDecisionCompleteness:
    def test_every_flow_gets_exactly_one_outcome(self):
        rng = random.Random(21)
        for _ in range(50):
            bundle = make_bundle(rng)
            result = run_case(bundle)
            assert sorted(o.flow_id for o in result.outcomes) == sorted(
                f.id for f in bundle.flows)
            for o in result.outcomes:
                assert o.reason_codes, "outcomes must carry reason codes"

    def test_determinism_same_bundle_same_outcomes(self):
        rng = random.Random(22)
        bundle = make_bundle(rng)
        a = run_case(bundle)
        b = run_case(bundle)
        assert a.outcomes == b.outcomes
        assert a.report.to_json() == b.report.to_json()


class TestBreakpoints:
    def test_steem_fixture_is_b2_b4(self, case_dir):
        result = run_case(load_case(case_dir("steem")).bundle)
        assert {b.code for b in result.breakpoints} == {
            BreakpointCode.B2_APP_PROTOCOL_FRACTURE,
            BreakpointCode.B4_ISSUANCE_MARKET_DEPENDENCE,
        }

    def test_xrp_fixture_is_b3(self, case_dir):
        result = run_case(load_case(case_dir("xrp")).bundle)
        assert {b.code for b in result.breakpoints} == {
            BreakpointCode.B3_BURN_CAPTURE_MISMATCH,
        }

    def test_fully_paid_protocol_route_has_no_breakpoints(self):
        # A single accepted protocol-routed fee flow fully paying the
        # recipient trips no breakpoint.
        from evrc.core_model import DenominatorStatus, RewardDenominator

        rng = random.Random(25)
        bundle = make_bundle(rng, max_flows=0)
        denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                                  value=Decimal("100"))
        bundle = valid(bundle._replace(unit=UNIT, recipient=RECIPIENT,
                                       flows=(flow_with(amount="100"),),
                                       routes=(route_with(RouteKind.PROTOCOL_ENFORCED),),
                                       denominators=(denom,)))
        result = run_case(bundle)
        assert result.breakpoints == ()

    def test_b1_fires_on_offered_investment_flows(self):
        rng = random.Random(23)
        bundle = make_bundle(rng, max_flows=0)
        flow = flow_with(motive=Motive.INVESTMENT_DEPENDENT)._replace(
            intended_numerator=True)
        bundle = valid(bundle._replace(unit=UNIT, recipient=RECIPIENT, flows=(flow,),
                                       routes=()))
        result = run_case(bundle)
        assert BreakpointCode.B1_PSEUDO_CONSUMPTION in {
            b.code for b in result.breakpoints}

    def test_breakpoints_require_complete_gating(self):
        rng = random.Random(24)
        bundle = make_bundle(rng, max_flows=5)
        while not bundle.flows:
            bundle = make_bundle(rng, max_flows=5)
        with pytest.raises(GateOrderingError):
            classify_breakpoints(bundle, [], run_case(bundle).coverage)
