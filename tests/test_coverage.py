"""RAV/RCR computation, reward decomposition, and fee-share windows."""

from __future__ import annotations

import itertools
import random
from decimal import Decimal

import pytest
from helpers import make_bundle, oracle_rav

from evrc.admissibility import admit_flow, assign_band
from evrc.core_model import (
    DECIMAL_CONTEXT,
    AnalysisUnit,
    BtcBlockRow,
    CriticalRecipient,
    DenominatorStatus,
    EthRewardRow,
    Landing,
    Motive,
    RecipientClass,
    RewardDenominator,
    Route,
    RouteChecks,
    RouteKind,
    TriState,
    UnitKind,
    ValueFlow,
)
from evrc.coverage import (
    RavResult,
    RcrBlocked,
    RcrInterval,
    RcrPoint,
    WindowShare,
    btc_fee_share,
    compute_rav,
    compute_rcr,
    eth_validator_reward,
)
from evrc.errors import DataError, GateOrderingError, InputError
from evrc.pipeline import run_case

UNIT = AnalysisUnit(id="u0", kind=UnitKind.CHAIN, boundary_note="", is_mixed=False)
MIXED_UNIT = AnalysisUnit(id="u0", kind=UnitKind.COMPOSITE, boundary_note="",
                          is_mixed=True)
RECIPIENT = CriticalRecipient(id="w0", unit_id="u0",
                              recipient_class=RecipientClass.MINERS,
                              function_note="", is_specified=True)
UNSPECIFIED = CriticalRecipient(id="w0", unit_id="u0",
                                recipient_class=RecipientClass.OTHER,
                                function_note="", is_specified=False)


def _gated(flow_specs):
    """Build flows/routes/outcomes from (amount, kind-or-None) specs."""
    flows, routes, outcomes = [], [], []
    for i, (amount, kind) in enumerate(flow_specs):
        flow = ValueFlow(id=f"f{i}", amount=Decimal(amount), currency="USD",
                         period_label="P1", motive=Motive.USE_ORIENTED,
                         landing=Landing.PROTOCOL)
        flows.append(flow)
        route = None
        band = None
        if kind is not None:
            route = Route(id=f"r{i}", flow_id=f"f{i}", recipient_id="w0",
                          route_kind=kind,
                          checks=RouteChecks(TriState.YES, TriState.YES,
                                             TriState.NO, TriState.YES))
            routes.append(route)
            band = assign_band(route)
        outcomes.append(admit_flow(flow, route, band=band,
                                   case_period_label="P1"))
    return tuple(flows), tuple(routes), outcomes


class TestComputeRav:
    def test_empty_bundle_sums_to_zero(self):
        rav = compute_rav([], ())
        assert (rav.rav_weighted, rav.rav_unweighted) == (0, 0)

    def test_single_protocol_flow_is_identity(self):
        flows, routes, outcomes = _gated([("100", RouteKind.PROTOCOL_ENFORCED)])
        rav = compute_rav(outcomes, flows)
        assert rav.rav_weighted == Decimal("100")
        assert rav.rav_unweighted == Decimal("100")

    def test_mixed_band_and_rejected_flows(self):
        # Oracle by enumeration: 100*1 + 40*0.5 = 120 weighted; 140 unweighted;
        # the rejected 60 contributes exactly zero.
        flows, routes, outcomes = _gated([
            ("100", RouteKind.PROTOCOL_ENFORCED),
            ("40", RouteKind.GOVERNANCE_MEDIATED),
            ("60", None),
        ])
        rav = compute_rav(outcomes, flows)
        assert rav.rav_weighted == Decimal("120")
        assert rav.rav_unweighted == Decimal("140")
        assert rav.accepted_flow_ids == ("f0", "f1")

    def test_requires_outcomes(self):
        flows, routes, _ = _gated([("10", RouteKind.PROTOCOL_ENFORCED)])
        with pytest.raises(GateOrderingError):
            compute_rav(None, flows)

    def test_requires_complete_outcomes(self):
        flows, routes, outcomes = _gated([
            ("10", RouteKind.PROTOCOL_ENFORCED), ("20", None)])
        with pytest.raises(GateOrderingError):
            compute_rav(outcomes[:1], flows)

    @pytest.mark.parametrize("order", itertools.permutations(range(3)))
    def test_sums_are_exact_under_any_flow_order(self, order):
        # The default 28-digit context made the total depend on flow order.
        amounts = ["1E+27", "0.4", "0.4"]
        flows, _, outcomes = _gated([(amounts[i], RouteKind.PROTOCOL_ENFORCED)
                                     for i in order])
        rav = compute_rav(outcomes, flows)
        assert rav.rav_unweighted == rav.rav_weighted == Decimal(
            "1000000000000000000000000000.8")

    def test_weighted_never_exceeds_unweighted(self):
        rng = random.Random(31)
        for _ in range(100):
            bundle = make_bundle(rng)
            result = run_case(bundle)
            assert result.coverage.rav.rav_weighted <= result.coverage.rav.rav_unweighted

    def test_matches_brute_force_oracle(self):
        rng = random.Random(32)
        for _ in range(100):
            bundle = make_bundle(rng, max_flows=10)
            result = run_case(bundle)
            expected = oracle_rav(bundle)
            got = (result.coverage.rav.rav_weighted,
                   result.coverage.rav.rav_unweighted)
            assert got == expected


def _rav(weighted="50", unweighted="50"):
    return RavResult(rav_weighted=Decimal(weighted),
                     rav_unweighted=Decimal(unweighted),
                     accepted_flow_ids=("f0",))


class TestComputeRcr:
    def test_measured_point_ratio(self):
        denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                                  value=Decimal("200"))
        rcr = compute_rcr(_rav("50"), denom, RECIPIENT, UNIT)
        assert rcr == RcrPoint(Decimal("0.25"))

    def test_bounded_interval_hand_checked(self):
        # rav=50 against V in [100, 200]: interval [50/200, 50/100].
        denom = RewardDenominator("w0", "P1", DenominatorStatus.BOUNDED,
                                  bound_low=Decimal("100"),
                                  bound_high=Decimal("200"))
        rcr = compute_rcr(_rav("50"), denom, RECIPIENT, UNIT)
        assert rcr == RcrInterval(low=Decimal("0.25"), high=Decimal("0.5"))

    def test_unavailable_denominator_blocks(self):
        denom = RewardDenominator("w0", "P1", DenominatorStatus.UNAVAILABLE)
        rcr = compute_rcr(_rav("0"), denom, RECIPIENT, UNIT)
        assert isinstance(rcr, RcrBlocked)
        assert [r.value for r in rcr.reasons] == ["denominator_unavailable"]

    def test_unspecified_recipient_blocks(self):
        denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                                  value=Decimal("10"))
        rcr = compute_rcr(_rav(), denom, UNSPECIFIED, UNIT)
        assert isinstance(rcr, RcrBlocked)
        assert [r.value for r in rcr.reasons] == ["recipient_unspecified"]

    def test_mixed_unit_blocks(self):
        denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                                  value=Decimal("10"))
        rcr = compute_rcr(_rav(), denom, RECIPIENT, MIXED_UNIT)
        assert isinstance(rcr, RcrBlocked)
        assert [r.value for r in rcr.reasons] == ["unit_mixed"]

    def test_raw_numbers_are_refused(self):
        denom = RewardDenominator("w0", "P1", DenominatorStatus.MEASURED,
                                  value=Decimal("10"))
        with pytest.raises(GateOrderingError):
            compute_rcr(Decimal("5"), denom, RECIPIENT, UNIT)



class TestEthValidatorReward:
    def test_hand_arithmetic(self):
        row = EthRewardRow("w1", Decimal("10"), Decimal("5"), Decimal("100"),
                           Decimal("2"), Decimal("500"))
        assert eth_validator_reward(row) == Decimal("113")

    def test_report_takes_the_burn_from_the_row(self, case_dir):
        from evrc.core_model import canonical_decimal
        from evrc.ingest import load_case
        from evrc.pipeline import run_case

        result = run_case(load_case(case_dir("ethereum")).bundle)
        decomposition = result.report.document["row_analytics"]["eth_reward_decomposition"]
        assert [(d["window"], d["validator_reward"]["value"], d["base_fee_burn"]["value"])
                for d in decomposition] == [
            (row.window, canonical_decimal(eth_validator_reward(row)),
             canonical_decimal(row.base_fee_burn))
            for row in result.bundle.eth_reward_rows]

    def test_all_zero(self):
        row = EthRewardRow("w", *(Decimal("0"),) * 5)
        assert eth_validator_reward(row) == 0

    def test_burn_never_enters(self):
        row = EthRewardRow("w", Decimal("0"), Decimal("0"), Decimal("100"),
                           Decimal("0"), Decimal("1000000"))
        assert eth_validator_reward(row) == Decimal("100")

    @pytest.mark.parametrize("column", EthRewardRow._fields[1:])
    def test_negative_component_is_refused_when_read(self, column):
        # Rows are read by `from_raw`, so no negative component reaches the reward.
        raw = {"window": "w", **dict.fromkeys(EthRewardRow._fields[1:], "0"), column: "-1"}
        with pytest.raises(InputError, match=f"{column} must be >= 0"):
            EthRewardRow.from_raw(raw)


def blocks(spec):
    """spec: list of (height, fees, subsidy)."""
    return [BtcBlockRow(h, Decimal(f), Decimal(s)) for h, f, s in spec]


class TestBtcFeeShare:
    def test_forced_uniform_share(self):
        rows = blocks([(h, "74", "26") for h in range(1000, 1144)])
        result = btc_fee_share(rows, 144)
        assert len(result.shares) == 1
        assert result.max_share == Decimal("0.74")
        assert result.max_window_start == 1000

    def test_zero_fees_everywhere(self):
        rows = blocks([(h, "0", "50") for h in range(10)])
        result = btc_fee_share(rows, 5)
        assert all(s.share == 0 for s in result.shares)

    def test_single_row_window_one(self):
        rows = blocks([(7, "30", "70")])
        result = btc_fee_share(rows, 1)
        assert result.shares[0].share == Decimal("0.3")

    def test_height_gap_is_named_data_error(self):
        rows = blocks([(1, "1", "1"), (3, "1", "1")])
        with pytest.raises(DataError, match="gap between heights 1 and 3"):
            btc_fee_share(rows, 1)

    def test_window_larger_than_rows_is_error(self):
        rows = blocks([(1, "1", "1")])
        with pytest.raises(DataError):
            btc_fee_share(rows, 2)

    def test_a_huge_fee_leaves_later_windows_exact(self):
        # A 28- or 50-digit sum lost the small fees beside 1E+60, and the
        # sliding update carried the loss into every later window.
        rows = blocks([(100, "1E+60", "1"), (101, "1", "1"), (102, "1", "1"),
                       (103, "1", "1")])
        result = btc_fee_share(rows, 2)
        first = DECIMAL_CONTEXT.divide(Decimal(10**60 + 1), Decimal(10**60 + 3))
        assert result.shares == (WindowShare(100, first), WindowShare(101, Decimal("0.5")),
                                 WindowShare(102, Decimal("0.5")))

    def test_zero_total_windows_skipped_and_flagged(self):
        rows = blocks([(1, "0", "0"), (2, "1", "1")])
        result = btc_fee_share(rows, 1)
        assert result.skipped_starts == (1,)
        assert [s.start_height for s in result.shares] == [2]

    def test_full_range_window_equals_global_ratio(self):
        rng = random.Random(33)
        rows = blocks([(h, str(rng.randint(0, 500)), str(rng.randint(1, 500)))
                       for h in range(100, 164)])
        result = btc_fee_share(rows, len(rows))
        total_fees = sum(r.fees for r in rows)
        total = total_fees + sum(r.subsidy for r in rows)
        import decimal

        from evrc.core_model import DECIMAL_CONTEXT
        with decimal.localcontext(DECIMAL_CONTEXT):
            expected = total_fees / total
        assert [s.share for s in result.shares] == [expected]
        assert result.skipped_starts == ()

    def test_sliding_windows_match_direct_recomputation(self):
        import decimal

        from evrc.core_model import DECIMAL_CONTEXT

        rng = random.Random(34)
        rows = blocks([(h, str(rng.randint(0, 99)), str(rng.randint(0, 99)))
                       for h in range(50)])
        window = 7
        result = btc_fee_share(rows, window)
        by_start = {s.start_height: s.share for s in result.shares}
        for i in range(len(rows) - window + 1):
            chunk = rows[i:i + window]
            fees = sum(r.fees for r in chunk)
            total = fees + sum(r.subsidy for r in chunk)
            if total == 0:
                assert rows[i].height in result.skipped_starts
                continue
            with decimal.localcontext(DECIMAL_CONTEXT):
                assert by_start[rows[i].height] == fees / total
