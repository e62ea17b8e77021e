"""Motive screening and the net external-value guardrail."""

from __future__ import annotations

import itertools
import random
from decimal import Decimal

import pytest
from helpers import make_bundle
from hypothesis import given, settings
from hypothesis import strategies as st

from evrc.core_model import (
    NO_ALPHA,
    Deductions,
    Landing,
    Motive,
    NumeratorConfig,
    ValueFlow,
    Violation,
    validate_bundle,
)
from evrc.numerator import net_external_value


def flow(motive, amount, *, rebates="0", emissions="0", wash="0",
         currency="USD", fid=None):
    return ValueFlow(
        id=fid or f"f-{motive.value}-{amount}", amount=Decimal(amount),
        currency=currency, period_label="P1", motive=motive,
        landing=Landing.PROTOCOL,
        deductions=Deductions(rebates=Decimal(rebates),
                              emissions=Decimal(emissions),
                              wash_self_dealing=Decimal(wash)))


CFG = NumeratorConfig(alpha=Decimal("0.5"), note="test haircut")


@pytest.mark.parametrize("motive,screen", [
    (Motive.USE_ORIENTED, "counts_full"),
    (Motive.FINANCIAL_SERVICE, "counts_full"),
    (Motive.MIXED, "counts_haircut"),
    (Motive.INVESTMENT_DEPENDENT, "excluded"),
    (Motive.SUBSIDY_LOOP, "excluded"),
    (Motive.UNKNOWN, "excluded"),
])
def test_screen_motive(motive, screen):
    # A flow of 10 counts in full, at CFG's haircut of 0.5, or not at all.
    counted = {"counts_full": Decimal("10"), "counts_haircut": Decimal("5"),
               "excluded": Decimal(0)}
    assert net_external_value([flow(motive, "10")], CFG).value == counted[screen]


def test_pure_use_payments_pass_through():
    result = net_external_value([flow(Motive.USE_ORIENTED, "100")], CFG)
    assert result.value == Decimal("100")


def test_mixed_haircut_minus_rebates():
    # Hand-computed: 0.25 * 80 - 10 = 10.
    cfg = NumeratorConfig(alpha=Decimal("0.25"), note="quarter haircut")
    result = net_external_value([flow(Motive.MIXED, "80", rebates="10")], cfg)
    assert result.value == Decimal("10")


def test_investment_only_flows_yield_zero_with_excluded_mass():
    flows = [flow(Motive.INVESTMENT_DEPENDENT, "500", fid="a"),
             flow(Motive.INVESTMENT_DEPENDENT, "250", fid="b")]
    result = net_external_value(flows, CFG)
    assert result.value == 0
    assert result.class_sums[Motive.INVESTMENT_DEPENDENT] == Decimal("750")


def _validated_without_alpha(flows):
    """What validation decides for a valid case of `flows` and no numerator."""
    case = make_bundle(random.Random(0), max_flows=0)
    return validate_bundle(case._replace(flows=tuple(flows), numerator_config=None))


def test_alpha_required_when_mixed_flows_present():
    # Validation refuses the case, so the numerator never sees it.
    assert _validated_without_alpha([flow(Motive.MIXED, "10")]) == ([], NO_ALPHA, None)


def test_alpha_optional_when_no_mixed_flows():
    result = net_external_value([flow(Motive.USE_ORIENTED, "10")], None)
    assert result.value == Decimal("10")
    assert result.alpha is None


def test_mixed_currencies_are_an_input_error():
    # Validation refuses the case (exit 1), so the numerator sums one currency.
    case = make_bundle(random.Random(0), max_flows=0)
    flows = (flow(Motive.USE_ORIENTED, "1", fid="a"),
             flow(Motive.USE_ORIENTED, "1", currency="EUR", fid="b"))
    assert validate_bundle(case._replace(flows=flows)) == (
        [Violation("flows[1].currency", "'EUR' differs from case currency 'USD'")], None, None)


def test_negative_total_reported_not_clamped():
    result = net_external_value([flow(Motive.USE_ORIENTED, "5", wash="25")], CFG)
    assert result.value == Decimal("-20")
    assert result.negative_warning


amounts = st.integers(min_value=0, max_value=10**8).map(
    lambda n: Decimal(n).scaleb(-2))
motives = st.sampled_from(list(Motive))


@st.composite
def flow_sets(draw, min_size=0, max_size=12):
    pairs = draw(st.lists(st.tuples(motives, amounts), min_size=min_size,
                          max_size=max_size))
    return [flow(m, str(a), fid=f"f{i}") for i, (m, a) in enumerate(pairs)]


@given(flow_sets())
@settings(max_examples=200, deadline=None)
def test_alpha_endpoints(flows):
    zero = net_external_value(flows, NumeratorConfig(Decimal(0), "drop mixed"))
    one = net_external_value(flows, NumeratorConfig(Decimal(1), "mixed as use"))
    m_sum = sum((f.amount for f in flows if f.motive is Motive.MIXED), Decimal(0))
    assert one.value - zero.value == m_sum
    assert zero.mixed_after_haircut == 0
    assert one.mixed_after_haircut == m_sum


@given(flow_sets(),
       st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=200, deadline=None)
def test_monotone_in_alpha(flows, a_raw, b_raw):
    a, b = sorted([Decimal(a_raw).scaleb(-2), Decimal(b_raw).scaleb(-2)])
    lo = net_external_value(flows, NumeratorConfig(a, "lo"))
    hi = net_external_value(flows, NumeratorConfig(b, "hi"))
    assert hi.value >= lo.value


@given(flow_sets(min_size=1), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_excluded_flows_never_change_value(flows, rnd):
    base = net_external_value(flows, CFG).value
    excluded = [f for f in flows
                if f.motive in (Motive.INVESTMENT_DEPENDENT, Motive.SUBSIDY_LOOP,
                                Motive.UNKNOWN)]
    shuffled = list(flows)
    rnd.shuffle(shuffled)
    assert net_external_value(shuffled, CFG).value == base
    if excluded:
        dup = rnd.choice(excluded)
        duplicated = shuffled + [ValueFlow(
            id="dup", amount=dup.amount, currency=dup.currency,
            period_label=dup.period_label, motive=dup.motive, landing=dup.landing)]
        assert net_external_value(duplicated, CFG).value == base


def test_zero_amount_mixed_flow_still_needs_alpha():
    # The rule is "any mixed-motive flow", whatever its amount.
    assert _validated_without_alpha([flow(Motive.MIXED, "0")]) == ([], NO_ALPHA, None)


@pytest.mark.parametrize("order", itertools.permutations(range(3)))
def test_sums_are_exact_under_any_flow_order(order):
    amounts = [("1E+27", "0.4"), ("0.4", "0.1"), ("0.4", "0")]  # (amount, rebate)
    flows = [flow(Motive.USE_ORIENTED, amounts[i][0], rebates=amounts[i][1], fid=f"f{i}")
             for i in order]
    result = net_external_value(flows, CFG)
    assert result.class_sums[Motive.USE_ORIENTED] == Decimal("1000000000000000000000000000.8")
    assert result.value == Decimal("1000000000000000000000000000.3")
