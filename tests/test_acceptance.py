"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import decimal
import json
import os
import random
import time
from contextlib import contextmanager
from decimal import Decimal

import pytest
from helpers import CASE_NAMES, make_bundle, make_route, oracle_rav

from evrc.admissibility import admit_flow, assign_band
from evrc.cli import main
from evrc.claims import ClaimTemplate
from evrc.core_model import (
    DECIMAL_CONTEXT,
    Deductions,
    EthRewardRow,
    Motive,
    NumeratorConfig,
    RouteKind,
    TriState,
)
from evrc.coverage import btc_fee_share, compute_rav, compute_rcr, \
    eth_validator_reward
from evrc.errors import GateOrderingError
from evrc.ingest import AdapterConfig, fetch_block_rows, load_case
from evrc.numerator import net_external_value
from evrc.pipeline import run_case


@contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s")
    print(f"[criterion {number}] PASS ({elapsed:.2f}s) - {description}")


def _gate_bundle(bundle):
    bands = {r.id: assign_band(r) for r in bundle.routes}
    outcomes = []
    for f in bundle.flows:
        route = bundle.route_for_flow(f.id)
        outcomes.append(admit_flow(
            f, route, bundle.recipient,
            band=bands[route.id] if route else None,
            case_period_label=bundle.analysis_period_label))
    return outcomes


def test_criterion_1_gate_ordering_property():
    with criterion(1, "RCR before gating always fails with the ordering error", 10):
        rng = random.Random(1001)
        failures = 0
        for _ in range(1000):
            bundle = make_bundle(rng, max_flows=6)
            denom = bundle.case_denominator()
            try:
                compute_rcr(Decimal("1"), denom, bundle.recipient, bundle.unit)
                failures += 1
            except GateOrderingError:
                pass
            try:
                compute_rav(None, bundle.flows)
                failures += 1
            except GateOrderingError:
                pass
            if bundle.flows:
                try:
                    compute_rav([], bundle.flows)
                    failures += 1
                except GateOrderingError:
                    pass
        assert failures == 0, f"{failures} ungated computations slipped through"


def test_criterion_2_governance_cap_and_monotonicity():
    with criterion(2, "governance cap <= 0.5 and check-improvement monotonicity", 5):
        rng = random.Random(1002)
        for _ in range(10_000):
            route = make_route(rng)
            band = assign_band(route).band_e
            if (route.route_kind is RouteKind.GOVERNANCE_MEDIATED
                    and not route.escrowed_or_executed):
                assert band <= Decimal("0.5"), route
            for field in ("enforceability", "beneficiary_specificity",
                          "revocability", "auditability"):
                if getattr(route.checks, field) is TriState.YES:
                    continue
                improved = route._replace(
                    checks=route.checks._replace(**{field: TriState.YES}))
                assert assign_band(improved).band_e >= band, (route, field)


def test_criterion_3_rav_matches_brute_force_oracle():
    with criterion(3, "compute_rav equals the independent oracle exactly", 30):
        rng = random.Random(1003)
        checked = 0
        for _ in range(500):
            bundle = make_bundle(rng, max_flows=10)
            outcomes = _gate_bundle(bundle)
            rav = compute_rav(outcomes, bundle.flows)
            expected_w, expected_u = oracle_rav(bundle)
            assert rav.rav_weighted == expected_w, bundle.case_id
            assert rav.rav_unweighted == expected_u, bundle.case_id
            checked += 1
        assert checked == 500


GOLDEN_BREAKPOINTS = {
    "youtube": [], "steem": ["B2", "B4"], "bitcoin": [], "ethereum": [],
    "aave": [], "filecoin": ["B4"], "usdc": [], "xrp": ["B3"],
}

GOLDEN_KEY_VERDICTS = {
    "youtube": {"MECHANISM_ROUTE_EXISTS": True, "FINAL_RCR": False,
                "NO_REVENUE": False},
    "steem": {"FINAL_RCR": False, "NO_REVENUE": False,
              "HISTORICAL_ROUTE_NULL": False, "FINAL_NCD": False,
              "NO_ROUTE_IN_CAPTURED_SOURCES": True,
              "MECHANISM_ROUTE_EXISTS": False},
    "bitcoin": {"MECHANISM_ROUTE_EXISTS": True, "BOUNDED_FEE_SHARE": True,
                "STABLE_FEE_REPLACEMENT": False, "FINAL_RCR": False,
                "FINAL_NCD": False},
    "ethereum": {"MECHANISM_ROUTE_EXISTS": True, "FINAL_RCR": False,
                 "BURN_AS_COVERAGE": False},
    "aave": {"MECHANISM_ROUTE_EXISTS": True, "BOUNDED_FEE_SHARE": True,
             "FINAL_RCR": False},
    "filecoin": {"MECHANISM_ROUTE_EXISTS": True, "FINAL_RCR": False,
                 "BOUNDED_FEE_SHARE": False},
    "usdc": {"MECHANISM_ROUTE_EXISTS": True, "FINAL_RCR": False,
             "CROSS_RECIPIENT_COVERAGE": False},
    "xrp": {"BURN_AS_COVERAGE": False, "FINAL_RCR": False,
            "MECHANISM_ROUTE_EXISTS": False,
            "NO_ROUTE_IN_CAPTURED_SOURCES": True},
}


def test_criterion_4_golden_fixtures(cases_root):
    with criterion(4, "eight shipped cases reproduce breakpoints and claim verdicts", 5):
        for name in CASE_NAMES:
            bundle = load_case(cases_root / name).bundle
            first = run_case(bundle)
            second = run_case(bundle)
            assert first.report.to_json() == second.report.to_json(), name
            assert first.report.to_text() == second.report.to_text(), name
            assert [b.code.value for b in first.breakpoints] == \
                GOLDEN_BREAKPOINTS[name], name
            verdicts = {v.template.value: v.allowed
                        for v in first.verdicts}
            for template, want in GOLDEN_KEY_VERDICTS[name].items():
                assert verdicts[template] is want, (name, template)


def test_criterion_5_eth_decomposition_burn_invariance():
    with criterion(5, "validator reward exact; burn never enters over 6 orders", 1):
        rng = random.Random(1005)
        for _ in range(200):
            tips = Decimal(rng.randint(0, 10**6))
            mev = Decimal(rng.randint(0, 10**6))
            issuance = Decimal(rng.randint(0, 10**6))
            penalties = Decimal(rng.randint(0, 10**5))
            expected = tips + mev + issuance - penalties
            results = set()
            for exponent in range(7):  # burn from 1 to 10^6
                row = EthRewardRow("w", tips, mev, issuance, penalties,
                                   Decimal(10) ** exponent)
                reward = eth_validator_reward(row)
                assert reward == expected
                results.add(reward)
            assert len(results) == 1


def test_criterion_6_fee_share_window(cases_root):
    with criterion(6, "constructed 288-block window peaks at 0.74 at height 840000", 5):
        bundle = load_case(cases_root / "bitcoin").bundle
        rows = bundle.block_rows
        assert len(rows) == 288

        result = btc_fee_share(rows, 144)
        assert result.max_window_start == 840000
        assert abs(result.max_share - Decimal("0.74")) < Decimal("1e-9")

        full = btc_fee_share(rows, len(rows))
        total_fees = sum((r.fees for r in rows), Decimal(0))
        total = total_fees + sum((r.subsidy for r in rows), Decimal(0))
        with decimal.localcontext(DECIMAL_CONTEXT):
            global_ratio = total_fees / total
        assert [s.share for s in full.shares] == [global_ratio]
        assert full.skipped_starts == ()


@pytest.mark.skipif(
    os.environ.get("EVRC_LIVE") != "1" or not os.environ.get("EVRC_BTC_BASE_URL"),
    reason="live bounded check needs EVRC_LIVE=1 and EVRC_BTC_BASE_URL")
def test_criterion_6_live_halving_window(tmp_path):
    config = AdapterConfig(adapter_id="btc_blocks", mode="live",
                           snapshot_dir=tmp_path,
                           base_url=os.environ["EVRC_BTC_BASE_URL"])
    result = fetch_block_rows(config, (839928, 840215))
    share = btc_fee_share(result.rows, 144)
    assert abs(share.max_share - Decimal("0.74")) <= Decimal("0.05")


def test_criterion_7_numerator_guardrail_properties():
    with criterion(7, "alpha endpoints, monotonicity, and exclusion invariance", 5):
        rng = random.Random(1007)
        for _ in range(1000):
            bundle = make_bundle(rng, max_flows=8)
            flows = list(bundle.flows)
            zero = net_external_value(flows, NumeratorConfig(Decimal(0), "t"))
            one = net_external_value(flows, NumeratorConfig(Decimal(1), "t"))
            m_sum = sum((f.amount for f in flows if f.motive is Motive.MIXED),
                        Decimal(0))
            assert one.value - zero.value == m_sum
            a = Decimal(rng.randint(0, 100)).scaleb(-2)
            b = Decimal(rng.randint(0, 100)).scaleb(-2)
            lo, hi = sorted([a, b])
            assert (net_external_value(flows, NumeratorConfig(hi, "t")).value
                    >= net_external_value(flows, NumeratorConfig(lo, "t")).value)

            excluded = [f for f in flows if f.motive in
                        (Motive.INVESTMENT_DEPENDENT, Motive.SUBSIDY_LOOP,
                         Motive.UNKNOWN)]
            base = net_external_value(flows, NumeratorConfig(a, "t")).value
            shuffled = list(flows)
            rng.shuffle(shuffled)
            assert net_external_value(shuffled, NumeratorConfig(a, "t")).value == base
            if excluded:
                dup = rng.choice(excluded)._replace(id="dup", deductions=Deductions())
                assert net_external_value(shuffled + [dup],
                                          NumeratorConfig(a, "t")).value == base


def test_criterion_8_unrepresentability_fuzz():
    with criterion(8, "no serialized report pairs a numeric RCR with a blocked "
                      "final claim", 60):
        rng = random.Random(1008)
        for _ in range(10_000):
            bundle = make_bundle(rng, max_flows=4)
            result = run_case(bundle)
            doc = json.loads(result.report.to_json())
            final = next(c for c in doc["claims"]
                         if c["template"] == ClaimTemplate.FINAL_RCR.value)
            rcr = doc["coverage"]["rcr"]
            if not final["allowed"]:
                assert rcr["status"] == "blocked"
                assert "value" not in rcr
                assert "interval_low" not in rcr and "interval_high" not in rcr
            else:
                assert rcr["status"] == "reported"


def test_criterion_9_replay_determinism(cases_root, tmp_path, capsys):
    with criterion(9, "coding every fixture twice yields byte-identical reports", 10):
        import hashlib

        for name in CASE_NAMES:
            outputs = []
            for run_idx in (0, 1):
                out = tmp_path / f"{name}.{run_idx}.json"
                code = main(["code", str(cases_root / name), "--out", str(out),
                             "--format", "json", "--quiet"])
                assert code == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name
        capsys.readouterr()

        digests = []
        for _ in (0, 1):
            run_digests = {}
            for path in sorted(cases_root.glob("*/snapshots/*.json")):
                doc = json.loads(path.read_text())
                actual = hashlib.sha256(doc["payload"].encode("utf-8")).hexdigest()
                assert actual == doc["digest"], path
                run_digests[str(path)] = actual
            digests.append(run_digests)
        assert digests[0] == digests[1]
