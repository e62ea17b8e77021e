"""Seeded inputs for the benchmark workloads, with their expected results.

The generator builds bundles from the public `evrc.core_model` types and
writes them with `bundle_to_dict`, so the files are ordinary case
directories. The expected gate decisions, RAV sums and fee-share windows are
derived here from the documented rule tables, never by calling the engine,
so the output check compares two independent derivations.
"""

from __future__ import annotations

import csv
import decimal
import json
import random
import shutil
from decimal import Decimal
from pathlib import Path

from evrc.core_model import (
    DENOMINATORS_SCHEMA_VERSION,
    FLOWS_SCHEMA_VERSION,
    ROUTES_SCHEMA_VERSION,
    SOURCES_SCHEMA_VERSION,
    AnalysisUnit,
    BtcBlockRow,
    CaseBundle,
    CriticalRecipient,
    Deductions,
    DenominatorStatus,
    EvidenceGrade,
    EvidenceSource,
    Landing,
    Motive,
    NumeratorConfig,
    Period,
    PeriodBasis,
    RecipientClass,
    RewardDenominator,
    Route,
    RouteChecks,
    RouteKind,
    TriState,
    UnitKind,
    ValueFlow,
    bundle_to_dict,
)

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CASES = ROOT / "cases"
SHIPPED_DIGESTS = Path(__file__).resolve().parent / "shipped_digests.json"

# Sizes in the order each cycle of a run codes them; every run codes whole
# cycles, so each size keeps its share of the samples. The shares are chosen
# so that op_ms.p50 and op_ms.p90 each fall in the middle of one size group:
# the 1000-flow group holds ranks 40-60% of a run's op times and the
# 4000-flow group ranks 80-100%. Each quantile is then about the median of
# one group, not the edge between two groups, whose op times differ by up to
# 2x. The smallest and largest sizes run back to back, so per_item_growth
# compares them within one phase of the host's speed.
SYNTHETIC_FLOWS = (250, 4000, 354, 2828, 500, 1000, 4000, 707, 1414, 1000)
SYNTHETIC_SIZES = tuple(dict.fromkeys(SYNTHETIC_FLOWS))
# The same placement: 20k rows at ranks 40-60%, 40k rows at ranks 80-100%.
BLOCK_ROWS = (10_000, 40_000, 14_142, 28_284, 20_000)
# Copies of the eight shipped cases per `evrc code --cases` batch. A single
# copy is today's real traffic, so it makes up most of the cycle.
SHIPPED_COPIES = (1, 4, 1, 2, 1)

ROUTED_SHARE = 0.7
FEESHARE_WINDOW = 144
SATS = Decimal("1e-8")

# Documented band table and downgrades (README: Case bundles).
_BASE_BAND = {
    RouteKind.NONE: Decimal("0"),
    RouteKind.VOLUNTARY_DISCRETIONARY: Decimal("0.25"),
    RouteKind.GOVERNANCE_MEDIATED: Decimal("0.5"),
    RouteKind.CONTRACTUAL_PLATFORM_RULE: Decimal("0.75"),
    RouteKind.PROTOCOL_ENFORCED: Decimal("1.0"),
}
_ADMISSIBLE_MOTIVES = {Motive.USE_ORIENTED, Motive.FINANCIAL_SERVICE, Motive.MIXED}


def expected_band(route: Route) -> Decimal:
    band = _BASE_BAND[route.route_kind]
    if route.route_kind is RouteKind.GOVERNANCE_MEDIATED and route.escrowed_or_executed:
        band = Decimal("0.75")
    if route.checks.enforceability is TriState.NO:
        band = min(band, Decimal("0.25"))
    elif route.checks.enforceability is TriState.UNKNOWN:
        band = min(band, Decimal("0.5"))
    if route.checks.auditability is not TriState.YES:
        band = min(band, Decimal("0.25"))
    return band


def expected_decision(flow: ValueFlow, route: Route | None, period: str) -> str:
    """The gate decision the documented rules give: "a", "r" or "s"."""
    if route is not None and route.source_gap and route.checks.all_unknown():
        return "s"
    if route is None or expected_band(route) == 0:
        return "r"
    if route.checks.beneficiary_specificity is not TriState.YES:
        return "r"
    if flow.motive not in _ADMISSIBLE_MOTIVES or flow.landing is Landing.BURN:
        return "r"
    return "a" if flow.period_label == period else "r"


def expected_gating(bundle: CaseBundle) -> dict:
    routes = {r.flow_id: r for r in bundle.routes}
    decisions = []
    weighted = unweighted = Decimal(0)
    for flow in bundle.flows:
        route = routes.get(flow.id)
        letter = expected_decision(flow, route, bundle.analysis_period_label)
        decisions.append(letter)
        if letter == "a":
            weighted += flow.amount * expected_band(route)
            unweighted += flow.amount
    return {"decisions": "".join(decisions), "flow_ids": [f.id for f in bundle.flows],
            "rav_weighted": str(weighted), "rav_unweighted": str(unweighted)}


def write_case(bundle: CaseBundle, case_dir: Path) -> None:
    """Write `bundle` as an ordinary case directory."""
    data = bundle_to_dict(bundle)
    case = data["case"]
    files = {
        "flows.json": {"schema_version": FLOWS_SCHEMA_VERSION, "flows": data["flows"]},
        "routes.json": {"schema_version": ROUTES_SCHEMA_VERSION, "routes": data["routes"]},
        "sources.json": {"schema_version": SOURCES_SCHEMA_VERSION,
                         "sources": data["sources"]},
        "denominators.json": {"schema_version": DENOMINATORS_SCHEMA_VERSION,
                              "denominators": data["denominators"]},
    }
    case_dir.mkdir(parents=True)
    if bundle.block_rows:
        case["row_files"] = [{"path": "rows/blocks.csv", "kind": "btc_blocks"}]
        (case_dir / "rows").mkdir()
        csv_path = case_dir / "rows" / "blocks.csv"
        with csv_path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["height", "fees", "subsidy"])
            writer.writeheader()
            writer.writerows(data["block_rows"])
    files["case.json"] = case
    for name, doc in files.items():
        (case_dir / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")


def _amount(rng: random.Random) -> Decimal:
    return Decimal(rng.randint(1, 10**9)).scaleb(-2)


def synthetic_bundle(seed: int, n_flows: int, group: int) -> CaseBundle:
    """A valid case of `n_flows` flows, exactly `ROUTED_SHARE` of them routed.

    Motives, landings, route kinds, tri-states and source gaps are drawn
    uniformly; the denominator status rotates across the size groups.
    """
    rng = random.Random(f"synthetic:{seed}:{n_flows}")
    tri = list(TriState)
    unit = AnalysisUnit(id="u0", kind=rng.choice(list(UnitKind)),
                        boundary_note="synthetic unit", is_mixed=False)
    recipient = CriticalRecipient(id="w0", unit_id="u0",
                                  recipient_class=rng.choice(list(RecipientClass)),
                                  function_note="synthetic recipient", is_specified=True)
    periods = (
        Period("P1", "2024-01-01T00:00:00+00:00", "2025-01-01T00:00:00+00:00",
               PeriodBasis.WALL_CLOCK),
        Period("P0", "2023-01-01T00:00:00+00:00", "2024-01-01T00:00:00+00:00",
               PeriodBasis.WALL_CLOCK),
    )
    routed = set(rng.sample(range(n_flows), round(n_flows * ROUTED_SHARE)))
    flows, routes = [], []
    for i in range(n_flows):
        landing = rng.choice(list(Landing))
        deductions = Deductions()
        if rng.random() < 0.2:
            deductions = Deductions(rebates=_amount(rng).scaleb(-3),
                                    emissions=_amount(rng).scaleb(-3),
                                    wash_self_dealing=_amount(rng).scaleb(-3))
        flows.append(ValueFlow(
            id=f"f{i:05d}", amount=_amount(rng), currency="USD",
            period_label="P0" if rng.random() < 0.1 else "P1",
            motive=rng.choice(list(Motive)), landing=landing,
            payer_note="synthetic payer",
            landing_note="synthetic landing" if landing is Landing.OTHER else "",
            deductions=deductions, intended_numerator=rng.random() < 0.5,
            pays_recipient=rng.random() < 0.3,
        ))
        if i in routed:
            if rng.random() < 0.1:
                checks = RouteChecks(*[TriState.UNKNOWN] * 4)
            else:
                checks = RouteChecks(*(rng.choice(tri) for _ in range(4)))
            routes.append(Route(
                id=f"r{i:05d}", flow_id=f"f{i:05d}", recipient_id="w0",
                route_kind=rng.choice(list(RouteKind)), checks=checks,
                escrowed_or_executed=rng.random() < 0.3,
                source_gap=rng.random() < 0.3,
            ))
    sources = tuple(
        EvidenceSource(id=f"s{g.value}", grade=g, capture_date="2025-01-01T00:00:00+00:00",
                       locator="synthetic source", fields_and_dates_specified=True)
        for g in EvidenceGrade
    )
    status = list(DenominatorStatus)[(seed + group) % len(DenominatorStatus)]
    low = _amount(rng) * 100
    denominator = RewardDenominator(
        "w0", "P1", status,
        value=low if status is DenominatorStatus.MEASURED else None,
        bound_low=low if status is DenominatorStatus.BOUNDED else None,
        bound_high=low * 2 if status is DenominatorStatus.BOUNDED else None,
        source_ids=("sG1",))
    return CaseBundle(
        case_id=f"synthetic-{n_flows}", currency="USD", unit=unit, recipient=recipient,
        periods=periods, analysis_period_label="P1", flows=tuple(flows),
        routes=tuple(routes), sources=sources, denominators=(denominator,),
        numerator_config=NumeratorConfig(alpha=Decimal("0.5"), note="synthetic haircut"),
    )


def block_bundle(seed: int, n_rows: int) -> CaseBundle:
    """A bitcoin-shaped case over `n_rows` contiguous blocks.

    Fees are random satoshi amounts and the subsidy is 3.125 BTC, except in
    three all-zero stretches longer than the window, whose windows are
    zero-total and must be skipped.
    """
    rng = random.Random(f"blocks:{seed}:{n_rows}")
    start = 840_000
    subsidy = Decimal("3.125")
    zero = set()
    for k in range(3):
        first = (k + 1) * n_rows // 4 + rng.randint(0, 500)
        zero.update(range(first, first + FEESHARE_WINDOW + rng.randint(10, 60)))
    rows = tuple(
        BtcBlockRow(height=start + i, fees=Decimal(0), subsidy=Decimal(0)) if i in zero
        else BtcBlockRow(height=start + i,
                         fees=Decimal(rng.randint(0, 2 * 10**8)) * SATS, subsidy=subsidy)
        for i in range(n_rows)
    )
    fees = sum((r.fees for r in rows), Decimal(0))
    subsidies = sum((r.subsidy for r in rows), Decimal(0))
    checks = RouteChecks(TriState.YES, TriState.YES, TriState.NO, TriState.YES)
    return CaseBundle(
        case_id=f"blocks-{n_rows}", currency="BTC",
        unit=AnalysisUnit(id="btc", kind=UnitKind.CHAIN, boundary_note="base layer",
                          is_mixed=False),
        recipient=CriticalRecipient(id="w-miners", unit_id="btc",
                                    recipient_class=RecipientClass.MINERS,
                                    function_note="proof-of-work miners", is_specified=True),
        periods=(Period("window", start, start + n_rows, PeriodBasis.BLOCK_HEIGHT),),
        analysis_period_label="window",
        flows=(
            ValueFlow(id="f-fees", amount=fees, currency="BTC", period_label="window",
                      motive=Motive.USE_ORIENTED, landing=Landing.PROTOCOL,
                      intended_numerator=True),
            ValueFlow(id="f-subsidy", amount=subsidies, currency="BTC",
                      period_label="window", motive=Motive.SUBSIDY_LOOP,
                      landing=Landing.NEW_ISSUANCE, pays_recipient=True),
        ),
        routes=(Route(id="r-coinbase", flow_id="f-fees", recipient_id="w-miners",
                      route_kind=RouteKind.PROTOCOL_ENFORCED, checks=checks),),
        sources=(EvidenceSource(id="s-blocks", grade=EvidenceGrade.G2,
                                capture_date="2025-01-01T00:00:00+00:00",
                                locator="synthetic block rows",
                                fields_and_dates_specified=True),),
        denominators=(RewardDenominator("w-miners", "window", DenominatorStatus.MEASURED,
                                        value=fees + subsidies, source_ids=("s-blocks",)),),
        block_rows=rows, feeshare_window=FEESHARE_WINDOW,
    )


def expected_fee_share(rows: tuple[BtcBlockRow, ...], window: int) -> dict:
    """Fee share per window from integer prefix sums, independent of the engine."""
    fee_prefix, total_prefix = [0], [0]
    for r in rows:
        fee = int(r.fees / SATS)
        fee_prefix.append(fee_prefix[-1] + fee)
        total_prefix.append(total_prefix[-1] + fee + int(r.subsidy / SATS))
    skipped, best, best_start = [], None, None
    for i in range(len(rows) - window + 1):
        fee = fee_prefix[i + window] - fee_prefix[i]
        total = total_prefix[i + window] - total_prefix[i]
        if total == 0:
            skipped.append(rows[i].height)
        elif best is None or fee * best[1] > best[0] * total:
            best, best_start = (fee, total), rows[i].height
    with decimal.localcontext(decimal.Context(prec=50)):
        max_share = Decimal(best[0]) / Decimal(best[1])
    return {"windows": len(rows) - window + 1, "skipped": skipped,
            "max_share": str(max_share), "max_window_start": best_start}


def _generate(root: Path, names_and_bundles) -> list[dict]:
    cases = []
    for name, bundle in names_and_bundles:
        case_dir = root / name
        expected = expected_gating(bundle)
        if bundle.block_rows:
            expected["fee_share"] = expected_fee_share(bundle.block_rows,
                                                       bundle.feeshare_window)
        write_case(bundle, case_dir)
        cases.append({"path": str(case_dir), "group": name,
                      "items": len(bundle.flows) + len(bundle.block_rows),
                      "expected": expected})
    return cases


def generate_synthetic(root: Path, seed: int) -> list[dict]:
    """One case per size; returns the cycle, which repeats some of them."""
    by_size = {case["items"]: case for case in _generate(
        root, ((f"flows-{n:05d}", synthetic_bundle(seed, n, g))
               for g, n in enumerate(SYNTHETIC_SIZES)))}
    return [by_size[n] for n in SYNTHETIC_FLOWS]


def generate_blocks(root: Path, seed: int) -> list[dict]:
    return _generate(root, ((f"rows-{n:06d}", block_bundle(seed, n)) for n in BLOCK_ROWS))


def _count_items(case_dir: Path) -> int:
    items = len(json.loads((case_dir / "flows.json").read_text())["flows"])
    for entry in json.loads((case_dir / "case.json").read_text()).get("row_files", []):
        with (case_dir / entry["path"]).open(newline="") as fh:
            items += sum(1 for _ in csv.DictReader(fh))
    return items


def copy_shipped(root: Path) -> list[dict]:
    """One batch directory per distinct copy count, each holding that many
    copies of the eight shipped cases."""
    batches = []
    shipped = sorted(p for p in SHIPPED_CASES.iterdir() if p.is_dir())
    items = sum(_count_items(p) for p in shipped)
    for copies in sorted(set(SHIPPED_COPIES)):
        batch = root / f"copies-{copies}"
        names = {}
        for k in range(copies):
            for case_dir in shipped:
                name = f"{case_dir.name}-{k}"
                shutil.copytree(case_dir, batch / "in" / name)
                names[f"{name}.report.json"] = case_dir.name
        batches.append({"path": str(batch), "group": f"copies-{copies}",
                        "items": items * copies, "reports": names})
    return batches

