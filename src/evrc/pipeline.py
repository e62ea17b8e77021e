"""End-to-end case pipeline in the fixed coding order.

Runs on a `ValidCase` only: motive screen and numerator guardrail, band
derivation, per-flow admissibility, coverage (admissibility always precedes
coverage), breakpoint classification, claim gates, report rendering. The
eight-step trace mirrors the coding order so an auditor can confirm ordering.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from operator import attrgetter

from .admissibility import admit_flow, assign_band, classify_breakpoints
from .claims import gate_all_claims, render_report
from .core_model import (
    GateDecision,
    Landing,
    Motive,
    ValidCase,
    canonical_decimal,
    # Not called: `load_case` validates each bundle once. The name stays
    # because perfbench/tracer.py wraps `evrc.pipeline.validate_bundle`.
    validate_bundle,  # noqa: F401
    without_cycle_collection,
)
from .coverage import FeeShareResult, btc_fee_share, coverage_for_bundle, eth_validator_reward
from .errors import GateOrderingError
from .numerator import net_external_value


class PipelineResult(namedtuple("PipelineResult", "bundle bands numerator outcomes coverage "
                                                  "breakpoints verdicts report trace")):
    __slots__ = ()


@without_cycle_collection
def run_case(bundle: ValidCase) -> PipelineResult:
    """Execute the full coding order on the case `validate_bundle` passed."""
    if not isinstance(bundle, ValidCase):
        raise GateOrderingError(
            "run_case requires the ValidCase produced by validate_bundle; "
            "an unvalidated bundle would bypass the schema gate")
    numerator = net_external_value(bundle.flows, bundle.numerator_config)

    bands = {r.id: assign_band(r) for r in bundle.routes}

    period_label = bundle.analysis_period_label
    outcomes = tuple(
        admit_flow(
            f, route, band=bands[route.id] if route is not None else None,
            case_period_label=period_label,
        )
        for f in bundle.flows
        for route in (bundle.route_for_flow(f.id),)
    )

    coverage = coverage_for_bundle(bundle, outcomes)
    breakpoints = classify_breakpoints(bundle, coverage)
    verdicts = gate_all_claims(bundle, coverage, breakpoints)

    eth_rows = [(row, eth_validator_reward(row)) for row in bundle.eth_reward_rows]
    fee_share: FeeShareResult | None = None
    if bundle.block_rows:
        # A case's window of 0 takes the default, as an absent one does.
        fee_share = btc_fee_share(bundle.block_rows, bundle.feeshare_window or None)

    motive_counts = Counter(f.motive for f in bundle.flows)
    landing_counts = Counter(f.landing for f in bundle.flows)
    decisions = Counter(map(attrgetter("shape.decision"), outcomes))
    allowed_claims = sum(1 for v in verdicts if v.allowed)
    bp_list = ",".join(b.code.value for b in breakpoints) or "none"
    motive_summary = " ".join(f"{m.value}={motive_counts[m]}" for m in Motive)
    landing_summary = " ".join(
        f"{l.value}={landing_counts[l]}" for l in Landing if landing_counts[l])
    best = bundle.best_evidence_grade()

    trace = (
        f"1. analysis unit: {bundle.unit.id} ({bundle.unit.kind.value}"
        f"{', mixed' if bundle.unit.is_mixed else ''})",
        f"2. critical recipient: {bundle.recipient.id} "
        f"({bundle.recipient.recipient_class.value}"
        f"{'' if bundle.recipient.is_specified else ', unspecified'})",
        f"3. payment motives screened: {motive_summary}; net external value "
        f"{canonical_decimal(numerator.value)}",
        f"4. value landing recorded: {landing_summary or 'none'}",
        f"5. route bands assigned: {len(bands)} route(s)",
        f"6. route admissibility decided: "
        f"accepted={decisions[GateDecision.ACCEPTED]} "
        f"rejected={decisions[GateDecision.REJECTED]} "
        f"source_blocked={decisions[GateDecision.SOURCE_BLOCKED]}",
        f"7. reward denominator {coverage.denominator.status.value}; coverage "
        f"computed (RAV weighted {canonical_decimal(coverage.rav.rav_weighted)})",
        f"8. evidence graded (best={best.value if best else 'none'}); breakpoints="
        f"{bp_list}; claims allowed={allowed_claims} "
        f"blocked={len(verdicts) - allowed_claims}",
    )

    report = render_report(bundle, coverage, breakpoints, verdicts,
                           numerator, list(trace),
                           eth_rows=eth_rows, fee_share=fee_share)
    return PipelineResult(bundle=bundle, bands=bands, numerator=numerator,
                          outcomes=outcomes, coverage=coverage,
                          breakpoints=breakpoints, verdicts=verdicts,
                          report=report, trace=trace)
