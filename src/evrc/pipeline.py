"""End-to-end case pipeline in the fixed coding order.

Runs on a `ValidCase` only: motive screen and numerator guardrail, band
derivation, per-flow admissibility, coverage (admissibility always precedes
coverage), breakpoint classification, claim gates, report rendering. The
report's eight-step coding trace mirrors this order so an auditor can confirm it.
"""

from __future__ import annotations

from collections import namedtuple

from .admissibility import admit_flow, assign_band, classify_breakpoints
from .claims import gate_all_claims, render_report
from .core_model import (
    ValidCase,
    # Not called: `load_case` validates each bundle once. The name stays
    # because perfbench/tracer.py wraps `evrc.pipeline.validate_bundle`.
    validate_bundle,  # noqa: F401
    without_cycle_collection,
)
from .coverage import btc_fee_share, coverage_for_bundle
from .errors import GateOrderingError
from .numerator import net_external_value


class PipelineResult(namedtuple("PipelineResult", "bundle bands numerator outcomes coverage "
                                                  "breakpoints verdicts report")):
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

    fee_share = None
    if bundle.block_rows:
        # A case's window of 0 takes the default, as an absent one does.
        fee_share = btc_fee_share(bundle.block_rows, bundle.feeshare_window or None)
    report = render_report(bundle, coverage, breakpoints, verdicts, numerator, fee_share)
    return PipelineResult(bundle=bundle, bands=bands, numerator=numerator,
                          outcomes=outcomes, coverage=coverage,
                          breakpoints=breakpoints, verdicts=verdicts, report=report)
