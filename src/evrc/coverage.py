"""Stage two: route-admissible value, closure ratios, reward decompositions.

The stage-one precedence is enforced mechanically: `compute_rav` refuses to
run unless every flow carries a gate outcome, and `compute_rcr` only accepts
the result object `compute_rav` produces, so a closure ratio can never be
computed from ungated numbers.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from typing import NamedTuple

from .core_model import (
    DECIMAL_CONTEXT,
    EXACT_CONTEXT,
    AnalysisUnit,
    BtcBlockRow,
    CaseBundle,
    ClaimBlockReason,
    CriticalRecipient,
    DenominatorStatus,
    EthRewardRow,
    GateDecision,
    GateOutcome,
    RewardDenominator,
    ValueFlow,
    order_block_reasons,
)
from .errors import DataError, GateOrderingError

__all__ = [
    "BtcBlockRow", "EthRewardRow",
    "RavResult", "RcrPoint", "RcrInterval", "RcrBlocked", "CoverageResult",
    "WindowShare", "FeeShareResult",
    "compute_rav", "compute_rcr", "eth_validator_reward", "btc_fee_share",
]


class RavResult(NamedTuple):
    """Route-admissible value; only producible by `compute_rav` after gating."""

    rav_weighted: Decimal
    rav_unweighted: Decimal
    accepted_flow_ids: tuple[str, ...]


class RcrPoint(NamedTuple):
    value: Decimal


class RcrInterval(NamedTuple):
    low: Decimal
    high: Decimal


class RcrBlocked(NamedTuple):
    reasons: tuple[ClaimBlockReason, ...]


class CoverageResult(NamedTuple):
    rav: RavResult
    rcr: RcrPoint | RcrInterval | RcrBlocked
    denominator: RewardDenominator


def compute_rav(outcomes: list[GateOutcome] | tuple[GateOutcome, ...] | None,
                flows: tuple[ValueFlow, ...]) -> RavResult:
    """Sum accepted flows, exactly: band-weighted and unweighted.

    Rejected and source-blocked flows contribute exactly zero.
    """
    if outcomes is None:
        raise GateOrderingError(
            "route-admissibility gating must run before coverage")
    by_flow = {o.flow_id: o for o in outcomes}
    missing = [f.id for f in flows if f.id not in by_flow]
    if missing:
        raise GateOrderingError(
            f"coverage requires a gate outcome for every flow; missing: {missing}")

    weighted = Decimal(0)
    unweighted = Decimal(0)
    accepted: list[str] = []
    with decimal.localcontext(EXACT_CONTEXT):
        for f in flows:
            o = by_flow[f.id]
            if o.decision is not GateDecision.ACCEPTED:
                continue
            if o.band_e is None:
                raise GateOrderingError(
                    f"accepted outcome for flow {f.id!r} lacks a derived band")
            weighted += f.amount * o.band_e
            unweighted += f.amount
            accepted.append(f.id)

    return RavResult(
        rav_weighted=weighted,
        rav_unweighted=unweighted,
        accepted_flow_ids=tuple(accepted),
    )


def compute_rcr(rav: RavResult, denom: RewardDenominator,
                recipient: CriticalRecipient, unit: AnalysisUnit,
                ) -> RcrPoint | RcrInterval | RcrBlocked:
    """Closure ratio against the reward denominator, or a blocked marker.

    Blocked when the recipient is unspecified, the unit is mixed, or the
    denominator is unavailable. Bounded denominators yield an interval.
    Validation guarantees a measured value > 0 and bounds with
    0 < bound_low <= bound_high.
    """
    if not isinstance(rav, RavResult):
        raise GateOrderingError(
            "compute_rcr requires the RavResult produced by compute_rav; "
            "raw numbers would bypass the admissibility gate")

    reasons: list[ClaimBlockReason] = []
    if not recipient.is_specified:
        reasons.append(ClaimBlockReason.RECIPIENT_UNSPECIFIED)
    if unit.is_mixed:
        reasons.append(ClaimBlockReason.UNIT_MIXED)
    if denom.status is DenominatorStatus.UNAVAILABLE:
        reasons.append(ClaimBlockReason.DENOMINATOR_UNAVAILABLE)
    if reasons:
        return RcrBlocked(order_block_reasons(reasons))

    with decimal.localcontext(DECIMAL_CONTEXT):
        if denom.status is DenominatorStatus.BOUNDED:
            return RcrInterval(low=rav.rav_weighted / denom.bound_high,
                               high=rav.rav_weighted / denom.bound_low)
        return RcrPoint(value=rav.rav_weighted / denom.value)


def eth_validator_reward(row: EthRewardRow) -> Decimal:
    """Validator-side reward, exactly: tips + proposer MEV + issuance - penalties.

    Base-fee burn never enters the reward; reports take it from the row,
    whose components `EthRewardRow.from_raw` keeps >= 0.
    """
    with decimal.localcontext(EXACT_CONTEXT):
        return (row.priority_fees_to_proposer + row.proposer_mev
                + row.consensus_issuance - row.penalties_slashing)


class WindowShare(NamedTuple):
    start_height: int
    share: Decimal


class FeeShareResult(NamedTuple):
    window: int
    shares: tuple[WindowShare, ...]
    max_share: Decimal | None
    max_window_start: int | None
    skipped_starts: tuple[int, ...]


def btc_fee_share(rows: list[BtcBlockRow] | tuple[BtcBlockRow, ...],
                  window: int) -> FeeShareResult:
    """Rolling fee share over contiguous block rows.

    share = sum(fees) / (sum(fees) + sum(subsidy)) per window: the sums are
    exact and only the share rounds, to 50 digits. Zero-total windows are
    skipped and flagged. Ties on the maximum resolve to the lowest start height.
    """
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    if len(rows) < window:
        raise DataError(
            f"window of {window} blocks exceeds the {len(rows)} rows provided")
    for prev, cur in zip(rows, rows[1:]):
        if cur.height != prev.height + 1:
            raise DataError(f"gap between heights {prev.height} and {cur.height}")

    shares: list[WindowShare] = []
    skipped: list[int] = []
    max_share: Decimal | None = None
    max_start: int | None = None
    divide = DECIMAL_CONTEXT.divide  # the sums are exact; only the share rounds

    with decimal.localcontext(EXACT_CONTEXT):
        fee_sum = sum((r.fees for r in rows[:window]), Decimal(0))
        sub_sum = sum((r.subsidy for r in rows[:window]), Decimal(0))
        for i in range(len(rows) - window + 1):
            if i > 0:
                # The sliding update is exact here, so no rounding carries
                # into later windows.
                fee_sum += rows[i + window - 1].fees - rows[i - 1].fees
                sub_sum += rows[i + window - 1].subsidy - rows[i - 1].subsidy
            start = rows[i].height
            total = fee_sum + sub_sum
            if total == 0:
                skipped.append(start)
                continue
            share = divide(fee_sum, total)
            shares.append(WindowShare(start_height=start, share=share))
            if max_share is None or share > max_share:
                max_share = share
                max_start = start

    return FeeShareResult(window=window, shares=tuple(shares), max_share=max_share,
                          max_window_start=max_start, skipped_starts=tuple(skipped))


def coverage_for_bundle(bundle: CaseBundle,
                        outcomes: list[GateOutcome] | tuple[GateOutcome, ...],
                        ) -> CoverageResult:
    """Convenience wrapper: RAV then RCR for a validated, gated bundle,
    which has exactly one denominator for its recipient and period."""
    denom = bundle.case_denominator()
    rav = compute_rav(outcomes, bundle.flows)
    rcr = compute_rcr(rav, denom, bundle.recipient, bundle.unit)
    return CoverageResult(rav=rav, rcr=rcr, denominator=denom)
