"""Screening guardrail for the external-use numerator.

Computes the net external-use value (use payments plus financial-service
payments plus a disclosed haircut of mixed payments, minus rebates, emissions
and wash/self-dealing) and the per-class breakdown. This figure is a coding
guardrail: route-admissible value is computed from per-flow amounts, not from
this total, and reports carry both.
"""

from __future__ import annotations

import decimal
from collections import namedtuple
from decimal import Decimal

from .core_model import EXACT_CONTEXT, Motive, NumeratorConfig, ValueFlow

_ZERO = Decimal(0)


class NumeratorResult(namedtuple("NumeratorResult", "value alpha class_sums mixed_after_haircut "
                                                    "rebates emissions wash_self_dealing "
                                                    "negative_warning")):
    __slots__ = ()


def net_external_value(flows: list[ValueFlow] | tuple[ValueFlow, ...],
                       config: NumeratorConfig | None) -> NumeratorResult:
    """Compute the net external-use value and its breakdown, exactly.

    `config` discloses alpha, in [0, 1] with a written note, whenever a
    mixed-motive flow is present: validation refuses any case without it,
    so the engine never applies a silent default. Negative totals are
    reported with a warning, never clamped.
    """
    sums: dict[Motive, Decimal] = {}  # only the motives present
    rebates = emissions = wash = _ZERO
    with decimal.localcontext(EXACT_CONTEXT):
        for f in flows:
            motive = f.motive
            sums[motive] = sums.get(motive, _ZERO) + f.amount
            d = f.deductions
            rebates += d.rebates
            emissions += d.emissions
            wash += d.wash_self_dealing
        class_sums = {m: sums.get(m, _ZERO) for m in Motive}
        alpha = config.alpha if config is not None else None
        mixed_term = class_sums[Motive.MIXED] * alpha if alpha is not None else _ZERO
        value = (class_sums[Motive.USE_ORIENTED]
                 + class_sums[Motive.FINANCIAL_SERVICE]
                 + mixed_term
                 - rebates - emissions - wash)

    return NumeratorResult(
        value=value,
        alpha=alpha,
        class_sums=class_sums,
        mixed_after_haircut=mixed_term,
        rebates=rebates,
        emissions=emissions,
        wash_self_dealing=wash,
        negative_warning=value < 0,
    )
