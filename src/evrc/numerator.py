"""Screening guardrail for the external-use numerator.

Computes the net external-use value (use payments plus financial-service
payments plus a disclosed haircut of mixed payments, minus rebates, emissions
and wash/self-dealing) and the per-class breakdown. This figure is a coding
guardrail: route-admissible value is computed from per-flow amounts, not from
this total, and reports carry both.
"""

from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple

from .core_model import Motive, NumeratorConfig, ValueFlow
from .errors import ConfigurationError, InputError

__all__ = ["NumeratorConfig", "NumeratorResult", "require_disclosed_alpha",
           "net_external_value"]


_ZERO = Decimal(0)
_NO_ALPHA = "mixed-motive flows are present but no disclosed alpha was configured"


def require_disclosed_alpha(flows: list[ValueFlow] | tuple[ValueFlow, ...],
                            config: NumeratorConfig | None) -> None:
    """Mixed-motive flows need a disclosed alpha; there is no silent default."""
    if config is None and any(f.motive is Motive.MIXED for f in flows):
        raise ConfigurationError(_NO_ALPHA)


class NumeratorResult(NamedTuple):
    value: Decimal
    alpha: Decimal | None
    class_sums: dict[Motive, Decimal]
    mixed_after_haircut: Decimal
    rebates: Decimal
    emissions: Decimal
    wash_self_dealing: Decimal
    negative_warning: bool


def net_external_value(flows: list[ValueFlow] | tuple[ValueFlow, ...],
                       config: NumeratorConfig | None) -> NumeratorResult:
    """Compute the net external-use value and its breakdown.

    The haircut alpha is mandatory (with a written note) whenever mixed-motive
    flows are present; the engine never applies a silent default. Negative
    totals are reported with a warning, never clamped.
    """
    currencies = set()
    sums: dict[Motive, Decimal] = {}  # only the motives present
    rebates = emissions = wash = _ZERO
    for f in flows:
        currencies.add(f.currency)
        motive = f.motive
        sums[motive] = sums.get(motive, _ZERO) + f.amount
        d = f.deductions
        rebates += d.rebates
        emissions += d.emissions
        wash += d.wash_self_dealing
    if len(currencies) > 1:
        raise InputError(f"flows mix currencies: {sorted(currencies)}")
    if config is None and Motive.MIXED in sums:
        raise ConfigurationError(_NO_ALPHA)
    class_sums = {m: sums.get(m, _ZERO) for m in Motive}

    alpha: Decimal | None = None
    if config is not None:
        alpha = config.alpha
        if not (0 <= alpha <= 1):
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        if not config.note.strip():
            raise ConfigurationError("alpha requires a written justification note")

    mixed_term = class_sums[Motive.MIXED] * alpha if alpha is not None else Decimal(0)
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
