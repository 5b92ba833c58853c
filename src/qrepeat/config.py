"""Tolerance and period cap, the one policy behind every exact verdict.

Both live in a frozen :class:`Settings` held in a context variable.  They
change only inside a :func:`settings` block, and only for the thread or
asyncio task that runs it; a new thread starts from the defaults.
:func:`check_period` is the only reader of the cap.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

from .errors import PeriodCapExceeded


@dataclass(frozen=True, slots=True)
class Settings:
    tolerance: float = 1e-12  # coefficients and deviations at or below it count as zero
    period_cap: int = 10**6  # largest period index sets and equality checks may build

    def __post_init__(self):
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")
        object.__setattr__(self, "period_cap", operator.index(self.period_cap))
        if self.period_cap < 1:
            raise ValueError("period cap must be positive")


_active: ContextVar[Settings] = ContextVar("qrepeat.settings", default=Settings())
current = _active.get  # the active Settings; each public entry point reads it once


def check_period(period: int, message: str) -> int:
    """``period``, if the active period cap allows it; otherwise
    PeriodCapExceeded with ``message`` formatted with ``period`` and ``cap``."""
    cap = _active.get().period_cap
    if period > cap:
        raise PeriodCapExceeded(message.format(period=period, cap=cap))
    return period


@contextmanager
def settings(tolerance: float | None = None, period_cap: int | None = None) -> Iterator[Settings]:
    """Run the block with the given values, the active ones where None; yields
    the new Settings and restores the previous ones on return or raise."""
    active = _active.get()
    new = Settings(active.tolerance if tolerance is None else tolerance,
                   active.period_cap if period_cap is None else period_cap)
    token = _active.set(new)
    try:
        yield new
    finally:
        _active.reset(token)
