"""Business-day calendars, price series, returns, and event-date alignment.

A calendar is simply the ordered set of dates on which an asset has an
observation; no external holiday table is consulted.  All types are
immutable after construction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date
from enum import Enum

import numpy as np

from .errors import CalendarError, SeriesError


class Transform(Enum):
    """How a series is transformed before differencing."""

    LEVEL = "level"
    LOG = "log"


@dataclass(frozen=True)
class TradingCalendar:
    """Strictly increasing, non-empty sequence of observation dates."""

    dates: tuple[date, ...]
    _positions: dict[date, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dates = tuple(self.dates)
        object.__setattr__(self, "dates", dates)
        if not dates:
            raise CalendarError("calendar must contain at least one date")
        for a, b in zip(dates, dates[1:]):
            if a >= b:
                raise CalendarError(f"calendar dates not strictly increasing at {b}")
        object.__setattr__(self, "_positions", {d: i for i, d in enumerate(dates)})

    def __len__(self) -> int:
        return len(self.dates)

    def __contains__(self, d: date) -> bool:
        return d in self._positions

    def position(self, d: date) -> int:
        try:
            return self._positions[d]
        except KeyError:
            raise CalendarError(f"{d} is not a calendar date") from None


def align_event_date(calendar: TradingCalendar, d: date) -> date:
    """Nearest business day on or before ``d``.

    Raises CalendarError if ``d`` precedes the first calendar date.
    """
    i = bisect_right(calendar.dates, d)
    if i == 0:
        raise CalendarError(f"{d} precedes the first calendar date {calendar.dates[0]}")
    return calendar.dates[i - 1]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PriceSeries:
    """One asset's observations on its own business-day calendar.

    ``values`` holds one finite real per calendar date: a yield in percent
    (Level) or a price in currency units (Log).
    """

    asset_id: str
    calendar: TradingCalendar
    values: np.ndarray
    transform: Transform = Transform.LEVEL

    def __post_init__(self):
        v = _readonly(self.values)
        object.__setattr__(self, "values", v)
        if len(v) != len(self.calendar):
            raise SeriesError(
                f"{self.asset_id}: {len(v)} values for {len(self.calendar)} dates"
            )
        if not np.all(np.isfinite(v)):
            raise SeriesError(f"{self.asset_id}: non-finite value in series")
        if self.transform is Transform.LOG and np.any(v <= 0):
            raise SeriesError(f"{self.asset_id}: log transform requires positive values")

    def __len__(self) -> int:
        return len(self.values)

    def transformed(self) -> np.ndarray:
        """Values after applying the series transform (identity or ln)."""
        if self.transform is Transform.LOG:
            return np.log(self.values)
        return np.asarray(self.values)


@dataclass(frozen=True)
class ReturnSeries:
    """Daily returns of a PriceSeries: first difference of its transformed
    values, dated at the later of each consecutive observation pair."""

    asset_id: str
    calendar: TradingCalendar
    returns: np.ndarray
    transform: Transform = Transform.LEVEL

    def __post_init__(self):
        r = _readonly(self.returns)
        object.__setattr__(self, "returns", r)
        if len(r) != len(self.calendar):
            raise SeriesError(
                f"{self.asset_id}: {len(r)} returns for {len(self.calendar)} dates"
            )

    def __len__(self) -> int:
        return len(self.returns)


def to_returns(series: PriceSeries) -> ReturnSeries:
    """Consecutive-observation differences of the transformed series.

    "Consecutive" means consecutive observed business days; gaps in the
    source data are spanned by a single return.
    """
    if len(series) < 2:
        raise SeriesError(f"{series.asset_id}: need at least 2 observations for returns")
    f = series.transformed()
    return ReturnSeries(
        asset_id=series.asset_id,
        calendar=TradingCalendar(series.calendar.dates[1:]),
        returns=np.diff(f),
        transform=series.transform,
    )
