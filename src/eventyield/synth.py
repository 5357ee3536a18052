"""Synthetic market generator: seeded random walks on a weekday calendar
with injected event effects of known size, used as a correctness oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Mapping

import numpy as np

from .errors import SeriesError
from .events import EventSet, GroupAssignment, labelled_groups
from .series import PriceSeries, TradingCalendar, Transform, align_event_date


@dataclass(frozen=True)
class SynthSpec:
    """Random-walk settings.  ``sigma`` and ``drift`` are in the units of
    the series (percent points per day for a Level series)."""

    length: int
    sigma: float
    drift: float = 0.0
    seed: int = 0
    start_value: float = 4.0
    start_date: date = date(2022, 1, 3)
    asset_id: str = "synthetic"

    def __post_init__(self):
        if self.sigma < 0:
            raise SeriesError("sigma must be >= 0")
        if self.length < 2:
            raise SeriesError("length must be >= 2")
        # the seed is the 128-bit Philox key
        if self.seed < 0:
            raise SeriesError("seed must be >= 0")
        if self.seed >= 2**128:
            raise SeriesError("seed must be < 2**128")


def weekday_calendar(start: date, length: int) -> TradingCalendar:
    """``length`` consecutive Monday-Friday dates from ``start`` onward."""
    dates = []
    d = start
    while len(dates) < length:
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    return TradingCalendar(tuple(dates))


def generate_walk(spec: SynthSpec) -> PriceSeries:
    """y_t = y_{t-1} + drift + sigma * z_t with standard normal innovations
    from a counter-based generator keyed on the seed."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    z = rng.standard_normal(spec.length - 1)
    steps = spec.drift + spec.sigma * z
    values = spec.start_value + np.concatenate([[0.0], np.cumsum(steps)])
    return PriceSeries(
        asset_id=spec.asset_id,
        calendar=weekday_calendar(spec.start_date, spec.length),
        values=values,
        transform=Transform.LEVEL,
    )


def inject_effects(
    series: PriceSeries,
    groups: GroupAssignment | EventSet,
    profile: Mapping[str, Mapping[int, float]],
) -> PriceSeries:
    """Add ``profile[label][s]`` to the day-(t_i + s) return of every event
    in the labeled group; overlapping injections add.

    Effects are applied on the transformed scale, so a Level series gains
    level shifts and a Log series multiplicative ones.
    """
    cal = series.calendar
    f = series.transformed().copy()
    for label, events in labelled_groups(groups):
        effect = profile.get(label, {})
        for e in events:
            p = cal.position(align_event_date(cal, e.date))
            for s, delta in effect.items():
                q = p + s
                if q < 1 or q >= len(cal):
                    raise SeriesError(
                        f"event {e.name} on {e.date}: injected day {s:+d} leaves the series"
                    )
                # bumping the return into position q shifts all later levels
                f[q:] += delta
    values = np.exp(f) if series.transform is Transform.LOG else f
    return PriceSeries(
        asset_id=series.asset_id,
        calendar=cal,
        values=values,
        transform=series.transform,
    )
