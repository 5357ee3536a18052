"""Placebo inference: permutation distributions for regression, LAD, and
median-change statistics, plus HAC coverage assessment.

Replications are driven by a counter-based generator (Philox) keyed on
(seed, replication index), so results are deterministic and independent of
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .design import StudySpec, build_design
from .errors import PermutationError
from .estimators import (
    Z90,
    Z95,
    _path_estimates,
    cumulative_path,
    fit_lad,
    fit_ols,
    hac_covariance,
    median_change,
)
from .events import Event, EventSet, GroupAssignment, Openness, align_events
from .series import PriceSeries, ReturnSeries, to_returns

BAND_LEVELS = (0.90, 0.95)


class Statistic(Enum):
    OLS_PATH = "ols"
    LAD_PATH = "lad"
    MEDIAN_PATH = "median"
    OLS_DIFFERENCE = "ols_diff"
    LAD_DIFFERENCE = "lad_diff"
    MEDIAN_DIFFERENCE = "median_diff"

    @property
    def is_difference(self) -> bool:
        return self.value.endswith("_diff")

    @property
    def uses_regression(self) -> bool:
        return self in (
            Statistic.OLS_PATH,
            Statistic.LAD_PATH,
            Statistic.OLS_DIFFERENCE,
            Statistic.LAD_DIFFERENCE,
        )


# Names of the path statistics, which are also the study estimators.
ESTIMATORS = tuple(s.value for s in Statistic if not s.is_difference)


@dataclass(frozen=True)
class PermutationSpec:
    """Placebo settings: replication count, statistic, window half-width,
    seed, and the group-level draw size (defaulting to the real group
    size)."""

    replications: int
    statistic: Statistic
    window: int
    seed: int
    k: int | None = None
    hac_lags: int = 30

    def __post_init__(self):
        if self.replications < 1:
            raise PermutationError("replications must be >= 1")
        if self.window < 1:
            raise PermutationError("window must be >= 1")


@dataclass(frozen=True)
class PermutationResult:
    """Observed statistic path with the placebo mean and percentile bands."""

    rel_days: np.ndarray
    observed: np.ndarray
    placebo_mean: np.ndarray
    bands: dict[float, tuple[np.ndarray, np.ndarray]]
    replication_count: int


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replication, keyed on (seed, index)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def draw_placebo(pool: Sequence[date], k: int, rng: np.random.Generator) -> EventSet:
    """k distinct pool entries, without replacement, as a placebo EventSet."""
    if k > len(pool):
        raise PermutationError(f"cannot draw {k} from a pool of {len(pool)}")
    idx = rng.choice(len(pool), size=k, replace=False)
    dates = sorted(pool[i] for i in idx)
    return _dates_to_events(dates)


def _dates_to_events(dates: Sequence[date], prefix: str = "placebo") -> EventSet:
    return EventSet(
        tuple(
            Event(date=d, name=f"{prefix}-{i}", openness=Openness.CLOSED)
            for i, d in enumerate(dates)
        )
    )


def percentile_bands(
    samples: np.ndarray, levels: Sequence[float] = BAND_LEVELS
) -> dict[float, tuple[np.ndarray, np.ndarray]]:
    """Empirical central intervals per column, by linear interpolation
    between order statistics."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    bands = {}
    for level in levels:
        lo = np.quantile(samples, (1.0 - level) / 2.0, axis=0, method="linear")
        hi = np.quantile(samples, (1.0 + level) / 2.0, axis=0, method="linear")
        bands[level] = (lo, hi)
    return bands


def _eligible_pool(calendar, w: int) -> list[date]:
    """Dates whose +-w window stays inside the calendar."""
    n = len(calendar)
    if n < 2 * w + 1:
        raise PermutationError("series too short for the window")
    return list(calendar.dates[w : n - w])


def _statistic(
    series: PriceSeries,
    returns: ReturnSeries,
    groups: EventSet | GroupAssignment,
    spec: PermutationSpec,
) -> np.ndarray:
    """Path of ``spec.statistic`` for one event set, or for a difference
    statistic the first group's path minus the second's."""
    statistic = spec.statistic
    if not statistic.uses_regression:
        if statistic.is_difference:
            a = median_change(series, groups.group_a, spec.window).estimates
            b = median_change(series, groups.group_b, spec.window).estimates
            return a - b
        return median_change(series, groups, spec.window).estimates
    design = build_design(returns, StudySpec(spec.window, groups))
    lad = statistic in (Statistic.LAD_PATH, Statistic.LAD_DIFFERENCE)
    fit = fit_lad(design) if lad else fit_ols(design)
    return _path_estimates(fit, None, contrast=statistic.is_difference)


def _calendar_for(series: PriceSeries, returns: ReturnSeries, spec: PermutationSpec):
    return returns.calendar if spec.statistic.uses_regression else series.calendar


def _placebo_result(
    series: PriceSeries,
    returns: ReturnSeries,
    real: EventSet | GroupAssignment,
    draw: Callable[[np.random.Generator], EventSet | GroupAssignment],
    spec: PermutationSpec,
) -> PermutationResult:
    """The statistic on the real events, and its placebo distribution over
    the event groups that ``draw`` makes from each replication's stream."""
    observed = _statistic(series, returns, real, spec)
    paths = np.empty((spec.replications, 2 * spec.window + 1))
    for b in range(spec.replications):
        paths[b] = _statistic(series, returns, draw(substream(spec.seed, b)), spec)
    return PermutationResult(
        rel_days=np.arange(-spec.window, spec.window + 1),
        observed=observed,
        placebo_mean=paths.mean(axis=0),
        bands=percentile_bands(paths),
        replication_count=spec.replications,
    )


def permutation_group_level(
    series: PriceSeries, events: EventSet, spec: PermutationSpec
) -> PermutationResult:
    """Placebo distribution of a single-group statistic, drawing K dates per
    replication from all eligible business days in the data."""
    if spec.statistic.is_difference:
        raise PermutationError("group-level permutation needs a non-difference statistic")
    if len(events) == 0:
        raise PermutationError("empty event set")
    returns = to_returns(series)
    cal = _calendar_for(series, returns, spec)
    pool = _eligible_pool(cal, spec.window)
    k = spec.k if spec.k is not None else len(events)
    if k > len(pool):
        raise PermutationError(f"eligible pool ({len(pool)}) smaller than K={k}")

    real = align_events(events, cal)
    return _placebo_result(series, returns, real, lambda rng: draw_placebo(pool, k, rng), spec)


def permutation_comparison(
    series: PriceSeries, groups: GroupAssignment, spec: PermutationSpec
) -> PermutationResult:
    """Placebo distribution of the A-B difference statistic: per replication
    the pooled real event dates are relabeled into disjoint samples of the
    real group sizes."""
    if not spec.statistic.is_difference:
        raise PermutationError("comparison permutation needs a difference statistic")
    returns = to_returns(series)
    cal = _calendar_for(series, returns, spec)
    real_a = align_events(groups.group_a, cal)
    real_b = align_events(groups.group_b, cal)
    pool = real_a.dates() + real_b.dates()
    if len(real_a) == 0 or len(real_b) == 0:
        raise PermutationError("both groups need at least one event")

    k_a = len(real_a)

    def relabel(rng: np.random.Generator) -> GroupAssignment:
        perm = rng.permutation(len(pool))
        sample_a = _dates_to_events(sorted(pool[i] for i in perm[:k_a]), prefix="a")
        sample_b = _dates_to_events(sorted(pool[i] for i in perm[k_a:]), prefix="b")
        return GroupAssignment(sample_a, sample_b, "A", "B")

    real = GroupAssignment(real_a, real_b, groups.label_a, groups.label_b)
    return _placebo_result(series, returns, real, relabel, spec)


def coverage_assessment(
    series: PriceSeries,
    spec: PermutationSpec,
    group_size: int,
    horizon: int = 15,
) -> dict[str, float]:
    """Fraction of placebo replications whose HAC confidence interval at the
    given horizon contains zero, at the 90% and 95% levels."""
    if not -spec.window <= horizon <= spec.window:
        raise PermutationError(f"horizon {horizon} outside the window")
    returns = to_returns(series)
    pool = _eligible_pool(returns.calendar, spec.window)
    if group_size > len(pool):
        raise PermutationError(f"eligible pool ({len(pool)}) smaller than K={group_size}")
    h = horizon + spec.window
    hits90 = 0
    hits95 = 0
    for b in range(spec.replications):
        placebo = draw_placebo(pool, group_size, substream(spec.seed, b))
        design = build_design(returns, StudySpec(spec.window, placebo, spec.hac_lags))
        fit = fit_ols(design)
        cov = hac_covariance(design, fit, spec.hac_lags)
        path = cumulative_path(fit, cov)
        est, se = path.estimates[h], path.ses[h]
        if abs(est) <= Z90 * se:
            hits90 += 1
        if abs(est) <= Z95 * se:
            hits95 += 1
    return {
        "coverage90": hits90 / spec.replications,
        "coverage95": hits95 / spec.replications,
    }
