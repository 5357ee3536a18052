"""Placebo inference: permutation distributions for regression, LAD, and
median-change statistics, plus HAC coverage assessment.  ``paths_at`` is the
one estimator dispatch, shared by the study and every replication.

Replications are driven by a counter-based generator (Philox) keyed on
(seed, replication index), so results are deterministic and independent of
execution order.  A replication's events are calendar positions, one sorted
array per group.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .design import aligned_positions, design_at
from .errors import PermutationError
from .estimators import (
    Z90,
    Z95,
    CumulativePath,
    _cumulate,
    _path_weights,
    constant_stats,
    cumulative_path,
    fit_lad,
    fit_ols,
    hac_covariance,
    hac_variance,
    median_at,
)
from .events import Event, EventSet, GroupAssignment, Openness
from .series import PriceSeries, to_returns

BAND_LEVELS = (0.90, 0.95)

# The largest replication count a panel takes, 200 times the CLI's default
# of 5000.  A panel's placebo paths are one (replications x 2W+1) array, so a
# count far beyond this cannot even be allocated.
MAX_REPLICATIONS = 10**6


class Statistic(Enum):
    """The estimator of a cumulative path.  The number of position groups
    says whether a panel is a difference: two groups give the first group's
    path minus the second's."""

    OLS_PATH = "ols"
    LAD_PATH = "lad"
    MEDIAN_PATH = "median"

    @property
    def uses_regression(self) -> bool:
        return self is not Statistic.MEDIAN_PATH


# Names of the statistics, which are also the study estimators.
ESTIMATORS = tuple(s.value for s in Statistic)


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
        if self.replications > MAX_REPLICATIONS:
            raise PermutationError(f"replications must be <= {MAX_REPLICATIONS}")
        if self.window < 1:
            raise PermutationError("window must be >= 1")
        if self.k is not None and self.k < 1:
            raise PermutationError("k must be >= 1")
        if self.hac_lags < 0:
            raise PermutationError("hac_lags must be >= 0")
        if self.seed < 0:
            raise PermutationError("seed must be >= 0")
        if self.seed >= 2**64:
            raise PermutationError("seed must be < 2**64")


@dataclass(frozen=True)
class PermutationResult:
    """Observed statistic path with the placebo mean and percentile bands."""

    rel_days: np.ndarray
    observed: np.ndarray
    placebo_mean: np.ndarray
    bands: dict[float, tuple[np.ndarray, np.ndarray]]
    replication_count: int


def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS that numpy ships in
    ``numpy.libs``, or None when numpy has no such library."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get_threads is not None and set_threads is not None:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    return get_threads, set_threads
    return None


@contextmanager
def _blas_threads(n: int):
    """Run the block with numpy's OpenBLAS on ``n`` threads, then restore the
    previous count, also when the block raises.  The count is process-wide,
    so other threads see it too.  Without OpenBLAS this does nothing.

    Placebo loops run on one thread.  A placebo fit is small (hundreds of
    rows, tens of columns), below the size at which a BLAS thread pool pays
    for its hand-offs (Goto & van de Geijn 2008): on two cores a replication
    loop takes about 40% less time on one thread than on two."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get_threads, set_threads = threads
    before = get_threads()
    set_threads(n)
    try:
        yield
    finally:
        set_threads(before)


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one replication, keyed on (seed, index),
    each a 64-bit word of the Philox key."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _draw(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct indices into a pool of n, in increasing order."""
    return np.sort(rng.choice(n, size=k, replace=False))


def draw_placebo(pool: Sequence[date], k: int, rng: np.random.Generator) -> EventSet:
    """k distinct pool entries, without replacement, as a placebo EventSet."""
    if k > len(pool):
        raise PermutationError(f"cannot draw {k} from a pool of {len(pool)}")
    # named by pool index, which stays unique if the pool repeats a date
    draw = _draw(len(pool), k, rng)
    return EventSet(tuple(Event(pool[i], f"pool {i}", Openness.CLOSED) for i in draw))


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


Positions = tuple[np.ndarray, ...]


def statistic_data(statistic: Statistic, series: PriceSeries):
    """(calendar, data) that ``statistic`` reads: a regression (ols, lad)
    reads the ReturnSeries on the return calendar, the median reads the
    transformed values on the price calendar."""
    if statistic.uses_regression:
        returns = to_returns(series)
        return returns.calendar, returns
    return series.calendar, series.transformed()


def paths_at(
    statistic: Statistic, data, positions: Positions, labels: tuple, w: int,
    hac_lags: int | None = None,
) -> tuple[list[CumulativePath], tuple[float, float] | None]:
    """Each group's cumulative path of ``statistic`` at its event positions
    on its ``statistic_data``, then for two groups the first minus the
    second.  Given ``hac_lags``, OLS paths carry HAC inference and the trend
    constant comes back as (estimate, p-value); otherwise it is None."""
    two_group = len(labels) == 2
    if not statistic.uses_regression:
        estimates = [median_at(data, pos, w) for pos in positions]
        # a pooled median path is named after its estimator, not "All"
        names = [*labels, f"{labels[0]} - {labels[1]}"] if two_group else ["Median"]
        if two_group:
            estimates.append(estimates[0] - estimates[1])
        rel_days = np.arange(-w, w + 1)
        return [CumulativePath(n, rel_days, e) for n, e in zip(names, estimates)], None
    design = design_at(data, w, positions, labels)
    # a regression difference comes from the daily coefficient differences
    columns = [(g, False) for g in labels] + ([(None, True)] if two_group else [])
    lad = statistic is Statistic.LAD_PATH
    fit = fit_lad(design) if lad else fit_ols(design)
    if lad or hac_lags is None:
        return [cumulative_path(fit, None, g, contrast) for g, contrast in columns], None
    # The HAC lag products are strided gemm calls whose low bits depend on
    # the BLAS thread count, so the study's inference always runs on two
    # threads: the count its recorded outputs were made with, whatever the
    # caller's pool.
    with _blas_threads(2):
        cov = hac_covariance(design, fit, hac_lags)
        mu, _, p = constant_stats(fit, cov)
        paths = [cumulative_path(fit, cov, g, contrast) for g, contrast in columns]
    return paths, (mu, p)


def _statistic(data, positions: Positions, spec: PermutationSpec) -> np.ndarray:
    """Path of ``spec.statistic`` on its ``statistic_data`` for the event
    positions of one group, or the first group's path minus the second's."""
    labels = ("A", "B")[: len(positions)]
    return paths_at(spec.statistic, data, positions, labels, spec.window)[0][-1].estimates


def _placebo_result(
    data,
    real: Positions,
    draw: Callable[[np.random.Generator], Positions],
    spec: PermutationSpec,
) -> PermutationResult:
    """The statistic at the real event positions, and its placebo distribution
    over the positions that ``draw`` makes from each replication's stream."""
    with _blas_threads(1):
        observed = _statistic(data, real, spec)
        paths = np.empty((spec.replications, 2 * spec.window + 1))
        for b in range(spec.replications):
            paths[b] = _statistic(data, draw(substream(spec.seed, b)), spec)
    return PermutationResult(
        rel_days=np.arange(-spec.window, spec.window + 1),
        observed=observed,
        placebo_mean=paths.mean(axis=0),
        bands=percentile_bands(paths),
        replication_count=spec.replications,
    )


def group_level_at(data, real: np.ndarray, spec: PermutationSpec) -> PermutationResult:
    """Placebo distribution of one group's path of ``spec.statistic`` at the
    event positions ``real`` on its ``statistic_data``, drawing K of the
    eligible positions per replication: pool index i is position i + W."""
    if len(real) == 0:
        raise PermutationError("empty event set")
    w = spec.window
    n = len(data) - 2 * w
    k = spec.k if spec.k is not None else len(real)
    if k > n:
        raise PermutationError(f"eligible pool ({n}) smaller than K={k}")
    return _placebo_result(data, (real,), lambda rng: (_draw(n, k, rng) + w,), spec)


def permutation_group_level(
    series: PriceSeries, events: EventSet, spec: PermutationSpec
) -> PermutationResult:
    """``group_level_at`` for the events aligned onto the statistic's calendar."""
    cal, data = statistic_data(spec.statistic, series)
    return group_level_at(data, aligned_positions(events, cal, spec.window), spec)


def comparison_at(data, real: Positions, spec: PermutationSpec) -> PermutationResult:
    """Placebo distribution of the A-B difference of ``spec.statistic``'s
    paths at the groups' positions ``real`` on its ``statistic_data``: per
    replication the pooled positions are relabeled into disjoint samples of
    the real group sizes."""
    if len(real[0]) == 0 or len(real[1]) == 0:
        raise PermutationError("both groups need at least one event")
    pool = np.concatenate(real)
    k_a = len(real[0])

    def relabel(rng: np.random.Generator) -> Positions:
        perm = rng.permutation(len(pool))
        return np.sort(pool[perm[:k_a]]), np.sort(pool[perm[k_a:]])

    return _placebo_result(data, real, relabel, spec)


def permutation_comparison(
    series: PriceSeries, groups: GroupAssignment, spec: PermutationSpec
) -> PermutationResult:
    """``comparison_at`` for the groups aligned onto the statistic's calendar."""
    cal, data = statistic_data(spec.statistic, series)
    real = tuple(aligned_positions(g, cal, spec.window) for g in (groups.group_a, groups.group_b))
    return comparison_at(data, real, spec)


def coverage_assessment(
    series: PriceSeries,
    spec: PermutationSpec,
    group_size: int,
    horizon: int = 15,
) -> dict[str, float]:
    """Fraction of placebo replications whose HAC confidence interval at the
    given horizon contains zero, at the 90% and 95% levels, from OLS fits."""
    if spec.statistic is not Statistic.OLS_PATH:
        raise PermutationError(f"coverage assessment fits OLS, not {spec.statistic.value!r}")
    if not -spec.window <= horizon <= spec.window:
        raise PermutationError(f"horizon {horizon} outside the window")
    if group_size < 1:
        raise PermutationError("group_size must be >= 1")
    cal, returns = statistic_data(spec.statistic, series)
    w = spec.window
    n = len(_eligible_pool(cal, w))
    if group_size > n:
        raise PermutationError(f"eligible pool ({n}) smaller than K={group_size}")
    h = horizon + w
    hits90 = 0
    hits95 = 0
    weights = None
    with _blas_threads(1):
        for b in range(spec.replications):
            placebo = _draw(n, group_size, substream(spec.seed, b)) + w
            design = design_at(returns, w, (placebo,), ("All",))
            fit = fit_ols(design)
            if weights is None:
                # every placebo design has the same columns
                _, weights = _path_weights(design)
                e = _cumulate(weights)[h]
            # the horizon's entry of cumulative_path, without the other days
            est = _cumulate(weights @ fit.coefficients)[h]
            se = np.sqrt(max(hac_variance(design, fit, spec.hac_lags, e), 0.0))
            if abs(est) <= Z90 * se:
                hits90 += 1
            if abs(est) <= Z95 * se:
                hits95 += 1
    return {
        "coverage90": hits90 / spec.replications,
        "coverage95": hits95 / spec.replications,
    }
