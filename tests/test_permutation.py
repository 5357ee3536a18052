from datetime import timedelta

import numpy as np
import pytest

from eventyield import (
    Event,
    EventSet,
    GroupAssignment,
    Openness,
    PermutationError,
    PermutationSpec,
    Statistic,
    StudySpec,
    SynthSpec,
    accumulate_lad_path,
    align_events,
    build_design,
    coverage_assessment,
    cumulative_path,
    draw_placebo,
    fit_lad,
    fit_ols,
    generate_walk,
    hac_covariance,
    median_change,
    percentile_bands,
    permutation_comparison,
    permutation_group_level,
    to_returns,
)
from eventyield import permutation
from eventyield.permutation import MAX_REPLICATIONS, Z90, Z95, _eligible_pool, substream
from conftest import log_series, make_events


def walk(length=320, sigma=0.0005, seed=0):
    return generate_walk(SynthSpec(length=length, sigma=sigma, seed=seed))


class TestSubstream:
    def test_keyed_streams_are_reproducible_and_distinct(self):
        a = substream(7, 3).standard_normal(5)
        b = substream(7, 3).standard_normal(5)
        c = substream(7, 4).standard_normal(5)
        d = substream(8, 3).standard_normal(5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestDrawPlacebo:
    def test_distinct_sorted_dates(self):
        s = walk(100)
        pool = _eligible_pool(s.calendar, 10)
        ev = draw_placebo(pool, 8, substream(0, 0))
        dates = ev.dates()
        assert len(set(dates)) == 8
        assert dates == sorted(dates)
        assert all(d in pool for d in dates)

    def test_oversized_draw_rejected(self):
        s = walk(100)
        pool = _eligible_pool(s.calendar, 10)
        with pytest.raises(PermutationError):
            draw_placebo(pool, len(pool) + 1, substream(0, 0))


class TestPercentileBands:
    def test_hand_oracle_1_to_100(self):
        samples = np.arange(1, 101, dtype=float)[:, None]
        bands = percentile_bands(samples)
        lo90, hi90 = bands[0.90]
        # np.quantile linear interpolation on 1..100 at q=0.05 / 0.95
        assert lo90[0] == pytest.approx(5.95)
        assert hi90[0] == pytest.approx(95.05)
        lo95, hi95 = bands[0.95]
        assert lo95[0] == pytest.approx(3.475)
        assert hi95[0] == pytest.approx(97.525)

    def test_band_nesting(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((500, 7))
        bands = percentile_bands(samples)
        lo90, hi90 = bands[0.90]
        lo95, hi95 = bands[0.95]
        assert np.all(lo95 <= lo90)
        assert np.all(hi90 <= hi95)
        assert np.all(lo90 <= hi90)


class TestEligiblePool:
    def test_excludes_edges(self):
        s = walk(100)
        pool = _eligible_pool(s.calendar, 10)
        assert len(pool) == 80
        assert pool[0] == s.calendar.dates[10]
        assert pool[-1] == s.calendar.dates[89]

    def test_too_short(self):
        s = walk(10)
        with pytest.raises(PermutationError):
            _eligible_pool(s.calendar, 10)


class TestGroupLevel:
    def test_deterministic_and_shapes(self):
        s = walk()
        events = make_events(s.calendar, [60, 120, 180, 240])
        spec = PermutationSpec(
            replications=20, statistic=Statistic.MEDIAN_PATH, window=10, seed=3
        )
        r1 = permutation_group_level(s, events, spec)
        r2 = permutation_group_level(s, events, spec)
        assert np.array_equal(r1.observed, r2.observed)
        assert np.array_equal(r1.placebo_mean, r2.placebo_mean)
        for level in (0.90, 0.95):
            assert np.array_equal(r1.bands[level][0], r2.bands[level][0])
        assert r1.rel_days[0] == -10 and r1.rel_days[-1] == 10
        assert r1.observed.shape == (21,)
        assert r1.replication_count == 20

    def test_seed_changes_bands(self):
        s = walk()
        events = make_events(s.calendar, [60, 120, 180, 240])
        base = dict(replications=20, statistic=Statistic.MEDIAN_PATH, window=10)
        r1 = permutation_group_level(s, events, PermutationSpec(seed=3, **base))
        r2 = permutation_group_level(s, events, PermutationSpec(seed=4, **base))
        assert not np.array_equal(r1.bands[0.90][0], r2.bands[0.90][0])

    def test_ols_statistic_runs(self):
        s = walk()
        events = make_events(s.calendar, [60, 120, 180, 240])
        spec = PermutationSpec(
            replications=5, statistic=Statistic.OLS_PATH, window=10, seed=0
        )
        r = permutation_group_level(s, events, spec)
        assert r.observed[0] == 0.0  # path baselined at -W

    def test_draw_size_below_one_rejected(self):
        with pytest.raises(PermutationError, match="k must be >= 1"):
            PermutationSpec(
                replications=5, statistic=Statistic.MEDIAN_PATH, window=10, seed=0, k=0
            )

    def test_negative_hac_lags_rejected(self):
        with pytest.raises(PermutationError, match="hac_lags must be >= 0"):
            PermutationSpec(
                replications=5, statistic=Statistic.OLS_PATH, window=10, seed=0, hac_lags=-1
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(PermutationError, match="seed must be >= 0"):
            PermutationSpec(replications=5, statistic=Statistic.OLS_PATH, window=10, seed=-1)

    def test_seed_and_replications_beyond_their_range_rejected(self):
        base = dict(statistic=Statistic.OLS_PATH, window=10)
        PermutationSpec(replications=MAX_REPLICATIONS, seed=2**64 - 1, **base)
        with pytest.raises(PermutationError, match=r"seed must be < 2\*\*64"):
            PermutationSpec(replications=5, seed=2**64, **base)
        with pytest.raises(PermutationError, match="replications must be <= 1000000"):
            PermutationSpec(replications=MAX_REPLICATIONS + 1, seed=0, **base)


class TestComparison:
    @staticmethod
    def two_groups(s):
        a = make_events(s.calendar, [60, 120, 180], prefix="a")
        b = make_events(s.calendar, [75, 140, 210, 250], [Openness.CLOSED] * 4, prefix="b")
        return GroupAssignment(a, b, "Open", "Closed")

    def test_pool_is_real_dates_and_disjoint_draws(self):
        s = walk()
        g = self.two_groups(s)
        spec = PermutationSpec(
            replications=10, statistic=Statistic.MEDIAN_PATH, window=10, seed=1
        )
        r = permutation_comparison(s, g, spec)
        assert r.observed.shape == (21,)
        assert r.replication_count == 10

    def test_deterministic(self):
        s = walk()
        g = self.two_groups(s)
        spec = PermutationSpec(
            replications=10, statistic=Statistic.OLS_PATH, window=10, seed=1
        )
        r1 = permutation_comparison(s, g, spec)
        r2 = permutation_comparison(s, g, spec)
        assert np.array_equal(r1.placebo_mean, r2.placebo_mean)

    def test_draw_sizes_validated(self):
        s = walk()
        a = self.two_groups(s).group_a
        g = GroupAssignment(a, EventSet(()), "Open", "Closed")
        spec = PermutationSpec(
            replications=5, statistic=Statistic.MEDIAN_PATH, window=10, seed=0
        )
        with pytest.raises(PermutationError):
            permutation_comparison(s, g, spec)


class TestCoverage:
    def test_bounds_and_monotonicity(self):
        s = walk(length=260, sigma=0.0005, seed=2)
        spec = PermutationSpec(
            replications=40, statistic=Statistic.OLS_PATH, window=10, seed=0, hac_lags=10
        )
        cov = coverage_assessment(s, spec, group_size=6, horizon=10)
        assert 0.0 <= cov["coverage90"] <= cov["coverage95"] <= 1.0

    def test_horizon_validated(self):
        s = walk(length=260)
        spec = PermutationSpec(
            replications=5, statistic=Statistic.OLS_PATH, window=10, seed=0
        )
        with pytest.raises(PermutationError):
            coverage_assessment(s, spec, group_size=5, horizon=11)

    @pytest.mark.parametrize("group_size", [0, -1])
    def test_group_size_below_one_rejected(self, group_size):
        s = walk(length=260)
        spec = PermutationSpec(
            replications=5, statistic=Statistic.OLS_PATH, window=10, seed=0
        )
        with pytest.raises(PermutationError, match="group_size must be >= 1"):
            coverage_assessment(s, spec, group_size=group_size, horizon=5)


    @pytest.mark.parametrize("statistic", [Statistic.MEDIAN_PATH, Statistic.LAD_PATH])
    def test_statistic_other_than_ols_rejected(self, statistic):
        s = walk(length=260)
        spec = PermutationSpec(replications=5, statistic=statistic, window=10, seed=0)
        with pytest.raises(PermutationError, match="coverage assessment fits OLS"):
            coverage_assessment(s, spec, group_size=5, horizon=5)


class TestOneBlasThread:
    """Every placebo fit and HAC variance runs with numpy's OpenBLAS on one
    thread, and the study's HAC inference on two, whatever the caller's
    pool; the caller's thread count is back afterwards, also when a fit
    raises in the middle of the replication loop or the HAC raises."""

    WRAPPED = ("fit_ols", "fit_lad", "hac_variance")

    @pytest.fixture
    def blas(self, monkeypatch):
        """(thread-count getter, [(wrapped name, count at the call)]), with
        the pool set to two threads for the test and restored after it."""
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in blas.get("name", "").lower():
            pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS")
        threads = permutation._openblas_threads()
        assert threads is not None, "numpy is built on OpenBLAS, but its library was not found"
        get_threads, set_threads = threads
        original = get_threads()
        seen = []

        def recording(name, fit):
            def wrapped(*args, **kwargs):
                seen.append((name, get_threads()))
                return fit(*args, **kwargs)

            return wrapped

        for name in self.WRAPPED:
            monkeypatch.setattr(permutation, name, recording(name, getattr(permutation, name)))
        # a pool of more than one thread, so that a missing pin shows
        set_threads(2)
        try:
            yield get_threads, seen
        finally:
            set_threads(original)

    @staticmethod
    def panels():
        s = walk(sigma=0.05, seed=6)
        events = make_events(s.calendar, [40, 90, 150, 200])
        groups = TestComparison.two_groups(s)
        ols = PermutationSpec(replications=4, statistic=Statistic.OLS_PATH, window=10, seed=0)
        lad = PermutationSpec(
            replications=2, statistic=Statistic.LAD_PATH, window=10, seed=0
        )
        return {
            "ols_group": lambda: permutation_group_level(s, events, ols),
            "lad_diff": lambda: permutation_comparison(s, groups, lad),
            "coverage": lambda: coverage_assessment(s, ols, group_size=5, horizon=3),
        }

    def test_fits_run_on_one_thread_and_the_count_is_restored(self, blas):
        get_threads, seen = blas
        before = get_threads()
        assert before > 1
        for run in self.panels().values():
            run()
            assert get_threads() == before
        assert {name for name, _ in seen} == set(self.WRAPPED)
        assert [count for _, count in seen] == [1] * len(seen)

    @pytest.mark.parametrize("panel", ["ols_group", "lad_diff", "coverage"])
    def test_the_count_is_restored_when_a_fit_raises(self, blas, monkeypatch, panel):
        get_threads, seen = blas
        before = get_threads()
        name = "fit_lad" if panel == "lad_diff" else "fit_ols"
        fit = getattr(permutation, name)

        def failing(*args, **kwargs):
            if len(seen) == 2:
                raise RuntimeError("fit failed")
            return fit(*args, **kwargs)

        monkeypatch.setattr(permutation, name, failing)
        with pytest.raises(RuntimeError, match="fit failed"):
            self.panels()[panel]()
        assert len(seen) == 2 and [count for _, count in seen] == [1, 1]
        assert get_threads() == before

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_the_study_hac_runs_on_two_threads_and_the_count_is_restored(
        self, blas, monkeypatch, fails
    ):
        get_threads, seen = blas
        hac = permutation.hac_covariance

        def recording(*args, **kwargs):
            seen.append(("hac_covariance", get_threads()))
            if fails:
                raise RuntimeError("hac failed")
            return hac(*args, **kwargs)

        monkeypatch.setattr(permutation, "hac_covariance", recording)
        s = walk(sigma=0.05, seed=6)
        cal, data = permutation.statistic_data(Statistic.OLS_PATH, s)
        groups = TestComparison.two_groups(s)
        positions = tuple(
            permutation.aligned_positions(g, cal, 10) for g in (groups.group_a, groups.group_b)
        )
        _, set_threads = permutation._openblas_threads()
        set_threads(1)
        if fails:
            with pytest.raises(RuntimeError, match="hac failed"):
                permutation.paths_at(Statistic.OLS_PATH, data, positions, ("A", "B"), 10, 5)
        else:
            paths, constant = permutation.paths_at(
                Statistic.OLS_PATH, data, positions, ("A", "B"), 10, 5
            )
            assert len(paths) == 3 and constant is not None
        assert seen == [("fit_ols", 1), ("hac_covariance", 2)]
        assert get_threads() == 1


class TestReferenceLoop:
    """Each panel against the replication loop written out over Event
    objects: draw or relabel dates, then build the design and fit, or take
    the median change, one replication at a time."""

    @staticmethod
    def assert_same_result(result, observed, paths):
        assert result.observed.tobytes() == observed.tobytes()
        assert result.placebo_mean.tobytes() == paths.mean(axis=0).tobytes()
        for level, (lo, hi) in percentile_bands(paths).items():
            assert result.bands[level][0].tobytes() == lo.tobytes()
            assert result.bands[level][1].tobytes() == hi.tobytes()

    def test_coverage_assessment(self):
        s = walk(length=300, sigma=0.05, seed=5)
        spec = PermutationSpec(
            replications=30, statistic=Statistic.OLS_PATH, window=8, seed=4, hac_lags=6
        )
        returns = to_returns(s)
        pool = _eligible_pool(returns.calendar, spec.window)
        paths = []
        for b in range(spec.replications):
            placebo = draw_placebo(pool, 7, substream(spec.seed, b))
            design = build_design(returns, StudySpec(spec.window, placebo))
            fit = fit_ols(design)
            paths.append(cumulative_path(fit, hac_covariance(design, fit, spec.hac_lags)))

        def expected_at(horizon):
            est = np.abs([path.estimates[spec.window + horizon] for path in paths])
            se = np.array([path.ses[spec.window + horizon] for path in paths])
            return np.array([np.mean(est <= Z90 * se), np.mean(est <= Z95 * se)])

        assert 0.0 < expected_at(3)[1] < 1.0  # the horizon is neither always nor never covered
        # every horizon, so that an estimate or SE read at the wrong day shows
        for horizon in range(-spec.window, spec.window + 1):
            cov = coverage_assessment(s, spec, group_size=7, horizon=horizon)
            got = np.array([cov["coverage90"], cov["coverage95"]])
            assert got.tobytes() == expected_at(horizon).tobytes(), horizon

    def test_group_level_median_on_a_log_series(self):
        rng = np.random.default_rng(8)
        s = log_series(100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(260))))
        dates = [s.calendar.dates[p] for p in (40, 44, 90, 150, 200)]
        # a Saturday aligns to the Friday before it, which is already an event
        saturday = dates[1] + timedelta(days=1)
        assert saturday.weekday() == 5
        events = EventSet(
            tuple(Event(d, f"e{i}", Openness.OPEN) for i, d in enumerate(dates))
            + (Event(saturday, "sat", Openness.OPEN),)
        )
        spec = PermutationSpec(
            replications=60, statistic=Statistic.MEDIAN_PATH, window=12, seed=2, k=4
        )
        pool = _eligible_pool(s.calendar, spec.window)
        observed = median_change(s, align_events(events, s.calendar), spec.window).estimates
        paths = np.array([
            median_change(s, draw_placebo(pool, 4, substream(spec.seed, b)), spec.window).estimates
            for b in range(spec.replications)
        ])
        self.assert_same_result(permutation_group_level(s, events, spec), observed, paths)

    @staticmethod
    def difference_paths(statistic, s, group_a, group_b, w):
        """The study's first-minus-second path of ``statistic`` for two Event
        groups: a regression contrast of daily coefficients, or the
        difference of the two median paths."""
        if statistic is Statistic.MEDIAN_PATH:
            return median_change(s, group_a, w).estimates - median_change(s, group_b, w).estimates
        returns = to_returns(s)
        design = build_design(returns, StudySpec(w, GroupAssignment(group_a, group_b, "A", "B")))
        if statistic is Statistic.LAD_PATH:
            return accumulate_lad_path(fit_lad(design), contrast=True).estimates
        fit = fit_ols(design)
        return cumulative_path(fit, hac_covariance(design, fit, 10), contrast=True).estimates

    def check_difference_comparison(self, statistic, replications):
        s = walk(length=260, sigma=0.05, seed=6)
        cal = to_returns(s).calendar
        a = make_events(cal, [30, 70, 70, 120, 180], prefix="a")
        b = make_events(cal, [45, 70, 150, 210], [Openness.CLOSED] * 4, prefix="b")
        spec = PermutationSpec(replications=replications, statistic=statistic, window=10, seed=3)

        def path_diff(group_a, group_b):
            return self.difference_paths(statistic, s, group_a, group_b, spec.window)

        real_a, real_b = align_events(a, cal), align_events(b, cal)
        pool = real_a.dates() + real_b.dates()
        paths = np.empty((spec.replications, 2 * spec.window + 1))
        for r in range(spec.replications):
            perm = substream(spec.seed, r).permutation(len(pool))
            relabeled = [
                EventSet(tuple(
                    Event(d, f"{prefix}{i}", Openness.CLOSED)
                    for i, d in enumerate(sorted(pool[j] for j in half))
                ))
                for prefix, half in (("a", perm[: len(a)]), ("b", perm[len(a) :]))
            ]
            paths[r] = path_diff(*relabeled)
        result = permutation_comparison(s, GroupAssignment(a, b, "Open", "Closed"), spec)
        self.assert_same_result(result, path_diff(real_a, real_b), paths)

    def test_lad_difference_comparison(self):
        self.check_difference_comparison(Statistic.LAD_PATH, replications=8)

    # each group's path is built beside the difference, which must still be
    # the coefficient contrast for OLS and the difference of medians
    @pytest.mark.parametrize(
        "statistic", [Statistic.OLS_PATH, Statistic.MEDIAN_PATH], ids=["ols_diff", "median_diff"]
    )
    def test_difference_comparison(self, statistic):
        self.check_difference_comparison(statistic, replications=40)
