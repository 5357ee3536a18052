from datetime import date

import numpy as np
import pytest
from scipy.optimize import linprog

from eventyield import (
    DesignError,
    EstimationError,
    EventSet,
    GroupAssignment,
    Openness,
    StudySpec,
    accumulate_lad_path,
    build_design,
    constant_stats,
    cumulative_path,
    fit_lad,
    fit_ols,
    hac_covariance,
    hac_variance,
    median_change,
    to_returns,
)
from eventyield.estimators import (
    Z90,
    Z95,
    _cumulate,
    _path_weights,
    _two_sided_p,
    median_at,
)
from conftest import level_series, make_events


def two_group_design(values, pos_a, pos_b, window=15):
    s = level_series(values)
    r = to_returns(s)
    a = make_events(r.calendar, pos_a, prefix="a")
    b = make_events(r.calendar, pos_b, [Openness.CLOSED] * len(pos_b), prefix="b")
    return r, build_design(r, StudySpec(window=window, groups=GroupAssignment(a, b, "A", "B")))


def random_design(rng, n_rows=40, n_cols=4):
    """Small synthetic full-rank design for estimator cross-checks."""
    from eventyield import DesignMatrix

    x = rng.standard_normal((n_rows, n_cols - 1))
    x = np.hstack([x, np.ones((n_rows, 1))])
    y = rng.standard_normal(n_rows)
    cal_dates = tuple(date.fromordinal(738000 + i) for i in range(n_rows))
    return DesignMatrix(
        row_dates=cal_dates, response=y, matrix=x, window=0, group_labels=("All",)
    )


class TestFitOls:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        dm = random_design(rng)
        fit = fit_ols(dm)
        x, y = dm.matrix, dm.response
        expected = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.allclose(fit.coefficients, expected, atol=1e-12)
        assert fit.objective == pytest.approx(float(fit.residuals @ fit.residuals))

    def test_saturated_identity(self):
        # two events, one per group, staggered: the cumulative path at r
        # reproduces the raw change since day -W net of the trend constant
        rng = np.random.default_rng(3)
        vals = 4.0 + np.cumsum(0.0005 * rng.standard_normal(120))
        r, dm = two_group_design(vals, [30], [70], window=15)
        fit = fit_ols(dm)
        cov = hac_covariance(dm, fit, lag=5)
        path = cumulative_path(fit, cov, group="A")
        cal = r.calendar
        s = level_series(vals)
        t1 = s.calendar.position(cal.dates[30])
        mu = fit.constant
        w = 15
        for i, rel in enumerate(range(-w, w + 1)):
            raw = s.values[t1 + rel] - s.values[t1 - w]
            assert path.estimates[i] == pytest.approx(raw - (rel + w) * mu, abs=1e-9)

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(0)
        dm = random_design(rng)
        bad = type(dm)(
            row_dates=dm.row_dates,
            response=dm.response,
            matrix=np.hstack([dm.matrix, dm.matrix[:, :1]]),
            window=0,
            group_labels=("All",),
        )
        with pytest.raises(EstimationError):
            fit_ols(bad)
        with pytest.raises(EstimationError):
            fit_lad(bad)


class TestFitLad:
    def test_median_recovery_constant_only(self):
        from eventyield import DesignMatrix

        y = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        dm = DesignMatrix(
            row_dates=tuple(date.fromordinal(738000 + i) for i in range(5)),
            response=y,
            matrix=np.ones((5, 1)),
            window=0,
            group_labels=(),
        )
        fit = fit_lad(dm)
        # LAD with only a constant fits the median, immune to the outlier
        assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-9)
        assert fit.objective == pytest.approx(2 + 1 + 0 + 1 + 97, abs=1e-8)

    def test_objective_never_exceeds_ols_abs_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dm = random_design(rng)
            lad = fit_lad(dm)
            ols = fit_ols(dm)
            assert lad.objective <= np.sum(np.abs(ols.residuals)) + 1e-9

    def test_zero_residual_fit_matches_ols(self):
        rng = np.random.default_rng(5)
        x = np.hstack([rng.standard_normal((30, 3)), np.ones((30, 1))])
        theta = np.array([1.5, -2.0, 0.25, 0.1])
        from eventyield import DesignMatrix

        dm = DesignMatrix(
            row_dates=tuple(date.fromordinal(738000 + i) for i in range(30)),
            response=x @ theta,
            matrix=x,
            window=0,
            group_labels=("All",),
        )
        lad = fit_lad(dm)
        ols = fit_ols(dm)
        assert np.allclose(lad.coefficients, ols.coefficients, atol=1e-8)
        assert lad.objective == pytest.approx(0.0, abs=1e-8)


def dense_primal_lad(design):
    """The LAD linear program with a dense [X, I, -I] equality block and a
    list of bound pairs: the reference whose solution fit_lad must reproduce
    bit for bit.  Returns (coefficients, sum of absolute residuals)."""
    x, y = design.matrix, design.response
    n, p = x.shape
    c = np.concatenate([np.zeros(p), np.ones(2 * n)])
    a_eq = np.hstack([x, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * p + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    assert res.success, res.message
    coef = res.x[:p]
    return coef, float(np.sum(np.abs(y - x @ coef)))


class TestLadMatchesDensePrimal:
    @staticmethod
    def assert_same(design):
        fit = fit_lad(design)
        coef, objective = dense_primal_lad(design)
        assert np.array_equal(fit.coefficients, coef)
        assert np.array_equal(fit.objective, objective)

    def test_random_designs(self):
        rng = np.random.default_rng(17)
        for i in range(40):
            dm = random_design(rng, n_rows=int(rng.integers(8, 80)), n_cols=int(rng.integers(2, 7)))
            if i % 2:  # tied responses make degenerate vertices
                dm = type(dm)(dm.row_dates, np.round(dm.response), dm.matrix, 0, ("All",))
            self.assert_same(dm)

    def test_two_group_event_design(self):
        rng = np.random.default_rng(4)
        vals = 4.0 + np.cumsum(0.05 * rng.standard_normal(300))
        _, dm = two_group_design(vals, [40, 90, 150, 210], [52, 100, 161, 233])
        self.assert_same(dm)

    def test_staggered_step_design(self):
        # the three staggered unit steps of acceptance criterion 8
        from eventyield import PriceSeries, Transform
        from eventyield.synth import weekday_calendar

        n = 270
        cal = weekday_calendar(date(2022, 1, 3), n)
        vals = np.full(n, 4.0)
        for onset in (45, 120, 195):
            vals[onset:] += 1.0
        returns = to_returns(PriceSeries("steps", cal, vals, Transform.LEVEL))
        events = make_events(returns.calendar, [49, 119, 189])
        self.assert_same(build_design(returns, StudySpec(15, events)))


def counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize(
    ("fit", "expected"), [(fit_ols, []), (fit_lad, ["rank"])], ids=["fit_ols", "fit_lad"]
)
def test_one_rank_factorisation_per_design(monkeypatch, fit, expected):
    # build_design computes no rank; an OLS fit takes its rank from lstsq,
    # and a LAD fit computes it once, by numpy's matrix_rank (one SVD)
    calls = []
    monkeypatch.setattr(np.linalg, "matrix_rank", counting(calls, "rank", np.linalg.matrix_rank))
    monkeypatch.setattr(np.linalg, "svd", counting(calls, "svd", np.linalg.svd))
    rng = np.random.default_rng(8)
    vals = 4.0 + np.cumsum(0.05 * rng.standard_normal(200))
    _, dm = two_group_design(vals, [40, 100], [55, 123])
    fit(dm)
    assert calls == expected


def test_fit_lad_solves_through_the_module_linprog(monkeypatch):
    # tracing tools patch estimators.linprog; fit_lad must call that binding
    import eventyield.estimators

    calls = []
    monkeypatch.setattr(
        eventyield.estimators, "linprog", counting(calls, "lp", eventyield.estimators.linprog)
    )
    rng = np.random.default_rng(4)
    for _ in range(3):
        fit_lad(random_design(rng))
    assert calls == ["lp"] * 3


class TestHacCovariance:
    @staticmethod
    def brute_force(x, resid, lag):
        """Direct double sum over time pairs with Bartlett weights."""
        n, p = x.shape
        u = x * resid[:, None]
        s = np.zeros((p, p))
        for t in range(n):
            for q in range(n):
                ell = abs(t - q)
                if ell > lag:
                    continue
                w = 1.0 - ell / (lag + 1.0)
                s += w * np.outer(u[t], u[q])
        xtx_inv = np.linalg.inv(x.T @ x)
        return xtx_inv @ s @ xtx_inv

    def test_matches_double_sum(self):
        rng = np.random.default_rng(42)
        dm = random_design(rng, n_rows=40)
        fit = fit_ols(dm)
        for lag in (0, 1, 5):
            cov = hac_covariance(dm, fit, lag)
            oracle = self.brute_force(dm.matrix, fit.residuals, lag)
            assert np.max(np.abs(cov.matrix - oracle)) <= 1e-10

    def test_lag_zero_is_white(self):
        rng = np.random.default_rng(9)
        dm = random_design(rng)
        fit = fit_ols(dm)
        cov = hac_covariance(dm, fit, 0)
        x = dm.matrix
        xtx_inv = np.linalg.inv(x.T @ x)
        white = xtx_inv @ (x * fit.residuals[:, None] ** 2).T @ x @ xtx_inv
        assert np.max(np.abs(cov.matrix - white)) <= 1e-12

    def test_psd_diagonal(self):
        rng = np.random.default_rng(2)
        dm = random_design(rng)
        fit = fit_ols(dm)
        cov = hac_covariance(dm, fit, 5)
        assert np.all(np.diag(cov.matrix) >= -1e-15)
        assert np.allclose(cov.matrix, cov.matrix.T)

    def test_lag_bounds(self):
        rng = np.random.default_rng(1)
        dm = random_design(rng)
        fit = fit_ols(dm)
        with pytest.raises(EstimationError):
            hac_covariance(dm, fit, -1)
        with pytest.raises(EstimationError):
            hac_covariance(dm, fit, dm.n_rows)


class TestHacVariance:
    """e'Ve from one projected score series, against the full matrix and
    against the Bartlett kernel written out as an n x n Toeplitz matrix."""

    @staticmethod
    def designs():
        for seed in (3, 17):
            rng = np.random.default_rng(seed)
            vals = 4.0 + np.cumsum(0.0003 * rng.standard_normal(200))
            _, dm = two_group_design(vals, [40, 100], [55, 123], window=15)
            yield dm, fit_ols(dm)

    @staticmethod
    def selectors(dm):
        for group, contrast in (("A", False), ("B", False), (None, True)):
            rows = _cumulate(_path_weights(dm, group, contrast)[1])
            for r in (-14, -3, 0, 7, 15):
                yield rows[r + dm.window]

    @staticmethod
    def kernel_oracle(x, resid, lag, e):
        """z'Kz with K_tq = max(0, 1 - |t - q| / (lag + 1)), z_t = resid_t x_t'a."""
        z = resid * (x @ np.linalg.solve(x.T @ x, e))
        t = np.arange(len(z))
        k = np.clip(1.0 - np.abs(t[:, None] - t[None, :]) / (lag + 1.0), 0.0, None)
        return float(z @ k @ z)

    @pytest.mark.parametrize("lag", [0, 1, 30])
    def test_matches_the_full_matrix(self, lag):
        for dm, fit in self.designs():
            cov = hac_covariance(dm, fit, lag)
            for e in self.selectors(dm):
                full = float(e @ cov.matrix @ e)
                assert hac_variance(dm, fit, lag, e) == pytest.approx(full, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lag", [0, 1, 30])
    def test_matches_the_bartlett_kernel(self, lag):
        for dm, fit in self.designs():
            for e in self.selectors(dm):
                oracle = self.kernel_oracle(dm.matrix, fit.residuals, lag, e)
                assert hac_variance(dm, fit, lag, e) == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_lag_bounds_raise_as_the_matrix_does(self):
        dm, fit = next(self.designs())
        e = _cumulate(_path_weights(dm, "A")[1])[dm.window]
        for lag in (-1, dm.n_rows):
            with pytest.raises(EstimationError) as matrix:
                hac_covariance(dm, fit, lag)
            with pytest.raises(EstimationError) as scalar:
                hac_variance(dm, fit, lag, e)
            assert str(scalar.value) == str(matrix.value)


class TestCumulativePath:
    def test_zero_at_minus_w_and_ci_construction(self):
        rng = np.random.default_rng(21)
        vals = 4.0 + np.cumsum(0.0003 * rng.standard_normal(200))
        _, dm = two_group_design(vals, [40, 100], [55, 123], window=15)
        fit = fit_ols(dm)
        cov = hac_covariance(dm, fit, lag=10)
        for kwargs in ({"group": "A"}, {"group": "B"}, {"contrast": True}):
            path = cumulative_path(fit, cov, **kwargs)
            assert path.estimates[0] == 0.0
            assert path.ses[0] == 0.0
            assert path.pvalues[0] == 1.0
            assert np.allclose(path.ci90[0], path.estimates - Z90 * path.ses)
            assert np.allclose(path.ci95[1], path.estimates + Z95 * path.ses)
            # 95% band contains the 90% band
            assert np.all(path.ci95[0] <= path.ci90[0] + 1e-15)
            assert np.all(path.ci90[1] <= path.ci95[1] + 1e-15)

    def test_contrast_is_difference_of_group_paths(self):
        rng = np.random.default_rng(8)
        vals = 4.0 + np.cumsum(0.0003 * rng.standard_normal(200))
        _, dm = two_group_design(vals, [40, 100], [55, 123], window=15)
        fit = fit_ols(dm)
        cov = hac_covariance(dm, fit, lag=10)
        pa = cumulative_path(fit, cov, group="A")
        pb = cumulative_path(fit, cov, group="B")
        pd = cumulative_path(fit, cov, contrast=True)
        assert np.allclose(pd.estimates, pa.estimates - pb.estimates, atol=1e-12)
        assert pd.label == "A - B"

    @staticmethod
    def selector_loop(dm, r, group, contrast):
        """Day r's SE vector, one unit entry per day in (-W, r]."""
        e = np.zeros(dm.n_cols)
        for s in range(-dm.window + 1, r + 1):
            if contrast:
                e[dm.column_index(0, s)] += 1.0
                e[dm.column_index(1, s)] -= 1.0
            else:
                e[dm.column_index(group, s)] += 1.0
        return e

    def test_ses_bit_equal_to_the_per_day_loop(self):
        for seed in (4, 9, 21):
            rng = np.random.default_rng(seed)
            vals = 4.0 + np.cumsum(0.0003 * rng.standard_normal(200))
            _, dm = two_group_design(vals, [40, 100], [55, 123], window=15)
            fit = fit_ols(dm)
            cov = hac_covariance(dm, fit, lag=10)
            for group, contrast in (("A", False), ("B", False), (None, True)):
                expected = []
                for r in range(-dm.window, dm.window + 1):
                    e = self.selector_loop(dm, r, group, contrast)
                    expected.append(np.sqrt(max(float(e @ cov.matrix @ e), 0.0)))
                ses = cumulative_path(fit, cov, group, contrast).ses
                assert ses.tolist() == expected

    def test_contrast_on_a_pooled_design_and_an_unknown_group_rejected(self):
        rng = np.random.default_rng(5)
        vals = 4.0 + np.cumsum(0.0003 * rng.standard_normal(200))
        r, two = two_group_design(vals, [40, 100], [55, 123], window=15)
        pooled = build_design(r, StudySpec(window=15, groups=make_events(r.calendar, [40, 100])))

        def with_inference(fit, **kwargs):
            return cumulative_path(fit, hac_covariance(fit.design, fit, 10), **kwargs)

        for path in (with_inference, cumulative_path):
            with pytest.raises(EstimationError, match="contrast path requires a two-group design"):
                path(fit_ols(pooled), contrast=True)
            with pytest.raises(DesignError, match="unknown group 'C'"):
                path(fit_ols(two), group="C")

    def test_without_a_covariance_only_the_estimates(self):
        rng = np.random.default_rng(14)
        vals = 4.0 + np.cumsum(0.0003 * rng.standard_normal(200))
        _, dm = two_group_design(vals, [40, 100], [55, 123], window=15)
        fit = fit_ols(dm)
        cov = hac_covariance(dm, fit, lag=10)
        for group, contrast in (("A", False), ("B", False), (None, True)):
            bare = cumulative_path(fit, None, group, contrast)
            full = cumulative_path(fit, cov, group, contrast)
            assert bare.label == full.label
            assert bare.rel_days.tolist() == full.rel_days.tolist()
            assert bare.estimates.tolist() == full.estimates.tolist()
            assert bare.ses is bare.pvalues is bare.ci90 is bare.ci95 is None

    def test_constant_stats(self):
        rng = np.random.default_rng(6)
        dm = random_design(rng)
        fit = fit_ols(dm)
        cov = hac_covariance(dm, fit, 3)
        mu, se, p = constant_stats(fit, cov)
        i = dm.constant_index
        assert mu == pytest.approx(float(fit.coefficients[i]))
        assert se == pytest.approx(float(np.sqrt(cov.matrix[i, i])))
        assert 0.0 <= p <= 1.0


class TestTwoSidedP:
    def test_pinned_values(self):
        # z = 1.96 gives p just under 0.05
        p = _two_sided_p(np.array([1.96, 0.0, 5.0]), np.array([1.0, 0.0, 0.0]))
        assert p[0] == pytest.approx(0.0499958, abs=1e-6)
        assert p[1] == 1.0
        assert p[2] == 0.0

    @staticmethod
    def scipy_stats_oracle(est, se):
        """The p-values as computed with scipy.stats.norm.sf."""
        from scipy.stats import norm

        p = np.ones_like(est)
        nz = se > 0
        p[nz] = 2.0 * norm.sf(np.abs(est[nz]) / se[nz])
        p[(se == 0) & (est != 0)] = 0.0
        return p

    def test_bit_equal_to_norm_sf(self):
        rng = np.random.default_rng(12)
        magnitudes = 10.0 ** rng.uniform(-300, 300, size=20000)
        est = rng.choice([-1.0, 1.0], size=20000) * magnitudes
        se = 10.0 ** rng.uniform(-300, 300, size=20000)
        # ratios near the bulk of the normal, where most p-values fall
        est[:5000] = rng.standard_normal(5000) * 4.0
        se[:5000] = 1.0
        edges = np.array([
            (0.0, 0.0), (0.0, 1.0), (-0.0, 1.0), (1.0, 0.0), (0.0, np.inf), (-1.0, np.inf),
            (1e-300, 1e300), (1e300, 1e-300), (5e-324, 1.0), (1.0, 5e-324), (40.0, 1.0),
        ])
        # ratios at the branch points of Cephes ndtr: x = z/sqrt(2) at 1 (erf to
        # erfc) and 8 (erfc's P/Q to R/S), x^2 at MAXLOG (the tail underflows to
        # 0), each with its two nearest neighbours on either side
        ratios = []
        for x in (1.0, 8.0, np.sqrt(7.09782712893383996843e2)):
            z = x * np.sqrt(2.0)
            below, above = np.nextafter(z, 0.0), np.nextafter(z, np.inf)
            ratios += [np.nextafter(below, 0.0), below, z, above, np.nextafter(above, np.inf)]
        edges = np.vstack([edges, np.column_stack([ratios, np.ones(len(ratios))])])
        est = np.concatenate([est, edges[:, 0]])
        se = np.concatenate([se, edges[:, 1]])
        with np.errstate(over="ignore"):  # the huge ratios overflow to inf
            assert np.array_equal(_two_sided_p(est, se), self.scipy_stats_oracle(est, se))


class TestLadPath:
    def test_requires_lad_fit(self):
        rng = np.random.default_rng(4)
        dm = random_design(rng)
        with pytest.raises(EstimationError):
            accumulate_lad_path(fit_ols(dm))

    def test_is_the_path_without_a_covariance(self):
        rng = np.random.default_rng(18)
        vals = 4.0 + np.cumsum(0.0003 * rng.standard_normal(200))
        _, dm = two_group_design(vals, [40, 100], [55, 123], window=15)
        lad = fit_lad(dm)
        for kwargs in ({}, {"group": "B"}, {"contrast": True}):
            path, bare = accumulate_lad_path(lad, **kwargs), cumulative_path(lad, **kwargs)
            assert path.label == bare.label
            assert path.rel_days.tolist() == bare.rel_days.tolist()
            assert path.estimates.tolist() == bare.estimates.tolist()
            assert path.ses is path.pvalues is path.ci90 is path.ci95 is None

    def test_no_inference_arrays(self):
        rng = np.random.default_rng(17)
        vals = 4.0 + np.cumsum(0.0003 * rng.standard_normal(200))
        _, dm = two_group_design(vals, [40, 100], [55, 123], window=15)
        path = accumulate_lad_path(fit_lad(dm), group="A")
        assert path.ses is None and path.pvalues is None
        assert path.estimates[0] == 0.0


class TestMedianChange:
    def test_hand_computed_three_events(self):
        # piecewise series with known long differences at w=2
        vals = [
            10.0, 10.0, 10.0, 11.0, 11.0,   # event at pos 2: diffs -2..2 = 0,0,0,1,1
            20.0, 20.0, 23.0, 23.0, 23.0,   # event at pos 7: diffs = 0,0,3,3,3
            30.0, 32.0, 32.0, 32.0, 30.0,   # event at pos 12: diffs = 0,2,2,2,0
        ]
        s = level_series(vals)
        events = make_events(s.calendar, [2, 7, 12])
        path = median_change(s, events, w=2)
        assert list(path.rel_days) == [-2, -1, 0, 1, 2]
        assert np.allclose(path.estimates, [0.0, 0.0, 2.0, 2.0, 1.0])
        assert path.label == "Median"

    def test_negation_equivariance(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            vals = rng.standard_normal(60).cumsum() + 50.0
            s = level_series(vals)
            neg = level_series(-vals + 100.0)
            events = make_events(s.calendar, sorted(rng.choice(np.arange(5, 55), 4, replace=False)))
            p1 = median_change(s, events, w=5)
            p2 = median_change(neg, events, w=5)
            assert np.allclose(p1.estimates, -p2.estimates, atol=1e-12)

    def test_baseline_zero(self):
        rng = np.random.default_rng(12)
        s = level_series(rng.standard_normal(40).cumsum() + 10)
        path = median_change(s, make_events(s.calendar, [10, 25]), w=5)
        assert path.estimates[0] == 0.0

    def test_insufficient_coverage(self):
        s = level_series([1.0] * 10)
        with pytest.raises(DesignError, match="window leaves the calendar"):
            median_change(s, make_events(s.calendar, [1]), w=5)

    def test_empty_events(self):
        from eventyield import EventSet

        s = level_series([1.0] * 10)
        with pytest.raises(EstimationError):
            median_change(s, EventSet(()), w=2)


class TestMedianAt:
    """``median_at`` is ``np.median`` of the long differences, bit for bit."""

    W = 3
    TINY = np.finfo(float).smallest_subnormal
    BIG = np.finfo(float).max

    @classmethod
    def laid_out(cls, columns):
        """Values and positions whose long differences are ``columns`` (one
        row per event, one column per relative day): each event gets its own
        block, whose baseline day is +0.0, so x - 0.0 keeps every x."""
        w = cls.W
        rows = np.asarray(columns, dtype=float)
        blocks = np.hstack([np.zeros((len(rows), 1)), rows[:, 1:]])
        return blocks.ravel(), np.arange(len(rows)) * (2 * w + 1) + w

    @classmethod
    def assert_is_np_median(cls, values, positions):
        w = cls.W
        offsets = np.arange(-w, w + 1)
        diffs = values[positions[:, None] + offsets[None, :]] - values[positions - w][:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.median(diffs, axis=0)
            got = median_at(values, positions, w)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        return expected

    @pytest.mark.parametrize("k", [1, 2, 5, 23, 24])
    def test_signed_zeros_and_subnormals(self, k):
        t, big = self.TINY, self.BIG
        hand = np.array([
            [-0.0] * k,                                   # all -0.0: np.median gives +0.0
            [(-0.0, 0.0)[i % 2] for i in range(k)],       # +0.0/-0.0 ties
            [(t, -t, 2 * t)[i % 3] for i in range(k)],    # subnormals
            [(-t, -0.0)[i % 2] for i in range(k)],
            [(big, -big, big)[i % 3] for i in range(k)],  # an even mean overflows
            [1.0 + i for i in range(k)],
        ])
        days = np.vstack([np.zeros(k), hand]).T
        expected = self.assert_is_np_median(*self.laid_out(days))
        # a bare middle pick would give -0.0 here
        assert expected.view(np.uint64)[1] == 0

    @pytest.mark.parametrize("k", [1, 2, 5, 23, 24])
    def test_drawn_columns(self, k):
        rng = np.random.default_rng(k)
        t, big = self.TINY, self.BIG
        special = np.array([0.0, -0.0, t, -t, 1e-310, -1e-310, 1.0, -1.0, big, -big])
        for _ in range(200):
            self.assert_is_np_median(*self.laid_out(rng.choice(special, (k, 2 * self.W + 1))))

    @pytest.mark.parametrize("k", [1, 2, 5, 23, 24])
    def test_overlapping_windows_of_a_walk(self, k):
        rng = np.random.default_rng(100 + k)
        values = 4.0 + np.cumsum(0.05 * rng.standard_normal(120))
        for _ in range(50):
            positions = np.sort(rng.integers(self.W, len(values) - self.W, k))
            self.assert_is_np_median(values, positions)
