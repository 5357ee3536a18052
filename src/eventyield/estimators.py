"""OLS and LAD fits, Newey-West HAC covariance, cumulative paths with
inference, and the median-change estimator.

Cumulative paths are reported relative to relative day -W: the estimate at
day r is the sum of the per-day coefficients for s in (-W, r], so the path
is zero at r = -W and at day r estimates the price change since day -W,
net of trend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import RANK_TOL, DesignMatrix, aligned_positions
from .errors import EstimationError
from .events import EventSet
from .series import PriceSeries

Z90 = 1.6449
Z95 = 1.9600


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients (per-day dummies then the constant), residuals, and the
    minimized objective (sum of squares for OLS, sum of absolute deviations
    for LAD)."""

    design: DesignMatrix
    coefficients: np.ndarray
    residuals: np.ndarray
    objective: float
    method: str  # "ols" | "lad"

    @property
    def constant(self) -> float:
        return float(self.coefficients[self.design.constant_index])


@dataclass(frozen=True)
class HacCovariance:
    """Bartlett-kernel HAC covariance of all coefficients."""

    matrix: np.ndarray


@dataclass(frozen=True)
class CumulativePath:
    """Per relative day r in [-W, W]: cumulative estimate, and (for OLS with
    HAC) standard error, two-sided normal p-value, and 90%/95% CIs.  The
    inference arrays are None for LAD, median and placebo paths."""

    label: str
    rel_days: np.ndarray
    estimates: np.ndarray
    ses: np.ndarray | None = None
    pvalues: np.ndarray | None = None
    ci90: tuple[np.ndarray, np.ndarray] | None = None
    ci95: tuple[np.ndarray, np.ndarray] | None = None


def _check_rank(design: DesignMatrix, rank: int):
    if rank < design.n_cols:
        raise EstimationError("design matrix is perfectly collinear")


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use so that only a LAD
    fit pays for loading ``scipy.optimize``."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def fit_ols(design: DesignMatrix) -> RegressionFit:
    """Least squares via SVD; requires full column rank.  ``lstsq`` returns
    the rank of the matrix it factorises, under the same RANK_TOL rule as
    ``fit_lad``'s rank, so the fit is one factorisation."""
    x, y = design.matrix, design.response
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=RANK_TOL)
    _check_rank(design, rank)
    resid = y - x @ coef
    return RegressionFit(design, coef, resid, float(resid @ resid), "ols")


def fit_lad(design: DesignMatrix) -> RegressionFit:
    """Least absolute deviations via an exact linear program.

    min 1'u + 1'v  s.t.  X theta + u - v = y,  u, v >= 0.
    The HiGHS solver is deterministic, so permutation replications are
    reproducible.  The equality block [X, I, -I] is handed over in the
    compressed-column form HiGHS takes, which is what ``linprog`` would
    convert a dense block to: the model, and so the solution, is the same.
    """
    import scipy.sparse as sp

    _check_rank(design, np.linalg.matrix_rank(design.matrix, rtol=RANK_TOL))
    x, y = design.matrix, design.response
    n, p = x.shape
    c = np.concatenate([np.zeros(p), np.ones(2 * n)])
    eye = sp.eye_array(n, format="csc")
    a_eq = sp.hstack([sp.csc_array(x), eye, -eye], format="csc")
    bounds = np.zeros((p + 2 * n, 2))
    bounds[:p, 0] = -np.inf
    bounds[:, 1] = np.inf
    res = linprog(c, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    if not res.success:
        raise EstimationError(f"LAD solver failed: {res.message}")
    coef = res.x[:p]
    resid = y - x @ coef
    return RegressionFit(design, coef, resid, float(np.sum(np.abs(resid))), "lad")


def _check_lag(design: DesignMatrix, lag: int):
    if lag < 0:
        raise EstimationError("lag must be >= 0")
    if lag >= design.n_rows:
        raise EstimationError(f"lag {lag} >= row count {design.n_rows}")


def _bartlett(u: np.ndarray, lag: int) -> np.ndarray:
    """Newey-West long-run covariance S of the score rows ``u``: the
    autocovariances up to ``lag`` with Bartlett weights w_l = 1 - l/(lag+1)."""
    s = u.T @ u
    for ell in range(1, lag + 1):
        w = 1.0 - ell / (lag + 1.0)
        g = u[ell:].T @ u[:-ell]
        s += w * (g + g.T)
    return s


def hac_covariance(design: DesignMatrix, fit: RegressionFit, lag: int) -> HacCovariance:
    """Newey-West covariance (X'X)^-1 S (X'X)^-1 with Bartlett weights
    w_l = 1 - l/(lag+1) on the score autocovariances."""
    _check_lag(design, lag)
    x = design.matrix
    s = _bartlett(x * fit.residuals[:, None], lag)
    xtx_inv = np.linalg.inv(x.T @ x)
    cov = xtx_inv @ s @ xtx_inv
    cov = (cov + cov.T) / 2.0
    return HacCovariance(matrix=cov)


def hac_variance(design: DesignMatrix, fit: RegressionFit, lag: int, e: np.ndarray) -> float:
    """e'Ve for the ``hac_covariance`` matrix V, without forming V: with
    a = (X'X)^-1 e, e'Ve = a'Sa is the Bartlett sum of the one score series
    z_t = resid_t x_t'a, which costs O(n lag) instead of lag products of
    n x p score matrices."""
    _check_lag(design, lag)
    x = design.matrix
    a = np.linalg.solve(x.T @ x, e)
    z = fit.residuals * (x @ a)
    return float(_bartlett(z[:, None], lag)[0, 0])


# Cephes ndtr/erf/erfc (Moshier, "Methods and Programs for Mathematical
# Functions", 1989), the rational approximations scipy.special.ndtr uses
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    # the leading coefficient is 1
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _normal_sf(z: float) -> float:
    """Normal upper tail ndtr(-z) for z >= 0, operation for operation as
    Cephes computes it, so the result is bit-equal to
    ``scipy.stats.norm.sf(z)``; ``math.exp`` is the libm ``exp`` Cephes
    calls."""
    x = z * _SQRT1_2
    if x < 1.0:
        zz = x * x
        return 0.5 - 0.5 * (x * _polevl(zz, _ERF_T) / _p1evl(zz, _ERF_U))
    if x * x > _MAXLOG:
        return 0.0
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    return 0.5 * (math.exp(-x * x) * p / q)


def _two_sided_p(est: np.ndarray, se: np.ndarray) -> np.ndarray:
    p = np.ones_like(est)
    nz = se > 0
    p[nz] = [2.0 * _normal_sf(z) for z in (np.abs(est[nz]) / se[nz]).tolist()]
    exact = (se == 0) & (est != 0)
    p[exact] = 0.0
    return p


def _path_weights(
    design: DesignMatrix, group: str | None = None, contrast: bool = False
) -> tuple[str, np.ndarray]:
    """The label of one group's path (the first group by default), or of the
    first-minus-second contrast, and its (2W+1) x p weights: row s picks
    day s's dummy of the group, or the first group's minus the second's."""
    days = np.arange(design.block_width)
    weights = np.zeros((design.block_width, design.n_cols))
    if contrast:
        if len(design.group_labels) != 2:
            raise EstimationError("contrast path requires a two-group design")
        label = f"{design.group_labels[0]} - {design.group_labels[1]}"
        weights[days, design.column_index(0, -design.window) + days] = 1.0
        weights[days, design.column_index(1, -design.window) + days] = -1.0
    else:
        label = group if group is not None else design.group_labels[0]
        weights[days, design.column_index(label, -design.window) + days] = 1.0
    return label, weights


def _cumulate(a: np.ndarray) -> np.ndarray:
    """Prefix sums over relative days, re-based so the path is zero at
    r = -W (its own day excluded)."""
    return np.cumsum(a, axis=0) - a[0]


def cumulative_path(
    fit: RegressionFit,
    cov: HacCovariance | None = None,
    group: str | None = None,
    contrast: bool = False,
) -> CumulativePath:
    """Cumulative estimates for one group, or for the first-minus-second
    group contrast, with HAC inference when ``cov`` is given.  Day r's SE is
    sqrt(e'Ve) for row r of the cumulated weights, one row at a time."""
    design = fit.design
    label, weights = _path_weights(design, group, contrast)
    rel_days = np.arange(-design.window, design.window + 1)
    est = _cumulate(weights @ fit.coefficients)
    if cov is None:
        return CumulativePath(label=label, rel_days=rel_days, estimates=est)
    if cov.matrix.shape != (design.n_cols, design.n_cols):
        raise EstimationError("covariance does not match the design dimensions")
    ses = np.array([np.sqrt(max(float(e @ cov.matrix @ e), 0.0)) for e in _cumulate(weights)])
    pvalues = _two_sided_p(est, ses)
    return CumulativePath(
        label=label,
        rel_days=rel_days,
        estimates=est,
        ses=ses,
        pvalues=pvalues,
        ci90=(est - Z90 * ses, est + Z90 * ses),
        ci95=(est - Z95 * ses, est + Z95 * ses),
    )


def constant_stats(fit: RegressionFit, cov: HacCovariance) -> tuple[float, float, float]:
    """(estimate, SE, p-value) of the trend constant."""
    i = fit.design.constant_index
    mu = float(fit.coefficients[i])
    se = float(np.sqrt(max(cov.matrix[i, i], 0.0)))
    p = float(_two_sided_p(np.array([mu]), np.array([se]))[0])
    return mu, se, p


def accumulate_lad_path(
    fit: RegressionFit, group: str | None = None, contrast: bool = False
) -> CumulativePath:
    """``cumulative_path`` of a LAD fit, without a covariance; inference
    comes only from the permutation module."""
    if fit.method != "lad":
        raise EstimationError("accumulate_lad_path requires a LAD fit")
    return cumulative_path(fit, None, group, contrast)


def median_change(series: PriceSeries, events: EventSet, w: int) -> CumulativePath:
    """Median across events of the long difference y_{t_i+r} - y_{t_i-w}
    (levels, or logs for a Log series), per relative day r in [-w, w]."""
    if len(events) == 0:
        raise EstimationError("empty event set")
    if w < 1:
        raise EstimationError("window must be >= 1")
    positions = aligned_positions(events, series.calendar, w)
    estimates = median_at(series.transformed(), positions, w)
    return CumulativePath(label="Median", rel_days=np.arange(-w, w + 1), estimates=estimates)


def median_at(values: np.ndarray, positions: np.ndarray, w: int) -> np.ndarray:
    """``median_change`` from the events' calendar positions, whose +-w
    windows must lie inside ``values``.

    Bit for bit ``np.median(diffs, axis=0)`` of finite values, from one
    partition: the middle order statistic, or the two middle ones, averaged
    as ``np.mean`` does, by a sum that starts from +0.0 (so a -0.0 median
    comes out as +0.0)."""
    offsets = np.arange(-w, w + 1)
    # one row per relative day, one column per event; baseline is day -w
    diffs = values[offsets[:, None] + positions[None, :]] - values[positions - w][None, :]
    half = len(positions) // 2
    if len(positions) % 2:
        return 0.0 + np.partition(diffs, half, axis=1)[:, half]
    part = np.partition(diffs, (half - 1, half), axis=1)
    return (0.0 + part[:, half - 1] + part[:, half]) / 2
