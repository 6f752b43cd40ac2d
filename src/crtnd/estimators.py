"""Point and variance estimators for the parallel-arm design.

Four estimators of the intervention relative risk ``lam`` are provided:

* ``odds_ratio_estimate``: the classical pooled-count odds ratio.  It is
  biased when the relative ascertainment varies across clusters, and is
  included as a comparison baseline.  Its standard error is taken from
  the dispersion of the statistic over re-randomized arm labels (the
  literature formula is not reproduced here).
* ``tpf_statistic`` / ``tpf_solve``: the test-positive-fraction
  estimator, obtained by matching the observed arm-mean difference of
  test-positive fractions to its approximate expectation and solving the
  resulting quadratic in ``lam``.
* ``log_contrast_estimate``: the arm-mean difference of per-cluster
  log-contrasts, exactly unbiased for ``log(lam)`` under the constant
  relative-risk count model, with an unbiased variance estimator.
* ``covariate_adjusted_estimate``: the log-contrast estimator minus a
  linear covariate-imbalance correction, unbiased for any fixed
  coefficient vector and more precise at the variance-minimizing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import (
    ParallelScheme,
    Randomization,
    Trial,
    log_contrasts,
    randomize,
)
from .errors import (
    ArmTooSmall,
    EmptyCluster,
    NoAdmissibleRoot,
    RankDeficientCovariates,
    ZeroArmTotal,
    ZeroPositiveTotal,
)

__all__ = [
    "EstimateReport",
    "CovariateFit",
    "odds_ratio_estimate",
    "tpf_statistic",
    "tpf_expected",
    "tpf_solve",
    "tpf_estimate",
    "log_contrast_estimate",
    "covariate_adjusted_estimate",
]


@dataclass
class EstimateReport:
    """One estimator's output: log-scale estimate, SE, natural-scale CI.

    ``log_estimate`` is log(lam-hat) for relative-risk methods and the
    dose coefficient itself for dose-response.  ``ci_low``/``ci_high``
    are on the natural scale (lam > 0, or the real line for the dose
    coefficient).  ``diagnostics`` carries method-specific extras such
    as fitted adjustment coefficients or root-selection notes.
    """

    method: str
    log_estimate: float
    se_log: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    ci_method: str = "none"
    alpha: float = 0.05
    p_value: float | None = None
    scale: str = "lambda"
    diagnostics: dict = field(default_factory=dict)

    @property
    def estimate(self) -> float:
        """Point estimate on the natural scale."""
        if self.scale == "lambda":
            return math.exp(self.log_estimate)
        return self.log_estimate

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "log_estimate": self.log_estimate,
            "estimate": self.estimate,
            "se_log": self.se_log,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ci_method": self.ci_method,
            "alpha": self.alpha,
            "p_value": self.p_value,
            "scale": self.scale,
            "diagnostics": _jsonable(self.diagnostics),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass(frozen=True)
class CovariateFit:
    """Adjustment coefficients and per-arm residual variances."""

    beta_hat: np.ndarray
    beta_treated: np.ndarray
    beta_control: np.ndarray
    resid_var_treated: float
    resid_var_control: float


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #


@lru_cache(maxsize=64)
def _z_quantile(alpha: float) -> float:
    """Two-sided Normal critical value z_{1-alpha/2}."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def normal_ci(log_estimate: float, se: float, alpha: float) -> tuple[float, float]:
    """lam-scale CI: exp(log_estimate +- z_{1-alpha/2} * se)."""
    zq = _z_quantile(alpha)
    return math.exp(log_estimate - zq * se), math.exp(log_estimate + zq * se)


# Every estimator's arithmetic runs on stacks: row b of a (B, m) array
# holds one dataset's per-cluster values and row b of ``arms`` its
# treated clusters, each row with the same number treated.  A public
# estimator passes a one-row stack; the simulation passes a chunk of
# replicates.  Reductions run along the contiguous last axis, so every
# row gets the bits its 1-D computation would.


def _arm_split(values: np.ndarray, arms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, m1) treated and (B, m0) control entries of each row, in
    cluster order."""
    n = values.shape[0]
    return values[arms].reshape(n, -1), values[~arms].reshape(n, -1)


# --------------------------------------------------------------------- #
# Odds ratio
# --------------------------------------------------------------------- #


def odds_ratio_log(trial: Trial) -> float:
    """log of the pooled-count odds ratio; raises ZeroArmTotal on zero sums."""
    totals = _arm_totals(trial.y[None], trial.z[None], trial.arm[None])
    names = ("treated test-positive", "control test-positive",
             "treated test-negative", "control test-negative")
    for name, value in zip(names, totals):
        if value[0] <= 0:  # the arm's entries are all 0
            raise ZeroArmTotal(name)
    return float(_log_odds_ratios(*totals)[0])


def _arm_totals(y: np.ndarray, z: np.ndarray, arms: np.ndarray):
    """Per-row arm totals (treated y, control y, treated z, control z)."""
    return tuple(part.sum(axis=1) for v in (y, z) for part in _arm_split(v, arms))


def odds_ratio_permutation_draws(
    y: np.ndarray, z: np.ndarray, arm_matrix: np.ndarray, out=None
) -> np.ndarray:
    """log odds ratio of each (..., m) pair of count vectors for each
    float 0/1 row of ``arm_matrix``, counts held fixed, (..., rows), with
    the treated sums of :func:`crtnd.inference._diff_means_rows`.
    ``out``, four float arrays of the result's shape, takes the treated
    and control totals of y and of z in place of fresh ones, the first
    the result."""
    ty, cy, tz, cz = (None,) * 4 if out is None else out
    ty = np.matmul(y, arm_matrix.T, out=ty)
    tz = np.matmul(z, arm_matrix.T, out=tz)
    cy = np.subtract(y.sum(axis=-1, keepdims=True), ty, out=cy)
    cz = np.subtract(z.sum(axis=-1, keepdims=True), tz, out=cz)
    return _log_odds_ratios(ty, cy, tz, cz)


def _log_odds_ratios(ty, cy, tz, cz) -> np.ndarray:
    """``log(ty) - log(cy) + log(cz) - log(tz)`` of float arrays of one
    shape of arm totals (treated and control test-positive, treated and
    control test-negative); non-finite where a total vanishes.

    The arrays are the caller's scratch: the result is computed in place
    of ``ty``, in the expression's order, and the other three hold their
    logs.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        for total in (ty, cy, cz, tz):
            np.log(total, out=total)
        ty -= cy
        ty += cz
        ty -= tz
    return ty


def odds_ratio_estimate(
    trial: Trial,
    *,
    alpha: float = 0.05,
    se_draws: int = 2000,
    seed: int = 0,
) -> EstimateReport:
    """Pooled odds-ratio estimate with a re-randomization standard error.

    The SE is the standard deviation of the log odds ratio over arm
    relabelings with per-cluster counts held fixed: full enumeration up
    to :data:`~crtnd.core.AUTO_EXACT_LIMIT` relabelings, else
    ``se_draws`` drawn from stream ``(seed, 0x0D)``.
    """
    log_or = odds_ratio_log(trial)
    rz = _odds_ratio_relabelings(trial.scheme, se_draws, seed)
    draws = odds_ratio_permutation_draws(trial.y[None], trial.z[None], rz.rows())
    (se,) = _permutation_ses(draws).tolist()
    se = None if math.isnan(se) else se
    ci_low, ci_high = (None, None) if se is None else normal_ci(log_or, se, alpha)
    exact = rz.mode == "exact"
    return EstimateReport(
        method="odds_ratio",
        log_estimate=log_or,
        se_log=se,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_method="normal",
        alpha=alpha,
        diagnostics={
            "se_source": "permutation-exact" if exact else f"permutation-mc({se_draws})"
        },
    )


def _odds_ratio_relabelings(
    scheme: ParallelScheme, se_draws: int, seed: int
) -> Randomization:
    """The SE's arm relabelings: from the design and the seed, not the counts."""
    return randomize(scheme, "auto", se_draws, (seed, 0x0D))


def _permutation_ses(draws: np.ndarray) -> np.ndarray:
    """Standard deviation of the finite re-randomized values of each row
    of a (B, n) stack, NaN where fewer than 2 are finite: one ``np.std``
    over the rows, and the row's finite draws alone where that is not
    finite (a row with a non-finite draw)."""
    if draws.shape[1] < 2:
        return np.full(len(draws), np.nan)
    with np.errstate(invalid="ignore"):
        ses = np.std(draws, axis=1, ddof=1)
    for i in np.flatnonzero(~np.isfinite(ses)):
        finite = draws[i][np.isfinite(draws[i])]
        ses[i] = np.std(finite, ddof=1) if finite.size >= 2 else np.nan
    return ses


# --------------------------------------------------------------------- #
# Test-positive fraction
# --------------------------------------------------------------------- #


def tpf_statistic(trial: Trial) -> tuple[float, float]:
    """Arm-mean difference of test-positive fractions and pooled ratio r.

    Returns ``(T, r)`` with ``T`` the treated-minus-control mean of
    ``y / (y + z)`` and ``r`` the pooled negative:positive count ratio.
    """
    empty = trial.y + trial.z <= 0
    if empty.any():
        raise EmptyCluster(trial.cluster_ids[int(np.argmax(empty))])
    if not trial.y.any():
        raise ZeroPositiveTotal("pooled test-positive count is zero")
    t_val, r = _tpf_rows(trial.y[None], trial.z[None], trial.arm[None])
    return float(t_val[0]), float(r[0])


def _tpf_rows(y: np.ndarray, z: np.ndarray, arms: np.ndarray):
    """(T, r) of :func:`tpf_statistic` for each row of (B, m) stacks."""
    f1, f0 = _arm_split(y / (y + z), arms)
    return f1.mean(axis=1) - f0.mean(axis=1), z.sum(axis=1) / y.sum(axis=1)


def tpf_expected(lam: float, r: float) -> float:
    """Approximate expectation of the fraction statistic at relative risk lam.

    ``2 r (lam^2 - 1) / [((2+r) lam + r) (r lam + 2 + r)]``; increasing
    in lam with range ``(-2/(2+r), 2/(2+r))``.
    """
    return 2.0 * r * (lam * lam - 1.0) / (((2.0 + r) * lam + r) * (r * lam + 2.0 + r))


def tpf_solve(t_stat: float, r: float) -> float:
    """Invert the expected-fraction map: the lam > 0 matching ``t_stat``.

    Solves the cross-multiplied quadratic

        [T r (2+r) - 2 r] lam^2 + T [(2+r)^2 + r^2] lam + [T r (2+r) + 2 r] = 0

    and returns its unique positive root.  ``t_stat`` must lie strictly
    inside the attainable range ``(-2/(2+r), 2/(2+r))``; outside it
    :class:`NoAdmissibleRoot` is raised.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be a positive real, got {r!r}")
    lam = float(_tpf_roots(np.array([t_stat]), np.array([r]))[0])
    if math.isnan(lam):
        raise NoAdmissibleRoot(t_stat, r, 2.0 / (2.0 + r))
    return lam


def _tpf_roots(t_stat: np.ndarray, r: np.ndarray) -> np.ndarray:
    """:func:`tpf_solve`'s root for each entry of arrays ``t_stat`` and
    ``r > 0``: 1 where T = 0, NaN where no root is admissible."""
    s = 2.0 + r
    a = r * (t_stat * s - 2.0)
    b = t_stat * (s * s + r * r)
    c = r * (t_stat * s + 2.0)
    # Inside the range a < 0 < c, so the roots have opposite signs; b has
    # T's sign and q the other one, so the positive root is q / a for
    # T > 0 and c / q for T < 0 (the stable formula: no cancellation in
    # the small root).  Rounding can break a < 0 < c just inside +-bound.
    admissible = (np.abs(t_stat) < 2.0 / s) & (a < 0.0) & (0.0 < c)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        root = np.where(t_stat > 0.0, q / a, c / q)
    return np.where(t_stat == 0.0, 1.0, np.where(admissible, root, np.nan))


def tpf_estimate(trial: Trial, *, alpha: float = 0.05) -> EstimateReport:
    """Point estimate via the fraction statistic; no analytic SE is attached.

    A standard error for this estimator is not conveniently computable,
    so confidence intervals come from test inversion through the
    permutation engine.  A diagnostic flag is raised under unequal
    allocation, where the expected-fraction approximation is derived
    assuming equal arms.
    """
    t_stat, r = tpf_statistic(trial)
    lam = tpf_solve(t_stat, r)
    m, m1 = trial.m, int(np.count_nonzero(trial.arm))
    diagnostics = {"t_statistic": t_stat, "r": r}
    if m != 2 * m1:
        diagnostics["unequal_allocation_warning"] = (
            f"m={m}, m1={m1}: the expected-fraction approximation assumes "
            "m1 = m/2; interpret with caution"
        )
    return EstimateReport(
        method="tpf",
        log_estimate=float(np.log(lam)),
        se_log=None,
        ci_method="none",
        alpha=alpha,
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------------- #
# Log-contrast
# --------------------------------------------------------------------- #


def log_contrast_estimate(trial: Trial, *, alpha: float = 0.05) -> EstimateReport:
    """Arm-mean difference of log-contrasts with its unbiased variance.

    The estimate is ``mean(L | treated) - mean(L | control)``; the
    variance estimate is ``s1^2/m1 + s0^2/m0`` with per-arm sample
    variances (denominator n_a - 1).  Each arm needs at least two
    clusters.
    """
    lvals, m1 = log_contrasts(trial), int(np.count_nonzero(trial.arm))
    _check_variance_arms(m1, trial.m - m1)
    l1, l0 = _arm_split(lvals[None], trial.arm[None])
    est, se = (float(v[0]) for v in _log_contrast_rows(l1, l0))
    ci_low, ci_high = normal_ci(est, se, alpha)
    return EstimateReport(
        method="log_contrast",
        log_estimate=est,
        se_log=se,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_method="normal",
        alpha=alpha,
        diagnostics={"m1": m1, "m0": trial.m - m1},
    )


def _check_variance_arms(m1: int, m0: int) -> None:
    if m1 < 2 or m0 < 2:
        raise ArmTooSmall(
            f"variance estimation needs >= 2 clusters per arm "
            f"(treated={m1}, control={m0})"
        )


def _log_contrast_rows(l1: np.ndarray, l0: np.ndarray):
    """(estimates, SEs) of the log-contrast estimator from (B, m1) treated
    and (B, m0) control log-contrasts."""
    est = l1.mean(axis=1) - l0.mean(axis=1)
    var = np.var(l1, axis=1, ddof=1) / l1.shape[1] + np.var(l0, axis=1, ddof=1) / l0.shape[1]
    return est, np.sqrt(var)


# --------------------------------------------------------------------- #
# Covariate adjustment
# --------------------------------------------------------------------- #


def covariate_adjusted_estimate(
    trial: Trial,
    beta: Sequence[float] | None = None,
    *,
    alpha: float = 0.05,
) -> tuple[EstimateReport, CovariateFit]:
    """Log-contrast estimate minus a linear covariate-imbalance correction.

    With ``beta`` supplied, the estimator subtracts
    ``beta . (mean X treated - mean X control)`` and is unbiased for any
    fixed vector; its SE uses per-arm sample variances of
    ``L - beta . X``.  With ``beta`` omitted, per-arm least squares of L
    on X (with intercept) give slopes that are pooled with arm-share
    weights, and the SE uses the per-arm unbiased residual variances
    (denominator n_a - p - 1).
    """
    x, arms = trial.x, trial.arm
    p = x.shape[1]
    if p == 0:
        raise ValueError("covariate adjustment requires at least one covariate")
    lvals = log_contrasts(trial)
    l1, l0 = lvals[arms], lvals[~arms]
    x1, x0 = x[arms], x[~arms]
    m1, m0 = l1.size, l0.size
    diff_x = x1.mean(axis=0) - x0.mean(axis=0)

    if beta is None:
        _check_ols_arms(m1, m0, p)
        est, se, beta_vec, b1, b0, v1, v0 = (
            v[0] for v in _pooled_ols(l1[None], l0[None], x1[None], x0[None])[:7]
        )
        fit = CovariateFit(beta_vec, b1, b0, float(v1), float(v0))
    else:
        beta_vec = np.asarray(beta, dtype=float)
        if beta_vec.shape != (p,):
            raise ValueError(f"beta must have shape ({p},), got {beta_vec.shape}")
        _check_variance_arms(m1, m0)
        v1 = float(np.var(l1 - x1 @ beta_vec, ddof=1))
        v0 = float(np.var(l0 - x0 @ beta_vec, ddof=1))
        fit = CovariateFit(beta_vec, beta_vec, beta_vec, v1, v0)
        est = l1.mean() - l0.mean() - beta_vec @ diff_x
        se = math.sqrt(v1 / m1 + v0 / m0)

    est, se = float(est), float(se)
    ci_low, ci_high = normal_ci(est, se, alpha)
    report = EstimateReport(
        method="covariate_adjusted",
        log_estimate=est,
        se_log=se,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_method="normal",
        alpha=alpha,
        diagnostics={
            "beta": fit.beta_hat.tolist(),
            "beta_source": "supplied" if beta is not None else "estimated",
            "covariate_mean_difference": diff_x.tolist(),
        },
    )
    return report, fit


def _check_ols_arms(m1: int, m0: int, p: int) -> None:
    if m1 < p + 2 or m0 < p + 2:
        raise ArmTooSmall(
            f"per-arm least squares needs >= p+2 = {p + 2} clusters per arm "
            f"(treated={m1}, control={m0})"
        )


# Two least-squares kernels serve every covariate fit of the package:
# :func:`_ols_rows` fits observed data (the estimator, the simulation's
# replicates, the dose-response statistic) by SVD, and
# :func:`_adjusted_diff_rows` re-fits the arms of re-randomized
# assignments for the permutation tests and CIs from within-arm
# scatter sums, with no LAPACK call.


def _pooled_ols(l1, l0, x1, x0):
    """The covariate-adjusted estimator on stacks: (B, m_a) values and
    (B, m_a, p) covariates per arm, one row per replicate.

    Per-arm least squares of L on X (:func:`_ols_rows`) give slopes that
    are pooled with arm-share weights; the estimate is the arm-mean
    difference of L less the pooled slopes times the covariate mean
    difference, and its SE uses the unbiased per-arm residual variances.
    Returns the estimates, the SEs, the pooled slopes, each arm's
    slopes, each arm's residual variance and each arm's residuals.
    """
    m1, m0, p = l1.shape[1], l0.shape[1], x1.shape[2]
    b1, r1 = _ols_rows(x1, l1)
    b0, r0 = _ols_rows(x0, l0)
    m = m1 + m0
    beta = (m1 / m) * b1 + (m0 / m) * b0
    v1 = _row_dot(r1, r1) / (m1 - p - 1)
    v0 = _row_dot(r0, r0) / (m0 - p - 1)
    diff_x = x1.mean(axis=1) - x0.mean(axis=1)
    est = l1.mean(axis=1) - l0.mean(axis=1) - _row_dot(beta, diff_x)
    return est, np.sqrt(v1 / m1 + v0 / m0), beta, b1, b0, v1, v0, r1, r0


def _ols_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of y on x with an intercept for each replicate of
    stacks x (B, n, p), y (B, n): (B, p) slopes and (B, n) residuals,
    from one batched SVD.

    The covariates are centered first, which leaves slopes and residuals
    unchanged in exact arithmetic but makes the fit invariant to
    covariate translation at machine precision.  Each centered column is
    then divided by that covariate's largest magnitude in the replicate,
    so the rank rule judges it relative to the covariate's own scale, as
    :func:`_adjusted_diff_rows` judges its pivots; the slopes are scaled
    back.  The rank rule is numpy ``lstsq``'s default: singular values
    at most ``eps * max(n, p + 1)`` times the largest count as zero, and
    a replicate of rank below p + 1 raises
    :class:`RankDeficientCovariates`.  At full rank the solution
    ``V diag(1/s) U' y`` is lstsq's minimum-norm one, to rounding.  Each
    replicate's SVD and products are those of a stack of one, so a
    replicate gets the same bits in any stack.
    """
    b, n, p = x.shape
    scale = np.abs(x).max(axis=1)  # (B, p); 0 only for an all-zero column
    scale[scale == 0.0] = 1.0
    design = np.empty((b, n, p + 1))  # an intercept and the scaled centered covariates
    design[:, :, 0] = 1.0
    design[:, :, 1:] = (x - x.mean(axis=1)[:, None, :]) / scale[:, None, :]
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(n, p + 1) * s[:, :1],
                                axis=1).min())
    if rank < p + 1:
        raise RankDeficientCovariates(
            f"covariate design matrix has rank {rank} < {p + 1} within one arm"
        )
    uty = np.matmul(u.transpose(0, 2, 1), y[:, :, None]) / s[:, :, None]
    coef = np.matmul(vt.transpose(0, 2, 1), uty)
    return coef[:, 1:, 0] / scale, y - np.matmul(design, coef)[:, :, 0]


def _adjusted_diff_rows(x, arm_matrix, m1, *values):
    """Covariate-adjusted treated-minus-control difference per 0/1 row of
    ``arm_matrix``, one array for each vector of ``values``.

    Re-estimates the pooled per-arm least-squares slopes for every
    assignment in closed form (Frisch-Waugh-Lovell): an arm's slopes
    solve ``S_xx b = S_xv``, its within-arm scatters of the covariates
    (centered once over all clusters) and of each vector.  One product
    per arm with the per-cluster features ``[x, x x', v, x v]`` gives
    every sum.  A p-step elimination without pivoting, batched over arms
    and rows, solves the scatters; its pivots are the D of
    ``S_xx = L D L'``.  A pivot at most ``eps * m`` times the arm's sum
    of squares of that covariate, the rounding error of the sums it came
    from, counts as zero: the row is NaN, which the tail counts put in
    the tail.
    """
    m, p = x.shape
    k = len(values)
    x = x - x.mean(axis=0)  # translation-invariant, better conditioned
    v = np.column_stack(values)
    iu, ju = np.nonzero(np.tri(p, dtype=bool).T)  # the upper triangle
    xv = (x[:, :, None] * v[:, None]).reshape(m, -1)
    feats = np.column_stack([x, x[:, iu] * x[:, ju], v, xv])
    # the sums of each (feature, arm, row), rows along the contiguous last axis
    sums = np.stack([feats.T @ arm_matrix.T, feats.T @ (1.0 - arm_matrix).T], axis=1)
    t = p + iu.size
    sx, sxx, sv, sxv = sums[:p], sums[p:t], sums[t : t + k], sums[t + k :]
    xbar, vbar = sx / [[m1], [m - m1]], sv / [[m1], [m - m1]]
    aug = np.empty((p, p + k, *sums.shape[1:]))  # [S_xx | S_xv] of each arm and row
    aug[iu, ju] = aug[ju, iu] = sxx
    aug[:, p:] = sxv.reshape(aug[:, p:].shape)
    floor = np.finfo(float).eps * m * aug[range(p), range(p)]
    aug -= sx[:, None] * np.concatenate([xbar, vbar])
    for j in range(p):
        aug[j] /= np.where(aug[j, j] > floor[j], aug[j, j], np.nan)
        rest = np.arange(p) != j
        aug[rest] -= aug[rest, j, None] * aug[j]
    slopes = (m1 * aug[:, p:, 0] + (m - m1) * aug[:, p:, 1]) / m  # (p, k, rows)
    return list(vbar[:, 0] - vbar[:, 1] - np.einsum("pr,pkr->kr", xbar[:, 0] - xbar[:, 1], slopes))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for each row i of two (B, n) stacks, as the 1-D
    product computes it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
