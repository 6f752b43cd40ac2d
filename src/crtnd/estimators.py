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


def _seq_sum(values: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as Python's ``sum`` adds a list."""
    return np.cumsum(values, axis=1)[:, -1]


# --------------------------------------------------------------------- #
# Odds ratio
# --------------------------------------------------------------------- #


def odds_ratio_log(trial: Trial) -> float:
    """log of the pooled-count odds ratio; raises ZeroArmTotal on zero sums.

    Arm totals are summed left to right in cluster order.
    """
    totals = [float(v[0]) for v in _arm_totals(trial.y[None], trial.z[None],
                                              trial.arm[None])]
    names = ("treated test-positive", "control test-positive",
             "treated test-negative", "control test-negative")
    for name, value in zip(names, totals):
        if value <= 0:
            raise ZeroArmTotal(name)
    return _log_odds_ratio(*totals)


def _arm_totals(y: np.ndarray, z: np.ndarray, arms: np.ndarray):
    """Per-row arm totals (treated y, control y, treated z, control z)."""
    return tuple(_seq_sum(part) for v in (y, z) for part in _arm_split(v, arms))


def _log_odds_ratio(ty: float, cy: float, tz: float, cz: float) -> float:
    """The log odds ratio of one row's arm totals, in :func:`math.log`."""
    return math.log(ty) - math.log(cy) + math.log(cz) - math.log(tz)


def odds_ratio_permutation_draws(
    y: np.ndarray, z: np.ndarray, arm_matrix: np.ndarray
) -> np.ndarray:
    """log odds ratio for each 0/1 row of ``arm_matrix``, counts held fixed."""
    return _odds_ratio_draws(arm_matrix @ y, arm_matrix @ z, y.sum(), z.sum())


def _odds_ratio_draws(ty, tz, y_total, z_total) -> np.ndarray:
    """log odds ratios from treated sums ``ty``, ``tz`` and the totals;
    non-finite where an arm total vanishes.  ``ty`` and ``tz`` are
    overwritten: the result is ``ty``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(ty) - log(cy) + log(cz) - log(tz), left to right, in place
        control = np.log(y_total - ty)
        np.log(ty, out=ty)
        ty -= control
        control = np.log(z_total - tz)
        ty += control
        ty -= np.log(tz, out=tz)
    return ty


# supports up to this size give the odds-ratio SE by full enumeration
_OR_ENUMERATION_LIMIT = 20000


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
    to 20,000 relabelings, else ``se_draws`` drawn from stream
    ``(seed, 0x0D)``.
    """
    log_or = odds_ratio_log(trial)
    rz = _odds_ratio_relabelings(trial.scheme, se_draws, seed)
    se = _permutation_se(odds_ratio_permutation_draws(trial.y, trial.z, rz.rows()))
    ci_low = ci_high = None
    if se is not None:
        ci_low, ci_high = normal_ci(log_or, se, alpha)
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
    return randomize(scheme, "auto", se_draws, (seed, 0x0D), _OR_ENUMERATION_LIMIT)


def _permutation_se(draws: np.ndarray) -> float | None:
    """Standard deviation of the finite re-randomized values (None below 2)."""
    draws = draws[np.isfinite(draws)]
    return float(np.std(draws, ddof=1)) if draws.size >= 2 else None


def _permutation_ses(draws: np.ndarray) -> list[float | None]:
    """:func:`_permutation_se` of each row of a (B, n) stack."""
    finite = np.isfinite(draws).all(axis=1)
    if draws.shape[1] < 2 or not finite.all():
        return [_permutation_se(row) for row in draws]
    return np.std(draws, axis=1, ddof=1).tolist()


# --------------------------------------------------------------------- #
# Test-positive fraction
# --------------------------------------------------------------------- #


def tpf_statistic(trial: Trial) -> tuple[float, float]:
    """Arm-mean difference of test-positive fractions and pooled ratio r.

    Returns ``(T, r)`` with ``T`` the treated-minus-control mean of
    ``y / (y + z)`` and ``r`` the pooled negative:positive count ratio.
    Sums run left to right in cluster order, as Python's ``sum`` does.
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
    t_val = _seq_sum(f1) / f1.shape[1] - _seq_sum(f0) / f0.shape[1]
    return t_val, _seq_sum(z) / _seq_sum(y)


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
    inside the attainable range ``(-2/(2+r), 2/(2+r))``.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be a positive real, got {r!r}")
    if t_stat == 0.0:
        return 1.0
    bound = 2.0 / (2.0 + r)
    if abs(t_stat) >= bound:
        raise NoAdmissibleRoot(t_stat, r, bound)
    a = r * (t_stat * (2.0 + r) - 2.0)
    b = t_stat * ((2.0 + r) ** 2 + r * r)
    c = r * (t_stat * (2.0 + r) + 2.0)
    # Inside the range a < 0 < c, so the roots have opposite signs; b has
    # T's sign and q the other one, so the positive root is q / a for
    # T > 0 and c / q for T < 0 (the stable formula: no cancellation in
    # the small root).  Rounding can break a < 0 < c just inside +-bound.
    if not a < 0.0 < c:
        raise NoAdmissibleRoot(t_stat, r, bound)
    q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
    return q / a if t_stat > 0.0 else c / q


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
        log_estimate=math.log(lam),
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


def _ols_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes of y on x (with intercept) and the residuals.

    The covariates are centered before solving, which leaves slopes and
    residuals unchanged in exact arithmetic but makes the computation
    invariant to covariate translation at machine precision.
    """
    slopes, resid = _ols_rows(x[None], y[None])
    return slopes[0], resid[0]


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

    if beta is not None:
        beta_vec = np.asarray(beta, dtype=float)
        if beta_vec.shape != (p,):
            raise ValueError(f"beta must have shape ({p},), got {beta_vec.shape}")
        _check_variance_arms(m1, m0)
        g1 = l1 - x1 @ beta_vec
        g0 = l0 - x0 @ beta_vec
        v1 = float(np.var(g1, ddof=1))
        v0 = float(np.var(g0, ddof=1))
        fit = CovariateFit(
            beta_hat=beta_vec,
            beta_treated=beta_vec,
            beta_control=beta_vec,
            resid_var_treated=v1,
            resid_var_control=v0,
        )
    else:
        _check_ols_arms(m1, m0, p)
        beta_vec, b1, b0, v1, v0 = (
            v[0] for v in _pooled_ols(l1[None], l0[None], x1[None], x0[None])
        )
        v1, v0 = float(v1), float(v0)
        fit = CovariateFit(
            beta_hat=beta_vec,
            beta_treated=b1,
            beta_control=b0,
            resid_var_treated=v1,
            resid_var_control=v0,
        )

    est = float(l1.mean() - l0.mean() - beta_vec @ diff_x)
    se = math.sqrt(v1 / m1 + v0 / m0)
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


def _pooled_ols(l1, l0, x1, x0):
    """Per-arm least squares of L on X, slopes pooled with arm-share
    weights, for stacks: (B, m_a) log-contrasts and (B, m_a, p)
    covariates per arm.  Returns the pooled slopes, each arm's slopes
    and the unbiased per-arm residual variances, one row per replicate.
    """
    m1, m0, p = l1.shape[1], l0.shape[1], x1.shape[2]
    b1, r1 = _ols_rows(x1, l1)
    b0, r0 = _ols_rows(x0, l0)
    m = m1 + m0
    return (
        (m1 / m) * b1 + (m0 / m) * b0,
        b1,
        b0,
        _row_dot(r1, r1) / (m1 - p - 1),
        _row_dot(r0, r0) / (m0 - p - 1),
    )


def _ols_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_ols_fit` of each replicate of stacks x (B, n, p), y (B, n):
    (B, p) slopes and (B, n) residuals, one least-squares solve each."""
    b, n, p = x.shape
    design = np.empty((b, n, p + 1))
    design[:, :, 0] = 1.0
    design[:, :, 1:] = x - x.mean(axis=1)[:, None, :]
    coef = np.empty((b, p + 1))
    for i in range(b):
        coef[i], _, rank, _ = np.linalg.lstsq(design[i], y[i], rcond=None)
        if rank < p + 1:
            raise RankDeficientCovariates(
                f"covariate design matrix has rank {rank} < {p + 1} within one arm"
            )
    return coef[:, 1:], y - np.matmul(design, coef[:, :, None])[:, :, 0]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for each row i of two (B, n) stacks, as the 1-D
    product computes it."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
