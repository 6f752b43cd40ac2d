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
    ClusterRecord,
    ParallelScheme,
    Randomization,
    log_contrasts,
    randomize,
    validate_records,
)
from .errors import (
    AmbiguousRoot,
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


def split_arms(records: Sequence[ClusterRecord]):
    """(treated, control) sublists; both must be nonempty."""
    validate_records(records)
    treated = [r for r in records if r.arm == 1]
    control = [r for r in records if r.arm == 0]
    if not treated or not control:
        raise ArmTooSmall(
            f"both arms must be nonempty (treated={len(treated)}, "
            f"control={len(control)})"
        )
    return treated, control


@lru_cache(maxsize=64)
def _z_quantile(alpha: float) -> float:
    """Two-sided Normal critical value z_{1-alpha/2}."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def normal_ci(log_estimate: float, se: float, alpha: float) -> tuple[float, float]:
    """lam-scale CI: exp(log_estimate +- z_{1-alpha/2} * se)."""
    zq = _z_quantile(alpha)
    return math.exp(log_estimate - zq * se), math.exp(log_estimate + zq * se)


# --------------------------------------------------------------------- #
# Odds ratio
# --------------------------------------------------------------------- #


def odds_ratio_log(records: Sequence[ClusterRecord]) -> float:
    """log of the pooled-count odds ratio; raises ZeroArmTotal on zero sums."""
    y = np.array([r.y_count for r in records])
    z = np.array([r.z_count for r in records])
    arms = np.array([r.arm == 1 for r in records])
    return _odds_ratio_log_arrays(y, z, arms)


def _odds_ratio_log_arrays(y: np.ndarray, z: np.ndarray, arms: np.ndarray) -> float:
    """:func:`odds_ratio_log` on count vectors and a boolean treated mask.

    Arm totals are summed left to right in cluster order.
    """
    sums = {
        "treated test-positive": sum(y[arms].tolist()),
        "control test-positive": sum(y[~arms].tolist()),
        "treated test-negative": sum(z[arms].tolist()),
        "control test-negative": sum(z[~arms].tolist()),
    }
    for name, value in sums.items():
        if value <= 0:
            raise ZeroArmTotal(name)
    return (
        math.log(sums["treated test-positive"])
        - math.log(sums["control test-positive"])
        + math.log(sums["control test-negative"])
        - math.log(sums["treated test-negative"])
    )


def odds_ratio_permutation_draws(
    y: np.ndarray, z: np.ndarray, arm_matrix: np.ndarray
) -> np.ndarray:
    """log odds ratio for each 0/1 row of ``arm_matrix``, counts held fixed."""
    ty = arm_matrix @ y
    tz = arm_matrix @ z
    cy = y.sum() - ty
    cz = z.sum() - tz
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(ty) - np.log(cy) + np.log(cz) - np.log(tz)
    return vals


# supports up to this size give the odds-ratio SE by full enumeration
_OR_ENUMERATION_LIMIT = 20000


def odds_ratio_estimate(
    records: Sequence[ClusterRecord],
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
    treated, control = split_arms(records)
    log_or = odds_ratio_log(records)
    y = np.array([r.y_count for r in records])
    z = np.array([r.z_count for r in records])
    rz = _odds_ratio_relabelings(
        ParallelScheme(m=len(records), m1=len(treated)), se_draws, seed
    )
    se = _permutation_se(odds_ratio_permutation_draws(y, z, rz.rows()))
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


# --------------------------------------------------------------------- #
# Test-positive fraction
# --------------------------------------------------------------------- #


def tpf_statistic(records: Sequence[ClusterRecord]) -> tuple[float, float]:
    """Arm-mean difference of test-positive fractions and pooled ratio r.

    Returns ``(T, r)`` with ``T`` the treated-minus-control mean of
    ``y / (y + z)`` and ``r`` the pooled negative:positive count ratio.
    """
    split_arms(records)
    for r in records:
        if r.y_count + r.z_count <= 0:
            raise EmptyCluster(r.cluster_id)
    return _tpf_statistic_arrays(
        np.array([r.y_count for r in records]),
        np.array([r.z_count for r in records]),
        np.array([r.arm == 1 for r in records]),
    )


def _tpf_statistic_arrays(
    y: np.ndarray, z: np.ndarray, arms: np.ndarray
) -> tuple[float, float]:
    """:func:`tpf_statistic` on counts with nonzero y + z and a treated mask.

    Sums run left to right in cluster order, as Python's ``sum`` does.
    """
    ys, zs = y.tolist(), z.tolist()
    total_y, total_z = sum(ys), sum(zs)
    if total_y <= 0:
        raise ZeroPositiveTotal("pooled test-positive count is zero")
    frac = [yi / (yi + zi) for yi, zi in zip(ys, zs)]
    treated = [f for f, a in zip(frac, arms.tolist()) if a]
    control = [f for f, a in zip(frac, arms.tolist()) if not a]
    t_val = sum(treated) / len(treated) - sum(control) / len(control)
    return float(t_val), float(total_z / total_y)


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
    # a < 0 < c inside the attainable range, so the roots have opposite
    # signs; the stable formula avoids cancellation in the small root.
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        raise NoAdmissibleRoot(t_stat, r, bound)
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b)) if b != 0 else math.sqrt(
        -a * c
    )
    roots = [q / a, c / q] if q != 0 else [0.0, 0.0]
    positive = [x for x in roots if x > 0]
    if len(positive) != 1:
        raise AmbiguousRoot(
            f"root selection failed for T={t_stat}, r={r}: roots {roots}"
        )
    lam = positive[0]
    if (lam < 1.0) != (t_stat < 0.0):
        raise AmbiguousRoot(
            f"selected root {lam} is inconsistent with the sign of T={t_stat}"
        )
    return lam


def tpf_estimate(
    records: Sequence[ClusterRecord], *, alpha: float = 0.05
) -> EstimateReport:
    """Point estimate via the fraction statistic; no analytic SE is attached.

    A standard error for this estimator is not conveniently computable,
    so confidence intervals come from test inversion through the
    permutation engine.  A diagnostic flag is raised under unequal
    allocation, where the expected-fraction approximation is derived
    assuming equal arms.
    """
    t_stat, r = tpf_statistic(records)
    lam = tpf_solve(t_stat, r)
    m = len(records)
    m1 = sum(rec.arm for rec in records)
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


def _arm_arrays(records, correction):
    arms = np.array([r.arm for r in records], dtype=bool)
    lvals = log_contrasts(records, correction)
    return lvals, arms


def log_contrast_estimate(
    records: Sequence[ClusterRecord],
    *,
    alpha: float = 0.05,
    correction: bool = False,
) -> EstimateReport:
    """Arm-mean difference of log-contrasts with its unbiased variance.

    The estimate is ``mean(L | treated) - mean(L | control)``; the
    variance estimate is ``s1^2/m1 + s0^2/m0`` with per-arm sample
    variances (denominator n_a - 1).  Each arm needs at least two
    clusters.
    """
    split_arms(records)
    lvals, arms = _arm_arrays(records, correction)
    est, se = _log_contrast_arrays(lvals, arms)
    ci_low, ci_high = normal_ci(est, se, alpha)
    m1 = int(arms.sum())
    return EstimateReport(
        method="log_contrast",
        log_estimate=est,
        se_log=se,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_method="normal",
        alpha=alpha,
        diagnostics={"m1": m1, "m0": arms.size - m1},
    )


def _log_contrast_arrays(lvals: np.ndarray, arms: np.ndarray) -> tuple[float, float]:
    """(estimate, SE) of :func:`log_contrast_estimate` from a treated mask."""
    l1, l0 = lvals[arms], lvals[~arms]
    if l1.size < 2 or l0.size < 2:
        raise ArmTooSmall(
            f"variance estimation needs >= 2 clusters per arm "
            f"(treated={l1.size}, control={l0.size})"
        )
    est = float(l1.mean() - l0.mean())
    var = float(np.var(l1, ddof=1) / l1.size + np.var(l0, ddof=1) / l0.size)
    return est, math.sqrt(var)


# --------------------------------------------------------------------- #
# Covariate adjustment
# --------------------------------------------------------------------- #


def _ols_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes of y on x (with intercept) and the residuals.

    The covariates are centered before solving, which leaves slopes and
    residuals unchanged in exact arithmetic but makes the computation
    invariant to covariate translation at machine precision.
    """
    n, p = x.shape
    xc = x - x.mean(axis=0)
    design = np.column_stack([np.ones(n), xc])
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < p + 1:
        raise RankDeficientCovariates(
            f"covariate design matrix has rank {rank} < {p + 1} within one arm"
        )
    return coef[1:], y - design @ coef


def covariate_adjusted_estimate(
    records: Sequence[ClusterRecord],
    beta: Sequence[float] | None = None,
    *,
    alpha: float = 0.05,
    correction: bool = False,
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
    split_arms(records)
    if not records[0].covariates:
        raise ValueError("covariate adjustment requires at least one covariate")
    lvals, arms = _arm_arrays(records, correction)
    x = np.array([r.covariates for r in records], dtype=float)
    est, se, fit, diff_x = _covariate_adjusted_arrays(lvals, arms, x, beta)
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


def _covariate_adjusted_arrays(
    lvals: np.ndarray,
    arms: np.ndarray,
    x: np.ndarray,
    beta: Sequence[float] | None = None,
) -> tuple[float, float, CovariateFit, np.ndarray]:
    """(estimate, SE, fit, covariate mean difference) of
    :func:`covariate_adjusted_estimate` from an (m, p) covariate matrix."""
    p = x.shape[1]
    l1, l0 = lvals[arms], lvals[~arms]
    x1, x0 = x[arms], x[~arms]
    m1, m0 = l1.size, l0.size
    m = m1 + m0
    diff_x = x1.mean(axis=0) - x0.mean(axis=0)

    if beta is not None:
        beta_vec = np.asarray(beta, dtype=float)
        if beta_vec.shape != (p,):
            raise ValueError(f"beta must have shape ({p},), got {beta_vec.shape}")
        if m1 < 2 or m0 < 2:
            raise ArmTooSmall(
                f"variance estimation needs >= 2 clusters per arm "
                f"(treated={m1}, control={m0})"
            )
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
        if m1 < p + 2 or m0 < p + 2:
            raise ArmTooSmall(
                f"per-arm least squares needs >= p+2 = {p + 2} clusters per arm "
                f"(treated={m1}, control={m0})"
            )
        b1, r1 = _ols_fit(x1, l1)
        b0, r0 = _ols_fit(x0, l0)
        # unbiased residual variances
        v1, v0 = float(r1 @ r1 / (m1 - p - 1)), float(r0 @ r0 / (m0 - p - 1))
        beta_vec = (m1 / m) * b1 + (m0 / m) * b0
        fit = CovariateFit(
            beta_hat=beta_vec,
            beta_treated=b1,
            beta_control=b0,
            resid_var_treated=v1,
            resid_var_control=v0,
        )

    est = float(l1.mean() - l0.mean() - beta_vec @ diff_x)
    se = math.sqrt(v1 / m1 + v0 / m0)
    return est, se, fit, diff_x
