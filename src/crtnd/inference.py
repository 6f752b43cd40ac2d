"""Randomization tests, Normal tests, test inversion, and dose-response.

The permutation engine exploits one fact: under a sharp null the
per-cluster control log-contrasts are recoverable from the observed
data and do not depend on the assignment.  For a relative-risk null
``lam = lam0`` they are ``L - arm * log(lam0)``; for a linear
dose-response null ``beta = beta0`` they are ``L - beta0 * dose``.
Re-randomizing arm labels against these fixed values reproduces the
exact null distribution of any statistic, which yields exact tests
and test-inversion confidence intervals.  The dose coefficient's
estimate is the ratio at which its working statistic vanishes, so
p = 1 there.

Arm labels and p-value arithmetic come from :func:`crtnd.core.randomize`
(``auto``: exact up to 100,000 assignments), drawn from stream
``(seed, 0xBE)`` for tests and ``(seed, 0xC1)`` for test inversion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    ClusterRecord,
    ParallelScheme,
    Randomization,
    log_contrasts,
    randomize,
)
from .errors import (
    ConstantDose,
    MissingDose,
    NoNonRejectedPoint,
    StatisticUndefined,
)
from .estimators import (
    EstimateReport,
    covariate_adjusted_estimate,
    log_contrast_estimate,
    odds_ratio_log,
    odds_ratio_permutation_draws,
    split_arms,
    tpf_estimate,
    tpf_expected,
    tpf_statistic,
    _ols_fit,
    _z_quantile,
)

__all__ = [
    "NullSpec",
    "PermutationResult",
    "impute_null_outcomes",
    "permutation_test",
    "normal_test",
    "invert_ci",
    "dose_response_estimate",
    "dose_response_pvalue",
]

# Ties in permutation distributions are counted with a small relative
# slack so floating-point noise cannot drop a true tie; extra ties only
# make p-values larger (conservative).
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class NullSpec:
    """A sharp null hypothesis: relative risk lam0 or dose coefficient beta0."""

    kind: str  # "relative_risk" | "dose_response"
    value: float
    adjustment: str = "none"  # "none" | "covariates"

    def __post_init__(self):
        if self.kind not in ("relative_risk", "dose_response"):
            raise ValueError(f"unknown null kind {self.kind!r}")
        if self.kind == "relative_risk" and self.value <= 0:
            raise ValueError(f"relative-risk null requires lam0 > 0, got {self.value}")
        if self.adjustment not in ("none", "covariates"):
            raise ValueError(f"unknown adjustment {self.adjustment!r}")


@dataclass
class PermutationResult:
    """Tail probabilities of a statistic over re-randomized assignments."""

    observed_stat: float
    null_draws: int
    p_two_sided: float
    p_left: float
    p_right: float
    mode: str  # "exact" | "monte_carlo"
    n_draws: int | None = None
    seed: int | None = None
    statistic: str = ""
    support_size: int | None = None  # assignments in the design's support
    mode_reason: str = ""  # why ``mode`` was used
    mc_se: float | None = None  # sqrt(p (1 - p) / n_draws) of p_two_sided; 0 if exact

    def to_dict(self) -> dict:
        return {
            "observed_stat": self.observed_stat,
            "null_draws": self.null_draws,
            "p_two_sided": self.p_two_sided,
            "p_left": self.p_left,
            "p_right": self.p_right,
            "mode": self.mode,
            "n_draws": self.n_draws,
            "seed": self.seed,
            "statistic": self.statistic,
            "support_size": self.support_size,
            "mode_reason": self.mode_reason,
            "mc_se": self.mc_se,
        }


def impute_null_outcomes(
    records: Sequence[ClusterRecord],
    null: NullSpec,
    *,
    correction: bool = False,
) -> np.ndarray:
    """Control log-contrasts implied by a sharp null (assignment-invariant).

    relative_risk: ``L - arm * log(lam0)``.  dose_response:
    ``L - beta0 * dose`` (raises :class:`MissingDose` on records without
    a dose).
    """
    lvals = log_contrasts(records, correction)
    if null.kind == "relative_risk":
        arms = np.array([r.arm for r in records], dtype=float)
        return lvals - arms * math.log(null.value)
    doses = _dose_vector(records)
    return lvals - null.value * doses


def _dose_vector(records: Sequence[ClusterRecord]) -> np.ndarray:
    for r in records:
        if r.dose is None:
            raise MissingDose(r.cluster_id)
    return np.array([r.dose for r in records], dtype=float)


# --------------------------------------------------------------------- #
# Statistic evaluation over assignment matrices
# --------------------------------------------------------------------- #


def _diff_means_rows(values: np.ndarray, arm_matrix: np.ndarray, m1: int) -> np.ndarray:
    """Treated-minus-control mean of ``values`` for each 0/1 row."""
    m = values.shape[0]
    treated_sums = arm_matrix @ values
    total = values.sum()
    return treated_sums / m1 - (total - treated_sums) / (m - m1)


def _adjusted_diff_rows(
    values: np.ndarray, x: np.ndarray, arm_matrix: np.ndarray, m1: int
) -> np.ndarray:
    """Covariate-adjusted treated-minus-control difference per 0/1 row.

    Re-estimates the pooled per-arm least-squares slopes for every
    assignment, mirroring the full estimation procedure.  Solved as
    batched normal equations; falls back to row-by-row least squares if
    some re-randomized arm design is singular.
    """
    try:
        return _adjusted_diff_rows_batched(values, x, arm_matrix, m1)
    except np.linalg.LinAlgError:
        return _adjusted_diff_rows_loop(values, x, arm_matrix, m1)


def _adjusted_diff_rows_batched(values, x, arm_matrix, m1):
    m = values.shape[0]
    m0 = m - m1
    x = x - x.mean(axis=0)  # translation-invariant, better conditioned
    g = np.column_stack([np.ones(m), x])  # per-cluster design row (1, x_i)
    q = g.shape[1]
    gg = (g[:, :, None] * g[:, None, :]).reshape(m, q * q)
    mask1 = arm_matrix.astype(float)
    mask0 = 1.0 - mask1

    def arm_coefs(mask):
        normal = (mask @ gg).reshape(-1, q, q)
        rhs = (mask * values) @ g
        return np.linalg.solve(normal, rhs[:, :, None])[:, :, 0]

    b1 = arm_coefs(mask1)
    b0 = arm_coefs(mask0)
    slopes = (m1 * b1[:, 1:] + m0 * b0[:, 1:]) / m
    w_diff = (mask1 @ values) / m1 - (mask0 @ values) / m0
    x_diff = (mask1 @ x) / m1 - (mask0 @ x) / m0
    return w_diff - np.einsum("rp,rp->r", slopes, x_diff)


def _adjusted_diff_rows_loop(values, x, arm_matrix, m1):
    out = np.empty(arm_matrix.shape[0])
    m = values.shape[0]
    for k in range(arm_matrix.shape[0]):
        arms = arm_matrix[k].astype(bool)
        w1, w0 = values[arms], values[~arms]
        x1, x0 = x[arms], x[~arms]
        b1, _ = _ols_fit(x1, w1)
        b0, _ = _ols_fit(x0, w0)
        beta = (w1.size * b1 + w0.size * b0) / m
        out[k] = w1.mean() - w0.mean() - beta @ (x1.mean(axis=0) - x0.mean(axis=0))
    return out


def _tail_counts(draws: np.ndarray, observed: float) -> tuple[int, int, int]:
    slack = _TIE_RTOL * abs(observed)
    bad = ~np.isfinite(draws)
    two = _two_sided_count(draws, observed)
    left = int(np.sum((draws <= observed + slack) | bad))
    right = int(np.sum((draws >= observed - slack) | bad))
    return two, left, right


def _two_sided_count(draws: np.ndarray, observed: float) -> int:
    """#{|T*| >= |T_obs|} with the tie slack; non-finite draws count."""
    slack = _TIE_RTOL * abs(observed)
    return int(np.count_nonzero(
        (np.abs(draws) >= abs(observed) - slack) | ~np.isfinite(draws)
    ))


def _build_statistic(
    records: Sequence[ClusterRecord],
    null: NullSpec,
    statistic: str,
    correction: bool,
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """(row evaluator, observed deviation) for one statistic and null."""
    m1 = sum(r.arm for r in records)
    observed_arms = np.array([r.arm for r in records], dtype=float)

    if statistic in ("difference_in_means", "log_contrast", "covariate_adjusted"):
        l0 = impute_null_outcomes(records, null, correction=correction)
        use_adjusted = statistic == "covariate_adjusted" or (
            null.kind == "dose_response" and null.adjustment == "covariates"
        )
        if use_adjusted:
            x = np.array([r.covariates for r in records], dtype=float)
            if x.shape[1] == 0:
                raise StatisticUndefined(
                    "the covariate-adjusted statistic requires covariates"
                )
            evaluate = lambda rows: _adjusted_diff_rows(l0, x, rows, m1)
        else:
            evaluate = lambda rows: _diff_means_rows(l0, rows, m1)
        observed = float(evaluate(observed_arms[None, :])[0])
        return evaluate, observed

    if null.kind != "relative_risk":
        raise StatisticUndefined(
            f"the {statistic} statistic tests relative-risk nulls only"
        )
    if statistic == "tpf":
        fractions = np.array(
            [r.y_count / (r.y_count + r.z_count) for r in records], dtype=float
        )
        t_obs, r_obs = tpf_statistic(records)
        observed = t_obs - tpf_expected(null.value, r_obs)
        return (lambda rows: _diff_means_rows(fractions, rows, m1)), observed
    if statistic == "odds_ratio":
        y = np.array([r.y_count for r in records])
        z = np.array([r.z_count for r in records])
        observed = odds_ratio_log(records) - math.log(null.value)
        return (lambda rows: odds_ratio_permutation_draws(y, z, rows)), observed
    raise ValueError(f"unknown statistic {statistic!r}")


def permutation_test(
    records: Sequence[ClusterRecord],
    null: NullSpec,
    statistic: str = "difference_in_means",
    *,
    mode: str = "auto",
    n_draws: int = 9999,
    seed: int = 0,
    correction: bool = False,
) -> PermutationResult:
    """Randomization test of a sharp null.

    The statistic is evaluated, as a deviation from its null-implied
    center, at the observed assignment and at every enumerated (exact
    mode) or uniformly sampled (monte_carlo mode) assignment.  The exact
    two-sided p is ``#{|T*| >= |T_obs|} / total`` with the observed
    assignment included; Monte Carlo p uses the add-one rule
    ``(1 + #{|T*| >= |T_obs|}) / (1 + n_draws)`` so p is never 0.

    Statistics: ``difference_in_means`` (arm-mean difference of the
    null-imputed control log-contrasts; alias ``log_contrast``),
    ``covariate_adjusted`` (slopes re-estimated per assignment), and,
    for relative-risk nulls only, the count-based ``tpf`` and
    ``odds_ratio`` statistics with per-cluster counts held fixed.
    """
    treated, _ = split_arms(records)
    scheme = ParallelScheme(m=len(records), m1=len(treated))
    evaluate, observed = _build_statistic(records, null, statistic, correction)
    return _permutation_result(
        evaluate, observed, randomize(scheme, mode, n_draws, (seed, 0xBE)),
        seed=seed, statistic=statistic,
    )


def _permutation_result(
    evaluate: Callable[[np.ndarray], np.ndarray],
    observed: float,
    rz: Randomization,
    *,
    seed: int,
    statistic: str,
) -> PermutationResult:
    """Tail p-values of ``evaluate`` over the rows of ``rz``."""
    two = left = right = 0
    for rows in rz.blocks():
        t, l, r = _tail_counts(evaluate(rows), observed)
        two, left, right = two + t, left + l, right + r
    p = rz.p(two)
    drawn = rz.mode == "monte_carlo"
    return PermutationResult(
        observed_stat=observed,
        null_draws=rz.n_rows,
        p_two_sided=p,
        p_left=rz.p(left),
        p_right=rz.p(right),
        mode=rz.mode,
        n_draws=rz.n_rows if drawn else None,
        seed=seed if drawn else None,
        statistic=statistic,
        support_size=rz.support_size,
        mode_reason=rz.reason,
        mc_se=math.sqrt(p * (1.0 - p) / rz.n_rows) if drawn and rz.n_rows else 0.0,
    )


# --------------------------------------------------------------------- #
# Normal-approximation tests
# --------------------------------------------------------------------- #


def _two_sided_p(deviation: float, se: float, scale: float) -> tuple[float, dict]:
    """Normal p-value with explicit handling of a degenerate (zero) SE."""
    tol = 1e-12 * (1.0 + scale)
    if se <= tol:
        if abs(deviation) <= tol:
            return 1.0, {"degenerate_variance": "estimate matches the null exactly"}
        return 0.0, {"degenerate_variance": "zero SE with nonzero deviation"}
    # two-sided Normal tail: 2 * Phi(-|z|) = erfc(|z| / sqrt(2))
    return math.erfc(abs(deviation) / (se * math.sqrt(2.0))), {}


def normal_test(
    records: Sequence[ClusterRecord],
    null: NullSpec,
    method: str = "log_contrast",
    *,
    alpha: float = 0.05,
    correction: bool = False,
) -> EstimateReport:
    """z-test of a sharp null based on an estimator and its SE.

    For relative-risk nulls, ``method`` selects the log-contrast or
    covariate-adjusted estimator; the report carries the estimate, its
    Normal CI, and the two-sided p-value at the null.  For dose-response
    nulls the working outcome ``L - beta0 * dose`` is tested for zero
    arm difference, and the report's estimate is the implied
    instrumental-variable ratio.
    """
    if null.kind == "relative_risk":
        if method == "log_contrast":
            report = log_contrast_estimate(records, alpha=alpha, correction=correction)
        elif method == "covariate_adjusted":
            report, _ = covariate_adjusted_estimate(
                records, alpha=alpha, correction=correction
            )
        else:
            raise ValueError(
                f"method {method!r} does not support relative-risk normal tests"
            )
        deviation = report.log_estimate - math.log(null.value)
        p, flags = _two_sided_p(deviation, report.se_log, abs(report.log_estimate))
        report.p_value = p
        report.diagnostics.update(flags)
        report.diagnostics["null_lambda"] = null.value
        return report
    if method != "dose_response":
        raise ValueError(f"method {method!r} does not support dose-response nulls")
    return _dose_normal_report(
        records, null.value, null.adjustment, alpha=alpha, correction=correction
    )


@dataclass(frozen=True)
class _DoseStat:
    """Working statistic of the dose null beta = beta0: ``num - beta0 * den``.

    ``num`` and ``den`` are the arm differences of L and of dose, both
    covariate-adjusted with per-arm least-squares slopes when covariates
    are used.  Residuals are linear in the response, so the squared SE
    of the working outcome ``L - beta0 * dose`` is the quadratic
    ``a - 2 b beta0 + c beta0^2`` with ``var = (a, b, c)``.
    """

    num: float
    den: float
    var: tuple[float, float, float]
    dose_gap: float  # unadjusted arm difference of dose: the scan centre
    lvals: np.ndarray
    doses: np.ndarray

    def at(self, beta0: float) -> tuple[float, float, float]:
        """(working difference, SE, scale) at beta0."""
        a, b, c = self.var
        se = math.sqrt(max(a - 2.0 * b * beta0 + c * beta0 * beta0, 0.0))
        scale = float(np.mean(np.abs(self.lvals - beta0 * self.doses)))
        return self.num - beta0 * self.den, se, scale


def _dose_stat(
    records: Sequence[ClusterRecord], adjustment: str, correction: bool
) -> _DoseStat:
    """The working statistic of dose nulls on ``records``.

    Residual products are summed as ``np.var`` sums them (no covariates)
    or as :func:`covariate_adjusted_estimate` does (covariates), so
    ``sqrt(a)``, the SE at beta0 = 0, keeps the bits the permutation
    CI's scan bounds use.
    """
    lvals = log_contrasts(records, correction)
    doses = _dose_vector(records)
    arms = np.array([r.arm for r in records], dtype=bool)
    x = (
        np.array([r.covariates for r in records], dtype=float)
        if adjustment == "covariates"
        else None
    )
    num, resid_l, k = _arm_difference(lvals, arms, x)
    den, resid_d, _ = _arm_difference(doses, arms, x)
    dot = (lambda u, v: np.sum(u * v)) if x is None else (lambda u, v: u @ v)
    var = [0.0, 0.0, 0.0]
    for rl, rd in zip(resid_l, resid_d):
        n = rl.size
        for i, (u, v) in enumerate(((rl, rl), (rl, rd), (rd, rd))):
            var[i] += float(dot(u, v) / (n - k)) / n
    return _DoseStat(
        num=num,
        den=den,
        var=tuple(var),
        dose_gap=float(doses[arms].mean() - doses[~arms].mean()),
        lvals=lvals,
        doses=doses,
    )


def _arm_difference(values: np.ndarray, arms: np.ndarray, x: np.ndarray | None):
    """(arm difference, per-arm residuals, parameters fitted per arm).

    Without covariates the residuals are deviations from the arm mean;
    with them, from each arm's least-squares fit, and the difference
    subtracts the pooled slopes times the covariate mean difference.
    """
    groups = (arms, ~arms)
    if x is None:
        resid = [values[g] - values[g].mean() for g in groups]
        return float(values[arms].mean() - values[~arms].mean()), resid, 1
    (b1, r1), (b0, r0) = (_ols_fit(x[g], values[g]) for g in groups)
    beta = (r1.size * b1 + r0.size * b0) / values.shape[0]
    diff = values[arms].mean() - values[~arms].mean() - beta @ (
        x[arms].mean(axis=0) - x[~arms].mean(axis=0)
    )
    return float(diff), [r1, r0], 1 + x.shape[1]


def _fieller_ci(stat: _DoseStat, alpha: float) -> tuple[float, float]:
    """{beta0 : Normal p > alpha}, the Fieller interval of ``num / den``.

    p > alpha exactly where ``(num - beta0 den)^2 < z^2 se(beta0)^2``:
    between the roots of ``(A^2 - z^2 c) beta^2 - 2 (D A - z^2 b) beta
    + (D^2 - z^2 a)`` with D = num and A = den.  When ``A^2 <= z^2 c``
    the accepted set is unbounded and :class:`NoNonRejectedPoint` is
    raised.
    """
    z2 = _z_quantile(alpha) ** 2
    a, b, c = stat.var
    qa = stat.den * stat.den - z2 * c
    qb = stat.num * stat.den - z2 * b
    qc = stat.num * stat.num - z2 * a
    if qa <= 0.0:
        raise NoNonRejectedPoint(
            "the Normal confidence set of the dose coefficient is unbounded: "
            "the doses separate the arms too weakly"
        )
    disc = qb * qb - qa * qc
    if disc <= 0.0:
        raise NoNonRejectedPoint(f"no dose coefficient has p > {alpha}")
    q = qb + math.copysign(math.sqrt(disc), qb)  # no cancellation
    lo, hi = sorted((q / qa, qc / q))
    return lo, hi


def dose_response_pvalue(
    records: Sequence[ClusterRecord],
    beta0: float,
    *,
    adjustment: str = "none",
    correction: bool = False,
) -> float:
    """Normal-approximation p-value for the sharp null beta = beta0."""
    p, _ = _two_sided_p(*_dose_stat(records, adjustment, correction).at(beta0))
    return p


def _dose_normal_report(
    records, beta0, adjustment, *, alpha, correction
) -> EstimateReport:
    stat = _dose_stat(records, adjustment, correction)
    est, se, scale = stat.at(beta0)
    p, flags = _two_sided_p(est, se, scale)
    diagnostics = {
        "null_beta": beta0,
        "adjustment": adjustment,
        "working_difference": est,
        "dose_arm_difference": stat.den,
    }
    diagnostics.update(flags)
    if abs(stat.den) < 1e-12:
        # instrument has no arm separation; no ratio estimate exists
        return EstimateReport(
            method="dose_response",
            log_estimate=beta0,
            se_log=se,
            ci_method="none",
            alpha=alpha,
            p_value=p,
            scale="beta",
            diagnostics=diagnostics,
        )
    # the working difference's slope in beta0 is -den
    ratio = stat.num / stat.den
    se_ratio = se / abs(stat.den)
    zq = _z_quantile(alpha)
    return EstimateReport(
        method="dose_response",
        log_estimate=ratio,
        se_log=se_ratio,
        ci_low=ratio - zq * se_ratio,
        ci_high=ratio + zq * se_ratio,
        ci_method="normal",
        alpha=alpha,
        p_value=p,
        scale="beta",
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------------- #
# Test inversion
# --------------------------------------------------------------------- #


def _pvalue_function(
    records: Sequence[ClusterRecord],
    method: str,
    *,
    adjustment: str,
    mode: str,
    n_draws: int,
    seed: int,
    correction: bool,
) -> tuple[Callable[[float], float], str]:
    """Permutation p(theta0) on the search scale: log(lam0), or beta0.

    All theta0 share one set of re-randomized assignments (common random
    numbers), so the p-value curve is deterministic given the seed and
    free of resampling jitter.
    """
    if method in ("log_contrast", "covariate_adjusted", "tpf", "odds_ratio"):
        kind = "relative_risk"
    elif method == "dose_response":
        kind = "dose_response"
    else:
        raise ValueError(f"unknown method {method!r}")

    treated, _ = split_arms(records)
    m1 = len(treated)
    rz = randomize(ParallelScheme(m=len(records), m1=m1), mode, n_draws, (seed, 0xC1))

    if method in ("tpf", "odds_ratio"):
        # counts held fixed: the permutation draws do not move with
        # theta, only the null-implied center of the observed statistic
        if method == "tpf":
            fractions = np.array(
                [r.y_count / (r.y_count + r.z_count) for r in records], dtype=float
            )
            t_obs, r_obs = tpf_statistic(records)
            evaluate = lambda rows: _diff_means_rows(fractions, rows, m1)
            observed_dev = lambda theta: t_obs - tpf_expected(math.exp(theta), r_obs)
        else:
            y = np.array([r.y_count for r in records])
            z = np.array([r.z_count for r in records])
            log_or = odds_ratio_log(records)
            evaluate = lambda rows: odds_ratio_permutation_draws(y, z, rows)
            observed_dev = lambda theta: log_or - theta
        draws = np.concatenate([evaluate(rows) for rows in rz.blocks()])

        def pfun(theta: float) -> float:
            two, _, _ = _tail_counts(draws, observed_dev(theta))
            return rz.p(two)

        return pfun, kind

    # Under the null theta the imputed control log-contrasts are
    # lvals - theta * shift, and every statistic here is linear in them,
    # so each assignment's statistic splits as D - theta * A: one pass
    # over the assignments gives the whole p-value curve.
    arms = np.array([r.arm for r in records], dtype=bool)
    lvals = log_contrasts(records, correction)
    shift = arms.astype(float) if kind == "relative_risk" else _dose_vector(records)
    if method == "covariate_adjusted" or (
        kind == "dose_response" and adjustment == "covariates"
    ):
        x = np.array([r.covariates for r in records], dtype=float)
        if x.shape[1] == 0:
            raise StatisticUndefined(
                "the covariate-adjusted statistic requires covariates"
            )
        evaluate = lambda values, rows: _adjusted_diff_rows(values, x, rows, m1)
        observe = lambda values: float(evaluate(values, arms[None, :])[0])
    else:
        evaluate = lambda values, rows: _diff_means_rows(values, rows, m1)
        # as the point estimate computes it, so p is 1 there
        observe = lambda values: float(values[arms].mean() - values[~arms].mean())
    if kind == "dose_response":
        # as the point estimate D / A computes them, so p is 1 there
        stat = _dose_stat(records, adjustment, correction)
        d_obs, a_obs = stat.num, stat.den
    else:
        d_obs, a_obs = observe(lvals), observe(shift)
    parts = [(evaluate(lvals, rows), evaluate(shift, rows)) for rows in rz.blocks()]
    d_draws = np.concatenate([d for d, _ in parts])
    a_draws = np.concatenate([a for _, a in parts])

    def pfun(theta: float) -> float:
        two, _, _ = _tail_counts(d_draws - theta * a_draws, d_obs - theta * a_obs)
        return rz.p(two)

    return pfun, kind


def _default_bounds(records, method, kind, correction, adjustment):
    """(center, half_width) on the search scale from a crude estimate and SE."""
    if kind == "dose_response":
        stat = _dose_stat(records, adjustment, correction)
        dd = stat.dose_gap
        if abs(dd) < 1e-12:
            raise ConstantDose("doses do not separate the arms")
        return stat.num / dd, 10.0 * max(math.sqrt(stat.var[0]) / abs(dd), 1e-6)
    base = log_contrast_estimate(records, correction=correction)
    if method == "covariate_adjusted":
        report, _ = covariate_adjusted_estimate(records, correction=correction)
        return report.log_estimate, 10.0 * max(report.se_log, 1e-6)
    if method == "tpf":
        return tpf_estimate(records).log_estimate, 10.0 * max(base.se_log, 1e-6)
    return base.log_estimate, 10.0 * max(base.se_log, 1e-6)


def invert_ci(
    records: Sequence[ClusterRecord],
    method: str = "log_contrast",
    *,
    alpha: float = 0.05,
    test: str = "normal",
    adjustment: str = "none",
    mode: str = "auto",
    n_draws: int = 2000,
    seed: int = 0,
    correction: bool = False,
) -> tuple[float, float, dict]:
    """Confidence interval as the set of nulls not rejected at level alpha.

    Endpoints are on the lam scale for relative-risk methods and on the
    beta scale for dose-response.  Inverting the Normal test needs no
    search: its SE does not depend on lam0, so for ``log_contrast`` and
    ``covariate_adjusted`` the result is the Wald interval of
    :func:`~crtnd.estimators.normal_ci`, and for ``dose_response`` it
    is Fieller's interval (:class:`NoNonRejectedPoint` when that set is
    unbounded).  Inverting the permutation test scans 401 values of
    log(lam0) or beta0 over the estimate +- 10 SE, widening up to 50 SE
    while an edge is not rejected, and bisects each outer boundary of
    {p > alpha} to 1e-6 (see :func:`_invert_scan`).
    """
    if test == "normal":
        diagnostics = {"method": method, "test": test, "alpha": alpha}
        if method == "dose_response":
            stat = _dose_stat(records, adjustment, correction)
            return (*_fieller_ci(stat, alpha), diagnostics)
        report = normal_test(
            records, NullSpec("relative_risk", 1.0), method,
            alpha=alpha, correction=correction,
        )
        return report.ci_low, report.ci_high, diagnostics
    if test != "permutation":
        raise ValueError(f"unknown test {test!r}")
    pfun, kind = _pvalue_function(
        records,
        method,
        adjustment=adjustment,
        mode=mode,
        n_draws=n_draws,
        seed=seed,
        correction=correction,
    )
    center, half = _default_bounds(records, method, kind, correction, adjustment)
    theta_lo, theta_hi, scan = _invert_scan(
        pfun, center, half, alpha, n_scan=401, tol=1e-6
    )
    diagnostics = {"method": method, "test": test, "alpha": alpha, **scan}
    if kind == "relative_risk":
        return math.exp(theta_lo), math.exp(theta_hi), diagnostics
    return theta_lo, theta_hi, diagnostics


def _invert_scan(
    pfun: Callable[[float], float],
    center: float,
    half: float,
    alpha: float,
    *,
    n_scan: int,
    tol: float,
) -> tuple[float, float, dict]:
    """Outer endpoints of {theta : pfun(theta) > alpha}, and scan diagnostics.

    While p > alpha at an edge of ``center +- half`` the half-width
    doubles, up to five times its start; an edge still not rejected
    there raises :class:`NoNonRejectedPoint`.  ``n_scan`` evenly spaced
    values then locate the outermost accepted points, and each outer
    boundary is bisected to ``tol``.  When the accepted scan points are
    not contiguous a warning is issued and ``non_unimodal`` is set.
    """
    max_half = 5.0 * half
    while pfun(center - half) > alpha or pfun(center + half) > alpha:
        if half >= max_half - 1e-15:
            raise NoNonRejectedPoint(
                "confidence endpoint not bracketed within 50 SE of the estimate"
            )
        half = min(2.0 * half, max_half)

    # both scan edges are rejected, so each outer boundary has a bracket
    grid = np.linspace(center - half, center + half, n_scan)
    pvals = np.array([pfun(t) for t in grid])
    accepted = pvals > alpha
    if not accepted.any():
        raise NoNonRejectedPoint(
            f"no parameter value in [{grid[0]:.6g}, {grid[-1]:.6g}] has p > {alpha}"
        )
    idx = np.nonzero(accepted)[0]
    left, right = int(idx[0]), int(idx[-1])
    diagnostics = {"grid_points": n_scan, "p_max": float(pvals.max())}
    if not accepted[left : right + 1].all():
        warnings.warn(
            "p-value curve is not unimodal on the scan grid; reporting the "
            "outermost boundaries of the non-rejected points",
            RuntimeWarning,
        )
        diagnostics["non_unimodal"] = True
    lo = _bisect_boundary(pfun, alpha, grid[left - 1], grid[left], tol)
    hi = _bisect_boundary(pfun, alpha, grid[right + 1], grid[right], tol)
    return lo, hi, diagnostics


def _bisect_boundary(pfun, alpha, rejected, accepted, tol):
    """Boundary of {p > alpha} between a rejected and an accepted point."""
    a, b = float(rejected), float(accepted)
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if pfun(mid) > alpha:
            b = mid
        else:
            a = mid
    return b


# --------------------------------------------------------------------- #
# Dose-response point estimation
# --------------------------------------------------------------------- #


def dose_response_estimate(
    records: Sequence[ClusterRecord],
    *,
    adjustment: str = "auto",
    alpha: float = 0.05,
    test: str = "normal",
    mode: str = "auto",
    n_draws: int = 2000,
    seed: int = 0,
    correction: bool = False,
) -> EstimateReport:
    """Dose coefficient: the instrumental-variable ratio D / A.

    The working statistic of the null beta = beta0 is ``D - beta0 * A``,
    the (optionally covariate-adjusted) arm difference of
    ``L - beta0 * dose``; both tests compute their observed statistic
    from the same D and A.  It vanishes at D / A, so the p-value is 1
    there under either test, and the report's ``p_value`` is 1.  The CI
    inverts the chosen test with :func:`invert_ci`: Fieller's closed
    form for ``"normal"``, a scan and bisection for ``"permutation"``.
    Interpretation is limited to the observed dose range, which is
    recorded in the diagnostics.
    """
    doses = _dose_vector(records)
    if float(doses.max() - doses.min()) <= 0.0:
        raise ConstantDose("all clusters share one dose value")
    if adjustment == "auto":
        adjustment = "covariates" if len(records[0].covariates) > 0 else "none"
    split_arms(records)
    lvals = log_contrasts(records, correction)

    # An exact linear relation L = a + b * dose makes the working outcome
    # degenerate at beta0 = b; report it directly.
    design = np.column_stack([np.ones(len(records)), doses])
    coef, _, _, _ = np.linalg.lstsq(design, lvals, rcond=None)
    resid = lvals - design @ coef
    scale = float(np.sum((lvals - lvals.mean()) ** 2))
    if float(resid @ resid) <= 1e-20 * max(1.0, scale):
        beta_hat = float(coef[1])
        return EstimateReport(
            method="dose_response",
            log_estimate=beta_hat,
            se_log=0.0,
            ci_low=beta_hat,
            ci_high=beta_hat,
            ci_method="degenerate",
            alpha=alpha,
            p_value=1.0,
            scale="beta",
            diagnostics={
                "adjustment": adjustment,
                "dose_range": [float(doses.min()), float(doses.max())],
                "note": "log-contrasts are an exact linear function of dose",
            },
        )

    ci_low, ci_high, inv_diag = invert_ci(
        records, "dose_response", alpha=alpha, test=test, adjustment=adjustment,
        mode=mode, n_draws=n_draws, seed=seed, correction=correction,
    )
    stat = _dose_stat(records, adjustment, correction)
    beta_hat = stat.num / stat.den
    return EstimateReport(
        method="dose_response",
        log_estimate=beta_hat,
        se_log=stat.at(beta_hat)[1] / abs(stat.den) if abs(stat.den) > 1e-12 else None,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_method="test_inversion",
        alpha=alpha,
        p_value=1.0,
        scale="beta",
        diagnostics={
            "adjustment": adjustment,
            "test": test,
            "dose_range": [float(doses.min()), float(doses.max())],
            **inv_diag,
            "p_max": 1.0,
        },
    )
