"""Randomization tests, Normal tests, test inversion, and dose-response.

Under a sharp null theta the per-cluster control log-contrasts are
recoverable from the observed data and do not depend on the assignment:
``L - theta * shift``, with theta = log(lam0) and the arm as the shift
for a relative-risk null, and theta = beta0 and the dose for a linear
dose-response null.  The log-contrast statistics are arm differences,
linear in these values, so a re-randomized assignment contributes
``D - theta * A``: the arm differences of L and of the shift.  One
provider, :func:`_statistic`, computes these rows and the observed pair;
:func:`permutation_test` counts them at one null and :func:`invert_ci`
sweeps them over every null, so in exact mode the CI is the set of
nulls the test does not reject, away from the curve's breakpoints.  The
TPF and odds-ratio statistics hold the counts fixed: their draws do not
move with theta, only the observed deviation does.  The dose
coefficient's estimate is the ratio at which its working statistic
vanishes, so p = 1 there.

Arm labels and p-value arithmetic come from :func:`crtnd.core.randomize`
(``auto``: exact up to 100,000 assignments), drawn from stream
``(seed, 0xBE)`` for tests and ``(seed, 0xC1)`` for test inversion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .core import Randomization, Trial, log_contrasts, randomize
from .errors import ConstantDose, NoNonRejectedPoint, RankDeficientCovariates, StatisticUndefined
from .estimators import (
    EstimateReport,
    _adjusted_diff_rows,
    _arm_split,
    _ols_rows,
    _pooled_ols,
    covariate_adjusted_estimate,
    log_contrast_estimate,
    odds_ratio_log,
    odds_ratio_permutation_draws,
    tpf_estimate,
    tpf_expected,
    tpf_statistic,
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

# Ties in permutation distributions are counted with a small slack,
# _TIE_RTOL * max(|T_obs|, 1), so floating-point noise cannot drop a true
# tie; extra ties only make p-values larger (conservative).  Every
# statistic is a unit-free log or fraction contrast, so the floor of 1
# keeps the observed assignment's own tie when T_obs is near 0.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class NullSpec:
    """A sharp null hypothesis: relative risk lam0 or dose coefficient beta0."""

    kind: str  # "relative_risk" | "dose_response"
    value: float
    adjustment: str = "none"  # "none" | "covariates" (dose-response nulls only)

    def __post_init__(self):
        if self.kind not in ("relative_risk", "dose_response"):
            raise ValueError(f"unknown null kind {self.kind!r}")
        if self.kind == "relative_risk" and self.value <= 0:
            raise ValueError(f"relative-risk null requires lam0 > 0, got {self.value}")
        _check_adjustment(self.adjustment, self.kind == "dose_response")


def _check_adjustment(adjustment: str, dose: bool) -> None:
    """Reject an unknown ``adjustment``, and covariates off dose nulls."""
    if adjustment not in ("none", "covariates"):
        raise ValueError(f"unknown adjustment {adjustment!r}")
    if not dose and adjustment != "none":
        raise ValueError("adjustment applies to dose-response nulls; a relative-risk null "
                         "is adjusted by the covariate_adjusted statistic")


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
        return asdict(self)


def impute_null_outcomes(trial: Trial, null: NullSpec) -> np.ndarray:
    """Control log-contrasts implied by a sharp null (assignment-invariant).

    relative_risk: ``L - arm * log(lam0)``.  dose_response:
    ``L - beta0 * dose`` (raises :class:`MissingDose` when a cluster
    has no dose).
    """
    lvals = log_contrasts(trial)
    if null.kind == "relative_risk":
        return lvals - trial.arm * math.log(null.value)
    return lvals - null.value * trial.require_dose()


# --------------------------------------------------------------------- #
# Statistic evaluation over assignment matrices
# --------------------------------------------------------------------- #


def _diff_means_rows(values: np.ndarray, arm_matrix: np.ndarray, m1: int,
                     out=None, rest=None) -> np.ndarray:
    """Treated-minus-control mean of each (..., m) vector of ``values``
    for each float 0/1 row of ``arm_matrix``, (..., rows), from the
    treated sums ``values @ arm_matrix.T``: a vector gets the bits of
    ``arm_matrix @ values``, a stack's product rounds differently.
    ``out`` and ``rest``, float arrays of the result's shape, take the
    result and the control means in place of fresh ones."""
    m = values.shape[-1]
    treated = np.matmul(values, arm_matrix.T, out=out)
    rest = np.subtract(values.sum(axis=-1, keepdims=True), treated, out=rest)
    rest /= m - m1
    treated /= m1
    treated -= rest
    return treated


def _tail_counts(draws: np.ndarray, observed: float) -> tuple[int, int, int]:
    slack = _TIE_RTOL * max(abs(observed), 1.0)
    bad = ~np.isfinite(draws)
    two = _two_sided_count(draws, observed)
    left = int(np.sum((draws <= observed + slack) | bad))
    right = int(np.sum((draws >= observed - slack) | bad))
    return two, left, right


def _two_sided_count(draws: np.ndarray, observed, out=None):
    """#{|T*| >= |T_obs|} with the tie slack; non-finite draws count.

    One comparison per draw: ``n - #{|T*| < bound}``, ``bound = |T_obs|
    - slack``, which a NaN or infinite draw fails and so counts.  A
    non-finite T_obs gives a NaN bound, taken as +inf: only the
    non-finite draws count.  A (B, n) stack of draws with B observed
    values gives B counts.  ``out``, a float array of the draws' shape,
    takes |T*| in place of a fresh one.
    """
    magnitude = np.abs(draws, out=out)
    if np.ndim(observed):
        level = np.abs(observed)
        with np.errstate(invalid="ignore"):
            bound = level - _TIE_RTOL * np.maximum(level, 1.0)
        bound[np.isnan(bound)] = np.inf
        # a uint32 sum of the booleans (a row holds fewer than 2**32
        # draws) takes half the time of count_nonzero's intp sum
        return draws.shape[1] - (magnitude < bound[:, None]).sum(axis=1, dtype=np.uint32)
    level = abs(float(observed))
    bound = level - _TIE_RTOL * max(level, 1.0)
    if math.isnan(bound):
        bound = math.inf
    return draws.size - int(np.count_nonzero(magnitude < bound))


@dataclass(frozen=True)
class _Statistic:
    """A permutation statistic at every sharp null theta (log(lam0) or
    beta0), read by the test of one null and by its inversion.

    ``rows`` maps a block of assignments to their parts: ``(D, A)`` for a
    linear statistic, whose observed value is the pair ``(D_o, A_o)``
    and whose value at theta is ``D - theta * A`` (per period and then
    weighted by ``weights(theta)`` on the wedge); or draws that do not
    move with theta, with ``observed`` the function theta -> deviation.
    """

    rows: Callable[[np.ndarray], tuple | np.ndarray]
    observed: tuple | Callable[[float], float]
    weights: Callable[[float], np.ndarray] | None = None

    @property
    def linear(self) -> bool:
        return not callable(self.observed)

    def at(self, theta: float):
        """(parts -> deviations, observed deviation) at the null theta."""
        if not self.linear:
            return (lambda draws: draws), self.observed(theta)
        d_obs, a_obs = self.observed
        if self.weights is None:
            return (lambda parts: parts[0] - theta * parts[1]), d_obs - theta * a_obs
        w = self.weights(theta)
        observed = float((d_obs - theta * a_obs) @ w)
        return (lambda parts: (parts[0] - theta * parts[1]) @ w), observed

    def pvalues(self, rz: Randomization):
        """p(theta) from one pass over the assignments of ``rz``: the exact
        curve of an unweighted linear statistic (:func:`_sweep`), else a
        function that counts the tail at each theta (for the scan)."""
        blocks = [self.rows(rows) for rows in rz.blocks()]
        parts = np.concatenate(blocks) if not self.linear else tuple(
            map(np.concatenate, zip(*blocks))
        )
        del blocks
        if self.linear and self.weights is None:
            return _sweep(*parts, *self.observed, rz)

        def pfun(theta: float) -> float:
            deviate, observed = self.at(theta)
            two, _, _ = _tail_counts(deviate(parts), observed)
            return rz.p(two)

        return pfun


def _statistic(trial: Trial, statistic: str, kind: str, adjustment: str,
               stat: _DoseStat | None = None) -> _Statistic:
    """The statistic of a ``kind`` null (``adjustment`` applies to dose
    nulls); ``stat`` is the dose working statistic if built.

    Under the null theta the control log-contrasts are ``L - theta *
    shift``, the shift being the arm (relative risk) or the dose, so D
    and A are the (covariate-adjusted) arm differences of L and of the
    shift.  The observed pair is computed as the point estimate is, so
    p is 1 there: by arm means, by the row evaluator on the observed
    arms, or as the dose statistic's ``num`` and ``den``.  Relabelings
    with a singular arm are NaN rows, in the tail; observed arms that
    are singular raise :class:`RankDeficientCovariates`.
    """
    m1 = trial.scheme.m1
    if statistic in ("tpf", "odds_ratio"):
        if kind != "relative_risk":
            raise StatisticUndefined(
                f"the {statistic} statistic tests relative-risk nulls only"
            )
        # counts held fixed: only the observed deviation moves with theta
        if statistic == "tpf":
            t_obs, r_obs = tpf_statistic(trial)
            fractions = trial.y / (trial.y + trial.z)
            return _Statistic(lambda rows: _diff_means_rows(fractions, rows, m1),
                              lambda theta: t_obs - tpf_expected(math.exp(theta), r_obs))
        log_or = odds_ratio_log(trial)
        return _Statistic(lambda rows: odds_ratio_permutation_draws(trial.y, trial.z, rows),
                          lambda theta: log_or - theta)
    if statistic not in ("difference_in_means", "log_contrast", "covariate_adjusted"):
        raise ValueError(f"unknown statistic {statistic!r}")
    adjusted = statistic == "covariate_adjusted" or (kind, adjustment) == (
        "dose_response", "covariates"
    )
    if adjusted and trial.x.shape[1] == 0:
        raise StatisticUndefined("the covariate-adjusted statistic requires covariates")
    arms = trial.arm
    if kind == "dose_response":
        stat = stat or _dose_stat(trial, "covariates" if adjusted else "none")
        lvals, shift = stat.lvals, stat.doses
    else:
        lvals, shift = log_contrasts(trial), arms.astype(float)
    if adjusted:
        rows = lambda block: _adjusted_diff_rows(trial.x, block, m1, lvals, shift)
        observe = lambda: [float(v[0]) for v in rows(arms[None, :])]
    else:
        rows = lambda block: [_diff_means_rows(v, block, m1) for v in (lvals, shift)]
        observe = lambda: [float(v[arms].mean() - v[~arms].mean()) for v in (lvals, shift)]
    # a dose null's pair as its point estimate num / den computes it
    observed = (stat.num, stat.den) if stat else tuple(observe())
    if adjusted and not np.isfinite(observed).all():  # NaN rows: a singular arm
        raise RankDeficientCovariates(
            "covariate design matrix is singular within an observed arm"
        )
    return _Statistic(rows, observed)


def permutation_test(
    trial: Trial,
    null: NullSpec,
    statistic: str = "difference_in_means",
    *,
    mode: str = "auto",
    n_draws: int = 9999,
    seed: int = 0,
) -> PermutationResult:
    """Randomization test of a sharp null.

    The statistic's deviation from the null is counted at every
    enumerated (exact mode) or uniformly sampled (monte_carlo mode)
    assignment against its observed value.  For the log-contrast
    statistics each assignment contributes ``D - theta0 * A``, with
    theta0 = log(lam0) or beta0, from the same (D, A) rows that
    :func:`invert_ci` inverts.  The exact two-sided p is
    ``#{|T*| >= |T_obs|} / total`` with the observed assignment
    included; Monte Carlo p uses the add-one rule
    ``(1 + #{|T*| >= |T_obs|}) / (1 + n_draws)`` so p is never 0.

    Statistics: ``difference_in_means`` (arm-mean difference of the
    null-imputed control log-contrasts; alias ``log_contrast``),
    ``covariate_adjusted`` (slopes re-estimated per assignment), and,
    for relative-risk nulls only, the count-based ``tpf`` and
    ``odds_ratio`` statistics with per-cluster counts held fixed.
    """
    theta = math.log(null.value) if null.kind == "relative_risk" else null.value
    return _permutation_result(
        _statistic(trial, statistic, null.kind, null.adjustment), theta,
        randomize(trial.scheme, mode, n_draws, (seed, 0xBE)),
        seed=seed, statistic=statistic,
    )


def _permutation_result(
    stat: _Statistic, theta: float, rz: Randomization, *, seed: int, statistic: str
) -> PermutationResult:
    """Tail p-values of ``stat`` at the null theta over the rows of ``rz``."""
    deviate, observed = stat.at(theta)
    two = left = right = 0
    for rows in rz.blocks():
        t, l, r = _tail_counts(deviate(stat.rows(rows)), observed)
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
    trial: Trial,
    null: NullSpec,
    method: str = "log_contrast",
    *,
    alpha: float = 0.05,
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
            report = log_contrast_estimate(trial, alpha=alpha)
        elif method == "covariate_adjusted":
            report, _ = covariate_adjusted_estimate(trial, alpha=alpha)
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
    return _dose_normal_report(trial, null.value, null.adjustment, alpha=alpha)


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
    lvals: np.ndarray
    doses: np.ndarray

    def at(self, beta0: float) -> tuple[float, float, float]:
        """(working difference, SE, scale) at beta0."""
        a, b, c = self.var
        se = math.sqrt(max(a - 2.0 * b * beta0 + c * beta0 * beta0, 0.0))
        scale = float(np.mean(np.abs(self.lvals - beta0 * self.doses)))
        return self.num - beta0 * self.den, se, scale


def _dose_stat(
    trial: Trial, adjustment: str, lvals: np.ndarray | None = None
) -> _DoseStat:
    """The working statistic of dose nulls on ``trial``; ``lvals`` are its
    log-contrasts when the caller has them.

    L and the dose are one two-row stack.  Without covariates ``num``
    and ``den`` are its arm-mean differences and the residuals are
    deviations from the arm means, their products summed as ``np.var``
    sums them.  With covariates the stack goes through
    :func:`~crtnd.estimators._pooled_ols`, as
    :func:`covariate_adjusted_estimate` fits L.
    """
    _check_adjustment(adjustment, True)
    if lvals is None:
        lvals = log_contrasts(trial)
    doses = trial.require_dose()
    stack = np.stack([lvals, doses])
    v1, v0 = _arm_split(stack, np.broadcast_to(trial.arm, stack.shape))
    if adjustment == "covariates":
        x1, x0 = (np.broadcast_to(xa, (2, *xa.shape))
                  for xa in (trial.x[trial.arm], trial.x[~trial.arm]))
        fit = _pooled_ols(v1, v0, x1, x0)
        (num, den), resid, k = fit[0], fit[7:], 1 + trial.x.shape[1]
        dot = lambda u, v: u @ v
    else:
        num, den = v1.mean(axis=1) - v0.mean(axis=1)
        resid, k = [v - v.mean(axis=1)[:, None] for v in (v1, v0)], 1
        dot = lambda u, v: np.sum(u * v)
    var = [0.0, 0.0, 0.0]
    for rl, rd in resid:
        n = rl.size
        for i, (u, v) in enumerate(((rl, rl), (rl, rd), (rd, rd))):
            var[i] += float(dot(u, v) / (n - k)) / n
    return _DoseStat(
        num=float(num),
        den=float(den),
        var=tuple(var),
        lvals=lvals,
        doses=doses,
    )


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


def dose_response_pvalue(trial: Trial, beta0: float, *, adjustment: str = "none") -> float:
    """Normal-approximation p-value for the sharp null beta = beta0."""
    p, _ = _two_sided_p(*_dose_stat(trial, adjustment).at(beta0))
    return p


def _dose_normal_report(trial, beta0, adjustment, *, alpha) -> EstimateReport:
    stat = _dose_stat(trial, adjustment)
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
    trial: Trial,
    method: str,
    *,
    adjustment: str,
    mode: str,
    n_draws: int,
    seed: int,
    stat: _DoseStat | None = None,
) -> tuple[Callable[[float], float], str]:
    """Permutation p(theta0) on the search scale: log(lam0), or beta0
    (whose working statistic ``stat`` is built when not given).

    All theta0 share one set of re-randomized assignments (common random
    numbers), so the p-value curve is deterministic given the seed and
    free of resampling jitter.  For the statistics linear in theta0 it
    is the whole exact curve, a :class:`_PCurve`.
    """
    if method in ("log_contrast", "covariate_adjusted", "tpf", "odds_ratio"):
        kind, statistic = "relative_risk", method
    elif method == "dose_response":
        kind, statistic = "dose_response", "difference_in_means"
    else:
        raise ValueError(f"unknown method {method!r}")
    rz = randomize(trial.scheme, mode, n_draws, (seed, 0xC1))
    return _statistic(trial, statistic, kind, adjustment, stat).pvalues(rz), kind


@dataclass(frozen=True)
class _PCurve:
    """Exact p(theta) of a statistic ``D - theta * A``: ``p[2 j + 1]`` at
    breakpoint ``points[j]``, ``p[2 j]`` just below it, ``p[-1]`` above all."""

    points: np.ndarray
    p: np.ndarray

    def __call__(self, theta: float) -> float:
        j = int(np.searchsorted(self.points, theta))
        return float(self.p[2 * j + (j < self.points.size and self.points[j] == theta)])

    def interval(self, alpha: float) -> tuple[float, float, dict]:
        """Outermost points of the closed set {theta : p(theta) > alpha},
        and its diagnostics; :class:`NoNonRejectedPoint` when the set is
        unbounded or empty."""
        accepted = self.p > alpha
        if accepted[0] or accepted[-1]:
            raise NoNonRejectedPoint(f"the set of null values with p > {alpha} is unbounded")
        idx = np.flatnonzero(accepted)
        if idx.size == 0:
            raise NoNonRejectedPoint(f"no parameter value has p > {alpha}")
        lo, hi = idx[0], idx[-1]
        diagnostics = {"grid_points": self.points.size, "p_max": float(self.p.max()),
                       "non_interval": not accepted[lo : hi + 1].all()}
        return float(self.points[lo // 2]), float(self.points[hi // 2]), diagnostics


def _sweep(d, a, d_obs, a_obs, rz: Randomization) -> _PCurve:
    """The curve of p(theta) = p(#{|D_k - theta A_k| >= |D_o - theta A_o|}).

    Assignment k is in the tail where ``(u - theta s)(v - theta w) >= 0``
    (``u, s = D_k - D_o, A_k - A_o``; ``v, w = D_k + D_o, A_k + A_o``):
    between the roots u/s and v/w where s w < 0, outside them otherwise;
    one sort of all roots gives the count steps.  Ties are in the tail:
    at a root, at roots within ``_TIE_RTOL`` of each other (merged), and
    at every theta where a factor vanishes to rounding (the observed
    assignment and, under equal allocation, its complement).  A slope
    that vanishes alone puts its root at +-inf; non-finite draws count.
    """
    finite = np.isfinite(d) & np.isfinite(a)
    d, a = d[finite], a[finite]
    tol_d = _TIE_RTOL * max(abs(d_obs), np.abs(d).max(initial=0.0))
    tol_a = _TIE_RTOL * max(abs(a_obs), np.abs(a).max(initial=0.0))
    u, s, v, w = d - d_obs, a - a_obs, d + d_obs, a + a_obs
    flat_s, flat_w = np.abs(s) <= tol_a, np.abs(w) <= tol_a
    tie = (flat_s & (np.abs(u) <= tol_d)) | (flat_w & (np.abs(v) <= tol_d))
    u, s, v, w = u[~tie], s[~tie], v[~tie], w[~tie]
    # a flat slope is +0.0: its root u / s is +-inf by the sign of u, and
    # it counts as positive in the sign test
    s[flat_s[~tie]], w[flat_w[~tie]] = 0.0, 0.0
    big = np.finfo(float).max / 4  # +-inf, finite for the sort and its gaps
    with np.errstate(divide="ignore"):
        lo, hi = np.clip(u / s, -big, big), np.clip(v / w, -big, big)
    outside = (s >= 0) == (w >= 0)
    del u, s, v, w
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    points, at = np.unique(np.r_[lo, hi, -big, big], return_inverse=True)
    scale = tol_d / tol_a if tol_a > 0.0 else 0.0
    new = np.diff(points) > _TIE_RTOL * (np.abs(points[1:]) + scale)
    points, at = points[np.r_[True, new]], np.r_[0, np.cumsum(new)][at]
    # count index 2 j + 1 is points[j], 2 j the stretch just below it
    at_lo, at_hi = np.split(2 * at[:-2] + 1, 2)
    gap = outside & (at_lo < at_hi)
    n = 2 * points.size + 1
    steps = np.bincount(np.r_[at_lo[~outside], at_hi[gap]], minlength=n)
    steps -= np.bincount(np.r_[at_hi[~outside], at_lo[gap]] + 1, minlength=n)
    counts = np.cumsum(steps, out=steps)[2:-2]  # not at or beyond +-big
    counts += np.count_nonzero(~finite) + np.count_nonzero(tie) + np.count_nonzero(outside)
    return _PCurve(points[1:-1], rz.p(counts))


def invert_ci(
    trial: Trial,
    method: str = "log_contrast",
    *,
    alpha: float = 0.05,
    test: str = "normal",
    adjustment: str = "none",
    mode: str = "auto",
    n_draws: int = 2000,
    seed: int = 0,
) -> tuple[float, float, dict]:
    """Confidence interval as the set of nulls not rejected at level alpha.

    Endpoints are on the lam scale for relative-risk methods and on the
    beta scale for dose-response.  Inverting the Normal test needs no
    search: its SE does not depend on lam0, so for ``log_contrast`` and
    ``covariate_adjusted`` the result is the Wald interval of
    :func:`~crtnd.estimators.normal_ci`, and for ``dose_response`` it
    is Fieller's interval (:class:`NoNonRejectedPoint` when that set is
    unbounded).  Inverting the permutation test is exact for
    ``log_contrast``, ``covariate_adjusted`` and ``dose_response``: the
    endpoints are the outermost breakpoints of the p-value curve with
    p > alpha (:func:`_sweep`), ``grid_points`` counts the breakpoints,
    ``p_max`` is the curve's maximum and ``non_interval`` flags gaps.
    ``tpf`` and ``odds_ratio`` scan 401 values of log(lam0) over 10
    log-contrast SEs either side of a center, the TPF estimate for
    ``tpf`` and the log-contrast estimate for ``odds_ratio``, and bisect
    each outer boundary to 1e-6 (:func:`_invert_scan`).
    ``adjustment`` applies to ``dose_response`` only: another value than
    ``"none"`` for a relative-risk method raises :class:`ValueError`.
    """
    return _invert_ci(
        trial, method, None, alpha=alpha, test=test, adjustment=adjustment,
        mode=mode, n_draws=n_draws, seed=seed,
    )


def _invert_ci(trial, method, stat, *, alpha, test, adjustment, mode, n_draws, seed):
    """:func:`invert_ci`, with the dose working statistic ``stat`` if built."""
    _check_adjustment(adjustment, method == "dose_response")
    if test == "normal":
        diagnostics = {"method": method, "test": test, "alpha": alpha}
        if method == "dose_response":
            stat = stat or _dose_stat(trial, adjustment)
            return (*_fieller_ci(stat, alpha), diagnostics)
        report = normal_test(trial, NullSpec("relative_risk", 1.0), method, alpha=alpha)
        return report.ci_low, report.ci_high, diagnostics
    if test != "permutation":
        raise ValueError(f"unknown test {test!r}")
    pfun, kind = _pvalue_function(
        trial, method, adjustment=adjustment, mode=mode, n_draws=n_draws,
        seed=seed, stat=stat,
    )
    if isinstance(pfun, _PCurve):
        theta_lo, theta_hi, scan = pfun.interval(alpha)
    else:  # scan the TPF (or log-contrast) estimate +- 10 log-contrast SEs
        base = log_contrast_estimate(trial)
        center = tpf_estimate(trial).log_estimate if method == "tpf" else base.log_estimate
        theta_lo, theta_hi, scan = _invert_scan(
            pfun, center, 10.0 * max(base.se_log, 1e-6), alpha, n_scan=401, tol=1e-6
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
    trial: Trial,
    *,
    adjustment: str = "auto",
    alpha: float = 0.05,
    test: str = "normal",
    mode: str = "auto",
    n_draws: int = 2000,
    seed: int = 0,
) -> EstimateReport:
    """Dose coefficient: the instrumental-variable ratio D / A.

    The working statistic of the null beta = beta0 is ``D - beta0 * A``,
    the (optionally covariate-adjusted) arm difference of
    ``L - beta0 * dose``; both tests compute their observed statistic
    from the same D and A.  It vanishes at D / A, so the p-value is 1
    there under either test, and the report's ``p_value`` is 1.  The CI
    inverts the chosen test with :func:`invert_ci`: Fieller's closed
    form for ``"normal"`` (which ignores ``mode``, ``n_draws`` and
    ``seed``), the exact breakpoint sweep for ``"permutation"``.
    Interpretation is limited to the observed dose range, which is
    recorded in the diagnostics.
    """
    doses = trial.require_dose()
    if adjustment == "auto":
        adjustment = "covariates" if trial.x.shape[1] > 0 else "none"
    _check_adjustment(adjustment, True)
    lvals = log_contrasts(trial)
    try:
        (slope,), (resid,) = _ols_rows(doses[None, :, None], lvals[None])
    except RankDeficientCovariates:
        raise ConstantDose("all clusters share one dose value, to rounding") from None

    # An exact linear relation L = a + b * dose makes the working outcome
    # degenerate at beta0 = b; report it directly.
    scale = float(np.sum((lvals - lvals.mean()) ** 2))
    if float(resid @ resid) <= 1e-20 * max(1.0, scale):
        beta_hat = float(slope[0])
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

    stat = _dose_stat(trial, adjustment, lvals)
    ci_low, ci_high, inv_diag = _invert_ci(
        trial, "dose_response", stat, alpha=alpha, test=test, adjustment=adjustment,
        mode=mode, n_draws=n_draws, seed=seed,
    )
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
