"""Stepped-wedge estimation: weighted per-period contrasts and covariance.

At each analysis period t (those t in 1..T-1 where some but not all
clusters are under intervention) the treated-minus-control mean of the
period's log-contrasts is unbiased for ``log(lam)``; the estimator is a
weighted sum of these per-period differences with weights summing to 1.

Its randomization covariance has entries

    Sigma[t1, t2] = m / (m_{max(t1,t2)} (m - m_{min(t1,t2)})) * S[t1, t2]

where ``S`` is the finite-population covariance of the control
log-contrasts across clusters and ``m_t`` counts clusters under
intervention at t.  This scaling is validated against a full
enumeration oracle in the test suite.  A second convention that scales
the upper-triangle entries by ``m / (m_{t2-1} (m - m_{t1}))`` instead is
available behind ``convention="printed"`` for sensitivity comparisons.

``S`` entries are estimated by the sample covariance of the observed
log-contrasts within whichever of three groups sharing one treatment
pattern over (t1, t2) is largest: treated by t1, switching between t1
and t2, or untreated at t2.  Constant treatment shifts cancel within a
group, so each group's sample covariance estimates the same S entry.

Permutation tests re-randomize the start-period vector over its
distinct orderings, as :func:`crtnd.core.randomize` enumerates them
(``auto``: up to 100,000) or draws them from stream ``(seed, 0x5E)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Panel, SteppedWedgeScheme, randomize
from .errors import ArmTooSmall, SingularCovariance
from .estimators import EstimateReport, normal_ci
from .inference import (
    PermutationResult,
    _invert_scan,
    _permutation_result,
    _tail_counts,
)

__all__ = [
    "SWWeights",
    "SWCovariance",
    "sw_log_contrast",
    "sw_covariance_estimate",
    "sw_oracle_covariance",
    "sw_null_covariance",
    "optimal_weights",
    "sw_permutation_test",
    "sw_invert_ci",
]


@dataclass(frozen=True)
class SWWeights:
    """Per-analysis-period weights, summing to 1 (components may be negative)."""

    w: tuple[float, ...]
    kind: str  # "equal" | "optimal_oracle" | "optimal_plugin" | "custom"
    periods: tuple[int, ...]

    def __post_init__(self):
        if len(self.w) != len(self.periods):
            raise ValueError("one weight per analysis period is required")
        if abs(sum(self.w) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.w)!r}")


@dataclass(frozen=True)
class SWCovariance:
    """Covariance of the per-period differences over analysis periods.

    ``sigma`` is the scaled covariance matrix, ``s_values`` the raw
    cross-period (co)variance entries it was built from (NaN where a
    formula other than scaled-S was used, e.g. the estimated diagonal),
    ``group_sizes`` the per-period treated counts m_t.
    """

    sigma: np.ndarray
    s_values: np.ndarray
    group_sizes: tuple[int, ...]
    periods: tuple[int, ...]
    provenance: str  # "oracle" | "estimated" | "null_exact" | "permutation"
    convention: str = "canonical"

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != sig.shape[1]:
            raise ValueError("sigma must be square")
        if sig.shape[0] != len(self.periods):
            raise ValueError("sigma dimension must match analysis periods")
        if not np.allclose(sig, sig.T, atol=1e-12, rtol=1e-9):
            raise ValueError("sigma must be symmetric")
        if np.any(np.diag(sig) < -1e-12):
            raise ValueError("sigma diagonal entries must be nonnegative")
        sig.setflags(write=False)
        object.__setattr__(self, "sigma", sig)


def _scale_matrix(
    m: int, m_t: dict[int, int], periods: Sequence[int], convention: str
) -> np.ndarray:
    """(k, k) factors that turn S entries into Sigma entries.

    Each factor is one exact integer product and one division.  The
    "printed" denominator ``m_{t2-1}`` cannot vanish: for analysis
    periods t1 < t2 it is at least ``m_{t1} >= 1``.
    """
    t = np.asarray(periods)
    lo, hi = np.minimum.outer(t, t), np.maximum.outer(t, t)
    if convention == "printed":
        hi = np.where(lo == hi, hi, hi - 1)
    elif convention != "canonical":
        raise ValueError(f"unknown convention {convention!r}")
    counts = np.array([m_t.get(s, 0) for s in range(int(t.max()) + 1)])
    return m / (counts[hi] * (m - counts[lo]))


def _cov(x: np.ndarray) -> np.ndarray:
    """``np.cov(x, ddof=1)`` for a float (variables, observations) array.

    The same steps as numpy's (centre in place, ``dot`` with the
    transpose, scale by ``1/(n-1)``), so the same bits, without its
    argument handling.  ``x`` is overwritten.
    """
    x -= x.mean(axis=1)[:, None]
    c = np.dot(x, x.T.conj())
    c *= np.true_divide(1, x.shape[1] - 1)
    return c


def _design(starts: Sequence[int], n_periods: int):
    """(analysis periods, m_t map, dropped periods) of a start vector.

    Every permutation of ``starts`` has the same design, so a caller
    that re-randomizes a fixed multiset of starts computes it once.
    """
    m = len(starts)
    m_t = {t: sum(1 for a in starts if a <= t) for t in range(1, n_periods + 1)}
    periods = tuple(t for t in range(1, n_periods) if 1 <= m_t[t] <= m - 1)
    dropped = tuple(t for t in range(1, n_periods) if t not in periods)
    return periods, m_t, dropped


def _panel_design(panel: Panel):
    """(analysis periods, m_t map, dropped periods) from realized starts."""
    return _design(panel.start_periods, panel.n_periods)


def _warn_dropped(dropped: tuple[int, ...]) -> None:
    if dropped:
        warnings.warn(
            "some periods in 1..T-1 have an empty treated or control group "
            "and are excluded from the analysis",
            RuntimeWarning,
        )


def _treated_matrix(panel: Panel) -> np.ndarray:
    """(m, T) boolean matrix: cell (i, t) is under intervention."""
    tgrid = np.arange(1, panel.n_periods + 1)
    return tgrid[None, :] >= np.asarray(panel.start_periods)[:, None]


def _period_differences(
    lmat: np.ndarray, start: np.ndarray, periods: Sequence[int], m_t: dict[int, int]
) -> np.ndarray:
    out = np.empty(len(periods))
    for k, t in enumerate(periods):
        treated = start <= t
        out[k] = lmat[treated, t - 1].mean() - lmat[~treated, t - 1].mean()
    return out


def _check_arms(m: int, m_t: dict[int, int], periods: Sequence[int]) -> None:
    """Raise :class:`ArmTooSmall` unless each analysis period has >= 2
    clusters on each side, the precondition of :func:`_plugin_sigma`.

    It depends on the design only, so a caller that re-randomizes one
    multiset of starts checks it once.  Once it holds, m >= 4, and the
    three groups of a period pair, which partition the m clusters, have
    a largest member of at least 2 clusters.
    """
    for t in periods:
        n1, n0 = m_t[t], m - m_t[t]
        if n1 < 2 or n0 < 2:
            raise ArmTooSmall(
                f"period {t}: variance estimation needs >= 2 clusters per arm "
                f"(treated={n1}, control={n0})"
            )


def _plugin_sigma(
    lmat: np.ndarray,
    start: np.ndarray,
    periods: Sequence[int],
    m_t: dict[int, int],
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, S entries) of :func:`sw_covariance_estimate` from arrays.

    The design must have passed :func:`_check_arms`.
    """
    m, k = lmat.shape[0], len(periods)
    sigma = np.zeros((k, k))
    s_values = np.full((k, k), np.nan)

    for i, t in enumerate(periods):
        treated = start <= t
        n1, n0 = m_t[t], m - m_t[t]
        v1 = float(np.var(lmat[treated, t - 1], ddof=1))
        v0 = float(np.var(lmat[~treated, t - 1], ddof=1))
        sigma[i, i] = v1 / n1 + v0 / n0

    by_period = lmat.T.copy()
    for i, t1 in enumerate(periods):
        for j in range(i + 1, k):
            t2 = periods[j]
            # group sizes follow from m_t; the first largest group is used
            sizes = (m_t[t1], m_t[t2] - m_t[t1], m - m_t[t2])
            g = sizes.index(max(sizes))
            if g == 0:
                mask = start <= t1
            elif g == 1:
                mask = (start > t1) & (start <= t2)
            else:
                mask = start > t2
            pair = by_period[t1 - 1 : t2 : t2 - t1][:, mask]
            s_hat = float(_cov(pair)[0, 1])
            s_values[i, j] = s_values[j, i] = s_hat
            sigma[i, j] = sigma[j, i] = scale[i, j] * s_hat
    return sigma, s_values


def _null_sigma(
    l0: np.ndarray, periods: Sequence[int], scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, S) from complete control log-contrasts ``l0`` (m x T)."""
    cols = l0[:, [t - 1 for t in periods]]
    s_full = _cov(cols.T)
    return scale * s_full, s_full


def sw_covariance_estimate(
    panel: Panel,
    *,
    convention: str = "canonical",
    correction: bool = False,
) -> SWCovariance:
    """Plug-in covariance of the per-period differences from observed data.

    Diagonal entries use the per-period per-arm variance construction
    ``s1^2/m_t + s0^2/(m - m_t)``, matching the parallel-arm estimator.
    Off-diagonal entries scale the largest-group sample covariance (the
    three-case rule; ties break in the order treated-by-t1, switchers,
    untreated-at-t2).
    """
    periods, m_t, dropped = _panel_design(panel)
    _warn_dropped(dropped)
    _check_arms(panel.m, m_t, periods)
    sigma, s_values = _plugin_sigma(
        panel.log_contrast_matrix(correction),
        np.asarray(panel.start_periods),
        periods,
        m_t,
        _scale_matrix(panel.m, m_t, periods, convention),
    )
    return SWCovariance(
        sigma=sigma,
        s_values=s_values,
        group_sizes=tuple(m_t[t] for t in periods),
        periods=periods,
        provenance="estimated",
        convention=convention,
    )


def sw_oracle_covariance(
    l0: np.ndarray,
    scheme: SteppedWedgeScheme,
    *,
    convention: str = "canonical",
) -> SWCovariance:
    """Exact covariance from known control log-contrasts (m x T matrix)."""
    l0 = np.asarray(l0, dtype=float)
    if l0.shape != (scheme.m, scheme.n_periods):
        raise ValueError(
            f"l0 must have shape ({scheme.m}, {scheme.n_periods}), got {l0.shape}"
        )
    periods = scheme.analysis_periods
    m_t = {t: scheme.m_t(t) for t in range(1, scheme.n_periods + 1)}
    sigma, s_full = _null_sigma(
        l0, periods, _scale_matrix(scheme.m, m_t, periods, convention)
    )
    return SWCovariance(
        sigma=sigma,
        s_values=s_full,
        group_sizes=tuple(m_t[t] for t in periods),
        periods=periods,
        provenance="oracle",
        convention=convention,
    )


def sw_null_covariance(
    panel: Panel,
    lam0: float,
    *,
    convention: str = "canonical",
    correction: bool = False,
) -> SWCovariance:
    """Exact covariance under a sharp null: impute L(0), then use all clusters.

    Under ``lam = lam0`` every control log-contrast is recoverable as
    ``L - log(lam0)`` on treated cells, so S needs no group selection.
    """
    periods, m_t, dropped = _panel_design(panel)
    _warn_dropped(dropped)
    lmat = panel.log_contrast_matrix(correction)
    l0 = lmat - math.log(lam0) * _treated_matrix(panel)
    sigma, s_full = _null_sigma(
        l0, periods, _scale_matrix(panel.m, m_t, periods, convention)
    )
    return SWCovariance(
        sigma=sigma,
        s_values=s_full,
        group_sizes=tuple(m_t[t] for t in periods),
        periods=periods,
        provenance="null_exact",
        convention=convention,
    )


def optimal_weights(
    sigma: SWCovariance | np.ndarray,
    *,
    cond_threshold: float = 1e10,
    periods: tuple[int, ...] | None = None,
    kind: str = "optimal_plugin",
) -> SWWeights:
    """Variance-minimizing weights: Sigma^{-1} 1 / (1' Sigma^{-1} 1).

    Raises :class:`SingularCovariance` when the matrix condition number
    exceeds ``cond_threshold``; callers usually fall back to equal
    weights with a warning.
    """
    if isinstance(sigma, SWCovariance):
        mat = sigma.sigma
        periods = sigma.periods
    else:
        mat = np.asarray(sigma, dtype=float)
        if periods is None:
            periods = tuple(range(1, mat.shape[0] + 1))
    if mat.shape[0] == 0:
        raise ValueError("empty covariance matrix")
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > cond_threshold:
        raise SingularCovariance(
            f"covariance condition number {cond:.3g} exceeds {cond_threshold:.3g}"
        )
    ones = np.ones(mat.shape[0])
    x = np.linalg.solve(mat, ones)
    w = x / (ones @ x)
    return SWWeights(w=tuple(float(v) for v in w), kind=kind, periods=tuple(periods))


def equal_weights(periods: Sequence[int]) -> SWWeights:
    k = len(periods)
    return SWWeights(w=(1.0 / k,) * k, kind="equal", periods=tuple(periods))


def _resolve_weights(
    weights, periods: tuple[int, ...], covariance: SWCovariance | None
) -> tuple[SWWeights, list[str]]:
    notes: list[str] = []
    if weights is None or weights == "equal":
        return equal_weights(periods), notes
    if weights == "optimal":
        if covariance is None:
            raise ValueError("optimal weights need a covariance; none was supplied")
        try:
            return optimal_weights(covariance), notes
        except SingularCovariance as exc:
            warnings.warn(
                f"optimal weights unavailable ({exc}); falling back to equal weights",
                RuntimeWarning,
            )
            notes.append("optimal-weight fallback: equal weights used")
            return equal_weights(periods), notes
    if isinstance(weights, SWWeights):
        if weights.periods != periods:
            raise ValueError(
                f"weights are for periods {weights.periods}, panel analysis "
                f"periods are {periods}"
            )
        return weights, notes
    w = tuple(float(v) for v in weights)
    return SWWeights(w=w, kind="custom", periods=periods), notes


def sw_log_contrast(
    panel: Panel,
    weights="equal",
    *,
    covariance: SWCovariance | None = None,
    estimate_covariance: bool = True,
    convention: str = "canonical",
    alpha: float = 0.05,
    correction: bool = False,
) -> EstimateReport:
    """Weighted per-period log-contrast difference for a stepped wedge.

    ``weights`` may be "equal", "optimal" (computed from ``covariance``
    if given, else from the plug-in estimate, with an equal-weight
    fallback on singularity), an :class:`SWWeights`, or a bare vector
    over the analysis periods.  The SE is ``sqrt(w' Sigma_hat w)`` using
    ``covariance`` when supplied, else the plug-in estimate; pass
    ``estimate_covariance=False`` to skip SE computation entirely.
    """
    periods, m_t, dropped = _panel_design(panel)
    _warn_dropped(dropped)
    lmat = panel.log_contrast_matrix(correction)
    start = np.asarray(panel.start_periods)
    diffs = _period_differences(lmat, start, periods, m_t)

    cov = covariance
    if cov is None and (estimate_covariance or weights == "optimal"):
        cov = sw_covariance_estimate(
            panel, convention=convention, correction=correction
        )
    if cov is not None and cov.periods != periods:
        raise ValueError(
            f"covariance is for periods {cov.periods}, panel analysis periods "
            f"are {periods}"
        )
    wts, notes = _resolve_weights(weights, periods, cov)
    w = np.asarray(wts.w)
    est = float(w @ diffs)

    se = ci_low = ci_high = None
    if cov is not None:
        var = float(w @ cov.sigma @ w)
        se = math.sqrt(max(var, 0.0))
        ci_low, ci_high = normal_ci(est, se, alpha)
    diagnostics = {
        "weights": list(wts.w),
        "weight_kind": wts.kind,
        "analysis_periods": list(periods),
        "dropped_periods": list(dropped),
        "period_differences": diffs.tolist(),
        "convention": convention,
    }
    if cov is not None:
        diagnostics["covariance_provenance"] = cov.provenance
    if notes:
        diagnostics["notes"] = notes
    return EstimateReport(
        method="sw_log_contrast",
        log_estimate=est,
        se_log=se,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_method="normal" if se is not None else "none",
        alpha=alpha,
        diagnostics=diagnostics,
    )


def _period_diff_rows(
    values: np.ndarray,
    start_rows: np.ndarray,
    periods: Sequence[int],
    m_t: dict[int, int],
) -> np.ndarray:
    """(rows, periods) treated-minus-control means of ``values[:, t-1]``.

    Row r treats cluster i at period t when ``start_rows[r, i] <= t``.
    """
    m = values.shape[0]
    out = np.empty((start_rows.shape[0], len(periods)))
    for k, t in enumerate(periods):
        col = values[:, t - 1]
        n1 = m_t[t]
        sums = (start_rows <= t) @ col
        out[:, k] = sums / n1 - (col.sum() - sums) / (m - n1)
    return out


def _start_scheme(panel: Panel) -> SteppedWedgeScheme:
    """The randomization of the panel's start vector.

    Start labels beyond the observed window (never treated in-window)
    are one more exchangeable category in the randomization.
    """
    label_max = max(max(panel.start_periods), panel.n_periods)
    q = tuple(
        sum(1 for a in panel.start_periods if a == t)
        for t in range(1, label_max + 1)
    )
    return SteppedWedgeScheme(m=panel.m, q=q)


def _null_weights(
    l0: np.ndarray, weights, periods: tuple[int, ...], scale: np.ndarray
) -> np.ndarray:
    """Weights held fixed over the re-randomizations of a test of lam0.

    ``l0`` holds the control log-contrasts imputed under the null.
    "optimal" weights are computed exactly from their covariance,
    falling back to equal weights when it is singular.
    """
    if weights != "optimal":
        wts, _ = _resolve_weights(weights, periods, None)
        return np.asarray(wts.w)
    sigma, _ = _null_sigma(l0, periods, scale)
    try:
        wts = optimal_weights(sigma, periods=periods, kind="optimal_oracle")
    except SingularCovariance:
        warnings.warn("null covariance is singular; using equal weights", RuntimeWarning)
        wts = equal_weights(periods)
    return np.asarray(wts.w)


def sw_permutation_test(
    panel: Panel,
    lam0: float,
    weights="equal",
    *,
    mode: str = "auto",
    n_draws: int = 9999,
    seed: int = 0,
    correction: bool = False,
    convention: str = "canonical",
) -> PermutationResult:
    """Randomization test of lam = lam0 using the weighted SW statistic.

    Control log-contrasts are imputed under the null and the weighted
    per-period difference statistic is evaluated over re-randomized
    start-period vectors drawn from the realized design's support.
    Weights are held fixed across re-randomizations; "optimal" weights
    are computed exactly from the null-imputed covariance.
    """
    if lam0 <= 0:
        raise ValueError(f"lam0 must be > 0, got {lam0}")
    periods, m_t, dropped = _panel_design(panel)
    _warn_dropped(dropped)
    lmat = panel.log_contrast_matrix(correction)
    start = np.asarray(panel.start_periods)
    l0 = lmat - math.log(lam0) * _treated_matrix(panel)
    scale = _scale_matrix(panel.m, m_t, periods, convention)
    w = _null_weights(l0, weights, periods, scale)

    def evaluate(start_rows: np.ndarray) -> np.ndarray:
        return _period_diff_rows(l0, start_rows, periods, m_t) @ w

    observed = float(evaluate(start[None, :])[0])
    rz = randomize(_start_scheme(panel), mode, n_draws, (seed, 0x5E))
    return _permutation_result(
        evaluate, observed, rz, seed=seed, statistic="sw_log_contrast"
    )


def _sw_pvalue_function(
    panel: Panel,
    weights,
    *,
    mode: str,
    n_draws: int,
    seed: int,
    correction: bool,
    convention: str,
) -> Callable[[float], float]:
    """theta -> two-sided p of :func:`sw_permutation_test` at lam0 = e^theta.

    Under the null the imputed control log-contrasts are
    ``L - theta * treated``, so each re-randomized per-period difference
    splits as ``D - theta * A``.  D and A come from one pass over the
    support (or one set of draws from the test's own stream); each
    p(theta) then only applies the weights and counts.
    """
    periods, m_t, _ = _panel_design(panel)
    scale = _scale_matrix(panel.m, m_t, periods, convention)
    lmat = panel.log_contrast_matrix(correction)
    treated = _treated_matrix(panel).astype(float)
    observed = np.asarray(panel.start_periods)[None, :]
    d_obs = _period_diff_rows(lmat, observed, periods, m_t)[0]
    a_obs = _period_diff_rows(treated, observed, periods, m_t)[0]
    rz = randomize(_start_scheme(panel), mode, n_draws, (seed, 0x5E))
    parts = [
        (_period_diff_rows(lmat, rows, periods, m_t),
         _period_diff_rows(treated, rows, periods, m_t))
        for rows in rz.blocks()
    ]
    d_rows = np.concatenate([d for d, _ in parts])
    a_rows = np.concatenate([a for _, a in parts])

    def pfun(theta: float) -> float:
        l0 = lmat - math.log(math.exp(theta)) * treated
        w = _null_weights(l0, weights, periods, scale)
        observed_stat = float((d_obs - theta * a_obs) @ w)
        two, _, _ = _tail_counts((d_rows - theta * a_rows) @ w, observed_stat)
        return rz.p(two)

    return pfun


def sw_invert_ci(
    panel: Panel,
    weights="equal",
    *,
    alpha: float = 0.05,
    mode: str = "auto",
    n_draws: int = 9999,
    seed: int = 0,
    correction: bool = False,
    convention: str = "canonical",
) -> tuple[float, float]:
    """lam-scale CI from inverting :func:`sw_permutation_test`.

    Scans 81 values of log(lam0) over the estimate +- 10 SE, widening up
    to 50 SE while an edge is not rejected, and bisects each outer
    boundary of {p > alpha} to 1e-4, with the routine of
    :func:`~crtnd.inference.invert_ci` (:class:`NoNonRejectedPoint` when
    an edge is still not rejected at 50 SE).  The p-values are those of
    :func:`sw_permutation_test` with the same options, but the
    re-randomized statistic is evaluated
    once per assignment for the whole scan, not once per scanned value.
    """
    base = sw_log_contrast(panel, weights, alpha=alpha, convention=convention,
                           correction=correction)
    center = base.log_estimate
    half = 10.0 * max(base.se_log or 0.1, 1e-6)
    pfun = _sw_pvalue_function(
        panel, weights, mode=mode, n_draws=n_draws, seed=seed,
        correction=correction, convention=convention,
    )
    lo, hi, _ = _invert_scan(pfun, center, half, alpha, n_scan=81, tol=1e-4)
    return math.exp(lo), math.exp(hi)
