"""Stepped-wedge estimation: weighted per-period contrasts and covariance.

At each analysis period t (those t in 1..T-1 where some but not all
clusters are under intervention) the treated-minus-control mean of the
period's log-contrasts is unbiased for ``log(lam)``; the estimator is a
weighted sum of these per-period differences with weights summing to 1.

Its randomization covariance has entries

    Sigma[t1, t2] = m / (m_{max(t1,t2)} (m - m_{min(t1,t2)})) * S[t1, t2]

where ``S`` is the finite-population covariance of the control
log-contrasts across clusters and ``m_t`` counts clusters under
intervention at t.  This is the one scaling: it matches the covariance
of the differences over a full enumeration of the start vectors, to
rounding, which the test suite checks.

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

from .core import _BLOCK_BYTES, _SERIAL_MNK, Panel, SteppedWedgeScheme, randomize
from .errors import ArmTooSmall, SingularCovariance
from .estimators import EstimateReport, _row_dot, normal_ci
from .inference import (
    PermutationResult,
    _invert_scan,
    _permutation_result,
    _Statistic,
)

# optimal weights need a covariance condition number at most this
_COND_LIMIT = 1e10

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
        if not abs(sum(self.w) - 1.0) <= 1e-9:  # NaN and inf fail too
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


def _scale_matrix(scheme: SteppedWedgeScheme, periods: Sequence[int]) -> np.ndarray:
    """(k, k) factors ``m / (m_max(t1,t2) (m - m_min(t1,t2)))`` that turn
    S entries into Sigma entries, each one exact integer product and one
    division."""
    t = np.asarray(periods)
    lo, hi = np.minimum.outer(t, t), np.maximum.outer(t, t)
    counts = np.array([scheme.m_t(s) for s in range(int(t.max()) + 1)])
    return scheme.m / (counts[hi] * (scheme.m - counts[lo]))


def _warn_dropped(periods: tuple[int, ...], n_periods: int) -> None:
    if len(periods) < n_periods - 1:
        warnings.warn(
            "some periods in 1..T-1 have an empty treated or control group "
            "and are excluded from the analysis",
            RuntimeWarning,
        )


# The plug-in estimates run on stacks: ``lmat`` (B, m, T) and ``start``
# (B, m) hold B replicates of one scheme, so m_t and the analysis periods
# are shared; one (m, T) panel and its (m,) starts is a stack of one.
# Reductions run along the contiguous last axis, so every replicate gets
# the bits its own computation would.


def _period_groups(lmat: np.ndarray, start: np.ndarray, periods: Sequence[int]):
    """Per analysis period t: the (B, m_t) treated and (B, m - m_t)
    control log-contrasts at t, in cluster order."""
    n = lmat.shape[0]
    for t in periods:
        col, treated = lmat[:, :, t - 1], start <= t
        yield col[treated].reshape(n, -1), col[~treated].reshape(n, -1)


def _period_differences(
    lmat: np.ndarray, start: np.ndarray, periods: Sequence[int]
) -> np.ndarray:
    """Treated-minus-control mean log-contrast per analysis period: (k,)
    for one panel, (B, k) for a stack."""
    if lmat.ndim == 2:
        return _period_differences(lmat[None], start[None], periods)[0]
    out = np.empty((lmat.shape[0], len(periods)))
    for k, (g1, g0) in enumerate(_period_groups(lmat, start, periods)):
        out[:, k] = g1.mean(axis=1) - g0.mean(axis=1)
    return out


def _check_arms(scheme: SteppedWedgeScheme, periods: Sequence[int]) -> None:
    """Raise :class:`ArmTooSmall` unless each analysis period has >= 2
    clusters on each side, the precondition of :func:`_plugin_sigma`.

    It depends on the design only, so a caller that re-randomizes one
    multiset of starts checks it once.  Once it holds, m >= 4, and the
    three groups of a period pair, which partition the m clusters, have
    a largest member of at least 2 clusters.
    """
    for t in periods:
        n1, n0 = scheme.m_t(t), scheme.m - scheme.m_t(t)
        if n1 < 2 or n0 < 2:
            raise ArmTooSmall(
                f"period {t}: variance estimation needs >= 2 clusters per arm "
                f"(treated={n1}, control={n0})"
            )


def _plugin_sigma(
    lmat: np.ndarray,
    start: np.ndarray,
    periods: Sequence[int],
    scheme: SteppedWedgeScheme,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, S entries) of :func:`sw_covariance_estimate` from arrays:
    (k, k) for one panel, (B, k, k) for a stack.

    The design must have passed :func:`_check_arms`.  Each S entry is
    the sample covariance of its pair of periods within one group, in
    the steps of :func:`_null_sigma`: the products of the stack's (2,
    group) blocks are one batched ``x @ x.T``, whose entries are those
    of ``np.dot`` on each block.
    """
    if lmat.ndim == 2:
        sigma, s_values = _plugin_sigma(lmat[None], start[None], periods, scheme, scale)
        return sigma[0], s_values[0]
    n, m, n_periods = lmat.shape
    m_t = {t: scheme.m_t(t) for t in periods}
    k = len(periods)
    sigma = np.zeros((n, k, k))
    s_values = np.full((n, k, k), np.nan)

    for i, (t, (g1, g0)) in enumerate(zip(periods, _period_groups(lmat, start, periods))):
        v1 = np.var(g1, axis=1, ddof=1)
        v0 = np.var(g0, axis=1, ddof=1)
        sigma[:, i, i] = v1 / m_t[t] + v0 / (m - m_t[t])

    groups = {}  # (lo, hi] of start periods -> the group's centered rows
    upper = np.triu_indices(k, 1)
    s_hat = np.empty((n, len(upper[0])))
    for p, (i, j) in enumerate(zip(*upper)):
        t1, t2 = periods[i], periods[j]
        # group sizes follow from m_t; the first largest group is used
        sizes = (m_t[t1], m_t[t2] - m_t[t1], m - m_t[t2])
        key = ((0, t1), (t1, t2), (t2, math.inf))[sizes.index(max(sizes))]
        if key not in groups:
            # every replicate has the group's size: its members in cluster order
            inside = (start > key[0]) & (start <= key[1])
            rows = np.ascontiguousarray(lmat[inside].reshape(n, -1, n_periods).transpose(0, 2, 1))
            rows -= rows.mean(axis=2)[:, :, None]  # centred as in _null_sigma, every period
            groups[key] = rows
        pair = groups[key][:, [t1 - 1, t2 - 1]]
        products = np.matmul(pair, pair.transpose(0, 2, 1))[:, 0, 1]
        s_hat[:, p] = products * np.true_divide(1, pair.shape[2] - 1)
    lower = upper[::-1]
    s_values[:, upper[0], upper[1]] = s_values[:, lower[0], lower[1]] = s_hat
    sigma[:, upper[0], upper[1]] = sigma[:, lower[0], lower[1]] = scale[upper] * s_hat
    return sigma, s_values


def _null_sigma(
    l0: np.ndarray, periods: Sequence[int], scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma, S) from complete control log-contrasts: (k, k) of one
    (m, T) matrix ``l0``, (B, k, k) of a (B, m, T) stack.

    S is the sample covariance (divisor m - 1) of each matrix's
    analysis-period columns, on the whole stack at once: the (B, k, m)
    columns centred along their contiguous last axis, one batched
    product with their transpose (per matrix, the product ``np.dot``
    takes), and the scale ``1/(m-1)``.  A matrix gets the same bits in
    any stack.
    """
    if l0.ndim == 2:
        sigma, s_full = _null_sigma(l0[None], periods, scale)
        return sigma[0], s_full[0]
    x = np.ascontiguousarray(l0.transpose(0, 2, 1)[:, [t - 1 for t in periods]])
    x -= x.mean(axis=2)[:, :, None]
    s_full = np.matmul(x, x.transpose(0, 2, 1))
    s_full *= np.true_divide(1, x.shape[2] - 1)
    return scale * s_full, s_full


def sw_covariance_estimate(panel: Panel) -> SWCovariance:
    """Plug-in covariance of the per-period differences from observed data.

    Diagonal entries use the per-period per-arm variance construction
    ``s1^2/m_t + s0^2/(m - m_t)``, matching the parallel-arm estimator.
    Off-diagonal entries scale the largest-group sample covariance (the
    three-case rule; ties break in the order treated-by-t1, switchers,
    untreated-at-t2).
    """
    scheme, periods = panel.scheme, panel.analysis_periods
    _warn_dropped(periods, panel.n_periods)
    _check_arms(scheme, periods)
    lmat, start = panel.log_contrast_matrix(), np.asarray(panel.start_periods)
    sigma_s = _plugin_sigma(lmat, start, periods, scheme, _scale_matrix(scheme, periods))
    return _covariance(sigma_s, scheme, periods, "estimated")


def sw_oracle_covariance(l0: np.ndarray, scheme: SteppedWedgeScheme) -> SWCovariance:
    """Exact covariance from known control log-contrasts (m x T matrix)."""
    l0 = np.asarray(l0, dtype=float)
    if l0.shape != (scheme.m, scheme.n_periods):
        raise ValueError(
            f"l0 must have shape ({scheme.m}, {scheme.n_periods}), got {l0.shape}"
        )
    periods = scheme.analysis_periods
    sigma_s = _null_sigma(l0, periods, _scale_matrix(scheme, periods))
    return _covariance(sigma_s, scheme, periods, "oracle")


def sw_null_covariance(panel: Panel, lam0: float) -> SWCovariance:
    """Exact covariance under a sharp null: impute L(0), then use all clusters.

    Under ``lam = lam0`` every control log-contrast is recoverable as
    ``L - log(lam0)`` on treated cells, so S needs no group selection.
    """
    if lam0 <= 0:
        raise ValueError(f"lam0 must be > 0, got {lam0}")
    scheme, periods = panel.scheme, panel.analysis_periods
    _warn_dropped(periods, panel.n_periods)
    l0 = panel.log_contrast_matrix() - math.log(lam0) * panel.treated
    sigma_s = _null_sigma(l0, periods, _scale_matrix(scheme, periods))
    return _covariance(sigma_s, scheme, periods, "null_exact")


def _covariance(sigma_s, scheme, periods, provenance) -> SWCovariance:
    """The :class:`SWCovariance` of a (Sigma, S entries) pair of ``scheme``."""
    sigma, s_values = sigma_s
    group_sizes = tuple(scheme.m_t(t) for t in periods)
    return SWCovariance(sigma, s_values, group_sizes, periods, provenance)


def optimal_weights(
    sigma: SWCovariance | np.ndarray,
    *,
    periods: tuple[int, ...] | None = None,
    kind: str = "optimal_plugin",
) -> SWWeights:
    """Variance-minimizing weights: Sigma^{-1} 1 / (1' Sigma^{-1} 1).

    Raises :class:`SingularCovariance` when the matrix condition number
    exceeds :data:`_COND_LIMIT`; callers usually fall back to equal
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
    w, ok, cond = _optimal_rows(mat[None])
    if not ok[0]:
        raise SingularCovariance(
            f"covariance condition number {cond[0]:.3g} exceeds {_COND_LIMIT:.3g}"
        )
    return SWWeights(w=tuple(float(v) for v in w[0]), kind=kind, periods=tuple(periods))


def _optimal_rows(sigmas: np.ndarray):
    """:func:`optimal_weights` of each matrix of a (B, k, k) stack: the
    (B, k) weights, which matrices have them (condition number finite
    and at most :data:`_COND_LIMIT`; the others' rows are NaN), and the
    condition numbers."""
    cond = np.linalg.cond(sigmas)
    ok = np.isfinite(cond) & (cond <= _COND_LIMIT)
    w = np.full(sigmas.shape[:2], np.nan)
    if ok.any():
        ones = np.ones(sigmas.shape[1])
        x = np.linalg.solve(sigmas[ok], ones[:, None])[:, :, 0]
        w[ok] = x / _row_dot(x, np.broadcast_to(ones, x.shape))[:, None]
    return w, ok, cond


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
    alpha: float = 0.05,
) -> EstimateReport:
    """Weighted per-period log-contrast difference for a stepped wedge.

    ``weights`` may be "equal", "optimal" (computed from ``covariance``
    if given, else from the plug-in estimate, with an equal-weight
    fallback on singularity), an :class:`SWWeights`, or a bare vector
    over the analysis periods.  The SE is ``sqrt(w' Sigma_hat w)`` using
    ``covariance`` when supplied, else the plug-in estimate; pass
    ``estimate_covariance=False`` to skip SE computation entirely.
    """
    periods = panel.analysis_periods
    _warn_dropped(periods, panel.n_periods)
    diffs = _period_differences(
        panel.log_contrast_matrix(), np.asarray(panel.start_periods), periods
    )

    cov = covariance
    if cov is None and (estimate_covariance or weights == "optimal"):
        cov = sw_covariance_estimate(panel)
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
        "dropped_periods": [t for t in range(1, panel.n_periods) if t not in periods],
        "period_differences": diffs.tolist(),
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


def _period_contrasts(
    start_rows: np.ndarray,
    periods: Sequence[int],
    scheme: SteppedWedgeScheme,
    values: np.ndarray,
    weights: np.ndarray | None = None,
    masks: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(W, B, rows): for each matrix v = ``values[b]`` of a (B, m, T)
    stack, the treated-minus-control means of ``v[:, t-1]`` over the
    analysis periods, summed with the weights ``weights[w, b]`` of a (W,
    B, k) array; with no weights, the per-period means, (k, B, rows).

    Row r treats cluster i at period t when ``start_rows[r, i] <= t``.
    A period's difference is ``c_t S_t - total_t / n0_t``, with S_t the
    treated sum and ``c_t = 1/n1_t + 1/n0_t``: one (W B, k m) matrix of
    v, c_t and the weights times the rows' (k m, rows) 0/1 masks
    (:func:`_start_masks`), less one constant per (w, b).  Rows go in
    pieces whose products stay below ``_SERIAL_MNK``.  Each piece's
    masks are built in a buffer that fits in ``_BLOCK_BYTES``, or sliced
    from ``masks``, those of all of ``start_rows`` from
    :func:`_block_masks`, for a caller that shares one set of rows
    between calls.  ``out``, a (W B, rows) float array, takes the result
    in place of a fresh one.
    """
    b, m = values.shape[:2]
    k = len(periods)
    if weights is None:
        weights = np.broadcast_to(np.eye(k)[:, None], (k, b, k))
    n1 = np.array([scheme.m_t(t) for t in periods])
    by_period = values[:, :, [t - 1 for t in periods]]  # (B, m, k)
    scaled = weights * (1 / n1 + 1 / (m - n1))
    coef = np.einsum("bij,wbj->wbji", by_period, scaled).reshape(-1, k * m)
    const = (weights * by_period.sum(axis=1) / (m - n1)).sum(axis=2).reshape(-1, 1)
    n, cols = start_rows.shape[0], coef.shape[0]
    size = max(1, min(_BLOCK_BYTES // 8, (_SERIAL_MNK - 1) // cols) // (k * m))
    if masks is None:
        starts = np.ascontiguousarray(start_rows.T)
        buffer = np.empty(k * m * min(size, n))
    if out is None:
        out = np.empty((cols, n))
    for first in range(0, n, size):
        piece = slice(first, first + size)
        if masks is None:
            mask = _start_masks(starts[:, piece], periods, buffer)
        else:
            mask = masks[:, piece]
        np.matmul(coef, mask, out=out[:, piece])
    out -= const
    return out.reshape(*weights.shape[:2], n)


def _start_masks(starts: np.ndarray, periods: Sequence[int], buffer=None) -> np.ndarray:
    """The (k m, rows) float 0/1 masks of (m, rows) start periods: row
    ``j m + i`` is 1 in column r where ``starts[i, r] <= periods[j]``.
    They fill the front of ``buffer``, a flat float array of at least k m
    rows elements, in place of a fresh array."""
    shape = (len(periods), *starts.shape)
    mask = np.empty(shape) if buffer is None else buffer[:math.prod(shape)].reshape(shape)
    np.less_equal(starts, np.array(periods)[:, None, None], out=mask, casting="unsafe")
    return mask.reshape(-1, shape[2])


def _block_masks(start_rows: np.ndarray, periods: Sequence[int]) -> np.ndarray | None:
    """:func:`_start_masks` of all of the (rows, m) ``start_rows`` at once,
    for a caller that passes them to several :func:`_period_contrasts`
    calls; None where they would not fit in ``_BLOCK_BYTES``."""
    if 8 * len(periods) * start_rows.size > _BLOCK_BYTES:
        return None
    return _start_masks(start_rows.T, periods)


def _null_weights(
    l0: np.ndarray, weights, periods: tuple[int, ...], scale: np.ndarray
) -> np.ndarray:
    """Weights held fixed over the re-randomizations of a test of lam0.

    ``l0`` holds the control log-contrasts imputed under the null, of
    one (m, T) panel or of each panel of a (B, m, T) stack.  "optimal"
    weights are computed exactly from their covariance, falling back to
    equal weights when it is singular; a stack gets one row each.
    """
    if weights != "optimal":
        wts, _ = _resolve_weights(weights, periods, None)
        return np.asarray(wts.w)
    if l0.ndim == 2:
        return _null_weights(l0[None], weights, periods, scale)[0]
    w, ok, _ = _optimal_rows(_null_sigma(l0, periods, scale)[0])
    if not ok.all():
        warnings.warn("null covariance is singular; using equal weights", RuntimeWarning)
        w[~ok] = equal_weights(periods).w
    return w


def _sw_statistic(panel: Panel, weights) -> _Statistic:
    """The weighted statistic of the null lam = e^theta.

    Under the null the control log-contrasts are ``L - theta * treated``,
    so each assignment's per-period differences split as ``D - theta *
    A``: the per-period columns of :func:`_period_contrasts` for the
    stack of L and the treated indicator, and the observed
    :func:`_period_differences` and 1.
    Weights are held fixed across re-randomizations; "optimal" weights
    are computed exactly from the null-imputed covariance at theta.
    """
    scheme, periods = panel.scheme, panel.analysis_periods
    lmat = panel.log_contrast_matrix()
    treated = panel.treated.astype(float)
    scale = _scale_matrix(scheme, periods)
    stack = np.stack([lmat, treated])

    def rows(start_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        contrasts = _period_contrasts(start_rows, periods, scheme, stack)
        return contrasts[:, 0].T, contrasts[:, 1].T

    observed = _period_differences(lmat, np.asarray(panel.start_periods), periods)
    return _Statistic(
        rows,
        (observed, np.ones(len(periods))),
        lambda theta: _null_weights(lmat - theta * treated, weights, periods, scale),
    )


def sw_permutation_test(
    panel: Panel,
    lam0: float,
    weights="equal",
    *,
    mode: str = "auto",
    n_draws: int = 9999,
    seed: int = 0,
) -> PermutationResult:
    """Randomization test of lam = lam0 using the weighted SW statistic.

    The weighted per-period difference statistic of the null-imputed
    control log-contrasts (:func:`_sw_statistic`, which
    :func:`sw_invert_ci` inverts) is evaluated over re-randomized
    start-period vectors drawn from the realized design's support.
    """
    if lam0 <= 0:
        raise ValueError(f"lam0 must be > 0, got {lam0}")
    _warn_dropped(panel.analysis_periods, panel.n_periods)
    return _permutation_result(
        _sw_statistic(panel, weights), math.log(lam0),
        randomize(panel.scheme, mode, n_draws, (seed, 0x5E)),
        seed=seed, statistic="sw_log_contrast",
    )


def _sw_pvalue_function(
    panel: Panel, weights, *, mode: str, n_draws: int, seed: int
) -> Callable[[float], float]:
    """theta -> two-sided p of :func:`sw_permutation_test` at lam0 = e^theta.

    D and A come from one pass over the support (or one set of draws
    from the test's own stream); each p(theta) then only applies the
    weights and counts.
    """
    rz = randomize(panel.scheme, mode, n_draws, (seed, 0x5E))
    return _sw_statistic(panel, weights).pvalues(rz)


def sw_invert_ci(
    panel: Panel,
    weights="equal",
    *,
    alpha: float = 0.05,
    mode: str = "auto",
    n_draws: int = 9999,
    seed: int = 0,
) -> tuple[float, float, dict]:
    """lam-scale CI from inverting :func:`sw_permutation_test`, and the
    scan diagnostics of the TPF CI of :func:`~crtnd.inference.invert_ci`.

    Scans 81 values of log(lam0) over the estimate +- 10 SE, widening up
    to 50 SE while an edge is not rejected, and bisects each outer
    boundary of {p > alpha} to 1e-4, with the routine of the TPF CI
    (:class:`NoNonRejectedPoint` when an edge is still not rejected at
    50 SE).  The p-values are those of
    :func:`sw_permutation_test` with the same options, but the
    re-randomized statistic is evaluated
    once per assignment for the whole scan, not once per scanned value.
    """
    base = sw_log_contrast(panel, weights, alpha=alpha)
    center = base.log_estimate
    half = 10.0 * max(base.se_log or 0.1, 1e-6)
    pfun = _sw_pvalue_function(panel, weights, mode=mode, n_draws=n_draws, seed=seed)
    lo, hi, scan = _invert_scan(pfun, center, half, alpha, n_scan=81, tol=1e-4)
    diagnostics = {"method": "sw_log_contrast", "test": "permutation", "alpha": alpha}
    return math.exp(lo), math.exp(hi), {**diagnostics, **scan}
