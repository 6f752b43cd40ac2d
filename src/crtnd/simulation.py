"""Simulation engines and the bias / SE / ASE / PoR / CP metric suite.

Two data-generating processes are provided.  The parallel-arm process
draws control counts from multinomials over fixed baseline proportions,
optionally couples counts to a cluster covariate (multiplying
test-positives and dividing test-negatives by twice the covariate),
applies the constant-relative-risk count model with a fixed draw of
relative ascertainments, and realizes one random arm split.  The
stepped-wedge process repeats the multinomial draw per period, with
test-negative baselines scaled to each period's test-positive total,
ascertainment drawn independently per cluster-period cell, and a
staggered start-period assignment.

Relative ascertainment is drawn once per study by default (a fixed
latent characteristic of the clusters); a per-replicate policy is
available for sensitivity runs.  Every replicate's randomness comes
from a counter-derived stream, so outputs are byte-identical across
runs and execution orders.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .core import (
    ClusterRecord,
    Panel,
    ParallelScheme,
    PeriodPotentialTable,
    PotentialTable,
    SteppedWedgeScheme,
    derive_rng,
    randomize,
    realize,
    sample_assignment,
)
from .errors import (
    DegenerateReplicateLimit,
    NoAdmissibleRoot,
    SingularCovariance,
)
from .estimators import (
    _covariate_adjusted_arrays,
    _log_contrast_arrays,
    _odds_ratio_log_arrays,
    _odds_ratio_relabelings,
    _permutation_se,
    _tpf_statistic_arrays,
    _z_quantile,
    odds_ratio_permutation_draws,
    tpf_solve,
)
from .inference import _diff_means_rows, _two_sided_count, _two_sided_p
from .stepped_wedge import (
    _check_arms,
    _design,
    _null_sigma,
    _null_weights,
    _period_diff_rows,
    _period_differences,
    _plugin_sigma,
    _scale_matrix,
    _warn_dropped,
    equal_weights,
    optimal_weights,
)

__all__ = [
    "SimScenario",
    "MetricsRow",
    "simulate_parallel",
    "simulate_stepped_wedge",
    "evaluate",
    "replicate_ascertainment_sweep",
    "PARALLEL_ESTIMATORS",
    "SW_ESTIMATORS",
]

PARALLEL_ESTIMATORS = ("odds_ratio", "tpf", "log_contrast", "covariate_adjusted")
SW_ESTIMATORS = ("sw_equal", "sw_optimal")


@dataclass(frozen=True)
class SimScenario:
    """A full description of one simulation study.

    ``baseline_y`` is per-cluster for a parallel design and per
    (cluster, period) for a stepped wedge; ``baseline_z`` is always
    per-cluster (stepped-wedge test-negative baselines are derived by
    scaling with each period's test-positive total).  Ascertainment is
    Beta(a, b) unless ``ascertainment_values`` pins explicit values.
    """

    scenario_id: str
    design: ParallelScheme | SteppedWedgeScheme
    baseline_y: tuple
    baseline_z: tuple
    lam: float = 1.0
    covariates: tuple | None = None
    covariate_coupling: bool = False
    ascertainment_a: float = 0.5
    ascertainment_b: float = 0.5
    draw_policy: str = "once_per_study"  # | "per_replicate"
    ascertainment_values: tuple | None = None
    n_replicates: int = 1000
    seed: int = 1
    alpha: float = 0.05

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not 0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        if self.draw_policy not in ("once_per_study", "per_replicate"):
            raise ValueError(f"unknown draw_policy {self.draw_policy!r}")
        m = self.design.m
        if self.is_stepped_wedge:
            by = np.asarray(self.baseline_y, dtype=float)
            if by.shape != (m, self.design.n_periods):
                raise ValueError(
                    f"stepped-wedge baseline_y must be (m, T) = "
                    f"({m}, {self.design.n_periods}), got {by.shape}"
                )
        else:
            by = np.asarray(self.baseline_y, dtype=float)
            if by.shape != (m,):
                raise ValueError(f"baseline_y must have length m={m}")
        bz = np.asarray(self.baseline_z, dtype=float)
        if bz.shape != (m,):
            raise ValueError(f"baseline_z must have length m={m}")
        if np.any(by <= 0) or np.any(bz <= 0):
            raise ValueError("baselines must be strictly positive")
        if self.covariates is not None and len(self.covariates) != m:
            raise ValueError(f"covariates must have length m={m}")
        if self.covariate_coupling:
            if self.covariates is None:
                raise ValueError("covariate_coupling requires covariates")
            x = np.asarray(self.covariates, dtype=float)
            if not np.all(np.isfinite(x)) or np.any(x <= 0):
                raise ValueError("coupled covariates must be finite and > 0")
        if self.ascertainment_values is not None:
            c = np.asarray(self.ascertainment_values, dtype=float)
            expected = (m, self.design.n_periods) if self.is_stepped_wedge else (m,)
            if c.shape != expected:
                raise ValueError(
                    f"ascertainment_values must have shape {expected}, got {c.shape}"
                )
            if not np.all(np.isfinite(c)) or np.any(c <= 0):
                raise ValueError("ascertainment values must be finite and > 0")

    @property
    def is_stepped_wedge(self) -> bool:
        return isinstance(self.design, SteppedWedgeScheme)


@dataclass
class MetricsRow:
    """Aggregated performance of one estimator over a scenario's replicates.

    bias, se, and ase are on the log scale; por_* are rejection
    frequencies of the no-effect null at the scenario alpha; cp is the
    coverage of the nominal Normal confidence interval.  ``dropped``
    counts the replicates missing from ``n_effective`` by reason:
    "degenerate" or the class name of the error that removed them.
    """

    scenario_id: str
    estimator: str
    lam: float
    n_replicates: int
    n_effective: int
    bias: float
    se: float
    ase: float | None
    por_normal: float | None
    por_perm: float | None
    cp: float | None
    dropped: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "estimator": self.estimator,
            "lam": self.lam,
            "n_replicates": self.n_replicates,
            "n_effective": self.n_effective,
            "bias": self.bias,
            "se": self.se,
            "ase": self.ase,
            "por_normal": self.por_normal,
            "por_perm": self.por_perm,
            "cp": self.cp,
        }


# --------------------------------------------------------------------- #
# Data generation
# --------------------------------------------------------------------- #


def _draw_counts(
    rng: np.random.Generator, n: int, probs: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Multinomial draw; zero cells are re-drawn per cluster up to 100 times."""
    counts = rng.multinomial(n, probs).astype(float)
    if counts.all():
        return counts, False
    attempts = 0
    while np.any(counts == 0) and attempts < 100:
        for idx in np.nonzero(counts == 0)[0]:
            counts[idx] = rng.binomial(n, probs[idx])
        attempts += 1
    return counts, bool(np.any(counts == 0))


def _ascertainment(scenario: SimScenario, rng: np.random.Generator) -> np.ndarray:
    if scenario.ascertainment_values is not None:
        return np.asarray(scenario.ascertainment_values, dtype=float)
    shape = (
        (scenario.design.m, scenario.design.n_periods)
        if scenario.is_stepped_wedge
        else scenario.design.m
    )
    c = rng.beta(scenario.ascertainment_a, scenario.ascertainment_b, size=shape)
    return np.clip(c, 1e-12, None)


def study_ascertainment(scenario: SimScenario) -> np.ndarray:
    """The study-level ascertainment draw (stream 0 of the scenario seed)."""
    return _ascertainment(scenario, derive_rng(scenario.seed, 0))


def _study_level(scenario: SimScenario) -> np.ndarray | None:
    if scenario.draw_policy == "once_per_study":
        return study_ascertainment(scenario)
    return None


def _check_degenerate_limit(scenario: SimScenario, degenerate: int, rep: int) -> None:
    if degenerate > max(1, scenario.n_replicates // 100):
        raise DegenerateReplicateLimit(
            f"{degenerate} degenerate replicates out of {rep + 1}"
        )


def _parallel_draws(
    scenario: SimScenario,
) -> Iterator[tuple[int, np.ndarray | None, np.ndarray | None, np.ndarray | None]]:
    """Replicates of a parallel scenario as ``(rep, arms, y, z)`` arrays.

    ``arms`` is the realized 0/1 arm vector and ``y``, ``z`` the observed
    counts: treated clusters take ``lam * c * y0`` and ``c * z0``, as
    :class:`PotentialTable` defines them.  A degenerate replicate (a
    count stuck at zero after redraws) yields ``(rep, None, None, None)``;
    more than 1 percent of them raise :class:`DegenerateReplicateLimit`.
    """
    if scenario.is_stepped_wedge:
        raise ValueError("scenario has a stepped-wedge design")
    scheme: ParallelScheme = scenario.design
    by = np.asarray(scenario.baseline_y, dtype=float)
    bz = np.asarray(scenario.baseline_z, dtype=float)
    ny, nz = int(round(by.sum())), int(round(bz.sum()))
    py, pz = by / by.sum(), bz / bz.sum()
    if scenario.covariate_coupling:
        two_x = 2.0 * np.asarray(scenario.covariates, dtype=float)
    c_study = _study_level(scenario)
    degenerate = 0
    for rep in range(scenario.n_replicates):
        rng = derive_rng(scenario.seed, 1, rep)
        c = c_study if c_study is not None else _ascertainment(scenario, rng)
        y0, bad_y = _draw_counts(rng, ny, py)
        z0, bad_z = _draw_counts(rng, nz, pz)
        if bad_y or bad_z:
            degenerate += 1
            _check_degenerate_limit(scenario, degenerate, rep)
            yield rep, None, None, None
            continue
        if scenario.covariate_coupling:
            y0 = y0 * two_x
            z0 = z0 / two_x
        arms = sample_assignment(scheme, rng)
        treated = arms == 1
        yield (
            rep,
            arms,
            np.where(treated, scenario.lam * c * y0, y0),
            np.where(treated, c * z0, z0),
        )


def _wedge_draws(
    scenario: SimScenario,
) -> Iterator[tuple[int, np.ndarray | None, np.ndarray | None, np.ndarray | None]]:
    """Replicates of a stepped-wedge scenario as ``(rep, start, y, z)`` arrays.

    Per period, control counts come from multinomials over the period's
    baseline proportions; test-negative totals are the study total
    scaled by the period's share of test-positives.  Ascertainment is a
    full (m, T) draw, independent across cells.  Cell (i, t) is treated
    from ``start[i]`` on and then takes ``lam * c * y0`` and ``c * z0``,
    as :class:`PeriodPotentialTable` defines them.  Degenerate
    replicates yield ``(rep, None, None, None)``.
    """
    if not scenario.is_stepped_wedge:
        raise ValueError("scenario has a parallel design")
    scheme: SteppedWedgeScheme = scenario.design
    by = np.asarray(scenario.baseline_y, dtype=float)  # (m, T)
    bz = np.asarray(scenario.baseline_z, dtype=float)  # (m,)
    n_t_y = by.sum(axis=0)
    # test-negative totals follow the period share of test-positives
    n_t_z = np.maximum(1, np.round(bz.sum() * n_t_y / n_t_y[-1])).astype(int)
    pz = bz / bz.sum()
    cells = [
        (int(round(n_t_y[t])), by[:, t] / n_t_y[t], int(n_t_z[t]))
        for t in range(scheme.n_periods)
    ]
    tgrid = np.arange(1, scheme.n_periods + 1)
    c_study = _study_level(scenario)
    degenerate = 0
    for rep in range(scenario.n_replicates):
        rng = derive_rng(scenario.seed, 1, rep)
        c = c_study if c_study is not None else _ascertainment(scenario, rng)
        y0 = np.empty_like(by)
        z0 = np.empty_like(by)
        bad = False
        for t, (ny, py, nz) in enumerate(cells):
            yt, bad_y = _draw_counts(rng, ny, py)
            zt, bad_z = _draw_counts(rng, nz, pz)
            y0[:, t], z0[:, t] = yt, zt
            bad = bad or bad_y or bad_z
        if bad:
            degenerate += 1
            _check_degenerate_limit(scenario, degenerate, rep)
            yield rep, None, None, None
            continue
        start = sample_assignment(scheme, rng)
        treated = tgrid[None, :] >= start[:, None]
        yield (
            rep,
            start,
            np.where(treated, scenario.lam * c * y0, y0),
            np.where(treated, c * z0, z0),
        )


def simulate_parallel(
    scenario: SimScenario,
) -> Iterator[tuple[int, list[ClusterRecord] | None]]:
    """Stream of simulated parallel-arm datasets, one per replicate.

    Yields ``(index, records)``; degenerate replicates (a cluster count
    stuck at zero after redraws) yield ``None`` and raise
    :class:`DegenerateReplicateLimit` if they exceed 1 percent overall.
    """
    x = scenario.covariates
    for rep, arms, y, z in _parallel_draws(scenario):
        if arms is None:
            yield rep, None
            continue
        observed = PotentialTable(
            lam=1.0, y0=y, z0=z, c=np.ones_like(y), covariates=x
        )
        yield rep, realize(observed, arms)


def simulate_stepped_wedge(
    scenario: SimScenario,
) -> Iterator[tuple[int, Panel | None]]:
    """Stream of simulated stepped-wedge panels, one per replicate.

    The panels of :func:`_wedge_draws`; degenerate replicates yield
    ``None``.
    """
    for rep, start, y, z in _wedge_draws(scenario):
        if start is None:
            yield rep, None
            continue
        observed = PeriodPotentialTable(lam=1.0, y0=y, z0=z, c=np.ones_like(y))
        yield rep, realize(observed, start)


# --------------------------------------------------------------------- #
# Metric aggregation
# --------------------------------------------------------------------- #


class _Tally:
    def __init__(self):
        self.estimates: list[float] = []
        self.ses: list[float] = []
        self.covered = 0
        self.n_cover = 0
        self.reject_normal = 0
        self.n_normal = 0
        self.reject_perm = 0
        self.n_perm = 0
        self.dropped: Counter[str] = Counter()

    def add_perm(self, p: float, alpha: float) -> None:
        """Tally one permutation test with two-sided p-value ``p``."""
        self.reject_perm += p <= alpha
        self.n_perm += 1

    def row(self, scenario: SimScenario, name: str) -> MetricsRow:
        est = np.asarray(self.estimates)
        n_eff = est.size
        log_lam = math.log(scenario.lam)
        return MetricsRow(
            scenario_id=scenario.scenario_id,
            estimator=name,
            lam=scenario.lam,
            n_replicates=scenario.n_replicates,
            n_effective=n_eff,
            bias=float(est.mean() - log_lam) if n_eff else float("nan"),
            se=float(est.std(ddof=1)) if n_eff >= 2 else float("nan"),
            ase=float(np.mean(self.ses)) if self.ses else None,
            por_normal=(
                self.reject_normal / self.n_normal if self.n_normal else None
            ),
            por_perm=self.reject_perm / self.n_perm if self.n_perm else None,
            cp=self.covered / self.n_cover if self.n_cover else None,
            dropped=dict(sorted(self.dropped.items())),
        )


def evaluate(
    scenario: SimScenario,
    estimators: Sequence[str] | None = None,
    *,
    permutation_por: bool = True,
    perm_draws: int = 999,
    keep_estimates: bool = False,
) -> list[MetricsRow] | tuple[list[MetricsRow], dict]:
    """Run all replicates, apply each estimator, and aggregate metrics.

    Replicates where an estimator fails (for example the fraction
    statistic falling outside its attainable range) are excluded from
    that estimator's estimates and counted through ``n_effective``; each
    row's ``dropped`` counts them by reason ("degenerate" or the error
    class).  ``permutation_por`` adds a Monte Carlo randomization-test
    rejection rate of the no-effect null (``perm_draws`` relabelings per
    replicate, shared across estimators).  A stepped-wedge design that
    leaves fewer than 2 clusters on one side of an analysis period
    raises :class:`ArmTooSmall` before any replicate is drawn.

    Replicates run on arrays, one at a time: records and panels are
    never built, and what the design fixes is computed once per run.
    """
    if scenario.is_stepped_wedge:
        out = _evaluate_sw(scenario, estimators, permutation_por, perm_draws)
    else:
        out = _evaluate_parallel(scenario, estimators, permutation_por, perm_draws)
    rows, raw = out
    if keep_estimates:
        return rows, raw
    return rows


def _evaluate_parallel(scenario, estimators, permutation_por, perm_draws):
    names = tuple(estimators) if estimators is not None else PARALLEL_ESTIMATORS
    unknown = set(names) - set(PARALLEL_ESTIMATORS)
    if unknown:
        raise ValueError(f"unknown parallel estimators: {sorted(unknown)}")
    if "covariate_adjusted" in names and scenario.covariates is None:
        raise ValueError("covariate_adjusted requires scenario covariates")
    scheme: ParallelScheme = scenario.design
    alpha = scenario.alpha
    lam_true = scenario.lam
    tallies = {name: _Tally() for name in names}
    raw: dict[str, list] = {name: [] for name in names}
    if "covariate_adjusted" in tallies:
        x = np.asarray(scenario.covariates, dtype=float)
        x = x[:, None] if x.ndim == 1 else x
    or_rows = None
    if "odds_ratio" in tallies and not permutation_por:
        # the SE's relabelings come from a fixed-seed stream: draw them once
        or_rows = _odds_ratio_relabelings(scheme, perm_draws, scenario.seed).rows()

    for rep, arms, y, z in _parallel_draws(scenario):
        if arms is None:
            for t in tallies.values():
                t.dropped["degenerate"] += 1
            continue
        treated = arms.astype(bool)
        rows = None
        if permutation_por:
            rz = randomize(scheme, "monte_carlo", perm_draws, (scenario.seed, 3, rep))
            rows = rz.rows()
        if "log_contrast" in tallies or "covariate_adjusted" in tallies:
            lvals = np.array(
                [math.log(yi) - math.log(zi) for yi, zi in zip(y.tolist(), z.tolist())]
            )

        if "log_contrast" in tallies:
            t = tallies["log_contrast"]
            est, se = _log_contrast_arrays(lvals, treated)
            _tally_from_values(t, est, se, lam_true, alpha)
            raw["log_contrast"].append(est)
            if rows is not None:
                draws = _diff_means_rows(lvals, rows, scheme.m1)
                # null lam0=1: deviation is the estimate
                t.add_perm(rz.p(_two_sided_count(draws, est)), alpha)
        if "covariate_adjusted" in tallies:
            est, se, _, _ = _covariate_adjusted_arrays(lvals, treated, x)
            _tally_from_values(tallies["covariate_adjusted"], est, se, lam_true, alpha)
            raw["covariate_adjusted"].append(est)
        if "odds_ratio" in tallies:
            t = tallies["odds_ratio"]
            log_or = _odds_ratio_log_arrays(y, z, treated)
            # the relabelings of the permutation column give the SE too
            draws = odds_ratio_permutation_draws(
                y, z, rows if rows is not None else or_rows
            )
            _tally_from_values(t, log_or, _permutation_se(draws), lam_true, alpha)
            raw["odds_ratio"].append(log_or)
            if rows is not None:
                t.add_perm(rz.p(_two_sided_count(draws, log_or)), alpha)
        if "tpf" in tallies:
            t = tallies["tpf"]
            try:
                est = math.log(tpf_solve(*_tpf_statistic_arrays(y, z, treated)))
                t.estimates.append(est)
                raw["tpf"].append(est)
            except NoAdmissibleRoot as exc:
                raw["tpf"].append(float("nan"))
                t.dropped[type(exc).__name__] += 1
            if rows is not None:
                fr = y / (y + z)
                t_obs = float(fr[treated].mean() - fr[~treated].mean())
                draws = _diff_means_rows(fr, rows, scheme.m1)
                t.add_perm(rz.p(_two_sided_count(draws, t_obs)), alpha)

    return [tallies[name].row(scenario, name) for name in names], raw


def _tally_from_values(t, log_est, se, lam_true, alpha):
    t.estimates.append(log_est)
    if se is None:
        return
    t.ses.append(se)
    p, _ = _two_sided_p(log_est, se, abs(log_est))
    t.reject_normal += p <= alpha
    t.n_normal += 1
    zq = _z_quantile(alpha)
    lo, hi = log_est - zq * se, log_est + zq * se
    t.covered += lo <= math.log(lam_true) <= hi
    t.n_cover += 1


def _tally_weighted(t, w, diffs, sigma, lam_true, alpha) -> float:
    """Tally the weighted stepped-wedge estimate ``w . diffs``; return it."""
    est = float(w @ diffs)
    se = math.sqrt(max(float(w @ sigma @ w), 0.0))
    _tally_from_values(t, est, se, lam_true, alpha)
    return est


def _evaluate_sw(scenario, estimators, permutation_por, perm_draws):
    names = tuple(estimators) if estimators is not None else SW_ESTIMATORS
    unknown = set(names) - set(SW_ESTIMATORS)
    if unknown:
        raise ValueError(f"unknown stepped-wedge estimators: {sorted(unknown)}")
    alpha = scenario.alpha
    lam_true = scenario.lam
    log_lam = math.log(lam_true)
    tallies = {name: _Tally() for name in names}
    raw: dict[str, list] = {name: [] for name in names}

    # every replicate's starts permute the scheme's multiset, so the
    # analysis periods, m_t, the Sigma scale and equal weights are fixed
    scheme: SteppedWedgeScheme = scenario.design
    tgrid = np.arange(1, scheme.n_periods + 1)
    periods, m_t, dropped = _design(np.repeat(tgrid, scheme.q), scheme.n_periods)
    _warn_dropped(dropped)
    _check_arms(scheme.m, m_t, periods)
    scale = _scale_matrix(scheme.m, m_t, periods, "canonical")
    w_equal = np.asarray(equal_weights(periods).w)

    for rep, start, y, z in _wedge_draws(scenario):
        if start is None:
            for t in tallies.values():
                t.dropped["degenerate"] += 1
            continue
        lmat = np.log(y) - np.log(z)
        sigma_hat, _ = _plugin_sigma(lmat, start, periods, m_t, scale)
        diffs = _period_differences(lmat, start, periods, m_t)
        if "sw_equal" in tallies:
            est = _tally_weighted(
                tallies["sw_equal"], w_equal, diffs, sigma_hat, lam_true, alpha
            )
            raw["sw_equal"].append(est)
        if "sw_optimal" in tallies:
            # weights from the exactly computable truth-imputed covariance
            treated = tgrid[None, :] >= start[:, None]
            sigma_true, _ = _null_sigma(lmat - log_lam * treated, periods, scale)
            try:
                wts = optimal_weights(
                    sigma_true, periods=periods, kind="optimal_oracle"
                )
                w_opt = np.asarray(wts.w)
            except SingularCovariance:
                w_opt = w_equal
            est = _tally_weighted(
                tallies["sw_optimal"], w_opt, diffs, sigma_hat, lam_true, alpha
            )
            raw["sw_optimal"].append(est)
        if permutation_por:
            # one set of re-randomized starts per replicate, shared by
            # both weightings; at lam0 = 1 the imputed L(0) is lmat itself
            seed = int(derive_rng(scenario.seed, 3, rep).integers(2**31))
            rz = randomize(scheme, "monte_carlo", perm_draws, (seed, 0x5E))
            d_rows = _period_diff_rows(lmat, rz.rows(), periods, m_t)
            d_obs = _period_diff_rows(lmat, start[None, :], periods, m_t)
            for name in names:
                w = (
                    w_equal
                    if name == "sw_equal"
                    else _null_weights(lmat, "optimal", periods, scale)
                )
                two = _two_sided_count(d_rows @ w, float((d_obs @ w)[0]))
                tallies[name].add_perm(rz.p(two), alpha)

    return [tallies[name].row(scenario, name) for name in names], raw


def replicate_ascertainment_sweep(
    scenario: SimScenario,
    n_configs: int = 100,
    estimators: Sequence[str] | None = None,
    *,
    permutation_por: bool = False,
    perm_draws: int = 999,
) -> list[MetricsRow]:
    """Repeat the parallel study across fresh ascertainment configurations.

    Each configuration draws a new fixed set of relative ascertainments
    and a fresh data seed, then runs the full metric evaluation; the
    per-configuration rows (tagged with the configuration index in the
    scenario id) describe the spread of bias and coverage attributable
    to the latent ascertainment pattern.
    """
    if scenario.is_stepped_wedge:
        raise ValueError("the ascertainment sweep is defined for parallel scenarios")
    out: list[MetricsRow] = []
    for k in range(n_configs):
        rng = derive_rng(scenario.seed, 2, k)
        c = _ascertainment(
            replace(scenario, ascertainment_values=None), rng
        )
        child_seed = int(rng.integers(2**31))
        child = replace(
            scenario,
            scenario_id=f"{scenario.scenario_id}/config{k:03d}",
            ascertainment_values=tuple(float(v) for v in c),
            seed=child_seed,
        )
        out.extend(
            evaluate(
                child,
                estimators,
                permutation_por=permutation_por,
                perm_draws=perm_draws,
            )
        )
    return out
