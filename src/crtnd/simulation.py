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
from dataclasses import dataclass, replace
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
    realize,
    sample_assignment,
    sample_assignments,
)
from .errors import (
    CrtndError,
    DegenerateReplicateLimit,
    NoAdmissibleRoot,
    SingularCovariance,
)
from .estimators import (
    covariate_adjusted_estimate,
    log_contrast_estimate,
    odds_ratio_estimate,
    odds_ratio_log,
    odds_ratio_permutation_draws,
    tpf_estimate,
    _z_quantile,
)
from .inference import _diff_means_rows, _tail_counts, _two_sided_p
from .stepped_wedge import (
    equal_weights,
    optimal_weights,
    sw_covariance_estimate,
    sw_log_contrast,
    sw_null_covariance,
    sw_permutation_test,
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
        if self.covariate_coupling and self.covariates is None:
            raise ValueError("covariate_coupling requires covariates")
        if self.ascertainment_values is not None:
            c = np.asarray(self.ascertainment_values, dtype=float)
            expected = (m, self.design.n_periods) if self.is_stepped_wedge else (m,)
            if c.shape != expected:
                raise ValueError(
                    f"ascertainment_values must have shape {expected}, got {c.shape}"
                )
            if np.any(c <= 0):
                raise ValueError("ascertainment values must be > 0")

    @property
    def is_stepped_wedge(self) -> bool:
        return isinstance(self.design, SteppedWedgeScheme)


@dataclass
class MetricsRow:
    """Aggregated performance of one estimator over a scenario's replicates.

    bias, se, and ase are on the log scale; por_* are rejection
    frequencies of the no-effect null at the scenario alpha; cp is the
    coverage of the nominal Normal confidence interval.
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


def simulate_parallel(
    scenario: SimScenario,
) -> Iterator[tuple[int, list[ClusterRecord] | None]]:
    """Stream of simulated parallel-arm datasets, one per replicate.

    Yields ``(index, records)``; degenerate replicates (a cluster count
    stuck at zero after redraws) yield ``None`` and raise
    :class:`DegenerateReplicateLimit` if they exceed 1 percent overall.
    """
    if scenario.is_stepped_wedge:
        raise ValueError("scenario has a stepped-wedge design")
    scheme: ParallelScheme = scenario.design
    by = np.asarray(scenario.baseline_y, dtype=float)
    bz = np.asarray(scenario.baseline_z, dtype=float)
    ny, nz = int(round(by.sum())), int(round(bz.sum()))
    py, pz = by / by.sum(), bz / bz.sum()
    x = (
        np.asarray(scenario.covariates, dtype=float)
        if scenario.covariates is not None
        else None
    )
    c_study = (
        _ascertainment(scenario, derive_rng(scenario.seed, 0))
        if scenario.draw_policy == "once_per_study"
        else None
    )
    degenerate = 0
    for rep in range(scenario.n_replicates):
        rng = derive_rng(scenario.seed, 1, rep)
        c = c_study if c_study is not None else _ascertainment(scenario, rng)
        y0, bad_y = _draw_counts(rng, ny, py)
        z0, bad_z = _draw_counts(rng, nz, pz)
        if bad_y or bad_z:
            degenerate += 1
            if degenerate > max(1, scenario.n_replicates // 100):
                raise DegenerateReplicateLimit(
                    f"{degenerate} degenerate replicates out of {rep + 1}"
                )
            yield rep, None
            continue
        if scenario.covariate_coupling:
            y0 = y0 * (2.0 * x)
            z0 = z0 / (2.0 * x)
        table = PotentialTable(
            lam=scenario.lam,
            y0=y0,
            z0=z0,
            c=c,
            covariates=x if x is not None else None,
        )
        assignment = sample_assignment(scheme, rng)
        yield rep, realize(table, assignment)


def simulate_stepped_wedge(
    scenario: SimScenario,
) -> Iterator[tuple[int, Panel | None]]:
    """Stream of simulated stepped-wedge panels, one per replicate.

    Per period, control counts come from multinomials over the period's
    baseline proportions; test-negative totals are the study total
    scaled by the period's share of test-positives.  Ascertainment is a
    full (m, T) draw, independent across cells.
    """
    if not scenario.is_stepped_wedge:
        raise ValueError("scenario has a parallel design")
    scheme: SteppedWedgeScheme = scenario.design
    by = np.asarray(scenario.baseline_y, dtype=float)  # (m, T)
    bz = np.asarray(scenario.baseline_z, dtype=float)  # (m,)
    n_t_y = by.sum(axis=0)
    nz_total = bz.sum()
    # test-negative totals follow the period share of test-positives
    n_t_z = np.maximum(1, np.round(nz_total * n_t_y / n_t_y[-1])).astype(int)
    pz = bz / bz.sum()
    c_study = (
        _ascertainment(scenario, derive_rng(scenario.seed, 0))
        if scenario.draw_policy == "once_per_study"
        else None
    )
    degenerate = 0
    for rep in range(scenario.n_replicates):
        rng = derive_rng(scenario.seed, 1, rep)
        c = c_study if c_study is not None else _ascertainment(scenario, rng)
        y0 = np.empty_like(by)
        z0 = np.empty_like(by)
        bad = False
        for t in range(scheme.n_periods):
            yt, bad_y = _draw_counts(rng, int(round(n_t_y[t])), by[:, t] / n_t_y[t])
            zt, bad_z = _draw_counts(rng, int(n_t_z[t]), pz)
            y0[:, t], z0[:, t] = yt, zt
            bad = bad or bad_y or bad_z
        if bad:
            degenerate += 1
            if degenerate > max(1, scenario.n_replicates // 100):
                raise DegenerateReplicateLimit(
                    f"{degenerate} degenerate replicates out of {rep + 1}"
                )
            yield rep, None
            continue
        table = PeriodPotentialTable(lam=scenario.lam, y0=y0, z0=z0, c=c)
        assignment = sample_assignment(scheme, rng)
        yield rep, realize(table, assignment)


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
        )


def _mc_reject(count: int, n_draws: int, alpha: float) -> bool:
    return (1 + count) / (1 + n_draws) <= alpha


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
    that estimator's estimates and counted through ``n_effective``.
    ``permutation_por`` adds a Monte Carlo randomization-test rejection
    rate of the no-effect null (``perm_draws`` relabelings per
    replicate, shared across estimators).
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

    for rep, records in simulate_parallel(scenario):
        if records is None:
            continue
        rows = None
        if permutation_por:
            rng_p = derive_rng(scenario.seed, 3, rep)
            rows = sample_assignments(scheme, perm_draws, rng_p).astype(np.int8)

        if "log_contrast" in tallies:
            t = tallies["log_contrast"]
            rep_est = log_contrast_estimate(records, alpha=alpha)
            _tally_normal(t, rep_est, lam_true, alpha)
            raw["log_contrast"].append(rep_est.log_estimate)
            if rows is not None:
                lvals = np.array(
                    [math.log(r.y_count) - math.log(r.z_count) for r in records]
                )
                draws = _diff_means_rows(lvals, rows, scheme.m1)
                obs = rep_est.log_estimate  # null lam0=1: deviation is the estimate
                two, _, _ = _tail_counts(draws, obs)
                t.reject_perm += _mc_reject(two, perm_draws, alpha)
                t.n_perm += 1
        if "covariate_adjusted" in tallies:
            t = tallies["covariate_adjusted"]
            rep_est, _ = covariate_adjusted_estimate(records, alpha=alpha)
            _tally_normal(t, rep_est, lam_true, alpha)
            raw["covariate_adjusted"].append(rep_est.log_estimate)
        if "odds_ratio" in tallies:
            t = tallies["odds_ratio"]
            if rows is not None:
                # reuse the shared relabelings for the dispersion SE
                y = np.array([r.y_count for r in records])
                z = np.array([r.z_count for r in records])
                log_or = odds_ratio_log(records)
                draws = odds_ratio_permutation_draws(y, z, rows)
                finite = draws[np.isfinite(draws)]
                se = float(np.std(finite, ddof=1))
                _tally_from_values(t, log_or, se, lam_true, alpha)
                raw["odds_ratio"].append(log_or)
                two, _, _ = _tail_counts(draws, log_or)
                t.reject_perm += _mc_reject(two, perm_draws, alpha)
                t.n_perm += 1
            else:
                rep_est = odds_ratio_estimate(
                    records, alpha=alpha, se_draws=perm_draws, seed=scenario.seed
                )
                _tally_normal(t, rep_est, lam_true, alpha)
                raw["odds_ratio"].append(rep_est.log_estimate)
        if "tpf" in tallies:
            t = tallies["tpf"]
            try:
                rep_est = tpf_estimate(records, alpha=alpha)
                t.estimates.append(rep_est.log_estimate)
                raw["tpf"].append(rep_est.log_estimate)
            except NoAdmissibleRoot:
                raw["tpf"].append(float("nan"))
            if rows is not None:
                fr = np.array(
                    [r.y_count / (r.y_count + r.z_count) for r in records]
                )
                arms = np.array([r.arm for r in records], dtype=bool)
                t_obs = float(fr[arms].mean() - fr[~arms].mean())
                draws = _diff_means_rows(fr, rows, scheme.m1)
                two, _, _ = _tail_counts(draws, t_obs)
                t.reject_perm += _mc_reject(two, perm_draws, alpha)
                t.n_perm += 1

    return [tallies[name].row(scenario, name) for name in names], raw


def _tally_normal(t: _Tally, report, lam_true: float, alpha: float) -> None:
    _tally_from_values(t, report.log_estimate, report.se_log, lam_true, alpha)


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


def _evaluate_sw(scenario, estimators, permutation_por, perm_draws):
    names = tuple(estimators) if estimators is not None else SW_ESTIMATORS
    unknown = set(names) - set(SW_ESTIMATORS)
    if unknown:
        raise ValueError(f"unknown stepped-wedge estimators: {sorted(unknown)}")
    alpha = scenario.alpha
    lam_true = scenario.lam
    tallies = {name: _Tally() for name in names}
    raw: dict[str, list] = {name: [] for name in names}

    for rep, panel in simulate_stepped_wedge(scenario):
        if panel is None:
            continue
        try:
            cov_hat = sw_covariance_estimate(panel)
        except CrtndError:
            continue
        if "sw_equal" in tallies:
            report = sw_log_contrast(panel, "equal", covariance=cov_hat, alpha=alpha)
            _tally_normal(tallies["sw_equal"], report, lam_true, alpha)
            raw["sw_equal"].append(report.log_estimate)
        if "sw_optimal" in tallies:
            # weights from the exactly computable truth-imputed covariance
            cov_true = sw_null_covariance(panel, lam_true)
            try:
                wts = optimal_weights(cov_true, kind="optimal_oracle")
            except SingularCovariance:
                wts = equal_weights(cov_true.periods)
            report = sw_log_contrast(panel, wts, covariance=cov_hat, alpha=alpha)
            _tally_normal(tallies["sw_optimal"], report, lam_true, alpha)
            raw["sw_optimal"].append(report.log_estimate)
        if permutation_por:
            for name in names:
                weights = "equal" if name == "sw_equal" else "optimal"
                result = sw_permutation_test(
                    panel,
                    1.0,
                    weights,
                    mode="monte_carlo",
                    n_draws=perm_draws,
                    seed=int(derive_rng(scenario.seed, 3, rep).integers(2**31)),
                )
                tallies[name].reject_perm += result.p_two_sided <= alpha
                tallies[name].n_perm += 1

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
