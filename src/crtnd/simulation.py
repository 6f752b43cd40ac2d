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
available for sensitivity runs.  Replicates come in chunks of
:data:`_CHUNK`, each drawn whole from one counter-derived stream
``(seed, 4, rep // _CHUNK)``: a replicate's data do not depend on how
many replicates run or in what order, so outputs are byte-identical
across runs.

:func:`evaluate` evaluates blocks of :data:`_BLOCK` replicates as they
are drawn: each estimator and its SE run as a few array passes over the
block's (replicates, clusters) stacks, and the permutation column's
(replicates, draws) stacks per chunk.  The replicates of a block share
one set of permutation relabelings, and the stepped wedge's chunks its
start masks.  A chunk's relabeled statistics come from the kernels a
single dataset's test calls (``_diff_means_rows``,
``odds_ratio_permutation_draws``, ``_period_contrasts``), given the
chunk's stack for a vector, and are written into (_CHUNK, draws) work
arrays that one run allocates once.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .core import (
    _BLOCK_BYTES,
    Panel,
    ParallelScheme,
    SteppedWedgeScheme,
    Trial,
    _log_ratio,
    derive_rng,
    randomize,
    sample_assignments,
)
from .errors import DegenerateReplicateLimit
from .estimators import (
    _arm_split,
    _arm_totals,
    _check_ols_arms,
    _check_variance_arms,
    _log_contrast_rows,
    _log_odds_ratios,
    _odds_ratio_relabelings,
    _permutation_ses,
    _pooled_ols,
    _row_dot,
    _tpf_roots,
    _tpf_rows,
    _z_quantile,
    odds_ratio_permutation_draws,
)
from .inference import _diff_means_rows, _two_sided_count
from .stepped_wedge import (
    _block_masks,
    _check_arms,
    _null_sigma,
    _null_weights,
    _optimal_rows,
    _period_contrasts,
    _period_differences,
    _plugin_sigma,
    _scale_matrix,
    _warn_dropped,
    equal_weights,
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

# Replicates drawn from one stream, and replicates evaluated together
# sharing one set of permutation relabelings: a new value changes every
# output, or por_perm and the odds ratio's SE metrics.  A (_CHUNK, 999)
# stack of permutation draws is 1/32 of the block budget.
_CHUNK = _BLOCK_BYTES // (32 * 8 * 1024)
_BLOCK = 4 * _CHUNK


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
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be a finite positive real, got {self.lam}")
        if not 0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if self.n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        if self.draw_policy not in ("once_per_study", "per_replicate"):
            raise ValueError(f"unknown draw_policy {self.draw_policy!r}")
        m = self.design.m
        by = np.asarray(self.baseline_y, dtype=float)
        if self.is_stepped_wedge:
            if by.shape != (m, self.design.n_periods):
                raise ValueError(
                    f"stepped-wedge baseline_y must be (m, T) = "
                    f"({m}, {self.design.n_periods}), got {by.shape}"
                )
        elif by.shape != (m,):
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
    ``weight_fallbacks`` counts the replicates whose optimal weights
    fell back to equal weights: those of ``sw_optimal`` whose
    truth-imputed covariance failed the condition check.
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
    weight_fallbacks: int = 0

    def to_dict(self) -> dict:
        """The row's fields but the counts of ``dropped`` and
        ``weight_fallbacks``, in field order."""
        return {k: v for k, v in asdict(self).items()
                if k not in ("dropped", "weight_fallbacks")}


# --------------------------------------------------------------------- #
# Data generation
# --------------------------------------------------------------------- #


def _draw_counts(
    rng: np.random.Generator, cells: Sequence[tuple[int, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """A chunk's (_CHUNK, m, cells) counts, cell k of each replicate a
    ``multinomial(n_k, p_k)`` draw, and which replicates are degenerate.

    Zero cells are re-drawn from their binomial margins, all of the
    chunk's at once, up to 100 times each; a replicate with a cell still
    at zero is degenerate.
    """
    counts = np.stack([rng.multinomial(n, p, size=_CHUNK) for n, p in cells], axis=-1)
    counts = counts.astype(float)
    n = np.broadcast_to([n for n, _ in cells], counts.shape)
    p = np.broadcast_to(np.stack([p for _, p in cells], axis=-1), counts.shape)
    zero = counts == 0
    for _ in range(100):
        if not zero.any():
            break
        counts[zero] = rng.binomial(n[zero], p[zero])
        zero = counts == 0
    return counts, zero.any(axis=(1, 2))


def _ascertainment(scenario: SimScenario, rng: np.random.Generator, *lead: int) -> np.ndarray:
    """The relative ascertainments, (*lead, m) or (*lead, m, T)."""
    if scenario.ascertainment_values is not None:
        return np.asarray(scenario.ascertainment_values, dtype=float)
    shape = (*lead, scenario.design.m)
    if scenario.is_stepped_wedge:
        shape += (scenario.design.n_periods,)
    c = rng.beta(scenario.ascertainment_a, scenario.ascertainment_b, size=shape)
    return np.clip(c, 1e-12, None)


def study_ascertainment(scenario: SimScenario) -> np.ndarray:
    """The study-level ascertainment draw (stream 0 of the scenario seed)."""
    return _ascertainment(scenario, derive_rng(scenario.seed, 0))


def _covariates(scenario: SimScenario) -> np.ndarray | None:
    x = scenario.covariates
    return None if x is None else np.asarray(x, dtype=float).reshape(scenario.design.m, -1)


def generation_plan() -> dict:
    """How :func:`evaluate` draws the replicates, for a report."""
    return {"replicates_per_stream": _CHUNK, "replicates_per_block": _BLOCK,
            "stream": f"(seed, 4, rep // {_CHUNK})"}


def _chunked(scenario: SimScenario, draw) -> Iterator[tuple[np.ndarray, ...]]:
    """The replicates of ``scenario`` in chunks of :data:`_CHUNK`, as
    ``(reps, ok, assignments, y, z)``: the chunk's replicate indices, the
    mask of its nondegenerate ones, and the arrays stacked over it.

    Chunk ``g`` comes whole from the stream ``rng = derive_rng(seed, 4,
    g)``: its ascertainments (under the per-replicate policy), then
    ``draw(rng, c) -> (degenerate, assignments, y, z)``.  The last chunk
    is cut to the replicates asked for, so replicate k's data do not
    depend on ``n_replicates``.  More than 1 percent of degenerate
    replicates raise :class:`DegenerateReplicateLimit`, at the replicate
    that passes the limit.
    """
    per_study = scenario.draw_policy == "once_per_study"
    c = study_ascertainment(scenario) if per_study else None
    degenerate = 0
    for first in range(0, scenario.n_replicates, _CHUNK):
        rng = derive_rng(scenario.seed, 4, first // _CHUNK)
        bad, *arrays = draw(rng, c if per_study else _ascertainment(scenario, rng, _CHUNK))
        n = min(_CHUNK, scenario.n_replicates - first)
        reps = np.arange(first, first + n)
        for rep in reps[bad[:n]].tolist():
            degenerate += 1
            if degenerate > max(1, scenario.n_replicates // 100):
                raise DegenerateReplicateLimit(
                    f"{degenerate} degenerate replicates out of {rep + 1}")
        yield reps, ~bad[:n], *(a[:n] for a in arrays)


def simulate_parallel(scenario: SimScenario) -> Iterator[tuple[int, Trial | None]]:
    """Stream of simulated parallel-arm trials, one per replicate.

    Yields ``(index, trial)``: the trials of :func:`_parallel_draws`,
    with clusters named ``c01, c02, ...``; a degenerate replicate yields
    ``None``.
    """
    ids = tuple(f"c{i + 1:02d}" for i in range(scenario.design.m))
    x = _covariates(scenario)
    for reps, ok, *arrays in _parallel_draws(scenario):
        for rep, keep, treated, y, z in zip(reps.tolist(), ok, *arrays):
            yield rep, Trial(ids, treated, y, z, x) if keep else None


def _parallel_draws(scenario: SimScenario) -> Iterator[tuple[np.ndarray, ...]]:
    """Chunks of a parallel scenario (:func:`_chunked`), whose
    assignments are the treated masks.

    After its ascertainments, a chunk draws its test-positive and
    test-negative multinomials and then its arm splits.  Treated
    clusters take ``lam * c * y0`` and ``c * z0``, as
    :class:`PotentialTable` defines them.
    """
    if scenario.is_stepped_wedge:
        raise ValueError("scenario has a stepped-wedge design")
    by, bz = (np.asarray(b, dtype=float) for b in (scenario.baseline_y, scenario.baseline_z))
    cells = [(int(round(b.sum())), b / b.sum()) for b in (by, bz)]
    two_x = 1.0
    if scenario.covariate_coupling:
        two_x = 2.0 * np.asarray(scenario.covariates, dtype=float)

    def draw(rng, c):
        counts, bad = _draw_counts(rng, cells)
        y0, z0 = counts[..., 0] * two_x, counts[..., 1] / two_x
        treated = sample_assignments(scenario.design, _CHUNK, rng) == 1
        y = np.where(treated, scenario.lam * c * y0, y0)
        return bad, treated, y, np.where(treated, c * z0, z0)

    return _chunked(scenario, draw)


def _wedge_draws(scenario: SimScenario) -> Iterator[tuple[np.ndarray, ...]]:
    """Chunks of a stepped-wedge scenario (:func:`_chunked`), whose
    assignments are the start periods.

    Per period, control counts come from multinomials over the period's
    baseline proportions; test-negative totals are the study total
    scaled by the period's share of test-positives.  Ascertainment is a
    full (m, T) draw, independent across cells.  Cell (i, t) is treated
    from ``start[i]`` on and then takes ``lam * c * y0`` and ``c * z0``,
    as :class:`PeriodPotentialTable` defines them.
    """
    if not scenario.is_stepped_wedge:
        raise ValueError("scenario has a parallel design")
    scheme: SteppedWedgeScheme = scenario.design
    by = np.asarray(scenario.baseline_y, dtype=float)  # (m, T)
    bz = np.asarray(scenario.baseline_z, dtype=float)  # (m,)
    n_t_y = by.sum(axis=0)
    # test-negative totals follow the period share of test-positives
    n_t_z = np.maximum(1, np.round(bz.sum() * n_t_y / n_t_y[-1])).astype(int)
    cells = [(int(round(n)), col / n) for n, col in zip(n_t_y, by.T)]
    cells += [(int(n), bz / bz.sum()) for n in n_t_z]
    n_periods = scheme.n_periods
    tgrid = np.arange(1, n_periods + 1)

    def draw(rng, c):
        counts, bad = _draw_counts(rng, cells)
        y0, z0 = counts[..., :n_periods], counts[..., n_periods:]
        start = sample_assignments(scheme, _CHUNK, rng)
        treated = tgrid >= start[:, :, None]
        y = np.where(treated, scenario.lam * c * y0, y0)
        return bad, start, y, np.where(treated, c * z0, z0)

    return _chunked(scenario, draw)


def simulate_stepped_wedge(
    scenario: SimScenario,
) -> Iterator[tuple[int, Panel | None]]:
    """Stream of simulated stepped-wedge panels, one per replicate.

    The panels of :func:`_wedge_draws`; degenerate replicates yield
    ``None``.
    """
    ids = tuple(f"c{i + 1:02d}" for i in range(scenario.design.m))
    for reps, ok, *arrays in _wedge_draws(scenario):
        for rep, keep, start, y, z in zip(reps.tolist(), ok, *arrays):
            yield rep, Panel(ids, start, y, z) if keep else None


# --------------------------------------------------------------------- #
# Metric aggregation
# --------------------------------------------------------------------- #


class _Tally:
    """One estimator's running metrics; its estimates and SEs are kept as
    one float array per block."""

    def __init__(self):
        self.estimates: list[np.ndarray] = []
        self.ses: list[np.ndarray] = []
        self.covered = 0
        self.n_cover = 0
        self.reject_normal = 0
        self.n_normal = 0
        self.reject_perm = 0
        self.n_perm = 0
        self.dropped: Counter[str] = Counter()
        self.weight_fallbacks = 0

    def add_normal(self, est: np.ndarray, se: np.ndarray, lam_true: float,
                   alpha: float) -> None:
        """Tally estimates with their SEs (arrays; NaN where there is none).

        An estimate with an SE gets the Normal test of lam = 1, decided
        as :func:`crtnd.inference._two_sided_p` decides it, and the Normal
        CI's coverage of ``lam_true``.
        """
        self.estimates.append(est)
        has = ~np.isnan(se)
        est, se = est[has], se[has]
        self.ses.append(se)
        level = np.abs(est)
        tol = 1e-12 * (1.0 + level)
        # 2 Phi(-|z|) = erfc(|z| / sqrt(2)); a zero SE rejects a nonzero estimate
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (level / (se * math.sqrt(2.0))).tolist()
        p = np.array([math.erfc(v) for v in z])
        reject = np.where(se <= tol, level > tol, p <= alpha)
        self.reject_normal += int(np.count_nonzero(reject))
        self.n_normal += est.size
        zq = _z_quantile(alpha)
        log_lam = math.log(lam_true)
        covered = (est - zq * se <= log_lam) & (log_lam <= est + zq * se)
        self.covered += int(np.count_nonzero(covered))
        self.n_cover += est.size

    def add_perm(self, p, alpha: float) -> None:
        """Tally permutation tests with two-sided p-values ``p`` (an array)."""
        self.reject_perm += int(np.count_nonzero(p <= alpha))
        self.n_perm += np.size(p)

    def row(self, scenario: SimScenario, name: str) -> MetricsRow:
        est, ses = (np.concatenate(v) if v else np.empty(0) for v in (self.estimates, self.ses))
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
            ase=float(ses.mean()) if ses.size else None,
            por_normal=(
                self.reject_normal / self.n_normal if self.n_normal else None
            ),
            por_perm=self.reject_perm / self.n_perm if self.n_perm else None,
            cp=self.covered / self.n_cover if self.n_cover else None,
            dropped=dict(sorted(self.dropped.items())),
            weight_fallbacks=self.weight_fallbacks,
        )


class _Stages:
    """Wall seconds of each stage of a run, summed over its chunks."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Charge the time since the previous lap to ``stage``."""
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._last
        self._last = now


def _blocks(chunks: Iterator[tuple], tallies: dict[str, _Tally]) -> Iterator[tuple]:
    """The chunks ``(reps, ok, *arrays)`` of :func:`_chunked`, cut to their
    nondegenerate replicates and joined into blocks ``b = rep // _BLOCK``
    as ``(b, parts, reps, *arrays)``: ``parts`` are the slices of rows
    each chunk left fills.  Degenerate replicates count in every tally."""
    chunks = iter(chunks)
    while group := list(itertools.islice(chunks, _BLOCK // _CHUNK)):
        reps, ok, *arrays = (np.concatenate(column) for column in zip(*group))
        if not ok.all():
            for t in tallies.values():
                t.dropped["degenerate"] += int(np.count_nonzero(~ok))
        if ok.any():
            reps = reps[ok]
            _, first = np.unique(reps // _CHUNK, return_index=True)
            parts = [slice(lo, hi) for lo, hi in zip(first, [*first[1:], reps.size])]
            yield int(reps[0]) // _BLOCK, parts, reps, *(a[ok] for a in arrays)


def _relabeling_stream(scenario: SimScenario, b: int) -> tuple[int, ...]:
    """The stream of block ``b``'s relabelings: the replicates with one
    ``b = rep // _BLOCK`` share one set, independent of their data."""
    stream = (scenario.seed, 3, b)
    if scenario.is_stepped_wedge:  # the stepped-wedge test's own stream
        stream = (int(derive_rng(*stream).integers(2**31)), 0x5E)
    return stream


def relabeling_plan(scenario: SimScenario, perm_draws: int) -> dict:
    """How :func:`evaluate` draws the permutation column, for a report."""
    group = f"(seed, 3, rep // {_BLOCK})"
    return {"draws": perm_draws, "replicates_per_set": _BLOCK, "stream": (
        f"(s, 0x5E), s = derive_rng{group}.integers(2**31)"
        if scenario.is_stepped_wedge else group)}


def evaluate(
    scenario: SimScenario,
    estimators: Sequence[str] | None = None,
    *,
    permutation_por: bool = True,
    perm_draws: int = 999,
    keep_estimates: bool = False,
    timings: dict | None = None,
) -> list[MetricsRow] | tuple[list[MetricsRow], dict]:
    """Run all replicates, apply each estimator, and aggregate metrics.

    Replicates where an estimator fails (for example the fraction
    statistic falling outside its attainable range) are excluded from
    that estimator's estimates and counted through ``n_effective``; each
    row's ``dropped`` counts them by reason ("degenerate" or the error
    class).  ``permutation_por`` adds a Monte Carlo randomization-test
    rejection rate of the no-effect null: ``perm_draws`` relabelings per
    block of :data:`_BLOCK` replicates, shared by its replicates and
    estimators (:func:`relabeling_plan`).  What fails on the design
    fails before any replicate is drawn: a stepped wedge that leaves
    fewer than 2 clusters on one side of an analysis period, or arms
    too small for an estimator's variance, raise :class:`ArmTooSmall`.

    Replicates are drawn in chunks of :data:`_CHUNK` and evaluated on
    arrays, each block of :data:`_BLOCK` replicates in its own call
    (:func:`generation_plan`); what the design fixes is computed once per
    run.  Given a dict, ``timings`` receives the wall seconds of each
    stage summed over the blocks: "generation", the shared
    "log_contrasts" (parallel) or "plugin_covariance" (stepped wedge),
    each estimator, and "permutation" (the permutation column).
    ``keep_estimates`` adds the kept replicates' numbers ("replicate")
    and each estimator's estimates of them.
    """
    if perm_draws < 1:
        raise ValueError(f"perm_draws must be >= 1, got {perm_draws}")
    if scenario.is_stepped_wedge:
        design, known, run = "stepped-wedge", SW_ESTIMATORS, _evaluate_sw
    else:
        design, known, run = "parallel", PARALLEL_ESTIMATORS, _evaluate_parallel
    names = tuple(estimators) if estimators is not None else known
    if unknown := set(names) - set(known):
        raise ValueError(f"unknown {design} estimators: {sorted(unknown)}")
    stages = _Stages()
    rows, raw = run(scenario, names, permutation_por, perm_draws, stages)
    if timings is not None:
        timings.update(stages.seconds)
    if not keep_estimates:
        return rows
    return rows, {key: np.concatenate(v).tolist() if v else [] for key, v in raw.items()}


def _evaluate_parallel(scenario, names, permutation_por, perm_draws, stages):
    if "covariate_adjusted" in names and scenario.covariates is None:
        raise ValueError("covariate_adjusted requires scenario covariates")
    scheme: ParallelScheme = scenario.design
    m, m1 = scheme.m, scheme.m1
    m0 = m - m1
    x = _covariates(scenario)
    if "log_contrast" in names:
        _check_variance_arms(m1, m0)
    if "covariate_adjusted" in names:
        _check_ols_arms(m1, m0, x.shape[1])
    alpha = scenario.alpha
    lam_true = scenario.lam
    tallies = {name: _Tally() for name in names}
    raw = {key: [] for key in ("replicate", *names)}  # arrays per block
    # the permutation column's statistics, the odds ratio first: the mean
    # differences then take its draws' work array
    tested = [n for n in ("odds_ratio", "log_contrast", "tpf") if permutation_por and n in names]
    or_rows = None
    if "odds_ratio" in names and not permutation_por:
        # the SE's relabelings come from a fixed-seed stream: draw them once
        or_rows = _odds_ratio_relabelings(scheme, perm_draws, scenario.seed).rows()
        stages.lap("odds_ratio")

    # the kernels' chunk-sized work arrays, which every chunk writes in
    # place: the odds ratio's four arm totals or a mean difference and its
    # control means, then |T*| in the second
    work = np.empty((4, _CHUNK, perm_draws if or_rows is None else len(or_rows)))

    def block(b, parts, reps, arms, y, z):
        stages.lap("generation")
        raw["replicate"].append(reps)
        values = {}
        if "log_contrast" in names or "covariate_adjusted" in names:
            values["log_contrast"] = _log_ratio(y, z)
            l1, l0 = _arm_split(values["log_contrast"], arms)
            stages.lap("log_contrasts")
        if "tpf" in names:
            values["tpf"] = y / (y + z)

        # the permutation tests of lam0 = 1, whose deviations are the
        # observed statistics, follow each estimator
        observed = {}
        if "log_contrast" in names:
            est, se = _log_contrast_rows(l1, l0)
            tallies["log_contrast"].add_normal(est, se, lam_true, alpha)
            raw["log_contrast"].append(est)
            observed["log_contrast"] = est
            stages.lap("log_contrast")
        if "covariate_adjusted" in names:
            clusters = np.broadcast_to(np.arange(m), arms.shape)
            x1, x0 = (x[c] for c in _arm_split(clusters, arms))
            est, se = _pooled_ols(l1, l0, x1, x0)[:2]
            tallies["covariate_adjusted"].add_normal(est, se, lam_true, alpha)
            raw["covariate_adjusted"].append(est)
            stages.lap("covariate_adjusted")
        if "odds_ratio" in names:
            observed["odds_ratio"] = _log_odds_ratios(*_arm_totals(y, z, arms))
            or_se = np.empty(len(arms))
            stages.lap("odds_ratio")
        if "tpf" in names:
            t_stat, r = _tpf_rows(y, z, arms)
            # NaN where the fraction statistic has no admissible root
            est = np.log(_tpf_roots(t_stat, r))
            admissible = ~np.isnan(est)
            if not admissible.all():
                tallies["tpf"].dropped["NoAdmissibleRoot"] += int(np.count_nonzero(~admissible))
            tallies["tpf"].estimates.append(est[admissible])
            raw["tpf"].append(est)
            observed["tpf"] = t_stat
            stages.lap("tpf")
        # one set of relabelings per block; per chunk, each statistic's
        # draws from its kernel, one (replicates, rows) product per vector
        rows = or_rows
        if tested:
            rz = randomize(scheme, "monte_carlo", perm_draws, _relabeling_stream(scenario, b))
            rows = rz.rows()
        for sl in parts if rows is not None else ():
            n = sl.stop - sl.start
            if "odds_ratio" in names:
                # the relabelings of the permutation column give the SE too
                or_draws = odds_ratio_permutation_draws(y[sl], z[sl], rows, work[:, :n])
                or_se[sl] = _permutation_ses(or_draws)
                stages.lap("odds_ratio")
            for name in tested:
                draws = or_draws if name == "odds_ratio" else _diff_means_rows(
                    values[name][sl], rows, m1, *work[:2, :n])
                count = _two_sided_count(draws, observed[name][sl], work[1, :n])
                tallies[name].add_perm(rz.p(count), alpha)
            if tested:
                stages.lap("permutation")
        if "odds_ratio" in names:
            tallies["odds_ratio"].add_normal(observed["odds_ratio"], or_se, lam_true, alpha)
            raw["odds_ratio"].append(observed["odds_ratio"])
            stages.lap("odds_ratio")

    for b in _blocks(_parallel_draws(scenario), tallies):
        block(*b)
    return [tallies[name].row(scenario, name) for name in names], raw


def _weighted_rows(w, diffs, sigma):
    """(estimates ``w . diffs``, SEs ``sqrt(w' Sigma w)``) of each
    replicate of (B, k) weights and diffs and (B, k, k) covariances,
    each product as :func:`~crtnd.stepped_wedge.sw_log_contrast` takes
    it for one panel."""
    var = _row_dot(np.matmul(w[:, None, :], sigma)[:, 0], w)
    return _row_dot(w, diffs), np.sqrt(np.maximum(var, 0.0))


def _evaluate_sw(scenario, names, permutation_por, perm_draws, stages):
    alpha = scenario.alpha
    lam_true = scenario.lam
    log_lam = math.log(lam_true)
    tallies = {name: _Tally() for name in names}
    raw = {key: [] for key in ("replicate", *names)}  # arrays per block

    # every replicate's starts permute the scheme's multiset, so the
    # analysis periods, m_t, the Sigma scale and equal weights are fixed
    scheme: SteppedWedgeScheme = scenario.design
    tgrid = np.arange(1, scheme.n_periods + 1)
    periods = scheme.analysis_periods
    _warn_dropped(periods, scheme.n_periods)
    _check_arms(scheme, periods)
    scale = _scale_matrix(scheme, periods)
    w_equal = np.asarray(equal_weights(periods).w)

    if permutation_por:
        # the permutation column's chunk-sized work arrays, which every
        # chunk writes in place: its draws under each weighting, and |T*|
        contrasts = np.empty((len(names) * _CHUNK, perm_draws))
        magnitude = np.empty((_CHUNK, perm_draws))

    def block(b, parts, reps, start, y, z):
        stages.lap("generation")
        raw["replicate"].append(reps)
        lmat = _log_ratio(y, z)
        diffs = _period_differences(lmat, start, periods)
        sigma_hat, _ = _plugin_sigma(lmat, start, periods, scheme, scale)
        stages.lap("plugin_covariance")
        # the estimators' weights: equal, and optimal from the exactly
        # computable truth-imputed covariance
        weights = {name: np.broadcast_to(w_equal, diffs.shape) for name in names}
        if "sw_optimal" in names:
            l0 = lmat - log_lam * (tgrid[None, None, :] >= start[:, :, None])
            w_opt, ok, _ = _optimal_rows(_null_sigma(l0, periods, scale)[0])
            w_opt[~ok] = w_equal
            tallies["sw_optimal"].weight_fallbacks += int(np.count_nonzero(~ok))
            weights["sw_optimal"] = w_opt
            stages.lap("sw_optimal")
        for name in names:
            est, se = _weighted_rows(weights[name], diffs, sigma_hat)
            tallies[name].add_normal(est, se, lam_true, alpha)
            raw[name].append(est)
            stages.lap(name)
        if not permutation_por:
            return
        # one set of re-randomized starts per block, shared by its
        # replicates and both weightings; at lam0 = 1 the imputed L(0)
        # is lmat itself
        if "sw_optimal" in names:
            weights["sw_optimal"] = _null_weights(lmat, "optimal", periods, scale)
        # the observed statistic weights the estimates' own diffs
        observed = {name: _row_dot(diffs, weights[name]) for name in names}
        rz = randomize(scheme, "monte_carlo", perm_draws, _relabeling_stream(scenario, b))
        rows = rz.rows()
        masks = _block_masks(rows, periods)
        for sl in parts:
            # every weighting's draws of the chunk: one masked product
            n = sl.stop - sl.start
            w = np.stack([weights[name][sl] for name in names])
            draws = _period_contrasts(rows, periods, scheme, lmat[sl], w, masks,
                                      contrasts[:len(names) * n])
            for name, d in zip(names, draws):
                count = _two_sided_count(d, observed[name][sl], magnitude[:n])
                tallies[name].add_perm(rz.p(count), alpha)
        stages.lap("permutation")

    for b in _blocks(_wedge_draws(scenario), tallies):
        block(*b)
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
