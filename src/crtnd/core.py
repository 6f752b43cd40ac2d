"""Domain types, the potential-count model, and assignment randomization.

A cluster-randomized test-negative design observes, for each cluster,
the number of healthcare seekers testing positive for the disease of
interest (``y_count``) and the number testing negative (``z_count``).
The intervention is randomized at the cluster level: in a parallel-arm
design ``m1`` of ``m`` clusters are treated; in a stepped-wedge design
every cluster starts the intervention at a randomized period.

The counterfactual model places a constant relative risk ``lam`` on the
test-positive counts and a cluster-specific relative ascertainment ``c``
on both counts::

    y(1) = lam * c * y(0)        z(1) = c * z(0)

so the log-contrast ``L = log(y) - log(z)`` shifts by exactly
``log(lam)`` under treatment, for any ``c``.  All types here are frozen
and all operations are pure, so values can be shared freely across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompletePanel,
    SupportTooLarge,
    ZeroCount,
)

ENUMERATION_CAP = 10_000_000
# "auto" permutation mode enumerates supports up to this size
AUTO_EXACT_LIMIT = 100_000
# assignment rows are handed out in blocks of about this many bytes
_BLOCK_BYTES = 4 << 20


# --------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ClusterRecord:
    """One cluster's aggregated observations in a parallel-arm design.

    Counts are real-valued, not integers: simulated counts are produced
    by scaling integer draws with continuous factors, and every
    estimator consumes positive reals.
    """

    cluster_id: str
    arm: int
    y_count: float
    z_count: float
    covariates: tuple[float, ...] = ()
    dose: float | None = None

    def __post_init__(self):
        if self.arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {self.arm!r}")
        for name, v in (("y_count", self.y_count), ("z_count", self.z_count)):
            if not math.isfinite(v) or v < 0:
                raise ValueError(
                    f"cluster {self.cluster_id!r}: {name} must be a finite "
                    f"nonnegative real, got {v!r}"
                )
        if self.dose is not None and not (0.0 <= self.dose <= 1.0):
            raise ValueError(
                f"cluster {self.cluster_id!r}: dose must lie in [0, 1], got {self.dose!r}"
            )


@dataclass(frozen=True)
class ClusterPeriodRecord:
    """One (cluster, period) cell of a stepped-wedge panel.

    ``start_period`` is the period at which the cluster begins the
    intervention; the cluster counts as treated at period ``t`` when
    ``t >= start_period`` (start period inclusive).
    """

    cluster_id: str
    period: int
    start_period: int
    y_count: float
    z_count: float

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.start_period < 1:
            raise ValueError(f"start_period must be >= 1, got {self.start_period}")
        for name, v in (("y_count", self.y_count), ("z_count", self.z_count)):
            if not math.isfinite(v) or v < 0:
                raise ValueError(
                    f"cluster {self.cluster_id!r}, period {self.period}: {name} "
                    f"must be a finite nonnegative real, got {v!r}"
                )


def log_contrast(record: ClusterRecord, correction: bool = False) -> float:
    """log(y) - log(z) for one cluster.

    With ``correction`` enabled, 0.5 is added to both counts; otherwise a
    zero count raises :class:`ZeroCount`.  The correction changes the
    estimand slightly, so it is opt-in.
    """
    return _log_contrast_value(
        record.y_count, record.z_count, record.cluster_id, correction
    )


def _log_contrast_value(
    y: float, z: float, cluster_id: str, correction: bool
) -> float:
    if correction:
        return math.log(y + 0.5) - math.log(z + 0.5)
    if y <= 0:
        raise ZeroCount(cluster_id, "test-positive")
    if z <= 0:
        raise ZeroCount(cluster_id, "test-negative")
    return math.log(y) - math.log(z)


def log_contrasts(
    records: Sequence[ClusterRecord], correction: bool = False
) -> np.ndarray:
    """Vector of log-contrasts in record order."""
    return np.array([log_contrast(r, correction) for r in records], dtype=float)


def validate_records(records: Sequence[ClusterRecord]) -> None:
    """Check dataset-level invariants: unique ids, common covariate dimension."""
    if not records:
        raise ValueError("empty dataset")
    seen: set[str] = set()
    p = len(records[0].covariates)
    for r in records:
        if r.cluster_id in seen:
            raise ValueError(f"duplicate cluster_id {r.cluster_id!r}")
        seen.add(r.cluster_id)
        if len(r.covariates) != p:
            raise ValueError(
                f"cluster {r.cluster_id!r} has {len(r.covariates)} covariates, "
                f"expected {p}"
            )


# --------------------------------------------------------------------- #
# Stepped-wedge panel
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Panel:
    """A complete m-by-T stepped-wedge panel in canonical (sorted) order.

    ``y`` and ``z`` have shape (m, T); row i belongs to
    ``cluster_ids[i]`` with intervention start ``start_periods[i]``.
    """

    cluster_ids: tuple[str, ...]
    start_periods: tuple[int, ...]
    y: np.ndarray
    z: np.ndarray

    @property
    def m(self) -> int:
        return len(self.cluster_ids)

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @staticmethod
    def from_records(records: Sequence[ClusterPeriodRecord]) -> "Panel":
        if not records:
            raise IncompletePanel("empty panel")
        ids = sorted({r.cluster_id for r in records})
        periods = sorted({r.period for r in records})
        n_periods = max(periods)
        if periods != list(range(1, n_periods + 1)):
            missing = sorted(set(range(1, n_periods + 1)) - set(periods))
            raise IncompletePanel(f"missing periods {missing}")
        index = {cid: i for i, cid in enumerate(ids)}
        m = len(ids)
        y = np.full((m, n_periods), np.nan)
        z = np.full((m, n_periods), np.nan)
        start = {}
        for r in records:
            i, t = index[r.cluster_id], r.period - 1
            if not np.isnan(y[i, t]):
                raise IncompletePanel(
                    f"duplicate cell (cluster {r.cluster_id!r}, period {r.period})"
                )
            y[i, t] = r.y_count
            z[i, t] = r.z_count
            prior = start.setdefault(r.cluster_id, r.start_period)
            if prior != r.start_period:
                raise IncompletePanel(
                    f"cluster {r.cluster_id!r} has inconsistent start_period "
                    f"({prior} vs {r.start_period})"
                )
        holes = np.argwhere(np.isnan(y))
        if holes.size:
            i, t = holes[0]
            raise IncompletePanel(
                f"missing cell (cluster {ids[int(i)]!r}, period {int(t) + 1})"
            )
        y.setflags(write=False)
        z.setflags(write=False)
        return Panel(
            cluster_ids=tuple(ids),
            start_periods=tuple(start[c] for c in ids),
            y=y,
            z=z,
        )

    def treated_at(self, t: int) -> np.ndarray:
        """Boolean vector: cluster is under intervention at period t (1-based)."""
        return np.array([t >= a for a in self.start_periods])

    def log_contrast_matrix(self, correction: bool = False) -> np.ndarray:
        """(m, T) matrix of per-cell log-contrasts."""
        if correction:
            return np.log(self.y + 0.5) - np.log(self.z + 0.5)
        for arr, which in ((self.y, "test-positive"), (self.z, "test-negative")):
            if np.any(arr <= 0):
                i, t = np.argwhere(arr <= 0)[0]
                raise ZeroCount(f"{self.cluster_ids[int(i)]}@{int(t) + 1}", which)
        return np.log(self.y) - np.log(self.z)

    def to_records(self) -> list[ClusterPeriodRecord]:
        recs = []
        for i, cid in enumerate(self.cluster_ids):
            for t in range(self.n_periods):
                recs.append(
                    ClusterPeriodRecord(
                        cluster_id=cid,
                        period=t + 1,
                        start_period=self.start_periods[i],
                        y_count=float(self.y[i, t]),
                        z_count=float(self.z[i, t]),
                    )
                )
        return recs


# --------------------------------------------------------------------- #
# Assignment schemes
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ParallelScheme:
    """Complete randomization of m1 treated clusters out of m.

    Every arm split with exactly m1 treated clusters has probability
    1 / C(m, m1).
    """

    m: int
    m1: int

    def __post_init__(self):
        if not 1 <= self.m1 <= self.m - 1:
            raise ValueError(
                f"need 1 <= m1 <= m-1 so both arms are nonempty, got "
                f"m={self.m}, m1={self.m1}"
            )

    @property
    def total_assignments(self) -> int:
        return math.comb(self.m, self.m1)


@dataclass(frozen=True)
class SteppedWedgeScheme:
    """Staggered rollout: q[t-1] clusters start the intervention at period t.

    The assignment vector holds each cluster's start period (1-based).
    All distinct start-period vectors consistent with ``q`` are equally
    likely; there are ``m! / prod(q_t!)`` of them.  Analysis periods are
    the t in 1..T-1 at which both the treated-by-t group and its
    complement are nonempty.
    """

    m: int
    q: tuple[int, ...]

    def __post_init__(self):
        if any(qt < 0 for qt in self.q):
            raise ValueError(f"q entries must be nonnegative, got {self.q}")
        if sum(self.q) != self.m:
            raise ValueError(f"sum(q)={sum(self.q)} must equal m={self.m}")
        if len(self.q) < 2:
            raise ValueError("a stepped-wedge design needs at least 2 periods")
        if not self.analysis_periods:
            raise ValueError(
                "no analysis period has both a treated and an untreated cluster"
            )

    @property
    def n_periods(self) -> int:
        return len(self.q)

    def m_t(self, t: int) -> int:
        """Number of clusters under intervention at period t (1-based)."""
        return sum(self.q[: t])

    @property
    def analysis_periods(self) -> tuple[int, ...]:
        return tuple(
            t
            for t in range(1, self.n_periods)
            if 1 <= self.m_t(t) <= self.m - 1
        )

    @property
    def total_assignments(self) -> int:
        total = math.factorial(self.m)
        for qt in self.q:
            total //= math.factorial(qt)
        return total


AssignmentScheme = ParallelScheme | SteppedWedgeScheme


def sample_assignment(
    scheme: AssignmentScheme, rng: np.random.Generator
) -> np.ndarray:
    """Draw one assignment uniformly from the scheme's support."""
    if isinstance(scheme, ParallelScheme):
        a = np.zeros(scheme.m, dtype=np.int64)
        treated = rng.choice(scheme.m, size=scheme.m1, replace=False)
        a[treated] = 1
        return a
    base = np.repeat(np.arange(1, scheme.n_periods + 1), scheme.q)
    return rng.permutation(base).astype(np.int64)


def sample_assignments(
    scheme: AssignmentScheme, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n assignments as an (n, m) matrix (uniform, independent rows)."""
    if isinstance(scheme, ParallelScheme):
        # the m1 smallest uniforms of a row are treated: the first m1
        # positions of a uniform random permutation (their argsort)
        u = rng.random((n, scheme.m))
        kth = np.partition(u, scheme.m1 - 1, axis=1)[:, scheme.m1 - 1 : scheme.m1]
        out = (u <= kth).astype(np.int64)
        if np.count_nonzero(out) == n * scheme.m1:
            return out
        # a tie at some row's threshold: let the sort order decide
        order = np.argsort(u, axis=1)
        out = np.zeros((n, scheme.m), dtype=np.int64)
        np.put_along_axis(out, order[:, : scheme.m1], 1, axis=1)
        return out
    base = np.repeat(np.arange(1, scheme.n_periods + 1), scheme.q)
    order = np.argsort(rng.random((n, scheme.m)), axis=1)
    return base[order].astype(np.int64)


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-derived generator: one (seed, stream...) pair, one stream.

    Replicate k of a run seeded with s always sees the same stream no
    matter how many replicates run before it or in what order, so
    parallel execution cannot change results.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.default_rng(ss)


# --------------------------------------------------------------------- #
# Randomization engine
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Randomization:
    """The assignments a permutation test re-randomizes over, and its p.

    A tail count becomes ``p(count) = (add_one + count) / denom``: exact
    p-values divide by the support size, Monte Carlo p-values over
    ``n_rows`` draws apply the add-one rule, so they are never 0.
    """

    scheme: AssignmentScheme
    mode: str
    reason: str
    support_size: int
    n_rows: int
    add_one: int
    stream: tuple[int, ...]

    @property
    def denom(self) -> int:
        return self.n_rows + self.add_one

    def p(self, count: int) -> float:
        return (self.add_one + count) / self.denom

    def blocks(self) -> Iterator[np.ndarray]:
        """The rows in blocks of a few MB: parallel rows float64 0/1, wedge
        rows int64 start periods.  Exact rows come in the order of
        :func:`enumerate_assignments`; drawn rows are those of one
        ``sample_assignments(scheme, n_rows, derive_rng(*stream))`` call."""
        scheme, size = self.scheme, _block_rows(self.scheme.m)
        if self.mode == "exact":
            yield from _support_blocks(scheme, size)
            return
        # sample_assignments draws (rows, m) uniforms: blocks drawn in turn
        # from one generator are the rows of one call
        rng = derive_rng(*self.stream)
        for first in range(0, self.n_rows, size):
            rows = sample_assignments(scheme, min(size, self.n_rows - first), rng)
            yield rows.astype(float) if isinstance(scheme, ParallelScheme) else rows

    def rows(self) -> np.ndarray:
        """All rows in one array, for a caller that reuses them."""
        return np.concatenate(list(self.blocks()))


def randomize(
    scheme: AssignmentScheme,
    mode: str,
    n_draws: int,
    stream: tuple[int, ...],
    exact_limit: int = AUTO_EXACT_LIMIT,
) -> Randomization:
    """How to re-randomize ``scheme``: "exact", "monte_carlo" (``n_draws``
    draws from ``derive_rng(*stream)``) or "auto", exact up to
    ``exact_limit`` assignments.  Exact mode raises
    :class:`SupportTooLarge` above :data:`ENUMERATION_CAP`."""
    total = scheme.total_assignments
    if mode == "auto":
        mode = "exact" if total <= exact_limit else "monte_carlo"
        sign = "<=" if mode == "exact" else ">"
        reason = f"auto: support {total} {sign} {exact_limit}"
    elif mode in ("exact", "monte_carlo"):
        reason = f"{mode} requested"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "monte_carlo":
        return Randomization(scheme, mode, reason, total, n_draws, 1, stream)
    if total > ENUMERATION_CAP:
        raise SupportTooLarge(total, ENUMERATION_CAP)
    return Randomization(scheme, mode, reason, total, total, 0, stream)


def enumerate_assignments(
    scheme: AssignmentScheme, cap: int = ENUMERATION_CAP
) -> Iterator[np.ndarray]:
    """Yield every assignment in the scheme's support exactly once.

    Assignments are int64 0/1 arm vectors or start-period vectors, in
    lexicographic order with "treated" the first label: arm vectors
    descend (``itertools.combinations`` order of the treated sets), start
    vectors ascend.  Raises :class:`SupportTooLarge` above ``cap``.
    """
    total = scheme.total_assignments
    if total > cap:
        raise SupportTooLarge(total, cap)
    blocks = _support_blocks(scheme, _block_rows(scheme.m))
    return (row for block in blocks for row in block.astype(np.int64))


def _block_rows(m: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * m))


def _support_blocks(scheme: AssignmentScheme, size: int) -> Iterator[np.ndarray]:
    # The support is the distinct orderings of a multiset of labels: a
    # parallel scheme's m1 "treated" (label 0) and m - m1 "control"
    # (label 1), a stepped wedge's q[t-1] copies of start period t
    # (label t - 1).  A prefix with more than `size` completions is
    # split by its next label, in label order, so no block is larger.
    parallel = isinstance(scheme, ParallelScheme)
    q = (scheme.m1, scheme.m - scheme.m1) if parallel else scheme.q
    todo = [((), np.array(q), scheme.total_assignments)]  # the next is last
    while todo:
        prefix, left, count = todo.pop()
        if count <= size:
            labels = _orderings(prefix, left)
            yield (labels == 0).astype(float) if parallel else labels + 1
            continue
        for label in np.nonzero(left)[0][::-1]:
            rest = left.copy()
            rest[label] -= 1
            share = count * int(left[label]) // int(left.sum())  # exact
            todo.append((prefix + (int(label),), rest, share))


def _orderings(prefix: tuple[int, ...], left: np.ndarray) -> np.ndarray:
    """Rows ``prefix + s`` for the distinct orderings s of ``left[l]``
    copies of each label l, in lexicographic order: built position by
    position, each row continuing with every label it has left, in label
    order (``np.nonzero`` is row-major)."""
    cols = [np.array([label]) for label in prefix]
    left = left[None, :]
    for _ in range(int(left.sum())):
        parent, label = np.nonzero(left)
        left = left[parent]
        left[np.arange(parent.size), label] -= 1
        cols = [col[parent] for col in cols] + [label]
    return np.column_stack(cols)


# --------------------------------------------------------------------- #
# Potential tables
# --------------------------------------------------------------------- #


def _as_positive_array(name: str, values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"{name} entries must be finite and > 0")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PotentialTable:
    """Counterfactual counts for a parallel-arm design (oracle use).

    Stores control counts, the relative ascertainment ``c`` and the
    relative risk ``lam``; treated counts are derived as
    ``y1 = lam * c * y0`` and ``z1 = c * z0`` so the defining ratios
    hold at machine precision.
    """

    lam: float
    y0: np.ndarray
    z0: np.ndarray
    c: np.ndarray
    cluster_ids: tuple[str, ...] = ()
    covariates: np.ndarray | None = None
    doses: np.ndarray | None = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        y0 = _as_positive_array("y0", self.y0)
        z0 = _as_positive_array("z0", self.z0)
        c = _as_positive_array("c", self.c)
        if not (y0.shape == z0.shape == c.shape):
            raise DimensionMismatch("y0, z0, c must share one shape")
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "c", c)
        if not self.cluster_ids:
            object.__setattr__(
                self,
                "cluster_ids",
                tuple(f"c{i + 1:02d}" for i in range(y0.shape[0])),
            )
        if len(self.cluster_ids) != y0.shape[0]:
            raise DimensionMismatch("cluster_ids length mismatch")
        if self.covariates is not None:
            x = np.atleast_2d(np.asarray(self.covariates, dtype=float))
            if x.shape[0] != y0.shape[0]:
                x = x.T
            if x.shape[0] != y0.shape[0]:
                raise DimensionMismatch("covariates row count mismatch")
            x.setflags(write=False)
            object.__setattr__(self, "covariates", x)

    @property
    def m(self) -> int:
        return self.y0.shape[0]

    @property
    def y1(self) -> np.ndarray:
        return self.lam * self.c * self.y0

    @property
    def z1(self) -> np.ndarray:
        return self.c * self.z0

    def l0(self) -> np.ndarray:
        """Potential log-contrasts under control."""
        return np.log(self.y0) - np.log(self.z0)

    def l1(self) -> np.ndarray:
        """Potential log-contrasts under intervention."""
        return np.log(self.y1) - np.log(self.z1)


@dataclass(frozen=True)
class PeriodPotentialTable:
    """Counterfactual counts for a stepped-wedge design, per (cluster, period)."""

    lam: float
    y0: np.ndarray
    z0: np.ndarray
    c: np.ndarray
    cluster_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        y0 = np.asarray(self.y0, dtype=float)
        z0 = np.asarray(self.z0, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if y0.ndim != 2:
            raise DimensionMismatch("stepped-wedge tables must be (m, T) matrices")
        if not (y0.shape == z0.shape == c.shape):
            raise DimensionMismatch("y0, z0, c must share one shape")
        for name, arr in (("y0", y0), ("z0", z0), ("c", c)):
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                raise ValueError(f"{name} entries must be finite and > 0")
            arr.setflags(write=False)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "c", c)
        if not self.cluster_ids:
            object.__setattr__(
                self,
                "cluster_ids",
                tuple(f"c{i + 1:02d}" for i in range(y0.shape[0])),
            )
        if len(self.cluster_ids) != y0.shape[0]:
            raise DimensionMismatch("cluster_ids length mismatch")

    @property
    def m(self) -> int:
        return self.y0.shape[0]

    @property
    def n_periods(self) -> int:
        return self.y0.shape[1]

    @property
    def y1(self) -> np.ndarray:
        return self.lam * self.c * self.y0

    @property
    def z1(self) -> np.ndarray:
        return self.c * self.z0

    def l0(self) -> np.ndarray:
        return np.log(self.y0) - np.log(self.z0)


def realize(
    table: PotentialTable | PeriodPotentialTable, assignment: Sequence[int]
) -> list[ClusterRecord] | Panel:
    """Observed data under one assignment (pure function).

    Parallel: arm a selects ``(y(a), z(a))`` per cluster.  Stepped
    wedge: cell (i, t) is treated when ``t >= assignment[i]``.
    """
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape[0] != table.m:
        raise DimensionMismatch(
            f"assignment has length {a.shape[0]}, table has {table.m} clusters"
        )
    if isinstance(table, PotentialTable):
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("parallel assignments must be 0/1 vectors")
        y = np.where(a == 1, table.y1, table.y0)
        z = np.where(a == 1, table.z1, table.z0)
        records = []
        for i, cid in enumerate(table.cluster_ids):
            records.append(
                ClusterRecord(
                    cluster_id=cid,
                    arm=int(a[i]),
                    y_count=float(y[i]),
                    z_count=float(z[i]),
                    covariates=(
                        tuple(table.covariates[i])
                        if table.covariates is not None
                        else ()
                    ),
                    dose=(
                        float(table.doses[i]) if table.doses is not None else None
                    ),
                )
            )
        return records
    if np.any(a < 1) or np.any(a > table.n_periods):
        raise ValueError("start periods must lie in 1..T")
    periods = np.arange(1, table.n_periods + 1)
    treated = periods[None, :] >= a[:, None]
    y = np.where(treated, table.y1, table.y0)
    z = np.where(treated, table.z1, table.z0)
    y.setflags(write=False)
    z.setflags(write=False)
    return Panel(
        cluster_ids=table.cluster_ids,
        start_periods=tuple(int(v) for v in a),
        y=y,
        z=z,
    )
