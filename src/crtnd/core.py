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
``log(lam)`` under treatment, for any ``c``.

The package computes on arrays: a parallel-arm dataset is a
:class:`Trial` and a stepped-wedge dataset a :class:`Panel`.  Both
check their arrays once on construction, hold read-only copies and
compare by value (``==`` compares the arrays).  ``Trial.scheme`` and
``Panel.scheme`` are the randomization each assignment was drawn from;
a panel's analysis periods and treated matrix follow from it.  All
types here are frozen and all operations are pure, so values can be
shared across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ArmTooSmall,
    DimensionMismatch,
    MissingDose,
    SupportTooLarge,
    ZeroCount,
)

ENUMERATION_CAP = 10_000_000
# "auto" permutation mode enumerates supports up to this size
AUTO_EXACT_LIMIT = 100_000
# assignment rows are handed out in blocks of about this many bytes
_BLOCK_BYTES = 4 << 20
# and drawn in pieces of about this many uniforms
_DRAW_PIECE = 4096
# Monte Carlo draws of at most one block are held, read-only, by
# (scheme, rows, stream): the last this many, the streams of one command
_HELD_DRAWS = 3
# numpy's bundled OpenBLAS may thread an (a, b) @ (b, c) product once a b c
# reaches this, at more CPU time than it saves: larger ones go in pieces
_SERIAL_MNK = 1 << 19
_NO_ANALYSIS_PERIOD = "no analysis period has both a treated and an untreated cluster"


# --------------------------------------------------------------------- #
# Dataset checks and the parallel-arm trial
# --------------------------------------------------------------------- #


def _ids_and_counts(cluster_ids, y, z, ndim: int):
    """Both dataset types' checks: one or more unique ids, and finite
    nonnegative counts of one shape, (m,) or, for ``ndim`` 2, (m, T).
    Returns the ids as a tuple and the counts as float copies."""
    ids = tuple(cluster_ids)
    m = len(ids)
    if m == 0:
        raise ValueError("empty dataset")
    if len(set(ids)) != m:
        dup = next(c for i, c in enumerate(ids) if c in ids[:i])
        raise ValueError(f"duplicate cluster_id {dup!r}")
    y = np.array(y, dtype=float)
    z = np.array(z, dtype=float)
    if not (y.shape == z.shape and y.ndim == ndim and y.shape[0] == m and y.size):
        want = f"({m},)" if ndim == 1 else f"({m}, T) with T >= 1"
        raise DimensionMismatch(
            f"y_count and z_count must have shape {want}, got {y.shape} and {z.shape}"
        )
    for name, v in (("y_count", y), ("z_count", z)):
        if not 0 <= v.min() <= v.max() < math.inf:  # NaN fails too
            i = np.unravel_index(np.argmax(~np.isfinite(v) | (v < 0)), v.shape)
            where = "".join(f", period {int(t) + 1}" for t in i[1:])
            raise ValueError(
                f"cluster {ids[i[0]]!r}{where}: {name} must be a finite "
                f"nonnegative real, got {float(v[i])!r}"
            )
    return ids, y, z


def _freeze(obj, fields: dict) -> None:
    """Store checked values on a frozen dataclass, arrays read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class Trial:
    """A parallel-arm dataset as arrays, one entry per cluster.

    ``arm`` is True for treated clusters; ``y`` and ``z`` hold the
    test-positive and test-negative counts, ``x`` the (m, p) covariates
    (p may be 0) and ``dose`` each cluster's dose, NaN where a cluster
    has none, or ``None`` when the dataset has no dose at all.  The
    arrays are read-only copies.  Construction checks what every
    analysis assumes: unique ids, finite nonnegative counts, doses in
    [0, 1], and two nonempty arms (:class:`ArmTooSmall` otherwise).
    """

    cluster_ids: tuple[str, ...]
    arm: np.ndarray
    y: np.ndarray
    z: np.ndarray
    x: np.ndarray | None = None
    dose: np.ndarray | None = None

    def __post_init__(self):
        ids, y, z = _ids_and_counts(self.cluster_ids, self.y, self.z, ndim=1)
        m = len(ids)
        arm = np.array(self.arm)
        if arm.shape != (m,) or (
            arm.dtype != bool and not np.all((arm == 0) | (arm == 1))
        ):
            raise ValueError(f"arm must be {m} values in (0, 1)")
        x = np.empty((m, 0)) if self.x is None else np.array(self.x, dtype=float)
        if x.ndim != 2 or x.shape[0] != m:
            raise DimensionMismatch(f"covariates must be an ({m}, p) matrix")
        fields = {"cluster_ids": ids, "arm": arm.astype(bool), "y": y, "z": z, "x": x}
        if self.dose is not None:
            dose = np.array(self.dose, dtype=float)
            if dose.shape != (m,):
                raise DimensionMismatch(f"dose must have {m} entries")
            bad = (dose < 0) | (dose > 1)
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"cluster {ids[i]!r}: dose must lie in [0, 1], "
                    f"got {float(dose[i])!r}"
                )
            fields["dose"] = dose
        _freeze(self, fields)
        m1 = int(np.count_nonzero(self.arm))
        if m1 == 0 or m1 == m:
            raise ArmTooSmall(
                f"both arms must be nonempty (treated={m1}, control={m - m1})"
            )

    @property
    def m(self) -> int:
        return len(self.cluster_ids)

    @property
    def scheme(self) -> "ParallelScheme":
        """The design the arms were drawn from: ``m1`` treated of ``m``."""
        return ParallelScheme(m=self.m, m1=int(np.count_nonzero(self.arm)))

    def require_dose(self) -> np.ndarray:
        """The dose vector; :class:`MissingDose` names a cluster without one."""
        if self.dose is None:
            raise MissingDose(self.cluster_ids[0])
        missing = np.isnan(self.dose)
        if missing.any():
            raise MissingDose(self.cluster_ids[int(np.argmax(missing))])
        return self.dose

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trial):
            return NotImplemented
        same_dose = (
            self.dose is other.dose
            if self.dose is None or other.dose is None
            else np.array_equal(self.dose, other.dose, equal_nan=True)
        )
        return same_dose and self.cluster_ids == other.cluster_ids and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("arm", "y", "z", "x")
        )

    __hash__ = None


def log_contrasts(trial: Trial) -> np.ndarray:
    """Per-cluster ``log(y) - log(z)``.

    A zero count raises :class:`ZeroCount` for the first cluster with
    one.  The continuity correction is a change to the counts, made
    once when the trial is built: ``dataclasses.replace(trial, y=trial.y
    + 0.5, z=trial.z + 0.5)``.
    """
    return _log_ratio(trial.y, trial.z, trial.cluster_ids)


def _log_ratio(y: np.ndarray, z: np.ndarray, ids: Sequence[str] | None = None) -> np.ndarray:
    """``np.log(y) - np.log(z)`` of nonnegative counts of any shape.

    With ``ids``, the clusters of the rows of (m,) or (m, T) counts, a
    zero count raises :class:`ZeroCount`: it names the first cluster
    with one, or the first such cell as ``id@period``.  The simulation's
    (replicates, ...) stacks pass none: their counts are positive by
    construction.
    """
    if ids is not None:
        zero = (y == 0) | (z == 0)
        if zero.any():
            cell = np.unravel_index(np.argmax(zero), zero.shape)
            which = "test-positive" if y[cell] == 0 else "test-negative"
            where = "".join(f"@{int(t) + 1}" for t in cell[1:])
            raise ZeroCount(f"{ids[cell[0]]}{where}", which)
    return np.log(y) - np.log(z)


# --------------------------------------------------------------------- #
# Stepped-wedge panel
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class Panel:
    """A stepped-wedge dataset as arrays: m clusters over periods 1..T.

    Row i of the (m, T) counts ``y`` and ``z`` belongs to
    ``cluster_ids[i]``, under intervention from period
    ``start_periods[i]`` on (a start after T is never treated in the
    window).  The arrays are read-only copies.  Construction makes
    :class:`Trial`'s checks: unique ids, finite nonnegative counts, and
    one integer start period >= 1 per cluster.  The start vector fixes
    the design: :attr:`scheme`, and the :attr:`analysis_periods` and
    :attr:`treated` matrix that follow from it.
    """

    cluster_ids: tuple[str, ...]
    start_periods: tuple[int, ...]
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        ids, y, z = _ids_and_counts(self.cluster_ids, self.y, self.z, ndim=2)
        m, starts = len(ids), np.asarray(self.start_periods)
        if starts.shape != (m,) or starts.dtype.kind not in "iu" or starts.min() < 1:
            raise ValueError(f"start_periods must be {m} integers >= 1")
        _freeze(self, {"cluster_ids": ids, "start_periods": tuple(starts.tolist()),
                       "y": y, "z": z})

    @property
    def m(self) -> int:
        return len(self.cluster_ids)

    @property
    def n_periods(self) -> int:
        return self.y.shape[1]

    @property
    def scheme(self) -> "SteppedWedgeScheme":
        """The randomization the start vector was drawn from: ``q[t-1]``
        clusters start at period t.  A start beyond the window (never
        treated in it) is one more exchangeable label, so the scheme can
        have more periods than the panel; those labels are numbered T+1,
        T+2, ... by rank, which keeps every multiplicity."""
        t = self.n_periods
        late = sorted({s for s in self.start_periods if s > t})
        rank = {s: t + 1 + k for k, s in enumerate(late)}
        q = np.bincount([rank.get(s, s) for s in self.start_periods], minlength=t + 1)[1:]
        return SteppedWedgeScheme(m=self.m, q=tuple(q.tolist()))

    @property
    def analysis_periods(self) -> tuple[int, ...]:
        """The scheme's analysis periods inside the window (t < T); the
        scheme's ValueError when there are none."""
        periods = tuple(t for t in self.scheme.analysis_periods if t < self.n_periods)
        if not periods:
            raise ValueError(_NO_ANALYSIS_PERIOD)
        return periods

    @property
    def treated(self) -> np.ndarray:
        """(m, T) boolean matrix: cell (i, t) is under intervention."""
        tgrid = np.arange(1, self.n_periods + 1)
        return tgrid[None, :] >= np.asarray(self.start_periods)[:, None]

    def log_contrast_matrix(self) -> np.ndarray:
        """(m, T) matrix of per-cell log-contrasts; :class:`ZeroCount`
        names the first cell with a zero count."""
        return _log_ratio(self.y, self.z, self.cluster_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        return (
            self.cluster_ids == other.cluster_ids
            and self.start_periods == other.start_periods
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.z, other.z)
        )

    __hash__ = None


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
            raise ValueError(_NO_ANALYSIS_PERIOD)

    @property
    def n_periods(self) -> int:
        return len(self.q)

    def m_t(self, t: int) -> int:
        """Number of clusters under intervention at period t (1-based)."""
        return sum(self.q[: t])

    @property
    def analysis_periods(self) -> tuple[int, ...]:
        # m_t(1..T-1) in one pass, linear in the number of start labels
        m_t = itertools.accumulate(self.q[:-1])
        return tuple(t for t, n in enumerate(m_t, 1) if 1 <= n <= self.m - 1)

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
    """Draw one assignment uniformly from the scheme's support: the one
    row of ``sample_assignments(scheme, 1, rng)``."""
    return sample_assignments(scheme, 1, rng)[0]


def sample_assignments(
    scheme: AssignmentScheme, n: int, rng: np.random.Generator, dtype=np.int64
) -> np.ndarray:
    """Draw n assignments as an (n, m) matrix of ``dtype`` (uniform,
    independent rows).

    Rows are drawn in pieces of about :data:`_DRAW_PIECE` uniforms, whose
    temporaries stay small; pieces drawn in turn from one generator are
    the rows of one draw.
    """
    out = np.empty((n, scheme.m), dtype=dtype)
    step = max(1, _DRAW_PIECE // scheme.m)
    if isinstance(scheme, SteppedWedgeScheme):
        base = np.repeat(np.arange(1, scheme.n_periods + 1), scheme.q)
    for first in range(0, n, step):
        piece = out[first : first + step]
        u = rng.random(piece.shape)
        if isinstance(scheme, SteppedWedgeScheme):
            piece[...] = base[np.argsort(u, axis=1)]
            continue
        # the m1 smallest uniforms of a row are treated: the first m1
        # positions of a uniform random permutation (their argsort)
        kth = np.partition(u, scheme.m1 - 1, axis=1)[:, scheme.m1 - 1 : scheme.m1]
        treated = u <= kth
        if np.count_nonzero(treated) == treated.shape[0] * scheme.m1:
            piece[...] = treated
            continue
        # a tie at some row's threshold: let the sort order decide
        piece[...] = 0
        np.put_along_axis(piece, np.argsort(u, axis=1)[:, : scheme.m1], 1, axis=1)
    return out


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-derived generator: one (seed, stream...) pair, one stream.

    A stream depends on its key alone: chunk g of a simulation seeded
    with s, ``(s, 4, g)``, is the same however many chunks run before it
    and in whatever order, so parallel execution cannot change results.
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
        rows start periods of the smallest type that holds the last one
        (``uint8`` up to 255 periods).

        Exact rows come in the order of :func:`enumerate_assignments`,
        enumerated again on every call.  Drawn rows are those of one
        ``sample_assignments(scheme, n_rows, derive_rng(*stream))`` call.
        A draw that fits in one block is made once and then held: every
        test and CI of a command that reads the same stream gets the same
        read-only array, and the last :data:`_HELD_DRAWS` draws are kept.
        A larger draw is drawn again, block by block, on every call, so
        memory stays bounded however many rows are asked for."""
        scheme, size = self.scheme, _block_rows(self.scheme.m)
        if self.mode == "exact":
            yield from _support_blocks(scheme, size)
            return
        parallel = isinstance(scheme, ParallelScheme)
        dtype = float if parallel else np.min_scalar_type(scheme.n_periods)
        if self.n_rows <= size:
            yield _held_draw(scheme, self.n_rows, self.stream, dtype)
            return
        # sample_assignments draws (rows, m) uniforms: blocks drawn in turn
        # from one generator are the rows of one call
        rng = derive_rng(*self.stream)
        for first in range(0, self.n_rows, size):
            yield sample_assignments(scheme, min(size, self.n_rows - first), rng, dtype)

    def rows(self) -> np.ndarray:
        """All rows in one array, for a caller that reuses them (read-only
        where the draw is held)."""
        blocks = list(self.blocks())
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@functools.lru_cache(maxsize=_HELD_DRAWS)
def _held_draw(scheme: AssignmentScheme, n_rows: int, stream: tuple[int, ...],
               dtype) -> np.ndarray:
    """One ``sample_assignments`` call from ``derive_rng(*stream)``, read-only."""
    rows = sample_assignments(scheme, n_rows, derive_rng(*stream), dtype)
    rows.setflags(write=False)
    return rows


def randomize(
    scheme: AssignmentScheme,
    mode: str,
    n_draws: int,
    stream: tuple[int, ...],
) -> Randomization:
    """How to re-randomize ``scheme``: "exact", "monte_carlo" (``n_draws``
    draws from ``derive_rng(*stream)``) or "auto", exact up to
    :data:`AUTO_EXACT_LIMIT` assignments.  Exact mode raises
    :class:`SupportTooLarge` above :data:`ENUMERATION_CAP`; Monte Carlo
    mode raises ValueError below one draw."""
    total = scheme.total_assignments
    if mode == "auto":
        mode = "exact" if total <= AUTO_EXACT_LIMIT else "monte_carlo"
        sign = "<=" if mode == "exact" else ">"
        reason = f"auto: support {total} {sign} {AUTO_EXACT_LIMIT}"
    elif mode in ("exact", "monte_carlo"):
        reason = f"{mode} requested"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "monte_carlo":
        if n_draws < 1:
            raise ValueError(f"Monte Carlo mode needs n_draws >= 1, got {n_draws}")
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
    starts = None if parallel else np.min_scalar_type(scheme.n_periods)
    todo = [((), np.array(q), scheme.total_assignments)]  # the next is last
    while todo:
        prefix, left, count = todo.pop()
        if count <= size:
            labels = _orderings(prefix, left)
            yield (labels == 0).astype(float) if parallel else (labels + 1).astype(starts)
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
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"{name} entries must be finite and > 0")
    return arr


@dataclass(frozen=True)
class _CountTable:
    """What both potential tables hold: control counts ``y0`` and ``z0``,
    the relative ascertainment ``c`` and the relative risk ``lam``, as
    read-only arrays of one shape whose rows are ``cluster_ids``
    (``c01, c02, ...`` by default).  Treated counts are derived as
    ``y1 = lam * c * y0`` and ``z1 = c * z0`` so the defining ratios hold
    at machine precision.
    """

    lam: float
    y0: np.ndarray
    z0: np.ndarray
    c: np.ndarray
    cluster_ids: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be a finite positive real, got {self.lam}")
        cells = {name: _as_positive_array(name, getattr(self, name)) for name in ("y0", "z0", "c")}
        if not cells["y0"].shape == cells["z0"].shape == cells["c"].shape:
            raise DimensionMismatch("y0, z0, c must share one shape")
        m = cells["y0"].shape[0]
        ids = tuple(self.cluster_ids) or tuple(f"c{i + 1:02d}" for i in range(m))
        if len(ids) != m:
            raise DimensionMismatch("cluster_ids length mismatch")
        _freeze(self, {**cells, "cluster_ids": ids})

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
        return _log_ratio(self.y0, self.z0, self.cluster_ids)


@dataclass(frozen=True)
class PotentialTable(_CountTable):
    """Counterfactual counts for a parallel-arm design (oracle use), one
    per cluster, with the covariates and doses a realized trial carries."""

    covariates: np.ndarray | None = None
    doses: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.covariates is not None:
            x = np.atleast_2d(np.asarray(self.covariates, dtype=float))
            if x.shape[0] != self.m:
                x = x.T
            if x.shape[0] != self.m:
                raise DimensionMismatch("covariates row count mismatch")
            _freeze(self, {"covariates": x})

    def l1(self) -> np.ndarray:
        """Potential log-contrasts under intervention."""
        return _log_ratio(self.y1, self.z1, self.cluster_ids)


@dataclass(frozen=True)
class PeriodPotentialTable(_CountTable):
    """Counterfactual counts for a stepped-wedge design, per (cluster, period)."""

    def __post_init__(self):
        if np.ndim(self.y0) != 2:
            raise DimensionMismatch("stepped-wedge tables must be (m, T) matrices")
        super().__post_init__()

    @property
    def n_periods(self) -> int:
        return self.y0.shape[1]


def realize(
    table: PotentialTable | PeriodPotentialTable, assignment: Sequence[int]
) -> Trial | Panel:
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
        treated = a == 1
        return Trial(
            cluster_ids=table.cluster_ids,
            arm=treated,
            y=np.where(treated, table.y1, table.y0),
            z=np.where(treated, table.z1, table.z0),
            x=table.covariates,
            dose=table.doses,
        )
    if np.any(a < 1) or np.any(a > table.n_periods):
        raise ValueError("start periods must lie in 1..T")
    periods = np.arange(1, table.n_periods + 1)
    treated = periods[None, :] >= a[:, None]
    return Panel(
        cluster_ids=table.cluster_ids,
        start_periods=a,
        y=np.where(treated, table.y1, table.y0),
        z=np.where(treated, table.z1, table.z0),
    )
