"""Exception types raised across the package.

Every error that callers are expected to catch derives from
:class:`CrtndError`.  Validation problems in input files derive from
:class:`DataError` and carry enough position information (line, column)
to point a user at the offending cell.
"""

from __future__ import annotations


class CrtndError(Exception):
    """Base class for all package-specific errors."""


class ZeroCount(CrtndError):
    """A log-contrast was requested for a cluster with a zero count."""

    def __init__(self, cluster_id: str, which: str):
        self.cluster_id = cluster_id
        self.which = which
        super().__init__(
            f"cluster {cluster_id!r} has a zero {which} count; the log-contrast "
            "is undefined (enable the continuity correction to proceed)"
        )


class DimensionMismatch(CrtndError):
    """An assignment vector does not match the table it is applied to."""


class SupportTooLarge(CrtndError):
    """Exact enumeration was requested over a support above the cap."""

    def __init__(self, total: int, cap: int):
        self.total = total
        self.cap = cap
        super().__init__(
            f"assignment support has {total} elements, above the enumeration "
            f"cap of {cap}; use Monte Carlo sampling instead"
        )


class ZeroArmTotal(CrtndError):
    """An arm-level count sum required by the odds-ratio estimator is zero."""

    def __init__(self, which: str):
        self.which = which
        super().__init__(f"arm-level sum {which} is zero; odds ratio undefined")


class EmptyCluster(CrtndError):
    """A cluster has no test-positive or test-negative observations."""

    def __init__(self, cluster_id: str):
        self.cluster_id = cluster_id
        super().__init__(f"cluster {cluster_id!r} has y + z == 0")


class ZeroPositiveTotal(CrtndError):
    """The pooled test-positive count is zero, so r is undefined."""


class NoAdmissibleRoot(CrtndError):
    """The observed statistic lies outside the attainable range."""

    def __init__(self, t: float, r: float, bound: float):
        self.t = t
        self.r = r
        self.bound = bound
        super().__init__(
            f"statistic T={t:.6g} is outside the attainable range "
            f"(-{bound:.6g}, {bound:.6g}) for r={r:.6g}; no positive root exists"
        )


class AmbiguousRoot(CrtndError):
    """Two positive roots survived root selection (internal error)."""


class ArmTooSmall(CrtndError):
    """An arm (or a per-period arm) has too few clusters for the method."""

    def __init__(self, detail: str):
        super().__init__(detail)


class RankDeficientCovariates(CrtndError):
    """An arm-wise covariate design matrix is not full column rank."""


class MissingDose(CrtndError):
    """A dose-response method was invoked on records without doses."""

    def __init__(self, cluster_id: str):
        self.cluster_id = cluster_id
        super().__init__(f"cluster {cluster_id!r} has no dose value")


class ConstantDose(CrtndError):
    """All clusters share one dose value, so the instrument has no bite."""


class StatisticUndefined(CrtndError):
    """A permutation statistic could not be evaluated for some assignment."""


class NoNonRejectedPoint(CrtndError):
    """Test inversion found no parameter value with p above alpha."""


class IncompletePanel(CrtndError):
    """A stepped-wedge panel is missing (cluster, period) cells."""

    def __init__(self, detail: str):
        super().__init__(detail)


class SingularCovariance(CrtndError):
    """A covariance matrix is singular or too ill-conditioned to invert."""


class DegenerateReplicateLimit(CrtndError):
    """More than the tolerated share of simulation replicates degenerated."""


class DataError(CrtndError):
    """Base class for dataset and scenario file problems."""


class ParseError(DataError):
    """A malformed cell or row in an input file."""

    def __init__(self, line: int, column: str, reason: str):
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"line {line}, column {column!r}: {reason}")


class SchemaError(DataError):
    """An input file is missing required columns or has unknown ones."""
