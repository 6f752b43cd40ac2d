"""The parallel-arm array type and the record boundary around it."""

import math
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crtnd
from crtnd import (
    ClusterRecord,
    PotentialTable,
    Trial,
    covariate_adjusted_estimate,
    log_contrast_estimate,
    log_contrasts,
    realize,
)
from crtnd.dataio import emit_dataset, parse_dataset
from crtnd.errors import ArmTooSmall, DimensionMismatch, MissingDose, ZeroCount

from conftest import AWKWARD_COUNTS


def trial(**overrides):
    fields = dict(
        cluster_ids=("a", "b", "c"),
        arm=[1, 0, 1],
        y=[10.0, 20.0, 30.0],
        z=[40.0, 50.0, 60.0],
    )
    return Trial(**{**fields, **overrides})


class TestConstruction:
    def test_arrays_are_read_only_copies(self):
        y = np.array([10.0, 20.0, 30.0])
        t = trial(y=y)
        y[0] = 99.0
        assert t.y[0] == 10.0
        assert t.arm.dtype == bool and t.arm.tolist() == [True, False, True]
        assert t.x.shape == (3, 0) and t.dose is None
        with pytest.raises(ValueError):
            t.y[1] = 1.0

    @pytest.mark.parametrize("arm", [[1, 1, 1], [0, 0, 0]])
    def test_both_arms_needed(self, arm):
        with pytest.raises(ArmTooSmall):
            trial(arm=arm)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"cluster_ids": ("a", "b", "a")},
            {"cluster_ids": ()},
            {"arm": [1, 0, 2]},
            {"y": [10.0, -1.0, 30.0]},
            {"z": [40.0, math.inf, 60.0]},
            {"z": [40.0, math.nan, 60.0]},
            {"dose": [0.5, 1.5, 0.2]},
        ],
    )
    def test_invalid_values(self, overrides):
        with pytest.raises(ValueError):
            trial(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [{"y": [1.0, 2.0]}, {"x": np.ones(3)}, {"x": np.ones((2, 1))},
         {"dose": [0.1, 0.2]}],
    )
    def test_shapes(self, overrides):
        with pytest.raises(DimensionMismatch):
            trial(**overrides)

    def test_from_records_keeps_record_order(self):
        recs = [
            ClusterRecord("b", 0, 5, 6, covariates=(1.0, 2.0)),
            ClusterRecord("a", 1, 7, 8, covariates=(3.0, 4.0), dose=0.5),
        ]
        t = Trial.from_records(recs)
        assert t.cluster_ids == ("b", "a")
        assert t.arm.tolist() == [False, True]
        assert t.x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert np.isnan(t.dose[0]) and t.dose[1] == 0.5
        no_dose = [ClusterRecord("b", 0, 5, 6), ClusterRecord("c", 1, 1, 1)]
        assert Trial.from_records(no_dose).dose is None

    def test_from_records_needs_one_covariate_dimension(self):
        recs = [ClusterRecord("a", 0, 5, 6, covariates=(1.0,)),
                ClusterRecord("b", 1, 7, 8)]
        with pytest.raises(ValueError, match="covariates"):
            Trial.from_records(recs)

    def test_require_dose_names_the_first_missing_cluster(self):
        assert trial().dose is None
        with pytest.raises(MissingDose, match="'a'"):
            trial().require_dose()
        with pytest.raises(MissingDose, match="'b'"):
            trial(dose=[0.1, math.nan, math.nan]).require_dose()
        assert trial(dose=[0.1, 0.2, 0.3]).require_dose().tolist() == [0.1, 0.2, 0.3]

    def test_equality_compares_arrays(self):
        assert trial() == trial()
        assert trial(dose=[0.1, math.nan, 0.3]) == trial(dose=[0.1, math.nan, 0.3])
        assert trial() != trial(y=[10.0, 20.0, 31.0])
        assert trial() != trial(dose=[0.1, 0.2, 0.3])
        assert trial() != trial(x=np.ones((3, 1)))

    def test_realize_builds_a_trial(self):
        table = PotentialTable(lam=0.5, y0=[10.0, 10.0], z0=[20.0, 20.0],
                               c=[0.8, 0.8], covariates=[[1.0], [2.0]],
                               doses=np.array([0.9, 0.1]))
        t = realize(table, [1, 0])
        assert t == Trial(("c01", "c02"), [True, False], [4.0, 10.0], [16.0, 20.0],
                          [[1.0], [2.0]], [0.9, 0.1])


class TestLogContrasts:
    def test_elementwise_math_log(self):
        t = trial(y=[10.0, 20.0, 0.3], z=[40.0, 7.0, 1e-3])
        expected = [math.log(y) - math.log(z) for y, z in zip(t.y, t.z)]
        assert log_contrasts(t).tolist() == expected

    @pytest.mark.parametrize(
        "y, z, which",
        [([10.0, 0.0, 0.0], [40.0, 50.0, 0.0], "test-positive"),
         ([10.0, 20.0, 0.0], [40.0, 0.0, 60.0], "test-negative")],
    )
    def test_first_zero_count_is_named(self, y, z, which):
        with pytest.raises(ZeroCount) as exc:
            log_contrasts(trial(y=y, z=z))
        assert "'b'" in str(exc.value) and which in str(exc.value)


def test_only_core_and_dataio_name_cluster_record():
    # records are the I/O boundary; the package re-exports the type
    package = Path(crtnd.__file__).parent
    naming = sorted(
        path.name for path in package.glob("*.py")
        if "ClusterRecord" in path.read_text()
    )
    assert set(naming) <= {"core.py", "dataio.py", "__init__.py"}


# --------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------- #


@st.composite
def trials(draw):
    """Sorted-id trials with 0-3 covariates and no, full or partial doses."""
    m = draw(st.integers(2, 10))
    ids = sorted(draw(st.sets(
        st.text(string.ascii_letters + string.digits + "_-", min_size=1, max_size=5),
        min_size=m, max_size=m,
    )))
    arm = [1, 0] + draw(st.lists(st.integers(0, 1), min_size=m - 2, max_size=m - 2))
    arm = draw(st.permutations(arm))
    counts = st.lists(AWKWARD_COUNTS, min_size=m, max_size=m)
    p = draw(st.integers(0, 3))
    cov = st.floats(allow_nan=False, allow_infinity=False)
    x = draw(st.lists(st.lists(cov, min_size=p, max_size=p), min_size=m, max_size=m))
    dose = draw(st.one_of(
        st.none(),
        st.lists(st.one_of(st.just(math.nan), st.floats(0.0, 1.0)),
                 min_size=m, max_size=m),
    ))
    return Trial(tuple(ids), arm, draw(counts), draw(counts),
                 np.array(x, dtype=float).reshape(m, p), dose)


@settings(max_examples=150, deadline=None)
@given(trials())
def test_parse_of_emit_round_trips(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("rt") / "trial.csv"
    emit_dataset(t, path)
    kind, parsed = parse_dataset(path)
    assert kind == "parallel"
    assert parsed == t


# one cluster's log-contrast moves by at most a few ulp of |log(c y)|
SCALING_ATOL = 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(8, 16),
    st.integers(0, 15),
    st.floats(1e-3, 1e3),
)
def test_scaling_one_cluster_leaves_estimates_unchanged(seed, m, k, factor):
    rng = np.random.default_rng(seed)
    arms = np.array([1, 0] * (m // 2) + [1] * (m % 2))
    x = rng.uniform(0.0, 2.0, (m, 2))
    lvals = 0.4 * x[:, 0] - 0.3 * x[:, 1] + rng.normal(0.0, 0.5, m)
    ids = tuple(f"c{i:02d}" for i in range(m))
    z = rng.uniform(5.0, 500.0, m)
    before = Trial(ids, arms, np.exp(lvals) * z, z, x)
    scale = np.where(np.arange(m) == k % m, factor, 1.0)
    after = Trial(ids, arms, before.y * scale, before.z * scale, x)
    for estimate in (
        lambda t: log_contrast_estimate(t),
        lambda t: covariate_adjusted_estimate(t)[0],
    ):
        a, b = estimate(before), estimate(after)
        assert b.log_estimate == pytest.approx(a.log_estimate, rel=0, abs=SCALING_ATOL)
        assert b.se_log == pytest.approx(a.se_log, rel=0, abs=SCALING_ATOL)
