import math

import numpy as np
import pytest
from scipy.stats import chisquare

from crtnd import (
    ClusterPeriodRecord,
    ClusterRecord,
    Panel,
    ParallelScheme,
    PeriodPotentialTable,
    PotentialTable,
    SteppedWedgeScheme,
    derive_rng,
    enumerate_assignments,
    log_contrast,
    realize,
    sample_assignment,
    sample_assignments,
)
from crtnd.errors import DimensionMismatch, IncompletePanel, SupportTooLarge, ZeroCount


class TestLogContrast:
    def test_equal_counts(self):
        assert log_contrast(ClusterRecord("a", 0, 10, 10)) == 0.0

    def test_direct_substitution(self):
        val = log_contrast(ClusterRecord("a", 0, 20, 10))
        assert val == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_count_raises(self):
        with pytest.raises(ZeroCount) as exc:
            log_contrast(ClusterRecord("a", 0, 0, 10))
        assert "a" in str(exc.value)

    def test_continuity_correction(self):
        val = log_contrast(ClusterRecord("a", 0, 0, 10), correction=True)
        assert val == pytest.approx(math.log(0.5) - math.log(10.5))


class TestRecords:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ClusterRecord("a", 0, -1.0, 5.0)

    def test_bad_arm_rejected(self):
        with pytest.raises(ValueError):
            ClusterRecord("a", 2, 1.0, 5.0)

    def test_real_valued_counts_accepted(self):
        rec = ClusterRecord("a", 1, 12.75, 3.2)
        assert rec.y_count == 12.75

    def test_dose_range(self):
        with pytest.raises(ValueError):
            ClusterRecord("a", 0, 1, 1, dose=1.5)


class TestSchemes:
    def test_parallel_counts(self):
        assert ParallelScheme(4, 2).total_assignments == 6
        assert ParallelScheme(24, 12).total_assignments == 2_704_156

    def test_parallel_needs_both_arms(self):
        with pytest.raises(ValueError):
            ParallelScheme(4, 0)
        with pytest.raises(ValueError):
            ParallelScheme(4, 4)

    def test_sw_multinomial_count(self):
        assert SteppedWedgeScheme(3, (1, 1, 1)).total_assignments == 6
        assert SteppedWedgeScheme(4, (1, 2, 1)).total_assignments == 12

    def test_sw_analysis_periods_skip_empty(self):
        scheme = SteppedWedgeScheme(4, (0, 2, 2))
        assert scheme.analysis_periods == (2,)

    def test_sw_q_must_sum_to_m(self):
        with pytest.raises(ValueError):
            SteppedWedgeScheme(4, (1, 1, 1))


class TestEnumeration:
    def test_parallel_exhaustive_and_distinct(self):
        out = [tuple(a) for a in enumerate_assignments(ParallelScheme(5, 2))]
        assert len(out) == 10
        assert len(set(out)) == 10
        assert all(sum(a) == 2 for a in out)

    def test_sw_exhaustive_and_distinct(self):
        scheme = SteppedWedgeScheme(4, (1, 2, 1))
        out = [tuple(a) for a in enumerate_assignments(scheme)]
        assert len(out) == 12
        assert len(set(out)) == 12
        for a in out:
            assert sorted(a) == [1, 2, 2, 3]

    def test_order_is_lexicographic_and_stable(self):
        out = [tuple(a) for a in enumerate_assignments(ParallelScheme(4, 2))]
        assert out == sorted(out, reverse=True) or out == sorted(out)
        again = [tuple(a) for a in enumerate_assignments(ParallelScheme(4, 2))]
        assert out == again

    def test_cap_enforced(self):
        with pytest.raises(SupportTooLarge):
            list(enumerate_assignments(ParallelScheme(40, 20), cap=1000))


class TestSampling:
    def test_uniform_two_arms(self):
        scheme = ParallelScheme(2, 1)
        rng = derive_rng(11)
        hits = sum(sample_assignment(scheme, rng)[0] for _ in range(10_000))
        assert abs(hits / 10_000 - 0.5) < 0.01

    def test_determinism_across_runs(self):
        a = [tuple(sample_assignment(ParallelScheme(8, 3), derive_rng(5, i)))
             for i in range(10)]
        b = [tuple(sample_assignment(ParallelScheme(8, 3), derive_rng(5, i)))
             for i in range(10)]
        assert a == b

    def test_chi_square_uniformity_parallel(self):
        # all 6 assignments of C(4,2) at 1e5 draws, alpha = 0.001
        scheme = ParallelScheme(4, 2)
        support = {tuple(a): 0 for a in enumerate_assignments(scheme)}
        rng = derive_rng(202)
        n = 100_000
        for _ in range(n):
            support[tuple(sample_assignment(scheme, rng))] += 1
        stat, p = chisquare(list(support.values()))
        assert p > 0.001

    def test_chi_square_uniformity_sw(self):
        scheme = SteppedWedgeScheme(3, (1, 1, 1))
        support = {tuple(a): 0 for a in enumerate_assignments(scheme)}
        rng = derive_rng(203)
        n = 60_000
        for _ in range(n):
            support[tuple(sample_assignment(scheme, rng))] += 1
        stat, p = chisquare(list(support.values()))
        assert p > 0.001


def argsort_rows(u, m1):
    """Reference construction: the m1 smallest uniforms of a row by argsort."""
    order = np.argsort(u, axis=1)
    out = np.zeros(u.shape, dtype=np.int64)
    np.put_along_axis(out, order[:, :m1], 1, axis=1)
    return out


class TestSampleAssignments:
    @pytest.mark.parametrize("m, m1", [(24, 12), (24, 1), (7, 6), (9, 4)])
    def test_matches_argsort_construction(self, m, m1):
        scheme = ParallelScheme(m, m1)
        for seed in range(100):
            rows = sample_assignments(scheme, 199, derive_rng(seed, 3))
            u = derive_rng(seed, 3).random((199, m))
            expected = argsort_rows(u, m1)
            assert rows.dtype == expected.dtype
            assert np.array_equal(rows, expected)

    def test_tie_at_the_threshold_follows_the_sort_order(self):
        class TiedUniforms:
            """A generator stub whose uniforms tie at the m1-th smallest."""

            def __init__(self, u):
                self.u = u

            def random(self, shape):
                assert shape == self.u.shape
                return self.u.copy()

        u = np.array(
            [[0.5, 0.1, 0.5, 0.9, 0.5, 0.2],  # 0.5 three times, m1 = 3
             [0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
             [0.6, 0.5, 0.4, 0.3, 0.2, 0.1]]
        )
        rows = sample_assignments(ParallelScheme(6, 3), 3, TiedUniforms(u))
        assert np.array_equal(rows, argsort_rows(u, 3))
        assert np.all(rows.sum(axis=1) == 3)


class TestPotentialTables:
    def test_eq2_ratios_exact(self):
        rng = np.random.default_rng(1)
        t = PotentialTable(
            lam=0.6,
            y0=rng.uniform(5, 50, 8),
            z0=rng.uniform(5, 50, 8),
            c=rng.uniform(0.2, 2.0, 8),
        )
        assert np.allclose(t.y1 / t.y0, 0.6 * t.c, rtol=1e-15, atol=0)
        assert np.allclose(t.z1 / t.z0, t.c, rtol=1e-15, atol=0)

    def test_log_contrast_shift_identity(self):
        rng = np.random.default_rng(2)
        for lam in (1.0, 0.6, 0.2, 3.7):
            t = PotentialTable(
                lam=lam,
                y0=rng.uniform(5, 50, 10),
                z0=rng.uniform(5, 50, 10),
                c=rng.uniform(0.2, 2.0, 10),
            )
            np.testing.assert_allclose(
                t.l1() - t.l0(), math.log(lam), rtol=0, atol=1e-12
            )

    def test_realize_selects_by_arm(self):
        t = PotentialTable(lam=0.5, y0=[10.0], z0=[20.0], c=[0.8], cluster_ids=("a",))
        treated = realize(t, [1])[0]
        control = realize(t, [0])[0]
        assert treated.y_count == pytest.approx(4.0, abs=0)
        assert treated.z_count == pytest.approx(16.0, abs=0)
        assert control.y_count == 10.0

    def test_realize_null_homogeneous_invariant(self):
        t = PotentialTable(lam=1.0, y0=[10.0, 20], z0=[20.0, 30], c=[1.0, 1.0])
        a = realize(t, [0, 1])
        b = realize(t, [1, 0])
        assert [(r.y_count, r.z_count) for r in a] == [
            (r.y_count, r.z_count) for r in b
        ]

    def test_realize_pure(self):
        t = PotentialTable(lam=0.7, y0=[10.0, 20], z0=[20.0, 30], c=[0.5, 1.5])
        r1 = realize(t, [0, 1])
        r2 = realize(t, [0, 1])
        assert r1 == r2

    def test_dimension_mismatch(self):
        t = PotentialTable(lam=1.0, y0=[10.0, 20], z0=[20.0, 30], c=[1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            realize(t, [0, 1, 1])

    def test_sw_realize_start_inclusive(self):
        t = PeriodPotentialTable(
            lam=0.5,
            y0=np.full((2, 3), 10.0),
            z0=np.full((2, 3), 20.0),
            c=np.full((2, 3), 1.0),
        )
        panel = realize(t, [2, 3])
        # cluster 0 starts at period 2: treated at t=2 and t=3
        assert panel.y[0].tolist() == [10.0, 5.0, 5.0]
        assert panel.y[1].tolist() == [10.0, 10.0, 5.0]


class TestPanel:
    def _records(self):
        recs = []
        for cid, start in (("a", 1), ("b", 2)):
            for t in (1, 2):
                recs.append(ClusterPeriodRecord(cid, t, start, 10.0 + t, 20.0))
        return recs

    def test_complete_panel(self):
        panel = Panel.from_records(self._records())
        assert panel.m == 2
        assert panel.n_periods == 2
        assert panel.start_periods == (1, 2)

    def test_missing_cell(self):
        with pytest.raises(IncompletePanel) as exc:
            Panel.from_records(self._records()[:-1])
        assert "b" in str(exc.value)

    def test_duplicate_cell(self):
        recs = self._records()
        recs.append(ClusterPeriodRecord("a", 1, 1, 5.0, 5.0))
        with pytest.raises(IncompletePanel):
            Panel.from_records(recs)

    def test_inconsistent_start(self):
        recs = self._records()
        recs[1] = ClusterPeriodRecord("a", 2, 2, 10.0, 20.0)
        with pytest.raises(IncompletePanel):
            Panel.from_records(recs)

    def test_treated_at_inclusive(self):
        panel = Panel.from_records(self._records())
        assert panel.treated_at(1).tolist() == [True, False]
        assert panel.treated_at(2).tolist() == [True, True]


class TestEnumerationMeanOracle:
    def test_m4_mean_log_contrast_difference_is_log_lam(self):
        # enumeration over all C(4,2)=6 assignments: mean of the
        # difference-in-means of L equals log(lam) exactly, for arbitrary
        # positive counts and ascertainments
        rng = np.random.default_rng(9)
        for trial in range(20):
            lam = float(rng.uniform(0.05, 5.0))
            t = PotentialTable(
                lam=lam,
                y0=rng.uniform(0.5, 80, 4),
                z0=rng.uniform(0.5, 80, 4),
                c=rng.uniform(0.05, 3.0, 4),
            )
            ests = []
            for a in enumerate_assignments(ParallelScheme(4, 2)):
                recs = realize(t, a)
                lvals = np.array(
                    [math.log(r.y_count) - math.log(r.z_count) for r in recs]
                )
                arms = a.astype(bool)
                ests.append(lvals[arms].mean() - lvals[~arms].mean())
            assert np.mean(ests) == pytest.approx(math.log(lam), abs=1e-12)
