import itertools
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
from crtnd import core
from crtnd.core import randomize
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
        # treated first: arm vectors descend
        out = [tuple(a) for a in enumerate_assignments(ParallelScheme(4, 2))]
        assert out == sorted(out, reverse=True)
        again = [tuple(a) for a in enumerate_assignments(ParallelScheme(4, 2))]
        assert out == again

    def test_cap_enforced(self):
        with pytest.raises(SupportTooLarge):
            list(enumerate_assignments(ParallelScheme(40, 20), cap=1000))


def combinations_oracle(m, m1):
    """0/1 arm vectors in itertools.combinations order of the treated sets."""
    rows = []
    for treated in itertools.combinations(range(m), m1):
        a = [0] * m
        for i in treated:
            a[i] = 1
        rows.append(tuple(a))
    return rows


def permutations_oracle(base):
    return sorted(set(itertools.permutations(base)))


WEDGE_QS = [
    (2, 2, 2, 2),
    (0, 2, 2, 2, 2),  # a label no cluster takes
    (1, 1, 2, 2, 3),
    (3, 0, 1, 2),
    (2, 3),
    (2, 2, 2, 2, 0),  # the last label empty
    (2, 2, 2),  # where a product of per-label combinations is out of order
]


class TestRandomizationEngine:
    @pytest.mark.parametrize("m, m1", [(5, 2), (8, 3), (8, 4), (7, 1), (7, 6)])
    def test_parallel_rows_in_combinations_order(self, m, m1):
        rz = randomize(ParallelScheme(m, m1), "exact", 0, (0,))
        rows = rz.rows()
        assert rows.dtype == np.float64
        assert [tuple(int(v) for v in r) for r in rows] == combinations_oracle(m, m1)

    @pytest.mark.parametrize("q", WEDGE_QS)
    def test_wedge_rows_in_lexicographic_order(self, q):
        scheme = SteppedWedgeScheme(sum(q), q)
        base = [t + 1 for t, count in enumerate(q) for _ in range(count)]
        rows = randomize(scheme, "exact", 0, (0,)).rows()
        assert rows.dtype == np.int64
        assert [tuple(int(v) for v in r) for r in rows] == permutations_oracle(base)

    def test_start_label_beyond_the_observed_window(self):
        from crtnd.stepped_wedge import _start_scheme

        # two clusters start at period 3 of a 2-period panel: never treated
        panel = Panel(
            cluster_ids=("a", "b", "c", "d"),
            start_periods=(3, 1, 3, 2),
            y=np.ones((4, 2)),
            z=np.ones((4, 2)),
        )
        rows = randomize(_start_scheme(panel), "exact", 0, (0,)).rows()
        assert [tuple(int(v) for v in r) for r in rows] == permutations_oracle(
            (1, 2, 3, 3)
        )

    @pytest.mark.parametrize(
        "scheme", [ParallelScheme(8, 3), SteppedWedgeScheme(6, (1, 2, 0, 3))]
    )
    @pytest.mark.parametrize("rows_per_block", [1, 7, 10, 59, 60, 1000])
    def test_block_boundaries(self, monkeypatch, scheme, rows_per_block):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * scheme.m * rows_per_block)
        rz = randomize(scheme, "exact", 0, (0,))
        blocks = list(rz.blocks())
        assert all(0 < b.shape[0] <= rows_per_block for b in blocks)
        whole = randomize(scheme, "exact", 0, (0,))
        monkeypatch.setattr(core, "_BLOCK_BYTES", 4 << 20)
        np.testing.assert_array_equal(np.concatenate(blocks), whole.rows())
        assert sum(b.shape[0] for b in blocks) == scheme.total_assignments

    def test_monte_carlo_blocks_continue_one_stream(self, monkeypatch):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 24 * 100)
        scheme = ParallelScheme(24, 12)
        rz = randomize(scheme, "monte_carlo", 1234, (5, 0xBE))
        blocks = list(rz.blocks())
        assert [b.shape[0] for b in blocks] == [100] * 12 + [34]
        expected = sample_assignments(scheme, 1234, derive_rng(5, 0xBE))
        np.testing.assert_array_equal(np.concatenate(blocks), expected)
        np.testing.assert_array_equal(rz.rows(), expected)  # the same again

    def test_support_too_large_raises_before_any_block(self, monkeypatch):
        built = []
        monkeypatch.setattr(core, "_support_blocks", lambda *a: built.append(a))
        with pytest.raises(SupportTooLarge):
            randomize(ParallelScheme(40, 20), "exact", 0, (0,))
        assert built == []

    @pytest.mark.parametrize(
        "mode, limit, expected_mode, reason",
        [
            ("auto", 100_000, "exact", "auto: support 12870 <= 100000"),
            ("auto", 12869, "monte_carlo", "auto: support 12870 > 12869"),
            ("exact", 100_000, "exact", "exact requested"),
            ("monte_carlo", 100_000, "monte_carlo", "monte_carlo requested"),
        ],
    )
    def test_mode_reason_and_p_arithmetic(self, mode, limit, expected_mode, reason):
        rz = randomize(ParallelScheme(16, 8), mode, 99, (1,), limit)
        assert (rz.mode, rz.reason, rz.support_size) == (expected_mode, reason, 12870)
        if expected_mode == "exact":
            assert (rz.n_rows, rz.add_one, rz.denom) == (12870, 0, 12870)
            assert rz.p(10) == 10 / 12870
        else:
            assert (rz.n_rows, rz.add_one, rz.denom) == (99, 1, 100)
            assert rz.p(10) == 11 / 100

    def test_auto_threshold_is_the_module_constant(self):
        assert core.AUTO_EXACT_LIMIT == 100_000
        assert randomize(ParallelScheme(18, 9), "auto", 5, (1,)).mode == "exact"
        assert randomize(ParallelScheme(20, 10), "auto", 5, (1,)).mode == "monte_carlo"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            randomize(ParallelScheme(4, 2), "bootstrap", 5, (1,))


class TestStreams:
    """Each caller draws its Monte Carlo rows from its own fixed stream,
    and the engine's rows are those of one ``sample_assignments`` call."""

    @pytest.fixture
    def made(self, monkeypatch):
        from crtnd import estimators, inference, simulation, stepped_wedge

        made = []

        def spy(*args, **kwargs):
            made.append(randomize(*args, **kwargs))
            return made[-1]

        for module in (estimators, inference, simulation, stepped_wedge):
            monkeypatch.setattr(module, "randomize", spy)
        return made

    @staticmethod
    def check(rz, stream):
        assert rz.mode == "monte_carlo"
        assert rz.stream == stream
        expected = sample_assignments(rz.scheme, rz.n_rows, derive_rng(*stream))
        np.testing.assert_array_equal(rz.rows(), expected)

    @staticmethod
    def records(m=18, m1=9):
        rng = np.random.default_rng(3)
        return [
            ClusterRecord(f"c{i:02d}", int(i < m1), float(rng.integers(20, 80)),
                          float(rng.integers(60, 160)))
            for i in range(m)
        ]

    @staticmethod
    def panel():
        rng = np.random.default_rng(4)
        return Panel(
            cluster_ids=tuple(f"c{i}" for i in range(8)),
            start_periods=(1, 1, 2, 2, 3, 3, 4, 4),
            y=rng.integers(20, 60, size=(8, 4)).astype(float),
            z=rng.integers(40, 90, size=(8, 4)).astype(float),
        )

    def test_analysis_streams(self, made):
        from crtnd import odds_ratio_estimate, permutation_test, sw_permutation_test
        from crtnd.inference import NullSpec, _pvalue_function
        from crtnd.stepped_wedge import _sw_pvalue_function

        recs = self.records()
        permutation_test(recs, NullSpec("relative_risk", 1.0), mode="monte_carlo",
                         n_draws=60, seed=7)
        _pvalue_function(recs, "log_contrast", adjustment="none",
                         mode="monte_carlo", n_draws=60, seed=7, correction=False)
        sw_permutation_test(self.panel(), 1.0, mode="monte_carlo", n_draws=60, seed=7)
        _sw_pvalue_function(self.panel(), "equal", mode="monte_carlo", n_draws=60,
                            seed=7, correction=False, convention="canonical")
        # C(18, 9) = 48620 relabelings: above the SE's enumeration limit
        report = odds_ratio_estimate(recs, se_draws=60, seed=7)
        assert report.diagnostics["se_source"] == "permutation-mc(60)"
        streams = [(7, 0xBE), (7, 0xC1), (7, 0x5E), (7, 0x5E), (7, 0x0D)]
        assert len(made) == len(streams)
        for rz, stream in zip(made, streams):
            self.check(rz, stream)

    def test_simulation_streams(self, made):
        from crtnd import SimScenario, evaluate

        scenario = SimScenario(
            scenario_id="streams", design=ParallelScheme(24, 12),
            baseline_y=tuple(range(30, 54)), baseline_z=tuple(range(80, 104)),
            n_replicates=2, seed=9,
        )
        evaluate(scenario, ("log_contrast",), perm_draws=40)
        for rep, rz in enumerate(made):
            self.check(rz, (9, 3, rep))

        made.clear()
        q = (2, 2, 2, 2)
        wedge = SimScenario(
            scenario_id="wedge-streams", design=SteppedWedgeScheme(8, q),
            baseline_y=tuple(tuple(40.0 + i + t for t in range(4)) for i in range(8)),
            baseline_z=tuple(100.0 + i for i in range(8)),
            n_replicates=2, seed=9,
        )
        evaluate(wedge, ("sw_equal",), perm_draws=40)
        assert len(made) == 2
        for rep, rz in enumerate(made):
            nested = int(derive_rng(9, 3, rep).integers(2**31))
            self.check(rz, (nested, 0x5E))


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
