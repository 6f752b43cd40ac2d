import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from crtnd import (
    Panel,
    ParallelScheme,
    PeriodPotentialTable,
    PotentialTable,
    SteppedWedgeScheme,
    Trial,
    derive_rng,
    enumerate_assignments,
    log_contrasts,
    realize,
    sample_assignment,
    sample_assignments,
)
from crtnd import core
from crtnd.core import randomize
from crtnd.errors import DimensionMismatch, SupportTooLarge, ZeroCount


def log_contrast(y, z):
    """The log-contrast of counts ``y`` and ``z``, from a trial of it and
    one other cluster."""
    return log_contrasts(Trial(("a", "b"), [0, 1], [y, 1.0], [z, 1.0]))[0]


class TestLogContrast:
    def test_equal_counts(self):
        assert log_contrast(10, 10) == 0.0

    def test_direct_substitution(self):
        val = log_contrast(20, 10)
        assert val == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_count_raises(self):
        with pytest.raises(ZeroCount) as exc:
            log_contrast(0, 10)
        assert "a" in str(exc.value)


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
        assert rows.dtype == np.uint8  # start periods take one byte each
        assert [tuple(int(v) for v in r) for r in rows] == permutations_oracle(base)

    def test_start_label_beyond_the_observed_window(self):
        # two clusters start at period 3 of a 2-period panel: never treated
        panel = Panel(
            cluster_ids=("a", "b", "c", "d"),
            start_periods=(3, 1, 3, 2),
            y=np.ones((4, 2)),
            z=np.ones((4, 2)),
        )
        rows = randomize(panel.scheme, "exact", 0, (0,)).rows()
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

    def test_monte_carlo_wedge_blocks_hold_one_byte_starts(self, monkeypatch):
        # rows per block follow 8 bytes per entry, whatever the row type
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 24 * 100)
        scheme = SteppedWedgeScheme(24, (3,) * 8)
        blocks = list(randomize(scheme, "monte_carlo", 250, (5, 0x5E)).blocks())
        assert [b.shape[0] for b in blocks] == [100, 100, 50]
        assert all(b.dtype == np.uint8 for b in blocks)
        expected = sample_assignments(scheme, 250, derive_rng(5, 0x5E))
        np.testing.assert_array_equal(np.concatenate(blocks), expected)

    def test_support_too_large_raises_before_any_block(self, monkeypatch):
        built = []
        monkeypatch.setattr(core, "_support_blocks", lambda *a: built.append(a))
        with pytest.raises(SupportTooLarge):
            randomize(ParallelScheme(40, 20), "exact", 0, (0,))
        assert built == []

    @pytest.mark.parametrize(
        "mode, m, expected_mode, reason",
        [
            ("auto", 16, "exact", "auto: support 12870 <= 100000"),
            ("auto", 20, "monte_carlo", "auto: support 184756 > 100000"),
            ("exact", 16, "exact", "exact requested"),
            ("monte_carlo", 16, "monte_carlo", "monte_carlo requested"),
        ],
    )
    def test_mode_reason_and_p_arithmetic(self, mode, m, expected_mode, reason):
        rz = randomize(ParallelScheme(m, m // 2), mode, 99, (1,))
        support = math.comb(m, m // 2)
        assert (rz.mode, rz.reason, rz.support_size) == (expected_mode, reason, support)
        if expected_mode == "exact":
            assert (rz.n_rows, rz.add_one, rz.denom) == (support, 0, support)
            assert rz.p(10) == 10 / support
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

    @pytest.mark.parametrize("n_draws", [0, -4])
    def test_monte_carlo_needs_a_draw(self, n_draws):
        with pytest.raises(ValueError, match="n_draws >= 1"):
            randomize(ParallelScheme(24, 12), "monte_carlo", n_draws, (1,))
        # an exact support draws nothing, so the count is not read
        assert randomize(ParallelScheme(6, 3), "auto", n_draws, (1,)).n_rows == 20


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
        counts = [(float(rng.integers(20, 80)), float(rng.integers(60, 160)))
                  for _ in range(m)]
        y, z = zip(*counts)
        return Trial(tuple(f"c{i:02d}" for i in range(m)), [i < m1 for i in range(m)], y, z)

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
                         mode="monte_carlo", n_draws=60, seed=7)
        sw_permutation_test(self.panel(), 1.0, mode="monte_carlo", n_draws=60, seed=7)
        _sw_pvalue_function(self.panel(), "equal", mode="monte_carlo", n_draws=60, seed=7)
        # C(20, 10) = 184756 relabelings: above the enumeration limit
        report = odds_ratio_estimate(self.records(20, 10), se_draws=60, seed=7)
        assert report.diagnostics["se_source"] == "permutation-mc(60)"
        streams = [(7, 0xBE), (7, 0xC1), (7, 0x5E), (7, 0x5E), (7, 0x0D)]
        assert len(made) == len(streams)
        for rz, stream in zip(made, streams):
            self.check(rz, stream)

    def test_simulation_streams(self, made):
        # the permutation column draws one set of relabelings per block of
        # _BLOCK replicates: rep's block is rep // _BLOCK
        from crtnd import SimScenario, evaluate
        from crtnd.simulation import _BLOCK

        n = 2 * _BLOCK + 1
        scenario = SimScenario(
            scenario_id="streams", design=ParallelScheme(24, 12),
            baseline_y=tuple(range(30, 54)), baseline_z=tuple(range(80, 104)),
            n_replicates=n, seed=9,
        )
        evaluate(scenario, ("log_contrast",), perm_draws=40)
        assert len(made) == 3
        for block, rz in enumerate(made):
            self.check(rz, (9, 3, block))

        made.clear()
        q = (2, 2, 2, 2)
        wedge = SimScenario(
            scenario_id="wedge-streams", design=SteppedWedgeScheme(8, q),
            baseline_y=tuple(tuple(40.0 + i + t for t in range(4)) for i in range(8)),
            baseline_z=tuple(100.0 + i for i in range(8)),
            n_replicates=n, seed=9,
        )
        evaluate(wedge, ("sw_equal",), perm_draws=40)
        assert len(made) == 3
        for block, rz in enumerate(made):
            nested = int(derive_rng(9, 3, block).integers(2**31))
            self.check(rz, (nested, 0x5E))


class TestHeldDraws:
    """A Monte Carlo draw that fits in one block is made once per (scheme,
    rows, stream): every test and CI of a command on that stream reads the
    same read-only rows, bit for bit those of a fresh draw."""

    @pytest.fixture
    def draws(self, monkeypatch):
        """The row counts of every ``sample_assignments`` call, from an
        empty memo."""
        drawn, sample, held = [], core.sample_assignments, core._held_draw

        def spy(scheme, n, rng, *args):
            drawn.append(n)
            return sample(scheme, n, rng, *args)

        held.cache_clear()
        monkeypatch.setattr(core, "sample_assignments", spy)
        yield drawn
        held.cache_clear()

    @staticmethod
    def run(argv, out):
        """The report of one command, as bytes."""
        from crtnd.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("command, fresh", [
        # four permutation tests (0xBE), the TPF, log-contrast and
        # covariate-adjusted CIs (0xC1) and the odds ratio's SE (0x0D)
        ("analyze", 8),
        # the test and the CI, both on 0x5E
        ("analyze-sw", 2),
    ])
    def test_a_command_draws_each_stream_once(self, draws, monkeypatch, tmp_path,
                                              command, fresh):
        from conftest import benchmark_inputs

        if command == "analyze":
            benchmark_inputs("trial-analysis", 1, tmp_path)
            data = ["--input", str(tmp_path / "trial_0.csv")]
        else:
            benchmark_inputs("exact-inference", 1, tmp_path)
            data = ["--input", str(tmp_path / "wedge_0.csv"), "--mode", "monte-carlo"]
        argv = [command, *data, "--ci-method", "invert-permutation", "--seed", "100001"]
        held = self.run(argv, tmp_path / "report.json")
        if command == "analyze":
            methods = [r["method"] for r in json.loads(held)["results"]]
            assert methods == ["odds_ratio", "tpf", "log_contrast", "covariate_adjusted"]
        assert draws == [2000] * (3 if command == "analyze" else 1)
        # with every call drawing its rows afresh, the report is the same
        draws.clear()
        monkeypatch.setattr(core, "_held_draw", core._held_draw.__wrapped__)
        assert self.run(argv, tmp_path / "report.json") == held
        assert draws == [2000] * fresh

    def test_held_rows_are_read_only_and_shared(self, draws):
        scheme = ParallelScheme(24, 12)
        rows = randomize(scheme, "monte_carlo", 500, (5, 0xBE)).rows()
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1.0
        again = randomize(scheme, "auto", 500, (5, 0xBE))
        assert next(again.blocks()) is rows
        np.testing.assert_array_equal(rows, sample_assignments(scheme, 500, derive_rng(5, 0xBE)))
        assert draws == [500]

    def test_rows_differ_by_scheme_count_and_stream(self, draws):
        wedge = SteppedWedgeScheme(24, (3,) * 8)
        keys = [(ParallelScheme(24, 12), 500, (5, 0xBE)), (ParallelScheme(24, 11), 500, (5, 0xBE)),
                (ParallelScheme(24, 12), 499, (5, 0xBE)), (ParallelScheme(24, 12), 500, (5, 0xC1)),
                (wedge, 500, (5, 0xBE))]
        for scheme, n, stream in keys:
            rows = randomize(scheme, "monte_carlo", n, stream).rows()
            expected = sample_assignments(scheme, n, derive_rng(*stream))
            np.testing.assert_array_equal(rows, expected)
            assert rows.dtype == (np.float64 if scheme is not wedge else np.uint8)
        assert len(draws) == len(keys)

    def test_the_memo_keeps_the_last_few_draws(self, draws):
        scheme = ParallelScheme(24, 12)
        for seed in range(core._HELD_DRAWS + 1):
            randomize(scheme, "monte_carlo", 100, (seed, 0xBE)).rows()
        assert core._held_draw.cache_info().currsize == core._HELD_DRAWS
        randomize(scheme, "monte_carlo", 100, (core._HELD_DRAWS, 0xBE)).rows()
        assert len(draws) == core._HELD_DRAWS + 1
        randomize(scheme, "monte_carlo", 100, (0, 0xBE)).rows()  # evicted first
        assert len(draws) == core._HELD_DRAWS + 2

    def test_a_draw_larger_than_a_block_is_drawn_again(self, draws):
        # 30,000 rows of 24 clusters are two blocks of at most 21,845
        import tracemalloc

        from crtnd.inference import NullSpec, permutation_test

        assert core._block_rows(24) == 21_845
        rng = np.random.default_rng(2)
        trial = Trial(tuple(f"c{i:02d}" for i in range(24)), [i < 12 for i in range(24)],
                      rng.integers(20, 80, 24), rng.integers(60, 160, 24))
        null = NullSpec("relative_risk", 1.0)
        options = dict(mode="monte_carlo", n_draws=30_000, seed=4)
        first = permutation_test(trial, null, **options)
        tracemalloc.start()
        try:
            assert permutation_test(trial, null, **options) == first
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert draws == [21_845, 8_155] * 2
        assert core._held_draw.cache_info().currsize == 0
        assert held < 8 * 24 * 8_155  # not even the last block is kept
        blocks = list(randomize(trial.scheme, "monte_carlo", 30_000, (4, 0xBE)).blocks())
        assert all(b.flags.writeable for b in blocks)

    def test_exact_analyze_enumerates_per_call(self, draws, monkeypatch, tmp_path):
        from conftest import benchmark_inputs

        support, calls = core._support_blocks, []

        def spy(*args):
            calls.append(args[0])
            return support(*args)

        monkeypatch.setattr(core, "_support_blocks", spy)
        benchmark_inputs("exact-inference", 1, tmp_path)
        argv = ["analyze", "--input", str(tmp_path / "exact_0.csv"), "--mode", "exact",
                "--ci-method", "invert-permutation", "--estimators", "odds_ratio,tpf,log_contrast"]
        self.run(argv, tmp_path / "report.json")
        # the odds ratio's SE, three tests and two CIs each enumerate anew
        assert len(calls) == 6 and len(set(calls)) == 1
        assert draws == []


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
        t = PotentialTable(lam=0.5, y0=[10.0, 10.0], z0=[20.0, 20.0], c=[0.8, 0.8],
                           cluster_ids=("a", "b"))
        trial = realize(t, [1, 0])
        assert trial.y[0] == pytest.approx(4.0, abs=0)
        assert trial.z[0] == pytest.approx(16.0, abs=0)
        assert trial.y[1] == 10.0

    def test_realize_null_homogeneous_invariant(self):
        t = PotentialTable(lam=1.0, y0=[10.0, 20], z0=[20.0, 30], c=[1.0, 1.0])
        a = realize(t, [0, 1])
        b = realize(t, [1, 0])
        assert (a.y.tolist(), a.z.tolist()) == (b.y.tolist(), b.z.tolist())

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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("table, shape", [(PotentialTable, (2,)),
                                              (PeriodPotentialTable, (2, 3))])
    def test_lam_must_be_finite_positive(self, table, shape, lam):
        cells = {name: np.full(shape, 10.0) for name in ("y0", "z0", "c")}
        with pytest.raises(ValueError, match="^lam must be a finite positive real, got "):
            table(lam=lam, **cells)


class TestPanel:
    def test_treated_is_start_inclusive(self):
        panel = Panel(("a", "b"), (1, 2), [[11.0, 12.0]] * 2, [[20.0, 20.0]] * 2)
        assert panel.treated.tolist() == [[True, True], [False, True]]


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
                trial = realize(t, a)
                lvals = np.array(
                    [math.log(y) - math.log(z) for y, z in zip(trial.y, trial.z)]
                )
                arms = a.astype(bool)
                ests.append(lvals[arms].mean() - lvals[~arms].mean())
            assert np.mean(ests) == pytest.approx(math.log(lam), abs=1e-12)
