import math
import warnings

import numpy as np
import pytest

from crtnd import (
    Panel,
    PeriodPotentialTable,
    SteppedWedgeScheme,
    derive_rng,
    enumerate_assignments,
    log_contrast_estimate,
    optimal_weights,
    realize,
    sample_assignments,
    sw_covariance_estimate,
    sw_invert_ci,
    sw_log_contrast,
    sw_null_covariance,
    sw_oracle_covariance,
    sw_permutation_test,
)
from crtnd.core import Trial, randomize
from crtnd.dataio import parse_dataset
from crtnd.errors import ArmTooSmall, NoNonRejectedPoint, SingularCovariance
from crtnd.scenarios import SW_Q
from crtnd.stepped_wedge import SWWeights, _period_differences


def random_table(m, T, lam, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    return PeriodPotentialTable(
        lam=lam,
        y0=rng.uniform(10, 10 + 40 * spread, size=(m, T)),
        z0=rng.uniform(20, 20 + 60 * spread, size=(m, T)),
        c=rng.uniform(0.3, 1.7, size=(m, T)),
    )


def enumeration_diffs(table, scheme):
    """Per-period difference vectors over the full support."""
    out = []
    for a in enumerate_assignments(scheme):
        panel = realize(table, a)
        lmat = panel.log_contrast_matrix()
        out.append(
            _period_differences(
                lmat, np.asarray(panel.start_periods), panel.analysis_periods
            )
        )
    return np.array(out)


class TestEstimator:
    def test_constant_within_period_gives_zero(self):
        y = np.tile(np.array([[10.0, 20.0, 30.0]]), (4, 1))
        z = np.tile(np.array([[40.0, 40.0, 40.0]]), (4, 1))
        panel = Panel(
            cluster_ids=("a", "b", "c", "d"),
            start_periods=(1, 2, 3, 3),
            y=y,
            z=z,
        )
        rep = sw_log_contrast(panel, "equal", estimate_covariance=False)
        assert rep.log_estimate == pytest.approx(0.0, abs=1e-14)

    def test_t2_reduces_to_parallel(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(10, 60, size=(6, 2))
        z = rng.uniform(10, 60, size=(6, 2))
        starts = (1, 1, 1, 2, 2, 2)
        panel = Panel(cluster_ids=tuple("abcdef"), start_periods=starts, y=y, z=z)
        rep = sw_log_contrast(panel, "equal")
        records = Trial(tuple("abcdef"), [s == 1 for s in starts], y[:, 0], z[:, 0])
        par = log_contrast_estimate(records)
        assert rep.log_estimate == pytest.approx(par.log_estimate, abs=1e-12)
        assert rep.se_log == pytest.approx(par.se_log, abs=1e-12)

    def test_enumeration_unbiased_q022_with_leading_empty_period(self):
        # two clusters start at period 2, two at period 3; period 1 has
        # no treated cluster and is dropped with a warning
        scheme = SteppedWedgeScheme(4, (0, 2, 2))
        table = random_table(4, 3, 0.6, seed=5)
        ests = []
        for a in enumerate_assignments(scheme):
            panel = realize(table, a)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rep = sw_log_contrast(panel, "equal", estimate_covariance=False)
            assert rep.diagnostics["dropped_periods"] == [1]
            ests.append(rep.log_estimate)
        assert len(ests) == 6
        assert np.mean(ests) == pytest.approx(math.log(0.6), abs=1e-12)

    def test_enumeration_unbiased_any_weights_q121(self):
        scheme = SteppedWedgeScheme(4, (1, 2, 1))
        table = random_table(4, 3, 0.2, seed=6)
        for w in ((0.5, 0.5), (0.9, 0.1), (1.4, -0.4)):
            ests = []
            for a in enumerate_assignments(scheme):
                panel = realize(table, a)
                rep = sw_log_contrast(panel, w, estimate_covariance=False)
                ests.append(rep.log_estimate)
            assert np.mean(ests) == pytest.approx(math.log(0.2), abs=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SWWeights(w=(0.6, 0.6), kind="custom", periods=(1, 2))


class TestOracleCovariance:
    def test_enumeration_variance_matches_oracle_sigma(self):
        scheme = SteppedWedgeScheme(4, (1, 2, 1))
        table = random_table(4, 3, 0.6, seed=7)
        diffs = enumeration_diffs(table, scheme)
        enum_cov = np.cov(diffs.T, ddof=0)  # population covariance
        oracle = sw_oracle_covariance(table.l0(), scheme)
        np.testing.assert_allclose(oracle.sigma, enum_cov, atol=1e-10)

    def test_weighted_variance_matches_enumeration(self):
        scheme = SteppedWedgeScheme(4, (1, 2, 1))
        table = random_table(4, 3, 1.0, seed=9)
        diffs = enumeration_diffs(table, scheme)
        oracle = sw_oracle_covariance(table.l0(), scheme)
        for w in ((0.5, 0.5), (0.8, 0.2)):
            west = diffs @ np.array(w)
            assert west.var(ddof=0) == pytest.approx(
                np.array(w) @ oracle.sigma @ np.array(w), abs=1e-10
            )

    def test_monte_carlo_sigma_agrees_with_oracle(self):
        # sampled-assignment covariance of the per-period differences
        # matches the oracle entrywise within 3 MC standard errors
        scheme = SteppedWedgeScheme(6, (2, 2, 2))
        table = random_table(6, 3, 1.0, seed=10)
        oracle = sw_oracle_covariance(table.l0(), scheme)
        rng = derive_rng(123)
        n = 100_000
        rows = sample_assignments(scheme, n, rng)
        lmat_base = table.l0()
        periods = scheme.analysis_periods
        diffs = np.empty((n, len(periods)))
        for k, t in enumerate(periods):
            mask = rows <= t
            col_treated = lmat_base[:, t - 1] + math.log(table.lam)
            col_control = lmat_base[:, t - 1]
            m_t = scheme.m_t(t)
            treated_sum = mask @ col_treated
            control_sum = (~mask) @ col_control
            diffs[:, k] = treated_sum / m_t - control_sum / (scheme.m - m_t)
        mc_cov = np.cov(diffs.T, ddof=1)
        for i in range(len(periods)):
            for j in range(len(periods)):
                # MC se of a covariance entry, normal approximation
                se = math.sqrt(
                    (mc_cov[i, i] * mc_cov[j, j] + mc_cov[i, j] ** 2) / n
                )
                assert abs(mc_cov[i, j] - oracle.sigma[i, j]) < 3 * se


class TestCovarianceEstimate:
    def _panel(self, m, T, q, lam, seed):
        table = random_table(m, T, lam, seed)
        rng = np.random.default_rng(seed + 1)
        base = np.repeat(np.arange(1, T + 1), q)
        return realize(table, rng.permutation(base)), table

    def test_constant_l0_gives_zero_sigma(self):
        y = np.full((6, 3), 30.0)
        z = np.full((6, 3), 60.0)
        panel = Panel(
            cluster_ids=tuple("abcdef"), start_periods=(1, 1, 2, 2, 3, 3), y=y, z=z
        )
        cov = sw_covariance_estimate(panel)
        np.testing.assert_allclose(cov.sigma, 0.0, atol=1e-14)

    def test_t2_matches_parallel_variance(self):
        rng = np.random.default_rng(11)
        y = rng.uniform(10, 60, size=(6, 2))
        z = rng.uniform(10, 60, size=(6, 2))
        starts = (1, 1, 1, 2, 2, 2)
        panel = Panel(cluster_ids=tuple("abcdef"), start_periods=starts, y=y, z=z)
        cov = sw_covariance_estimate(panel)
        records = Trial(tuple("abcdef"), [s == 1 for s in starts], y[:, 0], z[:, 0])
        par = log_contrast_estimate(records)
        assert cov.sigma.shape == (1, 1)
        assert cov.sigma[0, 0] == pytest.approx(par.se_log**2, abs=1e-12)

    def test_three_case_rule_picks_largest_group(self):
        # m=8, q=(4,2,2): at (t1,t2)=(1,2) the treated-by-t1 group (4)
        # is largest; at (2,... ) check switchers/untreated selection
        table = random_table(8, 3, 1.0, seed=12)
        starts = np.array([1, 1, 1, 1, 2, 2, 3, 3])
        panel = realize(table, starts)
        lmat = panel.log_contrast_matrix()
        cov = sw_covariance_estimate(panel)
        g = starts <= 1
        expected = np.cov(lmat[g, 0], lmat[g, 1], ddof=1)[0, 1]
        assert cov.s_values[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_estimated_sigma_unbiased_under_enumeration(self):
        # E[Sigma_hat] over the full support equals the oracle Sigma
        scheme = SteppedWedgeScheme(6, (2, 2, 2))
        table = random_table(6, 3, 0.6, seed=13)
        oracle = sw_oracle_covariance(table.l0(), scheme)
        sigmas = []
        for a in enumerate_assignments(scheme):
            panel = realize(table, a)
            sigmas.append(sw_covariance_estimate(panel).sigma)
        mean_sigma = np.mean(sigmas, axis=0)
        np.testing.assert_allclose(mean_sigma, oracle.sigma, atol=1e-10)

    def test_group_too_small(self):
        # m=3, q=(1,1,1): single-cluster per-period arms cannot support
        # variance estimation
        table = random_table(3, 3, 1.0, seed=14)
        panel = realize(table, np.array([1, 2, 3]))
        with pytest.raises(ArmTooSmall):
            sw_covariance_estimate(panel)


class TestOptimalWeights:
    def test_identity_gives_equal(self):
        w = optimal_weights(np.eye(2), periods=(1, 2))
        assert w.w == pytest.approx((0.5, 0.5), abs=1e-14)

    def test_diag_1_4(self):
        w = optimal_weights(np.diag([1.0, 4.0]), periods=(1, 2))
        assert w.w == pytest.approx((0.8, 0.2), abs=1e-12)

    def test_weights_sum_to_one_and_minimize(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            sigma = a @ a.T + 0.1 * np.eye(3)
            w = np.array(optimal_weights(sigma, periods=(1, 2, 3)).w)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            base = w @ sigma @ w
            for _ in range(20):
                v = rng.normal(size=3)
                v = v - (v.sum() - 1) / 3  # random simplex-affine vector
                assert base <= v @ sigma @ v + 1e-12

    def test_negative_components_can_occur(self):
        # strong positive cross-period covariance with unequal variances
        # pushes one weight negative; the variance bound still holds
        sigma = np.array([[1.0, 0.9], [0.9, 0.85]])
        w = np.array(optimal_weights(sigma, periods=(1, 2)).w)
        assert w.min() < 0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        eq = np.array([0.5, 0.5])
        assert w @ sigma @ w <= eq @ sigma @ eq

    def test_singular_raises(self):
        sigma = np.ones((2, 2))
        with pytest.raises(SingularCovariance):
            optimal_weights(sigma, periods=(1, 2))

    def test_estimator_fallback_to_equal(self):
        y = np.full((6, 3), 30.0)
        z = np.full((6, 3), 60.0)
        panel = Panel(
            cluster_ids=tuple("abcdef"), start_periods=(1, 1, 2, 2, 3, 3), y=y, z=z
        )
        with pytest.warns(RuntimeWarning):
            rep = sw_log_contrast(panel, "optimal")
        assert rep.diagnostics["weight_kind"] == "equal"


class TestNullCovarianceAndPermutation:
    def test_null_covariance_recovers_oracle(self):
        scheme = SteppedWedgeScheme(6, (2, 2, 2))
        table = random_table(6, 3, 0.6, seed=16)
        oracle = sw_oracle_covariance(table.l0(), scheme)
        rng = derive_rng(17)
        a = sample_assignments(scheme, 1, rng)[0]
        panel = realize(table, a)
        cov = sw_null_covariance(panel, 0.6)
        np.testing.assert_allclose(cov.sigma, oracle.sigma, atol=1e-10)

    def test_stacked_null_covariances(self):
        # one batched pass over a (B, m, T) stack: each matrix gets the
        # bits of its own call, and the sample covariance to rounding
        from crtnd.stepped_wedge import _null_sigma, _scale_matrix

        scheme = SteppedWedgeScheme(9, (2, 3, 2, 2))
        periods = scheme.analysis_periods
        scale = _scale_matrix(scheme, periods)
        rng = np.random.default_rng(26)
        l0 = rng.normal(1.5, 0.8, size=(5, 9, 4))
        sigma, s_full = _null_sigma(l0, periods, scale)
        for b in range(5):
            one_sigma, one_s = _null_sigma(l0[b], periods, scale)
            assert one_sigma.tobytes() == sigma[b].tobytes()
            assert one_s.tobytes() == s_full[b].tobytes()
            cols = l0[b][:, [t - 1 for t in periods]]
            np.testing.assert_allclose(s_full[b], np.cov(cols.T, ddof=1), rtol=1e-13, atol=1e-15)

    def test_monte_carlo_test_memory_is_a_few_blocks(self):
        # a 99,999-draw test of the bundled 24-cluster, 7-period design
        # holds one engine block of one-byte start rows, its differences
        # and the masks of one piece of it (5.2 MiB measured); the period
        # masks of a whole block would be 7 times _BLOCK_BYTES
        import tracemalloc

        from crtnd.core import _BLOCK_BYTES

        scheme = SteppedWedgeScheme(24, SW_Q)
        panel = realize(random_table(24, len(SW_Q), 0.6, seed=3),
                        sample_assignments(scheme, 1, derive_rng(5))[0])
        assert len(panel.analysis_periods) == 7
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sw_permutation_test(panel, 1.0, mode="monte_carlo", n_draws=50, seed=1)
            tracemalloc.start()
            try:
                sw_permutation_test(panel, 1.0, mode="monte_carlo", n_draws=99_999, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 3 * _BLOCK_BYTES

    @pytest.mark.parametrize("lam0", [0.0, -0.5])
    def test_null_covariance_needs_a_positive_lam0(self, lam0):
        panel = realize(random_table(4, 3, 1.0, seed=16), np.array([1, 2, 2, 3]))
        with pytest.raises(ValueError, match=f"^lam0 must be > 0, got {lam0}$"):
            sw_null_covariance(panel, lam0)

    def test_exact_test_toy(self):
        # strong separation: p should be small but respects the floor
        table = random_table(4, 3, 1.0, seed=18, spread=0.0)
        scheme = SteppedWedgeScheme(4, (1, 2, 1))
        panel = realize(table, np.array([1, 2, 2, 3]))
        res = sw_permutation_test(panel, 1.0, "equal", mode="exact")
        assert res.null_draws == 12
        assert 0 < res.p_two_sided <= 1

    def test_super_uniformity_small_design(self):
        scheme = SteppedWedgeScheme(4, (1, 2, 1))
        table = random_table(4, 3, 0.6, seed=19)
        pvals = []
        for a in enumerate_assignments(scheme):
            panel = realize(table, a)
            res = sw_permutation_test(panel, 0.6, "equal", mode="exact")
            pvals.append(res.p_two_sided)
        pvals = np.array(pvals)
        total = scheme.total_assignments
        for k in range(1, total + 1):
            alpha = k / total
            assert np.mean(pvals <= alpha + 1e-12) <= alpha + 1e-12

    def test_mc_reproducible(self):
        table = random_table(6, 3, 1.0, seed=20)
        scheme = SteppedWedgeScheme(6, (2, 2, 2))
        panel = realize(table, sample_assignments(scheme, 1, derive_rng(21))[0])
        a = sw_permutation_test(panel, 1.0, mode="monte_carlo", n_draws=300, seed=4)
        b = sw_permutation_test(panel, 1.0, mode="monte_carlo", n_draws=300, seed=4)
        assert a.p_two_sided == b.p_two_sided

    @pytest.mark.parametrize("weights", ["equal", "optimal"])
    def test_observed_statistic_is_the_estimates_own(self, weights):
        # the simulation reads the observed statistic off the period
        # differences of its estimates: the test's must be the same bits,
        # weighted as the simulation weights them where the weights are fixed
        from crtnd.estimators import _row_dot
        from crtnd.stepped_wedge import _sw_statistic

        scheme = SteppedWedgeScheme(8, (1, 2, 2, 2, 1))
        panel = realize(random_table(8, 5, 0.7, seed=24),
                        sample_assignments(scheme, 1, derive_rng(25))[0])
        start, periods = np.asarray(panel.start_periods), panel.analysis_periods
        diffs = _period_differences(panel.log_contrast_matrix(), start, periods)
        stat = _sw_statistic(panel, weights)
        d_obs, a_obs = stat.observed
        if weights == "equal":
            w = np.full(len(periods), 1 / len(periods))
            assert stat.weights is None
            assert d_obs == _row_dot(diffs[None], w[None])[0] and a_obs == w.sum()
        else:
            assert d_obs.tobytes() == diffs.tobytes()
            assert a_obs.tolist() == [1.0] * len(periods)
        # and the rows statistic at the observed starts, to rounding
        d_row, a_row = stat.rows(start[None])
        np.testing.assert_allclose(d_row[0], d_obs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a_row[0], a_obs, rtol=0, atol=1e-12)


def tied_panel():
    """8 clusters over 4 periods; clusters 0 and 3 (different starts)
    share all counts and clusters 1 and 5 repeat counts across periods,
    so the re-randomized statistic has exact ties."""
    rng = np.random.default_rng(23)
    y = rng.integers(10, 60, size=(8, 4)).astype(float)
    z = rng.integers(30, 90, size=(8, 4)).astype(float)
    y[3], z[3] = y[0], z[0]
    y[1, :] = y[1, 0]
    z[5, :] = z[5, 0]
    return Panel(
        cluster_ids=tuple(f"c{i}" for i in range(8)),
        start_periods=(1, 1, 2, 2, 3, 3, 4, 4),
        y=y,
        z=z,
    )


# _period_contrasts against its brute-force oracle: every column within
# this absolute tolerance of the rows' own _period_differences (values of
# order 1; the largest difference seen is 6e-15, on weighted columns)
CONTRAST_ATOL = 1e-13


def contrast_case(design):
    """(scheme, start rows, (B, m, T) values) of one kernel test design:
    999 drawn rows of a q vector, or every start vector of the tied
    panel with its log contrasts and treated indicator."""
    if design == "tied":
        panel = tied_panel()
        values = np.stack([panel.log_contrast_matrix(), panel.treated.astype(float)])
        return panel.scheme, randomize(panel.scheme, "exact", 0, (0,)).rows(), values
    q = {"bundled": SW_Q, "all-periods": (1, 2, 2, 2, 1),
         "period-1-dropped": (0, 3, 3, 2)}[design]
    scheme = SteppedWedgeScheme(sum(q), q)
    values = np.random.default_rng(len(q)).normal(0.5, 1.0, size=(3, scheme.m, len(q)))
    starts = sample_assignments(scheme, 999, derive_rng(33, len(q)), np.uint8)
    return scheme, starts, values


def brute_differences(starts, periods, values):
    """(rows, B, k): each row's :func:`_period_differences` of each matrix."""
    n, (b, m, t) = len(starts), values.shape
    stack = np.broadcast_to(values, (n, b, m, t)).reshape(n * b, m, t)
    rows = np.repeat(starts, b, axis=0)
    return _period_differences(stack, rows, periods).reshape(n, b, -1)


CONTRAST_DESIGNS = ["bundled", "all-periods", "period-1-dropped", "tied"]


class TestPeriodContrasts:
    @pytest.mark.parametrize("design", CONTRAST_DESIGNS)
    def test_per_period_columns(self, design):
        from crtnd.stepped_wedge import _period_contrasts

        scheme, starts, values = contrast_case(design)
        periods = scheme.analysis_periods
        if design == "period-1-dropped":
            assert periods == (2, 3)
        got = _period_contrasts(starts, periods, scheme, values)
        want = brute_differences(starts, periods, values)
        assert got.shape == (len(periods), len(values), len(starts))
        np.testing.assert_allclose(got.transpose(2, 1, 0), want, rtol=0, atol=CONTRAST_ATOL)

    @pytest.mark.parametrize("design", CONTRAST_DESIGNS)
    def test_weighted_columns(self, design):
        # two weightings of each matrix, folded in before the product,
        # against the weighted sums of the oracle's rows
        from crtnd.stepped_wedge import _period_contrasts

        scheme, starts, values = contrast_case(design)
        periods = scheme.analysis_periods
        weights = np.random.default_rng(34).normal(size=(2, len(values), len(periods)))
        got = _period_contrasts(starts, periods, scheme, values, weights)
        diffs = brute_differences(starts, periods, values)
        assert got.shape == (2, len(values), len(starts))
        for w in range(2):
            for b in range(len(values)):
                want = diffs[:, b] @ weights[w, b]
                np.testing.assert_allclose(got[w, b], want, rtol=0, atol=CONTRAST_ATOL)

    @pytest.mark.parametrize("bound", ["_BLOCK_BYTES", "_SERIAL_MNK"])
    def test_rows_in_pieces(self, monkeypatch, bound):
        # either bound splits the rows into pieces (100 rows; 28 for the
        # 21 per-period columns under _SERIAL_MNK), which match one
        # product over all of them to rounding
        from crtnd import stepped_wedge
        from crtnd.stepped_wedge import _period_contrasts

        scheme, starts, values = contrast_case("bundled")
        periods = scheme.analysis_periods
        weights = np.random.default_rng(35).normal(size=(2, len(values), len(periods)))
        cells = scheme.m * len(periods)
        monkeypatch.setattr(stepped_wedge, "_BLOCK_BYTES", 1 << 40)
        monkeypatch.setattr(stepped_wedge, "_SERIAL_MNK", 1 << 40)
        whole = [_period_contrasts(starts, periods, scheme, values, w) for w in (None, weights)]
        piece = {"_BLOCK_BYTES": 8 * cells * 100, "_SERIAL_MNK": 6 * cells * 100 + 1}
        monkeypatch.setattr(stepped_wedge, bound, piece[bound])
        sizes = {"_BLOCK_BYTES": (100, 100), "_SERIAL_MNK": (28, 100)}[bound]
        for w, want, size in zip((None, weights), whole, sizes):
            products = spy_products(monkeypatch)
            got = _period_contrasts(starts, periods, scheme, values, w)
            assert [n for _, _, n in products] == [size] * (999 // size) + [999 % size]
            np.testing.assert_allclose(got, want, rtol=0, atol=CONTRAST_ATOL)


def spy_products(monkeypatch):
    """The (rows, inner, columns) of every ``np.matmul`` call from now
    on, per matrix of a stack (a vector operand counts as one column)."""
    products, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        a_shape, b_shape = np.shape(a), np.shape(b)
        rows = a_shape[-2] if len(a_shape) > 1 else 1
        columns = b_shape[-1] if len(b_shape) > 1 else 1
        products.append((rows, a_shape[-1], columns))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return products


class TestSerialProducts:
    """Every product of the wedge's relabelings stays below the size at
    which numpy's bundled OpenBLAS may use more than one thread."""

    @staticmethod
    def simulate_chunk():
        # one 16-replicate chunk of simulate-sw, permutation column on
        from crtnd.scenarios import default_sw_scenario
        from crtnd.simulation import _CHUNK, evaluate

        scenario = default_sw_scenario(0.6, n_replicates=_CHUNK, seed=36)
        evaluate(scenario, permutation_por=True, perm_draws=999)

    @staticmethod
    def permutation_test_99999():
        scheme = SteppedWedgeScheme(24, SW_Q)
        panel = realize(random_table(24, len(SW_Q), 0.6, seed=3),
                        sample_assignments(scheme, 1, derive_rng(5))[0])
        sw_permutation_test(panel, 0.8, "optimal", mode="monte_carlo", n_draws=99_999, seed=2)

    @pytest.mark.parametrize("run", ["simulate_chunk", "permutation_test_99999"])
    def test_products_stay_serial(self, monkeypatch, run):
        from crtnd.core import _SERIAL_MNK

        products = spy_products(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            getattr(self, run)()
        # the relabeling products: 24 clusters times 7 analysis periods inner
        assert sum(inner == 168 for _, inner, _ in products) >= 10
        assert max(math.prod(p) for p in products) < _SERIAL_MNK

    def test_parallel_simulation_products_stay_serial(self, monkeypatch):
        # one 16-replicate chunk of simulate: each relabeled vector's
        # treated sums are one (16, 24) @ (24, 999) product into its buffer
        from crtnd.core import _SERIAL_MNK
        from crtnd.scenarios import default_parallel_scenario
        from crtnd.simulation import _CHUNK, evaluate

        scenario = default_parallel_scenario(0.6, n_replicates=_CHUNK, seed=36)
        products = spy_products(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evaluate(scenario, permutation_por=True, perm_draws=999)
        # the log-contrasts, the fractions, and the odds ratio's y and z
        assert products.count((_CHUNK, 24, 999)) == 4
        assert max(math.prod(p) for p in products) < _SERIAL_MNK

    def test_a_chunk_in_one_product_fails_the_guard(self, monkeypatch):
        # the guard above sees a chunk's (32, 168) @ (168, 999) product
        from crtnd import stepped_wedge
        from crtnd.core import _SERIAL_MNK

        monkeypatch.setattr(stepped_wedge, "_SERIAL_MNK", 1 << 40)
        products = spy_products(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.simulate_chunk()
        assert (32, 168, 999) in products
        assert max(math.prod(p) for p in products) >= _SERIAL_MNK


class TestSWInvertCI:
    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("weights", ["equal", "optimal"])
    def test_split_pvalues_match_sw_permutation_test(self, weights, mode):
        from crtnd.stepped_wedge import _sw_statistic

        panel = tied_panel()
        options = dict(mode=mode, n_draws=250, seed=9)
        pfun = _sw_statistic(panel, weights).pvalues(randomize(panel.scheme, mode, 250, (9, 0x5E)))
        est = sw_log_contrast(panel, weights)
        pvals = []
        for theta in np.linspace(est.log_estimate - 1.5, est.log_estimate + 1.5, 50) + 1e-3:
            direct = sw_permutation_test(panel, math.exp(theta), weights, **options)
            assert pfun(theta) == direct.p_two_sided
            pvals.append(direct.p_two_sided)
        assert min(pvals) < 0.2 < max(pvals)  # the curve is actually traversed

    @pytest.mark.parametrize("weights, path, outward", [
        ("equal", "sweep", 1e-9), ("optimal", "scan", 2e-4),
    ])
    def test_ci_endpoints_at_the_alpha_boundary(self, weights, path, outward):
        # the sweep's endpoints are breakpoints of the curve; the scan's
        # are bisected to 1e-4
        panel = tied_panel()
        lo, hi, diag = sw_invert_ci(panel, weights, alpha=0.1, mode="exact")
        assert lo < math.exp(sw_log_contrast(panel, weights).log_estimate) < hi
        assert diag["path"] == path and diag["p_max"] > 0.1
        for lam, inside in ((lo, True), (hi, True), (lo * math.exp(-outward), False),
                            (hi * math.exp(outward), False)):
            p = sw_permutation_test(panel, lam, weights, mode="exact").p_two_sided
            assert (p > 0.1) == inside

    def test_unrejected_scan_edge_raises(self):
        # six clusters starting (1,1,2,2,3,3) in a 2-period window: 90
        # start vectors, so every exact p is at least 1/90 > 0.01 and the
        # accepted set is unbounded
        rng = np.random.default_rng(0)
        panel = Panel(
            cluster_ids=tuple(f"c{i}" for i in range(6)),
            start_periods=(1, 1, 2, 2, 3, 3),
            y=rng.integers(20, 60, size=(6, 2)).astype(float),
            z=rng.integers(40, 90, size=(6, 2)).astype(float),
        )
        with pytest.raises(NoNonRejectedPoint, match="unbounded"):
            sw_invert_ci(panel, "equal", alpha=0.01, mode="exact")
        with pytest.raises(NoNonRejectedPoint, match="not bracketed within 50 SE"):
            sw_invert_ci(panel, "optimal", alpha=0.01, mode="exact")

    @pytest.mark.parametrize(
        "weights, expected, diagnostics",
        [
            # the exact curve: all 2,520 start vectors' 5,038 breakpoints
            ("equal", (0.5848184700043225, 0.9458794269634251),
             {"path": "sweep", "grid_points": 5038, "p_max": 1.0, "non_interval": False}),
            ("optimal", (0.5366705409286581, 0.9745220625917914),
             {"path": "scan", "grid_points": 81, "p_max": 0.9932539682539683}),
        ],
    )
    def test_endpoints_on_a_benchmark_wedge(self, tmp_path, weights, expected, diagnostics):
        # a benchmark exact-inference wedge (8 clusters, starts a shuffle
        # of 2,2,3,3,4,4,5,5; counts rounded to 4 decimals); for the scan,
        # its 10-SE edges are rejected, so no widening happens and the
        # endpoints are those of the unwidened scan
        path = tmp_path / "wedge.csv"
        path.write_text(BENCHMARK_WEDGE_CSV)
        _, panel = parse_dataset(path)
        lo, hi, diag = sw_invert_ci(panel, weights, alpha=0.05, mode="exact")
        assert (lo, hi) == expected
        assert diag == {"method": "sw_log_contrast", "test": "permutation", "alpha": 0.05,
                        **diagnostics}


    def test_a_bounded_interval_past_50_se_is_returned(self):
        # per-period effects -1, 0, 1 and period effects shared by all
        # clusters: the plug-in SE is 0 to rounding, so a scan of 50 SE
        # cannot bracket the accepted set, which is bounded
        starts = np.array((1, 1, 2, 2, 3, 3, 4, 4))
        treated = np.arange(1, 5)[None, :] >= starts[:, None]
        lmat = 0.1 * np.arange(4)[None, :] + np.array([-1.0, 0.0, 1.0, 0.0]) * treated
        panel = Panel(tuple(f"c{i}" for i in range(8)), tuple(starts),
                      50.0 * np.exp(lmat), np.full((8, 4), 50.0))
        assert sw_log_contrast(panel).se_log < 1e-15
        lo, hi, diag = sw_invert_ci(panel, "equal", alpha=0.05, mode="exact")
        assert (math.log(lo), math.log(hi)) == pytest.approx((-4 / 15, 4 / 15), abs=1e-12)
        assert diag["path"] == "sweep" and diag["non_interval"] is False
        for lam, inside in ((lo, True), (hi, True), (lo * math.exp(-1e-9), False),
                            (hi * math.exp(1e-9), False)):
            p = sw_permutation_test(panel, lam, mode="exact").p_two_sided
            assert (p > 0.05) == inside


class TestWeightVectors:
    def test_a_list_and_an_array_are_custom_weights(self):
        # neither is compared elementwise with "equal" or "optimal"
        panel = tied_panel()
        w = [0.2, 0.3, 0.5]
        results = []
        for weights in (w, np.array(w), SWWeights(tuple(w), "custom", panel.analysis_periods)):
            rep = sw_log_contrast(panel, weights)
            assert rep.diagnostics["weights"] == w
            assert rep.diagnostics["weight_kind"] == "custom"
            test = sw_permutation_test(panel, 1.0, weights, mode="exact")
            lo, hi, diag = sw_invert_ci(panel, weights, alpha=0.2, mode="exact")
            assert diag["path"] == "sweep"
            results.append((rep.log_estimate, rep.se_log, test.p_two_sided, lo, hi))
        assert results[0] == results[1] == results[2]
        assert results[0][0] == pytest.approx(
            np.array(w) @ sw_log_contrast(panel).diagnostics["period_differences"], abs=1e-15)


def dropped_period_panel():
    """8 clusters over 4 periods, none starting at 1 and one after the
    window: period 1 has no treated cluster and is dropped, so the
    analysis periods are 2 and 3 (1,680 start vectors)."""
    rng = np.random.default_rng(31)
    return Panel(
        cluster_ids=tuple(f"c{i}" for i in range(8)),
        start_periods=(2, 2, 3, 3, 3, 4, 4, 5),
        y=np.round(rng.uniform(10.0, 60.0, size=(8, 4)), 1),
        z=np.round(rng.uniform(30.0, 90.0, size=(8, 4)), 1),
    )


class TestSweptWedgeInterval:
    """Fixed-weight wedge CIs against brute force: every distinct ordering
    of the observed starts, each analysis period's treated-minus-control
    means of L and of the observed treated indicator taken cell by cell
    and weighted, and p(theta) counted directly at every root of every
    start vector and between them."""

    CASES = {
        "tied, equal": (tied_panel, "equal"),
        "tied, custom": (tied_panel, [0.6, -0.1, 0.5]),
        "dropped period, equal": (dropped_period_panel, "equal"),
        "dropped period, custom": (dropped_period_panel, np.array([0.7, 0.3])),
    }

    @staticmethod
    def brute_force(panel, weights):
        """theta -> exact p, and every root of every start vector."""
        import itertools

        starts = np.array(panel.start_periods)
        m, n_periods = panel.y.shape
        lmat = np.log(panel.y) - np.log(panel.z)
        shift = (np.arange(1, n_periods + 1)[None, :] >= starts[:, None]).astype(float)
        periods = [t for t in range(1, n_periods) if 0 < np.sum(starts <= t) < m]
        w = [1 / len(periods)] * len(periods) if isinstance(weights, str) else list(weights)

        def weighted(values, s):
            return sum(wt * (values[s <= t, t - 1].mean() - values[s > t, t - 1].mean())
                       for wt, t in zip(w, periods))

        rows = [np.array(s) for s in sorted(set(itertools.permutations(starts.tolist())))]
        d = np.array([weighted(lmat, r) for r in rows])
        a = np.array([weighted(shift, r) for r in rows])
        d_obs, a_obs = weighted(lmat, starts), weighted(shift, starts)

        def p(theta):
            # the documented tie rule: roots 2e-9 apart, as some are here,
            # are told apart between them
            level = abs(d_obs - theta * a_obs)
            return np.mean(np.abs(d - theta * a) >= level - 1e-12 * max(level, 1.0))

        roots = []
        for num, den in ((d - d_obs, a - a_obs), (d + d_obs, a + a_obs)):
            keep = np.abs(den) > 1e-9
            roots.append(num[keep] / den[keep])
        roots = np.unique(np.concatenate(roots))
        # roots that tie in exact arithmetic differ by rounding: keep one
        return p, roots[np.r_[True, np.diff(roots) > 1e-9 * (1.0 + np.abs(roots[1:]))]]

    @pytest.mark.filterwarnings("ignore:some periods in 1..T-1")
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_endpoints_and_curve(self, case, alpha):
        from crtnd.stepped_wedge import _sw_statistic

        make, weights = self.CASES[case]
        panel = make()
        p, roots = self.brute_force(panel, weights)
        rz = randomize(panel.scheme, "exact", 0, (0, 0x5E))
        pfun = _sw_statistic(panel, weights).pvalues(rz)
        # the curve is constant between roots: equal to brute force there
        mids = np.concatenate([[roots[0] - 1.0], (roots[:-1] + roots[1:]) / 2,
                               [roots[-1] + 1.0]])
        assert [pfun(t) for t in mids] == [p(t) for t in mids]
        if max(p(mids[0]), p(mids[-1])) > alpha:
            with pytest.raises(NoNonRejectedPoint, match="unbounded"):
                sw_invert_ci(panel, weights, alpha=alpha, mode="exact")
            return
        # the accepted set: outermost roots with p > alpha
        kept = roots[[p(t) > alpha for t in roots]]
        lo, hi, diag = sw_invert_ci(panel, weights, alpha=alpha, mode="exact")
        lo, hi = math.log(lo), math.log(hi)
        assert lo == pytest.approx(kept[0], abs=1e-9)
        assert hi == pytest.approx(kept[-1], abs=1e-9)
        assert diag["path"] == "sweep" and diag["p_max"] == 1.0
        inside = np.sort(np.concatenate([roots, mids]))
        inside = inside[(inside >= kept[0]) & (inside <= kept[-1])]
        assert diag["non_interval"] == (min(p(t) for t in inside) <= alpha)
        # the test itself, away from the breakpoints: its accepted nulls
        # are the CI's, all of it where the set has no gap
        grid = np.linspace(2 * lo - hi, 2 * hi - lo, 41)
        grid = grid[np.min(np.abs(grid[:, None] - roots[None, :]), axis=1) > 1e-6]
        accepted = np.array([
            sw_permutation_test(panel, math.exp(t), weights, mode="exact").p_two_sided > alpha
            for t in grid
        ])
        within = (grid >= lo) & (grid <= hi)
        assert not (accepted & ~within).any()
        if not diag["non_interval"]:
            np.testing.assert_array_equal(accepted, within)


BENCHMARK_WEDGE_CSV = """cluster_id,period,start_period,y_count,z_count
w1,1,3,21.0000,48.0000
w1,2,3,17.0000,52.0000
w1,3,3,5.0903,25.9228
w1,4,3,31.3447,137.9955
w1,5,3,1.0088,3.2098
w2,1,4,32.0000,120.0000
w2,2,4,30.0000,133.0000
w2,3,4,23.0000,152.0000
w2,4,4,9.3687,59.3823
w2,5,4,0.5887,3.5597
w3,1,2,80.0000,300.0000
w3,2,2,32.0301,132.9735
w3,3,2,5.4956,34.9043
w3,4,2,100.3280,499.1689
w3,5,2,51.3219,242.8449
w4,1,4,78.0000,278.0000
w4,2,4,59.0000,179.0000
w4,3,4,41.0000,147.0000
w4,4,4,51.5738,290.7063
w4,5,4,19.7457,157.5665
w5,1,3,51.0000,138.0000
w5,2,3,57.0000,154.0000
w5,3,3,0.4221,1.7269
w5,4,3,35.4939,205.3574
w5,5,3,25.3037,116.4337
w6,1,2,51.0000,262.0000
w6,2,2,1.8889,8.9050
w6,3,2,5.3037,21.2148
w6,4,2,1.7775,12.7657
w6,5,2,4.9155,29.8210
w7,1,5,50.0000,156.0000
w7,2,5,29.0000,108.0000
w7,3,5,16.0000,56.0000
w7,4,5,79.0000,204.0000
w7,5,5,8.1320,30.8455
w8,1,5,46.0000,154.0000
w8,2,5,27.0000,85.0000
w8,3,5,20.0000,90.0000
w8,4,5,42.0000,192.0000
w8,5,5,1.2211,6.8517
"""
