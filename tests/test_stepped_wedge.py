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
from crtnd.core import ClusterRecord
from crtnd.dataio import parse_dataset
from crtnd.errors import ArmTooSmall, NoNonRejectedPoint, SingularCovariance
from crtnd.stepped_wedge import SWWeights, _panel_design, _period_differences


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
        periods, m_t, _ = _panel_design(panel)
        out.append(
            _period_differences(lmat, np.asarray(panel.start_periods), periods, m_t)
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
        records = [
            ClusterRecord(cid, 1 if s == 1 else 0, y[i, 0], z[i, 0])
            for i, (cid, s) in enumerate(zip("abcdef", starts))
        ]
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

    def test_printed_convention_differs_off_diagonal(self):
        scheme = SteppedWedgeScheme(4, (1, 2, 1))
        table = random_table(4, 3, 0.6, seed=8)
        canon = sw_oracle_covariance(table.l0(), scheme, convention="canonical")
        printed = sw_oracle_covariance(table.l0(), scheme, convention="printed")
        np.testing.assert_allclose(np.diag(canon.sigma), np.diag(printed.sigma))
        assert not np.allclose(canon.sigma[0, 1], printed.sigma[0, 1])

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
        records = [
            ClusterRecord(cid, 1 if s == 1 else 0, y[i, 0], z[i, 0])
            for i, (cid, s) in enumerate(zip("abcdef", starts))
        ]
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


class TestSWInvertCI:
    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("weights", ["equal", "optimal"])
    def test_split_pvalues_match_sw_permutation_test(self, weights, mode):
        from crtnd.stepped_wedge import _sw_pvalue_function

        panel = tied_panel()
        options = dict(mode=mode, n_draws=250, seed=9, correction=False,
                       convention="canonical")
        pfun = _sw_pvalue_function(panel, weights, **options)
        est = sw_log_contrast(panel, weights)
        pvals = []
        for theta in np.linspace(est.log_estimate - 1.5, est.log_estimate + 1.5, 50) + 1e-3:
            direct = sw_permutation_test(panel, math.exp(theta), weights, **options)
            assert pfun(theta) == direct.p_two_sided
            pvals.append(direct.p_two_sided)
        assert min(pvals) < 0.2 < max(pvals)  # the curve is actually traversed

    def test_ci_endpoints_at_the_alpha_boundary(self):
        panel = tied_panel()
        lo, hi = sw_invert_ci(panel, "equal", alpha=0.1, mode="exact")
        assert lo < math.exp(sw_log_contrast(panel).log_estimate) < hi
        for lam, inside in ((lo, True), (hi, True),
                            (lo * math.exp(-2e-4), False), (hi * math.exp(2e-4), False)):
            p = sw_permutation_test(panel, lam, "equal", mode="exact").p_two_sided
            assert (p > 0.1) == inside

    def test_unrejected_scan_edge_raises(self):
        # six clusters starting (1,1,2,2,3,3) in a 2-period window: 90
        # start vectors, so every exact p is at least 1/90 > 0.01
        rng = np.random.default_rng(0)
        panel = Panel(
            cluster_ids=tuple(f"c{i}" for i in range(6)),
            start_periods=(1, 1, 2, 2, 3, 3),
            y=rng.integers(20, 60, size=(6, 2)).astype(float),
            z=rng.integers(40, 90, size=(6, 2)).astype(float),
        )
        with pytest.raises(NoNonRejectedPoint):
            sw_invert_ci(panel, "equal", alpha=0.01, mode="exact")

    @pytest.mark.parametrize(
        "weights, expected",
        [
            ("equal", (0.5848311029772111, 0.9458567455214856)),
            ("optimal", (0.5366705409286581, 0.9745220625917914)),
        ],
    )
    def test_endpoints_on_a_benchmark_wedge(self, tmp_path, weights, expected):
        # a benchmark exact-inference wedge (8 clusters, starts a shuffle
        # of 2,2,3,3,4,4,5,5; counts rounded to 4 decimals): its 10-SE
        # scan edges are rejected, so no widening happens and the
        # endpoints are those of the unwidened scan
        path = tmp_path / "wedge.csv"
        path.write_text(BENCHMARK_WEDGE_CSV)
        _, panel = parse_dataset(path)
        assert sw_invert_ci(panel, weights, alpha=0.05, mode="exact") == expected


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
