import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crtnd import (
    ClusterRecord,
    ParallelScheme,
    PotentialTable,
    covariate_adjusted_estimate,
    enumerate_assignments,
    log_contrast_estimate,
    odds_ratio_estimate,
    realize,
    tpf_estimate,
    tpf_expected,
    tpf_solve,
    tpf_statistic,
)
from crtnd.errors import (
    ArmTooSmall,
    EmptyCluster,
    NoAdmissibleRoot,
    RankDeficientCovariates,
    ZeroArmTotal,
    ZeroPositiveTotal,
)
from crtnd.estimators import odds_ratio_log

from conftest import make_records


def enumeration_estimates(table, m1, estimator):
    scheme = ParallelScheme(table.m, m1)
    out = []
    for a in enumerate_assignments(scheme):
        out.append(estimator(realize(table, a)))
    return np.array(out)


class TestOddsRatio:
    def test_symmetric_arms(self):
        recs = [
            ClusterRecord("a", 1, 10, 20),
            ClusterRecord("b", 0, 10, 20),
        ]
        assert odds_ratio_log(recs) == pytest.approx(0.0, abs=1e-15)

    def test_direct_substitution(self):
        recs = [
            ClusterRecord("a", 1, 5, 20),
            ClusterRecord("b", 0, 10, 20),
        ]
        assert math.exp(odds_ratio_log(recs)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_arm_total(self):
        recs = [
            ClusterRecord("a", 1, 0, 20),
            ClusterRecord("b", 0, 10, 20),
        ]
        with pytest.raises(ZeroArmTotal) as exc:
            odds_ratio_log(recs)
        assert "treated test-positive" in str(exc.value)

    def test_report_has_permutation_se(self):
        rng = np.random.default_rng(0)
        recs = [
            ClusterRecord(f"c{i}", i % 2, rng.uniform(5, 50), rng.uniform(5, 50))
            for i in range(8)
        ]
        rep = odds_ratio_estimate(recs)
        assert rep.se_log is not None and rep.se_log > 0
        assert rep.diagnostics["se_source"] == "permutation-exact"
        assert rep.ci_low < rep.estimate < rep.ci_high

    def test_enumeration_bias_matches_bias_expression(self, oracle_table_m6):
        # with ascertainment coupled to the count ratio, the mean log
        # odds ratio over all assignments reproduces the analytic bias
        # expression evaluated over the same enumeration
        base = oracle_table_m6(0.6)
        c = (base.y0 / base.z0) / np.mean(base.y0 / base.z0)
        table = PotentialTable(lam=0.6, y0=base.y0, z0=base.z0, c=c)
        logs = enumeration_estimates(table, 3, odds_ratio_log)
        bias = logs.mean() - math.log(0.6)
        # direct evaluation of the bias expression over the enumeration
        expr = []
        for a in enumerate_assignments(ParallelScheme(6, 3)):
            arms = a.astype(bool)
            num = (c[arms] * table.y0[arms]).sum() / table.y0[~arms].sum()
            den = (c[arms] * table.z0[arms]).sum() / table.z0[~arms].sum()
            expr.append(math.log(num) - math.log(den))
        assert bias == pytest.approx(np.mean(expr), abs=1e-10)
        assert abs(bias) > 1e-3


class TestTpfStatistic:
    def test_equal_fractions_give_zero(self):
        recs = [
            ClusterRecord("a", 1, 10, 30),
            ClusterRecord("b", 0, 20, 60),
        ]
        t, r = tpf_statistic(recs)
        assert t == pytest.approx(0.0, abs=1e-15)
        assert r == pytest.approx(3.0, abs=1e-12)

    def test_arithmetic(self):
        fracs = {"a": 0.5, "b": 0.3, "c": 0.2, "d": 0.4}
        recs = [
            ClusterRecord("a", 1, 50, 50),
            ClusterRecord("b", 1, 30, 70),
            ClusterRecord("c", 0, 20, 80),
            ClusterRecord("d", 0, 40, 60),
        ]
        t, r = tpf_statistic(recs)
        assert t == pytest.approx(0.1, abs=1e-12)

    def test_pooled_ratio(self):
        recs = [
            ClusterRecord("a", 1, 60, 180),
            ClusterRecord("b", 0, 40, 120),
        ]
        _, r = tpf_statistic(recs)
        assert r == pytest.approx(3.0, abs=1e-12)

    def test_empty_cluster(self):
        recs = [
            ClusterRecord("a", 1, 0, 0),
            ClusterRecord("b", 0, 10, 10),
        ]
        with pytest.raises(EmptyCluster):
            tpf_statistic(recs)

    def test_zero_positive_total(self):
        recs = [
            ClusterRecord("a", 1, 0, 30),
            ClusterRecord("b", 0, 0, 40),
        ]
        with pytest.raises(ZeroPositiveTotal):
            tpf_statistic(recs)


class TestTpfSolve:
    def test_zero_statistic_gives_exactly_one(self):
        for r in (0.1, 1.0, 3.0, 50.0):
            assert tpf_solve(0.0, r) == 1.0

    def test_frozen_example_r1(self):
        # forward value at lam=0.5, r=1: 2(0.25-1)/((1.5+1)(0.5+3)) = -1.5/8.75
        assert tpf_solve(-1.5 / 8.75, 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_round_trip_r3(self):
        t = tpf_expected(0.2, 3.0)
        assert tpf_solve(t, 3.0) == pytest.approx(0.2, abs=1e-10)

    def test_round_trip_grid(self):
        # inversion identity over the full working range
        for lam in np.geomspace(0.05, 20, 25):
            for r in np.geomspace(0.1, 50, 25):
                t = tpf_expected(lam, r)
                assert tpf_solve(t, r) == pytest.approx(lam, rel=1e-8)

    @settings(max_examples=500, deadline=None)
    @given(
        log_r=st.floats(math.log(1e-3), math.log(1e3)),
        log_lam=st.floats(math.log(1e-3), math.log(1e3)),
        log_step=st.floats(1e-4, 5.0),
    )
    def test_expected_fraction_strictly_increasing(self, log_r, log_lam, log_step):
        # the numerator of d/dlam is 2r[((2+r)^2+r^2)(lam^2+1) + 4r(2+r)lam] > 0,
        # so tpf_solve needs no monotonicity check before taking its root
        r, lam = math.exp(log_r), math.exp(log_lam)
        bigger = math.exp(log_lam + log_step)
        assume(bigger > lam)
        assert tpf_expected(lam, r) < tpf_expected(bigger, r)

    def test_out_of_range_raises(self):
        with pytest.raises(NoAdmissibleRoot):
            tpf_solve(0.5, 3.0)  # attainable range is (-0.4, 0.4) at r=3
        with pytest.raises(NoAdmissibleRoot):
            tpf_solve(-0.4, 3.0)

    def test_sign_consistency(self):
        assert tpf_solve(-0.1, 3.0) < 1.0 < tpf_solve(0.1, 3.0)

    def test_estimate_flags_unequal_allocation(self):
        recs = [
            ClusterRecord("a", 1, 30, 70),
            ClusterRecord("b", 0, 20, 80),
            ClusterRecord("c", 0, 25, 75),
        ]
        rep = tpf_estimate(recs)
        assert "unequal_allocation_warning" in rep.diagnostics


class TestLogContrast:
    def test_degenerate_no_variance(self):
        recs = make_records([0.2, 0.2, 0.2, 0.2], [1, 1, 0, 0])
        rep = log_contrast_estimate(recs)
        assert rep.log_estimate == pytest.approx(0.0, abs=1e-14)
        assert rep.se_log == pytest.approx(0.0, abs=1e-13)

    def test_arithmetic(self):
        recs = make_records([0.1, 0.3, 0.0, 0.2], [1, 1, 0, 0])
        rep = log_contrast_estimate(recs)
        assert rep.log_estimate == pytest.approx(0.1, abs=1e-12)
        assert rep.se_log**2 == pytest.approx(0.02, abs=1e-12)

    def test_arm_too_small(self):
        recs = make_records([0.1, 0.3, 0.0], [1, 1, 0])
        with pytest.raises(ArmTooSmall):
            log_contrast_estimate(recs)

    def test_normal_ci_shape(self):
        recs = make_records([0.1, 0.5, -0.2, 0.2, 0.0, 0.3], [1, 1, 1, 0, 0, 0])
        rep = log_contrast_estimate(recs, alpha=0.05)
        assert rep.ci_low < rep.estimate < rep.ci_high
        z = 1.959963984540054
        assert rep.ci_low == pytest.approx(
            math.exp(rep.log_estimate - z * rep.se_log), rel=1e-12
        )

    def test_enumeration_unbiased_and_variance_unbiased(self, oracle_table_m6):
        for lam in (1.0, 0.6, 0.2):
            table = oracle_table_m6(lam)
            reports = enumeration_estimates(
                table, 3, lambda recs: log_contrast_estimate(recs)
            )
            ests = np.array([r.log_estimate for r in reports])
            vars_ = np.array([r.se_log**2 for r in reports])
            assert ests.mean() == pytest.approx(math.log(lam), abs=1e-12)
            assert vars_.mean() == pytest.approx(ests.var(ddof=0), abs=1e-10)


class TestCovariateAdjusted:
    def test_beta_zero_matches_unadjusted(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 2, size=(8, 2))
        recs = make_records(rng.normal(size=8), [1] * 4 + [0] * 4, covariates=x)
        plain = log_contrast_estimate(recs)
        adj, fit = covariate_adjusted_estimate(recs, beta=[0.0, 0.0])
        assert adj.log_estimate == pytest.approx(plain.log_estimate, abs=1e-14)
        assert adj.se_log == pytest.approx(plain.se_log, abs=1e-14)

    def test_constant_covariate_no_adjustment(self):
        rng = np.random.default_rng(4)
        lvals = rng.normal(size=8)
        x = np.full((8, 1), 1.7)
        recs = make_records(lvals, [1] * 4 + [0] * 4, covariates=x)
        plain = log_contrast_estimate(recs)
        adj, _ = covariate_adjusted_estimate(recs, beta=[5.0])
        assert adj.log_estimate == pytest.approx(plain.log_estimate, abs=1e-12)

    def test_estimated_beta_is_arm_weighted_combination(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2, size=(10, 1))
        lvals = 1.5 * x[:, 0] + rng.normal(scale=0.1, size=10)
        recs = make_records(lvals, [1] * 5 + [0] * 5, covariates=x)
        _, fit = covariate_adjusted_estimate(recs)
        combo = 0.5 * fit.beta_treated + 0.5 * fit.beta_control
        np.testing.assert_allclose(fit.beta_hat, combo, rtol=0, atol=1e-14)
        assert fit.resid_var_treated >= 0 and fit.resid_var_control >= 0

    def test_rank_deficient(self):
        x = np.ones((8, 1)) * 2.0  # constant column is collinear with intercept
        recs = make_records(np.arange(8.0) / 10, [1] * 4 + [0] * 4, covariates=x)
        with pytest.raises(RankDeficientCovariates):
            covariate_adjusted_estimate(recs)

    def test_arm_too_small_for_ols(self):
        x = np.arange(6.0).reshape(6, 1)
        recs = make_records(np.arange(6.0) / 10, [1] * 2 + [0] * 4, covariates=x)
        with pytest.raises(ArmTooSmall):
            covariate_adjusted_estimate(recs)

    def test_translation_invariance_of_estimated_beta_path(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 2, size=(12, 1))
        lvals = 0.8 * x[:, 0] + rng.normal(scale=0.2, size=12)
        arms = [1] * 6 + [0] * 6
        recs = make_records(lvals, arms, covariates=x)
        shifted = make_records(lvals, arms, covariates=x + 100.0)
        a, _ = covariate_adjusted_estimate(recs)
        b, _ = covariate_adjusted_estimate(shifted)
        assert a.log_estimate == pytest.approx(b.log_estimate, abs=1e-12)
        assert a.se_log == pytest.approx(b.se_log, abs=1e-12)

    def test_enumeration_unbiased_with_fixed_beta_star(self, oracle_table_m6):
        # with the variance-minimizing coefficient from the known control
        # log-contrasts, the adjusted estimator stays unbiased and beats
        # the unadjusted variance
        table = oracle_table_m6(0.6)
        l0 = table.l0()
        x = table.covariates
        vx = np.cov(x.T, ddof=1).reshape(1, 1)
        cxl = np.atleast_1d(
            ((x - x.mean(0)).T @ (l0 - l0.mean())) / (table.m - 1)
        )
        beta_star = np.linalg.solve(vx, cxl)

        def adjusted(recs):
            rep, _ = covariate_adjusted_estimate(recs, beta=beta_star)
            return rep.log_estimate

        def plain(recs):
            return log_contrast_estimate(recs).log_estimate

        adj = enumeration_estimates(table, 3, adjusted)
        una = enumeration_estimates(table, 3, plain)
        assert adj.mean() == pytest.approx(math.log(0.6), abs=1e-12)
        assert adj.var(ddof=0) < una.var(ddof=0)

    def test_variance_decomposition_identity(self, oracle_table_m6):
        # Var(unadjusted) = Var(beta*-adjusted) + m/(m1 m0) beta*' V beta*
        table = oracle_table_m6(1.0)
        l0 = table.l0()
        x = table.covariates
        vx = np.cov(x.T, ddof=1).reshape(1, 1)
        cxl = np.atleast_1d(((x - x.mean(0)).T @ (l0 - l0.mean())) / (table.m - 1))
        beta_star = np.linalg.solve(vx, cxl)

        def adjusted(recs):
            rep, _ = covariate_adjusted_estimate(recs, beta=beta_star)
            return rep.log_estimate

        adj = enumeration_estimates(table, 3, adjusted)
        una = enumeration_estimates(
            table, 3, lambda recs: log_contrast_estimate(recs).log_estimate
        )
        penalty = (6 / (3 * 3)) * float(beta_star @ vx @ beta_star)
        assert una.var(ddof=0) == pytest.approx(adj.var(ddof=0) + penalty, abs=1e-10)
