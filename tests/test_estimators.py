import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crtnd import (
    ParallelScheme,
    PotentialTable,
    Trial,
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


def trial_of(rows):
    """The trial of ``(cluster_id, arm, y, z)`` rows, in row order."""
    return Trial(*zip(*rows))


def enumeration_estimates(table, m1, estimator):
    scheme = ParallelScheme(table.m, m1)
    out = []
    for a in enumerate_assignments(scheme):
        out.append(estimator(realize(table, a)))
    return np.array(out)


class TestOddsRatio:
    def test_symmetric_arms(self):
        recs = trial_of([
            ("a", 1, 10, 20),
            ("b", 0, 10, 20),
        ])
        assert odds_ratio_log(recs) == pytest.approx(0.0, abs=1e-15)

    def test_direct_substitution(self):
        recs = trial_of([
            ("a", 1, 5, 20),
            ("b", 0, 10, 20),
        ])
        assert math.exp(odds_ratio_log(recs)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_arm_total(self):
        recs = trial_of([
            ("a", 1, 0, 20),
            ("b", 0, 10, 20),
        ])
        with pytest.raises(ZeroArmTotal) as exc:
            odds_ratio_log(recs)
        assert "treated test-positive" in str(exc.value)

    @pytest.mark.parametrize("arm, count, name", [
        (1, "y", "treated test-positive"), (0, "y", "control test-positive"),
        (1, "z", "treated test-negative"), (0, "z", "control test-negative"),
    ])
    def test_zero_arm_total_is_decided_from_the_arm(self, arm, count, name):
        # the arm's own entries are all 0; the total less the other arm's
        # sum need not round to 0
        rng = np.random.default_rng(7)
        arms = np.arange(20) % 2 == 1
        counts = {"y": rng.uniform(0.1, 1e3, 20), "z": rng.uniform(0.1, 1e3, 20)}
        counts[count][arms == arm] = 0.0
        recs = Trial(tuple(f"k{i}" for i in range(20)), arms, counts["y"], counts["z"])
        with pytest.raises(ZeroArmTotal, match=name):
            odds_ratio_log(recs)

    def test_observed_log_odds_ratio_is_its_draw(self):
        from crtnd.estimators import odds_ratio_permutation_draws

        rng = np.random.default_rng(8)
        arms = np.arange(20) % 3 == 0
        recs = Trial(tuple(f"k{i}" for i in range(20)), arms,
                     rng.uniform(0.1, 1e3, 20), rng.uniform(0.1, 1e3, 20))
        (draw,) = odds_ratio_permutation_draws(recs.y, recs.z, arms[None].astype(float))
        assert odds_ratio_log(recs) == pytest.approx(draw, rel=1e-13, abs=1e-13)

    def test_report_has_permutation_se(self):
        rng = np.random.default_rng(0)
        recs = trial_of([
            (f"c{i}", i % 2, rng.uniform(5, 50), rng.uniform(5, 50))
            for i in range(8)
        ])
        rep = odds_ratio_estimate(recs)
        assert rep.se_log is not None and rep.se_log > 0
        assert rep.diagnostics["se_source"] == "permutation-exact"
        assert rep.ci_low < rep.estimate < rep.ci_high

    @pytest.mark.parametrize("n", [0, 1, 2, 999])
    def test_stacked_ses_are_each_rows_own(self, n):
        # rows with a NaN or an infinite draw, with fewer than 2 finite
        # ones, and finite rows, in one stack: each row's SE is the
        # standard deviation of its finite draws bit for bit, NaN below 2
        from crtnd.estimators import _permutation_ses

        draws = np.random.default_rng(n).normal(size=(6, n))
        if n:
            draws[1, 0] = np.nan
            draws[2, -1] = np.inf
            draws[3, :] = -np.inf
            draws[4, : n - 1] = np.nan
        got = _permutation_ses(draws)
        for row, se in zip(draws, got):
            finite = row[np.isfinite(row)]
            want = float(np.std(finite, ddof=1)) if finite.size >= 2 else np.nan
            assert repr(float(se)) == repr(want)
        if n == 999:
            assert np.isfinite(got).tolist() == [True, True, True, False, False, True]

    def test_se_is_exact_up_to_the_auto_limit(self):
        # C(18, 9) = 48620 relabelings: enumerated, as every auto test is
        rng = np.random.default_rng(1)
        recs = trial_of([
            (f"c{i:02d}", int(i < 9), rng.uniform(5, 50), rng.uniform(5, 50))
            for i in range(18)
        ])
        rep = odds_ratio_estimate(recs, se_draws=50)
        assert rep.diagnostics["se_source"] == "permutation-exact"

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
        recs = trial_of([
            ("a", 1, 10, 30),
            ("b", 0, 20, 60),
        ])
        t, r = tpf_statistic(recs)
        assert t == pytest.approx(0.0, abs=1e-15)
        assert r == pytest.approx(3.0, abs=1e-12)

    def test_arithmetic(self):
        fracs = {"a": 0.5, "b": 0.3, "c": 0.2, "d": 0.4}
        recs = trial_of([
            ("a", 1, 50, 50),
            ("b", 1, 30, 70),
            ("c", 0, 20, 80),
            ("d", 0, 40, 60),
        ])
        t, r = tpf_statistic(recs)
        assert t == pytest.approx(0.1, abs=1e-12)

    def test_pooled_ratio(self):
        recs = trial_of([
            ("a", 1, 60, 180),
            ("b", 0, 40, 120),
        ])
        _, r = tpf_statistic(recs)
        assert r == pytest.approx(3.0, abs=1e-12)

    def test_empty_cluster(self):
        recs = trial_of([
            ("a", 1, 0, 0),
            ("b", 0, 10, 10),
        ])
        with pytest.raises(EmptyCluster):
            tpf_statistic(recs)

    def test_zero_positive_total(self):
        recs = trial_of([
            ("a", 1, 0, 30),
            ("b", 0, 0, 40),
        ])
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

    @pytest.mark.parametrize("t", [-1e-300, -5e-324, 5e-324, 1e-300, -1e-17, 1e-17])
    def test_tiny_statistic_gives_one(self, t):
        # the root rounds to 1 whichever side of 0 T lies
        assert tpf_solve(t, 1.0) == 1.0

    @pytest.mark.parametrize("r", [0.01, 0.3, 1.0, 3.0, 50.0, 1e4])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_ulp_inside_the_bound(self, r, sign):
        # rounding may break a < 0 < c just inside the range: then no root
        bound = 2.0 / (2.0 + r)
        t = math.nextafter(sign * bound, 0.0)
        try:
            lam = tpf_solve(t, r)
        except NoAdmissibleRoot:
            return
        assert math.isfinite(lam) and lam > 0.0
        assert (lam > 1.0) == (sign > 0)

    @staticmethod
    def scalar_root(t_stat, r):
        """The stable root in scalar arithmetic, None where it is not
        admissible."""
        if t_stat == 0.0:
            return 1.0
        bound = 2.0 / (2.0 + r)
        a = r * (t_stat * (2.0 + r) - 2.0)
        b = t_stat * ((2.0 + r) * (2.0 + r) + r * r)
        c = r * (t_stat * (2.0 + r) + 2.0)
        if not (abs(t_stat) < bound and a < 0.0 < c):
            return None
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        return q / a if t_stat > 0.0 else c / q

    def test_array_kernel_is_the_scalar_root(self):
        # every entry of a stack gets the scalar root's bits, NaN where
        # tpf_solve raises, through the rounding guard just inside +-bound
        from crtnd.estimators import _tpf_roots

        ts, rs = [], []
        for r in (0.01, 0.3, 1.0, 3.0, 50.0, 1e4):
            bound = 2.0 / (2.0 + r)
            for t in (0.0, -0.0, 5e-324, -1e-17, 0.3 * bound, -0.9 * bound,
                      math.nextafter(bound, 0.0), math.nextafter(-bound, 0.0),
                      bound, -bound, 1.0, math.nan):
                ts.append(t)
                rs.append(r)
        roots = _tpf_roots(np.array(ts), np.array(rs))
        for t, r, root in zip(ts, rs, roots.tolist()):
            want = self.scalar_root(t, r)
            if want is None:
                assert math.isnan(root)
                with pytest.raises(NoAdmissibleRoot):
                    tpf_solve(t, r)
            else:
                assert root == want and tpf_solve(t, r) == want

    def test_estimate_flags_unequal_allocation(self):
        recs = trial_of([
            ("a", 1, 30, 70),
            ("b", 0, 20, 80),
            ("c", 0, 25, 75),
        ])
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

    @pytest.mark.parametrize("value", [2.0, 0.1, 3e-20])
    def test_rank_deficient(self, value):
        # a constant column is collinear with the intercept, whatever its
        # scale and however its mean rounds
        x = np.full((8, 1), value)
        recs = make_records(np.arange(8.0) / 10, [1] * 4 + [0] * 4, covariates=x)
        with pytest.raises(RankDeficientCovariates):
            covariate_adjusted_estimate(recs)

    @pytest.mark.parametrize("value", [2.0, 0.1, 3e-20])
    def test_covariate_constant_within_one_arm(self, value):
        # constant to rounding: half the treated arm one ulp above the rest
        rng = np.random.default_rng(31)
        x = rng.normal(size=(12, 1))
        x[:6, 0] = [value] * 3 + [np.nextafter(value, np.inf)] * 3
        recs = make_records(rng.normal(size=12), [1] * 6 + [0] * 6, covariates=x)
        with pytest.raises(RankDeficientCovariates, match="rank 1 < 2"):
            covariate_adjusted_estimate(recs)

    @pytest.mark.parametrize("scale", [1e-15, 1e-300, 1e15])
    def test_rank_rule_does_not_depend_on_the_units(self, scale):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(12, 1))
        lvals = 0.8 * x[:, 0] + rng.normal(scale=0.3, size=12)
        arms = [1] * 6 + [0] * 6
        est = covariate_adjusted_estimate(make_records(lvals, arms, covariates=x))[0]
        scaled = covariate_adjusted_estimate(make_records(lvals, arms, covariates=x * scale))[0]
        assert scaled.log_estimate == pytest.approx(est.log_estimate, rel=1e-12)
        assert scaled.se_log == pytest.approx(est.se_log, rel=1e-12)

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


class TestBatchedLeastSquares:
    """``_ols_rows`` solves a stack of per-arm fits in one batched SVD."""

    @staticmethod
    def lstsq_rows(x, y):
        """Reference: one ``np.linalg.lstsq`` per replicate on the centred
        design with an intercept column."""
        slopes, resid = [], []
        for xb, yb in zip(x, y):
            design = np.column_stack([np.ones(len(yb)), xb - xb.mean(axis=0)])
            coef, _, rank, _ = np.linalg.lstsq(design, yb, rcond=None)
            assert rank == design.shape[1]
            slopes.append(coef[1:])
            resid.append(yb - design @ coef)
        return np.array(slopes), np.array(resid)

    @staticmethod
    def stack(p, b=16, n=12, seed=80):
        rng = np.random.default_rng(seed + p)
        x = rng.normal(size=(b, n, p)) * np.array([3.0, 0.5])[:p] + 10.0
        y = x @ np.array([0.7, -1.3])[:p] + rng.normal(scale=0.2, size=(b, n))
        return x, y

    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_per_replicate_lstsq(self, p):
        from crtnd.estimators import _ols_rows

        x, y = self.stack(p)
        slopes, resid = _ols_rows(x, y)
        ref_slopes, ref_resid = self.lstsq_rows(x, y)
        np.testing.assert_allclose(slopes, ref_slopes, rtol=1e-12, atol=0)
        np.testing.assert_allclose(resid, ref_resid, rtol=1e-12,
                                   atol=1e-12 * np.abs(y).max())

    @pytest.mark.parametrize("p", [1, 2])
    def test_a_replicate_gets_its_bits_in_any_stack(self, p):
        # the simulation's chunks and the public estimator's stack of one
        # must agree bit for bit
        from crtnd.estimators import _ols_rows

        x, y = self.stack(p)
        slopes, resid = _ols_rows(x, y)
        for i in (0, 7, 15):
            one_slopes, one_resid = _ols_rows(x[i:i + 1], y[i:i + 1])
            assert one_slopes.tobytes() == slopes[i].tobytes()
            assert one_resid.tobytes() == resid[i].tobytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_pooled_fit_of_a_stack_of_one_matches_the_block(self, p):
        # covariate_adjusted_estimate passes a stack of one, the
        # simulation a block of up to 64 replicates: every output of a
        # replicate has the same bits in both
        from crtnd.estimators import _pooled_ols

        x, y = self.stack(p, b=64, n=12)
        block = _pooled_ols(y[:, :6], y[:, 6:], x[:, :6], x[:, 6:])
        for i in (0, 31, 63):
            one = _pooled_ols(y[i:i + 1, :6], y[i:i + 1, 6:], x[i:i + 1, :6],
                              x[i:i + 1, 6:])
            for a, b in zip(one, block):
                assert a[0].tobytes() == b[i].tobytes()

    def test_constant_covariate_in_one_arm_of_one_replicate_raises(self):
        # replicate 5's treated arm has a constant covariate, collinear
        # with the intercept; every other fit in the stack is full rank
        from crtnd.estimators import _pooled_ols

        x, y = self.stack(1, b=8, n=12)
        x1, x0 = x[:, :6].copy(), x[:, 6:]
        x1[5, :, 0] = 2.5
        _pooled_ols(y[:, :6], y[:, 6:], x[:, :6], x0)
        with pytest.raises(RankDeficientCovariates, match="rank 1 < 2"):
            _pooled_ols(y[:, :6], y[:, 6:], x1, x0)
