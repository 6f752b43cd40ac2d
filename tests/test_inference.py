import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crtnd import (
    NullSpec,
    ParallelScheme,
    covariate_adjusted_estimate,
    derive_rng,
    dose_response_estimate,
    enumerate_assignments,
    impute_null_outcomes,
    invert_ci,
    log_contrast_estimate,
    log_contrasts,
    normal_test,
    permutation_test,
    realize,
    sample_assignments,
)
from crtnd.errors import (
    ConstantDose,
    MissingDose,
    NoNonRejectedPoint,
    StatisticUndefined,
    SupportTooLarge,
)
from crtnd.estimators import normal_ci
from crtnd.inference import dose_response_pvalue

from conftest import make_records


class TestImputeNull:
    def test_lam0_one_is_identity(self):
        recs = make_records([0.3, -0.1, 0.2, 0.0], [1, 1, 0, 0])
        l0 = impute_null_outcomes(recs, NullSpec("relative_risk", 1.0))
        lvals = [math.log(y) - math.log(z) for y, z in zip(recs.y, recs.z)]
        np.testing.assert_allclose(l0, lvals, atol=1e-14)

    def test_beta0_zero_is_identity(self):
        recs = make_records([0.3, -0.1], [1, 0], doses=[0.7, 0.3])
        l0 = impute_null_outcomes(recs, NullSpec("dose_response", 0.0))
        lvals = [math.log(y) - math.log(z) for y, z in zip(recs.y, recs.z)]
        np.testing.assert_allclose(l0, lvals, atol=1e-14)

    def test_round_trip_recovers_table_l0(self, oracle_table_m6):
        table = oracle_table_m6(0.6)
        recs = realize(table, [1, 1, 1, 0, 0, 0])
        l0 = impute_null_outcomes(recs, NullSpec("relative_risk", 0.6))
        np.testing.assert_allclose(l0, table.l0(), atol=1e-12)

    def test_missing_dose(self):
        recs = make_records([0.3, -0.1], [1, 0])
        with pytest.raises(MissingDose):
            impute_null_outcomes(recs, NullSpec("dose_response", 1.0))

    def test_null_validation(self):
        with pytest.raises(ValueError):
            NullSpec("relative_risk", -1.0)
        with pytest.raises(ValueError):
            NullSpec("??", 1.0)


class TestPermutationTest:
    def test_toy_exact_p(self):
        # L = (3,3,0,0), treated {first two}: only the observed split and
        # its mirror reach |T| = 3 among the 6 assignments
        recs = make_records([3.0, 3.0, 0.0, 0.0], [1, 1, 0, 0])
        res = permutation_test(recs, NullSpec("relative_risk", 1.0), mode="exact")
        assert res.p_two_sided == pytest.approx(2 / 6, abs=1e-15)
        assert res.mode == "exact"
        assert res.null_draws == 6

    def test_constant_statistic_p_one(self):
        recs = make_records([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0])
        res = permutation_test(recs, NullSpec("relative_risk", 1.0), mode="exact")
        assert res.p_two_sided == 1.0

    def test_monte_carlo_matches_exact(self):
        recs = make_records([3.0, 3.0, 0.0, 0.0], [1, 1, 0, 0])
        res = permutation_test(
            recs,
            NullSpec("relative_risk", 1.0),
            mode="monte_carlo",
            n_draws=10_000,
            seed=11,
        )
        assert res.p_two_sided == pytest.approx(2 / 6, abs=0.02)
        assert res.p_two_sided > 0

    def test_monte_carlo_add_one_rule(self):
        recs = make_records([5.0, 4.5, 0.0, -0.5], [1, 1, 0, 0])
        res = permutation_test(
            recs, NullSpec("relative_risk", 1.0), mode="monte_carlo",
            n_draws=99, seed=2,
        )
        assert res.p_two_sided >= 1 / 100

    def test_reproducible_given_seed(self):
        recs = make_records(np.linspace(-1, 1, 8), [1, 0] * 4)
        a = permutation_test(
            recs, NullSpec("relative_risk", 1.0), mode="monte_carlo",
            n_draws=500, seed=7,
        )
        b = permutation_test(
            recs, NullSpec("relative_risk", 1.0), mode="monte_carlo",
            n_draws=500, seed=7,
        )
        assert a.p_two_sided == b.p_two_sided

    def test_covariate_statistic_requires_covariates(self):
        recs = make_records([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0])
        with pytest.raises(StatisticUndefined):
            permutation_test(
                recs, NullSpec("relative_risk", 1.0), "covariate_adjusted",
                mode="exact",
            )

    def test_tpf_statistic_relative_risk_only(self):
        recs = make_records([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0], doses=[1, 1, 0, 0])
        with pytest.raises(StatisticUndefined):
            permutation_test(recs, NullSpec("dose_response", 0.0), "tpf")

    def test_super_uniformity_exact(self, oracle_table_m6):
        # under the true null, P(p <= a) <= a at every attainable level,
        # by double enumeration
        table = oracle_table_m6(0.6)
        scheme = ParallelScheme(6, 3)
        total = scheme.total_assignments
        pvals = []
        for a in enumerate_assignments(scheme):
            recs = realize(table, a)
            res = permutation_test(
                recs, NullSpec("relative_risk", 0.6), mode="exact"
            )
            pvals.append(res.p_two_sided)
        pvals = np.array(pvals)
        for k in range(1, total + 1):
            alpha = k / total
            assert np.mean(pvals <= alpha + 1e-12) <= alpha + 1e-12

    def test_self_consistency_at_true_null(self, oracle_table_m6):
        # data realized from the table tested at the true lam: the exact
        # p-value equals the one computed from the table's own L(0)
        table = oracle_table_m6(0.2)
        recs = realize(table, [0, 1, 0, 1, 1, 0])
        res = permutation_test(recs, NullSpec("relative_risk", 0.2), mode="exact")
        assert res.p_two_sided >= 1 / 20


class TestAdjustedRows:
    def test_batched_equals_row_by_row(self):
        from crtnd.inference import (
            _adjusted_diff_rows_batched,
            _adjusted_diff_rows_loop,
        )

        rng = np.random.default_rng(77)
        m, m1, p = 16, 8, 2
        values = rng.normal(size=m)
        x = rng.normal(size=(m, p))
        rows = np.zeros((300, m), dtype=np.int8)
        for r in range(300):
            rows[r, rng.choice(m, m1, replace=False)] = 1
        shift = rng.normal(size=m)
        # one set of normal matrices serves both vectors
        batched = _adjusted_diff_rows_batched(x, rows, m1, values, shift)
        for v, a in zip((values, shift), batched):
            b = _adjusted_diff_rows_loop(v, x, rows, m1)
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestCovariatePermutationValidity:
    def test_exact_size_under_true_null(self):
        # double enumeration on a small design: the covariate-adjusted
        # permutation test is super-uniform at the true null
        rng = np.random.default_rng(31)
        m, m1 = 8, 4
        x = rng.uniform(0, 2, size=(m, 1))
        l0 = 1.2 * x[:, 0] + rng.normal(0, 0.3, m)
        lam = 0.6
        total = 70  # C(8, 4)
        pvals = []
        for a in enumerate_assignments(ParallelScheme(m, m1)):
            lvals = l0 + a * math.log(lam)
            recs = make_records(lvals, a, covariates=x)
            res = permutation_test(
                recs, NullSpec("relative_risk", lam), "covariate_adjusted",
                mode="exact",
            )
            pvals.append(res.p_two_sided)
        pvals = np.array(pvals)
        assert len(pvals) == total
        for k in range(1, total + 1):
            alpha = k / total
            assert np.mean(pvals <= alpha + 1e-12) <= alpha + 1e-12


class TestNormalTest:
    def test_null_estimate_gives_p_one(self):
        recs = make_records([0.4, 0.4, 0.4, 0.4, 0.4, 0.4], [1, 1, 1, 0, 0, 0])
        rep = normal_test(recs, NullSpec("relative_risk", 1.0))
        assert rep.p_value == 1.0
        assert "degenerate_variance" in rep.diagnostics

    def test_z_around_196(self):
        # build data with known estimate and se: estimate-null = 1.96*se
        rng = np.random.default_rng(8)
        recs = make_records(
            rng.normal(0, 0.3, 12), [1] * 6 + [0] * 6
        )
        base = log_contrast_estimate(recs)
        lam0 = math.exp(base.log_estimate - 1.96 * base.se_log)
        rep = normal_test(recs, NullSpec("relative_risk", lam0))
        assert rep.p_value == pytest.approx(0.05, abs=0.001)

    def test_degenerate_nonmatching_p_zero(self):
        recs = make_records([0.4, 0.4, 0.0, 0.0], [1, 1, 0, 0])
        rep = normal_test(recs, NullSpec("relative_risk", 1.0))
        assert rep.p_value == 0.0
        assert "degenerate_variance" in rep.diagnostics


class TestInvertCi:
    def test_normal_inversion_matches_closed_form(self):
        rng = np.random.default_rng(9)
        recs = make_records(rng.normal(0.2, 0.4, 10), [1] * 5 + [0] * 5)
        base = log_contrast_estimate(recs)
        lo, hi, diag = invert_ci(recs, "log_contrast", test="normal")
        assert (lo, hi) == (base.ci_low, base.ci_high)
        assert diag == {"method": "log_contrast", "test": "normal", "alpha": 0.05}

    def test_permutation_inversion_matches_brute_force(self):
        # m=4 toy: the attainable exact p-values are multiples of 1/6, so
        # test at a level above the floor of 2/6 and compare the bisected
        # endpoints to a dense manual scan
        recs = make_records([0.9, 0.8, 0.1, 0.0], [1, 1, 0, 0])
        alpha = 0.34
        lo, hi, _ = invert_ci(
            recs, "log_contrast", test="permutation", mode="exact", alpha=alpha,
        )
        thetas = np.linspace(math.log(lo) - 0.5, math.log(hi) + 0.5, 2000)
        kept = []
        for theta in thetas:
            res = permutation_test(
                recs, NullSpec("relative_risk", math.exp(theta)), mode="exact"
            )
            if res.p_two_sided > alpha:
                kept.append(theta)
        assert math.log(lo) == pytest.approx(min(kept), abs=2e-3)
        assert math.log(hi) == pytest.approx(max(kept), abs=2e-3)

    def test_no_non_rejected_point(self):
        # 20 arm splits, each with its mirror image: every exact p is at
        # least 2/20 > 0.05, so no scan edge is ever rejected
        recs = make_records([0.9, 0.8, 0.1, 0.0, 0.85, 0.05], [1, 1, 0, 0, 1, 0])
        with pytest.raises(NoNonRejectedPoint):
            invert_ci(recs, "log_contrast", test="permutation", mode="exact",
                      alpha=0.05)

    def test_non_unimodal_curve_bisects_outer_boundaries(self):
        # two acceptance islands: the outer boundaries span both, with a
        # warning and the flag
        from crtnd.inference import _invert_scan

        def pfun(theta):
            return 0.5 if abs(theta - 1.0) < 0.1 or abs(theta + 1.0) < 0.1 else 0.01

        with pytest.warns(RuntimeWarning, match="not unimodal"):
            lo, hi, diag = _invert_scan(pfun, 0.0, 2.0, 0.05, n_scan=401, tol=1e-6)
        assert diag["non_unimodal"] is True
        assert lo == pytest.approx(-1.1, abs=2e-6)
        assert hi == pytest.approx(1.1, abs=2e-6)


class TestDoseResponse:
    def test_perfect_compliance_reduces_to_log_contrast(self):
        rng = np.random.default_rng(13)
        arms = np.array([1] * 6 + [0] * 6)
        l0 = rng.normal(0.3, 0.4, 12)
        lam = 0.6
        lvals = l0 + arms * math.log(lam)
        recs = make_records(lvals, arms, doses=arms.astype(float))
        dr = dose_response_estimate(recs, adjustment="none")
        lc = log_contrast_estimate(recs)
        assert dr.log_estimate == pytest.approx(lc.log_estimate, abs=1e-9)
        # with doses equal to arms the Fieller interval is the log-scale
        # Wald interval of the log-contrast estimator
        lo, hi, _ = invert_ci(recs, "dose_response", test="normal",
                              adjustment="none")
        assert lo == pytest.approx(math.log(lc.ci_low), abs=1e-9)
        assert hi == pytest.approx(math.log(lc.ci_high), abs=1e-9)
        p_lc = normal_test(recs, NullSpec("relative_risk", lam)).p_value
        p_dr = dose_response_pvalue(recs, math.log(lam))
        assert p_dr == pytest.approx(p_lc, abs=1e-9)

    @pytest.mark.parametrize("covariates", [False, True])
    @pytest.mark.parametrize("beta0", [0.0, -0.8])
    def test_ratio_divides_by_the_adjusted_dose_difference(self, covariates, beta0):
        from crtnd.inference import _dose_stat

        recs = trial_records(5, 16, 8, covariates=covariates)
        adjustment = "covariates" if covariates else "none"
        stat = _dose_stat(recs, adjustment)
        doses = recs.dose
        assert stat.den == pytest.approx(
            adjusted_difference(doses, recs, adjustment), rel=1e-12
        )
        rep = normal_test(recs, NullSpec("dose_response", beta0, adjustment),
                          "dose_response")
        assert rep.log_estimate == stat.num / stat.den
        assert rep.se_log == stat.at(beta0)[1] / abs(stat.den)
        assert rep.diagnostics["dose_arm_difference"] == stat.den
        est = dose_response_estimate(recs, adjustment=adjustment)
        assert est.se_log == stat.at(stat.num / stat.den)[1] / abs(stat.den)

    def test_exact_linear_model(self):
        doses = np.linspace(0.1, 0.9, 10)
        lvals = 2.0 - 3.0 * doses
        recs = make_records(lvals, [1] * 5 + [0] * 5, doses=doses)
        rep = dose_response_estimate(recs, adjustment="none")
        assert rep.log_estimate == pytest.approx(-3.0, abs=1e-9)
        assert rep.p_value == 1.0

    def test_constant_dose_raises(self):
        recs = make_records([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0],
                            doses=[0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ConstantDose):
            dose_response_estimate(recs)

    def test_point_estimate_maximizes_p(self):
        rng = np.random.default_rng(14)
        arms = np.array([1] * 8 + [0] * 8)
        doses = np.where(arms == 1, rng.uniform(0.6, 0.8, 16),
                         rng.uniform(0.2, 0.4, 16))
        lvals = 0.5 - 2.0 * doses + rng.normal(0, 0.2, 16)
        recs = make_records(lvals, arms, doses=doses)
        rep = dose_response_estimate(recs, adjustment="none")
        p_at_hat = dose_response_pvalue(recs, rep.log_estimate)
        for delta in (-0.05, 0.05):
            assert p_at_hat >= dose_response_pvalue(recs, rep.log_estimate + delta)
        assert rep.ci_low < rep.log_estimate < rep.ci_high
        assert rep.diagnostics["dose_range"][0] >= 0.2

    def test_covariate_adjusted_dose_coverage(self):
        # with a prognostic covariate, the adjusted dose CI still covers
        beta_true = -2.0
        covered = 0
        n_rep = 200
        for rep in range(200):
            rng = np.random.default_rng(1000 + rep)
            arms = np.zeros(16, dtype=int)
            arms[rng.choice(16, 8, replace=False)] = 1
            doses = np.where(arms == 1, rng.uniform(0.6, 0.8, 16),
                             rng.uniform(0.2, 0.4, 16))
            x = rng.uniform(0, 2, size=(16, 1))
            lvals = 0.9 * x[:, 0] + beta_true * doses + rng.normal(0, 0.15, 16)
            recs = make_records(lvals, arms, covariates=x, doses=doses)
            rep_est = dose_response_estimate(recs, adjustment="covariates")
            covered += rep_est.ci_low <= beta_true <= rep_est.ci_high
        assert covered / n_rep >= 0.90

    def test_permutation_variant_runs(self):
        rng = np.random.default_rng(15)
        arms = np.array([1] * 4 + [0] * 4)
        doses = np.where(arms == 1, 0.7, 0.3) + rng.uniform(-0.05, 0.05, 8)
        lvals = 0.5 - 1.5 * doses + rng.normal(0, 0.3, 8)
        recs = make_records(lvals, arms, doses=doses)
        rep = dose_response_estimate(recs, adjustment="none", test="permutation",
                                     mode="exact")
        assert rep.ci_low < rep.log_estimate < rep.ci_high
        # the estimate is D / A, where the observed statistic vanishes
        arms = arms.astype(bool)
        lv = log_contrasts(recs)
        ratio = (lv[arms].mean() - lv[~arms].mean()) / (
            doses[arms].mean() - doses[~arms].mean()
        )
        assert rep.log_estimate == pytest.approx(ratio, rel=1e-12)
        assert rep.p_value == 1.0

    @pytest.mark.parametrize("test", ["normal", "permutation"])
    @pytest.mark.parametrize("adjustment", ["none", "covariates"])
    def test_one_pvalue_function_per_estimate(self, monkeypatch, test, adjustment):
        import crtnd.inference as inference

        rng = np.random.default_rng(16)
        arms = np.array([1] * 8 + [0] * 8)
        doses = np.where(arms == 1, 0.8, 0.1) + rng.uniform(-0.1, 0.1, 16)
        x = rng.uniform(0.5, 2.0, (16, 1))
        lvals = 0.5 - 1.5 * doses + 0.3 * x[:, 0] + rng.normal(0, 0.3, 16)
        recs = make_records(lvals, arms, covariates=x, doses=doses)
        options = dict(adjustment=adjustment, test=test, mode="monte_carlo",
                       n_draws=300, seed=4)
        expected_ci = invert_ci(recs, "dose_response", **options)[:2]
        built = []
        original = inference._pvalue_function

        def counting(*args, **kwargs):
            built.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(inference, "_pvalue_function", counting)
        rep = dose_response_estimate(recs, **options)
        # the Normal CI is closed-form: no p-value function at all
        assert built == ([] if test == "normal" else ["dose_response"])
        # the shared function gives the CI a fresh one gives
        assert (rep.ci_low, rep.ci_high) == expected_ci


def trial_records(seed, m, m1, *, covariates):
    """m clusters, m1 treated, doses uniform on [0, 0.5] plus 0.5 if
    treated; L falls by 1.2 per unit dose and rises by 0.7 per unit x."""
    rng = np.random.default_rng(seed)
    arms = np.zeros(m, dtype=int)
    arms[rng.choice(m, m1, replace=False)] = 1
    doses = rng.uniform(0.0, 0.5, m) + 0.5 * arms
    x = rng.uniform(0.0, 2.0, (m, 1))
    lvals = 0.3 + 0.7 * x[:, 0] - 1.2 * doses + rng.normal(0.0, 0.3, m)
    return make_records(lvals, arms, covariates=x if covariates else None, doses=doses)


@st.composite
def trials(draw):
    """(records, adjustment): 8-24 clusters, at least 4 in each arm."""
    m = draw(st.integers(8, 24))
    m1 = draw(st.integers(4, m - 4))
    covariates = draw(st.booleans())
    recs = trial_records(draw(st.integers(0, 2**32 - 1)), m, m1, covariates=covariates)
    return recs, "covariates" if covariates else "none"


def adjusted_difference(values, recs, adjustment):
    """Arm difference of ``values``, less pooled per-arm least-squares
    slopes times the covariate mean difference under adjustment."""
    arms = recs.arm
    diff = values[arms].mean() - values[~arms].mean()
    if adjustment == "none":
        return diff
    x = recs.x
    slopes = 0.0
    for mask in (arms, ~arms):
        xc = x[mask] - x[mask].mean(axis=0)
        vc = values[mask] - values[mask].mean()
        slopes = slopes + mask.sum() / recs.m * np.linalg.solve(xc.T @ xc, xc.T @ vc)
    return diff - slopes @ (x[arms].mean(axis=0) - x[~arms].mean(axis=0))


def bounded(recs, adjustment):
    """False, after checking the claim, where the Normal dose CI raises
    because the accepted set is unbounded; True otherwise."""
    try:
        invert_ci(recs, "dose_response", test="normal", adjustment=adjustment)
    except NoNonRejectedPoint:
        far = [dose_response_pvalue(recs, b, adjustment=adjustment) for b in (-1e8, 1e8)]
        assert min(far) > 0.05
        return False
    return True


class TestClosedFormInversion:
    """Normal-test inversion in closed form: Fieller and Wald intervals."""

    @settings(max_examples=60, deadline=None)
    @given(trials())
    def test_fieller_endpoints_are_the_alpha_crossings(self, trial):
        recs, adjustment = trial
        assume(bounded(recs, adjustment))
        lo, hi, _ = invert_ci(recs, "dose_response", test="normal",
                              adjustment=adjustment)
        for end, outward in ((lo, -1.0), (hi, 1.0)):
            step = 1e-9 * max(1.0, abs(end))
            inside = dose_response_pvalue(recs, end - outward * step,
                                          adjustment=adjustment)
            outside = dose_response_pvalue(recs, end + outward * step,
                                           adjustment=adjustment)
            assert inside > 0.05 >= outside

    @settings(max_examples=60, deadline=None)
    @given(trials())
    def test_estimate_is_the_ratio_with_p_one(self, trial):
        recs, adjustment = trial
        assume(bounded(recs, adjustment))
        rep = dose_response_estimate(recs, adjustment=adjustment)
        doses = recs.dose
        ratio = adjusted_difference(log_contrasts(recs), recs, adjustment) / (
            adjusted_difference(doses, recs, adjustment)
        )
        assert rep.log_estimate == pytest.approx(ratio, rel=1e-10, abs=1e-12)
        assert rep.p_value == rep.diagnostics["p_max"] == 1.0
        p_at_hat = dose_response_pvalue(recs, rep.log_estimate, adjustment=adjustment)
        assert p_at_hat == pytest.approx(1.0, abs=1e-12)
        assert rep.ci_low < rep.log_estimate < rep.ci_high

    @settings(max_examples=30, deadline=None)
    @given(st.integers(4, 12), st.integers(0, 2**32 - 1))
    def test_weak_instrument_raises(self, half, seed):
        # both arms take the same multiset of doses: A = 0 <= z^2 c, so
        # every large |beta0| is accepted and the Normal set is unbounded
        rng = np.random.default_rng(seed)
        doses = rng.uniform(0.0, 1.0, half)
        recs = make_records(
            rng.normal(0.0, 0.3, 2 * half), [1] * half + [0] * half,
            doses=np.concatenate([doses, rng.permutation(doses)]),
        )
        with pytest.raises(NoNonRejectedPoint):
            dose_response_estimate(recs, adjustment="none")

    @settings(max_examples=60, deadline=None)
    @given(
        trials(),
        st.sampled_from(["log_contrast", "covariate_adjusted"]),
        st.sampled_from([0.01, 0.05, 0.2]),
    )
    def test_invert_normal_is_the_wald_interval(self, trial, method, alpha):
        recs, _ = trial
        if method == "covariate_adjusted" and recs.x.shape[1] == 0:
            return
        lo, hi, _ = invert_ci(recs, method, test="normal", alpha=alpha)
        if method == "log_contrast":
            base = log_contrast_estimate(recs)
        else:
            base, _ = covariate_adjusted_estimate(recs)
        assert (lo, hi) == normal_ci(base.log_estimate, base.se_log, alpha)

    # (seed, m, covariates, (estimate, ci_low, ci_high)) from the earlier
    # golden-section search and 1e-6 bisection of the Normal p-value
    SEARCHED = [
        (31, 12, False, (-0.460283611657093, -2.1081548915958903, 0.7486663090937663)),
        (32, 16, True, (-1.3667368396233246, -1.9068449677666717, -0.7598486665816813)),
        (33, 20, False, (-0.6022426363166149, -1.3506224452739195, 0.35298348865452245)),
        (34, 24, True, (-1.147394168155558, -1.5611081996256346, -0.7304049965560784)),
    ]

    @pytest.mark.parametrize("seed,m,covariates,searched", SEARCHED)
    def test_within_the_search_tolerances(self, seed, m, covariates, searched):
        recs = trial_records(seed, m, m // 2, covariates=covariates)
        rep = dose_response_estimate(recs)
        estimate, ci_low, ci_high = searched
        assert rep.log_estimate == pytest.approx(estimate, abs=1e-9)
        assert rep.ci_low == pytest.approx(ci_low, abs=1e-6)
        assert rep.ci_high == pytest.approx(ci_high, abs=1e-6)


# m = 8, m1 = m0 = 4.  Log-contrasts, covariates and doses repeat, and
# clusters c02 (treated) and c04 (control) agree in all three, so the
# permutation distributions hold exact ties at every null.
TIED_L = [0.4, 0.4, 0.1, -0.2, 0.1, 0.1, -0.3, -0.3]
TIED_ARMS = [1, 1, 1, 1, 0, 0, 0, 0]
TIED_X = [[1.0], [1.0], [2.0], [0.5], [2.0], [1.5], [0.5], [3.0]]
TIED_DOSES = [0.8, 0.8, 0.9, 0.7, 0.9, 0.1, 0.0, 0.2]


def tied_records():
    return make_records(TIED_L, TIED_ARMS, covariates=TIED_X, doses=TIED_DOSES)


def arm_difference(values, arms, x):
    """Treated-minus-control difference of ``values`` under the boolean
    ``arms``, less pooled per-arm least-squares slopes times the covariate
    mean difference when ``x`` is given."""
    diff = values[arms].mean() - values[~arms].mean()
    if x is None:
        return diff
    slopes = 0.0
    for mask in (arms, ~arms):
        design = np.column_stack([np.ones(mask.sum()), x[mask]])
        coef, *_ = np.linalg.lstsq(design, values[mask], rcond=None)
        slopes = slopes + mask.sum() / arms.size * coef[1:]
    return diff - slopes @ (x[arms].mean(axis=0) - x[~arms].mean(axis=0))


def ties_records(m, m1, seed):
    """m clusters, the first m1 treated; log-contrasts, covariates and
    doses rounded to one decimal, so the statistics hold exact ties."""
    rng = np.random.default_rng(seed)
    arms = np.arange(m) < m1
    lvals = np.round(rng.normal(0.0, 0.4, m), 1)
    x = np.round(rng.uniform(0.0, 3.0, (m, 1)), 1)
    doses = np.round(np.where(arms, rng.uniform(0.5, 1.0, m), rng.uniform(0.0, 0.4, m)), 1)
    return make_records(lvals, arms.astype(int), covariates=x, doses=doses)


class TestSweptInterval:
    """Permutation CIs of the linear statistics against brute force: every
    assignment's D and A by its own least squares, p(theta) counted
    directly at every root of every assignment and between them."""

    CASES = [
        ("log_contrast", "none"),
        ("covariate_adjusted", "none"),
        ("dose_response", "none"),
        ("dose_response", "covariates"),
    ]
    DESIGNS = {
        "tied m=8, 4 treated": tied_records,
        "m=10, 3 treated": lambda: ties_records(10, 3, 7),
        "m=12, 6 treated": lambda: ties_records(12, 6, 3),
    }

    @staticmethod
    def brute_force(recs, method, adjustment):
        """theta -> exact p, and every root of every assignment."""
        lvals = log_contrasts(recs)
        shift = recs.dose if method == "dose_response" else recs.arm.astype(float)
        x = recs.x if "covariate" in method + adjustment else None
        rows = [a.astype(bool) for a in enumerate_assignments(recs.scheme)]
        d = np.array([arm_difference(lvals, r, x) for r in rows])
        a = np.array([arm_difference(shift, r, x) for r in rows])
        d_obs, a_obs = arm_difference(lvals, recs.arm, x), arm_difference(shift, recs.arm, x)

        def p(theta):
            level = abs(d_obs - theta * a_obs)
            return np.mean(np.abs(d - theta * a) >= level - 1e-9 * (1.0 + level))

        roots = []
        for num, den in ((d - d_obs, a - a_obs), (d + d_obs, a + a_obs)):
            keep = np.abs(den) > 1e-9
            roots.append(num[keep] / den[keep])
        roots = np.unique(np.concatenate(roots))
        # roots that tie in exact arithmetic differ by rounding: keep one
        return p, roots[np.r_[True, np.diff(roots) > 1e-9 * (1.0 + np.abs(roots[1:]))]]

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    @pytest.mark.parametrize("design", list(DESIGNS))
    @pytest.mark.parametrize("method,adjustment", CASES)
    def test_endpoints_and_curve(self, method, adjustment, design, alpha):
        from crtnd.inference import _pvalue_function

        recs = self.DESIGNS[design]()
        p, roots = self.brute_force(recs, method, adjustment)
        pfun, kind = _pvalue_function(recs, method, adjustment=adjustment,
                                      mode="exact", n_draws=0, seed=0)
        # the curve is constant between roots: equal to brute force there
        mids = np.concatenate([[roots[0] - 1.0], (roots[:-1] + roots[1:]) / 2,
                               [roots[-1] + 1.0]])
        assert [pfun(t) for t in mids] == [p(t) for t in mids]
        # the accepted set: outermost roots with p > alpha, if bounded
        options = dict(test="permutation", mode="exact", adjustment=adjustment,
                       alpha=alpha)
        if max(p(mids[0]), p(mids[-1])) > alpha:
            with pytest.raises(NoNonRejectedPoint, match="unbounded"):
                invert_ci(recs, method, **options)
            return
        kept = roots[[p(t) > alpha for t in roots]]
        lo, hi, diag = invert_ci(recs, method, **options)
        if kind == "relative_risk":
            lo, hi = math.log(lo), math.log(hi)
        assert lo == pytest.approx(kept[0], abs=1e-9)
        assert hi == pytest.approx(kept[-1], abs=1e-9)
        inside = np.sort(np.concatenate([roots, mids]))
        inside = inside[(inside >= kept[0]) & (inside <= kept[-1])]
        assert diag["non_interval"] == (min(p(t) for t in inside) <= alpha)
        assert diag["p_max"] == 1.0
        assert diag["grid_points"] == pfun.points.size

    def test_unbounded_set_raises(self):
        # every exact p is at least 2/20 > 0.05 (test_no_non_rejected_point):
        # the curve is above alpha far out on both sides
        from crtnd.inference import _pvalue_function

        recs = make_records([0.9, 0.8, 0.1, 0.0, 0.85, 0.05], [1, 1, 0, 0, 1, 0])
        pfun, _ = _pvalue_function(recs, "log_contrast", adjustment="none",
                                   mode="exact", n_draws=0, seed=0)
        assert pfun(-1e9) > 0.05 and pfun(1e9) > 0.05
        with pytest.raises(NoNonRejectedPoint, match="unbounded"):
            pfun.interval(0.05)

    def test_gaps_are_flagged(self):
        from crtnd.inference import _PCurve

        # p at points 0..3 and on the stretches around them; 1.5 is rejected
        curve = _PCurve(np.arange(4.0), np.array([0, 4, 4, 4, 0, 6, 0, 3, 0]) / 20)
        assert (curve(1.0), curve(1.5), curve(3.0), curve(7.0)) == (0.2, 0.0, 0.15, 0.0)
        lo, hi, diag = curve.interval(0.1)
        assert (lo, hi) == (0.0, 3.0) and diag["non_interval"] is True
        assert diag["p_max"] == 0.3 and diag["grid_points"] == 4
        lo, hi, diag = curve.interval(0.25)
        assert (lo, hi) == (2.0, 2.0) and diag["non_interval"] is False
        with pytest.raises(NoNonRejectedPoint, match="no parameter value"):
            curve.interval(0.3)


class TestSplitPValueFunction:
    """The swept p(theta) against a direct count at one null between each
    pair of its breakpoints and beyond both ends: in exact mode against
    permutation_test, which counts the same (D, A) rows; in Monte Carlo
    mode against the tail of those rows on the CI stream's draws."""

    CASES = [
        ("log_contrast", "none", "difference_in_means"),
        ("covariate_adjusted", "none", "covariate_adjusted"),
        ("dose_response", "none", "difference_in_means"),
        ("dose_response", "covariates", "difference_in_means"),
    ]

    @staticmethod
    def midpoints(points):
        return np.concatenate([[points[0] - 1.0], (points[:-1] + points[1:]) / 2,
                               [points[-1] + 1.0]])

    @pytest.mark.parametrize("design", list(TestSweptInterval.DESIGNS))
    @pytest.mark.parametrize("method,adjustment,statistic", CASES)
    def test_exact_curve_is_the_test(self, method, adjustment, statistic, design):
        from crtnd.inference import _pvalue_function

        recs = TestSweptInterval.DESIGNS[design]()
        pfun, kind = _pvalue_function(recs, method, adjustment=adjustment, mode="exact",
                                      n_draws=0, seed=0)
        for theta in self.midpoints(pfun.points):
            value = math.exp(theta) if kind == "relative_risk" else theta
            null = NullSpec(kind, value, adjustment)
            assert permutation_test(recs, null, statistic, mode="exact").p_two_sided == pfun(theta)

    @pytest.mark.parametrize("method,adjustment,statistic", CASES)
    def test_monte_carlo_curve_counts_the_drawn_rows(self, method, adjustment, statistic):
        from crtnd.inference import _pvalue_function, _statistic, _tail_counts

        recs = tied_records()
        n_draws, seed = 300, 11
        pfun, kind = _pvalue_function(recs, method, adjustment=adjustment,
                                      mode="monte_carlo", n_draws=n_draws, seed=seed)
        stat = _statistic(recs, statistic, kind, adjustment)
        rows = sample_assignments(ParallelScheme(8, 4), n_draws, derive_rng(seed, 0xC1))
        parts = stat.rows(rows.astype(float))
        pvals = []
        for theta in self.midpoints(pfun.points):
            deviate, observed = stat.at(theta)
            two, _, _ = _tail_counts(deviate(parts), observed)
            assert pfun(theta) == (1 + two) / (1 + n_draws)
            pvals.append(pfun(theta))
        assert min(pvals) < 0.2 < max(pvals)  # the curve is actually traversed

    def test_p_is_one_at_the_point_estimate(self):
        # the observed statistic is computed as the estimate is, so it is
        # exactly zero there and every assignment ties or exceeds it
        from crtnd.inference import _pvalue_function

        recs = tied_records()
        pfun, _ = _pvalue_function(
            recs, "log_contrast", adjustment="none", mode="exact",
            n_draws=0, seed=0,
        )
        assert pfun(log_contrast_estimate(recs).log_estimate) == 1.0
        assert pfun.p.max() == 1.0


class TestEnumeratedBlocks:
    def test_rows_and_order_match_enumerate_assignments(self, monkeypatch):
        from crtnd import core

        scheme = ParallelScheme(8, 3)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * 8 * 10)
        blocks = list(core.randomize(scheme, "exact", 0, (0,)).blocks())
        assert len(blocks) > 1
        assert all(b.shape[0] <= 10 and b.shape[1] == 8 for b in blocks)
        assert all(b.dtype == np.float64 for b in blocks)
        expected = np.array(list(enumerate_assignments(scheme)))
        np.testing.assert_array_equal(np.concatenate(blocks), expected)

    def test_support_above_cap_raises(self, monkeypatch):
        from crtnd import core

        monkeypatch.setattr(core, "ENUMERATION_CAP", 251)
        with pytest.raises(SupportTooLarge):
            core.randomize(ParallelScheme(10, 5), "exact", 0, (0,))


class TestExactPValuesSuperUniform:
    """Under a sharp null, exact p-values are super-uniform over the
    design: at most alpha of all assignments give a two-sided p <= alpha,
    at every attained level alpha up to 1/2.

    The observed statistic and its enumerated twin are computed by
    different arithmetic (a one-row product, or the estimator's own
    sums, against a row of a block product).  Where they round
    differently and |T| is the smallest of the support, the tie slack's
    floor (``_TIE_RTOL * max(|T|, 1)``) keeps that assignment's own tie,
    so p is 1 there and not (N - 1) / N; the examples of
    :meth:`test_every_level` pin it at every level.
    """

    @staticmethod
    def check(pvalues, support, top=0.5):
        """Super-uniformity at every attained level up to ``top``."""
        p = np.asarray(pvalues)
        assert p.size == support
        for alpha in np.unique(p[p <= top]):
            assert np.count_nonzero(p <= alpha) <= alpha * support * (1 + 1e-12)

    @staticmethod
    def parallel_pvalues(m, m1, seed, statistic):
        from crtnd import PotentialTable

        rng = np.random.default_rng(seed)
        # log-contrasts are free of ascertainment; the count statistics
        # hold counts fixed, which the no-effect null does only at c = 1
        c = rng.uniform(0.3, 1.7, m) if statistic == "log_contrast" else np.ones(m)
        table = PotentialTable(lam=1.0, y0=rng.integers(1, 60, m).astype(float),
                               z0=rng.integers(1, 60, m).astype(float), c=c)
        null = NullSpec("relative_risk", 1.0)
        pvalues = [
            permutation_test(realize(table, a), null, statistic, mode="exact").p_two_sided
            for a in enumerate_assignments(ParallelScheme(m, m1))
        ]
        return pvalues, math.comb(m, m1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["log_contrast", "tpf", "odds_ratio"]),
    )
    def test_parallel_statistics(self, design, seed, statistic):
        self.check(*self.parallel_pvalues(*design, seed, statistic))

    @staticmethod
    def wedge_pvalues(q, seed):
        import warnings

        from crtnd import PeriodPotentialTable, SteppedWedgeScheme, sw_permutation_test

        try:
            scheme = SteppedWedgeScheme(sum(q), tuple(q))
        except ValueError:  # no period with both arms
            assume(False)
        rng = np.random.default_rng(seed)
        shape = (scheme.m, scheme.n_periods)
        table = PeriodPotentialTable(
            lam=1.0, y0=rng.integers(1, 60, shape).astype(float),
            z0=rng.integers(1, 60, shape).astype(float), c=rng.uniform(0.3, 1.7, shape),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pvalues = [
                sw_permutation_test(realize(table, a), 1.0, "equal", mode="exact").p_two_sided
                for a in enumerate_assignments(scheme)
            ]
        return pvalues, scheme.total_assignments

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=3, max_size=4), st.integers(0, 2**32 - 1))
    def test_equal_weight_wedge(self, q, seed):
        self.check(*self.wedge_pvalues(q, seed))

    @pytest.mark.parametrize("case", ["wedge", "tpf"])
    def test_every_level(self, case):
        if case == "wedge":  # smallest |T| 5.1e-7, p 2519/2520 there without the floor
            self.check(*self.wedge_pvalues((2, 2, 2, 2), 1), top=1.0)
        else:  # smallest |T| 1.0e-4, p 55/56 there without the floor
            self.check(*self.parallel_pvalues(8, 3, 3968369314, "tpf"), top=1.0)


class TestDoseStatisticOnce:
    """One dose-response call computes the log-contrasts once."""

    @pytest.mark.parametrize("adjustment", ["none", "covariates"])
    @pytest.mark.parametrize("test", ["normal", "permutation"])
    def test_one_pass(self, monkeypatch, test, adjustment):
        from crtnd import inference

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return log_contrasts(*args, **kwargs)

        monkeypatch.setattr(inference, "log_contrasts", counted)
        recs = trial_records(5, 16, 8, covariates=True)
        dose_response_estimate(recs, adjustment=adjustment, test=test, n_draws=200)
        assert len(calls) == 1
        calls.clear()
        invert_ci(recs, "dose_response", test=test, adjustment=adjustment, n_draws=200)
        assert len(calls) == 1
