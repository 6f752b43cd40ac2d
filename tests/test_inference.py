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
    RankDeficientCovariates,
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

    def test_relative_risk_null_takes_no_adjustment(self):
        # a relative-risk test is adjusted by the covariate_adjusted
        # statistic; an adjustment on the null would be ignored
        with pytest.raises(ValueError, match="applies to dose-response nulls"):
            NullSpec("relative_risk", 1.0, "covariates")
        assert NullSpec("dose_response", 0.0, "covariates").adjustment == "covariates"


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


def adjusted_diff_rows_loop(values, x, arm_matrix, m1):
    """Reference for the relabeled kernel: each row's arms fitted by their
    own ``np.linalg.lstsq`` on centred covariates, slopes pooled by arm
    share."""
    out = np.empty(arm_matrix.shape[0])
    m = values.shape[0]
    for k in range(arm_matrix.shape[0]):
        arms = arm_matrix[k].astype(bool)
        slopes = []
        for mask in (arms, ~arms):
            xa = x[mask] - x[mask].mean(axis=0)
            design = np.column_stack([np.ones(mask.sum()), xa])
            coef, _, rank, _ = np.linalg.lstsq(design, values[mask], rcond=None)
            assert rank == x.shape[1] + 1
            slopes.append(mask.sum() * coef[1:])
        beta = (slopes[0] + slopes[1]) / m
        out[k] = (values[arms].mean() - values[~arms].mean()
                  - beta @ (x[arms].mean(axis=0) - x[~arms].mean(axis=0)))
    return out


class TestAdjustedRows:
    def test_batched_equals_row_by_row(self):
        from crtnd.estimators import _adjusted_diff_rows

        rng = np.random.default_rng(77)
        m, m1, p = 16, 8, 2
        values = rng.normal(size=m)
        x = rng.normal(size=(m, p))
        rows = np.zeros((300, m), dtype=np.int8)
        for r in range(300):
            rows[r, rng.choice(m, m1, replace=False)] = 1
        shift = rng.normal(size=m)
        # one set of normal matrices serves both vectors
        batched = _adjusted_diff_rows(x, rows, m1, values, shift)
        for v, a in zip((values, shift), batched):
            b = adjusted_diff_rows_loop(v, x, rows, m1)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_singular_relabeled_arm_is_nan(self):
        # x is 0 in half the clusters and 1 in the rest: a relabeling that
        # treats every 1 leaves both arms' covariate constant
        from crtnd.estimators import _adjusted_diff_rows

        x = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]] * 2)
        values = np.arange(12.0)
        rows = np.zeros((2, 12))
        rows[0, [0, 3, 6, 9, 1, 4]] = 1  # both arms mix 0s and 1s
        alone = _adjusted_diff_rows(x, rows[:1], 6, values)[0]
        rows[1, [3, 4, 5, 9, 10, 11]] = 1  # every 1 treated
        together = _adjusted_diff_rows(x, rows, 6, values)[0]
        assert np.isfinite(alone).all() and together[0] == pytest.approx(alone[0], abs=1e-12)
        assert np.isnan(together[1])

    def test_singular_observed_arm_raises(self):
        x = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]] * 2)
        recs = make_records(np.arange(12.0) / 10, [0, 0, 0, 1, 1, 1] * 2, covariates=x)
        with pytest.raises(RankDeficientCovariates, match="singular within an observed arm"):
            permutation_test(recs, NullSpec("relative_risk", 1.0), "covariate_adjusted")


# The closed-form kernel's tolerance against ``adjusted_diff_rows_loop``
# on well-conditioned and on badly scaled covariates (measured: 5.6e-15).
_ADJUSTED_RTOL = _ADJUSTED_ATOL = 1e-12


class TestAdjustedRowsTolerance:
    """``_adjusted_diff_rows`` against the per-arm lstsq reference for
    p = 1, 2, 3.  The reference fits ``x_ref``: the same design up to a
    translation or a column scaling, which leave every difference
    unchanged in exact arithmetic but not lstsq's rounding."""

    @staticmethod
    def _data(rng, m, m1, p, n_rows):
        base = rng.normal(size=(m, p))
        lvals = rng.normal(-1.0, 0.4, m) + (base - base.mean(axis=0)) @ rng.normal(size=p)
        shift = sample_assignments(ParallelScheme(m, m1), 1, rng, float)[0]
        rows = sample_assignments(ParallelScheme(m, m1), n_rows, rng, float)
        return base, (lvals, shift), rows

    @pytest.mark.parametrize("case", ["plain", "offset", "small", "large", "mixed"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_lstsq(self, p, case):
        from crtnd.estimators import _adjusted_diff_rows

        m, m1 = 16, 8
        base, values, rows = self._data(np.random.default_rng([p, 21]), m, m1, p, 300)
        x, x_ref = {
            "plain": (base, base),
            "offset": (1e6 + base, (1e6 + base) - 1e6),  # the subtraction is exact
            "small": (1e-6 * base, 1e-6 * base),
            "large": (1e6 * base, 1e6 * base),
            "mixed": (base * np.array([1e-6, 1e6, 1.0])[:p], base),
        }[case]
        for v, got in zip(values, _adjusted_diff_rows(x, rows, m1, *values)):
            np.testing.assert_allclose(got, adjusted_diff_rows_loop(v, x_ref, rows, m1),
                                       rtol=_ADJUSTED_RTOL, atol=_ADJUSTED_ATOL)

    @pytest.mark.parametrize("p", [2, 3])
    def test_near_collinear(self, p):
        # the last column is the first plus 1e-4 noise; normal equations
        # square the condition number: measured 2.5e-7, as for the LU
        # solve of the normal matrices that this kernel replaced
        from crtnd.estimators import _adjusted_diff_rows

        m, m1 = 16, 8
        x, values, rows = self._data(np.random.default_rng([p, 22]), m, m1, p, 300)
        x[:, -1] = x[:, 0] + 1e-4 * x[:, -1]
        for v, got in zip(values, _adjusted_diff_rows(x, rows, m1, *values)):
            np.testing.assert_allclose(got, adjusted_diff_rows_loop(v, x, rows, m1),
                                       rtol=0, atol=1e-5)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_constant_covariate_in_a_relabeled_arm_is_nan(self, p):
        # 0.1 is not dyadic, so the arm's computed scatter is rounding
        # noise rather than an exact zero; it must not give a huge slope
        from crtnd.estimators import _adjusted_diff_rows

        m, m1 = 12, 6
        x, values, rows = self._data(np.random.default_rng([p, 23]), m, m1, p, 200)
        x[:m1, 0] = 0.1
        rows[:2] = 0.0
        rows[0, :m1] = rows[1, m1:] = 1.0  # the 0.1s treated, then in control
        singular = np.isin(rows[:, :m1].sum(axis=1), (0, m1))
        for v, got in zip(values, _adjusted_diff_rows(x, rows, m1, *values)):
            assert np.isnan(got[singular]).all() and np.isfinite(got[~singular]).all()
            np.testing.assert_allclose(got[~singular],
                                       adjusted_diff_rows_loop(v, x, rows[~singular], m1),
                                       rtol=_ADJUSTED_RTOL, atol=_ADJUSTED_ATOL)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_row_alone_matches_its_stack(self, p):
        from crtnd.estimators import _adjusted_diff_rows

        m, m1 = 24, 12
        x, values, rows = self._data(np.random.default_rng([p, 24]), m, m1, p, 2000)
        stack = _adjusted_diff_rows(x, rows, m1, *values)
        for r in range(0, 2000, 97):
            alone = _adjusted_diff_rows(x, rows[r : r + 1], m1, *values)
            for a, b in zip(stack, alone):
                assert b[0] == pytest.approx(a[r], rel=1e-12, abs=1e-13)


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

    @pytest.mark.parametrize("test", ["normal", "permutation"])
    def test_relative_risk_methods_take_no_adjustment(self, test):
        recs = make_records(np.linspace(-0.5, 0.5, 12), [1, 0] * 6,
                            covariates=np.arange(12.0)[:, None] ** 1.5)
        with pytest.raises(ValueError, match="relative-risk null"):
            invert_ci(recs, "log_contrast", test=test, adjustment="covariates", n_draws=50)

    @pytest.mark.parametrize("method", ["log_contrast", "dose_response"])
    def test_unknown_adjustment(self, method):
        recs = make_records(np.linspace(-0.5, 0.5, 12), [1, 0] * 6,
                            doses=np.linspace(0.0, 1.0, 12))
        with pytest.raises(ValueError, match="unknown adjustment 'auto'"):
            invert_ci(recs, method, adjustment="auto")
        with pytest.raises(ValueError, match="unknown adjustment"):
            dose_response_pvalue(recs, 0.0, adjustment="covariate")
        linear = make_records(0.3 - 0.5 * recs.dose, [1, 0] * 6, doses=recs.dose)
        with pytest.raises(ValueError, match="unknown adjustment"):
            dose_response_estimate(linear, adjustment="covariate")

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

    @pytest.mark.parametrize("p", [1, 2])
    def test_adjusted_dose_stat_matches_per_arm_lstsq(self, p):
        # num, den and var against one np.linalg.lstsq per arm and vector
        from crtnd.inference import _dose_stat

        rng = np.random.default_rng(40 + p)
        m, m1 = 14, 7
        arms = np.arange(m) < m1
        x = rng.uniform(0.0, 2.0, (m, p)) + 5.0
        doses = rng.uniform(0.0, 0.5, m) + 0.5 * arms
        lvals = 0.3 + x @ np.array([0.7, -0.4])[:p] - 1.2 * doses + rng.normal(0, 0.3, m)
        recs = make_records(lvals, arms.astype(int), covariates=x, doses=doses)
        stat = _dose_stat(recs, "covariates")

        diffs, var = [], np.zeros(3)
        resid = {}
        for name, v in (("l", log_contrasts(recs)), ("d", doses)):
            slopes = 0.0
            for mask in (arms, ~arms):
                design = np.column_stack([np.ones(mask.sum()), x[mask]])
                coef, _, rank, _ = np.linalg.lstsq(design, v[mask], rcond=None)
                assert rank == p + 1
                slopes = slopes + mask.sum() / m * coef[1:]
                resid[name, bool(mask[0])] = v[mask] - design @ coef
            diffs.append(v[arms].mean() - v[~arms].mean()
                         - slopes @ (x[arms].mean(axis=0) - x[~arms].mean(axis=0)))
        for treated in (True, False):
            rl, rd = resid["l", treated], resid["d", treated]
            n = rl.size
            var += np.array([rl @ rl, rl @ rd, rd @ rd]) / (n - p - 1) / n
        assert stat.num == pytest.approx(diffs[0], rel=1e-12)
        assert stat.den == pytest.approx(diffs[1], rel=1e-12)
        np.testing.assert_allclose(stat.var, var, rtol=1e-12, atol=0)

    def test_exact_linear_model(self):
        doses = np.linspace(0.1, 0.9, 10)
        lvals = 2.0 - 3.0 * doses
        recs = make_records(lvals, [1] * 5 + [0] * 5, doses=doses)
        rep = dose_response_estimate(recs, adjustment="none")
        assert rep.log_estimate == pytest.approx(-3.0, abs=1e-9)
        assert rep.p_value == 1.0

    @pytest.mark.parametrize("dose", [0.5, 0.1, 0.7, 1e-300])
    @pytest.mark.parametrize("m", [4, 24])
    def test_constant_dose_raises(self, m, dose):
        # the dose's mean may round off it: the column left after
        # centering is rounding noise, and counts as zero
        recs = make_records(np.arange(m) / 10, [1, 0] * (m // 2), doses=[dose] * m)
        with pytest.raises(ConstantDose):
            dose_response_estimate(recs)

    def test_doses_one_ulp_apart_are_constant(self):
        # the dose column is collinear with the intercept to the
        # least-squares rank rule
        recs = make_records([0.1, 0.2, 0.3, 0.4], [1, 1, 0, 0],
                            doses=[0.5000000000000001] * 2 + [0.5] * 2)
        with pytest.raises(ConstantDose, match="to rounding"):
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


def kernel_blocks():
    """(m, m1, rows): a Monte Carlo draw and an exact support's first
    block at m = 12, 16 and 24, as the engine hands them out."""
    from crtnd.core import randomize

    for m in (12, 16, 24):
        scheme = ParallelScheme(m, m // 2)
        yield m, m // 2, randomize(scheme, "monte_carlo", 999, (m, 0xBE)).rows()
        yield m, m // 2, next(randomize(scheme, "exact", 0, (0,)).blocks())


class TestRelabelingKernels:
    """The relabeling kernels take the product ``values @ rows.T`` for a
    vector and for a stack alike: a vector, or a stack of one, gets the
    bits of the matrix-vector product ``rows @ v`` that a single
    dataset's analysis took before, and each row of a stack the bits of
    the same row of the stack's product.  The rows are float 0/1, as the
    engine hands them out: numpy would cast an integer matrix's
    transpose into a C-ordered copy, whose product rounds differently."""

    @staticmethod
    def mean_differences(v, sums, m1):
        return sums / m1 - (v.sum(axis=-1, keepdims=True) - sums) / (v.shape[-1] - m1)

    @staticmethod
    def log_odds(y, z, ty, tz):
        with np.errstate(divide="ignore"):
            return (np.log(ty) - np.log(y.sum(axis=-1, keepdims=True) - ty)
                    + np.log(z.sum(axis=-1, keepdims=True) - tz) - np.log(tz))

    def test_a_vector_gets_the_matrix_vector_bits(self):
        from crtnd.estimators import odds_ratio_permutation_draws
        from crtnd.inference import _diff_means_rows

        for m, m1, rows in kernel_blocks():
            assert rows.dtype == np.float64
            rng = np.random.default_rng(m)
            v = rng.normal(size=m)
            y, z = rng.uniform(0.5, 500.0, size=(2, m))
            y[0] = 0.0  # relabelings with a vanishing treated total
            for lead in ((), (1,)):  # a vector, and a stack of one
                vs, ys, zs = (a.reshape(*lead, m) for a in (v, y, z))
                want = self.mean_differences(v, rows @ v, m1)
                got = _diff_means_rows(vs, rows, m1)
                assert got.shape == (*lead, len(rows))
                assert got.reshape(-1).tobytes() == want.tobytes()
                want = self.log_odds(y, z, rows @ y, rows @ z)
                got = odds_ratio_permutation_draws(ys, zs, rows)
                assert got.reshape(-1).tobytes() == want.tobytes()

    def test_each_row_of_a_stack_is_its_row_of_the_product(self):
        from crtnd.estimators import odds_ratio_permutation_draws
        from crtnd.inference import _diff_means_rows

        for m, m1, rows in kernel_blocks():
            rng = np.random.default_rng(m + 1)
            v = rng.normal(size=(16, m))
            y, z = rng.uniform(0.5, 500.0, size=(2, 16, m))
            work = np.full((4, 16, len(rows)), 7.0)
            want = self.mean_differences(v, v @ rows.T, m1)
            assert _diff_means_rows(v, rows, m1).tobytes() == want.tobytes()
            got = _diff_means_rows(v, rows, m1, *work[:2])
            assert np.shares_memory(got, work[0]) and got.tobytes() == want.tobytes()
            want = self.log_odds(y, z, y @ rows.T, z @ rows.T)
            assert odds_ratio_permutation_draws(y, z, rows).tobytes() == want.tobytes()
            got = odds_ratio_permutation_draws(y, z, rows, work)
            assert np.shares_memory(got, work[0]) and got.tobytes() == want.tobytes()


TAIL_SPECIALS = (0.0, 1e-300, -1e-300, 1.0, -1.0, math.nan, math.inf, -math.inf)


def comparison_count(draws, observed):
    """#{|T*| >= |T_obs|} with the tie slack, non-finite draws counted,
    as one comparison plus a finiteness test per draw."""
    from crtnd.inference import _TIE_RTOL

    level = np.abs(np.asarray(observed, dtype=float))[..., None]
    slack = _TIE_RTOL * np.maximum(level, 1.0)
    with np.errstate(invalid="ignore"):
        hits = (np.abs(draws) >= level - slack) | ~np.isfinite(draws)
    return np.count_nonzero(hits, axis=-1)


@st.composite
def tail_cases(draw):
    """(draws, observed): n draws for one observed value, or a (B, n)
    stack for B of them; draws at, next to and far from ±|T_obs|, and
    non-finite ones."""
    value = st.one_of(st.sampled_from(TAIL_SPECIALS), st.floats(-1e3, 1e3))
    stack = draw(st.booleans())
    observed = [draw(value) for _ in range(draw(st.integers(1, 4)) if stack else 1)]
    n = draw(st.integers(0, 12))
    rows = []
    for obs in observed:
        near = [sign * obs * (1 + rel) for sign in (1, -1) for rel in (0, 2e-13, -2e-13, 3e-12)]
        row = draw(st.lists(st.one_of(value, st.sampled_from(near)), min_size=n, max_size=n))
        rows.append(row)
    draws = np.array(rows, dtype=float).reshape(len(observed), n)
    return (draws, np.array(observed)) if stack else (draws[0], observed[0])


class TestTwoSidedCount:
    @settings(max_examples=300, deadline=None)
    @given(tail_cases())
    def test_one_pass_equals_the_comparison_count(self, case):
        # n - #{|T*| < bound} with a NaN bound taken as +inf counts what
        # the comparison and the finiteness test count, T_obs non-finite
        # or of rounding size included; |T*| may go into a work array
        from crtnd.inference import _two_sided_count

        draws, observed = case
        want = comparison_count(draws, observed)
        work = np.full(draws.shape, 7.0)
        for out in (None, work):
            got = _two_sided_count(draws, observed, out)
            if np.ndim(observed):
                assert got.tolist() == want.tolist()
            else:
                assert isinstance(got, int) and got == want
        np.testing.assert_array_equal(work, np.abs(draws))


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


class TestSharpNullScope:
    """What the permutation p-value is exact for, by double enumeration on
    10 clusters: every realized assignment of one fixed table of
    per-cluster effects, and for each its exact p-value over every
    re-randomization.  The share of realizations with p <= alpha is the
    test's exact size.

    Under a sharp null (the same effect in every cluster, tested at that
    effect) the size is at most alpha for any m1.  Under a weak null
    (effects that differ by cluster and average zero) it is not: with
    unequal arms it can exceed alpha.  :meth:`sizes` measures both; only
    the sharp-null bound is asserted.
    """

    @staticmethod
    def sizes(l0, effects, m1, lam0=1.0, alphas=(0.01, 0.05, 0.1, 0.2)):
        """{alpha: exact size} of the test of lam0 when cluster i's
        log-contrast is ``l0[i]`` in control and ``l0[i] + effects[i]``
        treated."""
        null = NullSpec("relative_risk", lam0)
        p = np.array([
            permutation_test(make_records(l0 + effects * a, a), null, mode="exact").p_two_sided
            for a in enumerate_assignments(ParallelScheme(len(l0), m1))
        ])
        return {alpha: np.count_nonzero(p <= alpha) / p.size for alpha in alphas}

    @pytest.mark.parametrize("lam", [1.0, 0.6])
    @pytest.mark.parametrize("m1", [2, 3, 4, 5])
    def test_sharp_null_size_is_at_most_alpha(self, m1, lam):
        l0 = np.random.default_rng(m1).normal(0.0, 0.5, 10)
        sizes = self.sizes(l0, np.full(10, math.log(lam)), m1, lam0=lam)
        for alpha, size in sizes.items():
            assert size <= alpha
        assert sizes[0.2] > 0.1  # the bound is not met by never rejecting


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


# Outputs on the benchmark's inputs (``perfbench/workloads.py``, seeds
# 1-3, files 0-3, program seed ``seed * 100000 + file + 1``), for every
# report of ``analyze --ci-method invert-permutation`` (trial-analysis:
# Monte Carlo, all four estimators; exact-inference: exact, three
# estimators), ``analyze-sw --mode exact`` and ``dose-response --test
# permutation --adjustment covariates``: the tail count of the
# permutation p at lam = 1, the CI's grid points (None where a report
# has none) and the CI endpoints.  The covariate-adjusted and
# dose-response entries were recorded before the relabelings were
# re-fitted by within-arm scatter sums, the others before the log
# contrasts, arm sums and TPF roots moved to numpy arithmetic.  Tail
# counts and grid points stay exact; endpoints moved by 6.1e-15
# relative at most.
_PINNED_OUTPUTS = {
    ("trial-analysis", 1, 0): {
        "odds_ratio": (482, None, 0.2998225959723656, 1.3242184022277006),
        "tpf": (445, 401, 0.4229741939177536, 1.2223867759893927),
        "log_contrast": (435, 4000, 0.38798617624923926, 1.277564801816768),
        "covariate_adjusted": (252, 4000, 0.6553048732261402, 1.0488005179979343),
        "dose_response": (None, None, -0.5384859418072314, 0.06123774738648296),
    },
    ("trial-analysis", 1, 1): {
        "odds_ratio": (1990, None, 0.4165870288759138, 2.5743737572791714),
        "tpf": (1200, 401, 0.5262783367503309, 1.4178381568601106),
        "log_contrast": (1001, 3998, 0.48664814656087835, 1.4460507421882391),
        "covariate_adjusted": (401, 3998, 0.649568887688557, 1.1012834895869652),
        "dose_response": (None, None, -0.5292844837275626, 0.12322671212325917),
    },
    ("trial-analysis", 1, 2): {
        "odds_ratio": (1284, None, 0.24170089650528348, 1.944753370024348),
        "tpf": (748, 401, 0.51031342145577, 1.268959978991889),
        "log_contrast": (573, 3996, 0.46084071582443054, 1.2795349665646483),
        "covariate_adjusted": (155, 3996, 0.6199749520225036, 1.0260409471866005),
        "dose_response": (None, None, -0.642137215373372, 0.034910734178153165),
    },
    ("trial-analysis", 1, 3): {
        "odds_ratio": (2000, None, 0.37612409106715167, 2.691676431595907),
        "tpf": (1132, 401, 0.5281855633073792, 1.3642840239444514),
        "log_contrast": (865, 4000, 0.4820588036941087, 1.3660461783090665),
        "covariate_adjusted": (54, 4000, 0.5342658702249748, 0.9385441125162783),
        "dose_response": (None, None, -0.7945053554539988, -0.08125629578165508),
    },
    ("trial-analysis", 2, 0): {
        "odds_ratio": (84, None, 0.45370748287646956, 0.9745586800792432),
        "tpf": (22, 401, 0.2581068635137243, 0.8574352531711265),
        "log_contrast": (17, 3996, 0.2748587381400797, 0.814225254501864),
        "covariate_adjusted": (7, 3996, 0.46979529730318886, 0.8665784468184173),
        "dose_response": (None, None, -0.8800100791424316, -0.17301351574656013),
    },
    ("trial-analysis", 2, 1): {
        "odds_ratio": (1114, None, 0.33223453393912344, 1.6903319484770494),
        "tpf": (341, 401, 0.4177624490895119, 1.1811972230251724),
        "log_contrast": (230, 4000, 0.38213719689934306, 1.1500587547541534),
        "covariate_adjusted": (22, 4000, 0.5339118798988924, 0.9048522699199768),
        "dose_response": (None, None, -0.7379318107275903, -0.11821282760120498),
    },
    ("trial-analysis", 2, 2): {
        "odds_ratio": (1196, None, 0.25432555546973074, 1.8616077021078272),
        "tpf": (370, 401, 0.3880749722526781, 1.1698616169139697),
        "log_contrast": (214, 3996, 0.35167101813579693, 1.0996055469383246),
        "covariate_adjusted": (219, 3996, 0.616904421098725, 1.0561716654978053),
        "dose_response": (None, None, -0.6121047627631008, 0.0708010889319218),
    },
    ("trial-analysis", 2, 3): {
        "odds_ratio": (8, None, 0.2965037053469845, 0.8219097687236258),
        "tpf": (1, 401, 0.207365951995077, 0.6873580839596752),
        "log_contrast": (1, 4000, 0.22642328418205188, 0.6446339139147117),
        "covariate_adjusted": (8, 4000, 0.46817678504606003, 0.8750167218318847),
        "dose_response": (None, None, -0.9608519415145164, -0.18763449320931075),
    },
    ("trial-analysis", 3, 0): {
        "odds_ratio": (210, None, 0.39182910493759265, 1.1016553194600125),
        "tpf": (692, 401, 0.39680197435482517, 1.3324879772406484),
        "log_contrast": (858, 3998, 0.3918466992844988, 1.437734313614964),
        "covariate_adjusted": (3, 3998, 0.428246724888699, 0.7809976314369066),
        "dose_response": (None, None, -1.133089727355404, -0.33876314289407944),
    },
    ("trial-analysis", 3, 1): {
        "odds_ratio": (20, None, 0.3538872008744925, 0.8998673350050972),
        "tpf": (12, 401, 0.28973895063528804, 0.8700626221604769),
        "log_contrast": (13, 3996, 0.284035501900615, 0.8470904215256034),
        "covariate_adjusted": (0, 3996, 0.39084226622692253, 0.7048726044345455),
        "dose_response": (None, None, -1.1667065539565626, -0.4279596858185828),
    },
    ("trial-analysis", 3, 2): {
        "odds_ratio": (33, None, 0.33922759328881585, 0.9151586867209993),
        "tpf": (10, 401, 0.2663397152840802, 0.7855944927430744),
        "log_contrast": (6, 3992, 0.2738039396848312, 0.7227193717926185),
        "covariate_adjusted": (16, 3992, 0.5141808585752577, 0.9067049473874789),
        "dose_response": (None, None, -0.8419009963815932, -0.12499832568982466),
    },
    ("trial-analysis", 3, 3): {
        "odds_ratio": (34, None, 0.26213267724571704, 0.9394806881428722),
        "tpf": (196, 401, 0.3510119452516053, 1.0596680231847075),
        "log_contrast": (190, 3996, 0.30464065762674275, 1.0788335394358206),
        "covariate_adjusted": (1, 3996, 0.45476336515483096, 0.8143650932399342),
        "dose_response": (None, None, -0.979385883549766, -0.24948522269705964),
    },
    ("exact-inference", 1, 0): {
        "odds_ratio": (2, None, 0.38298728619067923, 0.7339587033607518),
        "tpf": (2, 401, 0.35010788258724235, 0.7865124404100488),
        "log_contrast": (2, 12868, 0.31109722069370294, 0.6653762999211471),
        "sw_log_contrast": (53, 81, 0.5848364252842866, 0.9458653303626984),
    },
    ("exact-inference", 1, 1): {
        "odds_ratio": (8, None, 0.38993774541376947, 0.7563543903464609),
        "tpf": (6, 401, 0.3425083904784716, 0.7740364491426504),
        "log_contrast": (6, 12868, 0.4025455855545007, 0.6434004464714703),
        "sw_log_contrast": (15, 81, 0.5066831859849188, 0.8680719807587335),
    },
    ("exact-inference", 1, 2): {
        "odds_ratio": (2, None, 0.22493376388467068, 0.7654432846584391),
        "tpf": (2, 401, 0.2912091841771618, 0.7512342483562782),
        "log_contrast": (2, 12868, 0.31289709504676005, 0.6347745909601636),
        "sw_log_contrast": (1, 81, 0.3641079407661459, 0.6433980060362594),
    },
    ("exact-inference", 1, 3): {
        "odds_ratio": (2, None, 0.29834278737865905, 0.7964138004017248),
        "tpf": (6, 401, 0.35579850237864413, 0.8001142626407539),
        "log_contrast": (6, 12868, 0.3518691840861379, 0.7087085241886888),
        "sw_log_contrast": (1, 81, 0.4045837421366831, 0.6995531870276137),
    },
    ("exact-inference", 2, 0): {
        "odds_ratio": (9952, None, 0.40101572119482254, 1.682331215579444),
        "tpf": (840, 401, 0.454405486289966, 1.0199041561295032),
        "log_contrast": (1828, 12868, 0.49004389079081573, 1.1233925465939496),
        "sw_log_contrast": (12, 81, 0.6426596830881482, 0.8907178728560126),
    },
    ("exact-inference", 2, 1): {
        "odds_ratio": (10232, None, 0.3507485111135227, 1.8205798855378519),
        "tpf": (130, 401, 0.39181908162029433, 0.9011728371504143),
        "log_contrast": (412, 12868, 0.479232162822657, 0.9571602289099219),
        "sw_log_contrast": (115, 81, 0.22473512717318206, 0.9832544871970776),
    },
    ("exact-inference", 2, 2): {
        "odds_ratio": (2, None, 0.226674978137222, 0.9103595339540577),
        "tpf": (10, 401, 0.4336405006631273, 0.8778193725794282),
        "log_contrast": (10, 12868, 0.3701405639637893, 0.8310016340828746),
        "sw_log_contrast": (14, 81, 0.4920719409803822, 0.8549337402629702),
    },
    ("exact-inference", 2, 3): {
        "odds_ratio": (2, None, 0.16758352358893883, 0.897234777574553),
        "tpf": (2, 401, 0.3086757927831545, 0.7761955926295435),
        "log_contrast": (2, 12868, 0.33678308302217724, 0.6894985921297695),
        "sw_log_contrast": (24, 81, 0.46183124482588483, 0.9015989909852006),
    },
    ("exact-inference", 3, 0): {
        "odds_ratio": (2, None, 0.21331292521344128, 0.789838697904685),
        "tpf": (2, 401, 0.34183531829967484, 0.806589319109096),
        "log_contrast": (2, 12868, 0.3197174572403119, 0.7198075669636422),
        "sw_log_contrast": (1157, 81, 0.3971460169221629, 1.451889502207359),
    },
    ("exact-inference", 3, 1): {
        "odds_ratio": (2, None, 0.3953623328680904, 0.7152969789433973),
        "tpf": (2, 401, 0.30630659504534674, 0.7552668043180762),
        "log_contrast": (2, 12868, 0.3086692411063906, 0.6070794836599486),
        "sw_log_contrast": (10, 81, 0.5489914801936946, 0.8687060116375431),
    },
    ("exact-inference", 3, 2): {
        "odds_ratio": (10, None, 0.512427122169047, 0.878232022936053),
        "tpf": (46, 401, 0.5063936765121315, 0.9007797727331581),
        "log_contrast": (46, 12868, 0.5193049631641565, 0.8494833438889694),
        "sw_log_contrast": (178, 81, 0.5880096877151261, 1.018197152220445),
    },
    ("exact-inference", 3, 3): {
        "odds_ratio": (2, None, 0.33241618909858245, 0.8078698169204093),
        "tpf": (2, 401, 0.38930279151434116, 0.8159085357279015),
        "log_contrast": (2, 12868, 0.34253255409288486, 0.7221663138140321),
        "sw_log_contrast": (1, 81, 0.4866636518772173, 0.7508125777808213),
    },
}
_PINNED_RTOL = 1e-13


def _pinned_commands(workload, workdir, k, seed):
    if workload == "trial-analysis":
        data = ["--input", str(workdir / f"trial_{k}.csv"), "--seed", str(seed * 100_000 + k + 1)]
        return [["analyze", "--ci-method", "invert-permutation", *data],
                ["dose-response", "--test", "permutation", "--adjustment", "covariates", *data]]
    exact = ["--mode", "exact", "--ci-method", "invert-permutation"]
    return [["analyze", "--input", str(workdir / f"exact_{k}.csv"), *exact,
             "--estimators", "odds_ratio,tpf,log_contrast"],
            ["analyze-sw", "--input", str(workdir / f"wedge_{k}.csv"), *exact]]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["trial-analysis", "exact-inference"])
def test_pinned_outputs_on_benchmark_inputs(workload, seed, tmp_path):
    import importlib.util
    import json
    from pathlib import Path

    from crtnd.cli import main

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.generate(workload, seed, tmp_path)
    out = tmp_path / "report.json"
    for k in range(4):
        reports = {}
        for argv in _pinned_commands(workload, tmp_path, k, seed):
            assert main([*argv, "--out", str(out)]) == 0
            reports.update((r["method"], r) for r in json.loads(out.read_text())["results"])
        pinned = _PINNED_OUTPUTS[workload, seed, k]
        assert sorted(reports) == sorted(pinned)
        for method, (count, grid, lo, hi) in pinned.items():
            report, diag = reports[method], reports[method]["diagnostics"]
            if count is not None:
                perm = diag["permutation"]
                add_one = int(perm["mode"] == "monte_carlo")
                p = (count + add_one) / (perm["null_draws"] + add_one)
                assert diag["permutation_p_null1"] == p
            assert diag.get("ci_inversion", {}).get("grid_points") == grid
            assert (report["ci_low"], report["ci_high"]) == pytest.approx(
                (lo, hi), rel=_PINNED_RTOL)
