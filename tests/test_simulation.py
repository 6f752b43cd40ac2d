import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from crtnd import (
    ParallelScheme,
    SimScenario,
    SteppedWedgeScheme,
    evaluate,
    replicate_ascertainment_sweep,
    simulate_parallel,
    simulate_stepped_wedge,
)
from crtnd.errors import ArmTooSmall
from crtnd.scenarios import (
    BASELINE_Y,
    BASELINE_Z,
    POPULATION,
    SW_Q,
    default_parallel_scenario,
    default_sw_scenario,
)
from crtnd.errors import DegenerateReplicateLimit
from crtnd.simulation import (
    _BLOCK,
    _CHUNK,
    PARALLEL_ESTIMATORS,
    SW_ESTIMATORS,
    study_ascertainment,
)


def small_parallel(lam=1.0, n=50, seed=3, **over):
    kwargs = dict(
        scenario_id="test-par",
        design=ParallelScheme(m=24, m1=12),
        baseline_y=BASELINE_Y,
        baseline_z=BASELINE_Z,
        covariates=POPULATION,
        covariate_coupling=True,
        lam=lam,
        n_replicates=n,
        seed=seed,
    )
    kwargs.update(over)
    return SimScenario(**kwargs)


class TestScenarioValidation:
    def test_defaults_valid(self):
        default_parallel_scenario()
        default_sw_scenario()

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            small_parallel(alpha=0.7)

    def test_coupling_needs_covariates(self):
        with pytest.raises(ValueError):
            small_parallel(covariates=None, covariate_coupling=True)

    def test_baseline_shape_checked(self):
        with pytest.raises(ValueError):
            small_parallel(baseline_y=BASELINE_Y[:-1])

    def test_sw_q_vector_sums_to_m(self):
        assert sum(SW_Q) == 24
        assert SW_Q[0] == 0 and all(q == 3 for q in SW_Q[1:])

    def test_explicit_ascertainment_shape(self):
        with pytest.raises(ValueError):
            small_parallel(ascertainment_values=(1.0, 2.0))


class TestParallelDgp:
    def test_determinism_bit_identical(self):
        a = [recs for _, recs in simulate_parallel(small_parallel(n=5))]
        b = [recs for _, recs in simulate_parallel(small_parallel(n=5))]
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_replicate_streams_independent_of_order(self):
        # replicate 3 is the same whether or not earlier ones are consumed
        gen = simulate_parallel(small_parallel(n=5))
        all_recs = dict(gen)
        again = dict(simulate_parallel(small_parallel(n=5)))
        assert all_recs[3] == again[3]

    def test_null_homogeneous_ascertainment_identical_tables(self):
        scen = small_parallel(
            lam=1.0,
            covariate_coupling=False,
            ascertainment_values=tuple([1.0] * 24),
        )
        _, recs = next(simulate_parallel(scen))
        y = dict(zip(recs.cluster_ids, recs.y))
        # realized counts do not depend on arm when lam = c = 1: compare
        # against a re-realization with flipped arms via a fresh draw
        scen2 = small_parallel(
            lam=1.0,
            covariate_coupling=False,
            ascertainment_values=tuple([1.0] * 24),
            seed=scen.seed,
        )
        _, recs2 = next(simulate_parallel(scen2))
        assert y == dict(zip(recs2.cluster_ids, recs2.y))

    def test_multinomial_moments(self):
        # equal baselines: mean cluster count n/24, sd per multinomial
        m, n_y = 24, 2400
        scen = small_parallel(
            baseline_y=tuple([n_y // m] * m),
            baseline_z=tuple([300] * m),
            covariates=None,
            covariate_coupling=False,
            lam=1.0,
            ascertainment_values=tuple([1.0] * 24),
            n=400,
            seed=9,
        )
        counts = []
        for _, recs in simulate_parallel(scen):
            counts.extend(recs.y[~recs.arm])
        counts = np.asarray(counts)
        expected_sd = math.sqrt(n_y * (1 / 24) * (23 / 24))
        assert counts.mean() == pytest.approx(100.0, abs=0.5)
        assert counts.std(ddof=1) == pytest.approx(expected_sd, rel=0.05)

    def test_coupling_transform_applied(self):
        base = small_parallel(
            lam=1.0, ascertainment_values=tuple([1.0] * 24), seed=10, n=1
        )
        uncoupled = small_parallel(
            lam=1.0,
            covariate_coupling=False,
            ascertainment_values=tuple([1.0] * 24),
            seed=10,
            n=1,
        )
        _, c_recs = next(simulate_parallel(base))
        _, u_recs = next(simulate_parallel(uncoupled))
        assert c_recs.cluster_ids == u_recs.cluster_ids
        x = dict(zip(u_recs.cluster_ids, POPULATION))
        for i, cid in enumerate(u_recs.cluster_ids):
            f = 2 * x[cid]
            assert c_recs.y[i] == pytest.approx(u_recs.y[i] * f, rel=1e-12)
            assert c_recs.z[i] == pytest.approx(u_recs.z[i] / f, rel=1e-12)

    def test_ascertainment_study_level_fixed(self):
        scen = small_parallel(n=3)
        c = study_ascertainment(scen)
        assert c.shape == (24,)
        assert np.all((0 < c) & (c < 1))
        assert np.array_equal(c, study_ascertainment(scen))


class TestSwDgp:
    def test_ofi_identity_scaling(self):
        # flat period totals make the test-negative scaling a no-op
        by = tuple(tuple([50] * 9) for _ in range(24))
        ones = tuple(tuple([1.0] * 9) for _ in range(24))
        scen = SimScenario(
            scenario_id="sw-flat",
            design=SteppedWedgeScheme(m=24, q=SW_Q),
            baseline_y=by,
            baseline_z=BASELINE_Z,
            lam=1.0,
            ascertainment_values=ones,
            n_replicates=1,
            seed=5,
        )
        nz = sum(BASELINE_Z)
        _, panel = next(simulate_stepped_wedge(scen))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            totals = panel.z.sum(axis=0)
        np.testing.assert_allclose(totals, nz, rtol=0, atol=0.5)

    def test_panel_complete_and_deterministic(self):
        scen = default_sw_scenario(n_replicates=2, seed=8)
        panels = [p for _, p in simulate_stepped_wedge(scen)]
        assert panels[0].y.shape == (24, 9)
        again = [p for _, p in simulate_stepped_wedge(scen)]
        assert np.array_equal(panels[1].y, again[1].y)
        assert panels[1].start_periods == again[1].start_periods

    def test_start_periods_follow_q(self):
        scen = default_sw_scenario(n_replicates=1, seed=2)
        _, panel = next(simulate_stepped_wedge(scen))
        counts = {t: panel.start_periods.count(t) for t in range(1, 10)}
        assert counts[1] == 0
        assert all(counts[t] == 3 for t in range(2, 10))


class TestEvaluate:
    def test_null_bias_small_and_coverage_reasonable(self):
        scen = small_parallel(lam=1.0, n=300, seed=21)
        rows = evaluate(scen, ("log_contrast",), permutation_por=True, perm_draws=199)
        row = rows[0]
        assert row.n_effective == 300
        assert abs(row.bias) < 3 * row.se / math.sqrt(300)
        assert 0.9 < row.cp <= 1.0
        assert 0.0 <= row.por_perm <= 0.12

    def test_degenerate_zero_variance_scenario(self):
        # constant baselines with no noise sources beyond multinomial:
        # coverage is counted only when an SE exists
        scen = small_parallel(lam=1.0, n=50, seed=22)
        rows = evaluate(scen, ("tpf",), permutation_por=False)
        assert rows[0].ase is None
        assert rows[0].cp is None

    def test_metrics_row_fields(self):
        scen = small_parallel(lam=0.6, n=80, seed=23)
        rows = evaluate(scen, permutation_por=False)
        names = [r.estimator for r in rows]
        assert names == ["odds_ratio", "tpf", "log_contrast", "covariate_adjusted"]
        for r in rows:
            assert r.lam == 0.6
            assert r.n_replicates == 80
            d = r.to_dict()
            assert set(d) >= {"bias", "se", "ase", "por_normal", "por_perm", "cp"}

    def test_monotone_power_all_estimators(self):
        por = {name: [] for name in
               ("odds_ratio", "tpf", "log_contrast", "covariate_adjusted")}
        for lam in (1.0, 0.6, 0.2):
            scen = small_parallel(lam=lam, n=200, seed=24)
            for row in evaluate(scen, permutation_por=True, perm_draws=199):
                rate = row.por_normal if row.por_normal is not None else row.por_perm
                por[row.estimator].append(rate)
        for name, rates in por.items():
            assert rates[0] <= rates[1] <= rates[2], (name, rates)
        assert por["log_contrast"][2] > 0.9

    def test_coupled_ascertainment_biases_odds_ratio_not_log_contrast(self):
        # ascertainment tracking the control count ratio is the failure
        # mode that breaks pooled-count estimators
        by = np.asarray(BASELINE_Y, float)
        bz = np.asarray(BASELINE_Z, float)
        ratio = by / bz
        c = 0.25 + 1.5 * (ratio - ratio.min()) / (ratio.max() - ratio.min())
        scen = small_parallel(
            lam=1.0,
            n=400,
            seed=29,
            covariate_coupling=False,
            covariates=None,
            ascertainment_values=tuple(float(v) for v in c),
        )
        rows = {r.estimator: r
                for r in evaluate(scen, ("odds_ratio", "log_contrast"),
                                  permutation_por=False)}
        lc, orr = rows["log_contrast"], rows["odds_ratio"]
        assert abs(lc.bias) < 3 * lc.se / math.sqrt(lc.n_effective)
        assert abs(orr.bias) > 3 * orr.se / math.sqrt(orr.n_effective)

    def test_degenerate_constant_estimates_row(self):
        # zero spread in the estimates: se collapses to 0 and the CI
        # covers whenever it contains the truth
        from crtnd.simulation import _Tally

        t = _Tally()
        t.add_normal(np.zeros(10), np.full(10, 0.1), 1.0, 0.05)
        row = t.row(small_parallel(lam=1.0, n=10), "stub")
        assert row.se == 0.0
        assert row.cp == 1.0
        assert row.por_normal == 0.0

    def test_normal_tallies_decide_as_the_scalar_test(self):
        # the chunk's Normal tests and CIs, one array pass, against each
        # replicate's own _two_sided_p and CI; zero SEs take the
        # degenerate rule and NaN SEs (no SE) tally the estimate only
        from crtnd.estimators import _z_quantile
        from crtnd.inference import _two_sided_p
        from crtnd.simulation import _Tally

        rng = np.random.default_rng(70)
        est = np.concatenate([rng.normal(0.0, 0.3, 200), [0.0, 0.0, 0.4, 1e-13, 0.2]])
        se = np.concatenate([rng.uniform(0.05, 0.3, 200), [0.0, 0.1, 0.0, 0.0, np.nan]])
        lam, alpha = 0.9, 0.05
        t = _Tally()
        t.add_normal(est, se, lam, alpha)
        has = ~np.isnan(se)
        zq = _z_quantile(alpha)
        reject = sum(_two_sided_p(e, s, abs(e))[0] <= alpha
                     for e, s in zip(est[has].tolist(), se[has].tolist()))
        covered = sum(e - zq * s <= math.log(lam) <= e + zq * s
                      for e, s in zip(est[has].tolist(), se[has].tolist()))
        assert (t.reject_normal, t.n_normal) == (reject, 204)
        assert (t.covered, t.n_cover) == (covered, 204)
        assert 0 < reject < 204 and 0 < covered < 204
        row = t.row(small_parallel(lam=lam, n=205), "stub")
        assert row.n_effective == 205
        assert row.ase == float(np.mean(se[has]))

    def test_covariate_adjustment_reduces_se(self):
        scen = small_parallel(lam=1.0, n=250, seed=25)
        rows = evaluate(
            scen, ("log_contrast", "covariate_adjusted"), permutation_por=False
        )
        lc, ca = rows
        assert ca.se < lc.se
        assert 1 - (ca.se / lc.se) ** 2 >= 0.10

    def test_sw_evaluate_smoke(self):
        scen = default_sw_scenario(n_replicates=60, seed=26)
        rows = evaluate(scen, permutation_por=False)
        eq, opt = rows
        assert eq.estimator == "sw_equal" and opt.estimator == "sw_optimal"
        assert abs(eq.bias) < 0.1
        assert opt.se <= eq.se * 1.05

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            evaluate(small_parallel(n=2), ("glmm",))

    def test_metrics_independent_of_estimator_subset(self):
        # replicate data and permutation streams are derived by counters,
        # so one estimator's row cannot depend on which others ran
        scen = small_parallel(lam=0.6, n=60, seed=30)
        alone = evaluate(scen, ("log_contrast",), perm_draws=99)[0]
        together = [
            r
            for r in evaluate(scen, perm_draws=99)
            if r.estimator == "log_contrast"
        ][0]
        assert alone.bias == together.bias
        assert alone.se == together.se
        assert alone.por_perm == together.por_perm
        assert alone.cp == together.cp


class TestSweep:
    def test_sweep_shapes_and_determinism(self):
        scen = small_parallel(lam=0.6, n=40, seed=27)
        rows = replicate_ascertainment_sweep(scen, 3, ("log_contrast",))
        assert len(rows) == 3
        ids = [r.scenario_id for r in rows]
        assert len(set(ids)) == 3
        again = replicate_ascertainment_sweep(scen, 3, ("log_contrast",))
        assert [r.bias for r in rows] == [r.bias for r in again]

    def test_sweep_unit_ascertainment_degenerate_bias(self):
        scen = small_parallel(
            lam=1.0,
            n=150,
            seed=28,
            covariate_coupling=False,
            covariates=None,
        )
        rows = []
        for k in range(2):
            child = SimScenario(
                **{
                    **{f: getattr(scen, f) for f in (
                        "design", "baseline_y", "baseline_z", "lam",
                        "n_replicates", "alpha",
                    )},
                    "scenario_id": f"unit-c{k}",
                    "ascertainment_values": tuple([1.0] * 24),
                    "seed": 1000 + k,
                }
            )
            rows.extend(evaluate(child, ("log_contrast", "odds_ratio"),
                                 permutation_por=False))
        for r in rows:
            assert abs(r.bias) < 3 * r.se / math.sqrt(r.n_effective) + 1e-9

    def test_sweep_rejects_sw(self):
        with pytest.raises(ValueError):
            replicate_ascertainment_sweep(default_sw_scenario(n_replicates=2), 1)


# --------------------------------------------------------------------- #
# The array loop of evaluate against the public record path
# --------------------------------------------------------------------- #


def reference_evaluate(scenario, names, permutation_por, perm_draws):
    """evaluate() rebuilt from records or panels and the public estimators;
    the replicates of one block rep // _BLOCK share their relabelings."""
    from crtnd import (
        covariate_adjusted_estimate,
        log_contrast_estimate,
        log_contrasts,
        odds_ratio_estimate,
        optimal_weights,
        sample_assignments,
        sw_covariance_estimate,
        sw_log_contrast,
        sw_null_covariance,
        sw_permutation_test,
        tpf_estimate,
    )
    from crtnd.core import derive_rng
    from crtnd.errors import CrtndError, NoAdmissibleRoot, SingularCovariance
    from crtnd.estimators import _z_quantile, odds_ratio_log
    from crtnd.inference import _tail_counts, _two_sided_p
    from crtnd.simulation import _Tally
    from crtnd.stepped_wedge import equal_weights

    def _tally_from_values(t, log_est, se, lam_true, alpha):
        """One replicate's Normal tallies, as its report would decide them."""
        t.estimates.append(np.array([log_est]))
        if se is None:
            return
        t.ses.append(np.array([se]))
        p, _ = _two_sided_p(log_est, se, abs(log_est))
        t.reject_normal += p <= alpha
        t.n_normal += 1
        zq = _z_quantile(alpha)
        t.covered += log_est - zq * se <= math.log(lam_true) <= log_est + zq * se
        t.n_cover += 1

    alpha, lam = scenario.alpha, scenario.lam
    tallies = {name: _Tally() for name in names}
    raw = {key: [] for key in ("replicate", *names)}

    def tally(name, report):
        _tally_from_values(tallies[name], report.log_estimate, report.se_log,
                           lam, alpha)
        raw[name].append(report.log_estimate)

    def reject(name, draws, observed):
        two, _, _ = _tail_counts(draws, observed)
        tallies[name].reject_perm += (1 + two) / (1 + perm_draws) <= alpha
        tallies[name].n_perm += 1

    def drop(reason):
        for t in tallies.values():
            t.dropped[reason] += 1

    # one replicate's relabeled statistics, from its own matrix-vector
    # products with the relabelings: the arm means' difference of a
    # vector, and the log odds ratio of the arm totals
    def mean_differences(v, rows):
        m1 = scenario.design.m1
        treated = rows @ v
        return treated / m1 - (v.sum() - treated) / (v.size - m1)

    def log_odds_ratios(y, z, rows):
        ty, tz = rows @ y, rows @ z
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(ty) - np.log(y.sum() - ty) + np.log(z.sum() - tz) - np.log(tz)

    if not scenario.is_stepped_wedge:
        scheme = scenario.design
        for rep, records in simulate_parallel(scenario):
            if records is None:
                drop("degenerate")
                continue
            raw["replicate"].append(rep)
            y, z, arms = records.y, records.z, records.arm
            rows = None
            if permutation_por:
                rows = sample_assignments(
                    scheme, perm_draws, derive_rng(scenario.seed, 3, rep // _BLOCK)
                ).astype(np.int8)
            if "log_contrast" in names:
                report = log_contrast_estimate(records, alpha=alpha)
                tally("log_contrast", report)
                if rows is not None:
                    lvals = log_contrasts(records)
                    reject("log_contrast", mean_differences(lvals, rows),
                           report.log_estimate)
            if "covariate_adjusted" in names:
                tally("covariate_adjusted",
                      covariate_adjusted_estimate(records, alpha=alpha)[0])
            if "odds_ratio" in names:
                if rows is not None:
                    log_or = odds_ratio_log(records)
                    draws = log_odds_ratios(y, z, rows)
                    se = float(np.std(draws[np.isfinite(draws)], ddof=1))
                    _tally_from_values(tallies["odds_ratio"], log_or, se, lam, alpha)
                    raw["odds_ratio"].append(log_or)
                    reject("odds_ratio", draws, log_or)
                else:
                    tally("odds_ratio", odds_ratio_estimate(
                        records, alpha=alpha, se_draws=perm_draws, seed=scenario.seed))
            if "tpf" in names:
                try:
                    est = tpf_estimate(records, alpha=alpha).log_estimate
                    tallies["tpf"].estimates.append(np.array([est]))
                    raw["tpf"].append(est)
                except NoAdmissibleRoot:
                    raw["tpf"].append(float("nan"))
                    tallies["tpf"].dropped["NoAdmissibleRoot"] += 1
                if rows is not None:
                    fr = np.array([yi / (yi + zi) for yi, zi in zip(y, z)])
                    reject("tpf", mean_differences(fr, rows),
                           float(fr[arms].mean() - fr[~arms].mean()))
    else:
        for rep, panel in simulate_stepped_wedge(scenario):
            if panel is None:
                drop("degenerate")
                continue
            try:
                cov_hat = sw_covariance_estimate(panel)
            except CrtndError as exc:
                drop(type(exc).__name__)
                continue
            raw["replicate"].append(rep)
            if "sw_equal" in names:
                tally("sw_equal", sw_log_contrast(
                    panel, "equal", covariance=cov_hat, alpha=alpha))
            if "sw_optimal" in names:
                cov_true = sw_null_covariance(panel, lam)
                try:
                    wts = optimal_weights(cov_true, kind="optimal_oracle")
                except SingularCovariance:
                    wts = equal_weights(cov_true.periods)
                    tallies["sw_optimal"].weight_fallbacks += 1
                tally("sw_optimal", sw_log_contrast(
                    panel, wts, covariance=cov_hat, alpha=alpha))
            if permutation_por:
                for name in names:
                    result = sw_permutation_test(
                        panel, 1.0, "equal" if name == "sw_equal" else "optimal",
                        mode="monte_carlo", n_draws=perm_draws,
                        seed=int(derive_rng(scenario.seed, 3, rep // _BLOCK).integers(2**31)),
                    )
                    tallies[name].reject_perm += result.p_two_sided <= alpha
                    tallies[name].n_perm += 1
    return [tallies[name].row(scenario, name) for name in names], raw


def small_sw(lam=0.6, n=8, seed=4, **over):
    return replace(default_sw_scenario(lam, n_replicates=n, seed=seed), **over)


EQUIVALENCE_CASES = {
    "parallel-coupled": (small_parallel(lam=0.6, n=30, seed=41), None),
    "parallel-uncoupled-per-replicate": (
        small_parallel(lam=0.4, n=30, seed=42, covariate_coupling=False,
                       draw_policy="per_replicate"),
        None,
    ),
    "parallel-subset": (small_parallel(lam=1.0, n=30, seed=43), ("tpf", "odds_ratio")),
    "parallel-small-design": (
        small_parallel(lam=0.3, n=40, seed=44, design=ParallelScheme(24, 5)),
        None,
    ),
    # three clusters almost all test-positive, three almost all negative:
    # the fraction statistic often leaves its attainable range, and the
    # odds-ratio SE enumerates the 20 arm splits
    "parallel-split-fractions": (
        SimScenario(
            scenario_id="split",
            design=ParallelScheme(6, 3),
            baseline_y=(99, 99, 99, 1, 1, 1),
            baseline_z=(1, 1, 1, 99, 99, 99),
            n_replicates=60,
            seed=45,
        ),
        ("tpf", "log_contrast", "odds_ratio"),
    ),
    "sw": (small_sw(), None),
    "sw-per-replicate-optimal": (
        small_sw(lam=1.3, seed=5, draw_policy="per_replicate"), ("sw_optimal",)
    ),
}


def sparse_parallel(n, seed, tiny=0.0345):
    """Cluster 6's test-positive baseline is ``tiny``: its count often
    stays zero through every redraw, so some replicates are degenerate."""
    by = list(BASELINE_Y)
    by[5] = tiny
    return small_parallel(lam=0.6, n=n, seed=seed, baseline_y=tuple(by),
                          scenario_id="sparse-par")


def sparse_sw(n, seed, tiny=0.035):
    """Cluster 5's period-2 test-positive baseline is ``tiny``."""
    scenario = small_sw(lam=0.6, n=n, seed=seed)
    by = [list(row) for row in scenario.baseline_y]
    by[4][1] = tiny
    return replace(scenario, scenario_id="sparse-sw",
                   baseline_y=tuple(tuple(row) for row in by))


# evaluate works through replicates in chunks of _CHUNK: runs that end
# one short of, at and one past a chunk, and two chunks and one, with
# one degenerate replicate inside a chunk (replicate 23 of the parallel
# run, 11 of the wedge)
EQUIVALENCE_CASES.update({
    "chunk-short": (small_parallel(lam=0.6, n=_CHUNK - 1, seed=48), None),
    "chunk-full": (small_parallel(lam=0.8, n=_CHUNK, seed=49), None),
    "chunk-over": (small_parallel(lam=1.0, n=_CHUNK + 1, seed=50), ("odds_ratio",)),
    "chunks-degenerate": (sparse_parallel(2 * _CHUNK + 1, 20), None),
    "sw-chunk-over": (small_sw(n=_CHUNK + 1, seed=51), None),
    "sw-chunks-degenerate": (sparse_sw(2 * _CHUNK + 1, 7), None),
    # two covariates: the stacked per-arm least squares with p > 1
    "chunk-over-two-covariates": (
        small_parallel(lam=0.7, n=_CHUNK + 1, seed=52, covariate_coupling=False,
                       covariates=tuple((x, (i % 5) / 4.0) for i, x in enumerate(POPULATION))),
        ("covariate_adjusted", "log_contrast"),
    ),
})

# evaluate joins the chunks of _BLOCK replicates into one block, which
# shares one set of relabelings: runs that end one short of, at and one
# past a block, and two blocks and one, with one degenerate replicate
# inside a block (replicate 70 of the parallel run, 71 of the wedge) or
# as a block's first replicate (replicate 128, the third block's only
# one, and 64, the second block's first of 64)
EQUIVALENCE_CASES.update({
    "block-short": (small_parallel(lam=0.6, n=_BLOCK - 1, seed=56), None),
    "block-full": (small_parallel(lam=0.8, n=_BLOCK, seed=57), ("log_contrast", "odds_ratio")),
    "block-over": (small_parallel(lam=1.0, n=_BLOCK + 1, seed=58), None),
    "blocks-degenerate-inside": (sparse_parallel(2 * _BLOCK + 1, 73), None),
    "blocks-degenerate-first": (sparse_parallel(2 * _BLOCK + 1, 622), None),
    "sw-block-short": (small_sw(n=_BLOCK - 1, seed=59), None),
    "sw-block-full": (small_sw(n=_BLOCK, seed=60), ("sw_optimal",)),
    "sw-block-over": (small_sw(lam=1.0, n=_BLOCK + 1, seed=61), None),
    "sw-blocks-degenerate-inside": (sparse_sw(2 * _BLOCK + 1, 49), None),
    "sw-blocks-degenerate-first": (sparse_sw(2 * _BLOCK + 1, 169), None),
})


def assert_rows_match(rows, ref_rows):
    """Every field bit for bit (repr distinguishes every float bit pattern
    and makes NaN equal), but the odds ratio's ``ase``, at relative 1e-12.

    The permutation column takes the treated sums of a chunk's relabeled
    vectors in one (vectors, draws) product, the record path in one
    matrix-vector product per replicate; the two round differently (by
    up to about 3e-14 on the odds ratio's draws), which moves the odds
    ratio's permutation SEs and so their mean.  The tail counts' tie
    slack absorbs the difference.
    """
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        if row.estimator == "odds_ratio" and ref.ase is not None:
            assert row.ase == pytest.approx(ref.ase, rel=1e-12, abs=0)
            row = replace(row, ase=ref.ase)
        assert repr(row) == repr(ref)


class TestArrayLoopEquivalence:
    @pytest.mark.parametrize("permutation_por", [True, False])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_bit_identical_to_the_record_path(self, case, permutation_por):
        scenario, names = EQUIVALENCE_CASES[case]
        default = SW_ESTIMATORS if scenario.is_stepped_wedge else PARALLEL_ESTIMATORS
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows, raw = evaluate(scenario, names, permutation_por=permutation_por,
                                 perm_draws=99, keep_estimates=True)
            ref_rows, ref_raw = reference_evaluate(
                scenario, names or default, permutation_por, 99
            )
        assert_rows_match(rows, ref_rows)
        assert repr(raw) == repr(ref_raw)

    @pytest.mark.parametrize("permutation_por", [True, False])
    @pytest.mark.parametrize("make, n", [(default_parallel_scenario, 200),
                                         (default_sw_scenario, 50)])
    def test_bit_identical_at_the_benchmark_shape(self, make, n, permutation_por):
        # the command line's 999 draws: the chunk-sized work arrays at
        # their full width, and a wedge chunk's product in 11 pieces
        # sliced from its block's start masks
        scenario = make(0.6, n_replicates=n, seed=11)
        default = SW_ESTIMATORS if scenario.is_stepped_wedge else PARALLEL_ESTIMATORS
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows, raw = evaluate(scenario, permutation_por=permutation_por,
                                 perm_draws=999, keep_estimates=True)
            ref_rows, ref_raw = reference_evaluate(scenario, default, permutation_por, 999)
        assert_rows_match(rows, ref_rows)
        assert repr(raw) == repr(ref_raw)

    @pytest.mark.parametrize("permutation_por", [True, False])
    def test_weight_fallbacks_match_the_record_path(self, monkeypatch, permutation_por):
        # at a condition limit of 11 some of these wedges' truth-imputed
        # covariances fail the check: their optimal weights fall back to
        # equal weights, and the fallbacks are counted
        import crtnd.stepped_wedge as stepped_wedge

        monkeypatch.setattr(stepped_wedge, "_COND_LIMIT", 11.0)
        scenario = small_sw(n=_CHUNK + 4, seed=55)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows, raw = evaluate(scenario, ("sw_optimal",), permutation_por=permutation_por,
                                 perm_draws=99, keep_estimates=True)
            ref_rows, ref_raw = reference_evaluate(scenario, ("sw_optimal",),
                                                   permutation_por, 99)
        assert_rows_match(rows, ref_rows)
        assert repr(raw) == repr(ref_raw)
        assert 0 < rows[0].weight_fallbacks < rows[0].n_effective

    def test_chunk_size_is_pinned(self):
        # the replicates of a chunk share one stream, and those of a
        # block the permutation column's relabelings, so another chunk
        # size changes every output and another block size por_perm and
        # the odds ratio's SE metrics: make either a deliberate change
        assert _CHUNK == 16
        assert _BLOCK == 64

    def test_thin_wedge_raises_before_the_loop(self, monkeypatch):
        # m_1 = 1 at the first analysis period: the design fails the
        # per-arm check, so no replicate is drawn
        import crtnd.simulation as simulation

        def no_draws(scenario):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simulation, "_wedge_draws", no_draws)
        scen = SimScenario(
            scenario_id="thin-wedge",
            design=SteppedWedgeScheme(m=6, q=(0, 1, 2, 3)),
            baseline_y=tuple(tuple([30] * 4) for _ in range(6)),
            baseline_z=tuple([90] * 6),
            lam=0.7,
            n_replicates=12,
            seed=6,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ArmTooSmall, match="treated=1"):
                evaluate(scen, permutation_por=True, perm_draws=19)

    @pytest.mark.parametrize("case, rep", [("chunks-degenerate", 23),
                                           ("sw-chunks-degenerate", 11),
                                           ("blocks-degenerate-inside", 70),
                                           ("sw-blocks-degenerate-inside", 71)])
    def test_one_degenerate_replicate_inside_a_chunk(self, case, rep):
        scenario, _ = EQUIVALENCE_CASES[case]
        draws = simulate_stepped_wedge if scenario.is_stepped_wedge else simulate_parallel
        assert [r for r, data in draws(scenario) if data is None] == [rep]
        assert 0 < rep % _CHUNK < _CHUNK - 1

    @pytest.mark.parametrize("case, rep", [("blocks-degenerate-first", 2 * _BLOCK),
                                           ("sw-blocks-degenerate-first", _BLOCK)])
    def test_one_degenerate_replicate_opens_a_block(self, case, rep):
        scenario, _ = EQUIVALENCE_CASES[case]
        draws = simulate_stepped_wedge if scenario.is_stepped_wedge else simulate_parallel
        assert [r for r, data in draws(scenario) if data is None] == [rep]
        assert rep % _BLOCK == 0

    @pytest.mark.parametrize("case, blocks", [
        ("blocks-degenerate-first", range(2)),  # block 2 is replicate 128 alone
        ("sw-blocks-degenerate-first", range(3)),  # block 1 opens degenerate
    ])
    def test_relabelings_are_drawn_once_per_block(self, monkeypatch, case, blocks):
        # one randomize call per block with a nondegenerate replicate,
        # from the stream of rep // _BLOCK whichever replicate opens it
        import crtnd.simulation as simulation
        from crtnd.simulation import _relabeling_stream

        draw, streams = simulation.randomize, []

        def counted(scheme, mode, n_draws, stream):
            streams.append(stream)
            return draw(scheme, mode, n_draws, stream)

        monkeypatch.setattr(simulation, "randomize", counted)
        scenario, _ = EQUIVALENCE_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evaluate(scenario, perm_draws=19)
            assert streams == [_relabeling_stream(scenario, b) for b in blocks]
            streams.clear()
            evaluate(scenario, perm_draws=19, permutation_por=False)
        assert streams == []

    @pytest.mark.parametrize("permutation_por", [True, False])
    @pytest.mark.parametrize("make, n, message", [
        (sparse_parallel, 40, "2 degenerate replicates out of 7"),
        (sparse_parallel, 250, "3 degenerate replicates out of 11"),
        (sparse_sw, 40, "2 degenerate replicates out of 4"),
        (sparse_sw, 250, "3 degenerate replicates out of 5"),
    ])
    def test_degenerate_limit_fires_where_the_draws_do(self, make, n, message,
                                                        permutation_por):
        # the limit is one degenerate replicate per hundred (at least one);
        # the message names the replicate that passes it
        scenario = make(n, 3, tiny=0.01)
        draws = simulate_stepped_wedge if scenario.is_stepped_wedge else simulate_parallel
        with pytest.raises(DegenerateReplicateLimit, match=f"^{message}$"):
            list(draws(scenario))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DegenerateReplicateLimit, match=f"^{message}$"):
                evaluate(scenario, permutation_por=permutation_por, perm_draws=19)

    @pytest.mark.parametrize("case", ["block-over", "sw-block-over"])
    def test_permutation_stacks_stay_per_chunk(self, monkeypatch, case):
        # a block shares one set of relabelings, drawn once, but its
        # (replicates, draws) stacks of tail counts and wedge contrasts
        # are each chunk's own: never more than _CHUNK rows
        import crtnd.simulation as simulation
        from crtnd.simulation import _relabeling_stream

        streams, stacks = [], []

        def spy(name):
            function = getattr(simulation, name)

            def spied(*args):
                out = function(*args)
                stacks.append(args[0].shape if name == "_two_sided_count" else out.shape)
                return out
            monkeypatch.setattr(simulation, name, spied)

        def counted(scheme, mode, n_draws, stream):
            streams.append(stream)
            return draw(scheme, mode, n_draws, stream)

        draw = simulation.randomize
        monkeypatch.setattr(simulation, "randomize", counted)
        spy("_two_sided_count")
        spy("_period_contrasts")
        scenario, _ = EQUIVALENCE_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evaluate(scenario, perm_draws=19)
        assert streams == [_relabeling_stream(scenario, b) for b in range(2)]
        assert stacks and all(shape[-1] == 19 for shape in stacks)
        assert max(shape[-2] for shape in stacks) == _CHUNK
        # the second block holds replicate 64 alone
        assert min(shape[-2] for shape in stacks) == 1

    @pytest.mark.parametrize("n, blocks", [(50, 1), (130, 3)])
    def test_start_masks_are_built_once_per_block(self, monkeypatch, n, blocks):
        # simulate-sw's scenario and draws: a block's chunks share its
        # relabelings and so their (k m, draws) start masks, built once
        # per block and never per chunk or per piece
        import crtnd.stepped_wedge as stepped_wedge

        builds, build = [], stepped_wedge._start_masks

        def counted(starts, periods, *args):
            builds.append(starts.shape)
            return build(starts, periods, *args)

        monkeypatch.setattr(stepped_wedge, "_start_masks", counted)
        scenario = default_sw_scenario(0.6, n_replicates=n, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evaluate(scenario, perm_draws=999)
        assert builds == [(scenario.design.m, 999)] * blocks

    def test_tpf_failures_are_counted_by_reason(self):
        scen, names = EQUIVALENCE_CASES["parallel-split-fractions"]
        rows = {r.estimator: r for r in evaluate(scen, names, permutation_por=False)}
        tpf = rows["tpf"]
        assert tpf.dropped.get("NoAdmissibleRoot", 0) > 0
        assert sum(tpf.dropped.values()) == tpf.n_replicates - tpf.n_effective
        assert rows["log_contrast"].dropped == {}


# Every metric of the benchmark's simulations at seed 11 (lam 0.6, 999
# relabelings): simulate with 200 replicates and simulate-sw with 50,
# the permutation column on and off.  Per estimator: n_effective, bias,
# se, ase, por_normal, por_perm, cp, dropped and weight_fallbacks.  A
# change that moves one of them re-records this table and names what
# moved in CHANGES.md.
_PINNED_METRICS = {
    ("parallel", True): {
        "odds_ratio": (200, 0.17752308584180165, 0.328726055383282, 0.36291748614092567,
                       0.35, 0.35, 0.995, {}, 0),
        "tpf": (200, 0.011500164622787135, 0.297428716340719, None, None, 0.415, None, {}, 0),
        "log_contrast": (200, 0.0038821339465685556, 0.265891014436439, 0.26654129607071714,
                         0.455, 0.44, 0.96, {}, 0),
        "covariate_adjusted": (200, -0.008273238909225378, 0.1432137473712156,
                               0.14189335672063044, 0.955, None, 0.96, {}, 0),
    },
    ("parallel", False): {
        "odds_ratio": (200, 0.17752308584180165, 0.328726055383282, 0.3641798358777366,
                       0.34, None, 0.995, {}, 0),
        "tpf": (200, 0.011500164622787135, 0.297428716340719, None, None, None, None, {}, 0),
        "log_contrast": (200, 0.0038821339465685556, 0.265891014436439, 0.26654129607071714,
                         0.455, None, 0.96, {}, 0),
        "covariate_adjusted": (200, -0.008273238909225378, 0.1432137473712156,
                               0.14189335672063044, 0.955, None, 0.96, {}, 0),
    },
    ("sw", True): {
        "sw_equal": (50, -0.017736756257616504, 0.15148874477995145, 0.13891288870127871,
                     0.96, 0.96, 0.92, {}, 0),
        "sw_optimal": (50, -0.01530638155903874, 0.12960037277547354, 0.12672963214849214,
                       0.98, 0.94, 0.96, {}, 0),
    },
    ("sw", False): {
        "sw_equal": (50, -0.017736756257616504, 0.15148874477995145, 0.13891288870127871,
                     0.96, None, 0.92, {}, 0),
        "sw_optimal": (50, -0.01530638155903874, 0.12960037277547354, 0.12672963214849214,
                       0.98, None, 0.96, {}, 0),
    },
}


@pytest.mark.parametrize("permutation_por", [True, False])
@pytest.mark.parametrize("design", ["parallel", "sw"])
def test_pinned_metrics_at_the_benchmark_shape(design, permutation_por):
    from crtnd.simulation import MetricsRow

    make, n = {"parallel": (default_parallel_scenario, 200),
               "sw": (default_sw_scenario, 50)}[design]
    scenario = make(0.6, n_replicates=n, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = evaluate(scenario, permutation_por=permutation_por, perm_draws=999)
    pinned = _PINNED_METRICS[design, permutation_por]
    assert [row.estimator for row in rows] == list(pinned)
    for row in rows:
        want = MetricsRow(scenario.scenario_id, row.estimator, 0.6, n, *pinned[row.estimator])
        assert repr(row) == repr(want)


class TestDrawsMatchPotentialTables:
    """Replicate data equal the realization of the replicate's potential
    table: chunk g draws its ascertainments (per-replicate policy), its
    counts and its assignments, in that order, from (seed, 4, g)."""

    def test_parallel(self):
        from crtnd import PotentialTable, derive_rng, realize, sample_assignments
        from crtnd.simulation import _ascertainment, _draw_counts

        scen = small_parallel(lam=0.6, n=_CHUNK + 4, seed=46, draw_policy="per_replicate")
        two_x = 2.0 * np.asarray(POPULATION, float)
        cells = [(int(round(b.sum())), b / b.sum())
                 for b in (np.asarray(BASELINE_Y, float), np.asarray(BASELINE_Z, float))]
        for rep, records in simulate_parallel(scen):
            g, i = divmod(rep, _CHUNK)
            rng = derive_rng(scen.seed, 4, g)
            c = _ascertainment(scen, rng, _CHUNK)[i]
            counts = _draw_counts(rng, cells)[0][i]
            arms = sample_assignments(scen.design, _CHUNK, rng)[i]
            table = PotentialTable(lam=0.6, y0=counts[:, 0] * two_x, z0=counts[:, 1] / two_x,
                                   c=c, covariates=two_x / 2.0)
            assert records == realize(table, arms)

    def test_stepped_wedge(self):
        from crtnd import PeriodPotentialTable, derive_rng, realize, sample_assignments
        from crtnd.simulation import _draw_counts

        scen = default_sw_scenario(0.6, n_replicates=_CHUNK + 4, seed=47)
        by = np.asarray(scen.baseline_y, float)
        bz = np.asarray(scen.baseline_z, float)
        n_t = by.sum(axis=0)
        n_z = np.maximum(1, np.round(bz.sum() * n_t / n_t[-1])).astype(int)
        cells = [(int(round(n_t[t])), by[:, t] / n_t[t]) for t in range(by.shape[1])]
        cells += [(int(n), bz / bz.sum()) for n in n_z]
        c = study_ascertainment(scen)
        for rep, panel in simulate_stepped_wedge(scen):
            g, i = divmod(rep, _CHUNK)
            rng = derive_rng(scen.seed, 4, g)
            counts = _draw_counts(rng, cells)[0][i]
            table = PeriodPotentialTable(lam=0.6, y0=counts[:, :by.shape[1]],
                                         z0=counts[:, by.shape[1]:], c=c)
            assert panel == realize(table, sample_assignments(scen.design, _CHUNK, rng)[i])


class TestChunkGeneration:
    @pytest.mark.parametrize("make", [
        lambda n: small_parallel(lam=0.6, n=n, seed=53),
        lambda n: small_sw(n=n, seed=54),
    ], ids=["parallel", "sw"])
    def test_a_replicate_does_not_depend_on_the_run_length(self, make):
        # chunks are drawn whole and the last one cut: replicate 16 opens
        # the second chunk of a 17-replicate run and of a 32-replicate one
        short, full = make(_CHUNK + 1), make(2 * _CHUNK)
        draws = simulate_stepped_wedge if short.is_stepped_wedge else simulate_parallel
        assert dict(draws(short))[_CHUNK] == dict(draws(full))[_CHUNK]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, raw_short = evaluate(short, perm_draws=19, keep_estimates=True)
            _, raw_full = evaluate(full, perm_draws=19, keep_estimates=True)
        assert repr(raw_short) == repr({k: v[:_CHUNK + 1] for k, v in raw_full.items()})

    def test_zero_cells_are_redrawn(self):
        from crtnd import derive_rng
        from crtnd.simulation import _draw_counts

        # a 2 % category of 100 draws is zero in about one replicate in 8
        cells = [(100, np.array([0.98, 0.02])), (60, np.array([0.5, 0.5]))]
        rng = derive_rng(8, 4, 0)
        first = np.stack([rng.multinomial(n, p, size=_CHUNK) for n, p in cells], axis=-1)
        counts, degenerate = _draw_counts(derive_rng(8, 4, 0), cells)
        assert (first == 0).any()
        assert counts.min() > 0 and not degenerate.any()
        assert np.array_equal(counts[first > 0], first[first > 0])

    def test_a_replicate_stuck_at_zero_is_degenerate_and_counted(self):
        from crtnd import derive_rng
        from crtnd.simulation import _draw_counts

        cells = [(100, np.array([1 - 1e-12, 1e-12]))]
        counts, degenerate = _draw_counts(derive_rng(8, 4, 0), cells)
        assert degenerate.all() and not counts[:, 1].any()
        # a run drops its degenerate replicate from every estimator
        scenario, _ = EQUIVALENCE_CASES["chunks-degenerate"]
        for row in evaluate(scenario, permutation_por=False):
            assert row.dropped["degenerate"] == 1
            assert row.n_effective <= scenario.n_replicates - 1


class TestBoundedMemory:
    """A run holds one block of replicates at a time, never its relabelings,
    nor its (chunk, draws, periods) stacks."""

    # what grows with the replicates is the tallies: a few float64 each,
    # in one array per chunk
    SLACK = 512 * 1024

    @staticmethod
    def peak(scenario, names):
        import tracemalloc

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evaluate(replace(scenario, n_replicates=2), names, perm_draws=99)
            tracemalloc.start()
            try:
                evaluate(scenario, names, perm_draws=99)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("make, names, n", [
        (default_parallel_scenario, ("log_contrast",), 200),
        (default_parallel_scenario, PARALLEL_ESTIMATORS, 200),
        (default_sw_scenario, ("sw_equal",), 50),
        (default_sw_scenario, SW_ESTIMATORS, 50),
    ])
    def test_peak_does_not_grow_with_replicates(self, make, names, n):
        small = self.peak(make(0.6, n_replicates=n, seed=3), names)
        large = self.peak(make(0.6, n_replicates=10 * n, seed=3), names)
        assert large - small < self.SLACK


    def test_wide_relabelings_build_their_masks_in_pieces(self):
        # at 50,000 draws a block's (k m, draws) float64 start masks, 64
        # MiB for the bundled wedge, do not fit in _BLOCK_BYTES: each
        # chunk's product builds its pieces' masks in turn instead
        import tracemalloc

        scenario = default_sw_scenario(0.6, n_replicates=50, seed=3)
        scheme = scenario.design
        masks = 8 * scheme.m * len(scheme.analysis_periods) * 50_000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tracemalloc.start()
            try:
                evaluate(scenario, perm_draws=50_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < masks


class TestRawEstimatesCsv:
    def test_rows_name_their_replicates(self, tmp_path):
        # replicate 23 of this run is degenerate: the CSV has no row for
        # it, and every other row carries its own replicate's number and
        # estimate
        import csv

        from crtnd import log_contrast_estimate
        from crtnd.cli import main
        from conftest import save_scenario

        scenario = sparse_parallel(40, 48)
        trials = dict(simulate_parallel(scenario))
        assert [rep for rep, trial in trials.items() if trial is None] == [23]
        path, raw = tmp_path / "s.json", tmp_path / "raw.csv"
        save_scenario(scenario, path)
        assert main(["simulate", "--scenario", str(path), "--estimators", "log_contrast",
                     "--no-permutation-por", "--out", str(tmp_path / "m.csv"),
                     "--raw-estimates", str(raw)]) == 0
        with raw.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["replicate"]) for row in rows] == [*range(23), *range(24, 40)]
        for row in rows:
            trial = trials[int(row["replicate"])]
            assert row["log_estimate"] == repr(log_contrast_estimate(trial).log_estimate)

    def test_rows_are_those_of_a_csv_writer(self, tmp_path):
        # one string per estimator, byte for byte the rows a csv.writer
        # writes one at a time: a scenario id that needs quoting, and
        # estimates that are NaN, infinite, signed zero, subnormal or long
        import csv

        from crtnd.cli import _write_raw_estimates

        scenario = replace(small_parallel(), scenario_id='a,"b" c')
        values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -1.2345678901234567e300, 0.1]
        raw = {"replicate": [0, 2, 3, 17, 64, 65, 199], "odds_ratio": values,
               "tpf": values[::-1], "log_contrast": []}
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario_id", "estimator", "replicate", "log_estimate"])
            for name in ("odds_ratio", "tpf", "log_contrast"):
                for rep, value in zip(raw["replicate"], raw[name]):
                    writer.writerow([scenario.scenario_id, name, rep, repr(float(value))])
        path = tmp_path / "raw.csv"
        _write_raw_estimates(path, scenario, raw)
        assert path.read_bytes() == expected.read_bytes()
        assert b'\r\n"a,""b"" c",odds_ratio,0,nan\r\n' in path.read_bytes()
