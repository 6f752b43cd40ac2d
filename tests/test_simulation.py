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
from crtnd.simulation import PARALLEL_ESTIMATORS, SW_ESTIMATORS, study_ascertainment


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
        y = {r.cluster_id: r.y_count for r in recs}
        # realized counts do not depend on arm when lam = c = 1: compare
        # against a re-realization with flipped arms via a fresh draw
        scen2 = small_parallel(
            lam=1.0,
            covariate_coupling=False,
            ascertainment_values=tuple([1.0] * 24),
            seed=scen.seed,
        )
        _, recs2 = next(simulate_parallel(scen2))
        assert y == {r.cluster_id: r.y_count for r in recs2}

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
            counts.extend(r.y_count for r in recs if r.arm == 0)
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
        x = dict(zip((r.cluster_id for r in u_recs), POPULATION))
        for rc, ru in zip(c_recs, u_recs):
            f = 2 * x[ru.cluster_id]
            assert rc.y_count == pytest.approx(ru.y_count * f, rel=1e-12)
            assert rc.z_count == pytest.approx(ru.z_count / f, rel=1e-12)

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
        for _ in range(10):
            t.estimates.append(0.0)
            t.ses.append(0.1)
            t.covered += 1
            t.n_cover += 1
        row = t.row(small_parallel(lam=1.0, n=10), "stub")
        assert row.se == 0.0
        assert row.cp == 1.0

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
    """evaluate() rebuilt from records or panels and the public estimators."""
    from crtnd import (
        covariate_adjusted_estimate,
        log_contrast_estimate,
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
    from crtnd.estimators import odds_ratio_log, odds_ratio_permutation_draws
    from crtnd.inference import _diff_means_rows, _tail_counts
    from crtnd.simulation import _Tally, _tally_from_values
    from crtnd.stepped_wedge import equal_weights

    alpha, lam = scenario.alpha, scenario.lam
    tallies = {name: _Tally() for name in names}
    raw = {name: [] for name in names}

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

    if not scenario.is_stepped_wedge:
        scheme = scenario.design
        for rep, records in simulate_parallel(scenario):
            if records is None:
                drop("degenerate")
                continue
            y = np.array([r.y_count for r in records])
            z = np.array([r.z_count for r in records])
            arms = np.array([r.arm for r in records], dtype=bool)
            rows = None
            if permutation_por:
                rows = sample_assignments(
                    scheme, perm_draws, derive_rng(scenario.seed, 3, rep)
                ).astype(np.int8)
            if "log_contrast" in names:
                report = log_contrast_estimate(records, alpha=alpha)
                tally("log_contrast", report)
                if rows is not None:
                    lvals = np.array([math.log(r.y_count) - math.log(r.z_count)
                                      for r in records])
                    reject("log_contrast",
                           _diff_means_rows(lvals, rows, scheme.m1),
                           report.log_estimate)
            if "covariate_adjusted" in names:
                tally("covariate_adjusted",
                      covariate_adjusted_estimate(records, alpha=alpha)[0])
            if "odds_ratio" in names:
                if rows is not None:
                    log_or = odds_ratio_log(records)
                    draws = odds_ratio_permutation_draws(y, z, rows)
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
                    tallies["tpf"].estimates.append(est)
                    raw["tpf"].append(est)
                except NoAdmissibleRoot:
                    raw["tpf"].append(float("nan"))
                    tallies["tpf"].dropped["NoAdmissibleRoot"] += 1
                if rows is not None:
                    fr = np.array([r.y_count / (r.y_count + r.z_count)
                                   for r in records])
                    reject("tpf", _diff_means_rows(fr, rows, scheme.m1),
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
            if "sw_equal" in names:
                tally("sw_equal", sw_log_contrast(
                    panel, "equal", covariance=cov_hat, alpha=alpha))
            if "sw_optimal" in names:
                cov_true = sw_null_covariance(panel, lam)
                try:
                    wts = optimal_weights(cov_true, kind="optimal_oracle")
                except SingularCovariance:
                    wts = equal_weights(cov_true.periods)
                tally("sw_optimal", sw_log_contrast(
                    panel, wts, covariance=cov_hat, alpha=alpha))
            if permutation_por:
                for name in names:
                    result = sw_permutation_test(
                        panel, 1.0, "equal" if name == "sw_equal" else "optimal",
                        mode="monte_carlo", n_draws=perm_draws,
                        seed=int(derive_rng(scenario.seed, 3, rep).integers(2**31)),
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
        # repr distinguishes every float bit pattern and makes NaN equal
        assert repr(rows) == repr(ref_rows)
        assert repr(raw) == repr(ref_raw)

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

    def test_tpf_failures_are_counted_by_reason(self):
        scen, names = EQUIVALENCE_CASES["parallel-split-fractions"]
        rows = {r.estimator: r for r in evaluate(scen, names, permutation_por=False)}
        tpf = rows["tpf"]
        assert tpf.dropped.get("NoAdmissibleRoot", 0) > 0
        assert sum(tpf.dropped.values()) == tpf.n_replicates - tpf.n_effective
        assert rows["log_contrast"].dropped == {}


class TestDrawsMatchPotentialTables:
    """Replicate data equal the realization of the replicate's potential table."""

    def test_parallel(self):
        from crtnd import PotentialTable, derive_rng, realize, sample_assignment
        from crtnd.simulation import _ascertainment, _draw_counts

        scen = small_parallel(lam=0.6, n=15, seed=46, draw_policy="per_replicate")
        by, bz = np.asarray(BASELINE_Y, float), np.asarray(BASELINE_Z, float)
        x = np.asarray(POPULATION, float)
        for rep, records in simulate_parallel(scen):
            rng = derive_rng(scen.seed, 1, rep)
            c = _ascertainment(scen, rng)
            y0, _ = _draw_counts(rng, int(round(by.sum())), by / by.sum())
            z0, _ = _draw_counts(rng, int(round(bz.sum())), bz / bz.sum())
            table = PotentialTable(lam=0.6, y0=y0 * (2.0 * x), z0=z0 / (2.0 * x),
                                   c=c, covariates=x)
            assert records == realize(table, sample_assignment(scen.design, rng))

    def test_stepped_wedge(self):
        from crtnd import PeriodPotentialTable, derive_rng, realize, sample_assignment
        from crtnd.simulation import _draw_counts

        scen = default_sw_scenario(0.6, n_replicates=6, seed=47)
        by = np.asarray(scen.baseline_y, float)
        bz = np.asarray(scen.baseline_z, float)
        n_t = by.sum(axis=0)
        n_z = np.maximum(1, np.round(bz.sum() * n_t / n_t[-1])).astype(int)
        c = study_ascertainment(scen)
        for rep, panel in simulate_stepped_wedge(scen):
            rng = derive_rng(scen.seed, 1, rep)
            y0, z0 = np.empty_like(by), np.empty_like(by)
            for t in range(by.shape[1]):
                y0[:, t], _ = _draw_counts(rng, int(round(n_t[t])), by[:, t] / n_t[t])
                z0[:, t], _ = _draw_counts(rng, int(n_z[t]), bz / bz.sum())
            table = PeriodPotentialTable(lam=0.6, y0=y0, z0=z0, c=c)
            expected = realize(table, sample_assignment(scen.design, rng))
            assert panel.start_periods == expected.start_periods
            assert np.array_equal(panel.y, expected.y)
            assert np.array_equal(panel.z, expected.z)
