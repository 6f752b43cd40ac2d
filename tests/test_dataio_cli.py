import csv
import inspect
import io
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from crtnd import (
    Panel,
    SteppedWedgeScheme,
    default_parallel_scenario,
    default_sw_scenario,
    enumerate_assignments,
    log_contrasts,
)
from crtnd.cli import main
from crtnd.dataio import (
    load_scenario,
    parse_dataset,
    scenario_from_dict,
    scenario_to_dict,
)
from crtnd.errors import IncompletePanel, ParseError, SchemaError

from conftest import emit_dataset, make_records, save_scenario


PARALLEL_CSV = """cluster_id,arm,y_count,z_count,x1,dose
c01,1,40,120,1.2,0.7
c02,1,55,140,0.9,0.72
c03,1,35,100,1.4,0.68
c04,0,60,150,1.1,0.3
c05,0,45,160,1.0,0.25
c06,0,50,130,1.3,0.4
"""

SW_CSV_HEADER = "cluster_id,period,start_period,y_count,z_count\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def make_sw_csv(tmp_path, periods=(1, 2)):
    lines = [SW_CSV_HEADER.strip()]
    rng = np.random.default_rng(0)
    for i, start in enumerate((1, 1, 2, 2, 3, 3)):
        for t in periods:
            lines.append(
                f"c{i:02d},{t},{start},{rng.integers(20, 60)},{rng.integers(40, 90)}"
            )
    return write(tmp_path, "panel.csv", "\n".join(lines) + "\n")


class TestParseParallel:
    def test_well_formed(self, tmp_path):
        kind, recs = parse_dataset(write(tmp_path, "d.csv", PARALLEL_CSV))
        assert kind == "parallel"
        assert recs.m == 6
        assert recs.cluster_ids[0] == "c01"
        assert tuple(recs.x[0]) == (1.2,)
        assert recs.dose[0] == 0.7

    def test_duplicate_cluster(self, tmp_path):
        bad = PARALLEL_CSV + "c01,0,10,10,1.0,0.5\n"
        with pytest.raises(ParseError) as exc:
            parse_dataset(write(tmp_path, "d.csv", bad))
        assert exc.value.line == 8
        assert "duplicate" in str(exc.value)

    def test_negative_count(self, tmp_path):
        bad = PARALLEL_CSV.replace("c05,0,45,160", "c05,0,-45,160")
        with pytest.raises(ParseError) as exc:
            parse_dataset(write(tmp_path, "d.csv", bad))
        assert exc.value.column == "y_count"

    def test_bad_arm(self, tmp_path):
        bad = PARALLEL_CSV.replace("c06,0,50", "c06,2,50")
        with pytest.raises(ParseError):
            parse_dataset(write(tmp_path, "d.csv", bad))

    def test_unknown_column(self, tmp_path):
        bad = PARALLEL_CSV.replace(",x1,", ",population,")
        with pytest.raises(SchemaError) as exc:
            parse_dataset(write(tmp_path, "d.csv", bad))
        assert "population" in str(exc.value)

    def test_missing_required_column(self, tmp_path):
        bad = PARALLEL_CSV.replace("arm,", "group,")
        with pytest.raises(SchemaError):
            parse_dataset(write(tmp_path, "d.csv", bad))

    def test_missing_covariate_cell(self, tmp_path):
        bad = PARALLEL_CSV.replace("c03,1,35,100,1.4", "c03,1,35,100,")
        with pytest.raises(ParseError) as exc:
            parse_dataset(write(tmp_path, "d.csv", bad))
        assert exc.value.column == "x1"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        recs = make_records(
            rng.normal(size=6),
            [1, 1, 1, 0, 0, 0],
            covariates=rng.uniform(0, 2, size=(6, 2)),
            doses=rng.uniform(0, 1, size=6),
        )
        path = tmp_path / "rt.csv"
        emit_dataset(recs, path)
        kind, parsed = parse_dataset(path)
        assert kind == "parallel"
        assert recs.cluster_ids == tuple(sorted(recs.cluster_ids))
        assert parsed == recs


class TestParseSw:
    def test_well_formed(self, tmp_path):
        kind, panel = parse_dataset(make_sw_csv(tmp_path))
        assert kind == "sw"
        assert panel.m == 6
        assert panel.n_periods == 2
        assert panel.start_periods == (1, 1, 2, 2, 3, 3)

    def test_missing_cell_names_it(self, tmp_path):
        text = make_sw_csv(tmp_path).read_text().strip().splitlines()
        trimmed = "\n".join(text[:-1]) + "\n"
        with pytest.raises(IncompletePanel) as exc:
            parse_dataset(write(tmp_path, "bad.csv", trimmed))
        assert "c05" in str(exc.value)

    @pytest.mark.parametrize("cells, message", [
        ("a,1,1\na,3,1\nb,1,1\nb,3,1", "missing periods [2]"),
        ("a,1,1\na,2,2\nb,1,2\nb,2,2",
         "cluster 'a' has inconsistent start_period (1 vs 2)"),
        ("a,1,1\na,2,1\nb,1,2", "missing cell (cluster 'b', period 2)"),
    ])
    def test_incomplete_panel_message(self, tmp_path, cells, message):
        rows = [f"{cell},10,20" for cell in cells.splitlines()]
        text = SW_CSV_HEADER + "\n".join(rows) + "\n"
        with pytest.raises(IncompletePanel) as exc:
            parse_dataset(write(tmp_path, "bad.csv", text))
        assert str(exc.value) == message

    def test_duplicate_cell_line_number(self, tmp_path):
        text = make_sw_csv(tmp_path).read_text()
        dup = text + "c00,1,1,30,50\n"
        with pytest.raises(ParseError) as exc:
            parse_dataset(write(tmp_path, "dup.csv", dup))
        assert "duplicate" in str(exc.value)

    def test_sw_round_trip(self, tmp_path):
        _, panel = parse_dataset(make_sw_csv(tmp_path))
        out = tmp_path / "rt.csv"
        emit_dataset(panel, out)
        _, again = parse_dataset(out)
        assert again == panel

    def test_sw_round_trip_keeps_counts(self, tmp_path):
        y = np.array([[1 / 3, 2.0**53 + 2], [5e-324, 1e16 + 2], [0.1, 7.0]])
        panel = Panel(("a", "b", "c"), (1, 2, 3), y, y[::-1] + 1.0)
        out = tmp_path / "rt.csv"
        emit_dataset(panel, out)
        _, again = parse_dataset(out)
        assert again == panel


class TestScenarioFiles:
    def test_parallel_round_trip(self, tmp_path):
        scen = default_parallel_scenario(lam=0.6, n_replicates=123, seed=9)
        path = tmp_path / "s.json"
        save_scenario(scen, path)
        again = load_scenario(path)
        assert again == scen

    def test_sw_round_trip(self, tmp_path):
        scen = default_sw_scenario(lam=0.2, n_replicates=77)
        assert scenario_from_dict(scenario_to_dict(scen)) == scen

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            scenario_from_dict({"scenario_id": "x"})


class TestCli:
    def test_analyze_runs_and_writes_report(self, tmp_path, capsys):
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        out = tmp_path / "report.json"
        code = main([
            "analyze", "--input", str(data), "--out", str(out),
            "--n-draws", "200", "--seed", "3",
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "log_contrast" in table
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        methods = [r["method"] for r in payload["results"]]
        assert methods == ["odds_ratio", "tpf", "log_contrast", "covariate_adjusted"]
        assert payload["config"]["seed"] == 3

    def test_reports_say_how_the_permutation_p_was_obtained(self, tmp_path):
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        out = tmp_path / "r.json"
        entries = []
        for mode in ("auto", "monte-carlo"):
            assert main(["analyze", "--input", str(data), "--out", str(out),
                         "--estimators", "log_contrast", "--mode", mode,
                         "--n-draws", "400", "--seed", "2"]) == 0
            diagnostics = json.loads(out.read_text())["results"][0]["diagnostics"]
            entries.append((diagnostics["permutation_p_null1"],
                            diagnostics["permutation"]))
        (p_exact, exact), (p_mc, mc) = entries
        assert exact == {"mode": "exact", "mode_reason": "auto: support 20 <= 100000",
                         "support_size": 20, "null_draws": 20, "mc_se": 0.0,
                         "null": "sharp", "arm_sizes": [3, 3]}
        assert mc["mode"] == "monte_carlo"
        assert mc["mode_reason"] == "monte_carlo requested"
        assert (mc["support_size"], mc["null_draws"]) == (20, 400)
        assert mc["mc_se"] == pytest.approx(math.sqrt(p_mc * (1 - p_mc) / 400))
        panel_csv = make_sw_csv(tmp_path)
        assert main(["analyze-sw", "--input", str(panel_csv), "--out", str(out)]) == 0
        entry = json.loads(out.read_text())["results"][0]["diagnostics"]["permutation"]
        assert entry["mode_reason"] == "auto: support 90 <= 100000"
        assert entry["null"] == "sharp" and "arm_sizes" not in entry

    def test_unequal_arms_are_flagged_in_the_permutation_entry(self, tmp_path):
        # 2 of 6 clusters treated: the p-value is exact for the sharp null
        # only, which the entry says
        lines = PARALLEL_CSV.splitlines()
        lines[3] = lines[3].replace("c03,1,", "c03,0,")
        data = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(data), "--out", str(out),
                     "--estimators", "log_contrast,odds_ratio", "--n-draws", "50"]) == 0
        for result in json.loads(out.read_text())["results"]:
            entry = result["diagnostics"]["permutation"]
            assert (entry["null"], entry["arm_sizes"]) == ("sharp", [2, 4])
            assert entry["note"] == ("unequal arms: exact for the sharp null, "
                                     "not an average effect")

    def test_analyze_symmetric_null_dataset(self, tmp_path, capsys):
        rows = ["cluster_id,arm,y_count,z_count"]
        for i in range(4):
            rows.append(f"t{i},1,30,90")
            rows.append(f"c{i},0,30,90")
        data = write(tmp_path, "sym.csv", "\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(data), "--out", str(out),
                     "--n-draws", "100"]) == 0
        payload = json.loads(out.read_text())
        for rep in payload["results"]:
            assert rep["estimate"] == pytest.approx(1.0, abs=1e-9)

    def test_analyze_validation_error_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.csv", "cluster_id,arm\nx,1\n")
        code = main(["analyze", "--input", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"] == "SchemaError"

    def test_analyze_sw(self, tmp_path, capsys):
        panel_csv = make_sw_csv(tmp_path)
        out = tmp_path / "sw.json"
        code = main([
            "analyze-sw", "--input", str(panel_csv), "--out", str(out),
            "--n-draws", "100",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["results"][0]["method"] == "sw_log_contrast"

    def test_analyze_sw_weights_from_file(self, tmp_path):
        panel_csv = make_sw_csv(tmp_path)
        wfile = tmp_path / "w.json"
        wfile.write_text("[1.0]")  # single analysis period in this panel
        code = main([
            "analyze-sw", "--input", str(panel_csv), "--weights", str(wfile),
            "--n-draws", "50",
        ])
        assert code == 0

    @pytest.mark.parametrize("payload, error", [
        ("[NaN, 1]", "ValueError"),  # weights must sum to 1, got nan
        ("[Infinity, -Infinity]", "ValueError"),
        ("null", "DataError"),
        ("[[1], [2]]", "DataError"),
        ("true", "DataError"),
        ("[true, false]", "DataError"),
    ])
    def test_analyze_sw_rejects_bad_weight_file(self, tmp_path, capsys, payload, error):
        panel_csv = make_sw_csv(tmp_path, periods=(1, 2, 3))  # two analysis periods
        wfile = tmp_path / "w.json"
        wfile.write_text(payload)
        code = main([
            "analyze-sw", "--input", str(panel_csv), "--weights", str(wfile),
            "--n-draws", "50", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == error
        assert not (tmp_path / "r.json").exists()

    def test_dose_response_reduction(self, tmp_path, capsys):
        # doses equal to arms: the dose coefficient equals log lam-hat
        rng = np.random.default_rng(2)
        rows = ["cluster_id,arm,y_count,z_count,dose"]
        for i in range(10):
            arm = 1 if i < 5 else 0
            y = rng.integers(25, 75)
            z = rng.integers(60, 140)
            rows.append(f"c{i:02d},{arm},{y},{z},{arm}")
        data = write(tmp_path, "dose.csv", "\n".join(rows) + "\n")
        out1 = tmp_path / "dr.json"
        assert main(["dose-response", "--input", str(data), "--out", str(out1),
                     "--adjustment", "none"]) == 0
        out2 = tmp_path / "an.json"
        assert main(["analyze", "--input", str(data), "--out", str(out2),
                     "--estimators", "log_contrast", "--n-draws", "100"]) == 0
        beta = json.loads(out1.read_text())["results"][0]["log_estimate"]
        loglam = json.loads(out2.read_text())["results"][0]["log_estimate"]
        assert beta == pytest.approx(loglam, abs=1e-9)

    def test_analyze_idempotent_output(self, tmp_path):
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["analyze", "--input", str(data), "--n-draws", "300",
                "--seed", "9", "--out"]
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["config"].pop("out"), b["config"].pop("out")
        assert a == b

    def test_simulate_deterministic_output(self, tmp_path):
        out1 = tmp_path / "m1.csv"
        out2 = tmp_path / "m2.csv"
        args = ["simulate", "--scenario", "default", "--n-replicates", "40",
                "--perm-draws", "99", "--out"]
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("scenario_id,estimator,lam")
        assert (tmp_path / "m1.json").exists()

    def test_simulate_raw_estimates_audit(self, tmp_path):
        out = tmp_path / "m.csv"
        raw = tmp_path / "raw.csv"
        code = main([
            "simulate", "--scenario", "default", "--n-replicates", "30",
            "--estimators", "log_contrast", "--no-permutation-por",
            "--out", str(out), "--raw-estimates", str(raw),
        ])
        assert code == 0
        lines = raw.read_text().splitlines()
        assert lines[0] == "scenario_id,estimator,replicate,log_estimate"
        assert len(lines) == 31

    def test_simulate_sw_smoke(self, tmp_path):
        out = tmp_path / "sw.csv"
        code = main([
            "simulate-sw", "--scenario", "default-sw", "--n-replicates", "25",
            "--no-permutation-por", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + 2 estimators

    def test_simulate_rejects_mismatched_scenario(self, tmp_path):
        scen_path = tmp_path / "sw.json"
        save_scenario(default_sw_scenario(n_replicates=5), scen_path)
        code = main(["simulate", "--scenario", str(scen_path)])
        assert code == 2

    def test_sweep_smoke(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--scenario", "default", "--n-configs", "2",
            "--n-replicates", "25", "--estimators", "log_contrast", "--out",
            str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("estimators, n_configs, shown", [
        ("log_contrast", 5, 3), ("log_contrast,tpf", 2, 4), ("log_contrast,tpf", 4, 6),
    ])
    def test_sweep_prints_the_first_three_configurations(self, capsys, estimators,
                                                         n_configs, shown):
        assert main(["sweep", "--estimators", estimators, "--n-configs", str(n_configs),
                     "--n-replicates", "20"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = tuple(estimators.split(","))
        assert sum(line.startswith(names) for line in lines) == shown
        total = len(names) * n_configs
        assert (lines[-1] == f"... ({total} rows total)") == (total > shown)

    def test_analyze_covariate_adjusted_needs_covariates(self, tmp_path, capsys):
        text = "\n".join(
            ",".join(line.split(",")[:4]) for line in PARALLEL_CSV.splitlines()
        ) + "\n"
        data = write(tmp_path, "nocov.csv", text)
        code = main(["analyze", "--input", str(data), "--estimators",
                     "log_contrast,covariate_adjusted", "--n-draws", "50"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"

    def test_singular_relabeled_arm_counts_in_tail(self, tmp_path):
        # x1 is 0, 0, 0, 1, 1, 1 in each arm: the observed arms are full
        # rank, but the 2 of C(12, 6) = 924 relabelings that treat every 1
        # or every 0 leave each arm's covariate constant; their NaN draws
        # are in the tail
        from crtnd.estimators import _adjusted_diff_rows
        from crtnd.inference import _two_sided_count

        rows = ["cluster_id,arm,y_count,z_count,x1"]
        for i in range(12):
            rows.append(f"c{i:02d},{int(i < 6)},{30 + 7 * i % 40},{90 + 11 * i % 70},"
                        f"{int(i % 6 >= 3)}")
        data = write(tmp_path, "binary.csv", "\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(data), "--estimators", "covariate_adjusted",
                     "--ci-method", "invert-permutation", "--out", str(out)]) == 0
        (report,) = json.loads(out.read_text())["results"]
        assert report["diagnostics"]["permutation"]["support_size"] == 924
        assert report["ci_low"] < report["estimate"] < report["ci_high"]

        trial = parse_dataset(data)[1]
        support = np.array(list(enumerate_assignments(trial.scheme)), dtype=float)
        lvals, shift = log_contrasts(trial), trial.arm.astype(float)
        (d, _), ((d_obs,), _) = (_adjusted_diff_rows(trial.x, arms, 6, lvals, shift)
                                 for arms in (support, shift[None]))
        count = _two_sided_count(d, d_obs)
        assert count == _two_sided_count(d[np.isfinite(d)], d_obs) + 2
        assert report["diagnostics"]["permutation_p_null1"] == count / 924

    def test_analyze_default_estimators_skip_covariate_adjusted(self, tmp_path):
        text = "\n".join(
            ",".join(line.split(",")[:4]) for line in PARALLEL_CSV.splitlines()
        ) + "\n"
        data = write(tmp_path, "nocov.csv", text)
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(data), "--n-draws", "50",
                     "--out", str(out)]) == 0
        methods = [r["method"] for r in json.loads(out.read_text())["results"]]
        assert methods == ["odds_ratio", "tpf", "log_contrast"]

    def test_simulate_seed_zero_is_used(self, tmp_path):
        tables = {}
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}.csv"
            assert main(["simulate", "--n-replicates", "20", "--perm-draws", "19",
                         "--estimators", "log_contrast", "--seed", seed,
                         "--out", str(out)]) == 0
            tables[seed] = out.read_text()
            sidecar = json.loads(out.with_suffix(".json").read_text())
            assert sidecar["scenario"]["seed"] == int(seed)
        assert tables["0"] != tables["1"]

    def test_simulate_alpha_005_overrides_scenario(self, tmp_path):
        scen_path = tmp_path / "a10.json"
        scenario = default_parallel_scenario(n_replicates=20)
        save_scenario(replace(scenario, alpha=0.1), scen_path)
        out = tmp_path / "m.csv"
        assert main(["simulate", "--scenario", str(scen_path), "--alpha", "0.05",
                     "--estimators", "log_contrast", "--no-permutation-por",
                     "--out", str(out)]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["scenario"]["alpha"] == 0.05
        assert sidecar["config"]["alpha"] == 0.05

    def test_alpha_validated(self, tmp_path):
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        assert main(["analyze", "--input", str(data), "--alpha", "0.9"]) == 2

    def test_computational_error_exit_3(self, tmp_path, capsys):
        rows = ["cluster_id,arm,y_count,z_count,dose"]
        for i in range(6):
            arm = 1 if i < 3 else 0
            rows.append(f"c{i},{arm},30,90,0.5")  # constant dose: no bite
        data = write(tmp_path, "flat.csv", "\n".join(rows) + "\n")
        code = main(["dose-response", "--input", str(data)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConstantDose"

    @pytest.mark.parametrize(
        "flag", [["--mode", "exact"], ["--n-draws", "50"], ["--continuity-correction"]]
    )
    @pytest.mark.parametrize("command", ["simulate", "simulate-sw", "sweep"])
    def test_simulations_reject_analysis_options(self, command, flag, capsys):
        # simulations fix their own permutation settings; an option they
        # would ignore is a usage error
        with pytest.raises(SystemExit) as exc:
            main([command, "--n-replicates", "2"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_analyze_accepts_analysis_options(self, tmp_path):
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        assert main(["analyze", "--input", str(data), "--mode", "monte-carlo",
                     "--n-draws", "50", "--continuity-correction"]) == 0

    def test_simulate_sidecar_counts_dropped_replicates(self, tmp_path):
        for command, estimators in (("simulate", "tpf,log_contrast"),
                                    ("simulate-sw", "sw_equal")):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--n-replicates", "10", "--no-permutation-por",
                         "--estimators", estimators, "--out", str(out)]) == 0
            sidecar = json.loads(out.with_suffix(".json").read_text())
            dropped = sidecar["dropped_replicates"]
            assert sorted(dropped) == sorted(estimators.split(","))
            for row in sidecar["results"]:
                lost = row["n_replicates"] - row["n_effective"]
                assert sum(dropped[row["estimator"]].values()) == lost

    def test_dose_response_weak_instrument_exit_3(self, tmp_path, capsys):
        # both arms take the same doses: the Normal (Fieller) confidence
        # set of the dose coefficient is unbounded
        rng = np.random.default_rng(4)
        rows = ["cluster_id,arm,y_count,z_count,dose"]
        for i in range(12):
            arm = 1 if i < 6 else 0
            y, z = rng.integers(25, 75), rng.integers(60, 140)
            rows.append(f"c{i:02d},{arm},{y},{z},{(i % 6) / 5:.1f}")
        data = write(tmp_path, "weak.csv", "\n".join(rows) + "\n")
        code = main(["dose-response", "--input", str(data), "--adjustment", "none"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoNonRejectedPoint"

    @pytest.mark.parametrize("command, flag", [
        ("analyze-sw", ["--sigma-convention", "printed"]),
        ("analyze", ["--ci-method", "invert-normal"]),
        ("analyze-sw", ["--ci-method", "invert-normal"]),
    ])
    def test_removed_options_are_usage_errors(self, tmp_path, command, flag):
        # one Sigma scaling, and no CI method that only repeats the Normal CI
        data = (write(tmp_path, "d.csv", PARALLEL_CSV) if command == "analyze"
                else make_sw_csv(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(data), "--n-draws", "50"] + flag)
        assert exc.value.code == 2

    def test_simulate_sw_thin_wedge_exit_3(self, tmp_path, capsys):
        # one cluster under intervention at the first analysis period
        scenario = replace(
            default_sw_scenario(), design=SteppedWedgeScheme(m=6, q=(0, 1, 2, 3)),
            baseline_y=tuple(tuple([30] * 4) for _ in range(6)),
            baseline_z=tuple([90] * 6),
        )
        path = tmp_path / "thin.json"
        save_scenario(scenario, path)
        code = main(["simulate-sw", "--scenario", str(path), "--n-replicates", "3"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ArmTooSmall"

    def test_analyze_sw_ci_not_bracketed_exit_3(self, tmp_path, capsys):
        # 90 start vectors: every attainable p exceeds 0.01, so no lambda
        # is rejected and the scan edge is no CI endpoint
        panel_csv = make_sw_csv(tmp_path)
        code = main(["analyze-sw", "--input", str(panel_csv), "--alpha", "0.01",
                     "--mode", "exact", "--ci-method", "invert-permutation"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoNonRejectedPoint"

    @pytest.mark.parametrize(
        "old, new, line, column",
        [
            ("c02,1,55,", "c02,1,inf,", 3, "y_count"),
            ("c04,0,60,150", "c04,0,60,1e400", 5, "z_count"),
            ("c05,0,45,160,1.0", "c05,0,45,160,-inf", 6, "x1"),
            ("c06,0,50,130,1.3,0.4", "c06,0,50,130,1.3,Infinity", 7, "dose"),
        ],
    )
    def test_non_finite_cell_is_a_parse_error(self, tmp_path, capsys, old, new,
                                              line, column):
        assert old in PARALLEL_CSV
        data = write(tmp_path, "d.csv", PARALLEL_CSV.replace(old, new))
        assert main(["analyze", "--input", str(data), "--n-draws", "50"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(
            f"line {line}, column {column!r}: not a finite"
        )

    def test_analyze_sw_without_an_analysis_period_exit_2(self, tmp_path, capsys):
        # every cluster starts at period 2: no period has both arms
        rows = [f"c{i},{t},2,{20 + t},{40 + i}" for i in range(4) for t in (1, 2, 3)]
        data = write(tmp_path, "sw.csv", SW_CSV_HEADER + "\n".join(rows) + "\n")
        assert main(["analyze-sw", "--input", str(data)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError",
            "message": "no analysis period has both a treated and an untreated cluster",
        }

    def test_non_finite_wedge_count_is_a_parse_error(self, tmp_path, capsys):
        text = make_sw_csv(tmp_path).read_text().splitlines()
        cells = text[3].split(",")
        text[3] = ",".join(cells[:3] + ["1e999", cells[4]])
        data = write(tmp_path, "sw.csv", "\n".join(text) + "\n")
        assert main(["analyze-sw", "--input", str(data), "--n-draws", "50"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith("line 4, column 'y_count': not a finite")

    @pytest.mark.parametrize("weights, path, grid", [
        ("equal", "sweep", 5038), ("optimal", "scan", 81),
    ])
    def test_analyze_sw_reports_the_inversion_scan(self, tmp_path, weights, path, grid):
        from test_stepped_wedge import BENCHMARK_WEDGE_CSV

        out = tmp_path / "sw.json"
        data = write(tmp_path, "wedge.csv", BENCHMARK_WEDGE_CSV)
        assert main(["analyze-sw", "--input", str(data), "--mode", "exact", "--weights",
                     weights, "--ci-method", "invert-permutation", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["results"][0]
        scan = result["diagnostics"]["ci_inversion"]
        assert result["ci_method"] == "test_inversion"
        assert scan["method"] == "sw_log_contrast" and scan["test"] == "permutation"
        assert scan["alpha"] == 0.05 and scan["path"] == path and scan["grid_points"] == grid
        assert 0.05 < scan["p_max"] <= 1.0

    def test_sweep_sidecar_counts_dropped_replicates(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n-configs", "2", "--n-replicates", "10",
                     "--estimators", "tpf,log_contrast", "--out", str(out)]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        dropped = sidecar["dropped_replicates"]
        assert sorted(dropped) == ["default-parallel-lam1/config000",
                                   "default-parallel-lam1/config001"]
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        for row in rows:
            lost = int(row["n_replicates"]) - int(row["n_effective"])
            assert sum(dropped[row["scenario_id"]][row["estimator"]].values()) == lost

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crtnd.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "crtnd" in proc.stdout


class TestDrawCounts:
    """Draw counts below one are usage errors, named before any work."""

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["analyze", "analyze-sw", "dose-response"])
    def test_analysis_n_draws(self, tmp_path, capsys, command, value):
        data = (make_sw_csv(tmp_path) if command == "analyze-sw"
                else write(tmp_path, "d.csv", PARALLEL_CSV))
        code = main([command, "--input", str(data), "--mode", "monte-carlo",
                     "--n-draws", value])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DataError",
                       "message": f"--n-draws must be at least 1, got {value}"}

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command", ["simulate", "simulate-sw"])
    def test_simulation_perm_draws(self, tmp_path, capsys, command, value):
        code = main([command, "--n-replicates", "2", "--perm-draws", value,
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DataError",
                       "message": f"--perm-draws must be at least 1, got {value}"}
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_sweep_n_configs(self, tmp_path, capsys, value):
        code = main(["sweep", "--n-configs", value, "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DataError",
                       "message": f"--n-configs must be at least 1, got {value}"}
        assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command, value", [
    ("simulate", "nan"), ("simulate", "inf"), ("simulate", "0"),
    ("simulate-sw", "inf"), ("simulate-sw", "nan"), ("simulate-sw", "-1"),
])
def test_lam_must_be_finite_positive(tmp_path, capsys, command, value):
    code = main([command, "--n-replicates", "2", "--lam", value,
                 "--out", str(tmp_path / "m.csv")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("lam must be a finite positive real, got ")
    assert not (tmp_path / "m.csv").exists()


class TestSimulationTimings:
    @pytest.mark.parametrize("command, estimators, shared", [
        ("simulate", "odds_ratio,tpf,log_contrast,covariate_adjusted", "log_contrasts"),
        ("simulate-sw", "sw_equal,sw_optimal", "plugin_covariance"),
    ])
    def test_sidecar_has_stage_timings(self, tmp_path, command, estimators, shared):
        out = tmp_path / "m.csv"
        assert main([command, "--n-replicates", "20", "--perm-draws", "19",
                     "--estimators", estimators, "--out", str(out)]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        timings = sidecar["timings_s"]
        expected = ["generation", shared, *estimators.split(","), "permutation"]
        assert sorted(timings) == sorted(expected)
        assert all(v >= 0.0 for v in timings.values())
        # how the permutation column was drawn: one set per 64 replicates
        plan = sidecar["permutation_column"]
        assert plan["draws"] == 19 and plan["replicates_per_set"] == 64
        group = "(seed, 3, rep // 64)"
        assert plan["stream"] == (group if command == "simulate" else
                                  f"(s, 0x5E), s = derive_rng{group}.integers(2**31)")
        # and the replicates: each chunk of 16 from one stream, evaluated
        # four chunks to a block
        assert sidecar["generation"] == {"replicates_per_stream": 16,
                                         "replicates_per_block": 64,
                                         "stream": "(seed, 4, rep // 16)"}

    def test_sw_sidecar_counts_weight_fallbacks(self, tmp_path, monkeypatch):
        # the default wedge's truth-imputed covariances have condition
        # numbers of about 6 to 18: at a limit of 11 some replicates'
        # optimal weights fall back to equal weights, and are counted
        import crtnd.stepped_wedge as stepped_wedge

        counts = []
        for limit in (stepped_wedge._COND_LIMIT, 11.0):
            monkeypatch.setattr(stepped_wedge, "_COND_LIMIT", limit)
            out = tmp_path / f"m{limit}.csv"
            assert main(["simulate-sw", "--n-replicates", "20", "--no-permutation-por",
                         "--out", str(out)]) == 0
            counts.append(json.loads(out.with_suffix(".json").read_text())["weight_fallbacks"])
        default, strict = counts
        assert default == {"sw_equal": 0, "sw_optimal": 0}
        assert strict["sw_equal"] == 0 and 0 < strict["sw_optimal"] < 20

    def test_no_permutation_column_no_permutation_stage(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["simulate", "--n-replicates", "20", "--no-permutation-por",
                     "--estimators", "log_contrast", "--out", str(out)]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sorted(sidecar["timings_s"]) == ["generation", "log_contrast", "log_contrasts"]
        assert sidecar["permutation_column"] is None

    def test_no_permuted_estimator_no_permutation_column(self, tmp_path):
        # the column is on, but covariate_adjusted has no permutation test:
        # nothing is relabeled, and the sidecar describes no relabelings
        out = tmp_path / "ca.csv"
        assert main(["simulate", "--n-replicates", "20", "--estimators",
                     "covariate_adjusted", "--out", str(out)]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sorted(sidecar["timings_s"]) == ["covariate_adjusted", "generation",
                                                "log_contrasts"]
        assert sidecar["permutation_column"] is None
        assert sidecar["results"][0]["por_perm"] is None


class TestInversionReports:
    def test_analyze_writes_every_inversion(self, tmp_path):
        # 20 arm splits: at alpha 0.25 every permutation CI is bounded
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(data), "--ci-method",
                     "invert-permutation", "--mode", "exact", "--alpha", "0.25",
                     "--out", str(out)]) == 0
        results = {r["method"]: r for r in json.loads(out.read_text())["results"]}
        assert "ci_inversion" not in results["odds_ratio"]["diagnostics"]
        for name, path, keys in (("tpf", "scan", {"non_unimodal"}),
                                 ("log_contrast", "sweep", {"non_interval"}),
                                 ("covariate_adjusted", "sweep", {"non_interval"})):
            res = results[name]
            inv = res["diagnostics"]["ci_inversion"]
            assert res["ci_method"] == "test_inversion"
            assert {"method": name, "test": "permutation", "alpha": 0.25,
                    "path": path}.items() <= inv.items()
            assert set(inv) - {"method", "test", "alpha", "path", "grid_points", "p_max"} <= keys
            assert 0.25 < inv["p_max"] <= 1.0
        assert results["tpf"]["diagnostics"]["ci_inversion"]["grid_points"] == 401
        for name in ("log_contrast", "covariate_adjusted"):
            inv = results[name]["diagnostics"]["ci_inversion"]
            assert inv["p_max"] == 1.0 and inv["non_interval"] is False


class TestDoseResponseOptions:
    """The Normal dose-response test draws nothing, so it takes no draw
    options; the permutation test takes them with their defaults."""

    @pytest.mark.parametrize("flag", [["--mode", "exact"], ["--n-draws", "50"],
                                      ["--seed", "3"]])
    def test_normal_rejects_draw_options(self, tmp_path, capsys, flag):
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        out = tmp_path / "dose.json"
        assert main(["dose-response", "--input", str(data), "--out", str(out)] + flag) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DataError",
                       "message": f"{flag[0]} applies to --test permutation only"}
        assert not out.exists()

    @pytest.mark.parametrize("extra, echo", [
        ([], (None, None, None)),
        (["--test", "permutation"], ("auto", 2000, 0)),
        (["--test", "permutation", "--mode", "exact", "--n-draws", "50", "--seed", "3"],
         ("exact", 50, 3)),
    ])
    def test_config_echoes_what_runs(self, tmp_path, extra, echo):
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        out = tmp_path / "dose.json"
        assert main(["dose-response", "--input", str(data), "--alpha", "0.25",
                     "--out", str(out)] + extra) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["mode"], config["n_draws"], config["seed"]) == echo


class TestEstimatorLists:
    """Every command parses ``--estimators`` one way: a list that names
    no estimator, one twice or one the command does not know is a usage
    error before any work."""

    @staticmethod
    def argv(command, tmp_path):
        if command == "analyze":
            return [command, "--input", str(write(tmp_path, "d.csv", PARALLEL_CSV))]
        return [command, "--n-replicates", "2"] + (
            ["--n-configs", "1"] if command == "sweep" else [])

    @pytest.mark.parametrize("value, message", [
        (",", "--estimators must name distinct estimators, got ','"),
        ("", "--estimators must name distinct estimators, got ''"),
        (" , ,", "--estimators must name distinct estimators, got ' , ,'"),
        ("tpf,tpf", "--estimators must name distinct estimators, got 'tpf,tpf'"),
        ("odds_ratio, tpf,odds_ratio",
         "--estimators must name distinct estimators, got 'odds_ratio, tpf,odds_ratio'"),
        ("tpf,sw_equal", "unknown estimators: ['sw_equal']"),
    ])
    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
    def test_parallel_commands(self, tmp_path, capsys, command, value, message):
        out = tmp_path / "m.csv"
        argv = self.argv(command, tmp_path) + ["--estimators", value, "--out", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "DataError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("value, message", [
        (",", "--estimators must name distinct estimators, got ','"),
        ("sw_equal,sw_equal", "--estimators must name distinct estimators, got "
         "'sw_equal,sw_equal'"),
        ("tpf", "unknown estimators: ['tpf']"),
    ])
    def test_stepped_wedge(self, tmp_path, capsys, value, message):
        out = tmp_path / "m.csv"
        argv = self.argv("simulate-sw", tmp_path) + ["--estimators", value, "--out", str(out)]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "DataError", "message": message}
        assert not out.exists()


class TestPermDrawsOption:
    """``--perm-draws`` sets the permutation column's relabelings and the
    odds ratio's SE draws; a run that reads neither rejects it, and
    every run echoes the count, 999 unless given."""

    @pytest.mark.parametrize("argv", [
        ["simulate-sw", "--no-permutation-por"],
        ["simulate", "--no-permutation-por", "--estimators", "tpf,log_contrast"],
        ["simulate", "--estimators", "covariate_adjusted"],
    ])
    def test_unread_count_is_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "m.csv"
        assert main(argv + ["--n-replicates", "2", "--perm-draws", "5",
                            "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DataError",
                       "message": "--perm-draws is given, but this run draws no relabelings"}
        assert not out.exists()

    @pytest.mark.parametrize("argv, echo", [
        (["simulate-sw", "--no-permutation-por"], 999),
        (["simulate", "--no-permutation-por", "--estimators", "tpf"], 999),
        (["simulate", "--no-permutation-por", "--perm-draws", "5"], 5),
        (["simulate", "--estimators", "tpf", "--perm-draws", "5"], 5),
        (["simulate-sw", "--perm-draws", "5"], 5),
        (["simulate-sw"], 999),
    ])
    def test_config_echoes_the_count(self, tmp_path, argv, echo):
        out = tmp_path / "m.csv"
        assert main(argv + ["--n-replicates", "2", "--out", str(out)]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["config"]["perm_draws"] == echo
        plan = sidecar["permutation_column"]
        assert plan is None if "--no-permutation-por" in argv else plan["draws"] == echo


def corrected_by_hand(text):
    """``text``, a dataset CSV, with 0.5 added to every count."""
    rows = list(csv.reader(io.StringIO(text)))
    counts = [rows[0].index("y_count"), rows[0].index("z_count")]
    for row in rows[1:]:
        for c in counts:
            row[c] = repr(float(row[c]) + 0.5)
    return "\n".join(",".join(row) for row in rows) + "\n"


class TestContinuityCorrection:
    """``--continuity-correction`` adds 0.5 to every count as the data are
    loaded; the library itself takes no correction option."""

    CASES = [
        ("analyze", ["--ci-method", "invert-permutation", "--mode", "exact"]),
        ("analyze-sw", ["--ci-method", "invert-permutation", "--mode", "exact"]),
        ("analyze-sw", ["--weights", "optimal"]),
        ("dose-response", []),
        ("dose-response", ["--test", "permutation", "--mode", "exact"]),
    ]

    @staticmethod
    def zero_count_csv(tmp_path, command):
        """A dataset for ``command`` with one zero count."""
        if command != "analyze-sw":
            return PARALLEL_CSV.replace("c05,0,45,160", "c05,0,0,160")
        lines = make_sw_csv(tmp_path).read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = "0"  # a test-negative count
        lines[3] = ",".join(cells)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("command, options", CASES)
    def test_flag_equals_counts_corrected_by_hand(self, tmp_path, command, options):
        text = self.zero_count_csv(tmp_path, command)
        runs = {"flag": (text, ["--continuity-correction"]),
                "by_hand": (corrected_by_hand(text), [])}
        results = {}
        for name, (data, flag) in runs.items():
            out = tmp_path / f"{name}.json"
            argv = [command, "--input", str(write(tmp_path, f"{name}.csv", data)),
                    "--alpha", "0.25", "--out", str(out)]
            assert main(argv + options + flag) == 0
            results[name] = json.loads(out.read_text())["results"]
        if command == "analyze":  # the count estimators see the corrected counts too
            methods = [r["method"] for r in results["flag"]]
            assert methods == ["odds_ratio", "tpf", "log_contrast", "covariate_adjusted"]
        assert results["flag"] == results["by_hand"]

    @pytest.mark.parametrize("command", ["analyze", "analyze-sw", "dose-response"])
    def test_zero_count_without_the_flag_exits_3(self, tmp_path, capsys, command):
        data = write(tmp_path, "zero.csv", self.zero_count_csv(tmp_path, command))
        assert main([command, "--input", str(data)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ZeroCount"
        assert "--continuity-correction" in err["message"]

    def test_no_library_callable_takes_a_correction(self):
        import crtnd

        callables = []
        for name in crtnd.__all__:
            obj = getattr(crtnd, name)
            if inspect.isclass(obj):
                callables += [getattr(obj, k) for k in vars(obj) if not k.startswith("_")]
            callables.append(obj)
        taking = [
            f.__qualname__ for f in callables
            if callable(f) and "correction" in inspect.signature(f).parameters
        ]
        assert len(callables) > len(crtnd.__all__) and taking == []
