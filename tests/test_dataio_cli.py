import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from crtnd import SteppedWedgeScheme, default_parallel_scenario, default_sw_scenario
from crtnd.cli import main
from crtnd.dataio import (
    emit_dataset,
    load_scenario,
    parse_dataset,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from crtnd.errors import IncompletePanel, ParseError, SchemaError

from conftest import make_records


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


def make_sw_csv(tmp_path):
    lines = [SW_CSV_HEADER.strip()]
    rng = np.random.default_rng(0)
    for i, start in enumerate((1, 1, 2, 2, 3, 3)):
        for t in (1, 2):
            lines.append(
                f"c{i:02d},{t},{start},{rng.integers(20, 60)},{rng.integers(40, 90)}"
            )
    return write(tmp_path, "panel.csv", "\n".join(lines) + "\n")


class TestParseParallel:
    def test_well_formed(self, tmp_path):
        kind, recs = parse_dataset(write(tmp_path, "d.csv", PARALLEL_CSV))
        assert kind == "parallel"
        assert len(recs) == 6
        assert recs[0].cluster_id == "c01"
        assert recs[0].covariates == (1.2,)
        assert recs[0].dose == 0.7

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
        assert parsed == sorted(recs, key=lambda r: r.cluster_id)


class TestParseSw:
    def test_well_formed(self, tmp_path):
        kind, panel = parse_dataset(make_sw_csv(tmp_path))
        assert kind == "sw"
        assert panel.m == 6
        assert panel.n_periods == 2

    def test_missing_cell_names_it(self, tmp_path):
        text = make_sw_csv(tmp_path).read_text().strip().splitlines()
        trimmed = "\n".join(text[:-1]) + "\n"
        with pytest.raises(IncompletePanel) as exc:
            parse_dataset(write(tmp_path, "bad.csv", trimmed))
        assert "c05" in str(exc.value)

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
        assert again.cluster_ids == panel.cluster_ids
        assert again.start_periods == panel.start_periods
        assert np.array_equal(again.y, panel.y)
        assert np.array_equal(again.z, panel.z)


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
                         "support_size": 20, "null_draws": 20, "mc_se": 0.0}
        assert mc["mode"] == "monte_carlo"
        assert mc["mode_reason"] == "monte_carlo requested"
        assert (mc["support_size"], mc["null_draws"]) == (20, 400)
        assert mc["mc_se"] == pytest.approx(math.sqrt(p_mc * (1 - p_mc) / 400))
        panel_csv = make_sw_csv(tmp_path)
        assert main(["analyze-sw", "--input", str(panel_csv), "--out", str(out)]) == 0
        entry = json.loads(out.read_text())["results"][0]["diagnostics"]["permutation"]
        assert entry["mode_reason"] == "auto: support 90 <= 100000"

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

    def test_analyze_sw_printed_convention_flag(self, tmp_path):
        panel_csv = make_sw_csv(tmp_path)
        code = main([
            "analyze-sw", "--input", str(panel_csv),
            "--sigma-convention", "printed", "--n-draws", "50",
        ])
        assert code == 0

    def test_analyze_sw_weights_from_file(self, tmp_path):
        panel_csv = make_sw_csv(tmp_path)
        wfile = tmp_path / "w.json"
        wfile.write_text("[1.0]")  # single analysis period in this panel
        code = main([
            "analyze-sw", "--input", str(panel_csv), "--weights", str(wfile),
            "--n-draws", "50",
        ])
        assert code == 0

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

    def test_analyze_covariate_adjusted_needs_covariates(self, tmp_path, capsys):
        text = "\n".join(
            ",".join(line.split(",")[:4]) for line in PARALLEL_CSV.splitlines()
        ) + "\n"
        data = write(tmp_path, "nocov.csv", text)
        code = main(["analyze", "--input", str(data), "--estimators",
                     "log_contrast,covariate_adjusted", "--n-draws", "50"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"

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

    def test_analyze_invert_normal_is_the_normal_ci(self, tmp_path):
        data = write(tmp_path, "d.csv", PARALLEL_CSV)
        reports = {}
        for method in ("normal", "invert-normal"):
            out = tmp_path / f"{method}.json"
            assert main(["analyze", "--input", str(data), "--ci-method", method,
                         "--n-draws", "50", "--out", str(out)]) == 0
            reports[method] = {
                r["method"]: r for r in json.loads(out.read_text())["results"]
            }
        for name in ("log_contrast", "covariate_adjusted"):
            normal, inverted = reports["normal"][name], reports["invert-normal"][name]
            assert (inverted["ci_low"], inverted["ci_high"]) == (
                normal["ci_low"], normal["ci_high"]
            )
            assert inverted["ci_method"] == "normal"
            assert inverted["diagnostics"]["ci_note"] == (
                "invert-normal coincides with the Normal CI"
            )

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

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crtnd.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "crtnd" in proc.stdout
