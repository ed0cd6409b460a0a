"""Command-line interface: subcommands, exit codes, file outputs."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import three_phase_tent

import bubbledate
from bubbledate import DgpConfig, Discretization, IidGaussian, recovery_limit_draws, simulate
from bubbledate.cli import main


def write_value_csv(path, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        for v in values:
            writer.writerow([repr(float(v))])


def write_labeled_csv(path, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for i, v in enumerate(values):
            writer.writerow([f"d{i}", repr(float(v))])


def sim_config(tmp_path, **dgp_overrides):
    dgp = {
        "tau_e": 0.4, "tau_c": 0.6, "tau_r": 0.7,
        "phi_a": 1.09, "phi_b": 0.94, "T": 400,
        "drift_pre": 0.00125, "drift_post": 0.00125,
    }
    dgp.update(dgp_overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "dgp": dgp,
        "errors": {"kind": "iid_gaussian", "sigma": 1.0},
    }))
    return str(path)


class TestEstimateCommand:
    def test_recovers_tent_dates(self, tmp_path, capsys):
        path = tmp_path / "tent.csv"
        write_value_csv(path, three_phase_tent())
        assert main(["estimate", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        breaks = payload["breaks"]
        assert breaks["emergence"]["index"] == 16
        assert breaks["collapse"]["index"] == 24
        assert breaks["recovery"]["index"] == 32
        assert breaks["collapse"]["range"] == [2, 38]
        assert payload["trimming"] == 0.05
        assert payload["input"]["T"] == 40

    def test_labels_attached_to_breaks(self, tmp_path, capsys):
        path = tmp_path / "tent.csv"
        write_labeled_csv(path, three_phase_tent())
        assert main(["estimate", str(path), "--date-column", "date"]) == 0
        breaks = json.loads(capsys.readouterr().out)["breaks"]
        assert breaks["collapse"]["label"] == "d23"
        assert breaks["emergence"]["label"] == "d15"

    def test_log_transform_option(self, tmp_path, capsys):
        path = tmp_path / "exp.csv"
        write_value_csv(path, np.exp(three_phase_tent()))
        assert main(["estimate", str(path), "--log"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["input"]["log"] is True
        assert payload["breaks"]["collapse"]["index"] == 24

    def test_trim_option_changes_ranges(self, tmp_path, capsys):
        path = tmp_path / "tent.csv"
        write_value_csv(path, three_phase_tent())
        assert main(["estimate", str(path), "--trim", "0.10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trimming"] == 0.10
        assert payload["breaks"]["collapse"]["range"] == [4, 36]

    def test_bic_section(self, tmp_path, capsys):
        path = tmp_path / "tent.csv"
        write_value_csv(path, three_phase_tent())
        assert main(["estimate", str(path), "--bic"]) == 0
        bic = json.loads(capsys.readouterr().out)["bic"]
        assert bic["chosen"] == "four_regime"
        assert bic["dates"]["four_regime"] == [16, 24, 32]
        assert bic["values"]["four_regime"] is None  # a zero-SSR fit
        assert bic["n_obs"] == 39

    def test_bic_values_finite_on_long_explosive_series(self, tmp_path, capsys):
        # the peak is near 1e13; only an exact fit may print a null value
        config = DgpConfig(0.4, 0.6, 0.7, phi_a=1.09, phi_b=0.96, T=1600,
                           drift_pre=1.0 / 800.0, drift_post=1.0 / 800.0)
        path = tmp_path / "explosive.csv"
        write_value_csv(path, simulate(config, IidGaussian(1.0), 0).values)
        assert main(["estimate", str(path), "--bic"]) == 0
        values = json.loads(capsys.readouterr().out)["bic"]["values"]
        assert None not in values.values()

    def test_bic_estimates_once(self, tmp_path, capsys, monkeypatch):
        import bubbledate.estimator as estimator

        calls = []
        scans = estimator._tile_scans

        def counting_scans(values, y0, trimming):
            calls.append(values.shape[1])
            return scans(values, y0, trimming)

        monkeypatch.setattr(estimator, "_tile_scans", counting_scans)
        path = tmp_path / "tent.csv"
        write_value_csv(path, three_phase_tent())
        assert main(["estimate", str(path), "--bic"]) == 0
        assert calls == [40]
        payload = json.loads(capsys.readouterr().out)
        breaks = payload["breaks"]
        dates = [breaks[name]["index"] for name in ("emergence", "collapse", "recovery")]
        assert dates == payload["bic"]["dates"]["four_regime"]

    def test_out_and_curves_out(self, tmp_path):
        path = tmp_path / "tent.csv"
        write_value_csv(path, three_phase_tent())
        report = tmp_path / "report.json"
        curves = tmp_path / "curves"
        assert main([
            "estimate", str(path), "--out", str(report), "--curves-out", str(curves),
        ]) == 0
        payload = json.loads(report.read_text())
        assert payload["breaks"]["collapse"]["index"] == 24
        rows = list(csv.reader(open(curves / "ssr_collapse.csv")))
        assert rows[0] == ["k", "ssr"]
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(2, 39)]
        assert (curves / "ssr_emergence.csv").exists()
        assert (curves / "ssr_recovery.csv").exists()

    def test_unavailable_date_exits_three_with_partial_report(self, tmp_path):
        values = np.zeros(40)
        values[:20] = 1.2 ** np.arange(1, 21)
        path = tmp_path / "gz.csv"
        write_value_csv(path, values)
        report = tmp_path / "report.json"
        assert main(["estimate", str(path), "--out", str(report)]) == 3
        breaks = json.loads(report.read_text())["breaks"]
        assert breaks["collapse"]["index"] == 20
        assert breaks["emergence"]["index"] == 2
        assert breaks["recovery"]["index"] is None
        assert breaks["recovery"]["unavailable"] == "degenerate"

    def test_tiny_trim_keeps_one_date_at_each_end(self, tmp_path, capsys):
        config = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=800,
                           drift_pre=1.0 / 800.0, drift_post=1.0 / 800.0)
        path = tmp_path / "s.csv"
        write_value_csv(path, simulate(config, IidGaussian(1.0), 0).values)
        ranges = []
        for trim in ("1e-9", "1e-12"):
            assert main(["estimate", str(path), "--trim", trim]) == 0
            ranges.append(json.loads(capsys.readouterr().out)["breaks"]["collapse"]["range"])
        assert ranges == [[1, 799], [1, 799]]

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        path = tmp_path / "tent.csv"
        write_value_csv(path, three_phase_tent())
        assert main(["estimate", str(path), "--out", str(tmp_path / "no-dir" / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1

    def test_invalid_inputs_exit_two(self, tmp_path):
        missing = tmp_path / "missing.csv"
        assert main(["estimate", str(missing)]) == 2

        path = tmp_path / "tent.csv"
        write_value_csv(path, three_phase_tent())
        assert main(["estimate", str(path), "--value-column", "price"]) == 2
        assert main(["estimate", str(path), "--trim", "0.5"]) == 2
        for delimiter in ("", ";;"):
            assert main(["estimate", str(path), "--delimiter", delimiter]) == 2

        short = tmp_path / "short.csv"
        write_value_csv(short, np.ones(10))
        assert main(["estimate", str(short)]) == 2


class TestSimulateCommand:
    def test_writes_metadata_and_values(self, tmp_path, capsys):
        cfg = sim_config(tmp_path)
        out = tmp_path / "path.csv"
        assert main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        assert "wrote 400 observations" in capsys.readouterr().out
        first = out.read_text().splitlines()[0]
        assert first.startswith("# dgp: ")
        meta = json.loads(first[len("# dgp: "):])
        assert meta["true_breaks"] == [160, 240, 280]
        assert meta["seed"] == 1
        assert meta["dgp"]["phi_a"] == 1.09

    def test_deterministic_per_seed(self, tmp_path):
        cfg = sim_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        main(["simulate", "--config", cfg, "--seed", "5", "--out", str(a)])
        main(["simulate", "--config", cfg, "--seed", "5", "--out", str(b)])
        main(["simulate", "--config", cfg, "--seed", "6", "--out", str(c)])
        assert a.read_text() == b.read_text()
        assert a.read_text() != c.read_text()

    def test_round_trip_matches_library_estimates(self, tmp_path, capsys):
        from bubbledate import IidGaussian, Series, estimate_dates, simulate
        from bubbledate.dataio import dgp_config_from_dict

        cfg = sim_config(tmp_path)
        out = tmp_path / "path.csv"
        main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        assert main(["estimate", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)

        dgp = dgp_config_from_dict(json.loads((tmp_path / "sim.json").read_text())["dgp"])
        sim = simulate(dgp, IidGaussian(1.0), 1)
        est = estimate_dates(Series(sim.values))  # the CSV carries no presample
        assert payload["breaks"]["collapse"]["index"] == est.k_c_hat
        assert payload["breaks"]["emergence"]["index"] == est.k_e_hat
        assert payload["breaks"]["recovery"]["index"] == est.k_r_hat

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        out = str(tmp_path / "no-dir" / "x.csv")
        assert main(["simulate", "--config", sim_config(tmp_path), "--seed", "1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1

    def test_bad_configs_exit_two(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--seed", "1", "--out", out]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["simulate", "--config", str(bad), "--seed", "1", "--out", out]) == 2
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schema_version": 0, "dgp": {}}))
        assert main(["simulate", "--config", str(stale), "--seed", "1", "--out", out]) == 2
        assert main(["simulate", "--config", sim_config(tmp_path), "--seed", "-1", "--out", out]) == 2
        assert "non-negative" in capsys.readouterr().err

        sim = json.loads(Path(sim_config(tmp_path)).read_text())
        experiment = json.loads(Path(TestMcCommand().experiment_config(tmp_path)).read_text())
        malformed = {
            "simulate": [
                {**sim, "dgp": {**sim["dgp"], "T": 800.0}},
                {**sim, "errors": {"kind": "iid_gaussian", "sigma": [1]}},
                {"schema_version": 1, "dgp": sim["dgp"], "erors": {"kind": "iid_gaussian", "sigma": 3.0}},
            ],
            "mc": [
                {**experiment, "reps": "abc"},
                {**experiment, "trimming": "x"},
                {**experiment, "errors": [1]},
                {**experiment, "errors": {"kind": "volatility_scaled", "profile": "flat"}},
                [1, 2],
                {**experiment, "errors": {"kind": "iid_gaussian", "sigma": "1"}},
                {**experiment, "errors": {"kind": "linear_process", "psi": "ab"}},
                {**experiment, "bic": "false"},
                {**experiment, "reps": 12.9},
                {**experiment, "T_grid": [100.7]},
            ],
        }
        path = tmp_path / "malformed.json"
        for command, configs in malformed.items():
            for config in configs:
                path.write_text(json.dumps(config))
                argv = [command, "--config", str(path), "--seed", "1", "--out", out]
                assert main(argv) == 2, config
                err = capsys.readouterr().err
                assert err.startswith("error:") and "Traceback" not in err, config


class TestMcCommand:
    def experiment_config(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "schema_version": 1,
            "dgp": {"tau_e": 0.4, "tau_c": 0.6, "tau_r": 0.7,
                    "phi_a": 1.08, "phi_b": 0.90, "T": 120},
            "errors": {"kind": "iid_gaussian"},
            "T_grid": [120],
            "phi_a_grid": [1.08],
            "reps": 4,
            "bic": True,
        }))
        return str(path)

    def test_writes_experiment_outputs(self, tmp_path, capsys):
        cfg = self.experiment_config(tmp_path)
        out = tmp_path / "results"
        assert main(["mc", "--config", cfg, "--seed", "7", "--reps", "6",
                     "--out", str(out), "--svg"]) == 0
        assert "wrote 3 cell histograms" in capsys.readouterr().out

        saved = json.loads((out / "experiment.json").read_text())
        assert saved["base_seed"] == 7
        assert saved["reps"] == 6
        assert saved["schema_version"] == 1

        rows = list(csv.reader(open(out / "summary.csv")))
        assert len(rows) == 4  # header + one cell x three targets

        cell_csvs = sorted(p.name for p in out.glob("cell*.csv"))
        assert cell_csvs == [
            "cell000_collapse_T120_a1.08_b0.9.csv",
            "cell001_emergence_T120_a1.08_b0.9.csv",
            "cell002_recovery_T120_a1.08_b0.9.csv",
        ]
        assert len(list(out.glob("cell*.svg"))) == 3
        assert (out / "bic.csv").exists()

    def test_preset_runs(self, tmp_path, capsys):
        out = tmp_path / "nf"
        assert main(["mc", "--preset", "no-fourth-regime", "--reps", "2",
                     "--seed", "0", "--out", str(out)]) == 0
        assert "wrote 12 cell histograms" in capsys.readouterr().out
        rows = list(csv.reader(open(out / "summary.csv")))
        assert len(rows) == 13
        assert {r[4] for r in rows[1:]} == {"collapse"}

    def test_out_is_a_file_exits_two_before_running(self, tmp_path, capsys, monkeypatch):
        import bubbledate.cli as cli

        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: runs.append(args))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["mc", "--preset", "baseline", "--reps", "1", "--seed", "0", "--out", str(out)]) == 2
        assert runs == []
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1

    def test_preset_and_config_are_exclusive(self, tmp_path):
        cfg = self.experiment_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--preset", "baseline", "--config", cfg,
                  "--seed", "0", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_invalid_reps_exit_two(self, tmp_path):
        cfg = self.experiment_config(tmp_path)
        assert main(["mc", "--config", cfg, "--seed", "0", "--reps", "0",
                     "--out", str(tmp_path / "x")]) == 2
        assert main(["mc", "--config", cfg, "--seed", "-1", "--reps", "2",
                     "--out", str(tmp_path / "x")]) == 2

    def test_workers_below_one_exit_two(self, tmp_path, capsys):
        cfg = self.experiment_config(tmp_path)
        for workers in ("0", "-3"):
            assert main(["mc", "--config", cfg, "--seed", "0", "--reps", "2", "--workers", workers,
                         "--out", str(tmp_path / "x")]) == 2
            assert "workers must be at least 1" in capsys.readouterr().err

    def test_worker_errors_print_as_serial(self, tmp_path, capsys):
        # an error raised inside a pool worker reaches stderr as the serial run prints it
        cfg = json.loads(Path(self.experiment_config(tmp_path)).read_text())
        short = tmp_path / "short.json"
        short.write_text(json.dumps({**cfg, "T_grid": [120, 3]}))
        for config, seed in ((str(short), "0"), (self.experiment_config(tmp_path), "-1")):
            errs = []
            for workers in ("1", "2"):
                assert main(["mc", "--config", config, "--seed", seed, "--reps", "2",
                             "--workers", workers, "--out", str(tmp_path / "x")]) == 2
                errs.append(capsys.readouterr().err)
            assert errs[0] == errs[1]
            assert errs[0].startswith("error: ") and "; " not in errs[0]


class TestLimitdistCommand:
    def test_recovery_outputs_and_determinism(self, tmp_path, capsys):
        prefix = str(tmp_path / "rec")
        args = ["limitdist", "recovery", "--cb", "1.0", "--draws", "25",
                "--seed", "3", "--vmax", "5", "--out", prefix]
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["law"] == "recovery"
        assert summary["draws"] == 25
        assert summary["c_b"] == 1.0
        assert summary["discretization"]["v_max"] == 5.0
        assert set(summary["quantiles"]) == {"q10", "q25", "q50", "q75", "q90"}

        rows = list(csv.reader(open(prefix + "_draws.csv")))
        assert len(rows) == 26
        got = np.array([float(r[1]) for r in rows[1:]])
        disc = Discretization(step=0.01, v_max=5.0)
        want = recovery_limit_draws(1.0, draws=25, disc=disc, seed=3).values
        assert np.array_equal(got, want)

        hist_rows = list(csv.reader(open(prefix + "_hist.csv")))
        assert hist_rows[0] == ["bin_lo", "bin_hi", "count", "density"]
        assert len(hist_rows) == 51

        first = (prefix + "_draws.csv", open(prefix + "_draws.csv").read())
        assert main(args) == 0
        capsys.readouterr()
        assert open(first[0]).read() == first[1]

    def test_emergence_summary(self, tmp_path, capsys):
        prefix = str(tmp_path / "eme")
        assert main(["limitdist", "emergence", "--tau-e", "0.3", "--draws", "20",
                     "--seed", "2", "--vmax", "2", "--step", "0.02",
                     "--out", prefix]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["law"] == "emergence"
        assert summary["tau_e"] == 0.3
        assert os.path.exists(prefix + "_draws.csv")

    def test_correction_reports_penalty_adjustment(self, tmp_path, capsys):
        prefix = str(tmp_path / "corr")
        assert main(["limitdist", "recovery", "--psi", "1,0.5", "--draws", "5",
                     "--seed", "1", "--vmax", "5", "--out", prefix]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["psi_check"] == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_invalid_options_exit_two(self, tmp_path):
        prefix = str(tmp_path / "x")
        assert main(["limitdist", "recovery", "--cb", "0", "--seed", "1",
                     "--draws", "2", "--out", prefix]) == 2
        assert main(["limitdist", "recovery", "--cb", "-1", "--seed", "1",
                     "--draws", "2", "--out", prefix]) == 2
        for bad in ("nan", "inf", "5e-324"):
            assert main(["limitdist", "recovery", "--cb", bad, "--seed", "1",
                         "--draws", "2", "--vmax", "5", "--out", prefix]) == 2
        assert main(["limitdist", "recovery", "--psi", "a,b", "--seed", "1",
                     "--draws", "2", "--out", prefix]) == 2
        assert main(["limitdist", "recovery", "--draws", "0", "--seed", "1",
                     "--out", prefix]) == 2
        assert main(["limitdist", "recovery", "--step", "2.0", "--vmax", "5",
                     "--seed", "1", "--draws", "2", "--out", prefix]) == 2
        for law in ("recovery", "emergence"):
            assert main(["limitdist", law, "--seed", "-1", "--draws", "2", "--vmax", "5",
                         "--out", prefix]) == 2

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        prefix = str(tmp_path / "no-dir" / "e")
        assert main(["limitdist", "emergence", "--seed", "1", "--draws", "2", "--vmax", "5",
                     "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1

    def test_weak_mean_reversion_runs(self, tmp_path):
        assert main(["limitdist", "recovery", "--cb", "1e-6", "--vmax", "5", "--draws", "2",
                     "--seed", "1", "--out", str(tmp_path / "x")]) == 0

    def test_degenerate_filter_exits_two(self, tmp_path, capsys):
        # a zero-sum filter has no long-run scale: invalid input, not a dating failure
        prefix = str(tmp_path / "zero")
        assert main(["limitdist", "recovery", "--psi", "1,-1", "--seed", "1",
                     "--draws", "2", "--vmax", "5", "--out", prefix]) == 2
        assert "sum to zero" in capsys.readouterr().err
        assert not os.path.exists(prefix + "_draws.csv")


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy alone: importing the CLI loads no scipy module."""
    src = Path(bubbledate.__file__).resolve().parents[1]
    probe = "import sys, bubbledate.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
