"""Command-line interface: subcommands, exit codes, file outputs."""
from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import three_phase_tent

import bubbledate
from bubbledate import (
    DgpConfig,
    Discretization,
    IidGaussian,
    Series,
    estimate_dates,
    recovery_limit_draws,
    simulate,
)
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

    def test_bic_on_underflowing_ssr(self, tmp_path, capsys):
        # every SSR / N underflows to 0; the BIC values stay finite
        path = tmp_path / "tiny.csv"
        write_value_csv(path, 1e-162 * np.random.default_rng(3).normal(size=200).cumsum())
        assert main(["estimate", str(path), "--bic"]) in (0, 3)
        bic = json.loads(capsys.readouterr().out)["bic"]
        assert bic["values"]["two_regime"] is not None
        assert bic["chosen"] in bic["values"]

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
        est = estimate_dates(Series(three_phase_tent()))
        for name, curve in (("collapse", est.ssr_curve_c), ("emergence", est.ssr_curve_e),
                            ("recovery", est.ssr_curve_r)):
            rows = list(csv.reader(open(curves / f"ssr_{name}.csv", newline="")))
            assert [int(k) for k, _ in rows[1:]] == curve[:, 0].tolist()
            assert np.array([float(ssr) for _, ssr in rows[1:]]).tobytes() == curve[:, 1].tobytes()

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

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # spreadsheet programs save CSV as "UTF-8 with BOM"
        path = tmp_path / "bom.csv"
        values = np.random.default_rng(1).normal(size=50).cumsum().tolist()
        path.write_text("value\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["estimate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["input"]["T"] == 50

    def test_unparsable_row_exits_two_with_its_line(self, tmp_path, capsys):
        # an unclosed quote swallows the rest of the file into one field,
        # past the csv module's field size limit
        path = tmp_path / "quote.csv"
        path.write_text('date,value\n"x,1.0\n' + "d,1.0\n" * 30000)
        assert main(["estimate", str(path), "--date-column", "date"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, line 2: field larger than field limit") and err.count("\n") == 1

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

    def test_config_with_byte_order_mark_reads(self, tmp_path, capsys):
        cfg = Path(sim_config(tmp_path))
        cfg.write_text(cfg.read_text(), encoding="utf-8-sig")
        out = tmp_path / "path.csv"
        assert main(["simulate", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        assert "wrote 400 observations" in capsys.readouterr().out

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

        text = (out / "experiment.json").read_text()
        assert text.endswith("}\n")
        saved = json.loads(text)
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

    def test_output_files_are_pinned_bytewise(self, tmp_path):
        # digests of the files the csv-module and inline writers made;
        # experiment.json is read back by test_writes_experiment_outputs
        out = tmp_path / "results"
        assert main(["mc", "--config", self.experiment_config(tmp_path), "--seed", "7", "--reps", "6",
                     "--out", str(out), "--svg"]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir() if p.name != "experiment.json"}
        assert digests == {
            "bic.csv": "64039b60bfeee81ec1f414e28cced55ab1541f8e0111cc28afc04dd17f321547",
            "cell000_collapse_T120_a1.08_b0.9.csv": "07637f7c439e290b3db9d01fb1bbee7ef216c08c51e4ad56ec053b0a3f7e77b7",
            "cell000_collapse_T120_a1.08_b0.9.svg": "8036567dc674691f8be41514f1cc2d64939c9abfc079b18072280abc90ec3393",
            "cell001_emergence_T120_a1.08_b0.9.csv": "d758dc7281e301b798540e208c13d260f2e87d2e522ca367b59aced999149660",
            "cell001_emergence_T120_a1.08_b0.9.svg": "72c4a3ed5ea29c0a2dba6a1f330fc778dfab08f5de84983d1985cdf560b696e9",
            "cell002_recovery_T120_a1.08_b0.9.csv": "c14188d65697df8fcc3d7a0506946144f0c49aa25ad3936a537a3060cd8e5173",
            "cell002_recovery_T120_a1.08_b0.9.svg": "f6eca3ed88a7daa68e5f91bff4b03da38f03f30717ef02c8cf13d13caf74b974",
            "summary.csv": "b424fd4e5a5b65a031660102b47cacb80f813942b00a4bcba221d5021ec973dd",
        }

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

    def test_window_edge_share(self, tmp_path, capsys):
        # a window of one unit cuts the emergence law short, so argmaxes pile up at its edges
        assert main(["limitdist", "emergence", "--vmax", "1", "--step", "0.01", "--draws", "50",
                     "--seed", "1", "--out", str(tmp_path / "narrow")]) == 0
        assert json.loads(capsys.readouterr().out)["window_edge_share"] > 0.0
        # a recovery window is in standard units, half a unit wide in natural units at cb = 2
        assert main(["limitdist", "recovery", "--cb", "2", "--vmax", "1", "--step", "0.01", "--draws", "50",
                     "--seed", "1", "--out", str(tmp_path / "narrow-recovery")]) == 0
        assert json.loads(capsys.readouterr().out)["window_edge_share"] > 0.0
        for law in ("recovery", "emergence"):
            assert main(["limitdist", law, "--draws", "20", "--seed", "1", "--out", str(tmp_path / law)]) == 0
            assert 0.0 <= json.loads(capsys.readouterr().out)["window_edge_share"] <= 1.0

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
        # the natural window vmax / cb overflows float64
        assert main(["limitdist", "recovery", "--cb", "1e-300", "--vmax", "1e9", "--step", "1e7",
                     "--seed", "1", "--draws", "2", "--out", prefix]) == 2
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
        # --vmax is in standard (c_b = 1) units: a window of 5, or 5e6 natural units
        assert main(["limitdist", "recovery", "--cb", "1e-6", "--vmax", "5", "--draws", "2",
                     "--seed", "1", "--out", str(tmp_path / "x")]) == 0

    def test_strong_mean_reversion_runs(self, tmp_path, capsys):
        # cb * vmax overflows float64, but the natural window vmax / cb and the draws are finite
        prefix = str(tmp_path / "x")
        assert main(["limitdist", "recovery", "--cb", "1e308", "--draws", "20", "--seed", "0", "--out", prefix]) == 0
        assert json.loads(capsys.readouterr().out)["draws"] == 20
        draws = [float(row[1]) for row in list(csv.reader(open(prefix + "_draws.csv")))[1:]]
        assert len(draws) == 20 and np.isfinite(draws).all()

    def test_overflowing_std_prints_null(self, tmp_path, capsys):
        # finite draws near 1e294 whose squares overflow: the summary stays strict JSON
        assert main(["limitdist", "recovery", "--cb", "1e-300", "--vmax", "1e-5", "--step", "1e-7",
                     "--draws", "3", "--seed", "0", "--out", str(tmp_path / "x")]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert summary["std"] is None and summary["mean"] > 1e293

    def test_degenerate_filter_exits_two(self, tmp_path, capsys):
        # a zero-sum filter has no long-run scale: invalid input, not a dating failure
        prefix = str(tmp_path / "zero")
        assert main(["limitdist", "recovery", "--psi", "1,-1", "--seed", "1",
                     "--draws", "2", "--vmax", "5", "--out", prefix]) == 2
        assert "sum to zero" in capsys.readouterr().err
        assert not os.path.exists(prefix + "_draws.csv")
        # a sum whose square overflows float64 is as unusable as a zero one
        assert main(["limitdist", "recovery", "--psi", "1e200,1e200", "--seed", "0",
                     "--draws", "5", "--vmax", "5", "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: filter coefficients sum to") and err.count("\n") == 1
        assert not os.path.exists(prefix + "_draws.csv")


def test_undecodable_inputs_exit_two(tmp_path, capsys):
    # README reserves exit 2 for invalid input, and a file that is not UTF-8 is one
    path = tmp_path / "ff"
    path.write_bytes(b"value\n\xff\n")
    out = str(tmp_path / "x")
    for argv in (["estimate", str(path)], ["simulate", "--config", str(path), "--seed", "1", "--out", out],
                 ["mc", "--config", str(path), "--seed", "1", "--out", out]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: cannot open {path}"), argv


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy alone: importing the CLI loads no scipy module."""
    src = Path(bubbledate.__file__).resolve().parents[1]
    probe = "import sys, bubbledate.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
