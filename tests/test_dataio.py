"""File formats: CSV ingestion, JSON configs, result tables, SVG output."""
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

import bubbledate
from bubbledate import (
    ConfigError,
    DgpConfig,
    ExperimentConfig,
    IidGaussian,
    LinearProcess,
    Series,
    SeriesValidationError,
    SingleShiftVolatility,
    Target,
    TrimmingPolicy,
    VolatilityScaled,
)
from bubbledate.dataio import (
    DRAW_HISTOGRAM_BINS,
    IngestError,
    IngestSpec,
    dgp_config_from_dict,
    dgp_config_to_dict,
    error_spec_from_dict,
    error_spec_to_dict,
    experiment_config_from_dict,
    experiment_config_to_dict,
    histogram_svg,
    load_experiment_config,
    load_simulation_config,
    read_series,
    write_bic_csv,
    write_draw_histogram_csv,
    write_draws_csv,
    write_histogram_csv,
    write_json,
    write_series_csv,
    write_summary_csv,
)
from bubbledate.montecarlo import BicTally, CellKey, HistogramResult, ModelChoice
from bubbledate.rng import stream


def sample_values(n=45, seed=12):
    return stream(seed).normal(size=n).cumsum() + 10.0


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestReadSeries:
    def test_value_column_by_name(self, tmp_path):
        values = sample_values()
        path = tmp_path / "v.csv"
        write_csv(path, [["value"], *[[repr(float(v))] for v in values]])
        series = read_series(IngestSpec(str(path)))
        assert np.array_equal(series.values, values)
        assert series.labels is None
        assert series.y0 is None

    def test_date_and_value_columns(self, tmp_path):
        values = sample_values()
        path = tmp_path / "dv.csv"
        rows = [["date", "value"]] + [
            [f"2020-{i:03d}", repr(float(v))] for i, v in enumerate(values)
        ]
        write_csv(path, rows)
        series = read_series(IngestSpec(str(path), date_column="date"))
        assert np.array_equal(series.values, values)
        assert series.labels[0] == "2020-000"
        assert len(series.labels) == len(values)

    def test_columns_by_index(self, tmp_path):
        values = sample_values()
        path = tmp_path / "i.csv"
        rows = [["when", "px"]] + [[f"d{i}", repr(float(v))] for i, v in enumerate(values)]
        write_csv(path, rows)
        series = read_series(IngestSpec(str(path), value_column=1, date_column=0))
        assert np.array_equal(series.values, values)
        assert series.labels[3] == "d3"

    def test_comment_rows_are_skipped(self, tmp_path):
        values = sample_values()
        path = tmp_path / "c.csv"
        with open(path, "w") as fh:
            fh.write("# generated by a simulation\n")
            fh.write("value\n")
            for v in values[:20]:
                fh.write(f"{float(v)!r}\n")
            fh.write("# mid-file note\n")
            for v in values[20:]:
                fh.write(f"{float(v)!r}\n")
        series = read_series(IngestSpec(str(path)))
        assert np.array_equal(series.values, values)

    def test_comment_with_an_open_quote_swallows_no_rows(self, tmp_path):
        # a comment is dropped before the CSV parser sees it, so its quote opens no field
        values = stream(5).normal(size=60).cumsum()
        path = tmp_path / "q.csv"
        lines = ["value", *map(repr, values[:20].tolist()), '# note,"quoted', *map(repr, values[20:].tolist())]
        path.write_text("\n".join(lines) + "\n")
        series = read_series(IngestSpec(str(path)))
        assert np.array_equal(series.values, values)

    def test_custom_delimiter(self, tmp_path):
        values = sample_values()
        path = tmp_path / "semi.csv"
        with open(path, "w") as fh:
            fh.write("date;value\n")
            for i, v in enumerate(values):
                fh.write(f"d{i};{float(v)!r}\n")
        series = read_series(IngestSpec(str(path), delimiter=";"))
        assert np.array_equal(series.values, values)

    def test_log_transform(self, tmp_path):
        values = np.abs(sample_values()) + 1.0
        path = tmp_path / "log.csv"
        write_csv(path, [["value"], *[[repr(float(v))] for v in values]])
        series = read_series(IngestSpec(str(path), log_transform=True))
        assert np.array_equal(series.values, np.log(values))

    def test_log_transform_rejects_nonpositive(self, tmp_path):
        values = list(sample_values())
        values[2] = -1.0
        path = tmp_path / "neg.csv"
        write_csv(path, [["value"], *[[repr(float(v))] for v in values]])
        with pytest.raises(IngestError, match="data row 3"):
            read_series(IngestSpec(str(path), log_transform=True))

    def test_missing_column_lists_header(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, [["price"], ["1.0"]])
        with pytest.raises(IngestError, match="'value' not found.*price"):
            read_series(IngestSpec(str(path)))

    def test_unparseable_cell_reports_line_and_column(self, tmp_path):
        rows = [["value"], *[[repr(float(v))] for v in sample_values()]]
        rows[5] = ["oops"]
        path = tmp_path / "bad.csv"
        write_csv(path, rows)
        with pytest.raises(IngestError, match="line 6.*'value'.*'oops'"):
            read_series(IngestSpec(str(path)))

    def test_empty_and_missing_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(IngestError, match="no header"):
            read_series(IngestSpec(str(empty)))
        header_only = tmp_path / "h.csv"
        header_only.write_text("value\n")
        with pytest.raises(IngestError, match="no data rows"):
            read_series(IngestSpec(str(header_only)))
        with pytest.raises(IngestError, match="cannot open"):
            read_series(IngestSpec(str(tmp_path / "nope.csv")))

    def test_validation_failures_propagate(self, tmp_path):
        rows = [["value"], *[[repr(float(v))] for v in sample_values()]]
        rows[7] = ["nan"]
        path = tmp_path / "nan.csv"
        write_csv(path, rows)
        with pytest.raises(SeriesValidationError):
            read_series(IngestSpec(str(path)))
        short = tmp_path / "short.csv"
        write_csv(short, [["value"], ["1.0"], ["2.0"]])
        with pytest.raises(SeriesValidationError):
            read_series(IngestSpec(str(short)))


class TestSeriesRoundTrip:
    def test_values_survive_bitwise(self, tmp_path):
        series = Series(sample_values(), y0=None)
        path = tmp_path / "rt.csv"
        write_series_csv(str(path), series)
        back = read_series(IngestSpec(str(path)))
        assert np.array_equal(back.values, series.values)

    def test_labels_and_metadata_round_trip(self, tmp_path):
        values = sample_values()
        labels = tuple(f"d{i}" for i in range(len(values)))
        series = Series(values, labels=labels)
        path = tmp_path / "meta.csv"
        write_series_csv(str(path), series, metadata={"T": len(values), "seed": 3})
        first = path.read_text().splitlines()[0]
        assert first.startswith("# dgp: ")
        assert json.loads(first[len("# dgp: "):]) == {"T": len(values), "seed": 3}
        back = read_series(IngestSpec(str(path), date_column="date"))
        assert np.array_equal(back.values, values)
        assert back.labels == labels


    def test_labels_round_trip_as_written(self, tmp_path):
        # a label starting with `#` is data, not a comment, and spaces are kept
        values = sample_values()
        odd = ("#x", "a,b", 'q"x', "", " c ", "e\nf", " #y", "g\n#h", "i\n\nj", "März1")
        labels = odd + tuple(f"d{i}" for i in range(len(odd), len(values)))
        path = tmp_path / "labels.csv"
        write_series_csv(str(path), Series(values, labels=labels), metadata={"seed": 3})
        back = read_series(IngestSpec(str(path), date_column="date"))
        assert back.labels == labels
        assert np.array_equal(back.values, values)


def test_non_ascii_label_round_trips_under_an_ascii_locale(tmp_path):
    """Files are UTF-8 whatever the locale's encoding: a C-locale interpreter writes and reads back März1."""
    probe = (
        "import sys, numpy as np; from bubbledate import Series; "
        "from bubbledate.dataio import IngestSpec, read_series, write_series_csv; "
        "label = 'M\\u00e4rz1'; "  # escaped: the command line itself is ASCII
        "write_series_csv(sys.argv[1], Series(np.arange(1.0, 41.0), labels=[label] + [f'd{i}' for i in range(39)])); "
        "print(read_series(IngestSpec(sys.argv[1], date_column='date')).labels[0] == label)"
    )
    src = Path(bubbledate.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONUTF8"))}
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", probe, str(tmp_path / "m.csv")],
                          env=dict(env, LC_ALL="C", PYTHONPATH=str(src)), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


class TestConfigDicts:
    def test_dgp_round_trip(self):
        cfg = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=400, y0=2.0)
        assert dgp_config_from_dict(dgp_config_to_dict(cfg)) == cfg
        pinned = DgpConfig(
            0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=400,
            drift_pre=0.01, drift_post=0.02,
        )
        data = dgp_config_to_dict(pinned)
        assert data["drift_pre"] == 0.01
        assert dgp_config_from_dict(data) == pinned

    def test_dgp_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            dgp_config_from_dict({"tau_e": 0.4, "bogus": 1})

    def test_error_spec_round_trips(self):
        specs = [
            IidGaussian(2.0),
            VolatilityScaled(SingleShiftVolatility(1.0, 3.0, 0.5)),
            LinearProcess((2.0, 1.0, 0.5)),
        ]
        for spec in specs:
            assert error_spec_from_dict(error_spec_to_dict(spec)) == spec

    def test_linear_process_json_is_pinned(self, tmp_path):
        # psi is the filter's own field, so it is written under its own name, in the bytes schema version 1 has always had
        path = tmp_path / "errors.json"
        write_json(error_spec_to_dict(LinearProcess((1.0, 0.5))), str(path))
        assert path.read_bytes() == b'{\n  "kind": "linear_process",\n  "psi": [\n    1.0,\n    0.5\n  ]\n}\n'
        with pytest.raises(ConfigError, match="psi must be an array, got 1.5"):
            error_spec_from_dict({"kind": "linear_process", "psi": 1.5})

    def test_error_spec_unknown_kind(self):
        with pytest.raises(ConfigError):
            error_spec_from_dict({"kind": "garch"})
        with pytest.raises(ConfigError):
            error_spec_from_dict({"kind": "volatility_scaled"})
        with pytest.raises(ConfigError):
            error_spec_from_dict({"kind": "linear_process"})
        with pytest.raises(ConfigError, match="single_shift"):
            error_spec_from_dict({"kind": "volatility_scaled", "profile": {"kind": "constant", "sigma": 2}})

    def test_error_spec_rejects_unknown_keys(self):
        cases = [
            ({"kind": "linear_process", "psi": [1, 0.5], "innovaton_sigma": 3.0}, "innovaton_sigma"),
            ({"kind": "iid_gaussian", "sigmaa": 3.0}, "sigmaa"),
            ({"kind": "volatility_scaled",
              "profile": {"kind": "single_shift", "sigma0": 1.0, "sigma1": 3.0, "tau_sigm": 0.2}},
             "tau_sigm"),
        ]
        for data, key in cases:
            with pytest.raises(ConfigError, match=key):
                error_spec_from_dict(data)

    def test_experiment_rejects_unknown_keys(self):
        data = {
            "schema_version": 1,
            "dgp": dgp_config_to_dict(DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=100)),
            "T_grid": [100],
            "phi_a_grid": [1.05],
            "rep": 10,
            "bicc": True,
        }
        with pytest.raises(ConfigError, match="'bicc', 'rep'"):
            experiment_config_from_dict(data)

    def test_experiment_round_trip(self):
        cfg = ExperimentConfig(
            dgp=DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=800, drift_pre=0.00125, drift_post=0.00125),
            errors=VolatilityScaled(SingleShiftVolatility(1.0, 3.0, 0.5)),
            T_grid=(400, 800),
            phi_a_grid=(1.01, 1.05),
            phi_b_grid=(0.96,),
            trimming=TrimmingPolicy(0.01),
            reps=77,
            base_seed=5,
            targets=(Target.COLLAPSE, Target.RECOVERY),
            bic=True,
            name="round-trip",
        )
        data = experiment_config_to_dict(cfg)
        assert data["schema_version"] == 1
        assert experiment_config_from_dict(data) == cfg

    def test_config_section_keys_are_pinned(self):
        # each section's JSON keys, as written and read: adding, renaming or deleting a setting edits this table
        keys = {
            "experiment": ["T_grid", "base_seed", "bic", "dgp", "errors", "name", "phi_a_grid", "phi_b_grid",
                           "reps", "schema_version", "targets", "trimming"],
            "dgp": ["T", "drift_post", "drift_pre", "phi_a", "phi_b", "tau_c", "tau_e", "tau_r", "y0"],
            "iid_gaussian": ["kind", "sigma"],
            "volatility_scaled": ["kind", "profile"],
            "single_shift": ["kind", "sigma0", "sigma1", "tau_sigma"],
            "linear_process": ["kind", "psi"],
        }
        cfg = ExperimentConfig(
            dgp=DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=100),
            errors=VolatilityScaled(SingleShiftVolatility(1.0, 3.0, 0.5)),
            T_grid=(100,),
            phi_a_grid=(1.05,),
        )
        data = experiment_config_to_dict(cfg)
        assert experiment_config_from_dict(data) == cfg
        written = {
            "experiment": data, "dgp": data["dgp"], "volatility_scaled": data["errors"],
            "single_shift": data["errors"]["profile"], "iid_gaussian": error_spec_to_dict(IidGaussian()),
            "linear_process": error_spec_to_dict(LinearProcess((1.0, 0.5))),
        }
        assert {name: sorted(section) for name, section in written.items()} == keys

    def test_schema_version_is_enforced(self):
        cfg = ExperimentConfig(
            dgp=DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=100),
            errors=IidGaussian(),
            T_grid=(100,),
            phi_a_grid=(1.05,),
        )
        data = experiment_config_to_dict(cfg)
        data["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            experiment_config_from_dict(data)
        del data["schema_version"]
        with pytest.raises(ConfigError, match="schema_version"):
            experiment_config_from_dict(data)

    def test_targets_default_to_all(self):
        data = {
            "schema_version": 1,
            "dgp": dgp_config_to_dict(DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=100)),
            "T_grid": [100],
            "phi_a_grid": [1.05],
        }
        cfg = experiment_config_from_dict(data)
        assert cfg.targets == (Target.COLLAPSE, Target.EMERGENCE, Target.RECOVERY)

    def test_load_json_files(self, tmp_path):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps({
            "schema_version": 1,
            "dgp": {"tau_e": 0.4, "tau_c": 0.6, "tau_r": 0.7,
                    "phi_a": 1.05, "phi_b": 0.96, "T": 200},
            "errors": {"kind": "iid_gaussian", "sigma": 2.0},
        }))
        dgp, errors = load_simulation_config(str(sim))
        assert dgp.T == 200
        assert errors == IidGaussian(2.0)

        exp = tmp_path / "exp.json"
        exp.write_text(json.dumps({
            "schema_version": 1,
            "dgp": {"tau_e": 0.4, "tau_c": 0.6, "tau_r": 0.7,
                    "phi_a": 1.05, "phi_b": 0.96, "T": 200},
            "T_grid": [200],
            "phi_a_grid": [1.05],
            "reps": 9,
        }))
        cfg = load_experiment_config(str(exp))
        assert cfg.reps == 9

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(IngestError, match="invalid JSON"):
            load_simulation_config(str(bad))

    def test_count_and_flag_fields_are_strict(self):
        dgp = dgp_config_to_dict(DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=100))
        base = {"schema_version": 1, "dgp": dgp, "phi_a_grid": [1.05]}
        cases = [
            ({"bic": "false"}, "bic must be a boolean"),
            ({"reps": 12.9}, "reps must be an integer"),
            ({"dgp": {**dgp, "T": 800.0}}, "T must be an integer"),
        ]
        for bad, message in cases:
            with pytest.raises(ConfigError, match=message):
                experiment_config_from_dict({**base, **bad})


def small_histogram():
    return HistogramResult(
        cell=CellKey(T=400, phi_a=1.05, phi_b=0.96),
        target=Target.COLLAPSE,
        true_date=240,
        bins={238: 3, 240: 90, 241: 7},
        unavailable=0,
        reps=100,
    )


class TestResultWriters:
    def test_histogram_csv(self, tmp_path):
        path = tmp_path / "h.csv"
        write_histogram_csv(str(path), small_histogram())
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["T", "phi_a", "phi_b", "target", "true_date", "k", "count"]
        assert rows[1] == ["400", "1.05", "0.96", "collapse", "240", "238", "3"]
        assert len(rows) == 4

    def test_summary_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        write_summary_csv(str(path), [small_histogram()])
        rows = list(csv.reader(open(path)))
        assert rows[0][:4] == ["cell", "T", "phi_a", "phi_b"]
        assert rows[1][0] == "0"
        assert rows[1][-1] == "0.900000"
        assert rows[1][-2] == "0"

    def test_bic_csv(self, tmp_path):
        tally = BicTally(
            cell=CellKey(T=400, phi_a=1.05, phi_b=0.96),
            counts={ModelChoice.TWO_REGIME: 5, ModelChoice.THREE_REGIME: 15,
                    ModelChoice.FOUR_REGIME: 80},
            failed=0,
            reps=100,
        )
        path = tmp_path / "b.csv"
        write_bic_csv(str(path), [tally])
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["T", "phi_a", "phi_b", "two_regime", "three_regime",
                           "four_regime", "failed", "reps"]
        assert rows[1] == ["400", "1.05", "0.96", "5", "15", "80", "0", "100"]

    def test_result_writers_are_pinned_bytewise(self, tmp_path):
        # digests of the files the csv-module writers made: labels that need
        # quoting, an empty and a padded label, the `# dgp:` comment line, an
        # empty histogram and a failed BIC count
        values = sample_values(n=5)
        empty = HistogramResult(cell=CellKey(T=120, phi_a=1.08, phi_b=0.9), target=Target.RECOVERY,
                                true_date=84, bins={}, unavailable=6, reps=6)
        tallies = [
            BicTally(cell=CellKey(T=400, phi_a=1.05, phi_b=0.96),
                     counts={ModelChoice.TWO_REGIME: 5, ModelChoice.THREE_REGIME: 15,
                             ModelChoice.FOUR_REGIME: 80}, failed=0, reps=100),
            BicTally(cell=CellKey(T=120, phi_a=1.08, phi_b=0.9),
                     counts={ModelChoice.TWO_REGIME: 0, ModelChoice.THREE_REGIME: 1,
                             ModelChoice.FOUR_REGIME: 3}, failed=2, reps=6),
        ]
        cases = (
            (lambda p: write_series_csv(p, Series(values)), "1b1c678656cb72e54118a849a324e8c6fbd9ce3b57cab8582ac0e6dd378fffe4"),
            (lambda p: write_series_csv(p, Series(values, labels=("a,b", 'q"x', "", " c ", "e\nf"))),
             "7838c207ed0fb38e2514c785443d7061445d764a90870582818d9802f79c9853"),
            (lambda p: write_series_csv(p, Series(values, y0=0.5),
                                        metadata={"seed": 3, "dgp": {"T": 5, "phi_a": 1.05}}),
             "a8589cc63e231fd462cbc878f636833b2c3949f8eb22865853615cb7dc9a8eed"),
            (lambda p: write_histogram_csv(p, small_histogram()), "da304a0b0ce0768332d5fc6adeaf766b707dd501aabafd1d84d8367633729e2f"),
            (lambda p: write_histogram_csv(p, empty), "a964f34f0c51ca60c014f2d111e5084165e76ee2c340fc7e6a505c2befd1a1d1"),
            (lambda p: write_summary_csv(p, [small_histogram(), empty]), "f504164efe52c312a3f1db9403b6a1a1f13f5045ab85a8020b7075620789c977"),
            (lambda p: write_bic_csv(p, tallies), "7e55503986fac0844cee78c40f735e78f5041a774f51d3f753054c7c10040183"),
        )
        for i, (write, digest) in enumerate(cases):
            path = tmp_path / f"out{i}.csv"
            write(str(path))
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, i

    def test_histogram_svg(self):
        svg = histogram_svg(small_histogram())
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 3
        assert '#c44' in svg  # true-date bar is highlighted
        empty = histogram_svg(
            HistogramResult(
                cell=CellKey(T=400, phi_a=1.05, phi_b=0.96),
                target=Target.RECOVERY,
                true_date=280,
                bins={},
                unavailable=100,
                reps=100,
            )
        )
        assert "no estimates" in empty

    def test_draws_csv_round_trip(self, tmp_path):
        values = stream(4).normal(size=25)
        path = tmp_path / "d.csv"
        write_draws_csv(str(path), values)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["draw", "value"]
        back = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(back, values)
        assert [int(r[0]) for r in rows[1:]] == list(range(25))

    def test_draw_files_are_pinned_bytewise(self, tmp_path):
        # digests of the files the csv-module writers made; signed zeros and a
        # tiny value exercise the repr of each draw and bin edge
        values = stream(2024).standard_normal(20) * 7.5
        values[3], values[7], values[11] = 0.0, -0.0, 1e-300
        for write, digest in (
            (write_draws_csv, "4d883e10a75eabc98ec19dd76eabdc5d87bbc02474cc93f5d64a6c6ef9cf75a6"),
            (write_draw_histogram_csv, "a0872251491ada03ee437c32a259167bff07a115490474f30c9ac7bec40738f4"),
        ):
            path = tmp_path / "draws.csv"
            write(str(path), values)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_draw_histogram_density_integrates_to_one(self, tmp_path):
        values = stream(8).normal(size=500)
        path = tmp_path / "hist.csv"
        write_draw_histogram_csv(str(path), values)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["bin_lo", "bin_hi", "count", "density"]
        assert len(rows) == DRAW_HISTOGRAM_BINS + 1
        total_count = sum(int(r[2]) for r in rows[1:])
        assert total_count == 500
        mass = sum(
            float(r[3]) * (float(r[1]) - float(r[0])) for r in rows[1:]
        )
        assert mass == pytest.approx(1.0, rel=1e-6)
