"""File formats: CSV ingestion, JSON configs, result tables, SVG output."""
from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from bubbledate import (
    ConfigError,
    ConstantVolatility,
    DgpConfig,
    ExperimentConfig,
    IidGaussian,
    LinearProcess,
    LinearProcessCoeffs,
    Series,
    SeriesValidationError,
    SingleShiftVolatility,
    Target,
    TrimmingPolicy,
    VolatilityScaled,
)
from bubbledate.dataio import (
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


class TestConfigDicts:
    def test_dgp_round_trip(self):
        cfg = DgpConfig(
            0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=400, y0=2.0,
            c0=1.5, eta0=0.8, c1=0.5, eta1=0.9,
        )
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
            VolatilityScaled(ConstantVolatility(1.5)),
            VolatilityScaled(SingleShiftVolatility(1.0, 3.0, 0.5)),
            LinearProcess(LinearProcessCoeffs((1.0, 0.5, 0.25)), innovation_sigma=2.0),
        ]
        for spec in specs:
            assert error_spec_from_dict(error_spec_to_dict(spec)) == spec

    def test_error_spec_unknown_kind(self):
        with pytest.raises(ConfigError):
            error_spec_from_dict({"kind": "garch"})
        with pytest.raises(ConfigError):
            error_spec_from_dict({"kind": "volatility_scaled"})
        with pytest.raises(ConfigError):
            error_spec_from_dict({"kind": "linear_process"})

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

    def test_draw_histogram_density_integrates_to_one(self, tmp_path):
        values = stream(8).normal(size=500)
        path = tmp_path / "hist.csv"
        write_draw_histogram_csv(str(path), values, n_bins=30)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["bin_lo", "bin_hi", "count", "density"]
        assert len(rows) == 31
        total_count = sum(int(r[2]) for r in rows[1:])
        assert total_count == 500
        mass = sum(
            float(r[3]) * (float(r[1]) - float(r[0])) for r in rows[1:]
        )
        assert mass == pytest.approx(1.0, rel=1e-6)
