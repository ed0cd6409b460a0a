"""File formats: CSV ingestion and output, JSON configs, SVG histograms.

CSV is the only ingestion format.  A header row is required; comment lines
starting with ``#`` are skipped, which lets simulated output (carrying its
generator settings in a comment) round-trip back into estimation.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from .dgp import ErrorSpec, IidGaussian, LinearProcess, VolatilityScaled
from .montecarlo import (
    BicTally,
    ExperimentConfig,
    HistogramResult,
    Target,
    preset,
)
from .types import (
    BubbleDateError,
    ConfigError,
    ConstantVolatility,
    DgpConfig,
    LinearProcessCoeffs,
    Series,
    SingleShiftVolatility,
    TrimmingPolicy,
    validate_series,
)

__all__ = [
    "SCHEMA_VERSION",
    "IngestSpec",
    "IngestError",
    "read_series",
    "write_series_csv",
    "dgp_config_to_dict",
    "dgp_config_from_dict",
    "error_spec_to_dict",
    "error_spec_from_dict",
    "experiment_config_to_dict",
    "experiment_config_from_dict",
    "load_simulation_config",
    "load_experiment_config",
    "write_histogram_csv",
    "write_summary_csv",
    "write_bic_csv",
    "histogram_svg",
    "write_draws_csv",
    "write_draw_histogram_csv",
]

SCHEMA_VERSION = 1


class IngestError(BubbleDateError):
    """Malformed input file; the message carries row/column context."""


@dataclass(frozen=True)
class IngestSpec:
    """How to read one series from a CSV file.

    Columns may be referenced by header name or 0-based position.
    ``log_transform`` replaces values by their natural log and requires
    strictly positive data.
    """

    path: str
    value_column: Union[str, int] = "value"
    date_column: Optional[Union[str, int]] = None
    log_transform: bool = False
    delimiter: str = ","


def _resolve_column(header: list, ref: Union[str, int], role: str) -> int:
    if isinstance(ref, int):
        if not (0 <= ref < len(header)):
            raise IngestError(
                f"{role} column index {ref} out of range; file has {len(header)} columns: {header}"
            )
        return ref
    try:
        return header.index(ref)
    except ValueError:
        raise IngestError(f"{role} column {ref!r} not found; header columns: {header}") from None


def read_series(spec: IngestSpec) -> Series:
    """Read and validate one series; raises IngestError with file context."""
    try:
        fh = open(spec.path, newline="")
    except OSError as exc:
        raise IngestError(f"cannot open {spec.path}: {exc}") from None
    with fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        header = None
        values = []
        labels = []
        for lineno, row in enumerate(reader, start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if header is None:
                header = [c.strip() for c in row]
                v_idx = _resolve_column(header, spec.value_column, "value")
                d_idx = (
                    _resolve_column(header, spec.date_column, "date")
                    if spec.date_column is not None
                    else None
                )
                continue
            if len(row) <= v_idx:
                raise IngestError(f"{spec.path}, line {lineno}: expected at least {v_idx + 1} columns")
            cell = row[v_idx].strip()
            try:
                values.append(float(cell))
            except ValueError:
                raise IngestError(
                    f"{spec.path}, line {lineno}, column {header[v_idx]!r}: cannot parse {cell!r} as a number"
                ) from None
            if d_idx is not None:
                if len(row) <= d_idx:
                    raise IngestError(f"{spec.path}, line {lineno}: missing date column")
                labels.append(row[d_idx].strip())
    if header is None:
        raise IngestError(f"{spec.path}: no header row found")
    if not values:
        raise IngestError(f"{spec.path}: no data rows found")
    arr = np.asarray(values, dtype=np.float64)
    if spec.log_transform:
        bad = np.nonzero(arr <= 0.0)[0]
        if bad.size:
            raise IngestError(
                f"{spec.path}: log transform requires positive values; "
                f"first violation at data row {int(bad[0]) + 1} (value {arr[bad[0]]})"
            )
        arr = np.log(arr)
    return validate_series(arr, labels=labels if labels else None)


def write_series_csv(path: str, series: Series, metadata: Optional[dict] = None) -> None:
    """Write a series in the ingestion format, with optional `# dgp:` comment."""
    with open(path, "w", newline="") as fh:
        if metadata is not None:
            fh.write(f"# dgp: {json.dumps(metadata, sort_keys=True)}\n")
        writer = csv.writer(fh)
        if series.labels is not None:
            writer.writerow(["date", "value"])
            for label, v in zip(series.labels, series.values):
                writer.writerow([label, repr(float(v))])
        else:
            writer.writerow(["value"])
            for v in series.values:
                writer.writerow([repr(float(v))])


def dgp_config_to_dict(config: DgpConfig) -> dict:
    return {k: v for k, v in asdict(config).items() if v is not None}


def dgp_config_from_dict(data: dict) -> DgpConfig:
    try:
        return DgpConfig(**data)
    except TypeError as exc:
        raise ConfigError([f"bad dgp config: {exc}"]) from None


def _profile_to_dict(profile) -> dict:
    if isinstance(profile, ConstantVolatility):
        return {"kind": "constant", "sigma": profile.sigma}
    if isinstance(profile, SingleShiftVolatility):
        return {
            "kind": "single_shift",
            "sigma0": profile.sigma0,
            "sigma1": profile.sigma1,
            "tau_sigma": profile.tau_sigma,
        }
    raise ConfigError([f"unsupported volatility profile: {type(profile).__name__}"])


def _reject_unknown_keys(data: dict, known: tuple, what: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError([f"{what}: unknown key(s) {', '.join(map(repr, unknown))}"])


def _profile_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "constant":
        _reject_unknown_keys(data, ("kind", "sigma"), "constant profile")
        return ConstantVolatility(sigma=data.get("sigma", 1.0))
    if kind == "single_shift":
        _reject_unknown_keys(data, ("kind", "sigma0", "sigma1", "tau_sigma"), "single_shift profile")
        try:
            return SingleShiftVolatility(
                sigma0=data["sigma0"], sigma1=data["sigma1"], tau_sigma=data.get("tau_sigma", 0.5)
            )
        except KeyError as exc:
            raise ConfigError([f"single_shift profile missing {exc}"]) from None
    raise ConfigError([f"unknown volatility profile kind {kind!r}"])


def error_spec_to_dict(spec: ErrorSpec) -> dict:
    if isinstance(spec, IidGaussian):
        return {"kind": "iid_gaussian", "sigma": spec.sigma}
    if isinstance(spec, VolatilityScaled):
        return {"kind": "volatility_scaled", "profile": _profile_to_dict(spec.profile)}
    if isinstance(spec, LinearProcess):
        return {
            "kind": "linear_process",
            "psi": list(spec.coeffs.psi),
            "innovation_sigma": spec.innovation_sigma,
        }
    raise ConfigError([f"unsupported error spec: {type(spec).__name__}"])


def error_spec_from_dict(data: dict) -> ErrorSpec:
    kind = data.get("kind", "iid_gaussian")
    if kind == "iid_gaussian":
        _reject_unknown_keys(data, ("kind", "sigma"), "iid_gaussian spec")
        return IidGaussian(sigma=data.get("sigma", 1.0))
    if kind == "volatility_scaled":
        _reject_unknown_keys(data, ("kind", "profile"), "volatility_scaled spec")
        if "profile" not in data:
            raise ConfigError(["volatility_scaled spec requires a profile"])
        return VolatilityScaled(_profile_from_dict(data["profile"]))
    if kind == "linear_process":
        _reject_unknown_keys(data, ("kind", "psi", "innovation_sigma"), "linear_process spec")
        if "psi" not in data:
            raise ConfigError(["linear_process spec requires psi coefficients"])
        return LinearProcess(
            coeffs=LinearProcessCoeffs(tuple(data["psi"])),
            innovation_sigma=data.get("innovation_sigma", 1.0),
        )
    raise ConfigError([f"unknown error spec kind {kind!r}"])


_EXPERIMENT_KEYS = ("schema_version", "name", "dgp", "errors", "T_grid", "phi_a_grid",
                    "phi_b_grid", "trimming", "reps", "base_seed", "targets", "bic")


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "name": config.name,
        "dgp": dgp_config_to_dict(config.dgp),
        "errors": error_spec_to_dict(config.errors),
        "T_grid": list(config.T_grid),
        "phi_a_grid": list(config.phi_a_grid),
        "phi_b_grid": list(config.phi_b_grid),
        "trimming": config.trimming.rho,
        "reps": config.reps,
        "base_seed": config.base_seed,
        "targets": [t.value for t in config.targets],
        "bic": config.bic,
    }


def _check_schema_version(data: dict, what: str) -> None:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            [f"{what}: unsupported schema_version {version!r}; this build reads version {SCHEMA_VERSION}"]
        )


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    _check_schema_version(data, "experiment config")
    _reject_unknown_keys(data, _EXPERIMENT_KEYS, "experiment config")
    if "dgp" not in data:
        raise ConfigError(["experiment config requires a dgp section"])
    try:
        targets = tuple(Target(t) for t in data.get("targets", [t.value for t in Target]))
    except ValueError as exc:
        raise ConfigError([f"bad target: {exc}"]) from None
    return ExperimentConfig(
        dgp=dgp_config_from_dict(data["dgp"]),
        errors=error_spec_from_dict(data.get("errors", {"kind": "iid_gaussian"})),
        T_grid=tuple(int(T) for T in data.get("T_grid", [data["dgp"]["T"]])),
        phi_a_grid=tuple(float(p) for p in data.get("phi_a_grid", [])),
        phi_b_grid=tuple(float(p) for p in data.get("phi_b_grid", [])),
        trimming=TrimmingPolicy(data.get("trimming", 0.05)),
        reps=int(data.get("reps", 2000)),
        base_seed=int(data.get("base_seed", 0)),
        targets=targets,
        bic=bool(data.get("bic", False)),
        name=data.get("name", "custom"),
    )


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: invalid JSON: {exc}") from None


def load_simulation_config(path: str) -> tuple:
    """Read a {schema_version, dgp, errors} JSON file."""
    data = _load_json(path)
    _check_schema_version(data, "simulation config")
    if "dgp" not in data:
        raise ConfigError(["simulation config requires a dgp section"])
    dgp = dgp_config_from_dict(data["dgp"])
    errors = error_spec_from_dict(data.get("errors", {"kind": "iid_gaussian"}))
    return dgp, errors


def load_experiment_config(path: str) -> ExperimentConfig:
    return experiment_config_from_dict(_load_json(path))


def write_histogram_csv(path: str, result: HistogramResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "phi_a", "phi_b", "target", "true_date", "k", "count"])
        for k, count in result.bins.items():
            writer.writerow(
                [result.cell.T, result.cell.phi_a, result.cell.phi_b,
                 result.target.value, result.true_date, k, count]
            )


def write_summary_csv(path: str, results: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["cell", "T", "phi_a", "phi_b", "target", "true_date",
             "reps", "unavailable", "hit_frequency"]
        )
        for i, r in enumerate(results):
            writer.writerow(
                [i, r.cell.T, r.cell.phi_a, r.cell.phi_b, r.target.value,
                 r.true_date, r.reps, r.unavailable, f"{r.hit_frequency:.6f}"]
            )


def write_bic_csv(path: str, tallies: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "phi_a", "phi_b", "two_regime", "three_regime", "four_regime", "failed", "reps"])
        for t in tallies:
            counts = {m.value: c for m, c in t.counts.items()}
            writer.writerow(
                [t.cell.T, t.cell.phi_a, t.cell.phi_b,
                 counts.get("two_regime", 0), counts.get("three_regime", 0),
                 counts.get("four_regime", 0), t.failed, t.reps]
            )


def histogram_svg(result: HistogramResult, width: int = 640, height: int = 320) -> str:
    """Static SVG bar chart of one cell histogram; no plotting dependency."""
    margin = 40
    bins = result.bins
    title = (
        f"{result.target.value} | T={result.cell.T} "
        f"phi_a={result.cell.phi_a} phi_b={result.cell.phi_b}"
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="16" text-anchor="middle" font-size="12">{title}</text>',
    ]
    if bins:
        ks = sorted(bins)
        lo, hi = min(ks + [result.true_date]), max(ks + [result.true_date])
        span = max(hi - lo, 1)
        peak = max(bins.values())
        bar_w = max((width - 2 * margin) / (span + 1), 1.0)
        for k, count in bins.items():
            x = margin + (k - lo) / span * (width - 2 * margin - bar_w)
            h = count / peak * (height - 2 * margin)
            color = "#c44" if k == result.true_date else "#468"
            parts.append(
                f'<rect x="{x:.2f}" y="{height - margin - h:.2f}" '
                f'width="{bar_w:.2f}" height="{h:.2f}" fill="{color}"/>'
            )
        x_true = margin + (result.true_date - lo) / span * (width - 2 * margin - bar_w)
        parts.append(
            f'<text x="{x_true:.2f}" y="{height - margin + 14}" font-size="10">k={result.true_date}</text>'
        )
    else:
        parts.append(
            f'<text x="{width / 2}" y="{height / 2}" text-anchor="middle" font-size="12">no estimates</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_draws_csv(path: str, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["draw", "value"])
        for i, v in enumerate(values):
            writer.writerow([i, repr(float(v))])


def write_draw_histogram_csv(path: str, values: np.ndarray, n_bins: int = 50) -> None:
    counts, edges = np.histogram(values, bins=n_bins)
    total = values.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count", "density"])
        for i, c in enumerate(counts):
            w = edges[i + 1] - edges[i]
            density = c / (total * w) if w > 0 and total > 0 else math.nan
            writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(c), f"{density:.8g}"])
