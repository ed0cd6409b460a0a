"""File formats: CSV ingestion and output, JSON configs, SVG histograms.

Every file the package reads goes through ``read_text``, as UTF-8.  CSV is
the only ingestion format.  A header row is required; where a row would
start, a blank line or a comment, whose text starts with ``#`` after any
spaces, is skipped, which lets simulated output (carrying its generator
settings in a comment) round-trip back into estimation.  Header names and
values are read with surrounding spaces ignored; labels are read as
written, spaces included.  A row whose first field is quoted is data, and
so is every later line of a quoted field, so a label may start with ``#``.

Every file the package writes goes through ``write_text``: CSV through
``write_csv``, which ends each line with ``\\r\\n`` and writes numbers by
``str`` (a float's shortest repr that reads back to the same bits), and
JSON through ``write_json`` (indent 2, sorted keys, final newline).  Only
series labels are quoted, as the csv module quotes them (in double quotes,
quotes doubled) when they hold a comma, a double quote or a line break,
and also when they start with ``#`` after any spaces.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Union

import numpy as np

from .dgp import ErrorSpec, IidGaussian, VolatilityScaled
from .estimator import ModelChoice
from .montecarlo import ExperimentConfig, HistogramResult, Target
from .types import (
    BubbleDateError,
    ConfigError,
    DgpConfig,
    LinearProcess,
    Series,
    SingleShiftVolatility,
    TrimmingPolicy,
    validate_series,
)

__all__ = [
    "SCHEMA_VERSION",
    "IngestSpec",
    "IngestError",
    "read_text",
    "read_series",
    "write_text",
    "write_csv",
    "write_json",
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
# size in pixels of the --svg histograms, and bins of the limitdist histogram file
SVG_WIDTH, SVG_HEIGHT = 640, 320
DRAW_HISTOGRAM_BINS = 50


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


def read_text(path: str) -> str:
    """The text of the UTF-8 file at path, less any BOM, line endings as written; the package's one file read."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot open {path}: {exc}") from None


def read_series(spec: IngestSpec) -> Series:
    """Read and validate one series; raises IngestError with file context."""
    if len(spec.delimiter) != 1:
        raise IngestError(f"delimiter must be a single character, got {spec.delimiter!r}")
    text = read_text(spec.path)
    start = None  # number of the line the row being parsed starts on, None between rows

    def lines():
        """The lines of text, less comment and blank lines where a row would start: a quoted field can span lines."""
        nonlocal start
        for number, line in enumerate(io.StringIO(text, newline=""), 1):
            if start is None:
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                start = number
            yield line

    header = None
    values = []
    labels = []
    try:
        for row in csv.reader(lines(), delimiter=spec.delimiter):
            lineno, start = start, None
            if header is None:
                header = [c.strip() for c in row]
                v_idx = _resolve_column(header, spec.value_column, "value")
                d_idx = None if spec.date_column is None else _resolve_column(header, spec.date_column, "date")
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
                labels.append(row[d_idx])
    except csv.Error as exc:
        raise IngestError(f"{spec.path}, line {start}: {exc}") from None
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


def write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8 with no newline translation; the package's one file write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path: str, rows, head: str = "") -> None:
    """Write head, then each row as its fields' ``str`` joined by ``,`` and ended by ``\\r\\n``."""
    write_text(path, head + "".join(",".join(map(str, row)) + "\r\n" for row in rows))


def write_json(payload: dict, path: Optional[str] = None) -> None:
    """Write payload as strict JSON (no NaN or Infinity) to path, or to standard output when path is None."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        print(text, end="")
    else:
        write_text(path, text)


def _quoted(label: str) -> str:
    """label quoted, quotes doubled, if it holds a comma, quote or line break or starts with ``#``."""
    if any(c in label for c in ',"\r\n') or label.lstrip().startswith("#"):
        return '"' + label.replace('"', '""') + '"'
    return label


def write_series_csv(path: str, series: Series, metadata: Optional[dict] = None) -> None:
    """Write a series in the ingestion format, with optional `# dgp:` comment."""
    head = "" if metadata is None else f"# dgp: {json.dumps(metadata, sort_keys=True)}\n"
    values = series.values.tolist()
    if series.labels is None:
        write_csv(path, [("value",), *zip(values)], head)
    else:
        write_csv(path, [("date", "value"), *zip(map(_quoted, series.labels), values)], head)


def _object(data, what: str) -> dict:
    """data, after checking that it is a JSON object."""
    if not isinstance(data, dict):
        raise ConfigError([f"{what} must be a JSON object, got {data!r}"])
    return data


def _reject_unknown_keys(data: dict, known, what: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError([f"{what}: unknown key(s) {', '.join(map(repr, unknown))}"])


_ERROR_KINDS = {"iid_gaussian": IidGaussian, "volatility_scaled": VolatilityScaled,
                "linear_process": LinearProcess}
_PROFILE_KINDS = {"single_shift": SingleShiftVolatility}


# Fields whose JSON form differs in structure from the field: (reader(value), writer(value)).  The targets reader
# turns each target name into its Target member; anything else passes as read, for ExperimentConfig to reject.
_CODECS = {
    "profile": (lambda v: _read_kind(_PROFILE_KINDS, v, "volatility profile"), lambda p: _write_kind(_PROFILE_KINDS, p)),
    "trimming": (TrimmingPolicy, lambda t: t.rho),
    "targets": (lambda v: [next((t for t in Target if t.value == x), x) for x in v] if isinstance(v, list) else v,
                lambda ts: [t.value for t in ts]),
}


def _build(cls, data, what: str):
    """Build the dataclass cls from the JSON object data, raising ConfigError on any fault.

    Keys are cls's field names, defaults the fields' own.  A field in _CODECS
    is read by its codec; any other value is passed as read, and cls checks it.
    """
    known = {f.name: f for f in fields(cls)}
    _reject_unknown_keys(_object(data, what), known, what)
    missing = [k for k, f in known.items() if k not in data and f.default is MISSING]
    if missing:
        raise ConfigError([f"{what}: missing key(s) {', '.join(map(repr, missing))}"])
    return cls(**{k: _CODECS[k][0](v) if k in _CODECS else v for k, v in data.items()})


def _to_dict(obj) -> dict:
    """The JSON object of a dataclass, each field in its JSON form under its name."""
    return {
        f.name: _CODECS[f.name][1](v) if f.name in _CODECS else v
        for f in fields(obj) for v in [getattr(obj, f.name)]
    }


def _read_kind(kinds: dict, data, what: str, default=None):
    """Build the class that data's ``kind`` names in kinds from data's other keys."""
    kind = _object(data, what).get("kind", default)
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError([f"unknown {what} kind {kind!r}; expected one of {', '.join(kinds)}"])
    return _build(kinds[kind], {k: v for k, v in data.items() if k != "kind"}, f"{kind} {what}")


def _write_kind(kinds: dict, obj) -> dict:
    kind = next((k for k, cls in kinds.items() if type(obj) is cls), None)
    if kind is None:
        raise ConfigError([f"unsupported config object: {type(obj).__name__}"])
    return {"kind": kind, **_to_dict(obj)}


def dgp_config_to_dict(config: DgpConfig) -> dict:
    return _to_dict(config)


def dgp_config_from_dict(data: dict) -> DgpConfig:
    return _build(DgpConfig, data, "dgp config")


def error_spec_to_dict(spec: ErrorSpec) -> dict:
    return _write_kind(_ERROR_KINDS, spec)


def error_spec_from_dict(data: dict) -> ErrorSpec:
    return _read_kind(_ERROR_KINDS, data, "error spec", default="iid_gaussian")


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    return {**_to_dict(config), "schema_version": SCHEMA_VERSION,
            "dgp": dgp_config_to_dict(config.dgp), "errors": error_spec_to_dict(config.errors)}


def _read_top_level(data, what: str) -> dict:
    """The keys after the schema check, with dgp and errors (default iid_gaussian) read."""
    version = _object(data, what).get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError([f"{what}: unsupported schema_version {version!r}; "
                           f"this build reads version {SCHEMA_VERSION}"])
    if "dgp" not in data:
        raise ConfigError([f"{what} requires a dgp section"])
    body = {k: v for k, v in data.items() if k != "schema_version"}
    body.update(dgp=dgp_config_from_dict(data["dgp"]), errors=error_spec_from_dict(data.get("errors", {})))
    return body


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    body = _read_top_level(data, "experiment config")
    return _build(ExperimentConfig, {"T_grid": [body["dgp"].T], **body}, "experiment config")


def _load_json(path: str) -> dict:
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: invalid JSON: {exc}") from None


def load_simulation_config(path: str) -> tuple:
    """Read a {schema_version, dgp, errors} JSON file."""
    body = _read_top_level(_load_json(path), "simulation config")
    _reject_unknown_keys(body, ("dgp", "errors"), "simulation config")
    return body["dgp"], body["errors"]


def load_experiment_config(path: str) -> ExperimentConfig:
    return experiment_config_from_dict(_load_json(path))


def write_histogram_csv(path: str, result: HistogramResult) -> None:
    c = result.cell
    write_csv(path, [("T", "phi_a", "phi_b", "target", "true_date", "k", "count"),
                     *((c.T, c.phi_a, c.phi_b, result.target.value, result.true_date, k, count)
                       for k, count in result.bins.items())])


def write_summary_csv(path: str, results: list) -> None:
    write_csv(path, [("cell", "T", "phi_a", "phi_b", "target", "true_date", "reps", "unavailable", "hit_frequency"),
                     *((i, r.cell.T, r.cell.phi_a, r.cell.phi_b, r.target.value, r.true_date,
                        r.reps, r.unavailable, f"{r.hit_frequency:.6f}") for i, r in enumerate(results))])


def write_bic_csv(path: str, tallies: list) -> None:
    write_csv(path, [("T", "phi_a", "phi_b", *(m.value for m in ModelChoice), "failed", "reps"),
                     *((t.cell.T, t.cell.phi_a, t.cell.phi_b, *(t.counts[m] for m in ModelChoice), t.failed, t.reps)
                       for t in tallies)])


def histogram_svg(result: HistogramResult) -> str:
    """Static SVG bar chart of one cell histogram, SVG_WIDTH by SVG_HEIGHT; no plotting dependency."""
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 40
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
    write_csv(path, [("draw", "value"), *enumerate(values.tolist())])


def write_draw_histogram_csv(path: str, values: np.ndarray) -> None:
    counts, edges = np.histogram(values, bins=DRAW_HISTOGRAM_BINS)
    total = values.shape[0]
    edges = edges.tolist()
    rows = [("bin_lo", "bin_hi", "count", "density")]
    for lo, hi, c in zip(edges, edges[1:], counts.tolist()):
        w = hi - lo
        density = c / (total * w) if w > 0 and total > 0 else math.nan
        rows.append((lo, hi, c, f"{density:.8g}"))
    write_csv(path, rows)
