"""Command-line interface.

Four subcommands: ``estimate`` dates bubble episodes in a CSV series,
``simulate`` writes one synthetic path, ``mc`` runs a Monte Carlo
experiment, and ``limitdist`` samples the limit laws of the date
estimators.  Stochastic commands require an explicit --seed; estimation is
deterministic and takes none.

Exit codes: 0 on success, 2 for invalid inputs or configuration or an
output path that cannot be written, 3 when a requested break date could
not be estimated (partial results are still written).
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import dataio
from .asymptotics import (
    Discretization,
    bn_decompose,
    emergence_limit_draws,
    recovery_limit_draws,
)
from .dgp import simulate
from .estimator import bic_select, estimate_dates
from .montecarlo import PRESET_NAMES, preset, run_experiment
from .types import (
    BubbleDateError,
    ConfigError,
    LinearProcess,
    SeriesValidationError,
    TrimmingPolicy,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNAVAILABLE = 3


@functools.cache  # built once per process: building costs about a millisecond, parsing reuses it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubbledate",
        description="Date the emergence, collapse and recovery of bubble episodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate break dates from a CSV series")
    p_est.add_argument("input", help="CSV file with a header row")
    p_est.add_argument("--value-column", default="value", help="value column name or 0-based index")
    p_est.add_argument("--date-column", default=None, help="optional date column name or 0-based index")
    p_est.add_argument("--delimiter", default=",")
    p_est.add_argument("--log", action="store_true", help="estimate on the natural log of the values")
    p_est.add_argument("--trim", type=float, default=TrimmingPolicy.rho, help="trimming fraction (default %(default)s)")
    p_est.add_argument("--bic", action="store_true", help="also compare 2/3/4-regime fits by BIC")
    p_est.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p_est.add_argument("--curves-out", default=None, help="directory for per-step SSR curve CSVs")

    p_sim = sub.add_parser("simulate", help="simulate one path from a JSON config")
    p_sim.add_argument("--config", required=True, help="JSON file with dgp and errors sections")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True, help="output CSV path")

    p_mc = sub.add_parser("mc", help="run a Monte Carlo experiment")
    src = p_mc.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--config", help="experiment config JSON")
    p_mc.add_argument("--reps", type=int, default=None, help="override replication count")
    p_mc.add_argument("--seed", type=int, required=True, help="base seed for all replications")
    p_mc.add_argument("--out", required=True, help="output directory")
    p_mc.add_argument("--svg", action="store_true", help="also write an SVG histogram per cell")
    p_mc.add_argument("--workers", type=int, default=1)

    p_lim = sub.add_parser("limitdist", help="sample a break-date limit distribution")
    p_lim.add_argument("law", choices=["recovery", "emergence"])
    # each option sets one law; cmd_limitdist rejects the other law's, so they default to None (not given)
    p_lim.add_argument("--cb", type=float, default=None, help="collapse intensity c_b (recovery law, default 1.0)")
    p_lim.add_argument("--tau-e", type=float, default=None, help="emergence fraction (emergence law, default 0.4)")
    p_lim.add_argument(
        "--psi", default=None,
        help="comma-separated filter coefficients enabling the serial-correlation penalty correction (recovery law)",
    )
    p_lim.add_argument("--draws", type=int, default=10_000)
    p_lim.add_argument("--seed", type=int, required=True)
    p_lim.add_argument("--step", type=float, default=Discretization.step, help="grid spacing (standard units for recovery)")
    p_lim.add_argument("--vmax", type=float, default=Discretization.v_max,
                       help="argmax window half-width (standard units for recovery, natural window vmax / cb)")
    p_lim.add_argument("--out", required=True, help="output file prefix")
    return parser


def _break_payload(k, reason, rng, labels) -> dict:
    if k is None:
        return {"index": None, "unavailable": reason.value, "range": list(rng) if rng else None}
    out = {"index": int(k), "range": list(rng) if rng else None}
    if labels is not None:
        out["label"] = labels[k - 1]
    return out


def _number(x):
    """x as a JSON number, or None (null) where it is not finite."""
    return float(x) if math.isfinite(x) else None


def _column(ref):
    """A --value-column/--date-column argument: a 0-based index if it reads as an integer, else a name."""
    return int(ref) if ref is not None and ref.lstrip("-").isdigit() else ref


def cmd_estimate(args) -> int:
    spec = dataio.IngestSpec(
        path=args.input,
        value_column=_column(args.value_column),
        date_column=_column(args.date_column),
        log_transform=args.log,
        delimiter=args.delimiter,
    )
    series = dataio.read_series(spec)
    trimming = TrimmingPolicy(args.trim)
    report = bic_select(series, trimming) if args.bic else None
    est = report.estimates if args.bic else estimate_dates(series, trimming)
    labels = series.labels
    payload = {
        "schema_version": dataio.SCHEMA_VERSION,
        "input": {"path": args.input, "log": args.log, "T": series.T},
        "trimming": trimming.rho,
        "breaks": {
            "collapse": _break_payload(est.k_c_hat, None, est.range_c, labels),
            "emergence": _break_payload(est.k_e_hat, est.unavailable_reason_e, est.range_e, labels),
            "recovery": _break_payload(est.k_r_hat, est.unavailable_reason_r, est.range_r, labels),
        },
    }
    if args.bic:
        payload["bic"] = {
            "values": {m.value: _number(v) for m, v in report.bic.items()},
            "chosen": report.chosen.value,
            "dates": {m.value: (list(d) if d else None) for m, d in report.dates.items()},
            "n_obs": report.n_obs,
        }
    if args.curves_out:
        os.makedirs(args.curves_out, exist_ok=True)
        for name, curve in (
            ("collapse", est.ssr_curve_c),
            ("emergence", est.ssr_curve_e),
            ("recovery", est.ssr_curve_r),
        ):
            if curve is None:
                continue
            dataio.write_csv(os.path.join(args.curves_out, f"ssr_{name}.csv"),
                             [("k", "ssr"), *((int(k), ssr) for k, ssr in curve.tolist())])
    dataio.write_json(payload, args.out)
    if est.k_e_hat is None or est.k_r_hat is None:
        return EXIT_UNAVAILABLE
    return EXIT_OK


def cmd_simulate(args) -> int:
    dgp, errors = dataio.load_simulation_config(args.config)
    series = simulate(dgp, errors, args.seed)
    metadata = {
        "schema_version": dataio.SCHEMA_VERSION,
        "dgp": dataio.dgp_config_to_dict(dgp),
        "errors": dataio.error_spec_to_dict(errors),
        "seed": args.seed,
        "y0": series.y0,
        "true_breaks": list(dgp.break_indices),
    }
    dataio.write_series_csv(args.out, series, metadata=metadata)
    print(f"wrote {series.T} observations to {args.out}")
    return EXIT_OK


def cmd_mc(args) -> int:
    config = preset(args.preset) if args.preset else dataio.load_experiment_config(args.config)
    overrides = {"base_seed": args.seed}
    if args.reps is not None:
        overrides["reps"] = args.reps
    config = replace(config, **overrides)
    os.makedirs(args.out, exist_ok=True)  # before the run, which an unusable --out would waste
    result = run_experiment(config, workers=args.workers)
    dataio.write_json(dataio.experiment_config_to_dict(config), os.path.join(args.out, "experiment.json"))
    dataio.write_summary_csv(os.path.join(args.out, "summary.csv"), result.histograms)
    for i, hist in enumerate(result.histograms):
        stem = f"cell{i:03d}_{hist.target.value}_T{hist.cell.T}_a{hist.cell.phi_a}_b{hist.cell.phi_b}"
        dataio.write_histogram_csv(os.path.join(args.out, stem + ".csv"), hist)
        if args.svg:
            dataio.write_text(os.path.join(args.out, stem + ".svg"), dataio.histogram_svg(hist))
    if result.bic_tallies:
        dataio.write_bic_csv(os.path.join(args.out, "bic.csv"), result.bic_tallies)
    print(f"wrote {len(result.histograms)} cell histograms to {args.out}")
    return EXIT_OK


def cmd_limitdist(args) -> int:
    for flag, value, law in (("--cb", args.cb, "recovery"), ("--psi", args.psi, "recovery"),
                             ("--tau-e", args.tau_e, "emergence")):
        if value is not None and law != args.law:
            raise ConfigError([f"{flag} sets the {law} law only, not the {args.law} law"])
    c_b = 1.0 if args.cb is None else args.cb
    tau_e = 0.4 if args.tau_e is None else args.tau_e
    correction = LinearProcess((1.0,))
    if args.psi is not None:
        try:
            correction = LinearProcess(tuple(float(x) for x in args.psi.split(",")))
        except ValueError:
            raise ConfigError([f"cannot parse --psi {args.psi!r} as comma-separated numbers"]) from None
    disc = Discretization(step=args.step, v_max=args.vmax)
    if args.law == "recovery":
        sample = recovery_limit_draws(c_b, draws=args.draws, disc=disc, seed=args.seed, correction=correction)
    else:
        sample = emergence_limit_draws(tau_e, draws=args.draws, disc=disc, seed=args.seed)
    values, scale = sample.values, (c_b if args.law == "recovery" else 1.0)
    dataio.write_draws_csv(args.out + "_draws.csv", values)
    dataio.write_draw_histogram_csv(args.out + "_hist.csv", values)
    with np.errstate(over="ignore", invalid="ignore"):  # quantiles and the std can pass the float64 limit
        q = [_number(x) for x in np.quantile(values, [0.1, 0.25, 0.5, 0.75, 0.9])]
        # the draws scaled by 2^-e lie in [-1, 1] and keep every bit, so the largest squares neither overflow nor underflow
        e = int(np.frexp(np.abs(values).max())[1])
        scaled = np.ldexp(values, -e)
        mean = np.ldexp(scaled.mean(), e)
        std = np.ldexp(scaled.std(ddof=1), e) if values.shape[0] > 1 else math.nan
    summary = {
        "law": args.law,
        "draws": int(values.shape[0]),
        "rejections": sample.rejections,
        "discretization": asdict(disc),
        "mean": _number(mean),
        "std": _number(std),
        "quantiles": {"q10": q[0], "q25": q[1], "q50": q[2], "q75": q[3], "q90": q[4]},
        "window_edge_share": float(np.mean(np.abs(values) * scale >= 0.9 * disc.v_max)),
    }
    if args.law == "recovery":
        summary["c_b"] = c_b
        if args.psi is not None:
            summary["psi_check"] = bn_decompose(correction).psi_check
    else:
        summary["tau_e"] = tau_e
    dataio.write_json(summary)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": cmd_estimate,
        "simulate": cmd_simulate,
        "mc": cmd_mc,
        "limitdist": cmd_limitdist,
    }
    try:
        return handlers[args.command](args)
    except (SeriesValidationError, ConfigError, dataio.IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BubbleDateError as exc:
        # estimation-layer failure: a scan could not produce an estimate
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except OSError as exc:
        # inputs are read through dataio, which reports them as IngestError,
        # so this is an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
