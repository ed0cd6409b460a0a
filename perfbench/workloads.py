"""The two benchmark workloads: inputs, requests and output checks.

Each workload is a closed loop of requests from one client process.  A
request is one ``bubbledate`` CLI invocation through ``cli.main(argv)``,
except on ``limitdist``, where it is one recovery call followed by one
emergence call.  Inputs come from the workload seed through the
benchmark's own code (``oracle.py``), never from ``bubbledate.simulate``,
so they stay fixed while the package changes.

There is no workload of single-series ``estimate --bic`` calls: on a
shared 2-vCPU host its per-run figures spread past their bound between runs
of the same code, and the time limit on all runs leaves room for runs long
enough to steady the figures only with two workloads.  Every layer such a
workload reaches is measured on ``mc-pool-bic``.
"""
from __future__ import annotations

import csv
import glob
import json
import os

import numpy as np

import oracle

# the baseline preset's sweep, restated so the benchmark checks the
# preset rather than trusting it
T_GRID = (400, 800)
PHI_A_GRID = (1.01, 1.05, 1.09)
PHI_B_GRID = (0.98, 0.96, 0.94)
PHI_A, PHI_B = 1.05, 0.96
DRIFT = 1.0 / 800.0
TARGETS = ("collapse", "emergence", "recovery")
CELLS = [cell for T in T_GRID
         for cell in [(T, pa, PHI_B) for pa in PHI_A_GRID] + [(T, PHI_A, pb) for pb in PHI_B_GRID]]
TRIM = 0.05
# The prefix-moment scans lose digits on strong bubbles, so at the parent
# commit about one replication in twelve of this cell is dated differently
# from the oracle (13 of 160 over ten seeds), and none of any other cell
# (0 of 1760).  Every other cell must match.  The allowance below (of the 8
# replications checked per cell) still fails that cell when it is dated
# wrong throughout.
ILL_CONDITIONED_CELL = (800, 1.09, PHI_B)
MAX_ILL_CONDITIONED_MISMATCH = 5


def sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class Problems(list):
    def expect(self, cond, message):
        if not cond:
            self.append(message)
        return cond


class Workload:
    name = ""
    group = 1  # requests per throughput sample
    trace_requests = 1  # fixed request count of a traced run
    workers = 1

    def __init__(self, work_dir: str, seed: int, nproc: int):
        self.dir = work_dir
        self.seed = seed

    def prepare(self) -> None:
        pass

    def warmup(self) -> list:
        """Argument lists run once, untimed, before measuring."""
        return []

    def request(self, i: int, phase: str) -> list:
        raise NotImplementedError

    def ops(self, i: int) -> int:
        raise NotImplementedError

    def check(self, results: list, phase: str, problems: Problems) -> dict:
        """Validate outputs of ``results``; returns counts for the report,
        including ``oracle_checked`` and ``oracle_mismatched``."""
        raise NotImplementedError

    def prefix_check(self, run, phase: str, problems: Problems) -> None:
        """Checks that need further CLI calls, made through ``run(argv)``."""

    def out(self, phase: str, name: str) -> str:
        """Output path ``name`` of a phase; the phase directory is created."""
        os.makedirs(os.path.join(self.dir, phase), exist_ok=True)
        return os.path.join(self.dir, phase, name)


# --------------------------------------------------------------------- mc


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class McPoolBic(Workload):
    """The volshift-up preset with BIC on, over a pool of min(2, nproc)
    workers; one replication is one op."""

    name = "mc-pool-bic"
    reps = 64
    errors_shift = (1.0, 3.0, 0.5)  # (sigma0, sigma1, tau_sigma) of a single volatility shift
    trace_requests = 3
    oracle_reps_per_cell = 8

    def __init__(self, work_dir, seed, nproc):
        super().__init__(work_dir, seed, nproc)
        self.workers = max(1, min(2, nproc))
        self.config_path = os.path.join(work_dir, "volshift-up-bic.json")

    def prepare(self):
        s0, s1, tau = self.errors_shift
        config = {
            "schema_version": 1,
            "name": "volshift-up-bic",
            "dgp": {**dict(zip(("tau_e", "tau_c", "tau_r"), oracle.TAUS)), "phi_a": PHI_A, "phi_b": PHI_B,
                    "T": 800, "y0": oracle.Y0, "drift_pre": DRIFT, "drift_post": DRIFT},
            "errors": {"kind": "volatility_scaled",
                       "profile": {"kind": "single_shift", "sigma0": s0, "sigma1": s1, "tau_sigma": tau}},
            "T_grid": list(T_GRID),
            "phi_a_grid": list(PHI_A_GRID),
            "phi_b_grid": list(PHI_B_GRID),
            "trimming": TRIM,
            "reps": self.reps,
            "base_seed": 0,
            "targets": list(TARGETS),
            "bic": True,
        }
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def warmup(self):
        return [["mc", "--config", self.config_path, "--reps", "8", "--seed", "0",
                 "--workers", str(self.workers), "--out", self.out("warmup", "mc")]]

    def request(self, i, phase):
        return [["mc", "--config", self.config_path, "--seed", str(sub_seed(self.seed, i)),
                 "--workers", str(self.workers), "--out", self.out(phase, f"r{i:05d}")]]

    def ops(self, i):
        return len(CELLS) * self.reps

    def errors(self, seed: int, T: int) -> np.ndarray:
        s0, s1, tau = self.errors_shift
        t = np.arange(1, T + 1, dtype=np.float64)
        return np.where(t / T > tau, s1, s0) * oracle.rep_normals(seed, self.reps, T)

    def check(self, results, phase, problems):
        for res in results:
            self._check_invariants(res.index, phase, problems)
        return self._reproduce(results[0].index, phase, problems)

    def _check_invariants(self, i, phase, problems):
        out = self.out(phase, f"r{i:05d}")
        rows = _read_csv(os.path.join(out, "summary.csv"))
        if not problems.expect(len(rows) == len(CELLS) * len(TARGETS),
                               f"request {i}: summary has {len(rows)} rows"):
            return
        for row in rows:
            (hist,) = glob.glob(os.path.join(out, f"cell{int(row['cell']):03d}_{row['target']}_T*.csv"))
            binned = sum(int(r["count"]) for r in _read_csv(hist))
            problems.expect(binned + int(row["unavailable"]) == self.reps == int(row["reps"]),
                            f"request {i}: {os.path.basename(hist)} bins+unavailable != reps")
        for row in _read_csv(os.path.join(out, "bic.csv")):
            total = sum(int(row[m]) for m in ("two_regime", "three_regime", "four_regime"))
            problems.expect(total + int(row["failed"]) == self.reps,
                            f"request {i}: bic counts+failed != reps")

    def _reproduce(self, i, phase, problems):
        """Rebuild request i's histograms and BIC tallies from independently
        generated paths and the package's per-series ``bic_select``, and date
        a seed-chosen subset of its replications by explicit residual sums."""
        from bubbledate.estimator import bic_select
        from bubbledate.types import BubbleDateError, Series, TrimmingPolicy

        out = self.out(phase, f"r{i:05d}")
        mc_seed = sub_seed(self.seed, i)
        rows = _read_csv(os.path.join(out, "summary.csv"))
        bic_rows = _read_csv(os.path.join(out, "bic.csv"))
        pick = np.random.default_rng(sub_seed(self.seed, i, 7))
        errors = {T: self.errors(mc_seed, T) for T in T_GRID}
        trimming = TrimmingPolicy(TRIM)
        checked = mismatched = 0
        for ci, (T, pa, pb) in enumerate(CELLS):
            paths = oracle.regime_paths(errors[T], pa, pb, DRIFT, DRIFT)
            dates, bins, unavailable = [], {t: {} for t in TARGETS}, {t: 0 for t in TARGETS}
            choice = {"two_regime": 0, "three_regime": 0, "four_regime": 0}
            failed = 0
            for y in paths:
                try:
                    report = bic_select(Series(y[1:], y0=float(y[0])), trimming)
                except BubbleDateError:
                    failed += 1
                    dates.append(None)
                    for t in TARGETS:
                        unavailable[t] += 1
                    continue
                est = report.estimates
                choice[report.chosen.value] += 1
                k = {"collapse": est.k_c_hat, "emergence": est.k_e_hat, "recovery": est.k_r_hat}
                dates.append((est.k_e_hat, est.k_c_hat, est.k_r_hat))
                for t in TARGETS:
                    if k[t] is None:
                        unavailable[t] += 1
                    else:
                        bins[t][k[t]] = bins[t].get(k[t], 0) + 1
            truth = dict(zip(("emergence", "collapse", "recovery"), oracle.break_indices(T)))
            for ti, t in enumerate(TARGETS):
                row = rows[ci * len(TARGETS) + ti]
                label = f"request {i} cell {ci} {t}"
                problems.expect(
                    (int(row["T"]), float(row["phi_a"]), float(row["phi_b"]), row["target"],
                     int(row["true_date"])) == (T, pa, pb, t, truth[t]),
                    f"{label}: summary row {row} is not the expected cell")
                (hist,) = glob.glob(os.path.join(out, f"cell{ci * len(TARGETS) + ti:03d}_{t}_T*.csv"))
                got = {int(r["k"]): int(r["count"]) for r in _read_csv(hist)}
                problems.expect(got == bins[t], f"{label}: histogram differs from reproduction")
                problems.expect(int(row["unavailable"]) == unavailable[t],
                                f"{label}: unavailable differs from reproduction")
                problems.expect(row["hit_frequency"] == f"{bins[t].get(truth[t], 0) / self.reps:.6f}",
                                f"{label}: hit_frequency differs from reproduction")
            got = {m: int(bic_rows[ci][m]) for m in choice}
            problems.expect(got == choice and int(bic_rows[ci]["failed"]) == failed,
                            f"request {i} cell {ci}: bic tally differs from reproduction")
            cell_checked = cell_mismatched = 0
            for r in pick.permutation(self.reps)[: self.oracle_reps_per_cell]:
                if dates[r] is not None:
                    cell_checked += 1
                    cell_mismatched += oracle.oracle_dates(paths[r, 1:], float(paths[r, 0]), TRIM) != dates[r]
            allowed = MAX_ILL_CONDITIONED_MISMATCH if (T, pa, pb) == ILL_CONDITIONED_CELL else 0
            problems.expect(cell_mismatched <= allowed,
                            f"request {i} cell {ci}: {cell_mismatched} of {cell_checked} "
                            f"replications differ from the oracle")
            checked += cell_checked
            mismatched += cell_mismatched
        return {"oracle_checked": checked, "oracle_mismatched": mismatched}


# -------------------------------------------------------------- limitdist


class LimitDist(Workload):
    """Recovery draws with an MA(1) correction alternating with emergence
    draws, at the default discretization."""

    name = "limitdist"
    group = 10
    trace_requests = 100
    draws = 20
    v_max = 50.0

    def _calls(self, i, phase, draws):
        seed = str(sub_seed(self.seed, i))
        return [
            ["limitdist", "recovery", "--cb", "1.0", "--psi", "1,0.5", "--draws", str(draws),
             "--seed", seed, "--out", self.out(phase, f"r{i:05d}_rec")],
            ["limitdist", "emergence", "--tau-e", "0.4", "--draws", str(draws),
             "--seed", seed, "--out", self.out(phase, f"r{i:05d}_eme")],
        ]

    def warmup(self):
        return self._calls(0, "warmup", 2)

    def request(self, i, phase):
        return self._calls(i, phase, self.draws)

    def ops(self, i):
        return 2 * self.draws

    def _draws(self, prefix):
        with open(prefix + "_draws.csv", newline="") as fh:
            return [r["value"] for r in csv.DictReader(fh)]

    def check(self, results, phase, problems):
        for res in results:
            for argv, text in zip(self.request(res.index, phase), res.stdout):
                prefix = argv[-1]
                values = np.array([float(v) for v in self._draws(prefix)])
                summary = json.loads(text)
                problems.expect(values.size == self.draws == summary["draws"],
                                f"{prefix}: {values.size} draws")
                problems.expect(bool(np.all(np.isfinite(values)) and np.all(np.abs(values) <= self.v_max)),
                                f"{prefix}: draw not finite or outside +-{self.v_max}")
                with open(prefix + "_hist.csv", newline="") as fh:
                    binned = sum(int(r["count"]) for r in csv.DictReader(fh))
                problems.expect(binned == self.draws, f"{prefix}: histogram counts {binned}")
        return {"oracle_checked": 0, "oracle_mismatched": 0}

    def prefix_check(self, run, phase, problems):
        """A shorter batch at the same seed must equal the head of a longer one."""
        short = self.draws - 3
        for long_argv, short_argv in zip(self.request(0, phase), self._calls(0, "prefix", short)):
            run(short_argv)
            problems.expect(self._draws(short_argv[-1]) == self._draws(long_argv[-1])[:short],
                            f"{short_argv[1]}: {short} draws are not a prefix of {self.draws}")


WORKLOADS = {w.name: w for w in (McPoolBic, LimitDist)}
