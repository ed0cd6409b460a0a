"""Benchmark of the bubbledate CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/``
and driven in-process through ``bubbledate.cli.main(argv)``, one request
at a time (a closed loop with one client).  Workloads:

* ``mc-pool-bic``: the volshift-up preset with BIC on, ``--reps 64`` over
  a pool of min(2, nproc) workers; one replication is one op.
* ``limitdist``: a recovery call (``--psi 1,0.5``) then an emergence call,
  20 draws each at the default discretization; one draw is one op.

With ``--trace 0`` the loop runs for ``--seconds`` of wall time and
reports the end-to-end metrics:

* ``throughput_per_s``: the median of the ops per second of consecutive
  request groups (one request on ``mc-pool-bic``, ten on ``limitdist``);
* ``latency_p50_ms``: the median per-request wall time;
* ``peak_rss_mb``: the peak resident set of this process; with a worker
  pool, the median over requests of each request's peak summed PSS of this
  process and its workers, so that pages the forked workers share with
  this process count once;
* ``setup_s``: the median wall time of fresh interpreters importing
  ``bubbledate.cli``, one taken before the first request and one after
  every ``SETUP_EVERY_S`` seconds of requests, so that the samples span the
  run (about ten in 56 s, leaving three quarters of the run to requests).

On a shared host whose speed drifts between runs and dips for seconds
within one, the medians repeat best: in trial runs on a 2-vCPU host, the
90th latency percentile and the 10th throughput percentile spread by a
quarter to two thirds between runs in a rough hour in which the medians
spread by at most a sixth.  ``latency_p90_ms`` and ``latency_p99_ms`` are
printed on the report line, with their sample counts.  Every request's
outputs are checked after the loop.

With ``--trace 1`` a fixed, seed-determined list of requests (its length
is set per workload; ``--seconds`` is not used) runs with each request
untraced and traced back to back (see ``tracing.py``); outputs of the two
must be bit-identical.  The per-layer metrics come from the traced replay; on
``mc-pool-bic`` that replay uses one worker and a pooled untraced replay
gives ``montecarlo.parallel_efficiency``.  Metrics of a layer a workload
does not reach read 0.

The last line of stdout is the result object; the line before it carries
provenance, sample counts, ``error_frac`` and ``oracle_mismatch_frac``.
Exit status is 1 when an output check fails and 2 when the package source
is missing.
"""
import os

# pin BLAS/OpenMP pools before numpy loads, here and in child interpreters
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# exit codes of a successful call; 3 means a date was unavailable and the
# partial report was still written
OK_CODES = (0, 3)
# An import takes about 1.4 s, so at this interval the requests keep about
# three quarters of the run.
SETUP_EVERY_S = 4.0
PSS_INTERVAL_S = 0.1
IMPORTTIME_REPEATS = 3


@dataclass
class Result:
    index: int
    codes: list
    stdout: list


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # an op that raised counts as failed; the loop goes on
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def _run_request(cli, wl, i, phase):
    codes, texts = [], []
    for argv in wl.request(i, phase):
        code, text = _call(cli, argv)
        codes.append(code)
        texts.append(text)
    return Result(i, codes, texts)


def _replay(cli, wl, count, phase):
    start = time.perf_counter()
    results = [_run_request(cli, wl, i, phase) for i in range(count)]
    return results, time.perf_counter() - start


def _measure(cli, wl, seconds, pss):
    """Requests for ``seconds`` of wall time, with fresh-interpreter imports
    spread between them; returns results, request and import wall times."""
    results, latencies, setup = [], [], []
    start = time.perf_counter()
    since_setup = SETUP_EVERY_S
    while True:
        if since_setup >= SETUP_EVERY_S:
            setup.append(_setup_seconds())
            since_setup = 0.0
        pss.begin()
        t0 = time.perf_counter()
        results.append(_run_request(cli, wl, len(results), "measure"))
        t1 = time.perf_counter()
        pss.end()
        latencies.append(t1 - t0)
        since_setup += t1 - t0
        if t1 - start >= seconds:
            return results, latencies, setup


def _percentile(values, pct):
    """Inclusive-method percentile ``pct`` (an integer 1..99) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _group_rates(wl, latencies):
    """Ops per second of each run of ``wl.group`` consecutive requests."""
    g = min(wl.group, len(latencies))
    rates = []
    for lo in range(0, len(latencies) - g + 1, g):
        ops = sum(wl.ops(i) for i in range(lo, lo + g))
        rates.append(ops / sum(latencies[lo:lo + g]))
    return rates


def _pss_kb(pid):
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:  # the process has ended
        pass
    return 0


def _children():
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids += fh.read().split()
        except OSError:  # the thread has ended
            pass
    return pids


class PssPeak(threading.Thread):
    """Peak summed PSS of this process and its children during each request,
    sampled every ``PSS_INTERVAL_S``.  A thread, because the main thread is
    inside ``cli.main`` while the pool workers live; it samples only
    between ``begin`` and ``end``, so the import-timing interpreters are
    never counted."""

    def __init__(self):
        super().__init__(daemon=True)
        self.lock = threading.Lock()
        self.on = False
        self.peaks_kb = []  # one per request
        self.stopped = threading.Event()

    def begin(self):
        with self.lock:
            self.peaks_kb.append(0)
            self.on = True

    def end(self):
        with self.lock:
            self.on = False

    def run(self):
        while not self.stopped.wait(PSS_INTERVAL_S):
            with self.lock:
                if self.on:
                    total = sum(_pss_kb(pid) for pid in ("self", *_children()))
                    self.peaks_kb[-1] = max(self.peaks_kb[-1], total)

    def stop(self):
        self.stopped.set()
        if self.is_alive():
            self.join()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_seconds():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bubbledate.cli"], env=_child_env(),
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _import_breakdown():
    """Median self import time per top-level package, from ``-X importtime``."""
    samples = {"numpy": [], "scipy": [], "bubbledate": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bubbledate.cli"],
                              env=_child_env(), cwd=ROOT, check=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in totals:
                totals[top] += float(self_us) * 1e-6
        for key in samples:
            samples[key].append(totals[key])
    return {key: statistics.median(v) for key, v in samples.items()}


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree(path):
    files = {}
    for base, _, names in os.walk(path):
        for name in names:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, path)] = fh.read()
    return files


def _failed_ops(wl, results):
    return sum(wl.ops(r.index) for r in results if any(c not in OK_CODES for c in r.codes))


def _check(wl, results, phase, problems):
    ok = [r for r in results if all(c in OK_CODES for c in r.codes)]
    if not ok:
        problems.append("no request succeeded")
        return {"oracle_checked": 0, "oracle_mismatched": 0}
    try:
        return wl.check(ok, phase, problems)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"reading outputs failed: {type(exc).__name__}: {exc}")
        return {"oracle_checked": 0, "oracle_mismatched": 0}


def _layer_metrics(summary, ops, overhead_s, efficiency, imports, checks):
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    layer = summary["layer_self_s"]
    cells = counts["montecarlo.cells"]
    draws = counts["asymptotics.draws"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for fn in ("rng.stream", "dgp.generate_errors", "dgp.batch_paths", "estimator.estimate_dates",
               "estimator.bic_select", "estimator.build_prefix_moments", "asymptotics.lfilter"):
        put(f"{fn}.calls", calls[fn], "count")
        put(f"{fn}.self_s", self_s[fn], "s")
    for name in ("dgp.batch_paths.rows", "dgp.batch_paths.loop_steps", "estimator.candidates",
                 "estimator.unavailable", "montecarlo.bic_failed"):
        put(name, counts[name], "count")
    put("dgp.batch_paths.bytes_computed", counts["dgp.batch_paths.bytes_computed"], "B")
    put("estimator.fit_segment.calls", calls["estimator.fit_segment"], "count")
    for fn in ("estimate_dates", "build_prefix_moments", "fit_segment"):
        put(f"estimator.{fn}.per_op", calls[f"estimator.{fn}"] / ops, "count/op")
    put("estimator.self_s", layer["estimator"], "s")
    put("montecarlo.run_experiment.wall_s", summary["wall_s"]["montecarlo.run_experiment"], "s")
    put("montecarlo.self_s", layer["montecarlo"], "s")
    put("montecarlo.distinct_cell_ratio", counts["montecarlo.distinct_cells"] / cells if cells else 0.0, "ratio")
    put("montecarlo.parallel_efficiency", efficiency, "ratio")
    put("dataio.write.self_s", sum(v for k, v in self_s.items() if k.startswith("dataio.write_")), "s")
    put("dataio.bytes_written", summary["bytes_written"], "B")
    put("cli.main.self_s", layer["cli"], "s")
    put("asymptotics.recovery_limit_draws.self_s", self_s["asymptotics.recovery_limit_draws"], "s")
    put("asymptotics.emergence_limit_draws.self_s", self_s["asymptotics.emergence_limit_draws"], "s")
    put("asymptotics.accept_ratio", draws / (draws + counts["asymptotics.rejections"]) if draws else 0.0,
        "ratio")
    for pkg, seconds in imports.items():
        put(f"setup.import_s.{pkg}", seconds, "s")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.ops", ops, "count")
    put("check.oracle_checked", checks["oracle_checked"], "count")
    put("check.oracle_mismatched", checks["oracle_mismatched"], "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bubbledate", "cli.py")):
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from bubbledate import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = workloads.WORKLOADS[args.workload](work_dir, args.seed, nproc)
    problems = workloads.Problems()
    report = {
        "provenance": {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "workers": wl.workers, "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": _commit(),
            "machine": platform.machine(),
        },
    }
    try:
        os.makedirs(work_dir)
        wl.prepare()
        for argv in wl.warmup():
            _call(cli, argv)
        if args.trace:
            results, metrics = _traced(cli, wl, problems, report, args)
        else:
            results, metrics = _untraced(cli, wl, problems, report, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(wl.ops(r.index) for r in results)
    failed = _failed_ops(wl, results)
    report["error_frac"] = failed / attempted
    report["problems"] = problems[:20]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 1 if problems else 0


def _untraced(cli, wl, problems, report, args):
    pss = PssPeak()
    if wl.workers > 1:
        pss.start()
    try:
        results, latencies, setup = _measure(cli, wl, args.seconds, pss)
    finally:
        pss.stop()
    if wl.workers > 1:
        # about one request in 25 peaks a third higher (none did after a
        # gc.freeze() in the parent, so most likely a worker's garbage
        # collector copying the parent's object pages); the median request's
        # peak repeats between runs, the run's peak does not
        peak_rss = statistics.median(kb for kb in pss.peaks_kb if kb) / 1024.0
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rates = _group_rates(wl, latencies)
    checks = _check(wl, results, "measure", problems)
    wl.prefix_check(lambda argv: _call(cli, argv), "measure", problems)
    ms = sorted(x * 1e3 for x in latencies)
    report.update({
        "requests": len(latencies),
        "throughput_groups": len(rates),
        "latency_p90_ms": _percentile(ms, 90),
        "latency_p99_ms": _percentile(ms, 99),
        "latency_samples_beyond_p90": len(ms) // 10,
        "latency_samples_beyond_p99": len(ms) // 100,
        "setup_samples": len(setup),
        "checks": checks,
        "oracle_mismatch_frac": (checks["oracle_mismatched"] / checks["oracle_checked"]
                                 if checks["oracle_checked"] else None),
    })
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "throughput_per_s": {"value": statistics.median(rates), "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }
    return results, metrics


def _traced(cli, wl, problems, report, args):
    count = wl.trace_requests
    efficiency = 0.0
    pooled_workers = wl.workers
    if pooled_workers > 1:
        _, pooled_wall = _replay(cli, wl, count, "pooled")
        wl.workers = 1
    tracer = tracing.Tracer()
    results, traced = [], []
    wall = traced_wall = 0.0
    for i in range(count):
        tracer.request = i
        # each request runs untraced and traced back to back, alternating
        # which goes first, so warm-up effects cancel in the overhead
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            t0 = time.perf_counter()
            try:
                res = _run_request(cli, wl, i, "traced" if with_trace else "plain")
            finally:
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            if with_trace:
                traced.append(res)
                traced_wall += elapsed
            else:
                results.append(res)
                wall += elapsed
    if pooled_workers > 1:
        efficiency = wall / (pooled_workers * pooled_wall)
        problems.expect(_tree(os.path.join(wl.dir, "pooled")) == _tree(os.path.join(wl.dir, "plain")),
                        "pooled outputs differ from one-worker outputs")
    problems.expect(_tree(os.path.join(wl.dir, "traced")) == _tree(os.path.join(wl.dir, "plain")),
                    "traced outputs differ from untraced outputs")
    problems.expect([r.codes for r in traced] == [r.codes for r in results],
                    "traced exit codes differ from untraced")
    checks = _check(wl, results, "plain", problems)
    wl.prefix_check(lambda argv: _call(cli, argv), "plain", problems)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.json")
    tracer.write(spans_path)
    report.update({"requests": count, "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_path, ROOT),
                   "untraced_wall_s": wall, "traced_wall_s": traced_wall, "checks": checks})
    ops = sum(wl.ops(i) for i in range(count))
    metrics = _layer_metrics(tracer.summary(), ops, traced_wall - wall, efficiency, _import_breakdown(), checks)
    return results, metrics


if __name__ == "__main__":
    sys.exit(main())
