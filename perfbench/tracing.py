"""Span tracing of the package's layers, applied from outside the package.

``Tracer.install`` replaces every public function of each layer module at
every module attribute that binds it (``estimate_dates`` is bound in
``estimator``, ``montecarlo``, ``cli`` and the package namespace) with a
wrapper that records a span: name, start, end, parent span and request id.
``types`` is not wrapped, because replacing ``Series`` would break
``isinstance``; its cost lands in the caller's self time.  Spans stay in
memory until ``write``.  Counters that must repeat exactly (rows, loop
steps, candidates, rejections) are read off arguments and return values.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "bubbledate"
LAYERS = ("rng", "dgp", "estimator", "montecarlo", "asymptotics", "dataio", "cli")
# functions of other packages that a layer binds under its own name
FOREIGN = (("asymptotics", "lfilter"),)


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, request id)
        self.counts = defaultdict(int)
        self.written_paths = []
        self.request = -1
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in _public_functions(module):
                targets[id(fn)] = (f"{layer}.{name}", fn)
        for layer, attr in FOREIGN:
            fn = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr)
            targets[id(fn)] = (f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[1] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(hit[0], value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, wall and self time per span name, and self time per layer."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        wall = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start - child_ns[i]) * 1e-9
            calls[name] += 1
            wall[name] += (end - start) * 1e-9
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
        bytes_written = sum(os.path.getsize(p) for p in self.written_paths if os.path.exists(p))
        return {"calls": calls, "wall_s": wall, "self_s": self_s,
                "layer_self_s": layer_self, "counts": self.counts,
                "bytes_written": bytes_written}

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]}, fh)


def _batch_paths(tr, args, kwargs, result):
    rows, steps = result.shape[0], result.shape[1] - 1
    tr.counts["dgp.batch_paths.rows"] += rows
    tr.counts["dgp.batch_paths.loop_steps"] += steps
    tr.counts["dgp.batch_paths.bytes_computed"] += rows * steps * 24


def _estimate_dates(tr, args, kwargs, est):
    for curve in (est.ssr_curve_c, est.ssr_curve_e, est.ssr_curve_r):
        if curve is not None:
            tr.counts["estimator.candidates"] += curve.shape[0]
    tr.counts["estimator.unavailable"] += (est.k_e_hat is None) + (est.k_r_hat is None)


def _run_experiment(tr, args, kwargs, result):
    cells = result.config.cells()
    tr.counts["montecarlo.cells"] += len(cells)
    tr.counts["montecarlo.distinct_cells"] += len(set(cells))
    tr.counts["montecarlo.bic_failed"] += sum(t.failed for t in result.bic_tallies)


def _limit_draws(tr, args, kwargs, sample):
    tr.counts["asymptotics.draws"] += sample.values.shape[0]
    tr.counts["asymptotics.rejections"] += sample.rejections


def _dataio_write(tr, args, kwargs, result):
    tr.written_paths.append(args[0] if args else kwargs["path"])


_OBSERVERS = {
    "dgp.batch_paths": _batch_paths,
    "estimator.estimate_dates": _estimate_dates,
    "montecarlo.run_experiment": _run_experiment,
    "asymptotics.recovery_limit_draws": _limit_draws,
    "asymptotics.emergence_limit_draws": _limit_draws,
    **{f"dataio.{n}": _dataio_write for n in (
        "write_series_csv", "write_histogram_csv", "write_summary_csv",
        "write_bic_csv", "write_draws_csv", "write_draw_histogram_csv")},
}
