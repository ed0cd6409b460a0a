"""Monte Carlo evaluation of the break-date estimators.

An experiment fixes a DGP template and sweeps sample sizes and AR
coefficients over a grid.  Each grid cell runs ``reps`` independent
replications; per replication the errors come from the (base_seed,
replication, 0) stream, so the draws for replication r are shared across
every cell (common random numbers) and results do not depend on execution
order or on how replications are distributed over workers.

The unit of work is a (T, replication block): the block draws each
replication's errors once into one (rows, T) matrix, shared by every cell
with that T.  One regime recursion runs all of the T's distinct cells on
those rows at once, and one ``estimate_tile`` call dates all their paths.
A block returns one tally per distinct cell, an int array of counts by
date (and by model choice), and a cell's tally is the sum of its blocks';
a cell that the grid lists twice (the anchor pair sits in both sweep
arms) is simulated and dated once and reports the same tally at both
positions.
A run with n workers runs every n-th block in the calling process and the
rest on a pool of n - 1 worker processes, which later runs reuse.  Only
that path imports ``concurrent.futures`` (and with it ``multiprocessing``),
so a serial run and a bare import load neither.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .dgp import ErrorSpec, IidGaussian, VolatilityScaled, _regime_recursion, generate_errors
from .estimator import ModelChoice, estimate_tile
from .rng import stream
from .types import (
    MIN_ESTIMATION_LENGTH,
    ConfigError,
    DgpConfig,
    SingleShiftVolatility,
    TrimmingPolicy,
    _require_numbers,
)

__all__ = [
    "Target",
    "CellKey",
    "ExperimentConfig",
    "HistogramResult",
    "BicTally",
    "ExperimentResult",
    "run_experiment",
    "preset",
    "PRESET_NAMES",
]


class Target(Enum):
    COLLAPSE = "collapse"
    EMERGENCE = "emergence"
    RECOVERY = "recovery"


@dataclass(frozen=True)
class CellKey:
    """One grid cell: a sample size and an AR coefficient pair."""

    T: int
    phi_a: float
    phi_b: float


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a Monte Carlo experiment.

    ``dgp`` supplies the break fractions, drifts and initial value; its
    ``T``, ``phi_a`` and ``phi_b`` act as anchors for the grid sweep.  The
    cells are the pairs (phi_a_grid[i], anchor phi_b) followed by
    (anchor phi_a, phi_b_grid[j]), each crossed with every sample size in
    ``T_grid``.
    """

    dgp: DgpConfig
    errors: ErrorSpec
    T_grid: tuple
    phi_a_grid: tuple = ()
    phi_b_grid: tuple = ()
    trimming: TrimmingPolicy = TrimmingPolicy()
    reps: int = 2000
    base_seed: int = 0
    targets: tuple = (Target.COLLAPSE, Target.EMERGENCE, Target.RECOVERY)
    bic: bool = False
    name: str = "custom"

    def __post_init__(self):
        # every field of a wrong type is named in one ConfigError; the grids and targets are then stored as tuples
        seqs = {k: getattr(self, k) for k in ("T_grid", "phi_a_grid", "phi_b_grid", "targets")}
        kinds = {**dict.fromkeys(seqs, ((tuple, list), "a tuple or list")), "dgp": (DgpConfig, "a DgpConfig"),
                 "errors": (ErrorSpec, "an error spec"), "trimming": (TrimmingPolicy, "a TrimmingPolicy"),
                 "bic": (bool, "a boolean"), "name": (str, "a string")}
        problems = [f"{k} must be {what}, got {getattr(self, k)!r}" for k, (cls, what) in kinds.items()
                    if not isinstance(getattr(self, k), cls)]
        seqs = {k: tuple(v) if isinstance(v, (tuple, list)) else () for k, v in seqs.items()}
        problems += [f"targets entries must be Target members ({', '.join(t.value for t in Target)}), got {t!r}"
                     for t in seqs["targets"] if not isinstance(t, Target)]
        grids = {f"{k}[{i}]": x for k in ("T_grid", "phi_a_grid", "phi_b_grid") for i, x in enumerate(seqs[k])}
        _require_numbers({"reps": self.reps, "base_seed": self.base_seed, **grids},
                         integers=("reps", "base_seed", "T_grid"), problems=problems)
        for k, cast in (("T_grid", int), ("phi_a_grid", float), ("phi_b_grid", float), ("targets", Target)):
            object.__setattr__(self, k, tuple(map(cast, seqs[k])))
        problems = []
        if self.reps < 1:
            problems.append(f"reps must be positive, got {self.reps}")
        if len(self.T_grid) == 0:
            problems.append("T_grid must be nonempty")
        if len(self.phi_a_grid) == 0 and len(self.phi_b_grid) == 0:
            problems.append("at least one coefficient grid must be nonempty")
        if len(self.targets) == 0 and not self.bic:
            problems.append("experiment has no targets and bic is off")
        if len(set(self.targets)) != len(self.targets):
            problems.append("targets must not repeat")
        short = [T for T in self.T_grid if T < MIN_ESTIMATION_LENGTH]
        if short:
            problems.append(f"sample sizes below {MIN_ESTIMATION_LENGTH} cannot be dated: {short}")
        if problems:
            raise ConfigError(problems)
        for cell in self.cells():
            self.cell_dgp(cell)  # raises the ConfigError of a cell's DGP

    def cells(self) -> list:
        out = []
        for T in self.T_grid:
            for pa in self.phi_a_grid:
                out.append(CellKey(T=T, phi_a=pa, phi_b=self.dgp.phi_b))
            for pb in self.phi_b_grid:
                out.append(CellKey(T=T, phi_a=self.dgp.phi_a, phi_b=pb))
        return out

    def cell_dgp(self, cell: CellKey) -> DgpConfig:
        return replace(self.dgp, T=cell.T, phi_a=cell.phi_a, phi_b=cell.phi_b)


@dataclass
class HistogramResult:
    """Distribution of one date estimator in one cell.

    ``bins`` maps estimated date to count over the replications that
    produced an estimate; ``unavailable`` counts the rest, so bin counts
    plus unavailable always equal ``reps``.  ``hit_frequency`` is the
    fraction of all replications whose estimate equals the true date.
    """

    cell: CellKey
    target: Target
    true_date: int
    bins: dict
    unavailable: int
    reps: int

    @property
    def hit_frequency(self) -> float:
        return self.bins.get(self.true_date, 0) / self.reps


@dataclass
class BicTally:
    """Model-choice counts for one cell; failures count separately."""

    cell: CellKey
    counts: dict
    failed: int
    reps: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    histograms: list
    bic_tallies: list = field(default_factory=list)


# Each target's column in ``TileEstimates.dates``.
_DATE_COLUMN = {Target.COLLAPSE: 0, Target.EMERGENCE: 1, Target.RECOVERY: 2}


def _run_block(config: ExperimentConfig, T: int, rep_lo: int, rep_hi: int) -> dict:
    """Tally one block of replications for every distinct cell with sample size T.

    Replication r draws its errors from its own (base_seed, r, 0) stream,
    once for all of these cells, and one regime recursion runs every
    distinct cell's paths on them.  Each cell's tally is a
    (targets + bic, T + 1) int array: row i counts target i's dates, with
    unavailable dates and failed replications in column 0, and the last
    row, with BIC on, counts failed replications in column 0 and model m
    of ``ModelChoice`` in column m + 1.  One ``estimate_tile`` call dates
    the paths of every cell.  Returns the tallies keyed by cell, in cell
    order.  Tallies add, so blocks merge in any order.
    """
    errors = np.empty((rep_hi - rep_lo, T))
    for i, rep in enumerate(range(rep_lo, rep_hi)):
        errors[i] = generate_errors(config.errors, T, stream(config.base_seed, rep, 0))
    cells = list(dict.fromkeys(cell for cell in config.cells() if cell.T == T))
    paths = _regime_recursion(replace(config.dgp, T=T), np.array([[cell.phi_a] for cell in cells]),
                              np.array([[cell.phi_b] for cell in cells]), errors)
    est = estimate_tile(paths[1:].reshape(T, -1).T, paths[0].reshape(-1), config.trimming)
    counted = [est.dates[:, _DATE_COLUMN[t]] for t in config.targets]
    if config.bic:
        counted.append(est.chosen_indices() + 1)
    counted = np.array(counted).reshape(len(counted), len(cells), -1)
    return {cell: np.array([np.bincount(x, minlength=T + 1) for x in counted[:, c]]) for c, cell in enumerate(cells)}


def _add_cell(result: ExperimentResult, cell: CellKey, tally: np.ndarray) -> None:
    """Append one cell's histograms and BIC tally, built from its summed tally."""
    config = result.config
    breaks = config.cell_dgp(cell).break_indices
    true_date = dict(zip((Target.EMERGENCE, Target.COLLAPSE, Target.RECOVERY), breaks))
    result.histograms.extend(
        HistogramResult(
            cell=cell,
            target=t,
            true_date=true_date[t],
            bins={int(k): int(counts[k]) for k in np.flatnonzero(counts[1:]) + 1},
            unavailable=int(counts[0]),
            reps=config.reps,
        )
        for t, counts in zip(config.targets, tally)
    )
    if config.bic:
        counts = tally[-1].tolist()
        result.bic_tallies.append(
            BicTally(
                cell=cell,
                counts=dict(zip(ModelChoice, counts[1:])),
                failed=counts[0],
                reps=config.reps,
            )
        )


# The pool of the last pooled run, by size, kept for later runs: a fresh
# worker's first blocks run about twice as slowly as a warm one's.  Its
# processes exit with the interpreter.
_pool: dict = {}


def _drop_pool() -> None:
    for pool in _pool.values():
        pool.shutdown(cancel_futures=True)
    _pool.clear()


def _new_pool(size: int):
    """A pool of size worker processes: the one place a pool is made."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=size)


def _run_pooled(config: ExperimentConfig, tasks: list, n: int) -> list:
    """Each task's tallies, with every n-th task run here and the rest on the kept pool of n - 1."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    futures, reused = {}, n - 1 in _pool
    try:
        if not reused:
            _drop_pool()
            _pool[n - 1] = _new_pool(n - 1)
        futures = {i: _pool[n - 1].submit(_run_block, config, *t) for i, t in enumerate(tasks) if i % n}
        for i in range(0, len(tasks), n):  # this process's blocks, their outcomes held as a pool block's are
            futures[i] = Future()
            try:
                futures[i].set_result(_run_block(config, *tasks[i]))
            except Exception as exc:
                futures[i].set_exception(exc)
        return [futures[i].result() for i in range(len(tasks))]
    except BrokenProcessPool:
        _drop_pool()
        if reused:  # a worker of the kept pool died since the last run: start afresh
            return _run_pooled(config, tasks, n)
        raise
    finally:
        for future in futures.values():
            future.cancel()


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run every cell of the experiment; results are schedule-independent.

    The unit of work is a (T, replication block): each sample size's
    replications are split into one block of about reps / workers
    replications per worker, so a serial run makes one block per T, and
    each block simulates and dates every distinct cell with its T once.
    A cell listed more than once in ``config.cells()`` reports the same
    tally at each position.  With n = min(workers, blocks), this process
    runs every n-th block and a pool of n - 1 processes the rest; the pool
    serves later runs of its size until a worker dies.  The first failing
    block in block order raises, as in a serial run.  Replication streams
    are keyed by (base_seed, replication) and block tallies are summed per
    cell, so the parallel run is bit-identical to the serial one.
    """
    if workers < 1:
        raise ConfigError([f"workers must be at least 1, got {workers}"])
    cells = config.cells()
    sizes = list(dict.fromkeys(cell.T for cell in cells))
    chunk = math.ceil(config.reps / workers)
    tasks = [(T, lo, min(lo + chunk, config.reps)) for T in sizes for lo in range(0, config.reps, chunk)]
    n = min(workers, len(tasks))
    outcomes = _run_pooled(config, tasks, n) if n > 1 else [_run_block(config, *t) for t in tasks]
    cell_tallies = {}
    for tallies in outcomes:
        for cell, tally in tallies.items():
            cell_tallies[cell] = cell_tallies.get(cell, 0) + tally
    result = ExperimentResult(config=config, histograms=[])
    for cell in cells:
        _add_cell(result, cell, cell_tallies[cell])
    return result


# Desk-scale defaults: the published study of this design uses far more
# replications; 2000 keeps a full preset under a few minutes.
_BASE_DGP = DgpConfig(
    tau_e=0.4,
    tau_c=0.6,
    tau_r=0.7,
    phi_a=1.05,
    phi_b=0.96,
    T=800,
    y0=0.0,
    drift_pre=1.0 / 800.0,
    drift_post=1.0 / 800.0,
)

_BASELINE = ExperimentConfig(
    dgp=_BASE_DGP,
    errors=IidGaussian(1.0),
    T_grid=(400, 800),
    phi_a_grid=(1.01, 1.05, 1.09),
    phi_b_grid=(0.98, 0.96, 0.94),
    trimming=TrimmingPolicy(0.05),
    reps=2000,
    base_seed=0,
    name="baseline",
)
_PRESETS = {config.name: config for config in (
    _BASELINE,
    replace(_BASELINE, name="short-bubble", dgp=replace(_BASE_DGP, tau_e=0.5, tau_c=0.55, tau_r=0.6)),
    replace(_BASELINE, name="trim1pct", trimming=TrimmingPolicy(0.01)),
    replace(_BASELINE, name="volshift-down",
            errors=VolatilityScaled(SingleShiftVolatility(1.0, 1.0 / 3.0, 0.5))),
    replace(_BASELINE, name="volshift-up", errors=VolatilityScaled(SingleShiftVolatility(1.0, 3.0, 0.5))),
    replace(_BASELINE, name="no-fourth-regime",
            dgp=replace(_BASE_DGP, tau_r=1.0), targets=(Target.COLLAPSE,)),
)}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ExperimentConfig:
    """Named experiment designs.

    All share the sweep T in {400, 800}, phi_a in {1.01, 1.05, 1.09}
    against phi_b = 0.96, and phi_b in {0.98, 0.96, 0.94} against
    phi_a = 1.05, with break fractions (0.4, 0.6, 0.7), a fixed drift of
    1/800 in both unit-root regimes, and standard normal errors:

    * ``baseline``: exactly the above with 5% trimming.
    * ``short-bubble``: break fractions (0.5, 0.55, 0.6).
    * ``trim1pct``: 1% trimming.
    * ``volshift-down`` / ``volshift-up``: error volatility drops to 1/3
      (rises to 3) halfway through the sample.
    * ``no-fourth-regime``: the collapse runs to the end of the sample
      (tau_r = 1); only the collapse date is tallied.
    """
    if name not in _PRESETS:
        raise ConfigError([f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"])
    return _PRESETS[name]
