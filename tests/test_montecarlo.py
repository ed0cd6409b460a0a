"""Monte Carlo harness: grids, presets, tallies, schedule independence."""
from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import pytest

from bubbledate import (
    CellKey,
    ConfigError,
    DgpConfig,
    ExperimentConfig,
    IidGaussian,
    Target,
    TrimmingPolicy,
    VolatilityScaled,
    preset,
    run_experiment,
)
from bubbledate.montecarlo import PRESET_NAMES, _BASE_DGP


def small_config(**overrides):
    base = dict(
        dgp=DgpConfig(0.4, 0.6, 0.7, phi_a=1.08, phi_b=0.90, T=120, y0=0.0),
        errors=IidGaussian(1.0),
        T_grid=(120,),
        phi_a_grid=(1.08,),
        reps=40,
        base_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_cells_cross_grids_against_anchors(self):
        cfg = small_config(T_grid=(100, 120), phi_a_grid=(1.05, 1.1), phi_b_grid=(0.85,))
        assert cfg.cells() == [
            CellKey(100, 1.05, 0.90),
            CellKey(100, 1.10, 0.90),
            CellKey(100, 1.08, 0.85),
            CellKey(120, 1.05, 0.90),
            CellKey(120, 1.10, 0.90),
            CellKey(120, 1.08, 0.85),
        ]

    def test_cell_dgp_overrides_only_swept_fields(self):
        cfg = small_config()
        cell = CellKey(T=200, phi_a=1.2, phi_b=0.8)
        dgp = cfg.cell_dgp(cell)
        assert (dgp.T, dgp.phi_a, dgp.phi_b) == (200, 1.2, 0.8)
        assert (dgp.tau_e, dgp.tau_c, dgp.tau_r) == (0.4, 0.6, 0.7)
        assert dgp.y0 == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(T_grid=())
        with pytest.raises(ConfigError):
            small_config(phi_a_grid=(), phi_b_grid=())
        with pytest.raises(ConfigError):
            small_config(reps=0)
        with pytest.raises(ConfigError):
            small_config(targets=(Target.COLLAPSE, Target.COLLAPSE))
        with pytest.raises(ConfigError):
            small_config(targets=(), bic=False)

    def test_cells_are_checked_at_construction(self):
        # a bad cell raises when the config is built, not when it runs: with
        # its own DGP's problem, or as a sample size too short to date
        base = preset("baseline")
        for overrides, problem in ((dict(phi_a_grid=(1.01, 0.9)), "phi_a must exceed 1, got 0.9"),
                                   (dict(phi_b_grid=(0.96, 1.2)), "phi_b must lie in (0, 1), got 1.2"),
                                   (dict(T_grid=(400, 30)), "sample sizes below 40 cannot be dated: [30]")):
            with pytest.raises(ConfigError) as err:
                replace(base, reps=200, **overrides)
            assert err.value.problems == [problem]


class TestPresets:
    def test_baseline_design(self):
        cfg = preset("baseline")
        assert cfg.T_grid == (400, 800)
        assert cfg.phi_a_grid == (1.01, 1.05, 1.09)
        assert cfg.phi_b_grid == (0.98, 0.96, 0.94)
        assert (cfg.dgp.tau_e, cfg.dgp.tau_c, cfg.dgp.tau_r) == (0.4, 0.6, 0.7)
        assert cfg.dgp.drift_pre == cfg.dgp.drift_post == 1.0 / 800.0
        assert isinstance(cfg.errors, IidGaussian)
        assert cfg.trimming.rho == 0.05
        assert cfg.reps == 2000
        assert cfg.base_seed == 0
        assert len(cfg.cells()) == 12
        # the anchor pair appears in both sweep arms
        assert cfg.cells().count(CellKey(800, 1.05, 0.96)) == 2

    def test_variant_presets_differ_only_as_documented(self):
        base = preset("baseline")
        short = preset("short-bubble")
        assert (short.dgp.tau_e, short.dgp.tau_c, short.dgp.tau_r) == (0.5, 0.55, 0.6)
        assert short.trimming == base.trimming

        trim = preset("trim1pct")
        assert trim.trimming.rho == 0.01
        assert trim.dgp == base.dgp

        down = preset("volshift-down")
        assert isinstance(down.errors, VolatilityScaled)
        assert down.errors.profile.sigma1 == pytest.approx(1.0 / 3.0)
        up = preset("volshift-up")
        assert up.errors.profile.sigma1 == 3.0
        assert up.errors.profile.tau_sigma == 0.5

        no4 = preset("no-fourth-regime")
        assert no4.dgp.tau_r == 1.0
        assert no4.targets == (Target.COLLAPSE,)

    def test_preset_names_round_trip(self):
        for name in PRESET_NAMES:
            assert preset(name).name == name
        with pytest.raises(ConfigError):
            preset("nope")


class TestRunExperiment:
    def test_counts_are_conserved(self):
        cfg = small_config(phi_b_grid=(0.85,))
        result = run_experiment(cfg)
        assert len(result.histograms) == 2 * 3  # cells x targets
        for hist in result.histograms:
            assert sum(hist.bins.values()) + hist.unavailable == cfg.reps
            assert hist.reps == cfg.reps

    def test_true_dates_follow_cell_sample_size(self):
        cfg = small_config(T_grid=(120, 200))
        result = run_experiment(cfg)
        for hist in result.histograms:
            dgp = cfg.cell_dgp(hist.cell)
            k_e, k_c, k_r = dgp.break_indices
            want = {Target.EMERGENCE: k_e, Target.COLLAPSE: k_c, Target.RECOVERY: k_r}
            assert hist.true_date == want[hist.target]

    def test_parallel_equals_serial(self):
        cfg = small_config(reps=30)
        serial = run_experiment(cfg, workers=1)
        for workers in (2, 3):
            parallel = run_experiment(cfg, workers=workers)
            assert len(parallel.histograms) == len(serial.histograms)
            for hs, hp in zip(serial.histograms, parallel.histograms):
                assert hs.cell == hp.cell
                assert hs.target == hp.target
                assert hs.bins == hp.bins
                assert hs.unavailable == hp.unavailable

    def test_rerun_is_deterministic(self):
        cfg = small_config(reps=25)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ha, hb in zip(a.histograms, b.histograms):
            assert ha.bins == hb.bins

    def test_recovery_easier_when_collapse_is_slow(self):
        cfg = ExperimentConfig(
            dgp=_BASE_DGP,
            errors=IidGaussian(1.0),
            T_grid=(400,),
            phi_a_grid=(1.01,),
            phi_b_grid=(0.98,),
            reps=200,
            base_seed=0,
            targets=(Target.RECOVERY,),
        )
        hits = {
            (h.cell.phi_a, h.cell.phi_b): h.hit_frequency
            for h in run_experiment(cfg).histograms
        }
        assert hits[(1.05, 0.98)] >= hits[(1.01, 0.96)] + 0.3

    def test_collapse_accuracy_improves_with_sample_size(self):
        cfg = ExperimentConfig(
            dgp=_BASE_DGP,
            errors=IidGaussian(1.0),
            T_grid=(400, 800),
            phi_a_grid=(1.01,),
            reps=400,
            base_seed=0,
            targets=(Target.COLLAPSE,),
        )
        hits = {h.cell.T: h.hit_frequency for h in run_experiment(cfg).histograms}
        assert hits[800] >= hits[400] + 0.1

    def test_recovery_hit_rate_in_expected_band(self):
        cfg = ExperimentConfig(
            dgp=_BASE_DGP,
            errors=IidGaussian(1.0),
            T_grid=(400,),
            phi_b_grid=(0.98,),
            reps=1000,
            base_seed=0,
            targets=(Target.RECOVERY,),
        )
        hit = run_experiment(cfg).histograms[0].hit_frequency
        assert 0.65 <= hit <= 0.85

    def test_bic_tally_conservation_and_modal_choice(self):
        from bubbledate import ModelChoice

        cfg = ExperimentConfig(
            dgp=replace(_BASE_DGP, phi_a=1.09, phi_b=0.94),
            errors=IidGaussian(1.0),
            T_grid=(400,),
            phi_a_grid=(1.09,),
            reps=50,
            base_seed=0,
            targets=(Target.COLLAPSE,),
            bic=True,
        )
        result = run_experiment(cfg)
        assert len(result.bic_tallies) == 1
        tally = result.bic_tallies[0]
        assert set(tally.counts) == set(ModelChoice)
        assert sum(tally.counts.values()) + tally.failed == cfg.reps
        assert max(tally.counts, key=tally.counts.get) is ModelChoice.FOUR_REGIME

    def test_no_fourth_regime_preset_runs(self):
        cfg = replace(preset("no-fourth-regime"), T_grid=(400,), reps=10)
        result = run_experiment(cfg)
        assert {h.target for h in result.histograms} == {Target.COLLAPSE}
        for hist in result.histograms:
            assert sum(hist.bins.values()) + hist.unavailable == 10

    def test_trimming_policy_is_honored(self):
        cfg = small_config(trimming=TrimmingPolicy(0.10), reps=20)
        result = run_experiment(cfg)
        for hist in result.histograms:
            margin = cfg.trimming.margin(hist.cell.T)
            k_hi = cfg.trimming.k_hi(hist.cell.T)
            for k in hist.bins:
                assert margin <= k <= k_hi


def result_digest(result):
    """sha256 of every histogram and BIC tally, in a canonical JSON form."""
    hists = [
        [[h.cell.T, h.cell.phi_a, h.cell.phi_b], h.target.value, h.true_date,
         sorted(h.bins.items()), h.unavailable, h.reps]
        for h in result.histograms
    ]
    tallies = [
        [[t.cell.T, t.cell.phi_a, t.cell.phi_b], sorted((m.value, c) for m, c in t.counts.items()),
         t.failed, t.reps]
        for t in result.bic_tallies
    ]
    return hashlib.sha256(json.dumps([hists, tallies]).encode()).hexdigest()


# Pinned at seed 0 with 40 replications, BIC on unless the id says
# otherwise.  A change that is meant to move estimates changes these
# digests on purpose; it must then justify the new values in CHANGES.md.
GOLDEN_DIGESTS = [
    ("baseline", True, 1, "7d33c9a8f3f58ed8a4ea2f8fed20833964fb88f5bb1530e97e51a55c2a2c1782"),
    ("short-bubble", True, 1, "519e9af369d9835ce685ee9b65ba8fa6fc4d49b36d5348dad594c76ed0587cf2"),
    ("trim1pct", True, 1, "dae2590aa609f538dbc68fb6caad9909f0b0c6eeb69031235902db37b751c38c"),
    ("volshift-down", True, 1, "95c12e31a4a1774c716ae3a8b6d5ba7b8ed3598894ce631df8dbc83fd087d57d"),
    ("volshift-up", True, 1, "9a1b6bf5f8ae57781c2ca5715570b0baf29858b45b1da90b0f8b1e40dd506ee7"),
    ("volshift-up", True, 2, "9a1b6bf5f8ae57781c2ca5715570b0baf29858b45b1da90b0f8b1e40dd506ee7"),
    ("no-fourth-regime", True, 1, "45e6d2dafd299b77bb253a1a9f36dc53090eaa0a6628e54fee956e72938ed022"),
    ("baseline", False, 1, "472bb803f09a0b837bdc31601b955d06e8e26719155d41b8eea192733a916eee"),
]


@pytest.mark.parametrize(
    "name, bic, workers, digest",
    GOLDEN_DIGESTS,
    ids=[f"{n}{'' if b else '-nobic'}{'' if w == 1 else f'-workers{w}'}" for n, b, w, _ in GOLDEN_DIGESTS],
)
def test_golden_digest(name, bic, workers, digest):
    cfg = replace(preset(name), bic=bic, reps=40, base_seed=0)
    result = run_experiment(cfg, workers=workers)
    assert len(result.histograms) == len(cfg.cells()) * len(cfg.targets)
    assert len(result.bic_tallies) == (len(cfg.cells()) if bic else 0)
    assert result_digest(result) == digest


def count_block_work(monkeypatch):
    """Record each recursion's (T, cells, rows), each ``estimate_tile`` call's rows and each error draw's T."""
    import bubbledate.montecarlo as montecarlo

    work = {"recursions": [], "tile_rows": [], "error_draws": []}
    regime_recursion = montecarlo._regime_recursion
    estimate_tile = montecarlo.estimate_tile
    generate_errors = montecarlo.generate_errors

    def counting_recursion(config, phi_a, phi_b, errors):
        work["recursions"].append((config.T, phi_a.shape[0], errors.shape[0]))
        return regime_recursion(config, phi_a, phi_b, errors)

    def counting_estimate_tile(values, y0, trimming):
        work["tile_rows"].append(values.shape[0])
        return estimate_tile(values, y0, trimming)

    def counting_generate_errors(spec, T, rng):
        work["error_draws"].append(T)
        return generate_errors(spec, T, rng)

    monkeypatch.setattr(montecarlo, "_regime_recursion", counting_recursion)
    monkeypatch.setattr(montecarlo, "estimate_tile", counting_estimate_tile)
    monkeypatch.setattr(montecarlo, "generate_errors", counting_generate_errors)
    return work


def test_serial_run_makes_one_recursion_per_block(monkeypatch):
    work = count_block_work(monkeypatch)
    cfg = small_config(T_grid=(100, 120), phi_b_grid=(0.85,))
    run_experiment(cfg, workers=1)
    # one block per T: one recursion and one estimate_tile call over the
    # T's cells, one error draw per replication shared by every cell with that T
    assert work["recursions"] == [(T, 2, cfg.reps) for T in cfg.T_grid]
    assert work["tile_rows"] == [2 * cfg.reps for _ in cfg.T_grid]
    assert work["error_draws"] == [T for T in cfg.T_grid for _ in range(cfg.reps)]

    # a preset has six cells per T, the anchor pair twice: five distinct
    # cells are simulated and dated, and six times fewer error rows drawn
    for records in work.values():
        records.clear()
    cfg = replace(preset("volshift-up"), reps=3)
    run_experiment(cfg, workers=1)
    assert work["recursions"] == [(T, 5, cfg.reps) for T in cfg.T_grid]
    assert work["tile_rows"] == [5 * cfg.reps for _ in cfg.T_grid]
    assert 12 * sum(work["tile_rows"]) == 10 * len(cfg.cells()) * cfg.reps
    assert len(cfg.cells()) * cfg.reps == 6 * len(work["error_draws"])
    assert work["error_draws"] == [T for T in cfg.T_grid for _ in range(cfg.reps)]


def test_repeated_cell_is_dated_once_and_reported_at_each_position(monkeypatch):
    work = count_block_work(monkeypatch)
    cfg = small_config(phi_a_grid=(1.05, 1.05), reps=20, bic=True)
    result = run_experiment(cfg, workers=1)
    assert work["recursions"] == [(120, 1, cfg.reps)]
    assert work["tile_rows"] == [cfg.reps]
    first, second = result.histograms[:3], result.histograms[3:]
    assert [h.cell for h in first] == [h.cell for h in second] == [CellKey(120, 1.05, 0.90)] * 3
    for a, b in zip(first, second):
        assert (a.target, a.bins, a.unavailable) == (b.target, b.bins, b.unavailable)
    a, b = result.bic_tallies
    assert (a.cell, a.counts, a.failed) == (b.cell, b.counts, b.failed)
    once = run_experiment(replace(cfg, phi_a_grid=(1.05,)), workers=1)
    assert [h.bins for h in once.histograms] == [h.bins for h in first]
    assert once.bic_tallies[0].counts == a.counts


def test_pool_run_makes_one_block_per_worker(monkeypatch):
    import bubbledate.montecarlo as montecarlo

    ran = []  # every block, run in this process or submitted to the pool
    submitted = []
    pools = []
    run_block = montecarlo._run_block

    def recording_block(config, T, rep_lo, rep_hi):
        ran.append((T, rep_lo, rep_hi))
        return run_block(config, T, rep_lo, rep_hi)

    class SynchronousPool:
        """Runs each submitted block at once and records its replication range."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def submit(self, fn, config, T, rep_lo, rep_hi):
            submitted.append((T, rep_lo, rep_hi))
            future = Future()
            future.set_result(fn(config, T, rep_lo, rep_hi))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(montecarlo, "_new_pool", SynchronousPool)
    monkeypatch.setattr(montecarlo, "_run_block", recording_block)
    monkeypatch.setattr(montecarlo, "_pool", {})  # a pool kept by an earlier run would bypass the stub
    cfg = small_config(T_grid=(100, 120), phi_b_grid=(0.85,), reps=64)
    pooled = run_experiment(cfg, workers=2)
    # one block per (T, worker), each tallying every cell with that T: this
    # process runs every second block, a pool of one process the others
    blocks = [(T, lo, lo + 32) for T in cfg.T_grid for lo in (0, 32)]
    assert sorted(ran) == blocks
    assert submitted == blocks[1::2]
    assert pools == [1]
    assert result_digest(pooled) == result_digest(run_experiment(cfg, workers=1))

    # more workers than blocks: four processes, this one and a pool of three
    for records in (ran, submitted, pools):
        records.clear()
    cfg = replace(cfg, reps=2)
    run_experiment(cfg, workers=16)
    blocks = [(T, lo, lo + 1) for T in cfg.T_grid for lo in (0, 1)]
    assert sorted(ran) == blocks
    assert submitted == blocks[1:]
    assert pools == [3]
    run_experiment(cfg, workers=16)  # the next run of that size keeps the pool
    assert pools == [3]


def test_first_failing_block_in_block_order_raises(monkeypatch):
    import bubbledate.montecarlo as montecarlo

    class Failure(Exception):
        pass

    class SynchronousPool:
        def __init__(self, max_workers):
            pass

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, cancel_futures=False):
            pass

    def failing_block(config, T, rep_lo, rep_hi):
        # with two workers, blocks 2 (this process's) and 3 (the pool's, which the stub runs first)
        # of [(100, 0), (100, 32), (120, 0), (120, 32)]; serially, the block (120, 0)
        if (T, rep_lo) in ((120, 0), (120, 32)):
            raise Failure(T, rep_lo)
        return {}

    monkeypatch.setattr(montecarlo, "_new_pool", SynchronousPool)
    monkeypatch.setattr(montecarlo, "_run_block", failing_block)
    monkeypatch.setattr(montecarlo, "_pool", {})
    cfg = small_config(T_grid=(100, 120), reps=64)
    for workers in (1, 2):
        with pytest.raises(Failure) as err:
            run_experiment(cfg, workers=workers)
        assert err.value.args == (120, 0), workers


def test_pool_outlives_a_killed_worker():
    import bubbledate.montecarlo as montecarlo

    cfg = small_config(reps=8, bic=True)
    serial = result_digest(run_experiment(cfg, workers=1))
    assert result_digest(run_experiment(cfg, workers=2)) == serial
    (kept,) = montecarlo._pool.values()
    assert result_digest(run_experiment(cfg, workers=2)) == serial
    assert list(montecarlo._pool.values()) == [kept]
    for pid in list(kept._processes):
        os.kill(pid, signal.SIGKILL)
    assert result_digest(run_experiment(cfg, workers=2)) == serial
    (fresh,) = montecarlo._pool.values()
    assert fresh is not kept


def run_script(script: str) -> str:
    """The standard output of a fresh interpreter running script, with this package first on its path."""
    import bubbledate

    src = str(Path(bubbledate.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pooled_run_exits_with_the_interpreter():
    script = (
        "from dataclasses import replace\n"
        "import bubbledate.montecarlo as mc\n"
        "mc.run_experiment(replace(mc.preset('baseline'), reps=4), workers=2)\n"
        "print(*[pid for pool in mc._pool.values() for pid in pool._processes])\n"
    )
    workers = [int(pid) for pid in run_script(script).split()]
    assert len(workers) == 1
    # the interpreter joins its workers before it exits, so none is left, not even a zombie
    assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]


def modules_after(script: str) -> list:
    """The names of the modules loaded at each ``probe()`` in script, run in a fresh interpreter."""
    probe = "import json, sys\ndef probe():\n    print(json.dumps(sorted(sys.modules)))\n"
    return [set(json.loads(line)) for line in run_script(probe + script).splitlines()]


POOL_MODULES = {"concurrent.futures", "multiprocessing"}


def test_only_a_pooled_run_imports_the_process_pool():
    (cli,) = modules_after("import bubbledate.cli\nprobe()\n")
    layers = {f"bubbledate.{m}" for m in ("rng", "dgp", "estimator", "montecarlo", "asymptotics", "dataio", "cli")}
    assert layers <= cli
    assert not POOL_MODULES & cli
    serial, pooled = modules_after(
        "from dataclasses import replace\n"
        "import bubbledate.montecarlo as mc\n"
        "config = replace(mc.preset('baseline'), T_grid=(100,), reps=4)\n"
        "mc.run_experiment(config, workers=1)\nprobe()\n"
        "mc.run_experiment(config, workers=2)\nprobe()\n"
    )
    assert not POOL_MODULES & serial
    assert POOL_MODULES <= pooled
