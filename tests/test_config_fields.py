"""Each config type owns the rules of its fields: a value of the wrong type raises
one ConfigError that names the field, whether it is built from Python or read from JSON."""
from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from bubbledate import (
    ConfigError,
    DgpConfig,
    ExperimentConfig,
    IidGaussian,
    LinearProcess,
    SingleShiftVolatility,
    Target,
    TrimmingPolicy,
    VolatilityScaled,
    preset,
)
from bubbledate.asymptotics import Discretization
from bubbledate.dataio import error_spec_from_dict, experiment_config_from_dict, experiment_config_to_dict

DGP = DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=100)
PROFILE = SingleShiftVolatility(1.0, 3.0, 0.5)
EXPERIMENT = dict(dgp=DGP, errors=IidGaussian(), T_grid=(100,), phi_a_grid=(1.05,), reps=4)

# a valid construction of every config type
VALID = {
    DgpConfig: dict(tau_e=0.4, tau_c=0.6, tau_r=0.7, phi_a=1.05, phi_b=0.96, T=100),
    IidGaussian: {},
    SingleShiftVolatility: dict(sigma0=1.0, sigma1=3.0),
    VolatilityScaled: dict(profile=PROFILE),
    LinearProcess: dict(psi=(1.0, 0.5)),
    TrimmingPolicy: {},
    ExperimentConfig: EXPERIMENT,
    Discretization: {},
}
# values that each scalar annotation rejects: a string and a bool, or for a string or bool field, a number
WRONG = {"float": ("1.5", True), "int": ("100", True, 100.5), "bool": ("true", 1), "str": (True, 3)}
# the fields that are not scalars; each has its own rule, tested below
COMPOSITE = {"profile", "psi", "dgp", "errors", "T_grid", "phi_a_grid", "phi_b_grid", "trimming", "targets"}

EXPERIMENT_JSON = experiment_config_to_dict(ExperimentConfig(**EXPERIMENT))
# how JSON reaches each type that a config file sets: field name, value -> the reader's result
FROM_JSON = {
    DgpConfig: lambda k, v: experiment_config_from_dict({**EXPERIMENT_JSON, "dgp": {**EXPERIMENT_JSON["dgp"], k: v}}),
    IidGaussian: lambda k, v: error_spec_from_dict({"kind": "iid_gaussian", k: v}),
    SingleShiftVolatility: lambda k, v: error_spec_from_dict(
        {"kind": "volatility_scaled", "profile": {"kind": "single_shift", "sigma0": 1.0, "sigma1": 3.0, k: v}}),
    TrimmingPolicy: lambda k, v: experiment_config_from_dict({**EXPERIMENT_JSON, "trimming": v}),
    ExperimentConfig: lambda k, v: experiment_config_from_dict({**EXPERIMENT_JSON, k: v}),
}


def scalar_cases():
    for cls, valid in VALID.items():
        for f in fields(cls):
            if f.name not in COMPOSITE:
                for bad in WRONG[f.type]:  # a KeyError here is a new kind of field: give it a row in WRONG
                    yield pytest.param(cls, valid, f.name, bad, id=f"{cls.__name__}.{f.name}={bad!r}")


@pytest.mark.parametrize("cls, valid, name, bad", list(scalar_cases()))
def test_each_scalar_field_rejects_a_value_of_another_type(cls, valid, name, bad):
    cls(**valid)
    with pytest.raises(ConfigError) as err:
        cls(**{**valid, name: bad})
    assert [p for p in err.value.problems if p.startswith(f"{name} must be ")] == err.value.problems != []
    if cls in FROM_JSON:
        with pytest.raises(ConfigError) as read:
            FROM_JSON[cls](name, bad)
        assert read.value.problems == err.value.problems


def test_every_config_field_is_covered():
    # a new field is either a scalar, which the generated cases cover, or a composite with its own test here
    for cls in VALID:
        for f in fields(cls):
            assert f.name in COMPOSITE or f.type in WRONG, (cls.__name__, f.name, f.type)


class TestExperimentConfigFields:
    def test_rejects_values_of_the_wrong_type(self):
        base = preset("baseline")
        for overrides, problem in (
            (dict(T_grid=(400.5,)), "T_grid[0] must be an integer, got 400.5"),
            (dict(T_grid=(400, "800")), "T_grid[1] must be an integer, got '800'"),
            (dict(phi_a_grid=("1.05",)), "phi_a_grid[0] must be a real number, got '1.05'"),
            (dict(phi_b_grid=(0.96, True)), "phi_b_grid[1] must be a real number, got True"),
            (dict(T_grid=400), "T_grid must be a tuple or list, got 400"),
            (dict(reps=5.5), "reps must be an integer, got 5.5"),
            (dict(reps=True), "reps must be an integer, got True"),
            (dict(reps="5"), "reps must be an integer, got '5'"),
            (dict(base_seed=None), "base_seed must be an integer, got None"),
            (dict(bic="yes"), "bic must be a boolean, got 'yes'"),
            (dict(name=3), "name must be a string, got 3"),
            (dict(targets=("collapse",)),
             "targets entries must be Target members (collapse, emergence, recovery), got 'collapse'"),
            (dict(targets="collapse"), "targets must be a tuple or list, got 'collapse'"),
            (dict(trimming=0.05), "trimming must be a TrimmingPolicy, got 0.05"),
            (dict(dgp=None), "dgp must be a DgpConfig, got None"),
            (dict(errors=PROFILE), f"errors must be an error spec, got {PROFILE!r}"),
        ):
            with pytest.raises(ConfigError) as err:
                replace(base, **overrides)
            assert err.value.problems == [problem]

    def test_one_error_names_each_bad_field(self):
        with pytest.raises(ConfigError) as err:
            replace(preset("baseline"), reps=True, bic="yes", T_grid=(400.5, 800), trimming=0.05)
        assert err.value.problems == ["trimming must be a TrimmingPolicy, got 0.05", "bic must be a boolean, got 'yes'",
                                      "reps must be an integer, got True", "T_grid[0] must be an integer, got 400.5"]

    def test_grids_are_stored_as_tuples_of_int_and_float(self):
        cfg = ExperimentConfig(**{**EXPERIMENT, "T_grid": [np.int64(100), 200], "phi_a_grid": [2, np.float32(1.5)],
                                  "phi_b_grid": [np.float64(0.5)], "targets": [Target.RECOVERY]})
        assert (cfg.T_grid, cfg.phi_a_grid, cfg.phi_b_grid, cfg.targets) == ((100, 200), (2.0, 1.5), (0.5,),
                                                                             (Target.RECOVERY,))
        assert [type(x) for x in (*cfg.T_grid, *cfg.phi_a_grid, *cfg.phi_b_grid)] == [int, int, float, float, float]
        assert all(type(x) is tuple for x in (cfg.T_grid, cfg.phi_a_grid, cfg.phi_b_grid, cfg.targets))

    def test_json_reads_by_the_same_rules(self):
        for key, value, problem in (
            ("T_grid", [100.5], "T_grid[0] must be an integer, got 100.5"),
            ("T_grid", 100, "T_grid must be a tuple or list, got 100"),
            ("phi_b_grid", [0.5, "0.9"], "phi_b_grid[1] must be a real number, got '0.9'"),
            ("targets", ["collapse", "bogus"],
             "targets entries must be Target members (collapse, emergence, recovery), got 'bogus'"),
            ("targets", "collapse", "targets must be a tuple or list, got 'collapse'"),
            ("targets", [["collapse"]],
             "targets entries must be Target members (collapse, emergence, recovery), got ['collapse']"),
        ):
            with pytest.raises(ConfigError) as err:
                experiment_config_from_dict({**EXPERIMENT_JSON, key: value})
            assert err.value.problems == [problem]


def test_discretization_fields_are_real_numbers():
    for overrides, problem in ((dict(step="0.01"), "step must be a real number, got '0.01'"),
                               (dict(v_max=True), "v_max must be a real number, got True")):
        with pytest.raises(ConfigError) as err:
            Discretization(**overrides)
        assert err.value.problems == [problem]
    assert Discretization(step=np.float64(0.5), v_max=np.int64(50)).n_grid() == 100


def test_linear_process_json_and_python_share_the_array_rule():
    for psi in (1.5, "1.5", True, {"a": 1.0}):
        with pytest.raises(ConfigError) as err:
            LinearProcess(psi)
        assert err.value.problems == [f"psi must be an array, got {psi!r}"]
        with pytest.raises(ConfigError) as read:
            error_spec_from_dict({"kind": "linear_process", "psi": psi})
        assert read.value.problems == err.value.problems
