"""Deterministic random-stream derivation.

Every stochastic routine in the package derives its generator from a base
seed plus an integer key (replication index, draw index, ...) through
numpy's SeedSequence spawning mechanism.  Streams depend only on their key,
never on evaluation order, so parallel schedules reproduce serial output
bit for bit.
"""
from __future__ import annotations

import numbers

import numpy as np

from .types import ConfigError


def stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, *key) stream.

    The same arguments always produce the same stream, and distinct keys
    produce statistically independent streams.  A seed or key that is not
    an integer (numpy integers are; bools are not), and a negative seed, raise ConfigError.
    """
    if any(isinstance(k, (bool, np.bool_)) or not isinstance(k, numbers.Integral) for k in (seed, *key)):
        raise ConfigError([f"seed and key must be integers, got {(seed, *key)}"])
    seed, key = int(seed), tuple(map(int, key))
    if seed < 0:
        raise ConfigError([f"seed must be a non-negative integer, got {seed}"])
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))
