"""Keyed random streams: determinism, independence, prefix structure."""
from __future__ import annotations

import numpy as np
import pytest

from bubbledate import ConfigError, DgpConfig, IidGaussian, simulate
from bubbledate.rng import stream


def test_same_key_same_stream():
    a = stream(7, 3, 0).standard_normal(16)
    b = stream(7, 3, 0).standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    a = stream(7, 0).standard_normal(16)
    b = stream(7, 1).standard_normal(16)
    c = stream(8, 0).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_key_arity_matters():
    assert not np.array_equal(
        stream(7).standard_normal(8), stream(7, 0).standard_normal(8)
    )


def test_prefix_property_within_one_stream():
    # a shorter draw from a fresh stream is a prefix of a longer one, which
    # is what makes a T=400 replication share its noise with the T=800
    # replication under the same key
    short = stream(11, 5, 0).standard_normal(400)
    long = stream(11, 5, 0).standard_normal(800)
    assert np.array_equal(short, long[:400])


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="non-negative"):
        stream(-1)
    with pytest.raises(ConfigError, match="non-negative"):
        stream(-3, 0, 0)


def test_non_integer_seed_or_key_rejected():
    # truncating 3.9 to 3 would hand seed 3's stream to a request that never asked for it
    for args in ((1.5,), (1, 0.5), (3, 0, 2.0), ("1",), (None,), (True,), (np.True_,), (1, False), (1, 0, np.True_)):
        with pytest.raises(ConfigError, match="integers"):
            stream(*args)
    with pytest.raises(ConfigError, match="integers"):
        simulate(DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=100), IidGaussian(), 3.9)
    with pytest.raises(ConfigError, match="integers"):
        simulate(DgpConfig(0.4, 0.6, 0.7, phi_a=1.05, phi_b=0.96, T=100), IidGaussian(), True)


def test_numpy_integers_are_seeds_and_keys():
    want = stream(7, 3, 0).standard_normal(8)
    assert np.array_equal(stream(np.int64(7), np.uint32(3), np.int8(0)).standard_normal(8), want)
