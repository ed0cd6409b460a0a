"""Keyed random streams: determinism, independence, prefix structure."""
from __future__ import annotations

import numpy as np
import pytest

from bubbledate import ConfigError
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
