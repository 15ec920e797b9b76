"""Substream determinism and the uniform ball/disk samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dpplab.core import orthonormal_complement
from dpplab.rng import (stream_key, stream_keys, substream, substreams,
                        uniform_ball, uniform_disk)


def test_substream_reproducible():
    a = substream(42, 1, 2).random(100)
    b = substream(42, 1, 2).random(100)
    assert np.array_equal(a, b)


def test_substream_distinct_paths_differ():
    a = substream(42, 0).random(100)
    b = substream(42, 1).random(100)
    c = substream(43, 0).random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_key_order_sensitive():
    assert stream_key(1, 2, 3) != stream_key(1, 3, 2)
    assert stream_key(1) != stream_key(2)


def test_substream_huge_path_components():
    # path components beyond 64 bits fold without error
    g = substream(7, 2**70 + 11, -3)
    assert g.random() == substream(7, 2**70 + 11, -3).random()


def test_substream_matches_philox_key_streams():
    # the bare-key seed sequence leaves every stream that of Philox(key=...)
    rng = np.random.default_rng(5)
    for seed, path in zip(rng.integers(0, 2**63, 1000).tolist(),
                          rng.integers(-2**40, 2**40, (1000, 2)).tolist()):
        key = np.array([seed, stream_key(seed, *path)], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key))
        got = substream(seed, *path)
        assert np.array_equal(got.random(3), ref.random(3))
        assert np.array_equal(got.standard_normal(3), ref.standard_normal(3))
        assert np.array_equal(got.integers(0, 1000, 3), ref.integers(0, 1000, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.one_of(st.integers(-2**80, 2**80),
                      st.integers(2**63, 2**64 + 2**20),
                      st.sampled_from([-1, -2**63, 2**63, 2**64 - 1, 2**64])),
       count=st.integers(0, 80))
def test_batched_keys_match_stream_key(seed, count):
    # one vectorized uint64 splitmix pass gives stream_key(seed, k) for every
    # k, with the seed folded to 64 bits as stream_key folds it, and the
    # generators it keys are substream's
    assert stream_keys(seed, count).tolist() == [stream_key(seed, k)
                                                 for k in range(count)]
    gens = substreams(seed, min(count, 3))
    for k, g in enumerate(gens):
        assert np.array_equal(g.random(3), substream(seed, k).random(3))


def test_substream_does_not_spawn():
    with pytest.raises(TypeError):
        substream(42, 1).spawn(1)


def test_uniform_ball_support_and_radius_law():
    rng = substream(9)
    for n in (2, 3):
        h = uniform_ball(rng, n, 0.8, 50_000)
        r = np.linalg.norm(h, axis=1)
        assert r.max() <= 0.8
        # P(|h| <= s) = (s/eps)^n
        p = stats.kstest(r, lambda s: (s / 0.8) ** n).pvalue
        assert p > 1e-4, (n, p)


def test_uniform_ball_centered():
    rng = substream(13)
    h = uniform_ball(rng, 2, 1.0, 100_000)
    se = h.std(axis=0) / np.sqrt(len(h))
    assert np.all(np.abs(h.mean(axis=0)) < 4 * se)


def test_uniform_disk_in_hyperplane():
    rng = substream(21)
    nu = np.array([1.0, -2.0, 0.5])
    basis = orthonormal_complement(nu)
    h = uniform_disk(rng, basis, 0.3, 20_000)
    assert np.max(np.abs(h @ nu)) < 1e-12 * np.linalg.norm(nu)
    r = np.linalg.norm(h, axis=1)
    assert r.max() <= 0.3
    # disk in R^3 is a 2-ball: quadratic radius law
    p = stats.kstest(r, lambda s: (s / 0.3) ** 2).pvalue
    assert p > 1e-4
