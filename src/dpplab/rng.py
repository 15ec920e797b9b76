"""Counter-based random streams: independent substreams from (seed, path).

Every stochastic routine in the package derives its randomness through
`substream` (or `substreams`, its batched form), keyed by a master seed plus
integer path components (episode index, sample index, ...). Streams are
Philox counter-based, so results are reproducible bit-for-bit regardless of
execution order or thread count.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 64) - 1


def _splitmix(x):
    """One splitmix64 step on a Python int, or elementwise on a uint64
    array (whose arithmetic wraps modulo 2**64, so the masks are no-ops)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stream_key(seed: int, *path: int) -> int:
    acc = _splitmix(int(seed) & _MASK)
    for p in path:
        acc = _splitmix(acc ^ (int(p) & _MASK))
    return acc


def stream_keys(seed: int, count: int) -> np.ndarray:
    """(count,) uint64: stream_key(seed, k) for k in range(count), in one
    vectorized splitmix pass."""
    return _splitmix(np.arange(count, dtype=np.uint64) ^ np.uint64(stream_key(seed)))


class _PhiloxKey(ISeedSequence):
    """A seed sequence whose state is a given Philox key. Philox seeded
    with it reads the key from `generate_state`, so the stream is that of
    `Philox(key=key)` but no SeedSequence is first drawn from OS entropy."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _philox(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent Generator for (seed, *path), stable across runs: the
    stream of `Philox(key=[seed, stream_key(seed, *path)])`. Its seed
    sequence is a bare key, so the generator does not support `spawn`."""
    return _philox(np.array([int(seed) & _MASK, stream_key(seed, *path)],
                            dtype=np.uint64))


def substreams(seed: int, count: int) -> list:
    """[substream(seed, k) for k in range(count)], keyed by stream_keys."""
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = int(seed) & _MASK
    keys[:, 1] = stream_keys(seed, count)
    return [_philox(key) for key in keys]


def uniform_ball(rng: np.random.Generator, n: int, epsilon: float,
                 m: int) -> np.ndarray:
    """m points uniform in the open n-ball of radius epsilon."""
    g = rng.standard_normal((m, n))
    return ball_points(g, rng.random(m), epsilon)


def ball_points(g: np.ndarray, u: np.ndarray, epsilon: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """Points of the k-ball of radius epsilon from standard normal rows g
    (m, k) and uniforms u (m,): direction g/|g|, radius epsilon*u^(1/k).

    The arithmetic runs one coordinate column at a time: |g|^2 sums the
    squared columns in order, the bits of np.linalg.norm(g, axis=1), and
    each output column is g[:, j] / |g| * r. Each row depends on its own
    draws only, so a row's bits do not depend on how many rows are
    transformed together. out, an (m, k) array, may be g itself.
    """
    m, k = g.shape
    sq = g[:, 0] * g[:, 0]
    for j in range(1, k):
        sq += g[:, j] * g[:, j]
    norms = np.sqrt(sq, out=sq)
    norms[norms == 0.0] = 1.0
    r = u ** (1.0 / k)
    r *= epsilon
    if out is None:
        out = np.empty((m, k))
    for j in range(k):
        np.divide(g[:, j], norms, out=out[:, j])
        out[:, j] *= r
    return out


def uniform_disk(rng: np.random.Generator, basis: np.ndarray, epsilon: float,
                 m: int) -> np.ndarray:
    """m points uniform in the (n-1)-disk spanned by `basis` rows, radius epsilon."""
    k = basis.shape[0]
    local = uniform_ball(rng, k, epsilon, m)
    return local @ basis


def antithetic_sample(draw, m: int, antithetic: bool) -> np.ndarray:
    """draw(m), or with antithetic=True the rows h0, -h0, h1, -h1, ... of
    draw(m // 2); m must then be even.

    draw(k) returns k independent rows (a ball or disk sample, say); the
    pairing leaves each row's law intact when that law is symmetric.
    """
    if not antithetic:
        return draw(m)
    if m % 2 != 0:
        raise ValueError("antithetic sampling needs an even sample count")
    half = draw(m // 2)
    out = np.empty((m,) + half.shape[1:], dtype=half.dtype)
    pairs = out.reshape((m // 2, 2, -1))
    for j, c in enumerate(half.reshape((m // 2, -1)).T):   # column by column
        pairs[:, 0, j] = c
        np.negative(c, out=pairs[:, 1, j])
    return out
