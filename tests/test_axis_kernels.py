"""The per-axis point kernels against their row-form formulas, bit for bit.

ball_points, the mirror coupling's step, clamp_projection and margins II and
III do their arithmetic one coordinate column at a time. The references
below are the row forms they replaced: the same operations on (m, n) rows,
broadcast against n-vectors. Every case asserts array_equal, so a change of
operand order or of a reduction kernel shows here before it shows in a pin.
"""

import numpy as np
import pytest

from dpplab.certifier import (BallMC, NestedSearch, _axis_pushes, margin_II,
                              margin_III)
from dpplab.comparison import ComparisonParams, _axes, f_axes
from dpplab.core import BALL_TOL
from dpplab.couplings import (CouplingMap, clamp_projection, mirror_map,
                              rotation_map)
from dpplab.operators import ball_lattice
from dpplab.rng import antithetic_sample, ball_points, substream, uniform_ball

EPS = 0.05


# -- row-form references ------------------------------------------------------


def ball_rows(g, u, epsilon):
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    r = epsilon * u ** (1.0 / g.shape[1])
    return g / norms * r[:, None]


def draws_rows(seed, n, epsilon, m, antithetic):
    rng = substream(seed)

    def draw(k):
        g = rng.standard_normal((k, n))
        return ball_rows(g, rng.random(k), epsilon)

    if not antithetic:
        return draw(m)
    m += m % 2
    half = draw(m // 2)
    out = np.empty((m, n))
    out[0::2] = half
    out[1::2] = -half
    return out


def mirror_rows(x, z, h):
    v = (x - z) / np.linalg.norm(x - z)
    return h - 2.0 * np.multiply.outer(h @ v, v)


def step_rows(x, z, H, epsilon):
    X = x + H
    land = H - (z - x)
    apart = np.flatnonzero(~(np.einsum("ij,ij->i", land, land) < epsilon**2))
    if len(apart) == len(H):
        return X, z + mirror_rows(x, z, H)
    Z = X.copy()
    if len(apart):
        Z[apart] = z + mirror_rows(x, z, H[apart])
    return X, Z


def clamp_rows(x, epsilon, y):
    d = np.linalg.norm(y - x, axis=1)
    out = y.copy()
    out[d >= 0.5 * epsilon] = x
    return out


def f_rows(p, X, Z):
    return f_axes(_axes(X), _axes(Z), p)


def margin_II_rows(p, x, z, epsilon, q):
    H = draws_rows(q.seed, x.size, epsilon, q.samples, q.antithetic)
    X, Z = step_rows(x, z, H, epsilon)
    return float(f_rows(p, x[None], z[None])[0]) - float(f_rows(p, X, Z).mean())


def margin_III_rows(p, x, z, epsilon, q):
    n = x.size
    Y = z + draws_rows(q.seed, n, epsilon, q.inner_samples, q.antithetic)
    pushes = _axis_pushes(x, z, epsilon)

    def blocks(nodes):
        XN = x + np.vstack([ball_lattice(n, epsilon, nodes), pushes])
        return [f_rows(p, XN[s:s + 64, None], Y[None])
                for s in range(0, len(XN), 64)]

    sup_mean = max(float(v.mean(axis=1).max())
                   for v in blocks(q.outer_nodes_per_axis))
    best = np.full(len(Y), np.inf)
    for v in blocks(q.inf_nodes_per_axis):
        best = np.minimum(best, v.min(axis=0))
    best = np.minimum(best, f_rows(p, clamp_rows(x, epsilon, Y), Y))
    reach = np.einsum("ij,ij->i", Y - x, Y - x) <= epsilon**2 * (1.0 + BALL_TOL)
    best[reach] = np.minimum(best[reach], f_rows(p, Y[reach], Y[reach]))
    gxz = float(f_rows(p, x[None], z[None])[0])
    return gxz - 0.5 * (sup_mean + float(best.mean()))


# -- ball draws -----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 7, 2048])
def test_ball_points_match_the_row_form(m, n):
    rng = substream(31, m, n)
    g, u = rng.standard_normal((m, n)), rng.random(m)
    g[m // 2] = 0.0   # a zero normal row maps to the center
    got = ball_points(g, u, EPS)
    assert got.flags.c_contiguous
    assert np.array_equal(got, ball_rows(g, u, EPS))
    assert not got[m // 2].any()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m, antithetic", [(7, False), (8, True), (2048, True)])
def test_antithetic_ball_draws_match_the_row_form(n, m, antithetic):
    rng = substream(5)
    got = antithetic_sample(lambda k: uniform_ball(rng, n, EPS, k), m,
                            antithetic)
    assert got.flags.c_contiguous
    assert np.array_equal(got, draws_rows(5, n, EPS, m, antithetic))


# -- couplings ------------------------------------------------------------------


def _pair(n, t):
    x = np.array([0.1, -0.2, 0.3][:n])
    d = np.array([0.6, 0.8, 0.0][:n]) if n == 2 else np.array([0.48, 0.6, 0.64])
    return x, x + t * d


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t, merged", [(2.5 * EPS, "none"), (0.7 * EPS, "some"),
                                       (0.0, "all")],
                         ids=["apart", "lens", "diagonal"])
def test_mirror_step_matches_the_row_form(n, t, merged):
    x, z = _pair(n, t)
    H = draws_rows(11, n, EPS, 512, True)
    X, Z = CouplingMap.mirror(x, z).step(x, z, H, EPS)
    RX, RZ = step_rows(x, z, H, EPS)
    assert X.flags.c_contiguous and Z.flags.c_contiguous
    assert np.array_equal(X, RX) and np.array_equal(Z, RZ)
    same = np.all(X == Z, axis=1)
    assert {"none": not same.any(), "some": 0 < same.sum() < len(H),
            "all": same.all()}[merged]


@pytest.mark.parametrize("n", [2, 3])
def test_mirror_map_matches_the_row_form(n):
    x, z = _pair(n, 0.3)
    H = draws_rows(13, n, EPS, 257, False)
    assert np.array_equal(mirror_map(x, z, H), mirror_rows(x, z, H))


@pytest.mark.parametrize("n", [2, 3])
def test_rotation_step_matches_the_row_form(n):
    x, z = _pair(n, 0.1)
    nu_x, nu_z = np.array([0.2, 0.1, -0.3][:n]), np.array([-0.1, 0.3, 0.2][:n])
    H = draws_rows(17, n, EPS, 64, True)
    X, Z = CouplingMap.rotation(nu_x, nu_z).step(x, z, H, EPS)
    assert np.array_equal(X, x + H)
    assert np.array_equal(Z, z + rotation_map(nu_x, nu_z)(H))


@pytest.mark.parametrize("n", [2, 3])
def test_clamp_projection_matches_the_row_form(n):
    x = np.array([0.5, 0.25, -0.125][:n])
    y = x + draws_rows(19, n, 1.5, 301, False)
    y[0] = x
    y[1] = x
    y[1, 0] += 0.5   # exactly eps/2 from x at eps = 1: projected
    got = clamp_projection(x, 1.0, y)
    assert np.array_equal(got, clamp_rows(x, 1.0, y))
    assert np.array_equal(got[1], x) and np.array_equal(got[0], x)


# -- margins --------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("t", [0.3 * EPS, 1.3 * EPS, 3.0 * EPS])
def test_margins_II_and_III_match_the_row_form(n, antithetic, t):
    p = ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=EPS)
    x, z = _pair(n, t)
    q2 = BallMC(samples=301, seed=23, antithetic=antithetic)
    assert margin_II(p, x, z, EPS, q2) == margin_II_rows(p, x, z, EPS, q2)
    q3 = NestedSearch(outer_nodes_per_axis=5, inner_samples=77,
                      inf_nodes_per_axis=7, seed=29, antithetic=antithetic)
    assert margin_III(p, x, z, EPS, q3) == margin_III_rows(p, x, z, EPS, q3)
