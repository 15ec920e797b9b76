"""Margin checkers for the four coupled-step inequalities, plus the region sweep."""

import hashlib
import json
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from dpplab import certifier, operators
from dpplab.comparison import (ComparisonParams, default_params, eval_f,
                               eval_f1, eval_f2, f_axes, pair_function)
from dpplab.couplings import (clamp_projection, rotate, rotation_frames,
                              rotation_map)
from dpplab.certifier import (
    BallMC,
    GridSearch,
    NestedSearch,
    PairSearch,
    _axis_pushes,
    _product_blocks,
    certify_region,
    intersection_volume,
    margin_I,
    margin_II,
    margin_III,
    margin_T,
    overlap_fraction_mc,
    regime_tag,
    small_ball_escapes,
    volume_fact_holds,
)
from dpplab.operators import (GameSpec, ball_lattice, disk_rule, move_radii,
                              sphere_directions)
from dpplab.rng import antithetic_sample, stream_key, substream, uniform_ball

SMALL = {
    "I": GridSearch(nodes_per_axis=9),
    "II": BallMC(samples=2048, seed=0, antithetic=True),
    "III": NestedSearch(outer_nodes_per_axis=5, inner_samples=512,
                        inf_nodes_per_axis=5, seed=0, antithetic=True),
    "T": PairSearch(direction_count=8, radius_count=2, disk_node_count=5,
                    disk_angle_count=6),
}


def _margins(g, x, z, eps, alpha=0.5):
    return {
        "I": margin_I(g, x, z, eps, SMALL["I"]),
        "II": margin_II(g, x, z, eps, SMALL["II"]),
        "III": margin_III(g, x, z, eps, SMALL["III"]),
        "T": margin_T(g, x, z, eps, alpha, SMALL["T"]),
    }


# -- shared structure ----------------------------------------------------------


@pytest.mark.parametrize("counts", [
    (1, 64, 1), (2, 64, 2), (5, 64, 2), (2, 64, 5), (5, 1, 5), (5, 0, 5),
], ids=["1-nodes", "2-nodes", "2-inf-nodes", "2-outer-nodes", "1-sample",
        "0-samples"])
def test_nested_search_rejects_unusable_counts(counts):
    # 1 or 2 nodes per axis clip to an empty ball lattice, and fewer than 2
    # inner samples leave an empty or a one-draw mean
    for antithetic in (True, False):
        with pytest.raises(ValueError, match="at least"):
            NestedSearch(*counts, antithetic=antithetic)
    NestedSearch(3, 2, 3)


def test_constant_g_gives_zero_margins():
    const = lambda X, Z: np.full(len(np.atleast_2d(X)), 3.25)
    rng = substream(301)
    for _ in range(12):
        x = rng.uniform(-0.5, 0.5, 2)
        z = x + rng.uniform(0.05, 0.5) * rng.standard_normal(2)
        eps = float(rng.uniform(0.05, 0.3))
        for name, m in _margins(const, x, z, eps).items():
            assert abs(m) <= 1e-12, (name, m)


def test_margins_shift_invariant():
    g = lambda X, Z: np.einsum("ij,ij->i", X + Z, X + Z) + np.sin(X[:, 0])
    gc = lambda X, Z: g(X, Z) + 11.0
    x, z = np.array([0.2, -0.1]), np.array([-0.15, 0.2])
    a = _margins(g, x, z, 0.2)
    b = _margins(gc, x, z, 0.2)
    for name in a:
        assert math.isclose(a[name], b[name], rel_tol=0, abs_tol=1e-11), name


# -- inequality I ---------------------------------------------------------------


def test_margin_I_convex_counterexample():
    # g = |x+z|^2 is convex; both tokens pushed the same way gain 4 eps^2
    g = lambda X, Z: np.einsum("ij,ij->i", X + Z, X + Z)
    got = margin_I(g, (0.0, 0.0), (0.0, 0.0), 1.0, GridSearch(nodes_per_axis=21))
    assert math.isclose(got, -2.0, rel_tol=1e-12)


def test_margin_I_grid_refinement_never_raises_margin():
    # the 11-node axis grid is a subset of the 21-node grid
    p = default_params(2)
    from dpplab.comparison import pair_function

    g = pair_function(p)
    rng = substream(307)
    for _ in range(25):
        x = uniform_ball(rng, 2, 0.8, 1)[0]
        z = x + rng.uniform(0.05, 0.6) * _unit(rng)
        if np.linalg.norm(z) >= 1:
            continue
        coarse = margin_I(g, x, z, p.epsilon, GridSearch(nodes_per_axis=11))
        fine = margin_I(g, x, z, p.epsilon, GridSearch(nodes_per_axis=21))
        assert fine <= coarse + 1e-12


def _unit(rng):
    v = rng.standard_normal(2)
    return v / np.linalg.norm(v)


def _pair_at(rng, n, t):
    x = rng.uniform(-0.4, 0.4, n)
    d = rng.standard_normal(n)
    return x, x + t * d / np.linalg.norm(d)


@pytest.mark.parametrize("n", [2, 3])
def test_margin_I_lattice_matches_product(n):
    # handed params, margin_I reads the lattice-by-lattice block off the
    # difference lattice; a plain callable takes the whole product. Desk
    # margins agree bit for bit (near the staircase dominates, far the
    # extrema sit on the pushes); elsewhere to rounding
    desk = ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=0.05)
    toy = ComparisonParams(n=n, delta=0.5, C=2.0, N=5, epsilon=0.1)
    strict = default_params(n, "strict")
    rng = substream(83, n)
    for p in (desk, toy, strict):
        eps, g = p.epsilon, pair_function(p)
        for nodes in ((5, 8, 13) if n == 2 else (4, 7)):
            # near, lens (t < 2 eps), just past the lens, far
            for t in (0.3 * eps, 1.2 * eps, 1.9 * eps, 3.0 * eps, 0.35, 0.7):
                x, z = _pair_at(rng, n, t)
                got = margin_I(p, x, z, eps, GridSearch(nodes))
                want = margin_I(g, x, z, eps, GridSearch(nodes))
                if p is desk or p is strict:
                    assert np.array_equal(got, want, equal_nan=True), (t, got, want)
                else:
                    assert math.isclose(got, want, rel_tol=1e-13), (t, got, want)
    # on the diagonal there are no pushes and no midpoint
    x = np.array([0.1, -0.2, 0.05][:n])
    assert margin_I(desk, x, x, 0.05, GridSearch(7)) == \
        margin_I(pair_function(desk), x, x, 0.05, GridSearch(7))


def test_margin_I_params_path_evaluates_only_pushes_through_g(monkeypatch):
    # the lattice block never reaches f's kernel: it sees the push rows and
    # columns, f(x, z) and the midpoint, nothing of size M^2
    p = default_params(2)
    sizes = []

    def counted(xs, zs, params):
        v = f_axes(xs, zs, params)
        sizes.append(v.size)
        return v

    monkeypatch.setattr(certifier, "f_axes", counted)
    x, z = np.array([0.1, 0.05]), np.array([0.16, 0.08])
    margin_I(p, x, z, p.epsilon, GridSearch(13))
    M = len(ball_lattice(2, p.epsilon, 13))
    assert sorted(sizes) == [1, 1, 4 * M, 4 * (M + 4)]
    assert not certifier._lattice_keys(2, p.epsilon, 13).flags.writeable


@pytest.mark.parametrize("n", [2, 3])
def test_separations_match_per_pair_norms(n):
    # margin_T forms t, u and the pushes for a chunk of pairs at once; each
    # pair's must be its own np.linalg.norm (a BLAS dot), which
    # norm(axis=1) does not always match in the last bit
    rng = substream(97, n)
    X = rng.uniform(-1.0, 1.0, (2000, n))
    Z = X + rng.uniform(-0.3, 0.3, (2000, n)) * rng.uniform(0.0, 1.0, (2000, 1))
    t, u, pushes = certifier._separations(X, Z, 0.05)
    for k in range(len(X)):
        d = X[k] - Z[k]
        tk = float(np.linalg.norm(d))
        uk, meet = d / tk, min(0.05, 0.5 * tk)
        assert t[k] == tk and np.array_equal(u[k], uk)
        assert np.array_equal(pushes[k], np.stack([0.05 * uk, -0.05 * uk,
                                                   meet * uk, -meet * uk]))
        if k < 50:
            assert np.array_equal(_axis_pushes(X[k], Z[k], 0.05), pushes[k])


@pytest.mark.parametrize("n", [2, 3])
def test_margins_params_path_matches_plain_callable(n):
    # handed params, margins II, III and T evaluate f's kernel on broadcast
    # blocks (margin_T over all the pairs it is given at once); handed
    # pair_function(params) they call it on the repeated rows: the same
    # margins bit for bit, merging (t < 2 eps), mid and far pairs alike
    desk = ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=0.05)
    toy = ComparisonParams(n=n, delta=0.5, C=2.0, N=5, epsilon=0.1)
    rng = substream(89, n)
    for p in (desk, toy, default_params(n, "strict")):
        eps, g = p.epsilon, pair_function(p)
        X, Z = zip(*(_pair_at(rng, n, t) for t in
                     (0.3 * eps, 1.2 * eps, 1.9 * eps, 3.0 * eps, 0.35, 0.7)))
        for x, z in zip(X, Z):
            for name, q in (("II", SMALL["II"]), ("III", SMALL["III"]),
                            ("III", NestedSearch(5, 128, 7, seed=4)),
                            ("T", SMALL["T"])):
                margin = getattr(certifier, f"margin_{name}")
                args = (0.5, q) if name == "T" else (q,)
                got, want = margin(p, x, z, eps, *args), margin(g, x, z, eps, *args)
                assert np.array_equal(got, want, equal_nan=True), (name, got, want)
        # margin_T's batch over pairs gives each pair's own margin
        X, Z = np.array(X), np.array(Z)
        M = (X + Z) / 2
        batch = certifier._margins_T(p, X, Z, eps, 0.8, SMALL["T"],
                                     eval_f(X, Z, p), eval_f(M, M, p))
        one = [margin_T(g, x, z, eps, 0.8, SMALL["T"]) for x, z in zip(X, Z)]
        assert np.array_equal(batch, one, equal_nan=True)


# -- inequality II ----------------------------------------------------------------


def test_margin_II_requires_off_diagonal():
    g = lambda X, Z: np.zeros(len(X))
    with pytest.raises(ValueError):
        margin_II(g, (0.1, 0.1), (0.1, 0.1), 0.2)


def test_margin_II_staircase_gain_beats_coarse_bound():
    # mirrored step at |x-z| >= 7eps/4: the distance drop crosses at least
    # one annulus on the distinguished sub-ball (4^-n of the volume), and
    # merges hit the staircase peak, so E f2(next) > C^2/4^n f2(x,z)
    p = ComparisonParams(n=2, delta=0.5, C=10.0, N=20, epsilon=0.1)
    g2 = lambda X, Z: -eval_f2(X, Z, p)
    for t in (0.175, 0.19):
        x, z = np.array([-t / 2, 0.0]), np.array([t / 2, 0.0])
        m = margin_II(g2, x, z, p.epsilon,
                      BallMC(samples=100_000, seed=3, antithetic=True))
        assert m >= (p.C**2 / 4**2 - 1.0) * eval_f2(x, z, p), t


def test_margin_II_far_regime_drift_chain():
    # steep schedule: the mirrored f1 drift dominates the quadratic gain by
    # the margin eps^2 t^(delta-2) (C delta / (4(n+2)) - 10)
    C, d, eps, n = 20000.0, 0.1, 0.05, 2
    g1 = lambda X, Z: eval_f1(X, Z, C, d)
    for t in (0.3, 0.8, 1.5):
        x, z = np.array([-t / 2, 0.1]), np.array([t / 2, 0.1])
        m = margin_II(g1, x, z, eps,
                      BallMC(samples=100_000, seed=9, antithetic=True))
        assert m >= (C * d / (4 * (n + 2)) - 10.0) * eps**2 * t ** (d - 2), t


def test_margin_II_deterministic_in_seed():
    g = lambda X, Z: np.einsum("ij,ij->i", X - Z, X - Z) ** 0.3
    x, z = np.array([0.2, 0.0]), np.array([-0.2, 0.1])
    a = margin_II(g, x, z, 0.2, BallMC(samples=4096, seed=77, antithetic=True))
    b = margin_II(g, x, z, 0.2, BallMC(samples=4096, seed=77, antithetic=True))
    c = margin_II(g, x, z, 0.2, BallMC(samples=4096, seed=78, antithetic=True))
    assert a == b
    assert a != c


# -- inequality III ----------------------------------------------------------------


def _margin_III_two_pass(g, x, z, eps, q):
    """margin_III with the sup and inf searches as separate passes over
    the g(x', y) blocks, each evaluating g afresh."""
    x, z = np.asarray(x, float), np.asarray(z, float)
    rng = substream(q.seed)
    m = q.inner_samples + q.inner_samples % 2
    Y = z + antithetic_sample(lambda k: uniform_ball(rng, 2, eps, k), m, True)

    def blocks(nodes):
        offs = ball_lattice(2, eps, nodes)
        XN = x + np.vstack([offs, _axis_pushes(x, z, eps)])
        return _product_blocks(g, XN, Y, 64)

    sup_mean = max(float(v.mean(axis=1).max())
                   for v in blocks(q.outer_nodes_per_axis))
    best = np.full(len(Y), math.inf)
    for v in blocks(q.inf_nodes_per_axis):
        best = np.minimum(best, v.min(axis=0))
    best = np.minimum(best, g(clamp_projection(x, eps, Y), Y))
    reach = np.einsum("ij,ij->i", Y - x, Y - x) <= eps**2 * (1.0 + 1e-12)
    best[reach] = np.minimum(best[reach], g(Y[reach], Y[reach]))
    gxz = float(g(x[None, :], z[None, :])[0])
    return gxz - 0.5 * (sup_mean + float(best.mean()))


def test_margin_III_one_pass_matches_two_pass():
    # equal node counts (the sweep scheme and the default): the sup of row
    # means and the column-wise inf share each block, with equal margins
    # and fewer g rows
    g = pair_function(default_params(2))
    rows = []

    def counted(X, Z):
        rows.append(len(X))
        return g(X, Z)

    rng = substream(77)
    for q in (SMALL["III"], NestedSearch(7, 256, 7, seed=3)):
        for _ in range(6):
            x = rng.uniform(-0.3, 0.3, 2)
            z = x + rng.uniform(0.02, 0.4) * rng.standard_normal(2)
            rows.clear()
            got = margin_III(counted, x, z, 0.1, q)
            one = sum(rows)
            rows.clear()
            assert got == _margin_III_two_pass(counted, x, z, 0.1, q)
            assert one < sum(rows)


def test_margin_III_requires_off_diagonal():
    g = lambda X, Z: np.zeros(len(X))
    with pytest.raises(ValueError):
        margin_III(g, (0.1, 0.1), (0.1, 0.1), 0.2)


def test_clamp_candidate_recovers_staircase_factor():
    # mean over y in B(z, eps) of f2(clamp(y), y) dominates C^2/3^n f2(x,z)
    # for separations past 2eps/3: merges (kept y) land on the diagonal peak
    p = ComparisonParams(n=2, delta=0.5, C=10.0, N=20, epsilon=0.1)
    rng = substream(311)
    for t in (0.067, 0.1, 0.15, 0.19):
        x, z = np.array([-t / 2, 0.0]), np.array([t / 2, 0.0])
        Y = z + uniform_ball(rng, 2, p.epsilon, 50_000)
        mean = eval_f2(clamp_projection(x, p.epsilon, Y), Y, p).mean()
        assert mean >= p.C**2 / 3**2 * eval_f2(x, z, p), t


# -- inequality T -------------------------------------------------------------------


def test_margin_T_alpha_one_matches_tug_margin():
    # pure jumps: T reduces to the half sup+inf over the sphere shells, which
    # agrees with margin_I for radially monotone g
    g = lambda X, Z: np.einsum("ij,ij->i", X + Z, X + Z)
    x, z = np.array([0.3, 0.0]), np.array([-0.3, 0.0])
    mT = margin_T(g, x, z, 0.5, 1.0, PairSearch(direction_count=64))
    mI = margin_I(g, x, z, 0.5, GridSearch(nodes_per_axis=41))
    assert abs(mT - mI) <= 1e-9


def _margin_T_reference(g, x, z, eps, alpha, q):
    """margin_T one move pair at a time: its own disk and rotation per pair."""
    n = x.size
    dirs = sphere_directions(n, q.direction_count)
    radii = move_radii(GameSpec.directional(eps, alpha, radius_count=q.radius_count))
    t = float(np.linalg.norm(x - z))
    u, meet = (x - z) / t, min(eps, 0.5 * t)
    NU = [r * e for r in radii for e in dirs] + [eps * u, -eps * u, meet * u, -meet * u]
    P = len(NU)
    tg = np.empty((P, P))
    for i, a in enumerate(NU):
        H, w = disk_rule(n, eps, a, q.disk_node_count, q.disk_angle_count)
        for j, b in enumerate(NU):
            jx, jz = x + a, z + b
            if t < 2.0 * eps and (i, j) == (P - 1, P - 2):
                jx = jz = 0.5 * (x + z)                     # the merge pair
            disk = g(x + H, z + rotation_map(a, b)(H)) @ w
            tg[i, j] = 0.5 * alpha * g(jx[None], jz[None])[0] + 0.5 * (1 - alpha) * disk
    return g(x[None], z[None])[0] - (tg.max() + tg.min())


@pytest.mark.parametrize("n", [2, 3])
def test_margin_T_matches_per_pair_reference(n):
    def g(X, Z):
        d = np.linalg.norm(X - Z, axis=1)
        s = X + Z
        return d**0.6 + np.einsum("ij,ij->i", s, s) + np.sin(3 * X[:, 0]) * Z[:, -1]

    rng = substream(331)
    q = SMALL["T"]
    for k in range(6):
        x = rng.uniform(-0.5, 0.5, n)
        z = x + (0.05, 0.15, 0.6)[k % 3] * rng.standard_normal(n)
        for alpha in (0.3, 0.8):
            got = margin_T(g, x, z, 0.1, alpha, q)
            want = _margin_T_reference(g, x, z, 0.1, alpha, q)
            assert math.isclose(got, want, rel_tol=1e-12), (k, alpha, got, want)


def _margin_T_uncached(g, x, z, eps, alpha, q):
    """margin_T with its direction tables built afresh for the pair: every
    unit's disk and every rotation frame over the whole (D, D) unit set."""
    n = x.size
    dirs = sphere_directions(n, q.direction_count)
    radii = move_radii(GameSpec.directional(eps, alpha, radius_count=q.radius_count))
    pushes = _axis_pushes(x, z, eps)
    NU = np.vstack([(radii[:, None, None] * dirs).reshape(-1, n), pushes])
    P = len(NU)
    (jump,) = _product_blocks(g, x + NU, z + NU, P)
    t = float(np.linalg.norm(x - z))
    if t < 2.0 * eps:
        mid = 0.5 * (x + z)
        jump[P - 1, P - 2] = g(mid[None], mid[None])[0]
    u = (x - z) / t
    units = np.vstack([dirs, u, -u])
    K = len(dirs)
    which = np.concatenate([np.tile(np.arange(K), len(radii)), [K, K + 1, K, K + 1]])
    H, w = disk_rule(n, eps, units, q.disk_node_count, q.disk_angle_count)
    c, cos, sin, ident = rotation_frames(units[:, None], units[None, :])
    Hs = H[:, None]
    RH = rotate(Hs, units[:, None, None], c[:, :, None], cos[..., None, None],
                sin[..., None, None])
    RH = np.where(ident[..., None, None], Hs, RH)
    D, nq = H.shape[:2]
    Xd = np.broadcast_to(x + Hs, RH.shape).reshape(-1, n)
    disk_means = g(Xd, (z + RH).reshape(-1, n)).reshape(D, D, nq) @ w
    tg = 0.5 * alpha * jump + 0.5 * (1 - alpha) * disk_means[np.ix_(which, which)]
    return g(x[None], z[None])[0] - (tg.max() + tg.min())


@pytest.mark.parametrize("n", [2, 3])
def test_margin_T_tables_match_uncached(n):
    # the fixed directions' disks and rotations come from a cache shared by
    # every pair; the margins are the bits of a fresh per-pair build
    p = ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=0.05)
    g = pair_function(p)
    rng = substream(337, n)
    certifier._jump_tables.cache_clear()
    for k in range(8):
        x, z = _pair_at(rng, n, (0.02, 0.07, 0.3, 0.6)[k % 4])
        for q in (SMALL["T"], PairSearch(16, 3, 9, 8)):
            for alpha in (0.5, 0.8):
                got = margin_T(p, x, z, p.epsilon, alpha, q)
                assert got == _margin_T_uncached(g, x, z, p.epsilon, alpha, q), (k, q, alpha)
    assert certifier._jump_tables.cache_info().misses == 2


def test_margin_T_tables_built_once_and_read_only(monkeypatch):
    calls = []
    monkeypatch.setattr(operators, "sphere_directions",
                        lambda n, K: calls.append((n, K)) or sphere_directions(n, K))
    g = lambda X, Z: np.einsum("ij,ij->i", X - Z, X - Z) ** 0.3
    x, z = np.array([0.3, 0.0]), np.array([-0.1, 0.2])
    certifier._jump_tables.cache_clear()
    operators._move_set.cache_clear()
    try:
        for _ in range(3):
            for eps in (0.1, 0.2):
                for alpha in (0.4, 0.9):
                    margin_T(g, x, z, eps, alpha, SMALL["T"])
        assert calls == [(2, 8), (2, 8)]
        for eps in (0.1, 0.2):
            for table in certifier._jump_tables(2, eps, SMALL["T"]):
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table.reshape(-1)[0] = 0.0
    finally:
        certifier._jump_tables.cache_clear()


def test_margin_T_tables_share_the_operators_move_set(monkeypatch):
    # apply_at, the grid menu and margin_T read one cached move set
    from dpplab.core import Ball, build_grid_domain

    seen = []
    cached = operators._move_set
    monkeypatch.setattr(operators, "_move_set",
                        lambda *key: seen.append(cached(*key)) or seen[-1])
    operators._grid_menu.cache_clear()
    certifier._jump_tables.cache_clear()
    try:
        spec = GameSpec.directional(0.2, 0.5, direction_count=8, radius_count=2,
                                    disk_node_count=5, disk_angle_count=6)
        operators.apply_at(lambda p: p[:, 0], np.zeros(2), spec)
        dom = build_grid_domain(Ball((0.0, 0.0), 0.5), 0.05, 0.2)
        operators._grid_menu(dom.ndim, dom.spacing, spec)
        tables = certifier._jump_tables(2, 0.2, SMALL["T"])
        assert len(seen) == 3 and seen[0] is seen[1] is seen[2]
        assert len(tables) == 5
        assert all(t is m for t, m in zip(tables, seen[0]))
    finally:
        operators._grid_menu.cache_clear()
        certifier._jump_tables.cache_clear()


def test_margin_T_validates_inputs():
    g = lambda X, Z: np.zeros(len(X))
    x, z = np.array([0.3, 0.0]), np.array([-0.3, 0.0])
    with pytest.raises(ValueError):
        margin_T(g, x, x, 0.5, 0.5)
    with pytest.raises(ValueError):
        margin_T(g, x, z, 0.5, 0.0)


# -- ball geometry facts ---------------------------------------------------------------


def test_intersection_volume_against_mc():
    for n in (2, 3):
        for t in (0.3, 1.0, 1.6):
            exact = intersection_volume(n, 1.0, t)
            frac, se = overlap_fraction_mc(n, 1.0, t, 400_000, seed=13)
            vol_ball = math.pi if n == 2 else 4 * math.pi / 3
            assert abs(exact / vol_ball - frac) <= 4 * se + 1e-12, (n, t)


def test_intersection_volume_disjoint():
    assert intersection_volume(2, 1.0, 2.0) == 0.0
    assert intersection_volume(3, 0.5, 1.1) == 0.0


def test_volume_fact_violated_in_2d_near_7_quarters():
    # the quarter-volume overlap claim fails in the plane on a thin window
    # just below separation 7eps/4; in 3d it holds across the whole range
    assert not volume_fact_holds(2, 1.0, 1.74)
    assert volume_fact_holds(2, 1.0, 1.70)
    lens = intersection_volume(2, 1.0, 1.74)
    assert lens / math.pi < 4.0**-2
    for t in np.linspace(0.01, 1.7499, 64):
        assert volume_fact_holds(3, 1.0, float(t))


def test_small_ball_never_escapes_beyond_7_quarters():
    rng = substream(317)
    for t in (1.75, 1.8, 1.95):
        x = np.array([0.0, 0.0])
        z = np.array([t, 0.0]) / 1.0
        assert small_ball_escapes(x, z, 1.0, 1_000_000, seed=19) == 0


def test_small_ball_escapes_when_pairs_overlap():
    # at t = eps/2 the whole small ball sits inside the shifted ball
    x = np.array([0.0, 0.0])
    z = np.array([0.5, 0.0])
    assert small_ball_escapes(x, z, 1.0, 10_000, seed=23) == 10_000


# -- regime tagging ----------------------------------------------------------------


def test_regime_tag_banding():
    eps, N = 0.1, 40  # split at 0.4
    assert regime_tag(0.05, eps, N) == "near|t<=2eps/3"
    assert regime_tag(0.1, eps, N) == "near|2eps/3<t<=7eps/4"
    assert regime_tag(0.19, eps, N) == "near|7eps/4<t<=2eps"
    assert regime_tag(0.3, eps, N) == "near|2eps<t<=split"
    assert regime_tag(0.5, eps, N) == "far|t>split"


# -- the region sweep ---------------------------------------------------------------


def test_certify_region_desk_positive():
    p = default_params(2)
    reports = certify_region(p, inequalities=("I",), n_samples=60, seed=5)
    (rep,) = reports
    assert rep.inequality == "I"
    assert rep.min_margin > 0
    assert sum(rep.regime_counts.values()) == 60
    assert rep.argmin is not None
    assert len(rep.samples) == 60


def test_every_report_carries_the_regime_tally_of_its_rows():
    p = default_params(2)
    reports = certify_region(p, n_samples=40, seed=3, schemes=SMALL)
    tally = {}
    for r in reports[0].samples:
        tally[r["regime"]] = tally.get(r["regime"], 0) + 1
    assert len(tally) > 1
    for rep in reports:
        assert [r["regime"] for r in rep.samples] == \
            [r["regime"] for r in reports[0].samples]
        assert type(rep.regime_counts) is dict
        assert list(rep.regime_counts.items()) == list(tally.items())


def test_certify_region_negative_control():
    # a nearly flat pair function: the concavity gain cannot pay for the
    # quadratic spread, so inequality I must fail in the far band
    p = ComparisonParams(n=2, delta=0.2, C=1.5, N=40, epsilon=0.05)
    reports = certify_region(p, inequalities=("I",), n_samples=123, seed=5)
    (rep,) = reports
    assert rep.min_margin < 0
    bad = [r for r in rep.samples if r["margin"] < 0]
    assert bad and all(r["regime"].startswith("far") for r in bad)


def test_certify_region_deterministic():
    p = default_params(2)
    a = certify_region(p, inequalities=("II",), n_samples=1, seed=11)[0]
    b = certify_region(p, inequalities=("II",), n_samples=1, seed=11)[0]
    assert a.to_json() == b.to_json()


def test_certify_region_all_four_small():
    p = default_params(2)
    reports = certify_region(p, n_samples=8, seed=3, schemes=SMALL)
    assert [r.inequality for r in reports] == ["I", "II", "III", "T"]
    for rep in reports:
        assert rep.min_margin > 0, (rep.inequality, rep.min_margin)


def test_certify_region_strict_params_honest_notes():
    p = default_params(2, "strict")
    reports = certify_region(p, inequalities=("I",), n_samples=2, seed=1,
                             schemes=SMALL)
    (rep,) = reports
    joined = " ".join(rep.notes)
    assert "far regime unreachable" in joined
    assert "overflow" in joined
    # staircase values overflow, so margins near the diagonal are not finite
    assert math.isnan(rep.min_margin) or math.isfinite(rep.min_margin)


def test_certify_region_report_json_structure():
    p = default_params(2)
    rep = certify_region(p, inequalities=("T",), n_samples=3, seed=2,
                         schemes=SMALL)[0]
    payload = json.loads(rep.to_json())
    assert payload["params"]["C"] == p.C
    assert payload["inequality"] == "T"
    assert payload["settings"]["alpha"] == 0.5
    assert len(payload["samples"]) == 3
    for row in payload["samples"]:
        assert set(row) == {"x", "z", "regime", "margin"}


def test_certify_region_regime_min_shows_the_rounding_floor():
    # lens-regime margins are differences of staircase values near 1e191,
    # far-regime ones of f1 values near 250: the lens floors dwarf the far
    # minimum margin, which a bare min_margin cannot show
    p = default_params(2)
    g = pair_function(p)
    rep = certify_region(p, inequalities=("I",), n_samples=60, seed=5)[0]
    assert set(rep.regime_min) == set(rep.regime_counts)
    for tag, best in rep.regime_min.items():
        margins = [r["margin"] for r in rep.samples if r["regime"] == tag]
        row = rep.samples[best["index"]]
        assert row["regime"] == tag and best["margin"] == row["margin"] == min(margins)
        assert best["g"] == abs(float(g(np.array([row["x"]]), np.array([row["z"]]))[0]))
        assert best["floor"] == np.spacing(best["g"])
    far = rep.regime_min["far|t>split"]["margin"]
    lens = [best for tag, best in rep.regime_min.items()
            if tag.startswith("near|") and not tag.startswith("near|2eps<")]
    assert len(lens) == 3
    assert all(best["floor"] > far > 0 for best in lens)
    payload = json.loads(rep.to_json())
    assert payload["regime_min"]["far|t>split"]["index"] == \
        rep.regime_min["far|t>split"]["index"]


def test_certify_region_rejects_unknown_inequality():
    with pytest.raises(ValueError):
        certify_region(default_params(2), inequalities=("I", "Q"), n_samples=1)


# -- the region sweep across forked workers -----------------------------------------

# 4 x 67 margins: above the fork break-even, and 67 pairs split unevenly
# into 2 or 3 interleaved slices
_FORKED_PAIRS = 67
_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork start method")


def _forced_workers(monkeypatch, W):
    monkeypatch.setattr(certifier, "_worker_count", lambda margins, g=None: W)


@_needs_fork
def test_certify_region_parallel_matches_serial(monkeypatch):
    p = default_params(2)
    assert 4 * _FORKED_PAIRS >= certifier._FORK_MIN_MARGINS
    runs = {}
    for W in (1, 2, 3):
        _forced_workers(monkeypatch, W)
        runs[W] = certify_region(p, n_samples=_FORKED_PAIRS, seed=9,
                                 schemes=SMALL)
        assert multiprocessing.active_children() == []
    assert [r.inequality for r in runs[1]] == ["I", "II", "III", "T"]
    for W in (2, 3):
        assert len(runs[W]) == len(runs[1])
        for serial, forked in zip(runs[1], runs[W]):
            assert [r["margin"] for r in forked.samples] == \
                [r["margin"] for r in serial.samples]
            assert forked.to_json() == serial.to_json()


# sha256 prefixes of the margins (float64 bytes, sample order) of 41-pair
# sweeps at the desk schedule, one pair per separation band, all four
# inequalities with the sweep schemes; taken from the implementation that
# evaluated f on repeated rows through pair_function
_DESK_PINS = {
    2: {"I": "432c4662943af4da", "II": "af8400e29815b94e",
        "III": "b7e9e3cc0e82eefc", "T": "e67ebd8032fc89bb"},
    3: {"I": "432c4662943af4da", "II": "55980bb77ecc864a",
        "III": "334a68a674d8b383", "T": "288f3886670dd671"},
}


@pytest.mark.parametrize("n, W", [(2, 1), pytest.param(2, 2, marks=_needs_fork),
                                  (3, 1)])
def test_certify_region_margin_bits_pinned(monkeypatch, n, W):
    _forced_workers(monkeypatch, W)
    p = ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=0.05)
    assert len(certifier._strata(p)[0]) == 41
    reports = certify_region(p, n_samples=41, seed=2024)
    assert len(reports[0].regime_counts) == 5
    for rep in reports:
        m = np.array([r["margin"] for r in rep.samples])
        assert hashlib.sha256(m.tobytes()).hexdigest()[:16] == \
            _DESK_PINS[n][rep.inequality], rep.inequality


def test_certify_region_keeps_a_caller_g_in_process():
    # a counting g sees every call of the serial loop: the margins of pair
    # i and inequality q_idx, their schemes seeded by stream_key(seed, i, q_idx)
    p = default_params(2)
    g = pair_function(p)
    counts = {"calls": 0, "rows": 0}

    def counting_g(X, Z):
        counts["calls"] += 1
        counts["rows"] += len(np.atleast_2d(X))
        return g(X, Z)

    margins = 4 * _FORKED_PAIRS
    assert margins >= certifier._FORK_MIN_MARGINS
    assert certifier._worker_count(margins, counting_g) == 1
    reports = certify_region(p, n_samples=_FORKED_PAIRS, seed=9, g=counting_g,
                             schemes=SMALL)
    seen = dict(counts)
    assert reports[-1].settings["theta"] == p.theta   # T's tag, from params

    counts.update(calls=0, rows=0)
    for q_idx, rep in enumerate(reports):
        for i, row in enumerate(rep.samples):
            x, z = np.array(row["x"]), np.array(row["z"])
            key = stream_key(9, i, q_idx)
            if rep.inequality == "I":
                m = margin_I(counting_g, x, z, p.epsilon, SMALL["I"])
            elif rep.inequality == "II":
                m = margin_II(counting_g, x, z, p.epsilon,
                              replace(SMALL["II"], seed=key))
            elif rep.inequality == "III":
                m = margin_III(counting_g, x, z, p.epsilon,
                               replace(SMALL["III"], seed=key))
            else:
                m = margin_T(counting_g, x, z, p.epsilon, 0.5, SMALL["T"])
            assert m == row["margin"]
        # regime_min evaluates g once more per regime
        counts["calls"] += len(rep.regime_min)
        counts["rows"] += len(rep.regime_min)
    assert seen == counts


@_needs_fork
@pytest.mark.parametrize("bad", [6, 7])   # in slice 0, in slice 1
def test_certify_region_worker_error_surfaces(monkeypatch, bad):
    original = certifier.margin_II

    def planted(g, x, z, epsilon, quadrature):
        if quadrature.seed == stream_key(9, bad, 1):
            raise FloatingPointError(f"planted at pair {bad}")
        return original(g, x, z, epsilon, quadrature)

    monkeypatch.setattr(certifier, "margin_II", planted)
    _forced_workers(monkeypatch, 2)
    with pytest.raises(FloatingPointError, match=f"^planted at pair {bad}$"):
        certify_region(default_params(2), n_samples=_FORKED_PAIRS, seed=9,
                       schemes=SMALL)
    assert multiprocessing.active_children() == []


class _Daemon:
    daemon = True


@pytest.mark.parametrize("rule", ["none", "one cpu", "no fork", "daemon",
                                  "below break-even", "caller g"])
def test_worker_count_serial_rules(monkeypatch, rule):
    enough = 4 * certifier._FORK_MIN_MARGINS
    monkeypatch.setattr(certifier.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["fork", "spawn"])
    margins, g = enough, None
    if rule == "one cpu":
        monkeypatch.setattr(certifier.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
    elif rule == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
    elif rule == "daemon":
        monkeypatch.setattr(multiprocessing, "current_process", _Daemon)
    elif rule == "below break-even":
        margins = certifier._FORK_MIN_MARGINS - 1
    elif rule == "caller g":
        g = pair_function(default_params(2))
    W = certifier._worker_count(margins, g)
    assert W == (3 if rule == "none" else 1)
    # every worker gets at least half the break-even
    assert certifier._worker_count(certifier._FORK_MIN_MARGINS, None) == \
        (1 if rule in ("one cpu", "no fork", "daemon") else 2)


def test_import_dpplab_loads_no_process_pools(run_python):
    code = ("import sys, dpplab; print(sorted(m for m in sys.modules "
            "if m in ('multiprocessing', 'concurrent.futures')))")
    proc = run_python("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@_needs_fork
def test_certify_region_dead_worker_raises_instead_of_hanging(run_python):
    # a worker killed from outside (say, by the out-of-memory killer) must
    # surface as an error; the child process bounds a hang by its timeout
    code = """
import os, signal
from concurrent.futures.process import BrokenProcessPool
import multiprocessing
from dpplab import certifier, default_params
parent, margin_I = os.getpid(), certifier.margin_I

def killed(*args):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return margin_I(*args)

certifier.margin_I = killed
certifier._worker_count = lambda margins, g=None: 2
try:
    certifier.certify_region(default_params(2), ("I",), n_samples=300)
except BrokenProcessPool:
    print("raised", multiprocessing.active_children())
"""
    proc = run_python("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised []"


def test_scalar_g_is_refused_with_both_shapes():
    # a g that returns one number for every row is not vectorized; reading
    # it as one value per pair would broadcast or fail to reshape
    with pytest.raises(ValueError, match=r"g must be vectorized: expected "
                                         r"shape \(\d+,\), got \(\)"):
        margin_I(lambda X, Z: 3.25, (0.1, 0.0), (0.3, 0.0), 0.1,
                 GridSearch(nodes_per_axis=11))
