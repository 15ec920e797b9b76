"""Grids, stencils, fields, and the moment helpers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.core import (
    Ball,
    Box,
    Mask,
    GridDomain,
    ValueField,
    ball_neighbors,
    ball_second_moment,
    ball_volume,
    build_grid_domain,
    constant_field,
    disk_second_moment,
    field_from_function,
    orthonormal_complement,
    stencil_offsets,
)
from dpplab.core import COARSEST, _spd_inverse, _window_fold


# -- shapes ------------------------------------------------------------------


def test_ball_contains_is_open():
    b = Ball(center=(0.0, 0.0), radius=1.0)
    pts = np.array([[0.0, 0.0], [0.999, 0.0], [1.0, 0.0], [1.001, 0.0]])
    assert list(b.contains(pts)) == [True, True, False, False]


def test_box_contains_is_open():
    box = Box(lo=(0.0, 0.0), hi=(1.0, 2.0))
    pts = np.array([[0.5, 1.0], [0.0, 1.0], [0.5, 2.0], [-0.1, 1.0]])
    assert list(box.contains(pts)) == [True, False, False, False]


def test_mask_shape():
    m = Mask(predicate=lambda p: p[:, 0] > p[:, 1], lo=(-1.0, -1.0), hi=(1.0, 1.0))
    pts = np.array([[0.5, 0.1], [0.1, 0.5]])
    assert list(m.contains(pts)) == [True, False]


# -- stencils ----------------------------------------------------------------


def test_stencil_offsets_count_13():
    # closed ball of radius 2 in lattice units: 1 + 4 + 4 + 4 = 13 points
    offs = stencil_offsets(2, 0.5, 1.0)
    assert offs.shape == (13, 2)
    assert offs.dtype == np.int64


def test_stencil_offsets_lexicographic_and_symmetric():
    offs = stencil_offsets(3, 0.2, 0.7)
    assert np.array_equal(offs, offs[np.lexsort(offs.T[::-1])])
    # closed ball is symmetric under negation
    as_set = {tuple(o) for o in offs}
    assert {tuple(-o) for o in offs} == as_set
    assert (0, 0, 0) in as_set


def test_stencil_offsets_boundary_points_kept():
    # |(2,0)|*0.5 == 1.0 exactly: must be inside the closed ball
    offs = stencil_offsets(2, 0.5, 1.0)
    assert (2, 0) in {tuple(o) for o in offs}


def test_stencil_brute_force_agreement():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        h = float(rng.uniform(0.05, 0.5))
        eps = float(rng.uniform(3 * h, 10 * h))
        offs = {tuple(o) for o in stencil_offsets(n, h, eps)}
        r = int(math.floor(eps / h)) + 2
        brute = set()
        for k in np.ndindex(*(2 * r + 1,) * n):
            o = tuple(int(ki) - r for ki in k)
            if sum((oi * h) ** 2 for oi in o) <= eps**2 * (1 + 1e-9):
                brute.add(o)
        assert offs == brute


# -- grid domains ------------------------------------------------------------


def test_unit_box_interior_count():
    dom = build_grid_domain(Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), 0.01, 0.05)
    # open box: lattice indices 1..99 per axis
    assert dom.n_interior == 99 * 99


def test_disk_interior_matches_brute_force():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    expect = sum(
        1
        for i in range(-25, 26)
        for j in range(-25, 26)
        if (i * 0.05) ** 2 + (j * 0.05) ** 2 < 1.0
    )
    assert dom.n_interior == expect


def test_strip_is_dilation_minus_interior():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=0.5), 0.05, 0.2)
    interior = {tuple(k) for k in dom.lattice[dom.interior_indices]}
    strip = {tuple(k) for k in dom.lattice[dom.strip_indices]}
    offs = stencil_offsets(2, 0.05, 0.2)
    dilation = set()
    for k in interior:
        for o in offs:
            dilation.add((k[0] + int(o[0]), k[1] + int(o[1])))
    assert strip == dilation - interior


def test_neighbor_table_covers_every_interior_point():
    dom = build_grid_domain(Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), 0.05, 0.2)
    table = dom.neighbor_table(0.2)
    assert table.shape == (dom.n_interior, len(dom.stencil(0.2)))
    # each row maps back to the right physical offsets
    i = dom.n_interior // 2
    x = dom.interior_points[i]
    nbrs = dom.points[table[i]]
    d = np.linalg.norm(nbrs - x, axis=1)
    assert np.all(d <= 0.2 * (1 + 1e-9))


def test_neighbor_table_larger_epsilon_than_strip_fails():
    dom = build_grid_domain(Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), 0.05, 0.2)
    with pytest.raises(RuntimeError):
        dom.neighbor_table(0.4)


def test_domain_keeps_no_neighbor_table():
    # 3D ball, S = 123 offsets over 14k interior points: a built domain holds
    # less than one (S, m) table, and the table derived on demand gives the
    # rows of a lookup of every neighbor's lattice coordinates
    eps = 0.2
    tracemalloc.start()
    try:
        dom = build_grid_domain(Ball(center=(0.0, 0.0, 0.0), radius=1.0),
                                eps / 3.0, eps)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    table = dom.neighbor_table(eps)
    assert table.shape == (dom.n_interior, 123)
    assert held < table.nbytes, (held, table.nbytes)
    base = dom.lattice[dom.interior_indices[::7]]
    offs = dom.stencil(eps)
    assert np.array_equal(table[::7],
                          dom._rows(base.T[:, :, None] + offs.T[:, None, :]))


def test_neighbor_table_inside_the_key_box_still_checks_coverage():
    # eps 0.21 on a strip built for 0.2 reaches no farther along any axis,
    # so the key-box bound passes, yet offsets like (4, 1) are new and some
    # of their neighbors are not stored: only the stored-key fold sees it
    from dpplab.operators import GameSpec, apply_operator
    from dpplab.solver import solve_dpp

    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    wide, cover = dom.stencil(0.21), dom.stencil(0.2)
    assert np.array_equal(np.abs(wide).max(axis=0), np.abs(cover).max(axis=0))
    assert len(wide) > len(cover)
    match = "strip does not cover"
    with pytest.raises(RuntimeError, match=match):
        dom.neighbor_table(0.21)
    fld = constant_field(dom, 1.0)
    for spec in (GameSpec.tug_of_war(0.21), GameSpec.random_walk(0.21),
                 GameSpec.space_dependent(0.21, 0.5),
                 GameSpec.directional(0.21, 0.5, direction_count=16)):
        with pytest.raises(RuntimeError, match=match):
            apply_operator(fld, spec)
    with pytest.raises(RuntimeError, match=match):
        solve_dpp(dom, lambda p: p[:, 0], GameSpec.tug_of_war(0.21))


def test_cached_stencil_is_read_only():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    with pytest.raises(ValueError):
        dom.stencil(0.2)[:] = 0
    layout = dom._layout(0.2)
    assert not layout.dest.flags.writeable and not layout.pos.flags.writeable
    assert len(np.unique(ball_neighbors(dom, (0.0, 0.0), 0.2), axis=0)) == 49


def test_domain_stencil_is_the_cached_table():
    # one array per (n, h, eps): the domain, the layout built with it and
    # a direct call all read it
    for shape, h, eps in ((Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2),
                          (Box(lo=(0.0,) * 3, hi=(0.5,) * 3), 0.1, 0.35)):
        dom = build_grid_domain(shape, h, eps)
        assert dom.stencil(eps) is stencil_offsets(dom.ndim, h, eps)
        assert not hasattr(dom, "_stencils")
        want = [o for o in itertools.product(range(-4, 5), repeat=dom.ndim)
                if sum((k * h) ** 2 for k in o) <= (eps * (1 + 1e-12)) ** 2]
        assert dom.stencil(eps).tolist() == [list(o) for o in want]


def _small_domains():
    """(shape, eps, h): 2D and 3D balls, boxes and ring masks under 500
    interior points at h near 0.1, eps/h from 3 to 6."""
    def ring(n, r0, r1):
        def inside(p):
            r = np.linalg.norm(p, axis=1)
            return (r > r0) & (r < r1)
        return Mask(inside, (-r1,) * n, (r1,) * n)

    for ratio in (3, 3.5, 4, 5, 6):
        eps = 0.1 * ratio
        for shape in (Ball((0.05, -0.1), 1.0), Box((-0.6, -0.4), (0.7, 0.5)),
                      ring(2, 0.3, 1.0), Ball((0.0, 0.05, 0.0), 0.35),
                      Box((-0.3, -0.2, -0.25), (0.3, 0.2, 0.3)),
                      ring(3, 0.15, 0.45)):
            yield shape, eps, eps / ratio


def test_inner_positions_are_the_interior_rows_laid_out():
    for shape, eps, h in _small_domains():
        dom = build_grid_domain(shape, h, eps)
        layout = dom._layout(eps)
        want = layout.dest[dom.interior_indices - layout.rows.start]
        assert np.array_equal(layout.inner, want), (shape, eps)
        assert not layout.inner.flags.writeable


def test_extrema_equal_the_slice_fold():
    rng = np.random.default_rng(14)
    for shape, eps, h in _small_domains():
        dom = build_grid_domain(shape, h, eps)
        assert 0 < dom.n_interior < 500, (shape, eps, dom.n_interior)
        layout = dom._layout(eps)
        for values in (rng.standard_normal(dom.n_points),
                       # ties, signed zeros among them
                       np.round(rng.standard_normal(dom.n_points), 1)
                       * rng.choice([-1.0, 1.0], dom.n_points),
                       rng.integers(-2, 3, dom.n_points).astype(float)):
            box = layout.scatter(values)
            got = [layout.runs_fold(box, np.maximum),
                   layout.runs_fold(box, np.minimum)]
            ref = [layout.fold(box, np.maximum), layout.fold(box, np.minimum)]
            for a, b in zip(got, ref):
                assert np.array_equal(a, b), (shape, eps)
                assert np.array_equal(np.signbit(a), np.signbit(b))


def test_run_extrema_resolve_signed_zero_ties_as_the_slice_fold():
    # values in {-1, -0, +0}: nearly every max is a tie of zeros, whose
    # sign tells which operand each call kept
    rng = np.random.default_rng(17)
    signed = 0
    for shape, eps, h in _small_domains():
        dom = build_grid_domain(shape, h, eps)
        layout = dom._layout(eps)
        box = layout.scatter(rng.choice([-1.0, -0.0, 0.0], dom.n_points))
        for f in (np.maximum, np.minimum):
            got, want = layout.runs_fold(box, f), layout.fold(box, f)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (shape, eps)
            assert np.array_equal(got, want), (shape, eps)
        signed += int(np.signbit(layout.fold(box, np.maximum)).sum())
    assert signed > 100


def test_window_folds_equal_the_slice_fold():
    # the dilation's OR and the coverage check's AND, by runs of windows
    rng = np.random.default_rng(16)
    mixed = 0
    for shape, eps, h in _small_domains():
        layout = build_grid_domain(shape, h, eps)._layout(eps)
        length = layout.slices[0].stop - layout.slices[0].start
        for p in (0.03, 0.5, 0.97):
            box = rng.random(layout.size) < p
            for f in (np.logical_or, np.logical_and):
                got = _window_fold(box, layout.runs, length, f)[layout.pos]
                want = layout.fold(box, f)
                assert np.array_equal(got, want), (shape, eps, p, f)
                mixed += bool(want.any() and not want.all())
    assert mixed > 30


def test_run_sums_match_the_slice_fold():
    # the V-cycle's walk sums by runs: the fold's value, to rounding
    rng = np.random.default_rng(15)
    for shape, eps, h in _small_domains():
        dom = build_grid_domain(shape, h, eps)
        layout = dom._layout(eps)
        box = layout.scatter(rng.standard_normal(dom.n_points))
        ref = layout.fold(box, np.add)
        assert np.allclose(layout.runs_fold(box, np.add), ref, rtol=0,
                           atol=1e-13 * len(layout.slices)), (shape, eps)


def test_run_plan_built_once_per_layout_and_read_only(monkeypatch):
    import dataclasses

    from dpplab import core
    from dpplab.operators import GameSpec, apply_operator

    calls = []
    plan = core._run_plan
    monkeypatch.setattr(core, "_run_plan",
                        lambda starts: calls.append(len(starts)) or plan(starts))
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    fld = field_from_function(dom, lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1])
    for _ in range(3):
        for eps in (0.2, 0.15):
            apply_operator(fld, GameSpec.tug_of_war(eps))
            apply_operator(fld, GameSpec.space_dependent(eps, 0.5))
    assert calls == [49, 29]
    layout = dom._layout(0.2)
    # eps/h = 4: one run per first coordinate, from -4 to 4
    assert [w for _, w in layout.runs] == [1, 5, 7, 7, 9, 7, 7, 5, 1]
    assert all(type(s) is int and type(w) is int for s, w in layout.runs)
    assert isinstance(layout.runs, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.runs = ()


def test_build_rejects_coarse_spacing():
    with pytest.raises(ValueError):
        build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.1, 0.2)


def test_point_index_roundtrip_and_errors():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    i = dom.point_index((0.25, -0.35))
    assert np.allclose(dom.points[i], (0.25, -0.35))
    with pytest.raises(KeyError):
        dom.point_index((0.26, 0.0))  # off-lattice
    with pytest.raises(KeyError):
        dom.point_index((5.0, 0.0))  # on-lattice but outside


def test_nearest_index():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    i = dom.nearest_index((0.249, -0.351))
    assert np.allclose(dom.points[i], (0.25, -0.35))


def test_ball_neighbors_49_points():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=2.0), 0.25, 1.0)
    pts = ball_neighbors(dom, (0.0, 0.0), 1.0)
    assert len(pts) == 49  # integer points with i^2 + j^2 <= 16
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-9)


# -- the lattice index against a tuple-dict reference -------------------------


def _reference(shape, h, eps):
    """Lattice, interior mask and tuple -> row dict, from Python tuple sets."""
    n = shape.ndim
    lo, hi = shape.bounding_box()
    ranges = [range(math.floor(a / h) - 1, math.ceil(b / h) + 2)
              for a, b in zip(lo, hi)]
    box = list(itertools.product(*ranges))
    inside = shape.contains(np.asarray(box, dtype=float) * h)
    interior = {k for k, keep in zip(box, inside) if keep}
    offs = [tuple(int(v) for v in o) for o in stencil_offsets(n, h, eps)]
    dilation = {tuple(a + b for a, b in zip(k, o)) for k in interior for o in offs}
    lattice = sorted(dilation)
    index = {k: i for i, k in enumerate(lattice)}
    mask = np.array([k in interior for k in lattice])
    return np.array(lattice, dtype=np.int64), mask, index, offs


def _ring(p):
    return np.abs(np.linalg.norm(p, axis=1) - 0.3) < 0.12


@st.composite
def _shapes(draw):
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("ball", "box", "mask")))
    c = draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    if kind == "ball":
        return Ball(center=c, radius=draw(st.floats(0.1, 0.35)))
    if kind == "box":
        w = draw(st.lists(st.floats(0.05, 0.5), min_size=n, max_size=n))
        return Box(lo=c, hi=[a + b for a, b in zip(c, w)])
    return Mask(predicate=_ring, lo=(-0.45,) * n, hi=(0.45,) * n)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shape=_shapes(), h=st.floats(0.06, 0.1), ratio=st.floats(3.0, 4.5),
       data=st.data())
def test_index_matches_tuple_dict_reference(shape, h, ratio, data):
    eps = ratio * h
    try:
        dom = build_grid_domain(shape, h, eps)
    except ValueError:  # no interior lattice point at this spacing
        return
    lattice, mask, index, offs = _reference(shape, h, eps)
    assert np.array_equal(dom.lattice, lattice)
    assert np.array_equal(dom.interior_mask, mask)
    interior = [tuple(k) for k in lattice[mask]]
    table = [[index[tuple(a + b for a, b in zip(k, o))] for o in offs]
             for k in interior]
    assert np.array_equal(dom.neighbor_table(eps), np.array(table, dtype=np.int64))
    for i, k in enumerate(lattice):
        assert dom.point_index(k * h) == i
    fld = field_from_function(dom, lambda p: p @ np.arange(1.0, dom.ndim + 1))
    assert np.array_equal(fld.evaluate(dom.points[::-1]), fld.values[::-1])
    # twice the strip width reaches past the stored points: those are absent
    for k in data.draw(st.lists(st.sampled_from(interior), min_size=1, max_size=3)):
        for r in (eps, 2 * eps):
            near = [tuple(a + int(b) for a, b in zip(k, o))
                    for o in stencil_offsets(dom.ndim, h, r)]
            want = [index[q] for q in near if q in index]
            assert np.array_equal(ball_neighbors(dom, np.asarray(k) * h, r),
                                  dom.points[want])
        for q in [q for q in near if q not in index][:3]:
            with pytest.raises(KeyError, match="outside"):
                dom.point_index(np.asarray(q) * h)


# -- the build against the key-scatter construction ----------------------------


def _scatter_build(shape, h, eps):
    """The dilation as every interior key plus every offset key, an (m, S)
    array scattered into a boolean key box: lattice, interior mask, keys,
    key-box origin and span, each taken from (m, n) rows."""
    n = shape.ndim
    lo, hi = shape.bounding_box()
    axes = [np.arange(math.floor(a / h) - 1, math.ceil(b / h) + 2)
            for a, b in zip(lo, hi)]
    lat = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    interior = lat[shape.contains(lat * h)]
    offs = stencil_offsets(n, h, eps)
    lo = interior.min(axis=0) + offs.min(axis=0)
    span = interior.max(axis=0) + offs.max(axis=0) - lo + 1
    strides = np.append(np.cumprod(span[:0:-1])[::-1], 1)
    ikeys = (interior - lo) @ strides
    hit = np.zeros(int(np.prod(span)), dtype=bool)
    hit[ikeys[:, None] + offs @ strides] = True
    keys = np.flatnonzero(hit)
    lattice = lo + np.stack(np.unravel_index(keys, tuple(span)), axis=1)
    return lattice, np.isin(keys, ikeys), keys, lo, span


def _scatter_layout(keys, mask, span, offs):
    """A layout's fields from the reference keys: rows, dest, pos, slice
    bounds and runs of consecutive offset keys."""
    strides = np.append(np.cumprod(span[:0:-1])[::-1], 1)
    okeys, ikeys = offs @ strides, keys[mask]
    start, stop = ikeys[0] + okeys[0], ikeys[-1] + okeys[-1] + 1
    rows = np.searchsorted(keys, [start, stop])
    length = ikeys[-1] - ikeys[0] + 1
    cuts = np.flatnonzero(np.diff(okeys) != 1) + 1
    runs = [(int(r[0] - okeys[0]), len(r)) for r in np.split(okeys, cuts)]
    return {"rows": rows, "dest": keys[rows[0]:rows[1]] - start,
            "pos": ikeys - ikeys[0],
            "slices": [(s, s + length) for s in okeys - okeys[0]],
            "runs": runs}


def _two_disks(p):
    return ((np.linalg.norm(p - (-0.5, 0.0), axis=1) < 0.3)
            | (np.linalg.norm(p - (0.5, 0.1), axis=1) < 0.25))


@pytest.mark.parametrize("shape, h, eps", [
    (Ball((0.0, 0.0), 1.0), 0.05 / 3, 0.05),       # grid_solve's disks
    (Ball((0.0, 0.0), 1.0), 0.05, 0.2),
    (Ball((0.0, 0.0), 1.0), 0.1 / 3, 0.1),         # mc_play's disk
    (Ball((0.0, 0.0, 0.0), 1.0), 0.2 / 3, 0.2),
    (Box((-0.5, 0.0), (0.5, 1.0)), 0.0625, 0.25),  # faces on lattice planes
    (Mask(_two_disks, (-0.8, -0.35), (0.8, 0.4)), 0.04, 0.16),
])
def test_build_matches_the_key_scatter_build(shape, h, eps):
    dom = build_grid_domain(shape, h, eps)
    lattice, mask, keys, lo, span = _scatter_build(shape, h, eps)
    for got, want in ((dom.lattice, lattice), (dom.interior_mask, mask),
                      (dom._keys, keys), (dom._lo, lo), (dom._span, span)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for e in (eps, 0.75 * eps):
        layout, want = dom._layout(e), _scatter_layout(keys, mask, span,
                                                       dom.stencil(e))
        assert np.array_equal([layout.rows.start, layout.rows.stop], want["rows"])
        assert np.array_equal(layout.dest, want["dest"])
        assert np.array_equal(layout.pos, want["pos"])
        assert np.array_equal([(s.start, s.stop) for s in layout.slices],
                              want["slices"])
        assert np.array_equal(layout.runs, want["runs"])
        assert layout.size == want["slices"][-1][1]


def test_build_peak_memory_grows_with_points_not_stencil():
    # 3D unit ball at eps 0.2: 14,045 interior points, S = 123. The
    # key-scatter build (_scatter_build) forms a 13.8 MB (m, S) int64
    # temporary and peaks near 14.6 MB; the build by runs peaks near 3 MB
    eps = 0.2
    tracemalloc.start()
    try:
        dom = build_grid_domain(Ball(center=(0.0, 0.0, 0.0), radius=1.0),
                                eps / 3.0, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dom.n_interior, len(dom.stencil(eps))) == (14_045, 123)
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("shape", [Box(lo=(0.0, 0.0), hi=(1.0, 1.0)),
                                   Box(lo=(0.0, 0.0, 0.0), hi=(0.6, 0.6, 0.6))])
def test_index_does_not_wrap_past_the_last_axis(shape):
    # In row-major keys, one step past the top of the last axis lands on the
    # key of the next row's first point; that point is stored, yet the
    # coordinate itself is absent.
    h = 0.05
    dom = build_grid_domain(shape, h, 0.2)
    lo, hi = dom.lattice.min(axis=0), dom.lattice.max(axis=0)
    mid = (lo + hi) // 2
    past = mid.copy()
    past[-1] = hi[-1] + 1
    alias = mid.copy()
    alias[-2] += 1
    alias[-1] = lo[-1]
    stored = {tuple(k) for k in dom.lattice}
    assert tuple(mid[:-1]) + (hi[-1],) in stored and tuple(alias) in stored
    with pytest.raises(KeyError, match="outside"):
        dom.point_index(past * h)
    with pytest.raises(KeyError, match="outside"):
        constant_field(dom, 1.0).evaluate(past * h)
    assert tuple(dom.lattice[dom.nearest_index(past * h)]) != tuple(alias)
    edge = past.copy()
    edge[-1] = hi[-1]
    pts = ball_neighbors(dom, edge * h, 0.2)
    assert np.all(np.linalg.norm(pts - edge * h, axis=1) <= 0.2 * (1 + 1e-9))
    with pytest.raises(RuntimeError):
        dom.neighbor_table(0.3)


# -- the multigrid hierarchy ---------------------------------------------------


_LINKED = ((Ball((0.0, 0.0), 1.0), 0.05 / 3, 0.05),
           (Box((-0.6, -0.4), (0.7, 0.5)), 0.03, 0.1),
           (Ball((0.1, 0.0, -0.05), 0.6), 0.05, 0.16))


def _linked(shape, h, eps):
    """The hierarchy of the walk on a domain and its first coarse level."""
    dom = build_grid_domain(shape, h, eps)
    return dom, build_grid_domain(shape, 2 * h, 2 * eps), dom._hierarchy(eps)


def test_prolongation_fixes_affine_data():
    # a fine point whose coarse cell corners are all interior takes the
    # multilinear interpolant, which is exact on affine data; one with a
    # missing corner takes less
    for shape, h, eps in _LINKED:
        fine, coarse, hier = _linked(shape, h, eps)
        n = fine.ndim
        a = np.arange(1.0, n + 1) * (-1.0) ** np.arange(n)
        got = hier.prolong(0, 0.3 + coarse.interior_points @ a)
        inner = {tuple(c) for c in 2 * coarse.lattice[coarse.interior_indices]}
        lat = fine.lattice[fine.interior_indices]
        odd = lat & 1
        full = np.array([all(tuple(k - o + 2 * np.array(d) * o) in inner
                             for d in itertools.product((0, 1), repeat=n))
                         for k, o in zip(lat, odd)])
        assert full.mean() > 0.8, shape
        want = 0.3 + fine.interior_points @ a
        assert np.allclose(got[full], want[full], rtol=0, atol=1e-12), shape
        ones = hier.prolong(0, np.ones(coarse.n_interior))
        assert np.all(ones[~full] < 1.0) and np.allclose(ones[full], 1.0)


def test_restriction_is_the_transpose_of_prolongation():
    rng = np.random.default_rng(21)
    for shape, h, eps in _LINKED:
        fine, coarse, hier = _linked(shape, h, eps)
        for _ in range(3):
            e = rng.standard_normal(coarse.n_interior)
            r = rng.standard_normal(fine.n_interior)
            Pe, Rr = hier.prolong(0, e), hier.restrict(0, r)
            lhs, rhs = np.dot(Pe, r), np.dot(e, Rr)
            scale = np.linalg.norm(Pe) * np.linalg.norm(r)
            assert abs(lhs - rhs) <= 1e-12 * scale, (shape, lhs, rhs)


def test_vcycle_is_symmetric_positive_definite():
    rng = np.random.default_rng(22)
    for shape, h, eps in _LINKED[::2]:
        dom = build_grid_domain(shape, h, eps)
        hier = dom._hierarchy(eps)
        assert len(hier.layouts) >= 3
        assert len(hier.layouts[-1].pos) <= COARSEST < len(hier.layouts[-2].pos)
        for _ in range(3):
            a, b = rng.standard_normal((2, dom.n_interior))
            Ma, Mb = hier.vcycle(a), hier.vcycle(b)
            scale = np.linalg.norm(Ma) * np.linalg.norm(b)
            assert abs(np.dot(Ma, b) - np.dot(a, Mb)) <= 1e-12 * scale, shape
            assert np.dot(Ma, a) > 0, shape


def _table_walk_inverse(domain, epsilon):
    """(I - P)^-1 on the interior with P read from the neighbor table: 1/S
    at each interior neighbor, strip neighbors dropped."""
    m = domain.n_interior
    inner = np.full(domain.n_points, m)  # strip neighbors: a dropped column
    inner[domain.interior_indices] = np.arange(m)
    cols = inner[domain.neighbor_table(epsilon)]
    P = np.zeros((m, m + 1))
    P[np.arange(m)[:, None], cols] = 1.0 / cols.shape[1]
    return _spd_inverse(np.eye(m) - P[:, :m])


@pytest.mark.parametrize("shape, h, eps", [
    (Ball((0.0, 0.0), 1.0), 0.05 / 3, 0.05),       # grid_solve's disk
    (Ball((0.0, 0.0, 0.0), 1.0), 0.2 / 3, 0.2),
    (Box((-0.6, -0.4), (0.7, 0.5)), 0.03, 0.1),
], ids=["disk", "ball3", "box"])
def test_coarsest_inverse_is_the_neighbor_table_walks(shape, h, eps):
    hier = build_grid_domain(shape, h, eps)._hierarchy(eps)
    k = len(hier.links)
    coarsest = build_grid_domain(shape, 2 ** k * h, 2 ** k * eps)
    assert 0 < coarsest.n_interior <= COARSEST
    want = _table_walk_inverse(coarsest, 2 ** k * eps)
    assert np.array_equal(hier.inverse, want)


def test_hierarchy_is_kept_by_its_domain_and_dies_with_it():
    import gc
    import weakref

    shape, h, eps = _LINKED[0]
    dom = build_grid_domain(shape, h, eps)
    assert dom._hierarchies == {}  # never built with the domain
    hier = dom._hierarchy(eps)
    assert dom._hierarchy(eps) is hier
    twin = build_grid_domain(shape, h, eps)
    twin_hier = twin._hierarchy(eps)
    assert twin_hier is not hier
    r = np.random.default_rng(23).standard_normal(dom.n_interior)
    assert np.array_equal(hier.vcycle(r), twin_hier.vcycle(r))
    ref = weakref.ref(hier)
    del dom, hier
    gc.collect()
    assert ref() is None


def test_hierarchy_needs_nested_levels_with_interior_points():
    # a strip thinner than a coarse cell has no interior point three levels
    # up, before a level is small enough to invert
    dom = build_grid_domain(Box((0.0, 0.0), (12.0, 0.1)), 0.02, 0.06)
    assert dom.n_interior > COARSEST
    assert dom._hierarchy(0.06) is None


def test_hierarchy_follows_the_lattice_not_the_shape():
    # levels come from the domain's own interior: a lattice shifted by a
    # multiple of 2^levels keeps every level's parity, so the same V-cycle
    # bits; one shifted by 1 is not its shape's, yet still gets a symmetric
    # positive definite V-cycle
    shape, h, eps = _LINKED[0]
    dom = build_grid_domain(shape, h, eps)
    hier = dom._hierarchy(eps)
    assert 2 ** len(hier.links) <= 64
    r = np.random.default_rng(24).standard_normal((2, dom.n_interior))
    far = GridDomain(shape, h, eps, dom.lattice + 64, dom.interior_mask)
    assert np.array_equal(far._hierarchy(eps).vcycle(r[0]), hier.vcycle(r[0]))
    near = GridDomain(shape, h, eps, dom.lattice + 1, dom.interior_mask)
    odd = near._hierarchy(eps)
    assert odd is not None
    Ma, Mb = odd.vcycle(r[0]), odd.vcycle(r[1])
    scale = np.linalg.norm(Ma) * np.linalg.norm(r[1])
    assert abs(np.dot(Ma, r[1]) - np.dot(r[0], Mb)) <= 1e-12 * scale
    assert np.dot(Ma, r[0]) > 0


def test_coarse_levels_are_the_rebuilt_domains_layouts():
    # level j is laid out as the domain built at (2^j h, 2^j eps) lays out
    # its stencil, though it stores no strip
    for shape, h, eps in _LINKED:
        hier = build_grid_domain(shape, h, eps)._hierarchy(eps)
        for j, got in enumerate(hier.layouts):
            k = 2 ** j
            want = build_grid_domain(shape, k * h, k * eps)._layout(k * eps)
            assert got.size == want.size, (shape, j)
            assert got.slices == want.slices, (shape, j)
            assert got.runs == want.runs, (shape, j)
            assert np.array_equal(got.pos, want.pos), (shape, j)
            assert np.array_equal(got.inner, want.inner), (shape, j)


# -- value fields ------------------------------------------------------------


def _small_domain():
    return build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)


def test_field_rejects_non_finite():
    dom = _small_domain()
    vals = np.zeros(dom.n_points)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        ValueField(domain=dom, values=vals)


def test_osc_strip():
    dom = _small_domain()
    fld = field_from_function(dom, lambda p: p[:, 0])
    xs = dom.strip_points[:, 0]
    assert math.isclose(fld.osc_strip(), xs.max() - xs.min(), rel_tol=1e-12)
    assert constant_field(dom, 3.0).osc_strip() == 0.0


def test_field_evaluate_at_lattice_points():
    dom = _small_domain()
    fld = field_from_function(dom, lambda p: p[:, 0] + 2 * p[:, 1])
    got = fld.evaluate(np.array([[0.25, 0.1], [-0.5, 0.0]]))
    assert np.allclose(got, [0.45, -0.5])


def test_with_interior_keeps_strip():
    dom = _small_domain()
    fld = constant_field(dom, 1.0)
    new = fld.with_interior(np.full(dom.n_interior, 7.0))
    assert np.all(new.values[dom.interior_indices] == 7.0)
    assert np.all(new.values[dom.strip_indices] == 1.0)


# -- moments -----------------------------------------------------------------


def test_ball_second_moment_formula():
    assert math.isclose(ball_second_moment(2, 1.0), 0.25)
    assert math.isclose(ball_second_moment(3, 0.5), 0.25 / 5.0)


def test_disk_second_moment_formula():
    # (n-1)-disk total second moment (n-1) eps^2 / (n+1)
    assert math.isclose(disk_second_moment(2, 1.0), 1.0 / 3.0)
    assert math.isclose(disk_second_moment(3, 1.0), 0.5)


def test_ball_second_moment_against_monte_carlo():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        eps = 0.7
        g = rng.standard_normal((200_000, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = eps * rng.uniform(size=(200_000, 1)) ** (1.0 / n)
        h = g * r
        m = (h[:, 0] ** 2).mean()
        se = (h[:, 0] ** 2).std() / math.sqrt(len(h))
        assert abs(m - ball_second_moment(n, eps)) < 4 * se


def test_directional_projection_identity():
    # E[-((eps e - h) . V)^2 + |(eps e - h)_{Vperp}|^2] for h uniform in the
    # ball equals -eps^2 + (n-2) eps^2 / (n+2) when e = V; the cross term
    # vanishes by symmetry. Drives the mean-value bookkeeping used elsewhere.
    rng = np.random.default_rng(23)
    for n in (2, 3):
        eps = 0.4
        m = 400_000
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        h = g * (eps * rng.uniform(size=(m, 1)) ** (1.0 / n))
        v = np.zeros(n)
        v[0] = 1.0
        w = eps * v - h
        wv = w @ v
        sample = -(wv**2) + (np.einsum("ij,ij->i", w, w) - wv**2)
        exact = -(eps**2) + (n - 2) * eps**2 / (n + 2)
        se = sample.std() / math.sqrt(m)
        assert abs(sample.mean() - exact) < 4 * se


def test_ball_volume():
    assert math.isclose(ball_volume(2, 1.0), math.pi)
    assert math.isclose(ball_volume(3, 2.0), 4.0 / 3.0 * math.pi * 8.0)


def test_orthonormal_complement_properties():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        for _ in range(50):
            v = rng.standard_normal(n)
            B = orthonormal_complement(v)
            assert B.shape == (n - 1, n)
            assert np.allclose(B @ B.T, np.eye(n - 1), atol=1e-12)
            assert np.allclose(B @ (v / np.linalg.norm(v)), 0.0, atol=1e-12)


def test_box_validation_names_the_fault():
    with pytest.raises(ValueError, match="equal length"):
        Box((0.0, 0.0), (1.0,))
    with pytest.raises(ValueError, match="positive extent"):
        Box((0.0, 0.0), (1.0, 0.0))
