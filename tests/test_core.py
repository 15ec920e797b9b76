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
