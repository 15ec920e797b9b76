"""Operator axioms on random domains, and the grid sweep against a per-point loop.

Every kind must be monotone, sup-norm non-expansive, commute with constants
and fix affine fields; the solver's clip and stopping rule and the
comparison principle rest on these. The reference loop recomputes each
interior value from its stencil with no stencil-major gather and no
move-menu matrix.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.core import Ball, Box, ValueField, build_grid_domain
from dpplab.operators import (
    KINDS,
    GameSpec,
    apply_operator,
    default_direction_count,
    disk_rule,
    move_radii,
    sphere_directions,
)

AXIOMS = settings(max_examples=25, deadline=None, derandomize=True)
TOL = 1e-12

SHAPES = (
    Ball(center=(0.0, 0.0), radius=0.5),
    Ball(center=(0.3, -0.2), radius=0.35),
    Box(lo=(-0.4, -0.3), hi=(0.4, 0.3)),
    Box(lo=(0.0, 0.0), hi=(0.3, 0.6)),
)


@functools.lru_cache(maxsize=None)
def _grid(shape_ix, h, ratio):
    return build_grid_domain(SHAPES[shape_ix], h, ratio * h)


@functools.lru_cache(maxsize=None)
def _ball3d():
    return build_grid_domain(Ball(center=(0.0, 0.0, 0.0), radius=1.0), 0.4 / 3, 0.4)


def _spec(draw, kind, eps):
    if kind == "space_dependent":
        lo = draw(st.floats(0.0, 1.0))
        hi = draw(st.floats(lo, 1.0))
        k = draw(st.floats(-5.0, 5.0))
        return GameSpec.space_dependent(eps, lambda p: np.clip(
            lo + (hi - lo) * 0.5 * (1.0 + np.tanh(k * p[:, 0])), 0.0, 1.0))
    if kind == "directional":
        return GameSpec.directional(
            eps, draw(st.floats(0.05, 1.0)),
            direction_count=draw(st.sampled_from((4, 8, 16, 64))),
            radius_count=draw(st.integers(2, 4)))
    return GameSpec(kind, eps)


@st.composite
def planar_cases(draw, kind):
    """(domain, spec, seed) for one game kind on a random small 2D domain."""
    dom = _grid(draw(st.integers(0, len(SHAPES) - 1)),
                draw(st.sampled_from((0.04, 0.05, 0.06))),
                draw(st.sampled_from((3.0, 3.5, 4.0))))
    spec = _spec(draw, kind, dom.strip_width)
    return dom, spec, draw(st.integers(0, 2**32 - 1))


@st.composite
def ball3d_cases(draw):
    """(domain, spec, seed): the directional game on a 3D ball (S = 123)."""
    dom = _ball3d()
    spec = GameSpec.directional(dom.strip_width, draw(st.floats(0.05, 1.0)))
    return dom, spec, draw(st.integers(0, 2**32 - 1))


def _sweep(dom, values, spec):
    return apply_operator(ValueField(dom, values), spec).values[dom.interior_indices]


def _check_monotone(case):
    dom, spec, seed = case
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, dom.n_points)
    v = u + rng.uniform(0.0, 1.0, dom.n_points) * (rng.random(dom.n_points) < 0.5)
    assert np.all(_sweep(dom, v, spec) >= _sweep(dom, u, spec) - TOL), spec.kind


def _check_nonexpansive(case):
    dom, spec, seed = case
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, dom.n_points)
    v = u + rng.uniform(-0.3, 0.3, dom.n_points)
    gap = np.abs(_sweep(dom, u, spec) - _sweep(dom, v, spec)).max()
    assert gap <= np.abs(u - v).max() + TOL, spec.kind


def _check_constants_commute(case):
    dom, spec, seed = case
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, dom.n_points)
    c = rng.uniform(-3.0, 3.0)
    diff = _sweep(dom, u + c, spec) - (_sweep(dom, u, spec) + c)
    assert np.abs(diff).max() <= TOL, spec.kind


def _check_affine_fixed(case):
    dom, spec, seed = case
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, dom.ndim)
    u = rng.uniform(-1.0, 1.0) + dom.points @ a
    err = np.abs(_sweep(dom, u, spec) - u[dom.interior_indices]).max()
    assert err <= TOL, spec.kind


@pytest.mark.parametrize("kind", KINDS)
@AXIOMS
@given(data=st.data())
def test_monotone(kind, data):
    case = data.draw(planar_cases(kind))
    _check_monotone(case)


@pytest.mark.parametrize("kind", KINDS)
@AXIOMS
@given(data=st.data())
def test_sup_norm_nonexpansive(kind, data):
    case = data.draw(planar_cases(kind))
    _check_nonexpansive(case)


@pytest.mark.parametrize("kind", KINDS)
@AXIOMS
@given(data=st.data())
def test_commutes_with_constants(kind, data):
    case = data.draw(planar_cases(kind))
    _check_constants_commute(case)


@pytest.mark.parametrize("kind", KINDS)
@AXIOMS
@given(data=st.data())
def test_affine_fields_fixed(kind, data):
    case = data.draw(planar_cases(kind))
    _check_affine_fixed(case)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(ball3d_cases())
def test_directional_axioms_3d(case):
    _check_monotone(case)
    _check_nonexpansive(case)
    _check_constants_commute(case)
    _check_affine_fixed(case)


# -- reference: a plain per-point loop ----------------------------------------


def _reference_sweep(fld, spec):
    """Interior values of T(u), one point at a time from its stencil row."""
    dom = fld.domain
    table = dom.neighbor_table(spec.epsilon)
    offs = dom.stencil(spec.epsilon) * dom.spacing
    u = fld.values
    moves = []
    if spec.kind == "directional":
        n = dom.ndim

        def snap(p):
            return int(np.argmin(((offs - p) ** 2).sum(axis=1)))

        for e in sphere_directions(n, spec.direction_count or default_direction_count(n)):
            pts, wts = disk_rule(n, spec.epsilon, e, spec.disk_node_count,
                                 spec.disk_angle_count)
            disk = [snap(q) for q in pts]
            moves += [(snap(r * e), disk, wts) for r in move_radii(spec)]
    if spec.kind == "space_dependent":
        alpha = spec.alpha_at(dom.interior_points)
    out = np.empty(dom.n_interior)
    for i in range(dom.n_interior):
        vals = u[table[i]]
        if spec.kind == "tug_of_war":
            out[i] = 0.5 * (vals.max() + vals.min())
        elif spec.kind == "random_walk":
            out[i] = vals.mean()
        elif spec.kind == "space_dependent":
            out[i] = (0.5 * alpha[i] * (vals.max() + vals.min())
                      + (1.0 - alpha[i]) * vals.mean())
        else:
            a = float(spec.alpha)
            worth = [a * vals[j] + (1.0 - a) * float(vals[d] @ w)
                     for j, d, w in moves]
            out[i] = 0.5 * (max(worth) + min(worth))
    return out


def test_sweep_matches_per_point_loop():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=0.5), 0.05, 0.2)
    rng = np.random.default_rng(37)
    fld = ValueField(dom, rng.uniform(-1.0, 1.0, dom.n_points)
                     + np.sin(3.0 * dom.points[:, 0]))
    for spec in (GameSpec.tug_of_war(0.2),
                 GameSpec.random_walk(0.2),
                 GameSpec.space_dependent(0.2, lambda p: 0.5 + 0.4 * np.tanh(p[:, 1])),
                 GameSpec.directional(0.2, 0.4, direction_count=16)):
        got = apply_operator(fld, spec).values[dom.interior_indices]
        want = _reference_sweep(fld, spec)
        if spec.kind == "tug_of_war":
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-14, spec.kind
