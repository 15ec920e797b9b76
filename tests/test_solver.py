"""Fixed-point solver against a direct sparse linear oracle."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

from dpplab.core import Ball, ValueField, build_grid_domain, field_from_function
from dpplab.operators import GameSpec
from dpplab.solver import boundary_field, residual, solve_dpp


def _disk(h=0.04, eps=0.2):
    return build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), h, eps)


def _linear_oracle(dom, eps, g_full):
    """Direct solve of u_i = mean of u over the stencil (random walk)."""
    table = dom.neighbor_table(eps)
    m, S = table.shape
    n_pts = dom.n_points
    rows = np.repeat(np.arange(m), S)
    cols = table.reshape(-1)
    P = csr_matrix(
        (np.full(m * S, 1.0 / S), (rows, cols)), shape=(m, n_pts)
    )
    interior = dom.interior_indices
    strip = dom.strip_indices
    A = identity(m, format="csr") - P[:, interior]
    b = P[:, strip] @ g_full[strip]
    return spsolve(A.tocsc(), b)


def test_random_walk_matches_sparse_solve():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    fld, diag = solve_dpp(dom, lambda p: p[:, 0], spec)
    assert diag.converged
    exact = _linear_oracle(dom, 0.2, boundary_field(dom, lambda p: p[:, 0]))
    gap = np.max(np.abs(fld.interior_values - exact))
    assert gap <= 10 * diag.tol, gap


def test_solution_is_a_fixed_point():
    dom = _disk()
    for spec in (
        GameSpec.tug_of_war(0.2),
        GameSpec.random_walk(0.2),
        GameSpec.space_dependent(0.2, lambda p: 0.5 + 0.5 * np.tanh(p[:, 0])),
        GameSpec.directional(0.2, 0.5, direction_count=16),
    ):
        fld, diag = solve_dpp(dom, lambda p: p[:, 0] ** 2 - p[:, 1], spec)
        assert diag.converged, spec.kind
        assert residual(fld, spec) <= diag.tol


def test_comparison_principle():
    dom = _disk()
    spec = GameSpec.tug_of_war(0.2)
    lo, _ = solve_dpp(dom, lambda p: p[:, 0], spec)
    hi, _ = solve_dpp(dom, lambda p: p[:, 0] + 0.3 * (1 + np.sin(p[:, 1])), spec)
    assert np.all(hi.values >= lo.values - 1e-10)


def test_antisymmetric_data_vanishes_at_center():
    dom = _disk()
    for spec in (GameSpec.random_walk(0.2), GameSpec.tug_of_war(0.2)):
        fld, diag = solve_dpp(dom, lambda p: p[:, 0], spec)
        i = dom.point_index((0.0, 0.0))
        assert abs(fld.values[i]) <= 10 * diag.tol


def test_residual_history_non_increasing():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    _, diag = solve_dpp(dom, lambda p: np.sin(3 * p[:, 0]) * p[:, 1], spec)
    r = np.array(diag.residual_history)
    assert np.all(np.diff(r) <= 1e-15)


def test_reruns_bit_identical():
    dom = _disk()
    spec = GameSpec.space_dependent(0.2, lambda p: 0.3 + 0.4 * (p[:, 0] > 0))
    a, _ = solve_dpp(dom, lambda p: p[:, 1], spec)
    b, _ = solve_dpp(dom, lambda p: p[:, 1], spec)
    assert np.array_equal(a.values, b.values)


def test_overflowing_sweep_raises():
    # the stencil mean of interior values near the float64 maximum overflows
    dom = _disk(0.1, 0.4)
    init = ValueField(dom, np.full(dom.n_points, 1.7e308))
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        solve_dpp(dom, lambda p: np.zeros(len(p)), GameSpec.random_walk(0.4),
                  init=init)


def test_warm_start_converges_fast():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    fld, diag = solve_dpp(dom, lambda p: p[:, 0], spec)
    _, diag2 = solve_dpp(dom, lambda p: p[:, 0], spec, init=fld)
    assert diag2.iterations < max(50, diag.iterations // 10)


def test_default_tol_scales_with_oscillation():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    _, d1 = solve_dpp(dom, lambda p: p[:, 0], spec)
    _, d2 = solve_dpp(dom, lambda p: 1000.0 * p[:, 0], spec)
    assert math.isclose(d2.tol / d1.tol, 1000.0, rel_tol=1e-9)


def test_constant_boundary_solves_immediately():
    dom = _disk()
    fld, diag = solve_dpp(dom, lambda p: np.full(len(p), 2.0), GameSpec.tug_of_war(0.2))
    assert np.allclose(fld.values, 2.0, atol=1e-14)
    assert diag.converged


def test_boundary_field_inputs():
    dom = _disk()
    by_fn = boundary_field(dom, lambda p: p[:, 0])
    by_arr = boundary_field(dom, dom.strip_points[:, 0])
    assert np.array_equal(by_fn, by_arr)
    with pytest.raises(ValueError):
        boundary_field(dom, np.zeros(3))
    bad = np.zeros(dom.n_strip)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        boundary_field(dom, bad)


def test_solver_rejects_uncovered_epsilon():
    dom = _disk(eps=0.2)
    with pytest.raises(RuntimeError):
        solve_dpp(dom, lambda p: p[:, 0], GameSpec.random_walk(0.4))


def test_max_iter_reports_not_converged():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    _, diag = solve_dpp(dom, lambda p: p[:, 0], spec, max_iter=3)
    assert not diag.converged
    assert diag.iterations == 3
    assert "NOT converged" in diag.summary()


def test_max_iter_stop_with_small_residual_is_not_converged():
    # k sweeps bring the one-step defect under tol, but the residuals still
    # contract slowly, so the tail estimate of the distance to u* exceeds tol
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    _, full = solve_dpp(dom, lambda p: p[:, 0], spec)
    assert full.converged and full.tail_error <= full.tol
    tol = 1e-3
    k = int(np.argmax(np.asarray(full.residual_history) <= tol)) + 1
    _, diag = solve_dpp(dom, lambda p: p[:, 0], spec, tol=tol, max_iter=k)
    assert diag.iterations == k
    assert diag.final_residual <= tol < diag.tail_error
    assert not diag.converged
    assert "NOT converged" in diag.summary()


def test_tug_solution_between_data_bounds():
    dom = _disk()
    g = field_from_function(dom, lambda p: np.cos(2 * p[:, 0]) + p[:, 1]).values
    lo, hi = g[dom.strip_indices].min(), g[dom.strip_indices].max()
    fld, _ = solve_dpp(dom, g[dom.strip_indices], GameSpec.tug_of_war(0.2))
    assert np.all(fld.values >= lo - 1e-12)
    assert np.all(fld.values <= hi + 1e-12)
