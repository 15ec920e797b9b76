"""Pair-statistic smoothness reports on synthetic fields."""

import json
import math

import numpy as np
import pytest

from dpplab.core import (Ball, Box, Mask, build_grid_domain, constant_field,
                         field_from_function)
from dpplab.regularity import (_ball_point_indices, _sample_pairs,
                               estimate_exponent, fit_c_prime, holder_report)
from dpplab.rng import substream

A = np.array([1.0, -0.5])


@pytest.fixture(scope="module")
def disk():
    return build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.02, 0.1)


@pytest.fixture(scope="module")
def affine(disk):
    return field_from_function(disk, lambda P: P @ A)


@pytest.fixture(scope="module")
def sqrt_cusp(disk):
    return field_from_function(disk, lambda P: np.linalg.norm(P, axis=1) ** 0.5)


def test_constant_field_K_zero(disk):
    rep = holder_report(constant_field(disk, 4.2), 0.5, 0.1, 0.4,
                        (0.0, 0.0), 1.0, 500, seed=1)
    assert rep.K == 0.0
    assert rep.osc == 0.0
    assert rep.pair_count == 0


def test_affine_per_pair_quotients_closed_form(disk, affine):
    # C' = 0: each quotient is |a . (x-z)| / ((|x-z|/R)^delta osc)
    for delta in (0.3, 0.7, 0.95):
        rep = holder_report(affine, delta, 0.1, 0.4, (0.0, 0.0), 0.0, 800, seed=2)
        assert rep.pair_count == 800
        for dist, absdiff, quot in rep.quotients:
            want = absdiff / ((dist / rep.R) ** delta * rep.osc)
            assert math.isclose(quot, want, rel_tol=0, abs_tol=1e-12)
        assert rep.K == max(q for _, _, q in rep.quotients)


def test_affine_K_decreases_toward_exponent_one(affine):
    # longest pairs dominate; their separation exceeds R, so the quotient
    # shrinks as delta grows
    Ks = [holder_report(affine, d, 0.1, 0.4, (0.0, 0.0), 0.0, 800, seed=2).K
          for d in (0.3, 0.7, 0.95)]
    assert Ks[0] > Ks[1] > Ks[2]


def test_K_shift_and_scale_invariant(disk, affine):
    shifted = field_from_function(disk, lambda P: P @ A + 11.0)
    scaled = field_from_function(disk, lambda P: 3.5 * (P @ A))
    base = holder_report(affine, 0.5, 0.1, 0.4, (0.0, 0.0), 0.7, 600, seed=3).K
    for other in (shifted, scaled):
        k = holder_report(other, 0.5, 0.1, 0.4, (0.0, 0.0), 0.7, 600, seed=3).K
        assert abs(k - base) <= 1e-12


def test_K_monotone_in_floor_constant(affine):
    Ks = [holder_report(affine, 0.5, 0.1, 0.4, (0.0, 0.0), c, 600, seed=3).K
          for c in np.linspace(0.0, 3.0, 13)]
    assert all(b <= a + 1e-15 for a, b in zip(Ks, Ks[1:]))


def test_holder_report_validation(disk, affine):
    with pytest.raises(ValueError, match="pair_budget"):
        holder_report(affine, 0.5, 0.1, 0.4, (0.0, 0.0), 1.0, 0, seed=1)
    with pytest.raises(ValueError, match="delta"):
        holder_report(affine, 1.5, 0.1, 0.4, (0.0, 0.0), 1.0, 10, seed=1)
    # B(center, 2R) pokes outside the unit disk
    with pytest.raises(ValueError, match="not covered"):
        holder_report(affine, 0.5, 0.1, 0.4, (0.7, 0.0), 1.0, 10, seed=1)


@pytest.mark.parametrize("c_prime", [math.nan, math.inf, -math.inf])
def test_holder_report_rejects_a_non_finite_c_prime(affine, c_prime):
    # K would be nan or -inf, written into the artifact as a number
    with pytest.raises(ValueError, match="C_prime must be finite"):
        holder_report(affine, 0.5, 0.1, 0.4, (0.0, 0.0), c_prime, 10, seed=1)


def test_uncovered_ball_inside_the_lattice_box_raises():
    # annulus 0.35 < |x| < 0.85 with its strip: the hole |x| <= 0.25 holds no
    # stored point, though it lies inside the lattice's bounding box
    ring = Mask(predicate=lambda P: np.abs(np.linalg.norm(P, axis=1) - 0.6) < 0.25,
                lo=(-1.0, -1.0), hi=(1.0, 1.0))
    fld = field_from_function(build_grid_domain(ring, 0.02, 0.1), lambda P: P @ A)
    rep = holder_report(fld, 0.5, 0.1, 0.05, (0.6, 0.0), 1.0, 10, seed=1)
    assert rep.pair_count == 10
    # B((0.5, 0), 0.3) reaches into the hole
    with pytest.raises(ValueError, match="not covered"):
        holder_report(fld, 0.5, 0.1, 0.15, (0.5, 0.0), 1.0, 10, seed=1)


def _scanned_ball_point_indices(domain, center, radius, require_cover=False):
    """The ball selection as a scan of every stored point, with coverage
    checked over the ball's lattice box: the oracle of the key-index
    lookup."""
    c = np.asarray(center, dtype=float)
    d = domain.points - c
    sel = np.flatnonzero(np.einsum("ij,ij->i", d, d) < radius**2)
    if require_cover:
        h = domain.spacing
        lo = np.floor((c - radius) / h).astype(np.int64)
        hi = np.ceil((c + radius) / h).astype(np.int64)
        grids = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)],
                            indexing="ij")
        ks = np.stack([g.ravel() for g in grids], axis=1)
        dd = ks * h - c
        inside = np.einsum("ij,ij->i", dd, dd) < radius**2
        if np.any(domain._rows(ks[inside].T) < 0):
            raise ValueError("not covered")
    return sel


@pytest.mark.parametrize("shape, h, eps", [
    (Ball((0.0, 0.0), 1.0), 0.02, 0.1),
    (Box((-0.6, -0.4), (0.7, 0.5)), 0.03, 0.1),
    (Ball((0.1, 0.0, -0.05), 0.6), 0.05, 0.16),
], ids=["disk", "box", "ball3"])
def test_ball_selection_matches_the_point_scan(shape, h, eps):
    dom = build_grid_domain(shape, h, eps)
    rng = np.random.default_rng(31)
    lo, hi = dom.points.min(axis=0), dom.points.max(axis=0)
    raised = 0
    for _ in range(60):
        center = rng.uniform(lo, hi)   # off the lattice
        radius = rng.uniform(0.01, 0.5)
        want = _scanned_ball_point_indices(dom, center, radius)
        got = _ball_point_indices(dom, center, radius)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        try:
            _scanned_ball_point_indices(dom, center, radius, True)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError, match="not covered"):
                _ball_point_indices(dom, center, radius, True)
        else:
            assert np.array_equal(
                _ball_point_indices(dom, center, radius, True), want)
    assert 0 < raised < 60


def test_holder_report_json(affine):
    rep = holder_report(affine, 0.5, 0.1, 0.4, (0.0, 0.0), 0.7, 50, seed=3)
    payload = json.loads(rep.to_json())
    assert payload["pair_count"] == 50
    assert payload["c_prime"] == 0.7
    assert len(payload["quotients"]) == 50
    assert payload["K"] == max(row[2] for row in payload["quotients"])


def test_fit_c_prime_consistent_with_report(sqrt_cusp):
    c, k = fit_c_prime(sqrt_cusp, 0.5, 0.1, 0.4, (0.0, 0.0), 2000, seed=5)
    rep = holder_report(sqrt_cusp, 0.5, 0.1, 0.4, (0.0, 0.0), c, 2000, seed=5)
    assert rep.K == k


def test_fit_K_equals_report_K_bit_for_bit(disk, sqrt_cusp):
    fields = [sqrt_cusp,
              field_from_function(disk, lambda P: np.abs(P[:, 0]) ** 0.3 + P[:, 1]),
              field_from_function(disk, lambda P: np.sin(7.0 * P[:, 0]) * P[:, 1])]
    for fld in fields:
        for delta in (0.1, 0.3, 0.5, 0.8):
            for seed in range(4):
                c, k = fit_c_prime(fld, delta, 0.1, 0.4, (0.0, 0.0), 500, seed)
                rep = holder_report(fld, delta, 0.1, 0.4, (0.0, 0.0), c, 500, seed)
                assert rep.K == k, (delta, seed)


def test_fit_c_prime_validation(affine):
    with pytest.raises(ValueError, match="pair_budget"):
        fit_c_prime(affine, 0.5, 0.1, 0.4, (0.0, 0.0), 0, seed=1)
    with pytest.raises(ValueError, match="delta"):
        fit_c_prime(affine, 1.5, 0.1, 0.4, (0.0, 0.0), 10, seed=1)
    # B(0, 0.01) holds only the origin of the 0.02 lattice
    with pytest.raises(ValueError, match="fewer than two"):
        fit_c_prime(affine, 0.5, 0.1, 0.01, (0.0, 0.0), 10, seed=1)
    with pytest.raises(ValueError, match="fewer than two"):
        holder_report(affine, 0.5, 0.1, 0.01, (0.0, 0.0), 0.0, 10, seed=1)


def test_pairs_stratified_by_separation_decade(disk, affine):
    # nearest separation 0.02 against a span near 0.8: two decades, quota 400
    inside = disk.points[np.linalg.norm(disk.points, axis=1) < 0.4]
    span = math.dist(inside.min(axis=0), inside.max(axis=0))
    assert math.ceil(math.log10(span / 0.02)) == 2
    rep = holder_report(affine, 0.5, 0.1, 0.4, (0.0, 0.0), 0.0, 800, seed=2)
    dist = np.array([row[0] for row in rep.quotients])
    assert len(dist) == 800
    assert np.all(dist > 0)
    # unstratified pairs of B_R fall that short only a few percent of the time
    assert np.count_nonzero(dist <= span / 10) >= 400
    again = holder_report(affine, 0.5, 0.1, 0.4, (0.0, 0.0), 0.0, 800, seed=2)
    assert again.quotients == rep.quotients


@pytest.mark.parametrize("pts, budget, quota", [
    # 100 points on a line 1 apart: span 99, two decades of quota 3, and a
    # budget of 7 leaves one pair to the fill-up draw
    (np.stack([np.arange(100.0), np.zeros(100)], axis=1), 7, 3),
    # separations 1, 99 and 100 only: the decade (10, 100] fills, (1, 10]
    # never does, and the fill-up draw supplies its two pairs
    (np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]]), 4, 2),
], ids=["remainder", "empty-decade"])
def test_sample_pairs_fills_the_budget(pts, budget, quota):
    ii, jj = _sample_pairs(substream(5), pts, budget)
    assert len(ii) == len(jj) == budget and np.all(ii != jj)
    span = math.dist(pts.min(axis=0), pts.max(axis=0))
    t = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    assert np.all((span / 10 < t[:quota]) & (t[:quota] <= span))


def test_fit_c_prime_of_a_constant_field_is_zero(disk):
    assert fit_c_prime(constant_field(disk, 4.2), 0.5, 0.1, 0.4, (0.0, 0.0),
                       500, seed=1) == (0.0, 0.0)


def test_fit_c_prime_budget_stability(sqrt_cusp):
    _, k1 = fit_c_prime(sqrt_cusp, 0.5, 0.1, 0.4, (0.0, 0.0), 2000, seed=5)
    _, k2 = fit_c_prime(sqrt_cusp, 0.5, 0.1, 0.4, (0.0, 0.0), 4000, seed=5)
    assert abs(k2 - k1) <= 0.05 * abs(k1)


def test_exponent_of_sqrt_cusp_through_origin(sqrt_cusp):
    # one endpoint pinned to the origin lattice point: |du| = dist^(1/2)
    fil = lambda X, Z: ((np.linalg.norm(X, axis=1) < 0.01)
                        | (np.linalg.norm(Z, axis=1) < 0.01))
    slope, r2 = estimate_exponent(sqrt_cusp, 0.005, pair_filter=fil, seed=4,
                                  pair_budget=300_000)
    assert 0.45 <= slope <= 0.55
    assert r2 > 0.99


def test_exponent_of_affine_field(affine):
    # pairs aligned with the gradient so |du| tracks the full separation
    fil = lambda X, Z: (np.abs((X - Z) @ A)
                        > 0.9 * np.linalg.norm(X - Z, axis=1) * np.linalg.norm(A))
    for seed in (0, 4, 7):
        slope, r2 = estimate_exponent(affine, 0.005, pair_filter=fil, seed=seed)
        assert 0.95 <= slope <= 1.05
        assert r2 > 0.95


def test_exponent_constant_field_rejects(disk):
    with pytest.raises(ValueError, match="fewer than 10 usable pairs"):
        estimate_exponent(constant_field(disk, 1.0), 0.005, seed=4)
