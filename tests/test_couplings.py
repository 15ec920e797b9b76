"""Mirror, rotation, and clamp coupling maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplab.couplings import (
    CouplingMap,
    clamp_projection,
    mirror_map,
    rotate,
    rotation_frames,
    rotation_map,
)
from dpplab.rng import substream, uniform_ball


def vec(n, lo=-1.0, hi=1.0):
    return st.lists(
        st.floats(lo, hi, allow_nan=False, width=64), min_size=n, max_size=n
    ).map(np.array)


# -- mirror ------------------------------------------------------------------


def test_mirror_worked_example():
    got = mirror_map((1.0, 0.0), (-1.0, 0.0), (0.1, 0.2))
    assert np.allclose(got, (-0.1, 0.2))


def test_mirror_fixes_perpendicular():
    x, z = np.array([0.3, 0.1, 0.0]), np.array([0.0, 0.0, 0.0])
    h = np.array([-0.1, 0.3, 0.7])  # h . (x - z) = 0
    assert np.allclose(mirror_map(x, z, h), h, atol=1e-15)


def test_mirror_diagonal_rejected():
    with pytest.raises(ValueError):
        mirror_map((0.1, 0.1), (0.1, 0.1), (1.0, 0.0))


def test_mirror_batch():
    x, z = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    H = np.array([[0.1, 0.2], [0.5, -0.5], [0.0, 1.0]])
    got = mirror_map(x, z, H)
    assert got.shape == (3, 2)
    assert np.allclose(got, H * [-1.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(vec(3), vec(3), vec(3))
def test_mirror_isometry_and_involution(x, z, h):
    if np.linalg.norm(x - z) < 1e-6:
        return
    p = mirror_map(x, z, h)
    assert abs(np.linalg.norm(p) - np.linalg.norm(h)) <= 1e-13 * (1 + np.linalg.norm(h))
    assert np.allclose(mirror_map(x, z, p), h, atol=1e-13)


def test_mirror_contracts_pair_distance_on_small_ball():
    # h drawn from B(eps(z-x)/(2t), eps/4) moves the coupled pair at least
    # eps/10 closer whenever t >= 7 eps / 4
    rng = substream(211)
    eps, m = 0.2, 100_000
    x = np.array([0.31, -0.4])
    z = np.array([-0.17, 0.33])
    t = np.linalg.norm(x - z)
    assert t >= 7 * eps / 4
    center = eps * (z - x) / (2 * t)
    h = center + uniform_ball(rng, 2, eps / 4, m)
    ph = mirror_map(x, z, h)
    d = np.linalg.norm((x + h) - (z + ph), axis=1)
    assert np.all(d <= t - eps / 10)


# -- rotation ----------------------------------------------------------------


def test_rotation_worked_example_2d():
    R = rotation_map((1.0, 0.0), (0.0, 1.0))
    assert np.allclose(R((0.0, 0.7)), (-0.7, 0.0), atol=1e-15)
    assert np.allclose(R((1.0, 0.0)), (0.0, 1.0), atol=1e-15)


def test_rotation_identity_cases():
    same = rotation_map((2.0, 0.0), (5.0, 0.0))
    assert np.allclose(same((0.3, 0.4)), (0.3, 0.4))
    # antipodal pair maps with the identity by convention
    anti = rotation_map((1.0, 0.0), (-1.0, 0.0))
    assert np.allclose(anti((0.3, 0.4)), (0.3, 0.4))


def test_rotation_maps_direction():
    rng = substream(223)
    for n in (2, 3, 4):
        for _ in range(100):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            R = rotation_map(a, b)
            got = R(a / np.linalg.norm(a))
            assert np.allclose(got, b / np.linalg.norm(b), atol=1e-12)


def test_rotation_isometry():
    rng = substream(227)
    for _ in range(200):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        h = rng.standard_normal(3)
        R = rotation_map(a, b)
        assert math.isclose(
            np.linalg.norm(R(h)), np.linalg.norm(h), rel_tol=1e-13, abs_tol=1e-13
        )


def test_rotation_hyperplane_to_hyperplane():
    rng = substream(229)
    for _ in range(200):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        R = rotation_map(a, b)
        # h orthogonal to a lands orthogonal to b
        h = np.cross(a, rng.standard_normal(3))
        got = R(h)
        nb = np.linalg.norm(b)
        assert abs(got @ b) <= 1e-12 * np.linalg.norm(h) * nb + 1e-15


def test_rotation_fixes_orthogonal_complement_of_plane():
    a, b = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    R = rotation_map(a, b)
    assert np.allclose(R((0.0, 0.0, 0.9)), (0.0, 0.0, 0.9), atol=1e-15)


def test_rotation_antipodal_invariance():
    # P_{nu, nu'} = P_{-nu, -nu'}
    rng = substream(233)
    for _ in range(100):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        h = rng.standard_normal(3)
        assert np.allclose(rotation_map(a, b)(h), rotation_map(-a, -b)(h), atol=1e-12)


def test_rotation_near_identity_displacement_bound():
    # angle phi displaces by at most 2 sin(phi/2) |h|; theta = 0.1 budget
    theta, eps = 0.1, 0.5
    phi_max = 2 * math.asin(math.sqrt(theta) / 2)
    rng = substream(239)
    for _ in range(50):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        # perturb a by an angle just under phi_max
        w = rng.standard_normal(3)
        w -= (w @ a) * a
        w /= np.linalg.norm(w)
        phi = phi_max * 0.999
        b = math.cos(phi) * a + math.sin(phi) * w
        R = rotation_map(a, b)
        h = uniform_ball(rng, 3, eps, 2000)
        disp = np.linalg.norm(R(h) - h, axis=1)
        assert np.all(disp**2 <= theta * eps**2 + 1e-15)


def test_batched_frames_match_per_target_rotation_map():
    rng = substream(241)
    for n in (2, 3, 4):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        B = np.vstack([rng.standard_normal((30, n)),
                       a, 2.5 * a, -a, -0.5 * a])         # parallel, antipodal
        B /= np.linalg.norm(B, axis=1)[:, None]
        H = rng.standard_normal((7, n))
        c, cos, sin, ident = rotation_frames(a, B)
        images = np.where(ident[:, None, None], H,
                          rotate(H, a, c[:, None], cos[:, None, None],
                                 sin[:, None, None]))
        assert ident[-4:].all() and not ident[:-4].any()
        for j, b in enumerate(B):
            R = rotation_map(a, b)
            assert np.allclose(R(H), images[j], rtol=0, atol=1e-14)


def test_rotation_rejects_zero_vector():
    with pytest.raises(ValueError):
        rotation_map((0.0, 0.0), (1.0, 0.0))


# -- clamp -------------------------------------------------------------------


def test_clamp_cases():
    x = np.array([0.0, 0.0])
    assert np.allclose(clamp_projection(x, 1.0, (0.6, 0.0)), x)  # far: to x
    assert np.allclose(clamp_projection(x, 1.0, (0.3, 0.0)), (0.3, 0.0))  # near: keep
    assert np.allclose(clamp_projection(x, 1.0, (0.5, 0.0)), x)  # boundary: to x


def test_clamp_output_within_half_ball():
    rng = substream(241)
    x = np.array([0.2, -0.1])
    y = x + uniform_ball(rng, 2, 1.0, 10_000)
    out = clamp_projection(x, 1.0, y)
    assert np.all(np.linalg.norm(out - x, axis=1) <= 0.5)


def test_clamp_batch_matches_scalar():
    x = np.array([0.0, 0.0])
    Y = np.array([[0.6, 0.0], [0.3, 0.0], [0.5, 0.0]])
    batch = clamp_projection(x, 1.0, Y)
    rows = np.array([clamp_projection(x, 1.0, y) for y in Y])
    assert np.allclose(batch, rows)


# -- tagged wrapper ----------------------------------------------------------


def test_coupling_map_dispatch():
    x, z = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    H = np.array([[0.1, 0.2], [-0.3, 0.05]])
    X, Z = CouplingMap.mirror(x, z).step(x, z, H, 0.5)  # far pair: no merge
    assert np.array_equal(X, x + H)
    assert np.allclose(Z, z + mirror_map(x, z, H))

    cr = CouplingMap.rotation((1.0, 0.0), (0.0, 1.0))
    X, Z = cr.step(x, z, H, 0.5)
    assert np.array_equal(X, x + H)
    assert np.allclose(Z, z + rotation_map((1.0, 0.0), (0.0, 1.0))(H))


def _mirror_step_masked(x, z, H, epsilon):
    """The mirror step with boolean masks: merged rows take Z = X, the
    others z + mirror_map of their rows, taken in order."""
    X = x + H
    land = H - (z - x)
    merged = np.einsum("ij,ij->i", land, land) < epsilon**2
    Z = X.copy()
    if not np.all(merged):
        Z[~merged] = z + mirror_map(x, z, H[~merged])
    return X, Z


@pytest.mark.parametrize("n", [2, 3])
def test_mirror_step_index_rows_match_masks(n):
    # the step selects the rows apart from z's ball by index, in order: the
    # same rows reach mirror_map as with boolean masks, so the same bits
    rng = substream(241, n)
    eps = 0.2
    H = uniform_ball(rng, n, eps, 999)
    x = rng.uniform(-0.5, 0.5, n)
    e = np.eye(n)[0]
    cases = [("none merged", x + 3.0 * eps * e, H),          # t >= 2 eps
             ("partial", x + 0.7 * eps * e, H),
             ("all merged", x.copy(), H),                     # the diagonal
             ("all merged", x + 0.1 * eps * e, 0.5 * H)]
    for name, z, Hc in cases:
        land = Hc - (z - x)
        merged = int(np.count_nonzero(np.einsum("ij,ij->i", land, land) < eps**2))
        assert {"none merged": merged == 0, "partial": 0 < merged < len(Hc),
                "all merged": merged == len(Hc)}[name], (name, merged)
        X, Z = CouplingMap.mirror(x, z).step(x, z, Hc, eps)
        Xm, Zm = _mirror_step_masked(x, z, Hc, eps)
        assert np.array_equal(X, Xm) and np.array_equal(Z, Zm), name


def test_coupling_map_validation():
    with pytest.raises(ValueError):
        CouplingMap(kind="mirror", x=np.zeros(2))  # missing z
    with pytest.raises(ValueError):
        CouplingMap(kind="squint", x=np.zeros(2))


def test_rotation_coupling_validation_names_the_fault():
    with pytest.raises(ValueError, match="needs nu_x and nu_z"):
        CouplingMap("rotation", nu_x=(1.0, 0.0))
    with pytest.raises(ValueError, match="nonzero directions"):
        CouplingMap("rotation", nu_x=(0.0, 0.0), nu_z=(1.0, 0.0))
