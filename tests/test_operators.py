"""The pointwise operator and the grid-applied game operators."""

import math

import numpy as np
import pytest

from dpplab.core import (
    Ball,
    Box,
    Mask,
    ValueField,
    build_grid_domain,
    constant_field,
    disk_second_moment,
    field_from_function,
)
from dpplab.operators import (
    GameSpec,
    alpha_beta_from_p,
    apply_at,
    apply_operator,
    ball_lattice,
    default_direction_count,
    disk_rule,
    move_radii,
    sphere_directions,
)


def sq(pts):
    return np.einsum("ij,ij->i", pts, pts)


# -- mixing weights ----------------------------------------------------------


def test_alpha_beta_p2_is_pure_mean():
    assert alpha_beta_from_p(2.0, 3) == (0.0, 1.0)


def test_alpha_beta_p_inf_is_pure_tug():
    assert alpha_beta_from_p(math.inf, 2) == (1.0, 0.0)


def test_alpha_beta_p4_n2():
    a, b = alpha_beta_from_p(4.0, 2)
    assert math.isclose(a, 1.0 / 3.0) and math.isclose(b, 2.0 / 3.0)


def test_alpha_beta_sum_to_one():
    for p in (2.0, 3.0, 7.5, 40.0):
        for n in (1, 2, 3, 6):
            a, b = alpha_beta_from_p(p, n)
            assert math.isclose(a + b, 1.0)
            assert 0.0 <= a <= 1.0


def test_alpha_beta_rejects_p_below_2():
    with pytest.raises(ValueError):
        alpha_beta_from_p(1.5, 2)


# -- direction and disk quadrature -------------------------------------------


def test_sphere_directions_unit_and_antipodal():
    for n, count in ((2, 16), (3, 40), (4, 20)):
        dirs = sphere_directions(n, count)
        assert dirs.shape == (count, n)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        # antipode of every direction is present
        for d in dirs:
            assert np.min(np.linalg.norm(dirs + d, axis=1)) < 1e-9


def test_sphere_directions_odd_count_rejected():
    with pytest.raises(ValueError):
        sphere_directions(2, 7)


def test_default_direction_count():
    assert default_direction_count(2) == 64
    assert default_direction_count(3) == 128


def test_move_radii_default_ladder():
    spec = GameSpec.directional(1.0, 0.5)
    assert np.allclose(move_radii(spec), [1.0, 0.5, 0.25, 0.0625])


def test_move_radii_properties():
    spec = GameSpec.directional(0.3, 0.5, radius_count=6)
    r = move_radii(spec)
    assert r[0] == 0.3 and r[-1] == 0.3 / 16.0
    assert np.all(np.diff(r) < 0)
    assert np.all((r > 0) & (r <= 0.3))


def test_disk_rule_n2_is_orthogonal_segment():
    pts, wts = disk_rule(2, 0.5, np.array([1.0, 0.0]))
    assert math.isclose(wts.sum(), 1.0)
    assert np.allclose(pts[:, 0], 0.0, atol=1e-15)
    assert np.all(np.abs(pts[:, 1]) <= 0.5 + 1e-12)


def test_disk_rule_orthogonality_n3():
    nu = np.array([1.0, 2.0, -0.5])
    pts, wts = disk_rule(3, 0.2, nu)
    assert math.isclose(wts.sum(), 1.0)
    assert np.max(np.abs(pts @ nu)) < 1e-12 * np.linalg.norm(nu)


def test_disk_rule_affine_exactness():
    # symmetric rule: mean of a . h + b over the disk is exactly b
    rng = np.random.default_rng(3)
    for n in (2, 3):
        nu = rng.standard_normal(n)
        a = rng.standard_normal(n)
        pts, wts = disk_rule(n, 0.7, nu)
        assert abs((pts @ a) @ wts) < 1e-12


def test_disk_rule_second_moment_n2_exact():
    # Gauss-Legendre integrates t^2 exactly on the segment
    pts, wts = disk_rule(2, 1.0, np.array([0.0, 1.0]))
    assert math.isclose(sq(pts) @ wts, disk_second_moment(2, 1.0), rel_tol=1e-12)


def test_disk_rule_stack_matches_single_calls():
    # every direction of a stacked call carries the same bits as its own call
    rng = np.random.default_rng(41)
    for n, count in ((2, 64), (3, 128)):
        scale = rng.uniform(0.01, 3.0, (20, 1))
        nus = np.vstack([sphere_directions(n, count),
                         scale * rng.standard_normal((20, n))])
        for nodes, angles in ((9, 16), (5, 6)):
            pts, wts = disk_rule(n, 0.3, nus, nodes, angles)
            singles = [disk_rule(n, 0.3, nu, nodes, angles) for nu in nus]
            assert pts.shape == (len(nus),) + singles[0][0].shape
            assert np.array_equal(pts, np.stack([p for p, _ in singles]))
            assert all(np.array_equal(wts, w) for _, w in singles)


def test_disk_template_built_once_and_read_only(monkeypatch):
    from dpplab import operators

    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda k: calls.append(k) or leggauss(k))
    operators._disk_template.cache_clear()
    try:
        for _ in range(3):
            for n, angles in ((2, 16), (2, 8), (3, 16), (3, 8), (4, 6)):
                pts, wts = disk_rule(n, 0.2, sphere_directions(n, 8), 7, angles)
                assert not wts.flags.writeable
                with pytest.raises(ValueError):
                    wts[0] = 0.0
        assert calls == [7]
    finally:
        operators._disk_template.cache_clear()


def test_ball_rule_product_built_once_and_read_only(monkeypatch):
    calls = []
    meshgrid = np.meshgrid
    monkeypatch.setattr(np, "meshgrid",
                        lambda *a, **k: calls.append(len(a)) or meshgrid(*a, **k))
    ball_lattice.cache_clear()
    try:
        for _ in range(3):
            for n, eps, nodes in ((2, 0.2, 9), (2, 0.1, 9), (3, 0.2, 5)):
                offs = ball_lattice(n, eps, nodes)
                assert offs is ball_lattice(n, eps, nodes)
                assert not offs.flags.writeable
                with pytest.raises(ValueError):
                    offs[0] = 0.0
        assert calls == [2, 2, 3]
    finally:
        ball_lattice.cache_clear()


def test_disk_rule_second_moment_n3():
    pts, wts = disk_rule(3, 1.0, np.array([0.0, 0.0, 1.0]))
    assert math.isclose(sq(pts) @ wts, disk_second_moment(3, 1.0), rel_tol=1e-6)


# -- pointwise operator ------------------------------------------------------


def test_step_tug_of_war_quadratic():
    # sup |y|^2 over the ball is eps^2, inf is 0
    spec = GameSpec.tug_of_war(0.4)
    got = apply_at(sq, (0.0, 0.0), spec, ball_lattice(2, 0.4, 41))
    assert math.isclose(got, 0.5 * 0.4**2, rel_tol=1e-12)


def test_step_tug_of_war_rejects_escaping_probe():
    for spec in (GameSpec.tug_of_war(0.1), GameSpec.random_walk(0.1),
                 GameSpec.space_dependent(0.1, 0.5)):
        with pytest.raises(ValueError):
            apply_at(sq, (0.0, 0.0), spec, np.array([[0.2, 0.0]]))


def test_step_random_walk_quadratic_moment():
    # mean of |y|^2 over B(0, eps) is n eps^2 / (n+2)
    for n in (2, 3):
        got = apply_at(sq, np.zeros(n), GameSpec.random_walk(0.5),
                       ball_lattice(n, 0.5, 41))
        assert math.isclose(got, n * 0.25 / (n + 2), rel_tol=0.02)


def test_step_random_walk_affine_exact():
    # the default moves are the 21-node ball lattice
    got = apply_at(lambda p: p @ [2.0, -1.0] + 3.0, (0.2, 0.1),
                   GameSpec.random_walk(0.5))
    assert math.isclose(got, 0.2 * 2 - 0.1 + 3.0, rel_tol=1e-12)


def test_step_space_dependent_interpolates():
    moves = ball_lattice(2, 0.4, 41)
    tug = apply_at(sq, (0.0, 0.0), GameSpec.tug_of_war(0.4), moves)
    mean = apply_at(sq, (0.0, 0.0), GameSpec.random_walk(0.4), moves)
    for a in (0.0, 0.3, 1.0):
        for alpha in (a, lambda p, a=a: np.full(len(p), a)):
            spec = GameSpec.space_dependent(0.4, alpha)
            got = apply_at(sq, (0.0, 0.0), spec, moves)
            assert math.isclose(got, a * tug + (1 - a) * mean, rel_tol=1e-13)


def test_step_directional_frozen_quadratic():
    # u = |y|^2 at the origin, eps = 1, alpha = beta = 1/2, n = 2.
    # Every direction gives move value alpha r^2 + beta/3 (segment second
    # moment 1/3, Gauss-Legendre exact); radii {1, 1/2, 1/4, 1/16} give
    # sup 2/3 and inf 1/512 + 1/6, so the step is 1283/3072.
    spec = GameSpec.directional(1.0, 0.5)
    got = apply_at(sq, (0.0, 0.0), spec)
    assert math.isclose(got, 1283.0 / 3072.0, rel_tol=1e-12)


def test_step_directional_alpha_one_drops_disk():
    # alpha = 1: value reduces to 0.5*(sup + inf) of u over the jump set
    spec = GameSpec.directional(0.5, 1.0)
    got = apply_at(sq, (0.0, 0.0), spec)
    r = move_radii(spec)
    assert math.isclose(got, 0.5 * (r[0] ** 2 + r[-1] ** 2), rel_tol=1e-12)


def test_step_directional_matches_per_direction_loop():
    u = lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1] ** 2 + 0.1 * p[:, -1] ** 3
    for n in (2, 3):
        spec = GameSpec.directional(0.2, 0.4, direction_count=16)
        x = np.linspace(-0.3, 0.2, n)
        worths = []
        for e in sphere_directions(n, 16):
            pts, wts = disk_rule(n, spec.epsilon, e, spec.disk_node_count,
                                 spec.disk_angle_count)
            disk_mean = float(u(x + pts) @ wts)
            worths += list(0.4 * u(x + np.outer(move_radii(spec), e)) + 0.6 * disk_mean)
        assert apply_at(u, x, spec) == 0.5 * (max(worths) + min(worths))


def test_step_directional_affine_fixed():
    # antipodal directions cancel the linear part
    spec = GameSpec.directional(0.3, 0.7)
    u = lambda p: p @ [1.5, -2.0] + 0.25
    got = apply_at(u, (0.1, 0.2), spec)
    assert math.isclose(got, 0.1 * 1.5 - 0.2 * 2.0 + 0.25, rel_tol=1e-12)


def test_apply_at_directional_rejects_moves():
    # the directional game's moves come from its spec; none are ignored
    spec = GameSpec.directional(0.3, 0.7)
    with pytest.raises(ValueError):
        apply_at(sq, (0.0, 0.0), spec, ball_lattice(2, 0.3))


@pytest.mark.parametrize("n", [2, 3])
def test_apply_at_checks_the_grid_sweep(n):
    # the pointwise operator on the scaled stencil is the grid sweep's
    # oracle: tug-of-war bit for bit (signbit included), the means (a
    # pairwise sum against the sweep's fold) to 1e-13 relative to sup |u|,
    # the scale of the summed values (a mean near 0 cancels)
    eps = 0.2 if n == 2 else 0.3
    dom = build_grid_domain(Ball(center=(0.0,) * n, radius=0.6), eps / 3, eps)
    moves = dom.stencil(eps) * dom.spacing
    rows = np.random.default_rng(7).choice(dom.interior_indices, 40,
                                           replace=False)
    alpha = lambda p: 0.5 + 0.4 * np.tanh(p[:, 0] - p[:, -1])
    specs = (GameSpec.tug_of_war(eps), GameSpec.random_walk(eps),
             GameSpec.space_dependent(eps, 0.3),
             GameSpec.space_dependent(eps, alpha))
    # a smooth field, and one of signed zeros (-0.0 wherever x1 <= 0)
    for f in (lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1] + 0.3 * p[:, -1] ** 2,
              lambda p: -np.maximum(p[:, 0], 0.0)):
        fld = field_from_function(dom, f)
        scale = np.abs(fld.values).max()
        for spec in specs:
            grid = apply_operator(fld, spec).values[rows]
            point = np.array([apply_at(fld.evaluate, x, spec, moves)
                              for x in dom.points[rows]])
            if spec.kind == "tug_of_war":
                assert np.array_equal(point, grid)
                assert np.array_equal(np.signbit(point), np.signbit(grid))
            else:
                assert np.abs(point - grid).max() <= 1e-13 * scale, spec.kind


# -- grid application --------------------------------------------------------


def _domain(h=0.05, eps=0.2):
    return build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), h, eps)


def _specs(eps=0.2):
    return [
        GameSpec.tug_of_war(eps),
        GameSpec.random_walk(eps),
        GameSpec.space_dependent(eps, lambda p: 0.5 + 0.4 * np.tanh(p[:, 0])),
        GameSpec.directional(eps, 0.5, direction_count=16),
    ]


def test_apply_operator_fixes_constants():
    dom = _domain()
    fld = constant_field(dom, 2.5)
    for spec in _specs():
        out = apply_operator(fld, spec)
        assert np.allclose(out.values, 2.5, atol=1e-12)


def test_apply_operator_fixes_affine():
    dom = _domain()
    fld = field_from_function(dom, lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1])
    for spec in _specs():
        out = apply_operator(fld, spec)
        err = np.abs(out.values - fld.values)[dom.interior_indices]
        assert err.max() < 1e-10, spec.kind


def test_apply_operator_keeps_strip_values():
    dom = _domain()
    fld = field_from_function(dom, lambda p: p[:, 0] ** 2)
    for spec in _specs():
        out = apply_operator(fld, spec)
        assert np.array_equal(
            out.values[dom.strip_indices], fld.values[dom.strip_indices]
        )


def test_apply_operator_monotone():
    dom = _domain()
    rng = np.random.default_rng(17)
    u = rng.uniform(size=dom.n_points)
    v = u + rng.uniform(size=dom.n_points)  # v >= u pointwise
    from dpplab.core import ValueField

    fu, fv = ValueField(dom, u), ValueField(dom, v)
    for spec in _specs():
        au = apply_operator(fu, spec).values[dom.interior_indices]
        av = apply_operator(fv, spec).values[dom.interior_indices]
        assert np.all(av >= au - 1e-12), spec.kind


def test_apply_operator_nonexpansive():
    dom = _domain()
    rng = np.random.default_rng(29)
    from dpplab.core import ValueField

    u = ValueField(dom, rng.uniform(size=dom.n_points))
    v = ValueField(dom, rng.uniform(size=dom.n_points))
    gap = np.abs(u.values - v.values).max()
    for spec in _specs():
        au = apply_operator(u, spec).values[dom.interior_indices]
        av = apply_operator(v, spec).values[dom.interior_indices]
        assert np.abs(au - av).max() <= gap + 1e-12, spec.kind


def test_apply_operator_shift_equivariant():
    dom = _domain()
    rng = np.random.default_rng(31)
    from dpplab.core import ValueField

    u = ValueField(dom, rng.uniform(size=dom.n_points))
    shifted = ValueField(dom, u.values + 4.0)
    for spec in _specs():
        au = apply_operator(u, spec).values[dom.interior_indices]
        ash = apply_operator(shifted, spec).values[dom.interior_indices]
        assert np.allclose(ash, au + 4.0, atol=1e-11), spec.kind


def test_space_dependent_endpoints_match_pure_games():
    dom = _domain()
    fld = field_from_function(dom, lambda p: np.sin(3 * p[:, 0]) + p[:, 1] ** 2)
    tug = apply_operator(fld, GameSpec.tug_of_war(0.2)).values
    mean = apply_operator(fld, GameSpec.random_walk(0.2)).values
    all_tug = apply_operator(fld, GameSpec.space_dependent(0.2, 1.0)).values
    all_mean = apply_operator(fld, GameSpec.space_dependent(0.2, 0.0)).values
    assert np.allclose(all_tug, tug, atol=1e-13)
    assert np.allclose(all_mean, mean, atol=1e-13)


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_game_spec_rejects_a_step_that_is_not_positive_and_finite(eps):
    # nan fails every comparison, so a check written as "eps <= 0" lets it
    # through, and so does any check that forgets inf
    for make in (GameSpec.tug_of_war, GameSpec.random_walk):
        with pytest.raises(ValueError, match="positive and finite"):
            make(eps)
    with pytest.raises(ValueError, match="positive and finite"):
        GameSpec.space_dependent(eps, 0.5)


def test_directional_alpha_validation():
    with pytest.raises(ValueError):
        GameSpec.directional(0.1, 0.0)  # alpha must be positive
    with pytest.raises(ValueError):
        GameSpec.directional(0.1, 1.2)


_BAD_COUNTS = {
    "odd directions": {"direction_count": 7},
    "no directions": {"direction_count": 0},
    "one radius": {"radius_count": 1},
    "no disk nodes": {"disk_node_count": 0},
    "odd disk angles": {"disk_angle_count": 5},
    "no disk angles": {"disk_angle_count": 0},
}


@pytest.mark.parametrize("bad", list(_BAD_COUNTS))
def test_quadrature_counts_rejected_at_construction(bad):
    # a bad count fails when either scheme is built, not silently clamped
    # (radius_count=1) or deep inside a later sweep
    from dpplab.certifier import PairSearch

    kw = _BAD_COUNTS[bad]
    field = next(iter(kw))
    with pytest.raises(ValueError, match=field):
        GameSpec.directional(0.2, 0.5, **kw)
    with pytest.raises(ValueError, match=field):
        GameSpec("tug_of_war", 0.2, **kw)
    with pytest.raises(ValueError, match=field):
        PairSearch(**kw)


def test_alpha_at_validates_range():
    spec = GameSpec.space_dependent(0.1, lambda p: 1.5 * np.ones(len(p)))
    with pytest.raises(ValueError):
        spec.alpha_at(np.zeros((3, 2)))


def test_alpha_at_rejects_nan():
    # NaN fails every comparison: a range check written as "a < 0 or a > 1"
    # lets it through, and every coin rng.random() < nan then plays noise
    spec = GameSpec.space_dependent(0.2, lambda p: np.full(len(p), np.nan))
    with pytest.raises(ValueError):
        spec.alpha_at(np.zeros((3, 2)))
    fld = constant_field(_domain(), 1.0)
    with pytest.raises(ValueError):
        apply_operator(fld, spec)


def _gather_reference(fld, spec):
    """Tug-of-war, random walk or mixed game reduced over the gathered
    (S, m) block of stencil values, down its rows."""
    dom = fld.domain
    vals = np.take(fld.values, dom.neighbor_table(spec.epsilon).T)
    mid = 0.5 * (vals.max(axis=0) + vals.min(axis=0))
    if spec.kind == "tug_of_war":
        out = mid
    elif spec.kind == "random_walk":
        out = vals.mean(axis=0)
    else:
        a = spec.alpha_at(dom.interior_points)
        out = a * mid + (1.0 - a) * vals.mean(axis=0)
    ref = fld.values.copy()
    ref[dom.interior_indices] = out
    return ref


def _ring(n):
    def inside(p):
        r = np.linalg.norm(p, axis=1)
        return (r > 0.25) & (r < 0.7)
    return Mask(inside, (-0.7,) * n, (0.7,) * n)


_SLICE_DOMAINS = {
    "ball2": (Ball((0.1, -0.2), 0.8), 0.05, 0.2),
    "box2": (Box((-0.5, -0.3), (0.6, 0.4)), 0.04, 0.15),
    "ring2": (_ring(2), 0.03, 0.1),
    "ball3": (Ball((0.0, 0.0, 0.0), 0.6), 0.4 / 3, 0.4),
    "box3": (Box((-0.4, -0.3, -0.2), (0.4, 0.3, 0.5)), 0.08, 0.25),
    "ring3": (_ring(3), 0.07, 0.22),
}


@pytest.mark.parametrize("name", sorted(_SLICE_DOMAINS))
def test_slice_sweeps_match_gather_reference_bit_for_bit(name):
    shape, h, eps = _SLICE_DOMAINS[name]
    dom = build_grid_domain(shape, h, eps)
    rng = np.random.default_rng(41)
    fields = [rng.standard_normal(dom.n_points),
              # coarse values: ties (and signed zeros) inside every stencil
              np.round(rng.standard_normal(dom.n_points), 1) * rng.choice(
                  [-1.0, 1.0], dom.n_points)]
    for e in (eps, 0.8 * eps):
        specs = [GameSpec.tug_of_war(e), GameSpec.random_walk(e),
                 GameSpec.space_dependent(e, 0.3),
                 GameSpec.space_dependent(
                     e, lambda p: 0.5 + 0.4 * np.tanh(3.0 * p[:, 0]))]
        for values in fields:
            fld = ValueField(dom, values)
            for spec in specs:
                got = apply_operator(fld, spec).values
                assert np.array_equal(got, _gather_reference(fld, spec)), \
                    (name, e, spec.kind)
                assert np.array_equal(np.signbit(got),
                                      np.signbit(_gather_reference(fld, spec)))


# sha256 prefixes of the sweeps of standard normal values (seed 41), as
# taken by the slice fold of max, min and sum before max and min became
# window extrema; elementwise ufuncs only, so the bits are platform-free
_SWEEP_PINS = {
    ("ball2", "tug_of_war"): "c55cb8d56740e941",
    ("ball2", "random_walk"): "7f189e172f40151c",
    ("ball2", "space_dependent"): "568f1054c94de4e1",
    ("ball3", "tug_of_war"): "ccf4b87993930d02",
    ("ball3", "random_walk"): "7118235c07180d5c",
    ("ball3", "space_dependent"): "211cfeab4e9e970a",
}


def test_sweeps_keep_their_pinned_bits():
    import hashlib

    from dpplab.operators import _grid_menu, _midrange

    for name in ("ball2", "ball3"):
        shape, h, eps = _SLICE_DOMAINS[name]
        dom = build_grid_domain(shape, h, eps)
        fld = ValueField(dom, np.random.default_rng(41).standard_normal(dom.n_points))
        for spec in (GameSpec.tug_of_war(eps), GameSpec.random_walk(eps),
                     GameSpec.space_dependent(eps, 0.3)):
            got = apply_operator(fld, spec).values
            assert hashlib.sha256(got.tobytes()).hexdigest()[:16] \
                == _SWEEP_PINS[name, spec.kind], (name, spec.kind)
        # the directional game: its menu times the table-gathered block
        spec = GameSpec.directional(eps, 0.5, direction_count=16)
        block = np.take(fld.values, dom.neighbor_table(eps).T)
        ref = fld.values.copy()
        ref[dom.interior_indices] = _midrange(
            _grid_menu(dom.ndim, dom.spacing, spec) @ block)
        assert np.array_equal(apply_operator(fld, spec).values, ref), name


# sha256 prefixes of (max, min, sum) down the stencil by runs of standard
# normal boxes (seed 41), taken by `_Layout.extrema` and `_Layout.sums`
# before one window builder replaced both
_RUN_FOLD_PINS = {
    "ball2": ("2eaeebec41bcc10a", "fb4d56792881b446", "e3cfa85d35bef387"),
    "ball3": ("8d8382679e964207", "9dc9d6944eca77f3", "a0d175a9763c541c"),
    "box2": ("44b6b4fbc7cffb83", "04f1808e55f5c6a7", "623e6b69342c6393"),
    "box3": ("24765b5405a13100", "f97edb9b63826558", "8faec9d08f745ac2"),
    "ring2": ("3f505eb262ecda51", "ffb9f9acac651234", "ceac49cfb05a553d"),
    "ring3": ("cb9c45a9573976e2", "6e40b257f7950322", "ba6f84e35a8bf767"),
}


@pytest.mark.parametrize("name", sorted(_SLICE_DOMAINS))
def test_run_folds_keep_their_pinned_bits(name):
    import hashlib

    shape, h, eps = _SLICE_DOMAINS[name]
    dom = build_grid_domain(shape, h, eps)
    layout = dom._layout(eps)
    box = layout.scatter(np.random.default_rng(41).standard_normal(dom.n_points))
    got = tuple(hashlib.sha256(layout.runs_fold(box, f).tobytes()).hexdigest()[:16]
                for f in (np.maximum, np.minimum, np.add))
    assert got == _RUN_FOLD_PINS[name]


def test_tug_sweep_never_forms_the_stencil_block():
    import tracemalloc

    eps = 0.05
    dom = build_grid_domain(Ball((0.0, 0.0), 1.0), eps / 3.0, eps)
    fld = field_from_function(dom, lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1])
    spec = GameSpec.tug_of_war(eps)
    apply_operator(fld, spec)          # builds the domain's cached plan
    block = len(dom.stencil(eps)) * dom.n_interior * 8
    tracemalloc.start()
    try:
        apply_operator(fld, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block, (peak, block)


def _menu_reference(dom, spec):
    """The directional menu built one direction and one node at a time."""
    n = dom.ndim
    offs = dom.stencil(spec.epsilon) * dom.spacing
    alpha = float(spec.alpha)

    def snap(p):
        return int(np.argmin(((offs - p) ** 2).sum(axis=1)))

    dirs = sphere_directions(n, spec.direction_count or default_direction_count(n))
    radii = move_radii(spec)
    menu = np.zeros((len(radii) * len(dirs), len(offs)))
    for d, e in enumerate(dirs):
        pts, wts = disk_rule(n, spec.epsilon, e, spec.disk_node_count,
                             spec.disk_angle_count)
        row = np.zeros(len(offs))
        for p, w in zip(pts, wts):
            row[snap(p)] += (1.0 - alpha) * w
        for j, r in enumerate(radii):
            menu[j * len(dirs) + d] = row
            menu[j * len(dirs) + d, snap(r * e)] += alpha
    return menu


@pytest.mark.parametrize("case", ["2d", "3d"])
def test_directional_menu_matches_per_direction_reference(case):
    from dpplab.operators import _grid_menu

    if case == "2d":
        dom = _domain()
        specs = [GameSpec.directional(0.2, 0.5, direction_count=16),
                 GameSpec.directional(0.2, 0.3)]
    else:
        dom = build_grid_domain(Ball(center=(0.0, 0.0, 0.0), radius=0.6),
                                0.4 / 3, 0.4)
        specs = [GameSpec.directional(0.4, 0.5)]
        assert len(dom.stencil(0.4)) == 123
    for spec in specs:
        assert np.array_equal(_grid_menu(dom.ndim, dom.spacing, spec),
                              _menu_reference(dom, spec))


def test_neighbor_table_writes_do_not_reach_sweeps():
    # the table is derived per call, and the cached menu is read-only, so a
    # caller writing into either cannot change the next sweep
    from dpplab.operators import _grid_menu

    dom = _domain()
    spec = GameSpec.directional(0.2, 0.5, direction_count=16)
    fld = field_from_function(dom, lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1])
    before = apply_operator(fld, spec).values
    dom.neighbor_table(0.2)[:] = 0
    assert np.array_equal(apply_operator(fld, spec).values, before)
    with pytest.raises(ValueError):
        _grid_menu(dom.ndim, dom.spacing, spec)[:] = 0


def test_move_set_built_once_per_key_and_read_only(monkeypatch):
    from dpplab import operators

    calls = []
    monkeypatch.setattr(operators, "sphere_directions",
                        lambda n, K: calls.append((n, K)) or sphere_directions(n, K))
    operators._move_set.cache_clear()
    operators._disk_template.cache_clear()
    try:
        for _ in range(3):
            for n, eps, K in ((2, 0.2, 16), (2, 0.1, 16), (3, 0.2, 8)):
                spec = GameSpec.directional(eps, 0.5, direction_count=K)
                moves = operators.move_set(n, eps, spec)
                assert moves is operators.move_set(
                    n, eps, GameSpec.directional(eps, 0.9, direction_count=K))
                dirs, jumps, disks, wts = moves
                assert dirs.shape == (K, n)
                assert jumps.shape == (len(move_radii(spec)) * K, n)
                assert disks.shape == (K, len(wts), n)
                for a in moves:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a.reshape(-1)[0] = 0.0
        # the last call is the n = 3 disk template's angle set, built once
        assert calls == [(2, 16), (2, 16), (3, 8), (2, 16)]
    finally:
        operators._move_set.cache_clear()


def test_directional_menu_shared_by_equal_spacings():
    from dpplab.operators import _grid_menu

    spec = GameSpec.directional(0.2, 0.5, direction_count=16)
    shape = Ball(center=(0.0, 0.0), radius=0.5)
    a, b = (build_grid_domain(shape, 0.05, 0.2) for _ in range(2))
    c = build_grid_domain(shape, 0.04, 0.2)
    assert a is not b
    menus = [_grid_menu(dom.ndim, dom.spacing, spec) for dom in (a, b, c)]
    assert menus[0] is menus[1]
    assert menus[2] is not menus[0]
    for dom, menu in zip((a, b, c), menus):
        assert np.array_equal(menu, _menu_reference(dom, spec))


def test_directional_menu_follows_its_domain():
    # Domains built and dropped in turn can reuse a dead domain's id(); a
    # table cache keyed by id() then hands a new domain another spacing's
    # snap tables, and an affine field (an exact fixed point) moves.
    from dpplab import operators

    shape = Ball(center=(0.0, 0.0), radius=0.3)
    spec = GameSpec.directional(0.2, 0.5, direction_count=16)
    for trial in range(120):
        h = (0.05, 0.04, 0.025)[trial % 3]
        dom = build_grid_domain(shape, h, 0.2)
        fld = field_from_function(dom, lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1])
        out = apply_operator(fld, spec)
        err = np.abs(out.values - fld.values)[dom.interior_indices].max()
        assert err <= 1e-12, (trial, h, err)
        del dom, fld, out
    caches = [name for name, v in vars(operators).items()
              if not name.startswith("__") and isinstance(v, (dict, list, set))]
    assert caches == []


def test_directional_sweep_multiplies_distinct_menu_rows():
    # grid_solve's directional menu (p = 4, eps 0.2, h 0.05): 152 of its 256
    # rows are distinct, kept once each in first-occurrence order, cached
    # by value and read-only
    from dpplab.operators import _distinct_rows, _grid_menu

    dom = build_grid_domain(Ball((0.0, 0.0), 1.0), 0.05, 0.2)
    spec = GameSpec.directional(0.2, alpha_beta_from_p(4, 2)[0])
    menu = _grid_menu(dom.ndim, dom.spacing, spec)
    rows = _distinct_rows(dom.ndim, dom.spacing, spec)
    assert menu.shape == (256, 49) and rows.shape == (152, 49)
    first = [i for i in range(len(menu))
             if not any(np.array_equal(menu[i], menu[j]) for j in range(i))]
    assert np.array_equal(rows, menu[first])
    assert rows is _distinct_rows(2, 0.05, GameSpec.directional(0.2, 1.0 / 3.0))
    assert not rows.flags.writeable


def test_sweep_box_takes_what_stays_fixed_between_sweeps():
    # a block gather index and alpha read once give the bits each sweep
    # derives on its own
    from dpplab.operators import sweep_box

    dom = _domain()
    layout = dom._layout(0.2)
    fld = ValueField(dom, np.random.default_rng(5).standard_normal(dom.n_points))
    box = layout.scatter(fld.values)
    index = layout.block_index()
    assert np.array_equal(box.take(index), layout.gather(box))
    spec = GameSpec.directional(0.2, 0.5, direction_count=16)
    assert np.array_equal(sweep_box(box, dom, spec, index=index),
                          sweep_box(box, dom, spec))
    spec = GameSpec.space_dependent(0.2, lambda p: 0.5 + 0.5 * np.tanh(p[:, 0]))
    alpha = spec.alpha_at(dom.interior_points)
    assert np.array_equal(sweep_box(box, dom, spec, alpha=alpha),
                          apply_operator(fld, spec).interior_values)
