"""GameSpec's alpha, the p-weights of the games, and a callable alpha's shape."""

import math

import numpy as np
import pytest

from dpplab.core import Ball, Mask, build_grid_domain, field_from_function
from dpplab.operators import (GameSpec, alpha_beta_from_p, apply_at,
                              apply_operator, directional_alpha_beta_from_p)
from dpplab.simulate import PullAway, PullToward, play_episodes
from dpplab.solver import solve_dpp


# -- alpha in GameSpec ---------------------------------------------------------


def test_pure_games_hold_their_alpha():
    assert GameSpec.tug_of_war(0.2).alpha == 1.0
    assert GameSpec.random_walk(0.2).alpha == 0.0
    assert GameSpec("tug_of_war", 0.2, 1) == GameSpec.tug_of_war(0.2)
    assert GameSpec("random_walk", 0.2, 0.0) == GameSpec.random_walk(0.2)
    assert GameSpec.tug_of_war(0.2).alpha_at(np.zeros((3, 2))).tolist() == [1.0] * 3


@pytest.mark.parametrize("kind, alpha", [
    ("tug_of_war", 0.3), ("random_walk", 0.9), ("tug_of_war", math.nan),
    ("random_walk", lambda p: np.zeros(len(p)))])
def test_pure_games_reject_another_alpha(kind, alpha):
    with pytest.raises(ValueError, match=kind):
        GameSpec(kind, 0.2, alpha)


def test_constant_alpha_is_stored_as_a_float():
    for spec in (GameSpec.space_dependent(0.2, np.float32(0.5)),
                 GameSpec.space_dependent(0.2, 1),
                 GameSpec.directional(0.2, np.float64(0.25))):
        assert type(spec.alpha) is float


def test_missing_or_callable_alpha_is_named():
    with pytest.raises(ValueError, match="space_dependent needs alpha"):
        GameSpec("space_dependent", 0.2)
    with pytest.raises(ValueError, match="directional needs alpha"):
        GameSpec("directional", 0.2)
    with pytest.raises(ValueError, match="directional needs a constant alpha"):
        GameSpec.directional(0.2, lambda p: np.full(len(p), 0.5))


# -- p-weights ---------------------------------------------------------------


def test_directional_weights_p4_n2():
    assert directional_alpha_beta_from_p(4.0, 2) == (0.5, 0.5)


def test_directional_weights_p_inf_is_pure_jump():
    assert directional_alpha_beta_from_p(math.inf, 2) == (1.0, 0.0)


def test_directional_weights_sum_to_one():
    for p in (1.5, 2.0, 3.0, 7.5, 40.0):
        for n in (1, 2, 3, 6):
            a, b = directional_alpha_beta_from_p(p, n)
            assert math.isclose(a, (p - 1) / (p + n))
            assert math.isclose(a + b, 1.0) and 0.0 < a <= 1.0


@pytest.mark.parametrize("p, n", [(1.0, 2), (0.5, 2), (-math.inf, 2),
                                  (math.nan, 2), (4.0, 0)])
def test_directional_weights_reject_p_at_most_1_and_n_below_1(p, n):
    with pytest.raises(ValueError):
        directional_alpha_beta_from_p(p, n)


@pytest.mark.parametrize("p", [-math.inf, math.nan])
def test_mixed_weights_reject_nan_and_minus_inf(p):
    with pytest.raises(ValueError):
        alpha_beta_from_p(p, 2)


def test_directional_weights_cut_the_annulus_error():
    # |x|^((p-n)/(p-1)) is p-harmonic on the annulus 0.3 < |x| < 1. At the
    # directional game's own weights (alpha 1/2 for p = 4 in 2D) the sup
    # error is 1.3e-2, against 5.5e-2 at the mixed game's (alpha 1/3).
    def inside(P):
        r = np.sqrt(np.einsum("ij,ij->i", P, P))
        return (r > 0.3) & (r < 1.0)

    def exact(P):
        return np.sqrt(np.einsum("ij,ij->i", P, P)) ** ((4.0 - 2.0) / (4.0 - 1.0))

    eps = 0.2
    dom = build_grid_domain(Mask(inside, (-1.0, -1.0), (1.0, 1.0)), eps / 3, eps)
    errors = []
    for weights in (alpha_beta_from_p, directional_alpha_beta_from_p):
        spec = GameSpec.directional(eps, weights(4.0, 2)[0])
        fld, diag = solve_dpp(dom, exact, spec, tol=1e-9)
        assert diag.converged
        errors.append(np.abs(fld.interior_values
                             - exact(dom.interior_points)).max())
    assert errors[1] < 0.5 * errors[0], errors


# -- a callable alpha's shape ----------------------------------------------------


def _small():
    """385 interior points: a wrong shape is caught before any (m, m) array."""
    dom = build_grid_domain(Ball((0.0, 0.0), 1.0), 0.09, 0.3)
    assert dom.n_interior == 385
    return dom


def test_column_alpha_is_refused_with_both_shapes():
    dom = _small()
    spec = GameSpec.space_dependent(0.3, lambda p: np.full((len(p), 1), 0.5))
    fld = field_from_function(dom, lambda p: p[:, 0])
    with pytest.raises(ValueError, match=r"alpha .*\(385,\).*\(385, 1\)"):
        apply_operator(fld, spec)
    with pytest.raises(ValueError, match="alpha"):
        solve_dpp(dom, lambda p: p[:, 0], spec)
    with pytest.raises(ValueError, match="alpha"):
        play_episodes(spec, PullToward((1.0, 0.0)), PullAway((0.0, 0.0)),
                      (0.0, 0.0), dom, lambda p: p[:, 0], episodes=2, seed=1)


def test_scalar_alpha_is_refused_everywhere_it_is_read():
    dom = _small()
    spec = GameSpec.space_dependent(0.3, lambda p: 0.5)
    with pytest.raises(ValueError, match=r"alpha .*\(1,\).*\(\)"):
        apply_at(lambda P: P[:, 0], (0.0, 0.0), spec)
    with pytest.raises(ValueError, match=r"alpha .*\(385,\).*\(\)"):
        solve_dpp(dom, lambda p: p[:, 0], spec)
    with pytest.raises(ValueError, match="alpha"):
        play_episodes(spec, PullToward((1.0, 0.0)), PullAway((0.0, 0.0)),
                      (0.0, 0.0), Ball((0.0, 0.0), 1.0), lambda p: p[:, 0],
                      episodes=2, seed=1)
