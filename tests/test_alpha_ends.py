"""Tug-of-war and the random walk are the mixed game at alpha = 1 and 0.

The space-dependent game with a constant alpha of 1 or 0 must reproduce
the pure game bit for bit: its sweep, its pointwise step, its solve (the
same mixer, evaluation count and residual history) and its play.
"""

import numpy as np
import pytest

from dpplab.core import Ball, build_grid_domain, field_from_function
from dpplab.operators import GameSpec, apply_at, apply_operator
from dpplab.simulate import PullAway, PullToward, play_episodes
from dpplab.solver import solve_dpp

E = np.array([0.6, 0.8])


def _data(p):
    return np.abs(p @ E)


def _ends(eps):
    return ((GameSpec.tug_of_war(eps), GameSpec.space_dependent(eps, 1.0)),
            (GameSpec.random_walk(eps), GameSpec.space_dependent(eps, 0.0)))


@pytest.fixture(scope="module")
def disk():
    """grid_solve's disk: the unit disk at eps 0.05, h = eps/3."""
    return build_grid_domain(Ball((0.0, 0.0), 1.0), 0.05 / 3.0, 0.05)


@pytest.mark.parametrize("end", [0, 1], ids=["tug", "walk"])
def test_mixed_sweep_and_step_at_the_ends_are_the_pure_games(disk, end):
    pure, mixed = _ends(0.05)[end]
    fld = field_from_function(disk, lambda p: np.sin(3 * p[:, 0]) + _data(p))
    assert np.array_equal(apply_operator(fld, mixed).values,
                          apply_operator(fld, pure).values)
    u = lambda P: np.sin(3 * P[:, 0]) + P[:, 1] ** 2
    for x in ((0.0, 0.0), (0.3, -0.2), (-0.55, 0.41)):
        assert apply_at(u, x, mixed) == apply_at(u, x, pure)


@pytest.mark.parametrize("end", [0, 1], ids=["tug", "walk"])
def test_mixed_solve_at_the_ends_is_the_pure_solve(disk, end):
    pure, mixed = _ends(0.05)[end]
    want, wd = solve_dpp(disk, _data, pure, tol=1e-6)
    got, gd = solve_dpp(disk, _data, mixed, tol=1e-6)
    assert wd.converged
    assert np.array_equal(got.values, want.values)
    assert gd.residual_history == wd.residual_history
    assert vars(gd) == vars(wd)


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "continuum"])
@pytest.mark.parametrize("end", [0, 1], ids=["tug", "walk"])
def test_mixed_play_at_the_ends_is_the_pure_play(end, grid):
    pure, mixed = _ends(0.1)[end]
    shape = Ball((0.0, 0.0), 0.5)
    where = build_grid_domain(shape, 0.1 / 3.0, 0.1) if grid else shape
    players = PullToward((0.6, 0.3)), PullAway((0.3, -0.2))
    x0 = (0.1, 0.0)
    want = play_episodes(pure, *(players if end == 0 else (None, None)), x0,
                         where, _data, episodes=40, seed=23)
    got = play_episodes(mixed, *players, x0, where, _data, episodes=40,
                        seed=23)
    for name in ("payoffs", "exit_points", "steps", "truncated"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
