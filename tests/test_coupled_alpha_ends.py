"""Coupled play at the ends of alpha: the mixed game at alpha = 0 is the
random walk and at alpha = 1 is tug-of-war, bit for bit.

A game has players iff alpha is not identically 0, so the mixed game at 0
ignores strategies and draws no game coin, like the walk. A ball game at
alpha 1 always moves a player, so it has no noise step: noise draws,
drift and noise-only coupled steps refuse it whichever kind names it.
"""

import numpy as np
import pytest

from dpplab.comparison import CoupledPoint
from dpplab.couplings import CouplingMap
from dpplab.operators import GameSpec
from dpplab.rng import substream
from dpplab.simulate import (MirrorOf, PullAway, PullToward, coupled_drift,
                             coupled_step, sample_coupled_noise)

PAIR = CoupledPoint(x=(0.1, 0.0), z=(0.3, 0.1))
DIAG = CoupledPoint(x=(0.1, 0.0), z=(0.1, 0.0))
MIRROR = CouplingMap.mirror(PAIR.x, PAIR.z)
PLAYERS = PullToward((0.6, 0.3)), PullAway((0.3, -0.2))


def _steps(pair, spec, sI=None, sII=None):
    """Eight coupled steps from pair, one per seed substream(139, s)."""
    return [coupled_step(MIRROR, pair, spec, substream(139, s), sI, sII)
            for s in range(8)]


@pytest.mark.parametrize("pair", [PAIR, DIAG], ids=["apart", "diagonal"])
@pytest.mark.parametrize("players", [PLAYERS, (PLAYERS[0], None)],
                         ids=["both", "lone"])
def test_mixed_coupled_step_at_alpha_0_is_the_walk(pair, players):
    walk = GameSpec.random_walk(0.2)
    mixed = GameSpec.space_dependent(0.2, 0.0)
    assert _steps(pair, mixed, *players) == _steps(pair, walk)


@pytest.mark.parametrize("replay", [False, True], ids=["plain", "mirror-of"])
def test_tug_coupled_step_is_mixed_alpha_1(replay):
    tug = GameSpec.tug_of_war(0.2)
    mixed = GameSpec.space_dependent(0.2, 1.0)
    sI, sII = (MirrorOf(s) for s in PLAYERS) if replay else PLAYERS
    assert _steps(PAIR, tug, sI, sII) == _steps(PAIR, mixed, sI, sII)


def _noise(spec):
    return sample_coupled_noise(MIRROR, PAIR, spec, 4, 1)


def _drift(spec):
    return coupled_drift(lambda X, Z: X[:, 0], MIRROR, PAIR, spec, 4, 1)


def _noise_step(spec):
    return coupled_step(MIRROR, PAIR, spec, substream(1))


@pytest.mark.parametrize("spec", [GameSpec.tug_of_war(0.2),
                                  GameSpec.space_dependent(0.2, 1.0)],
                         ids=["tug", "mixed-1"])
@pytest.mark.parametrize("call", [_noise, _drift, _noise_step],
                         ids=["noise", "drift", "noise-step"])
def test_a_ball_game_at_alpha_1_has_no_noise_step(spec, call):
    with pytest.raises(ValueError, match="at alpha 1 has no noise step"):
        call(spec)


def test_a_ball_game_below_alpha_1_keeps_its_noise_step():
    X, Z = _noise(GameSpec.space_dependent(0.2, 0.999))
    assert np.array_equal(X, _noise(GameSpec.random_walk(0.2))[0])
    assert X.shape == Z.shape == (4, 2)
