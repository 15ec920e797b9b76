"""Every input check of the library, one case each: the exception type and
its message.

The command line's own checks (a bad boolean, an unread key, a bad
game.alpha) are in test_cli.py.
"""

import re

import numpy as np
import pytest

from dpplab.certifier import (BallMC, GridSearch, certify_region,
                              intersection_volume, margin_II,
                              small_ball_escapes)
from dpplab.comparison import ComparisonParams, CoupledPoint, default_params
from dpplab.core import (Ball, ValueField, ball_second_moment,
                         build_grid_domain, disk_second_moment,
                         field_from_function, orthonormal_complement)
from dpplab.couplings import CouplingMap, clamp_projection
from dpplab.operators import GameSpec
from dpplab.simulate import (GreedyOnField, Strategy, coupled_drift,
                             play_episodes, run_episode)
from dpplab.solver import solve_dpp

DISK = Ball((0.0, 0.0), 0.5)
PAIR = CoupledPoint(x=(0.0, 0.0), z=(0.1, 0.0))
STRICT = dict(n=2, delta=1.0 / 40.0, epsilon=1e-3, mode="strict")
OMEGA = 0.01
C_STRICT = 1e10 / (STRICT["delta"] ** 2 * OMEGA)


def _domain():
    return build_grid_domain(DISK, 0.1, 0.4)


def _x(P):
    return P[:, 0]


class _LongJump(Strategy):
    """A directional player whose jump is twice the step size."""

    def propose(self, X, spec):
        return np.full_like(X, 2.0 * spec.epsilon)


def _params(**kw):
    return ComparisonParams(**{"n": 2, "delta": 0.2, "C": 250.0, "N": 40,
                               "epsilon": 0.05, **kw})


CASES = [
    # certifier
    ("grid-search-nodes", lambda: GridSearch(2), ValueError,
     "need at least 3 nodes per axis"),
    ("ball-mc-samples", lambda: BallMC(1), ValueError,
     "need at least 2 samples"),
    ("margin-of-a-number",
     lambda: margin_II(1.0, (0.0, 0.0), (0.1, 0.0), 0.2, BallMC(4)),
     TypeError, "g must be callable or a ComparisonParams"),
    ("lens-negative-distance", lambda: intersection_volume(2, 0.1, -1.0),
     ValueError, "need t >= 0 and epsilon > 0"),
    ("lens-in-4d", lambda: intersection_volume(4, 0.1, 0.05), ValueError,
     "closed form implemented for n in {2, 3}"),
    ("escapes-on-the-diagonal",
     lambda: small_ball_escapes((0.0, 0.0), (0.0, 0.0), 0.1, 10, 1),
     ValueError, "x and z must differ"),
    ("certify-no-samples",
     lambda: certify_region(default_params(2), n_samples=0), ValueError,
     "n_samples must be >= 1"),
    # comparison
    ("params-n", lambda: _params(n=0), ValueError, "n must be >= 1"),
    ("params-epsilon", lambda: _params(epsilon=0.0), ValueError,
     "epsilon must be positive"),
    ("params-mode", lambda: _params(mode="loose"), ValueError,
     "mode must be 'strict' or 'desk'"),
    ("strict-delta", lambda: _params(mode="strict"), ValueError,
     "strict mode pins delta = 1/(10(n+2))"),
    ("strict-omega", lambda: ComparisonParams(C=2.0, N=1, **STRICT),
     ValueError, "strict mode needs omega"),
    ("strict-C",
     lambda: ComparisonParams(C=2.0, N=1, omega=OMEGA, **STRICT),
     ValueError, "strict mode pins C = 1e10/(delta^2*omega)"),
    ("strict-N",
     lambda: ComparisonParams(C=C_STRICT, N=1, omega=OMEGA, **STRICT),
     ValueError, "strict mode needs N >= 100*C/delta"),
    ("default-params-n", lambda: default_params(1), ValueError,
     "n must be >= 2"),
    ("default-params-mode", lambda: default_params(2, "loose"), ValueError,
     "mode must be 'strict' or 'desk'"),
    ("pair-dimensions", lambda: CoupledPoint(x=(0.0, 0.0), z=(0.0, 0.0, 1.0)),
     ValueError, "x and z must share a dimension"),
    # core
    ("point-dimension", lambda: _domain().point_index((0.0, 0.0, 0.0)),
     ValueError, "expected a point of dimension 2, got shape (3,)"),
    ("ball-radius", lambda: Ball((0.0, 0.0), 0.0), ValueError,
     "radius must be positive"),
    ("domain-spacing", lambda: build_grid_domain(DISK, 0.0, 0.3), ValueError,
     "spacing and epsilon must be positive"),
    ("field-length", lambda: ValueField(_domain(), np.zeros(3)), ValueError,
     "values length must equal the domain point count"),
    ("field-point-dimension",
     lambda: field_from_function(_domain(), _x).evaluate(np.zeros((1, 3))),
     ValueError, "expected points of dimension 2"),
    ("ball-moment", lambda: ball_second_moment(0, 1.0), ValueError,
     "need n >= 1 and epsilon > 0"),
    ("disk-moment", lambda: disk_second_moment(1, 1.0), ValueError,
     "need n >= 2 and epsilon > 0"),
    ("complement-of-zero", lambda: orthonormal_complement(np.zeros(2)),
     ValueError, "zero vector has no normal hyperplane"),
    # couplings
    ("clamp-epsilon",
     lambda: clamp_projection((0.0, 0.0), 0.0, (0.1, 0.0)), ValueError,
     "epsilon must be positive"),
    # operators
    ("game-kind", lambda: GameSpec("chess", 0.1), ValueError,
     "unknown game kind 'chess'"),
    # simulate
    ("strategy-propose",
     lambda: Strategy().propose(np.zeros((1, 2)), GameSpec.random_walk(0.1)),
     NotImplementedError, None),
    ("strategy-pick",
     lambda: Strategy().pick(np.zeros((1, 2)), None, None),
     NotImplementedError, None),
    ("greedy-off-the-grid",
     lambda: GreedyOnField(field_from_function(_domain(), _x)).propose(
         np.zeros((1, 2)), GameSpec.tug_of_war(0.4)),
     ValueError, "GreedyOnField strategies require a grid domain"),
    ("long-jump",
     lambda: run_episode(GameSpec.directional(0.1, 0.5), _LongJump(),
                         _LongJump(), (0.0, 0.0), DISK, _x, 1),
     ValueError, "strategy returned an illegal jump vector"),
    ("field-payoff-off-the-grid",
     lambda: run_episode(GameSpec.random_walk(0.4), None, None, (0.0, 0.0),
                         DISK, field_from_function(_domain(), _x), 1),
     ValueError, "a ValueField payoff needs a grid domain"),
    ("no-steps",
     lambda: run_episode(GameSpec.random_walk(0.1), None, None, (0.0, 0.0),
                         DISK, _x, 1, max_steps=0),
     ValueError, "max_steps must be >= 1"),
    ("one-episode",
     lambda: play_episodes(GameSpec.random_walk(0.1), None, None, (0.0, 0.0),
                           DISK, _x, 1, 1),
     ValueError, "episodes must be >= 2"),
    ("drift-samples",
     lambda: coupled_drift(lambda X, Z: X[:, 0], CouplingMap.mirror(
         PAIR.x, PAIR.z), PAIR, GameSpec.random_walk(0.1), 1, 1),
     ValueError, "n_samples must be >= 2"),
    ("drift-on-the-diagonal",
     lambda: coupled_drift(lambda X, Z: X[:, 0], CouplingMap.mirror(
         PAIR.x, PAIR.z), CoupledPoint(x=PAIR.x, z=PAIR.x),
         GameSpec.random_walk(0.1), 4, 1),
     ValueError, "pair must be off the diagonal"),
    # solver
    ("solve-tol", lambda: solve_dpp(_domain(), _x, GameSpec.random_walk(0.4),
                                    tol=-1.0),
     ValueError, "tol must be positive"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_input_check(call, error, message):
    with pytest.raises(error, match=message and re.escape(message)):
        call()

