"""Episode play, value estimation, and the coupled two-token dynamics."""

import math

import numpy as np
import pytest
from scipy import stats

from dpplab.certifier import BallMC, margin_II
from dpplab.comparison import CoupledPoint, eval_f1
from dpplab.core import Ball, Box, build_grid_domain, field_from_function
from dpplab.couplings import CouplingMap, mirror_map
from dpplab.operators import GameSpec
from dpplab.rng import substream
from dpplab.simulate import (
    _BLOCK,
    GreedyOnField,
    MirrorOf,
    PullAway,
    PullToward,
    Stationary,
    Strategy,
    coupled_drift,
    coupled_step,
    estimate_value,
    play_episodes,
    run_episode,
    sample_coupled_noise,
)
from dpplab.solver import solve_dpp


# -- single episodes -----------------------------------------------------------


def test_gamblers_ruin_exit_probability():
    # tug of war on the strip 0 < y1 < 1 with both players pushing along y1:
    # the token does a fair +-eps walk, so P(exit right | start 0.3) = 0.3
    strip = Box(lo=(0.0, -50.0), hi=(1.0, 50.0))
    spec = GameSpec.tug_of_war(0.1)
    right = PullToward((10.0, 0.0))
    left = PullToward((-10.0, 0.0))
    payoff = lambda p: (p[:, 0] >= 1.0 - 1e-9).astype(float)
    mean, half, rate = estimate_value(
        spec, right, left, (0.3, 0.0), strip, payoff, episodes=4000, seed=7
    )
    assert rate == 0.0
    assert abs(mean - 0.3) <= max(3 * math.sqrt(0.3 * 0.7 / 4000), half)


def test_start_outside_pays_immediately():
    spec = GameSpec.random_walk(0.1)
    out = run_episode(
        spec, None, None, (5.0, 0.0), Ball(center=(0.0, 0.0), radius=1.0),
        lambda p: p[:, 0], seed=1
    )
    assert out.steps == 0
    assert not out.truncated
    assert out.payoff == 5.0


def test_random_walk_ignores_strategies():
    # pure-noise game: strategy objects are never consulted
    spec = GameSpec.random_walk(0.2)
    out = run_episode(
        spec, None, None, (0.0, 0.0), Ball(center=(0.0, 0.0), radius=1.0),
        lambda p: np.ones(len(p)), seed=3
    )
    assert out.payoff == 1.0 and out.steps > 0


def test_game_with_players_needs_both_strategies():
    disk = Ball(center=(0.0, 0.0), radius=1.0)
    for spec in (GameSpec.tug_of_war(0.2), GameSpec.space_dependent(0.2, 0.5),
                 GameSpec.directional(0.2, 0.5)):
        for sI, sII in ((PullToward((1.0, 0.0)), None),
                        (None, PullAway((0.0, 0.0))), (None, None)):
            with pytest.raises(ValueError, match="strategies"):
                estimate_value(spec, sI, sII, (0.0, 0.0), disk,
                               lambda p: p[:, 0], episodes=4, seed=3)


def test_out_of_ball_move_rejected():
    class Cheater(Strategy):
        def propose(self, x, spec):
            return np.asarray(x) + [2 * spec.epsilon, 0.0]

    spec = GameSpec.tug_of_war(0.1)
    with pytest.raises(ValueError, match="out-of-ball"):
        run_episode(
            spec, Cheater(), Cheater(), (0.0, 0.0),
            Ball(center=(0.0, 0.0), radius=1.0), lambda p: p[:, 0], seed=5
        )


def test_stationary_rejected_in_directional_play():
    spec = GameSpec.directional(0.1, 0.5)
    with pytest.raises(ValueError, match="no zero move"):
        run_episode(
            spec, Stationary(), Stationary(), (0.0, 0.0),
            Ball(center=(0.0, 0.0), radius=1.0), lambda p: p[:, 0], seed=5
        )


def test_mirror_of_requires_coupled_play():
    spec = GameSpec.tug_of_war(0.1)
    with pytest.raises(ValueError, match="coupled"):
        run_episode(
            spec, MirrorOf(Stationary()), Stationary(), (0.0, 0.0),
            Ball(center=(0.0, 0.0), radius=1.0), lambda p: p[:, 0], seed=5
        )


def test_directional_needs_continuum_domain():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    spec = GameSpec.directional(0.2, 0.5)
    with pytest.raises(ValueError, match="continuum"):
        run_episode(
            spec, PullToward((2.0, 0.0)), PullAway((0.0, 0.0)), (0.0, 0.0),
            dom, lambda p: p[:, 0], seed=5
        )


def test_single_step_marginal_law():
    # first coordinate of one ball-noise step: density proportional to
    # (1 - t^2)^((n-1)/2) on [-1, 1] after scaling by eps
    spec = GameSpec.random_walk(1.0)
    big = Ball(center=(0.0, 0.0), radius=100.0)
    xs = []
    for k in range(5000):
        out = run_episode(spec, None, None, (0.0, 0.0), big,
                          lambda p: p[:, 0], seed=substream(11, k), max_steps=1)
        assert out.truncated
        xs.append(out.exit_point[0])
    cdf = lambda t: 0.5 + (t * np.sqrt(1 - t**2) + np.arcsin(t)) / np.pi
    assert stats.kstest(np.asarray(xs), cdf).pvalue > 1e-4


def test_truncation_reported_honestly():
    spec = GameSpec.random_walk(0.01)
    big = Ball(center=(0.0, 0.0), radius=10.0)
    mean, half, rate = estimate_value(
        spec, None, None, (0.0, 0.0), big, lambda p: p[:, 0],
        episodes=10, seed=13, max_steps=5
    )
    assert rate == 1.0
    assert math.isnan(mean)


def test_episode_log_csv(tmp_path):
    path = tmp_path / "episode.csv"
    spec = GameSpec.tug_of_war(0.1)
    out = run_episode(
        spec, PullToward((10.0, 0.0)), PullToward((-10.0, 0.0)), (0.5, 0.0),
        Box(lo=(0.0, -5.0), hi=(1.0, 5.0)), lambda p: p[:, 0], seed=17,
        log=str(path)
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,mover,branch,x1,x2"
    assert len(lines) == out.steps + 2  # header + start row + one per step


def test_payoff_must_be_vectorized():
    # exit points reach the payoff as one (m, n) batch; a payoff that
    # collapses the batch, or keeps a column axis, is rejected
    spec = GameSpec.random_walk(0.2)
    disk = Ball(center=(0.0, 0.0), radius=0.5)
    with pytest.raises(ValueError, match="vectorized"):
        estimate_value(spec, None, None, (0.0, 0.0), disk,
                       lambda p: float(p[:, 0].sum()), episodes=10, seed=1)
    with pytest.raises(ValueError, match="vectorized"):
        run_episode(spec, None, None, (0.0, 0.0), disk, lambda p: p[:, :1],
                    seed=1)


# -- lockstep batches ---------------------------------------------------------


def _batch_modes():
    disk = Ball(center=(0.0, 0.0), radius=0.5)
    F = lambda p: p[:, 0] ** 2 - 0.3 * p[:, 1]
    alpha = lambda p: 0.25 + 0.5 * p[:, 0] ** 2
    dom = build_grid_domain(disk, 0.025, 0.1)
    sd = GameSpec.space_dependent(0.1, alpha)
    fld, _ = solve_dpp(dom, F, sd)
    # short steps and opposed pulls make long episodes, which cross blocks
    pulls = PullToward((2.0, 0.0)), PullToward((-2.0, 0.0))
    start = (0.1, 0.05)
    return {
        "grid_greedy": (sd, GreedyOnField(fld, True), GreedyOnField(fld, False),
                        (0.1, 0.0), dom, fld),
        "grid_random_walk": (GameSpec.random_walk(0.1), None, None,
                             (0.1, 0.0), dom, F),
        "tug_of_war": (GameSpec.tug_of_war(0.05), *pulls, start, disk, F),
        "space_dependent": (GameSpec.space_dependent(0.05, alpha), *pulls,
                            start, disk, F),
        "directional": (GameSpec.directional(0.05, 0.6), *pulls, start, disk,
                        F),
        "random_walk": (GameSpec.random_walk(0.1), None, None, start, disk, F),
    }


def test_batch_is_a_loop_of_single_episodes():
    # every episode draws its own substream in fixed blocks, so playing all
    # of them in lockstep gives exactly the one-episode runs, truncated
    # episodes included
    seed, episodes, max_steps = 3, 24, 150
    truncated = 0
    for mode, args in _batch_modes().items():
        batch = play_episodes(*args, episodes, seed, max_steps)
        outs = [run_episode(*args, substream(seed, k), max_steps=max_steps)
                for k in range(episodes)]
        assert batch.payoffs.tolist() == [o.payoff for o in outs], mode
        assert batch.steps.tolist() == [o.steps for o in outs], mode
        assert batch.truncated.tolist() == [o.truncated for o in outs], mode
        assert np.array_equal(batch.exit_points,
                              np.stack([o.exit_point for o in outs])), mode
        assert batch.steps.max() > _BLOCK, mode   # draws were refilled
        done = [o.payoff for o in outs if not o.truncated]
        assert estimate_value(*args, episodes, seed, max_steps) == (
            float(np.mean(done)),
            float(1.96 * np.std(done, ddof=1) / math.sqrt(len(done))),
            (episodes - len(done)) / episodes), mode
        truncated += int(batch.truncated.sum())
    assert truncated > 0


# -- grid play as a martingale check -----------------------------------------


def test_grid_random_walk_matches_solver():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    spec = GameSpec.random_walk(0.2)
    fld, _ = solve_dpp(dom, lambda p: p[:, 0], spec)
    # grid episodes step uniformly on the same stencil the solver averages
    # over, so the solved field is an exact martingale along episodes
    mean, half, rate = estimate_value(
        spec, None, None, (0.5, 0.0), dom, fld, episodes=3000, seed=19
    )
    assert rate == 0.0
    truth = fld.values[dom.point_index((0.5, 0.0))]
    assert abs(mean - truth) <= max(3 * half / 1.96 * 1.96, 1e-3), (mean, truth)


def test_grid_tug_with_greedy_strategies_matches_solver():
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    spec = GameSpec.tug_of_war(0.2)
    fld, _ = solve_dpp(dom, lambda p: p[:, 0] ** 2 - 0.3 * p[:, 1], spec)
    sI = GreedyOnField(fld, maximize=True)
    sII = GreedyOnField(fld, maximize=False)
    mean, half, rate = estimate_value(
        spec, sI, sII, (0.25, -0.25), dom, fld, episodes=2500, seed=23
    )
    assert rate == 0.0
    truth = fld.values[dom.point_index((0.25, -0.25))]
    assert abs(mean - truth) <= max(3 * half / 1.96 * 1.96, 2e-3), (mean, truth)


def test_grid_play_rejects_fields_of_another_domain():
    # another lattice's field indexed by this lattice's rows would be read
    # at the wrong points without any error
    shape = Ball(center=(0.0, 0.0), radius=0.5)
    dom, other = (build_grid_domain(shape, h, 0.2) for h in (0.05, 0.04))
    spec = GameSpec.tug_of_war(0.2)
    F = lambda p: p[:, 0] ** 2 - 0.3 * p[:, 1]
    fld, _ = solve_dpp(dom, F, spec)
    greedy = GreedyOnField(fld, True), GreedyOnField(fld, False)
    foreign = field_from_function(other, F)
    for play_on in (dom, other):
        with pytest.raises(ValueError, match="play domain"):
            run_episode(spec, *greedy, (0.2, 0.0), play_on, foreign, seed=1)


# -- coupled dynamics ----------------------------------------------------------


def test_coupled_step_mirror_separation_law():
    # mirrored ball step: new separation is |t + 2 h.V| with V = (x-z)/t
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    spec = GameSpec.random_walk(0.2)
    cm = CouplingMap.mirror(pair.x, pair.z)
    X, Z = sample_coupled_noise(cm, pair, spec, 5000, seed=29)
    H = X - np.asarray(pair.x)
    hv = H @ np.array([-1.0, 0.0])  # V = (x - z)/t
    new_t = np.linalg.norm(X - Z, axis=1)
    assert np.allclose(new_t, np.abs(0.5 + 2 * hv), atol=1e-12)


def test_coupled_step_mirror_perp_component_shared():
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    spec = GameSpec.random_walk(0.2)
    cm = CouplingMap.mirror(pair.x, pair.z)
    X, Z = sample_coupled_noise(cm, pair, spec, 2000, seed=31)
    # perpendicular displacement (second axis) is identical for both tokens
    assert np.allclose(X[:, 1] - 0.0, Z[:, 1] - 0.0, atol=1e-12)


def test_coupled_step_diagonal_moves_together():
    pair = CoupledPoint(x=(0.2, 0.1), z=(0.2, 0.1))
    spec = GameSpec.random_walk(0.3)
    cm = CouplingMap.mirror(pair.x, pair.z)
    nxt = coupled_step(cm, pair, spec, substream(37))
    assert np.allclose(nxt.x, nxt.z)


def test_coupled_rotation_noise_stays_in_disks():
    pair = CoupledPoint(x=(0.0, 0.0, 0.0), z=(0.6, 0.0, 0.0))
    nu_x = np.array([0.0, 0.2, 0.0])
    nu_z = np.array([0.0, 0.0, 0.2])
    cm = CouplingMap.rotation(nu_x, nu_z)
    spec = GameSpec.directional(0.2, 0.5)
    X, Z = sample_coupled_noise(cm, pair, spec, 3000, seed=41)
    HX = X - np.asarray(pair.x)
    HZ = Z - np.asarray(pair.z)
    assert np.max(np.abs(HX @ nu_x)) < 1e-13
    assert np.max(np.abs(HZ @ nu_z)) < 1e-13
    assert np.all(np.linalg.norm(HX, axis=1) <= 0.2)
    # rotation is an isometry: both tokens scatter by the same length
    assert np.allclose(np.linalg.norm(HX, axis=1), np.linalg.norm(HZ, axis=1),
                       atol=1e-13)


def test_coupling_game_compatibility_enforced():
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    with pytest.raises(ValueError):
        coupled_step(CouplingMap.mirror(pair.x, pair.z),
                     pair, GameSpec.directional(0.2, 0.5), substream(1))
    with pytest.raises(ValueError):
        coupled_step(CouplingMap.rotation((1.0, 0.0), (0.0, 1.0)),
                     pair, GameSpec.random_walk(0.2), substream(1))


def test_coupled_step_rejects_a_lone_strategy():
    # one strategy alone is refused in a game with players; neither is the
    # noise-only step, and the random walk ignores what it is given
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    cm = CouplingMap.mirror(pair.x, pair.z)
    spec = GameSpec.space_dependent(0.2, 0.5)
    pull = PullToward((1.0, 0.0))
    for sI, sII in ((pull, None), (None, pull)):
        with pytest.raises(ValueError, match="both strategies"):
            coupled_step(cm, pair, spec, substream(3), sI=sI, sII=sII)
    coupled_step(cm, pair, spec, substream(3))
    walk = GameSpec.random_walk(0.2)
    assert coupled_step(cm, pair, walk, substream(3), sI=pull) == \
        coupled_step(cm, pair, walk, substream(3))


def test_coupled_drift_constant_is_zero():
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    spec = GameSpec.random_walk(0.2)
    cm = CouplingMap.mirror(pair.x, pair.z)
    mean, half = coupled_drift(
        lambda X, Z: np.zeros(len(np.atleast_2d(X))), cm, pair, spec,
        n_samples=2000, seed=43
    )
    assert mean == 0.0 and half == 0.0


def test_coupled_drift_quadratic_oracle():
    # g = |x+z|^2 under the mirrored step: x+z gains 2*h_perp, whose cross
    # term integrates to zero, so the drift is 4 E|h_perp|^2 = 4 eps^2 (n-1)
    # over (n+2); n = 2, eps = 1 gives exactly 1. The closed form needs a
    # pair at t >= 2 eps, where the tokens cannot merge
    pair = CoupledPoint(x=(1.25, 0.0), z=(-1.25, 0.0))
    spec = GameSpec.random_walk(1.0)
    cm = CouplingMap.mirror(pair.x, pair.z)
    g = lambda X, Z: np.einsum("ij,ij->i", X + Z, X + Z)
    mean, half = coupled_drift(g, cm, pair, spec, n_samples=40_000, seed=47)
    assert abs(mean - 1.0) <= 3 * half / 1.96 * 1.96 + 1e-3, (mean, half)


@pytest.mark.parametrize("t_over_eps", [0.5, 1.0, 1.9, 3.0])
def test_coupled_drift_is_minus_margin_II(t_over_eps):
    # one coupled-step law: on the same draws the mirrored drift of f1 is
    # -margin_II, merges in the lens included (they fire for t < 2 eps)
    C, delta, eps, m, seed = 250.0, 0.2, 0.05, 4096, 11
    g = lambda X, Z: eval_f1(X, Z, C, delta)
    x = np.array([0.1, -0.05])
    z = x + t_over_eps * eps * np.array([0.6, 0.8])
    pair = CoupledPoint(x=tuple(x), z=tuple(z))
    drift, _ = coupled_drift(g, CouplingMap.mirror(x, z), pair,
                             GameSpec.random_walk(eps), m, seed)
    margin = margin_II(g, x, z, eps, BallMC(m, seed))
    assert abs(drift + margin) <= 1e-12 * max(1.0, abs(margin)), (drift, margin)


def test_coupled_drift_antithetic_beats_raw():
    pair = CoupledPoint(x=(0.25, 0.0), z=(-0.25, 0.0))
    spec = GameSpec.random_walk(0.3)
    cm = CouplingMap.mirror(pair.x, pair.z)
    g = lambda X, Z: np.einsum("ij,ij->i", X + Z, X + Z) + 5.0 * (X[:, 0] - Z[:, 0])
    _, half_anti = coupled_drift(g, cm, pair, spec, 20_000, seed=53, antithetic=True)
    _, half_raw = coupled_drift(g, cm, pair, spec, 20_000, seed=53, antithetic=False)
    assert half_anti < 0.2 * half_raw


def test_coupled_drift_requires_vectorized_g():
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    spec = GameSpec.random_walk(0.2)
    cm = CouplingMap.mirror(pair.x, pair.z)
    # a pointwise g collapses the batch to one number
    with pytest.raises(ValueError, match="vectorized"):
        coupled_drift(lambda x, z: float(np.sum((x - z) ** 2)), cm, pair,
                      spec, n_samples=100, seed=67)


def test_coupled_drift_propagates_errors_from_g():
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    spec = GameSpec.random_walk(0.2)
    cm = CouplingMap.mirror(pair.x, pair.z)
    calls = []

    def broken(X, Z):
        calls.append(len(X))
        raise ZeroDivisionError("bug in g")

    with pytest.raises(ZeroDivisionError, match="bug in g"):
        coupled_drift(broken, cm, pair, spec, n_samples=100, seed=71)
    assert calls == [1]  # no per-row retry


def test_sample_coupled_noise_antithetic_layout():
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    spec = GameSpec.random_walk(0.2)
    cm = CouplingMap.mirror(pair.x, pair.z)
    X, _ = sample_coupled_noise(cm, pair, spec, 100, seed=59, antithetic=True)
    H = X - np.asarray(pair.x)
    assert np.allclose(H[0::2], -H[1::2])
    with pytest.raises(ValueError):
        sample_coupled_noise(cm, pair, spec, 101, seed=59, antithetic=True)


def test_coupled_step_mirror_strategy_moves():
    # a MirrorOf player replays its inner move reflected across the bisector;
    # a plain player proposes at each token independently
    pair = CoupledPoint(x=(0.0, 0.0), z=(0.5, 0.0))
    spec = GameSpec.space_dependent(0.2, 1.0)  # always a player move
    cm = CouplingMap.mirror(pair.x, pair.z)
    x, z = np.asarray(pair.x), np.asarray(pair.z)

    wrapped = MirrorOf(PullToward((10.0, 0.0)))
    nxt = coupled_step(cm, pair, spec, substream(61), sI=wrapped, sII=wrapped)
    hx = np.asarray(nxt.x) - x
    hz = np.asarray(nxt.z) - z
    assert np.allclose(hz, mirror_map(x, z, hx))

    plain = PullToward((10.0, 0.0))
    nxt = coupled_step(cm, pair, spec, substream(61), sI=plain, sII=plain)
    assert np.allclose(np.asarray(nxt.x) - x, np.asarray(nxt.z) - z)
