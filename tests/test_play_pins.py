"""Exact outputs of every play mode, pinned bit for bit.

Each case replays a fixed seed through one public entry point and compares
every float it returns with values recorded from the implementation these
tests guard. A reference loop cannot catch a reordered coin or an extra
draw that leaves the law intact; exact pins do. Refresh a pin only for a
change that is meant to alter the random streams.
"""

import hashlib
import io
import math

import numpy as np
import pytest

from dpplab.certifier import (BallMC, GridSearch, NestedSearch, PairSearch,
                              margin_I, margin_II, margin_III, margin_T)
from dpplab.comparison import CoupledPoint, default_params, pair_function
from dpplab.core import Ball, build_grid_domain
from dpplab.couplings import CouplingMap
from dpplab.operators import GameSpec
from dpplab.rng import substream
from dpplab.simulate import (
    _BLOCK,
    GreedyOnField,
    MirrorOf,
    PullAway,
    PullToward,
    coupled_drift,
    coupled_step,
    estimate_value,
    play_episodes,
    run_episode,
    sample_coupled_noise,
)
from dpplab.solver import solve_dpp

DISK = Ball(center=(0.0, 0.0), radius=0.5)
START = (0.1, 0.05)


def _payoff(p):
    return p[:, 0] ** 2 - 0.3 * p[:, 1]


def _payoff_3d(p):
    return _payoff(p) + 0.2 * p[:, 2]


def _alpha(p):
    return 0.25 + 0.5 * p[:, 0] ** 2


def _players():
    return PullToward((0.6, 0.3)), PullAway((0.3, -0.2))


def _flat(*parts):
    return tuple(float(v) for p in parts for v in np.ravel(p))


def _estimate(spec, sI, sII, domain, payoff, seed, start=START):
    return _flat(estimate_value(spec, sI, sII, start, domain, payoff,
                                episodes=30, seed=seed))


def continuum_tug_of_war():
    return _estimate(GameSpec.tug_of_war(0.2), *_players(), DISK, _payoff, 101)


def continuum_space_dependent():
    return _estimate(GameSpec.space_dependent(0.2, _alpha), *_players(), DISK,
                     _payoff, 103)


def continuum_directional():
    return _estimate(GameSpec.directional(0.2, 0.6), *_players(), DISK,
                     _payoff, 107)


def continuum_random_walk():
    spec = GameSpec.random_walk(0.2)
    cut = run_episode(spec, None, None, START, DISK, _payoff, seed=113,
                      max_steps=3)
    return _estimate(spec, None, None, DISK, _payoff, 109) + _flat(
        cut.payoff, cut.exit_point, cut.steps, cut.truncated)


def _grid():
    return build_grid_domain(DISK, 0.05, 0.2)


def grid_greedy_space_dependent():
    dom = _grid()
    spec = GameSpec.space_dependent(0.2, _alpha)
    fld, _ = solve_dpp(dom, _payoff, spec)
    return _estimate(spec, GreedyOnField(fld, True), GreedyOnField(fld, False),
                     dom, fld, 127, start=(0.1, 0.0))


def grid_random_walk():
    dom = _grid()
    spec = GameSpec.random_walk(0.2)
    cut = run_episode(spec, None, None, (0.1, 0.0), dom, _payoff, seed=131,
                      max_steps=2)
    return _estimate(spec, None, None, dom, _payoff, 137,
                     start=(0.1, 0.0)) + _flat(
        cut.payoff, cut.exit_point, cut.steps, cut.truncated)


def grid_greedy_tug_of_war():
    dom = _grid()
    spec = GameSpec.tug_of_war(0.2)
    fld, _ = solve_dpp(dom, _payoff, spec)
    return _estimate(spec, GreedyOnField(fld, True), GreedyOnField(fld, False),
                     dom, fld, 179, start=(0.1, 0.0))


def grid_pulls_space_dependent():
    spec = GameSpec.space_dependent(0.2, _alpha)
    return _estimate(spec, *_players(), _grid(), _payoff, 181,
                     start=(0.1, 0.0))


def grid_random_walk_3d():
    dom = build_grid_domain(Ball(center=(0.0, 0.0, 0.0), radius=0.5), 0.0625,
                            0.2)
    spec = GameSpec.random_walk(0.2)
    cut = run_episode(spec, None, None, (0.125, 0.0, 0.0625), dom, _payoff_3d,
                      seed=191, max_steps=2)
    return _estimate(spec, None, None, dom, _payoff_3d, 193,
                     start=(0.125, 0.0, 0.0625)) + _flat(
        cut.payoff, cut.exit_point, cut.steps, cut.truncated)


# Multi-block play: each batch's exits spread over three or more 64-step
# refills, and each cap ends a run inside a refill, not at its end. A
# batch is pinned by its estimate and the sha256 of every field; a long
# episode by the sha256 of its CSV log.

def _grid_mixed():
    dom = build_grid_domain(DISK, 0.1 / 3, 0.1)
    spec = GameSpec.space_dependent(0.1, 0.5)
    fld, _ = solve_dpp(dom, _payoff, spec)
    return (spec, GreedyOnField(fld, True), GreedyOnField(fld, False),
            (0.0, 0.0), dom, fld)


def _grid_tug():
    return (GameSpec.tug_of_war(0.05), PullToward((0.05, 0.1)),
            PullAway((0.0, 0.0)), (0.1, 0.0),
            build_grid_domain(DISK, 0.05 / 3, 0.05), _payoff)


def _walk():
    return GameSpec.random_walk(0.05), None, None, START, DISK, _payoff


MULTI_BLOCK = {   # name: (game, seed, max_steps)
    "multi_block_grid_space_dependent": (_grid_mixed, 211, 250),
    "multi_block_grid_tug_of_war": (_grid_tug, 223, 250),
    "multi_block_continuum_random_walk": (_walk, 227, 700),
}


def _multi_block(name):
    game, seed, max_steps = MULTI_BLOCK[name]
    return play_episodes(*game(), 40, seed, max_steps)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pin_batch(name):
    b = _multi_block(name)
    return _flat(b.estimate()) + (
        _sha256(b.payoffs, b.exit_points, b.steps, b.truncated),)


def _log(spec, sI, sII, x0, domain, seed):
    buf = io.StringIO()
    out = run_episode(spec, sI, sII, x0, domain, _payoff, seed, max_steps=1000,
                      log=buf)
    return (float(out.steps),
            hashlib.sha256(buf.getvalue().encode()).hexdigest())


def log_grid_space_dependent():
    dom = build_grid_domain(DISK, 0.1 / 3, 0.1)
    return _log(GameSpec.space_dependent(0.1, _alpha), PullToward((0.0, 0.0)),
                PullAway((0.0, 0.0)), (0.0, 0.0), dom, 231)


def log_continuum_random_walk():
    return _log(GameSpec.random_walk(0.05), None, None, START, DISK, 233)


def log_continuum_space_dependent():
    return _log(GameSpec.space_dependent(0.05, _alpha),
                PullToward((2.0, 0.0)), PullToward((-2.0, 0.0)), START, DISK,
                244)


def _steps(coupling, pair, spec, sI=None, sII=None, seeds=range(8)):
    out = []
    for s in seeds:
        nxt = coupled_step(coupling, pair, spec, substream(139, s), sI, sII)
        out.append(_flat(nxt.x, nxt.z))
    return sum(out, ())


PAIR = CoupledPoint(x=(0.1, 0.0), z=(0.3, 0.1))
DIAG = CoupledPoint(x=(0.1, 0.0), z=(0.1, 0.0))
MIRROR = CouplingMap.mirror(PAIR.x, PAIR.z)
ROTATION = CouplingMap.rotation((0.2, 0.0), (0.1, 0.15))


def coupled_mirror_noise():
    spec = GameSpec.random_walk(0.2)
    return _steps(MIRROR, PAIR, spec) + _steps(MIRROR, DIAG, spec)


def coupled_mirror_players():
    spec = GameSpec.space_dependent(0.2, _alpha)
    sI, sII = _players()
    return _steps(MIRROR, PAIR, spec, sI, sII)


def coupled_mirror_replay():
    spec = GameSpec.space_dependent(0.2, 0.7)
    sI, sII = _players()
    return (_steps(MIRROR, PAIR, spec, MirrorOf(sI), sII)
            + _steps(MIRROR, DIAG, spec, MirrorOf(sI), MirrorOf(sII)))


def coupled_rotation_noise():
    return _steps(ROTATION, PAIR, GameSpec.directional(0.2, 0.6))


def coupled_rotation_players():
    sI, sII = _players()
    return _steps(ROTATION, PAIR, GameSpec.directional(0.2, 0.6), sI, sII)


def coupled_rotation_replay():
    spec = GameSpec.directional(0.2, 0.4)
    sI, sII = _players()
    return (_steps(ROTATION, PAIR, spec, MirrorOf(sI), sII)
            + _steps(ROTATION, DIAG, spec, sI, MirrorOf(sII)))


def _noise(coupling, pair, spec, m, antithetic):
    return _flat(*sample_coupled_noise(coupling, pair, spec, m, seed=149,
                                       antithetic=antithetic))


def noise_mirror():
    spec = GameSpec.random_walk(0.2)
    return _noise(MIRROR, PAIR, spec, 6, True) + _noise(MIRROR, PAIR, spec, 5,
                                                        False)


def noise_rotation():
    spec = GameSpec.directional(0.2, 0.6)
    return (_noise(ROTATION, PAIR, spec, 6, True)
            + _noise(ROTATION, PAIR, spec, 5, False))


def noise_rotation_3d():
    pair = CoupledPoint(x=(0.0, 0.0, 0.0), z=(0.4, 0.1, 0.0))
    cm = CouplingMap.rotation((0.0, 0.2, 0.0), (0.1, 0.1, 0.1))
    X, Z = sample_coupled_noise(cm, pair, GameSpec.directional(0.2, 0.5), 400,
                                seed=151, antithetic=True)
    return _flat(X[:4], Z[:4], X.sum(axis=0), Z.sum(axis=0),
                 np.einsum("ij,ij->", X, Z))


def _g(X, Z):
    return np.einsum("ij,ij->i", X - Z, X - Z) ** 0.75


def drift():
    return _flat(
        coupled_drift(_g, MIRROR, PAIR, GameSpec.random_walk(0.2), 301, 157),
        coupled_drift(_g, ROTATION, PAIR, GameSpec.directional(0.2, 0.6), 300,
                      163, antithetic=False))


def certifier_ball_draws():
    x, z = (0.0, 0.0), (0.15, 0.05)
    return _flat(
        margin_II(_g, x, z, 0.2, BallMC(samples=301, seed=167)),
        margin_II(_g, x, z, 0.2, BallMC(samples=301, seed=167,
                                        antithetic=False)),
        margin_III(_g, x, z, 0.2, NestedSearch(5, 201, 5, seed=173)),
        margin_III(_g, x, z, 0.2, NestedSearch(5, 201, 5, seed=173,
                                               antithetic=False)))


DESK = default_params(2)


def certifier_margins():
    # desk params at a near pair (t < 2 eps) and a far pair (t > N eps/10):
    # margin_I given the params and given a plain callable, margin_T with
    # and without the disk term
    eps, g = DESK.epsilon, pair_function(DESK)
    grid, jumps = GridSearch(13), PairSearch(16, 3, 9, 8)
    out = []
    for x, z in (((0.1, 0.05), (0.16, 0.08)), ((-0.3, 0.1), (0.25, -0.2))):
        out += [margin_I(DESK, x, z, eps, grid), margin_I(g, x, z, eps, grid),
                margin_T(DESK, x, z, eps, 0.5, jumps),
                margin_T(DESK, x, z, eps, 1.0, jumps)]
    return _flat(out)


CASES = {f.__name__: f for f in (
    continuum_tug_of_war, continuum_space_dependent, continuum_directional,
    continuum_random_walk, grid_greedy_space_dependent, grid_random_walk,
    grid_greedy_tug_of_war, grid_pulls_space_dependent, grid_random_walk_3d,
    log_grid_space_dependent, log_continuum_random_walk,
    log_continuum_space_dependent,
    coupled_mirror_noise, coupled_mirror_players, coupled_mirror_replay,
    coupled_rotation_noise, coupled_rotation_players, coupled_rotation_replay,
    noise_mirror, noise_rotation, noise_rotation_3d, drift,
    certifier_ball_draws, certifier_margins)} | {
    name: lambda name=name: _pin_batch(name) for name in MULTI_BLOCK}

PINNED = {
    "certifier_ball_draws": (
        -0.03433999677624479, -0.04330999014650881, -0.06114273541703834,
        -0.056141590630858926,
    ),
    "certifier_margins": (
        1.8791640653108107e+191, 1.8791640653108107e+191,
        9.395820326554054e+190, 1.8791640653108107e+191, 0.469104244917645,
        0.469104244917645, 0.1900465491347063, 0.469104244917645,
    ),
    "continuum_directional": (
        0.04682074919860431, 0.04722409856824453, 0.0,
    ),
    "continuum_random_walk": (
        0.13811094427790793, 0.06355829442491275, 0.0, -math.inf,
        -0.01169343561777339, 0.08947334101145313, 3.0, 1.0,
    ),
    "continuum_space_dependent": (
        0.08655091344886313, 0.05934598968404678, 0.0,
    ),
    "continuum_tug_of_war": (
        0.016050114303421088, 0.04642212008666912, 0.0,
    ),
    "coupled_mirror_noise": (
        -0.06286260851176192, -0.028631462232713335, 0.4206227348932278,
        0.21311120946978157, 0.09758683701424813, 0.1846037012015215,
        0.1537649368302339, 0.2126927511095144, 0.16156725428705265,
        -0.10768189944035617, 0.3492051669800533, -0.0138629430938558,
        0.26261952447822023, 0.10187635928267737, 0.26261952447822023,
        0.10187635928267737, 0.00855448619806716, -0.09412836538862256,
        0.43017000059205773, 0.11667939180837276, 0.2782888792937887,
        -0.05122081993274208, 0.2782888792937887, -0.05122081993274208,
        0.05726050179176135, -0.13062703100166223, 0.43014532372627295,
        0.0558153799655936, 0.08668260601326074, 0.17937782018255577,
        0.16448818024599893, 0.21828060729892487, -0.06286260851176192,
        -0.028631462232713335, -0.06286260851176192, -0.028631462232713335,
        0.09758683701424813, 0.1846037012015215, 0.09758683701424813,
        0.1846037012015215, 0.16156725428705265, -0.10768189944035617,
        0.16156725428705265, -0.10768189944035617, 0.26261952447822023,
        0.10187635928267737, 0.26261952447822023, 0.10187635928267737,
        0.00855448619806716, -0.09412836538862256, 0.00855448619806716,
        -0.09412836538862256, 0.2782888792937887, -0.05122081993274208,
        0.2782888792937887, -0.05122081993274208, 0.05726050179176135,
        -0.13062703100166223, 0.05726050179176135, -0.13062703100166223,
        0.08668260601326074, 0.17937782018255577, 0.08668260601326074,
        0.17937782018255577,
    ),
    "coupled_mirror_players": (
        0.08709120434358222, 0.016419967951292618, 0.29460930303281657,
        0.12017901729590981, 0.19405012438979255, 0.1396118789830625,
        0.19405012438979255, 0.1396118789830625, -0.03480413490112433,
        -0.004222561564638636, 0.3842605301923855, 0.2053097709821163,
        0.1503511337130576, 0.0888336773570412, 0.1503511337130576,
        0.0888336773570412, -0.005933081852523531, -0.02211834472487965,
        0.3812545248914178, 0.17147545864709104, -0.009358912101935637,
        -0.13362924405240392, 0.4725187425030845, 0.10730958325010617,
        0.09388185287886101, -0.0034126423735530353, 0.3064010021715258,
        0.10284693227277937, -0.0414213562373095, 0.14142135623730953, 0.3,
        0.30000000000000004,
    ),
    "coupled_mirror_replay": (
        -0.0414213562373095, 0.14142135623730953, 0.3, 0.30000000000000004,
        -0.0414213562373095, 0.14142135623730953, 0.3, 0.30000000000000004,
        -0.0414213562373095, 0.14142135623730953, 0.3, 0.30000000000000004,
        0.1503511337130576, 0.0888336773570412, 0.1503511337130576,
        0.0888336773570412, -0.0414213562373095, 0.14142135623730953, 0.3,
        0.30000000000000004, -0.009358912101935637, -0.13362924405240392,
        0.4725187425030845, 0.10730958325010617, 0.09388185287886101,
        -0.0034126423735530353, 0.3064010021715258, 0.10284693227277937,
        -0.0414213562373095, 0.14142135623730953, 0.3, 0.30000000000000004,
        -0.0414213562373095, 0.14142135623730953, -0.0414213562373095,
        0.14142135623730953, -0.0414213562373095, 0.14142135623730953,
        -0.0414213562373095, 0.14142135623730953, -0.0414213562373095,
        0.14142135623730953, -0.0414213562373095, 0.14142135623730953,
        0.1503511337130576, 0.0888336773570412, 0.1503511337130576,
        0.0888336773570412, -0.0414213562373095, 0.14142135623730953,
        -0.0414213562373095, 0.14142135623730953, -0.009358912101935637,
        -0.13362924405240392, -0.009358912101935637, -0.13362924405240392,
        0.09388185287886101, -0.0034126423735530353, 0.09388185287886101,
        -0.0034126423735530353, -0.0414213562373095, 0.14142135623730953,
        -0.0414213562373095, 0.14142135623730953,
    ),
    "coupled_rotation_noise": (
        0.1, -0.1311905344747499, 0.4091571228240547, 0.027228584783963547,
        0.1, -0.13828372979796008, 0.4150590180805275, 0.023293987946314987,
        0.1, 0.1934440374086764, 0.13904483173620996, 0.20730344550919338, 0.1,
        0.17994415045661782, 0.1502774166481979, 0.19981505556786805, 0.1,
        -0.16058348443381118, 0.4336135354889491, 0.010924309674033919, 0.1,
        0.011831170038821526, 0.29015587148683747, 0.10656275234210835, 0.1,
        -0.09892429955079135, 0.3823099925584009, 0.0451266716277327, 0.1,
        -0.11632878705994648, 0.3967914015131928, 0.0354723989912048,
    ),
    "coupled_rotation_players": (
        0.10154238498494027, 0.0015423849849402597, 0.30218126176410315, 0.1,
        0.027103919320701622, 0.12149346779883065, 0.22140757269560637,
        0.21788864095659044, 0.03568869194662397, -0.06431130805337602,
        0.20905007593696157, 0.1, 0.13686380606288642, 0.03686380606288641,
        0.3521332944948255, 0.1, 0.058595224527154974, -0.041404775472845025,
        0.24144480497928966, 0.1, -0.0414213562373095, 0.14142135623730953,
        0.3, 0.30000000000000004, -0.0414213562373095, 0.14142135623730953,
        0.3, 0.30000000000000004, 0.2714985851425089, 0.1028991510855053,
        0.4664100588675687, 0.21094003924504584,
    ),
    "coupled_rotation_replay": (
        0.10154238498494027, 0.0015423849849402597, 0.30218126176410315, 0.1,
        0.027103919320701622, 0.12149346779883065, 0.35345712583148553,
        -0.03121294522273707, 0.03568869194662397, -0.06431130805337602,
        0.20905007593696157, 0.1, 0.13686380606288642, 0.03686380606288641,
        0.3521332944948255, 0.1, 0.058595224527154974, -0.041404775472845025,
        0.24144480497928966, 0.1, -0.0414213562373095, 0.14142135623730953,
        0.3, 0.30000000000000004, 0.09982648358963792, -0.0001735164103620841,
        0.29975461073917165, 0.1, 0.12641154921422348, -0.04401924869037247,
        0.2806315305762361, 0.14754078858560227, 0.10154238498494027,
        0.0015423849849402597, 0.10154238498494027, 0.0015423849849402597,
        0.027103919320701622, 0.12149346779883065, 0.027103919320701622,
        0.12149346779883065, 0.03568869194662397, -0.06431130805337602,
        0.03568869194662397, -0.06431130805337602, 0.13686380606288642,
        0.03686380606288641, 0.13686380606288642, 0.03686380606288641,
        0.058595224527154974, -0.041404775472845025, 0.058595224527154974,
        -0.041404775472845025, -0.0414213562373095, 0.14142135623730953,
        -0.0414213562373095, 0.14142135623730953, 0.09982648358963792,
        -0.0001735164103620841, 0.09982648358963792, -0.0001735164103620841,
        0.12641154921422348, -0.04401924869037247, 0.12641154921422348,
        -0.04401924869037247,
    ),
    "drift": (
        0.03865755161816965, 0.006701232039753187, 0.010850402669008012,
        0.008284579383385254,
    ),
    "grid_greedy_space_dependent": (
        0.0855, 0.07561958047836644, 0.0,
    ),
    "grid_greedy_tug_of_war": (
        0.10058333333333333, 0.10719892762837852, 0.0,
    ),
    "grid_pulls_space_dependent": (
        0.10450000000000002, 0.05902878479591765, 0.0,
    ),
    "grid_random_walk_3d": (
        0.125859375, 0.03956902667055374, 0.0, -math.inf, 0.0625, 0.125,
        0.125, 2.0, 1.0,
    ),
    "grid_random_walk": (
        0.16158333333333333, 0.05659129182093024, 0.0, -math.inf, -0.05,
        -0.15000000000000002, 2.0, 1.0,
    ),
    "log_continuum_random_walk": (
        104.0,
        "b39a8251c2b36fc03bc1e0d51a87d68976a49c3d7ff94b4c423a15a9f8f5f23d",
    ),
    "log_continuum_space_dependent": (
        97.0,
        "7b377cfa329eae1f35d93fcb9e31b73b5f3ede548f649c1c49a2291822b367ed",
    ),
    "log_grid_space_dependent": (
        103.0,
        "59635df2a09ac6c00c66c12c3d18c500d7dc13acd83cf19a8d5d606105dab08f",
    ),
    "multi_block_continuum_random_walk": (
        0.1494847909712053, 0.041020032055208974, 0.025,
        "226201a5f8c7051dbe26a8d2b05d23e9b3086fc33bde2edee5a35e19da8c5476",
    ),
    "multi_block_grid_space_dependent": (
        0.11705555555555555, 0.0639342804499342, 0.0,
        "2e64010201bc007b528ad0399b4e9fb82c39c555be5aed82fb5172260ad7d8f6",
    ),
    "multi_block_grid_tug_of_war": (
        -0.06197293447293447, 0.049555003410225715, 0.025,
        "c8b07f279486d10382328203ae658637a245af61dd5b921c79a3d7c489f1ef5f",
    ),
    "noise_mirror": (
        0.009684113842521477, 0.07819419369191223, 0.19031588615747852,
        -0.07819419369191223, 0.18587000014316446, 0.10098733204901321,
        0.014129999856835551, -0.10098733204901321, 0.11848204669906656,
        0.05001176952523885, 0.08151795330093345, -0.05001176952523885,
        0.2916341767409573, 0.21916922514113016, 0.30836582325904266,
        -0.019169225141130147, 0.18587000014316446, 0.10098733204901321,
        0.43231186572510927, 0.10810360088512366, 0.11848204669906656,
        0.05001176952523885, 0.351098643639631, 0.08477857564410994,
        -0.01330290145708092, 0.09809602052669465, 0.1916537045061692,
        0.10778925206771929, 0.13885992407409647, 0.1051535903034023,
        -0.06704457948073769, -0.09953472838188225, 0.058527012448312495,
        -0.12224029004866262, 0.2895049244528928, 0.24949993348168154,
        0.1916537045061692, 0.10778925206771929, 0.13885992407409647,
        0.1051535903034023, 0.47985453039394843, 0.1739148265554608,
        0.4226760245699426, 0.059834216012152455,
    ),
    "noise_rotation": (
        0.1, -0.14729071825433812, 0.1, 0.14729071825433812, 0.1,
        0.028568706648057197, 0.1, -0.028568706648057197, 0.1,
        0.15817827034435147, 0.1, -0.15817827034435147, 0.4225532854767544,
        0.018297809682163713, 0.17744671452324556, 0.1817021903178363,
        0.27622939922463247, 0.11584706718357834, 0.3237706007753675,
        0.08415293281642167, 0.16838772360213133, 0.1877415175985791,
        0.43161227639786864, 0.012258482401420898, 0.1, -0.15817827034435147,
        0.1, 0.07135645609769457, 0.1, 0.08786049079482353, 0.1,
        0.014213815706160426, 0.1, 0.02484220555423511, 0.43161227639786864,
        0.012258482401420898, 0.24062783970100782, 0.13958144019932814,
        0.22689565277349966, 0.14873623148433357, 0.28817339045802537,
        0.10788440636131644, 0.27933003555659747, 0.1137799762956017,
    ),
    "noise_rotation_3d": (
        -0.1357643834753688, 0.0, 0.1057114601671138, 0.1357643834753688, 0.0,
        -0.1057114601671138, 0.0032222384802574385, 0.0, -0.05868062242367273,
        -0.0032222384802574385, 0.0, 0.05868062242367273, 0.27058654649778063,
        0.1173510633619562, 0.1120623901402632, 0.5294134535022195,
        0.0826489366380438, -0.1120623901402632, 0.4149419740026889,
        0.13201891289855244, -0.0469608869012413, 0.38505802599731115,
        0.06798108710144757, 0.0469608869012413, 0.0, 0.0, 0.0,
        160.00000000000003, 40.00000000000002, 0.0, 6.6160116318108395,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_outputs(name):
    assert CASES[name]() == PINNED[name]


@pytest.mark.parametrize("name", sorted(MULTI_BLOCK))
def test_multi_block_cases_end_inside_three_or_more_refills(name):
    # the pins above only guard block boundaries if exits fall in several
    # refills and the cap cuts a refill short
    _, _, max_steps = MULTI_BLOCK[name]
    b = _multi_block(name)
    assert max_steps % _BLOCK != 0
    assert len(set((b.steps[~b.truncated] - 1) // _BLOCK)) >= 3


@pytest.mark.parametrize("name", ["log_continuum_random_walk",
                                  "log_continuum_space_dependent",
                                  "log_grid_space_dependent"])
def test_logged_episodes_cross_a_refill(name):
    assert PINNED[name][0] > _BLOCK
