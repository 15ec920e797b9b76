"""Monte Carlo play of the games, plus coupled two-token dynamics.

Single-token episodes run either on a continuum shape (Ball/Box/Mask, payoff
evaluated at the exit point) or on a GridDomain (moves restricted to the
stencil, payoff read off a boundary field). Coupled steps advance a pair
(x, z) with one shared noise draw pushed through a coupling map; drift
estimates average g(next pair) - g(pair) with antithetic variance reduction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import GridDomain, ValueField, orthonormal_complement
from .couplings import CouplingMap, mirror_map, rotation_map
from .operators import GameSpec
from .rng import antithetic_pairs, substream, uniform_ball, uniform_disk

_MOVE_TOL = 1e-9


# -- strategies --------------------------------------------------------------


class Strategy:
    """Decision rule for one player.

    propose(x, spec, rng) returns the destination point for ball moves and
    the jump vector nu (a displacement, 0 < |nu| <= epsilon) for directional
    moves. pick(x, points, indices, rng) returns a position in the candidate
    list for grid play.
    """

    def propose(self, x, spec: GameSpec, rng) -> np.ndarray:
        raise NotImplementedError

    def pick(self, x, points, indices, rng) -> int:
        raise NotImplementedError


def _unit_or(dirvec, fallback):
    nrm = np.linalg.norm(dirvec)
    if nrm == 0.0:
        return fallback
    return dirvec / nrm


class PullToward(Strategy):
    """Move the full step toward a target point (less if already close)."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def propose(self, x, spec, rng):
        x = np.asarray(x, dtype=float)
        d = self.target - x
        t = np.linalg.norm(d)
        if spec.kind == "directional":
            # a zero jump is not legal play; push along +e1 if on target
            if t == 0.0:
                nu = np.zeros_like(x)
                nu[0] = spec.epsilon
                return nu
            return min(spec.epsilon, t) * d / t
        if t == 0.0:
            return x.copy()
        return x + min(spec.epsilon, t) * d / t

    def pick(self, x, points, indices, rng):
        d = points - self.target
        return int(np.argmin(np.einsum("ij,ij->i", d, d)))


class PullAway(Strategy):
    """Move the full step straight away from a target point."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def propose(self, x, spec, rng):
        x = np.asarray(x, dtype=float)
        e1 = np.zeros_like(x)
        e1[0] = 1.0
        u = _unit_or(x - self.target, e1)
        if spec.kind == "directional":
            return spec.epsilon * u
        return x + spec.epsilon * u

    def pick(self, x, points, indices, rng):
        d = points - self.target
        return int(np.argmax(np.einsum("ij,ij->i", d, d)))


class Stationary(Strategy):
    """Stay put. Not available in directional play (zero jumps are illegal)."""

    def propose(self, x, spec, rng):
        if spec.kind == "directional":
            raise ValueError("directional play admits no zero move")
        return np.asarray(x, dtype=float).copy()

    def pick(self, x, points, indices, rng):
        d = points - np.asarray(x, dtype=float)
        return int(np.argmin(np.einsum("ij,ij->i", d, d)))


class GreedyOnField(Strategy):
    """Pick the stencil point extremizing a stored field. Grid play only."""

    def __init__(self, field: ValueField, maximize: bool = True):
        self.field = field
        self.maximize = bool(maximize)

    def propose(self, x, spec, rng):
        raise ValueError("GreedyOnField strategies require a grid domain")

    def pick(self, x, points, indices, rng):
        vals = self.field.values[indices]
        return int(np.argmax(vals) if self.maximize else np.argmin(vals))


class MirrorOf(Strategy):
    """Coupled-play wrapper: replay the inner strategy's move, reflected
    across the bisector of the current pair. Only coupled_step consults it."""

    def __init__(self, inner: Strategy):
        self.inner = inner

    def propose(self, x, spec, rng):
        raise ValueError("MirrorOf strategies only apply to coupled play")

    def pick(self, x, points, indices, rng):
        raise ValueError("MirrorOf strategies only apply to coupled play")


# -- episodes ----------------------------------------------------------------


@dataclass(frozen=True)
class EpisodeOutcome:
    payoff: float
    exit_point: np.ndarray   # final position when truncated
    steps: int
    truncated: bool


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(int(seed))


def _checked_dest(x, y, epsilon):
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y - x) > epsilon * (1.0 + _MOVE_TOL):
        raise ValueError("strategy returned an out-of-ball move")
    return y


def _checked_jump(nu, epsilon):
    nu = np.asarray(nu, dtype=float)
    r = np.linalg.norm(nu)
    if r == 0.0 or r > epsilon * (1.0 + _MOVE_TOL):
        raise ValueError("strategy returned an illegal jump vector")
    return nu


def _alpha_scalar(spec: GameSpec, x) -> float:
    return float(spec.alpha_at(np.asarray(x, dtype=float))[0])


def _step_continuum(x, spec, sI, sII, rng):
    """One transition. Returns (new point, mover tag, branch tag)."""
    n = x.size
    eps = spec.epsilon
    kind = spec.kind
    if kind == "random_walk":
        return x + uniform_ball(rng, n, eps, 1)[0], "none", "noise"
    if kind == "tug_of_war":
        if rng.random() < 0.5:
            return _checked_dest(x, sI.propose(x, spec, rng), eps), "I", "player"
        return _checked_dest(x, sII.propose(x, spec, rng), eps), "II", "player"
    if kind == "space_dependent":
        if rng.random() < _alpha_scalar(spec, x):
            if rng.random() < 0.5:
                return _checked_dest(x, sI.propose(x, spec, rng), eps), "I", "player"
            return _checked_dest(x, sII.propose(x, spec, rng), eps), "II", "player"
        return x + uniform_ball(rng, n, eps, 1)[0], "none", "noise"
    # directional: mover names nu, a biased coin jumps or scatters in the
    # disk orthogonal to nu (centered at x, radius epsilon)
    if rng.random() < 0.5:
        mover, nu = "I", _checked_jump(sI.propose(x, spec, rng), eps)
    else:
        mover, nu = "II", _checked_jump(sII.propose(x, spec, rng), eps)
    if rng.random() < float(spec.alpha):
        return x + nu, mover, "player"
    basis = orthonormal_complement(nu)
    return x + uniform_disk(rng, basis, eps, 1)[0], mover, "noise"


def _step_grid(cur, domain, table, inv, spec, sI, sII, rng):
    """One lattice transition from global index cur. Returns (index, tags)."""
    row = inv[cur]
    cand = table[row]
    pts = domain.points[cand]
    x = domain.points[cur]
    kind = spec.kind
    if kind == "random_walk":
        return int(cand[rng.integers(len(cand))]), "none", "noise"
    if kind == "tug_of_war":
        if rng.random() < 0.5:
            return int(cand[sI.pick(x, pts, cand, rng)]), "I", "player"
        return int(cand[sII.pick(x, pts, cand, rng)]), "II", "player"
    if kind == "space_dependent":
        if rng.random() < _alpha_scalar(spec, x):
            if rng.random() < 0.5:
                return int(cand[sI.pick(x, pts, cand, rng)]), "I", "player"
            return int(cand[sII.pick(x, pts, cand, rng)]), "II", "player"
        return int(cand[rng.integers(len(cand))]), "none", "noise"
    raise ValueError("directional episodes need a continuum domain")


def _payoff_at(payoff, point, index=None):
    if isinstance(payoff, ValueField):
        if index is None:
            raise ValueError("a ValueField payoff needs a grid domain")
        return float(payoff.values[index])
    return float(np.asarray(payoff(np.asarray(point, dtype=float)[None, :])).reshape(-1)[0])


class _EpisodeLog:
    def __init__(self, target, n):
        self._own = isinstance(target, (str, bytes))
        self._fh = open(target, "w", newline="") if self._own else target
        self._w = csv.writer(self._fh)
        self._w.writerow(["step", "mover", "branch"] + [f"x{i+1}" for i in range(n)])

    def row(self, step, mover, branch, pos):
        self._w.writerow([step, mover, branch] + [repr(float(v)) for v in pos])

    def close(self):
        if self._own:
            self._fh.close()


def run_episode(spec: GameSpec, sI, sII, x0, domain, payoff, seed,
                max_steps: int = 10_000,
                truncation_sentinel: float = -math.inf,
                log=None) -> EpisodeOutcome:
    """Play one episode until the token leaves the domain.

    domain is a shape (Ball/Box/Mask) for continuum play or a GridDomain for
    lattice play. payoff is a callable on points, or a ValueField holding
    boundary data in grid play. Truncated episodes (max_steps transitions
    without exit) report the sentinel payoff and truncated=True.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rng = _as_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    logger = _EpisodeLog(log, x0.size) if log is not None else None
    try:
        if logger:
            logger.row(0, "none", "start", x0)
        if isinstance(domain, GridDomain):
            return _run_grid(spec, sI, sII, x0, domain, payoff, rng,
                             max_steps, truncation_sentinel, logger)
        return _run_continuum(spec, sI, sII, x0, domain, payoff, rng,
                              max_steps, truncation_sentinel, logger)
    finally:
        if logger:
            logger.close()


def _run_continuum(spec, sI, sII, x0, domain, payoff, rng, max_steps,
                   sentinel, logger):
    x = x0.copy()
    if not bool(domain.contains(x)):
        return EpisodeOutcome(_payoff_at(payoff, x), x, 0, False)
    for step in range(1, max_steps + 1):
        x, mover, branch = _step_continuum(x, spec, sI, sII, rng)
        if logger:
            logger.row(step, mover, branch, x)
        if not bool(domain.contains(x)):
            return EpisodeOutcome(_payoff_at(payoff, x), x, step, False)
    return EpisodeOutcome(float(sentinel), x, max_steps, True)


def _run_grid(spec, sI, sII, x0, domain, payoff, rng, max_steps, sentinel,
              logger):
    cur = domain.point_index(x0)
    inv = np.full(domain.n_points, -1, dtype=np.int64)
    inv[domain.interior_indices] = np.arange(domain.n_interior)
    if inv[cur] < 0:
        return EpisodeOutcome(_payoff_at(payoff, x0, cur), x0, 0, False)
    table = domain.neighbor_table(spec.epsilon)
    for step in range(1, max_steps + 1):
        cur, mover, branch = _step_grid(cur, domain, table, inv, spec, sI,
                                        sII, rng)
        if logger:
            logger.row(step, mover, branch, domain.points[cur])
        if inv[cur] < 0:
            pt = domain.points[cur]
            return EpisodeOutcome(_payoff_at(payoff, pt, cur), pt, step, False)
    return EpisodeOutcome(float(sentinel), domain.points[cur], max_steps, True)


def estimate_value(spec: GameSpec, sI, sII, x0, domain, payoff,
                   episodes: int, seed: int,
                   max_steps: int = 10_000) -> tuple[float, float, float]:
    """(mean payoff, 95% CI half-width, truncation rate) over many episodes.

    Truncated episodes are excluded from the mean and surface only through
    the rate; each episode draws from its own substream of `seed`, so the
    result does not depend on scheduling order.
    """
    if episodes < 2:
        raise ValueError("episodes must be >= 2")
    vals = []
    truncated = 0
    for k in range(episodes):
        out = run_episode(spec, sI, sII, x0, domain, payoff,
                          substream(seed, k), max_steps=max_steps)
        if out.truncated:
            truncated += 1
        else:
            vals.append(out.payoff)
    rate = truncated / episodes
    if not vals:
        return math.nan, math.nan, rate
    arr = np.asarray(vals)
    mean = float(arr.mean())
    half = 0.0
    if len(arr) > 1:
        half = float(1.96 * arr.std(ddof=1) / math.sqrt(len(arr)))
    return mean, half, rate


# -- coupled two-token dynamics ----------------------------------------------


def _require_compatible(coupling: CouplingMap, spec: GameSpec):
    ok = (coupling.kind == "mirror" and spec.kind in ("random_walk",
                                                      "space_dependent")) or \
         (coupling.kind == "rotation" and spec.kind == "directional")
    if not ok:
        raise ValueError(
            f"{coupling.kind} coupling is incompatible with a {spec.kind} "
            "noise step")


def _pair_moves(strategy, x, z, spec, rng, epsilon):
    """Destinations for both tokens under one player's intent."""
    if isinstance(strategy, MirrorOf):
        y = _checked_dest(x, strategy.inner.propose(x, spec, rng), epsilon)
        h = y - x
        if np.linalg.norm(x - z) == 0.0:
            return y, z + h
        return y, z + mirror_map(x, z, h)
    yx = _checked_dest(x, strategy.propose(x, spec, rng), epsilon)
    yz = _checked_dest(z, strategy.propose(z, spec, rng), epsilon)
    return yx, yz


def coupled_step(coupling: CouplingMap, pair, spec: GameSpec, rng,
                 sI=None, sII=None):
    """Advance (x, z) one step with a shared noise draw.

    Mirror coupling pairs with ball noise (random walk / space dependent),
    rotation coupling with directional disk noise. If strategies are given,
    the game branches fire with the usual coins (one shared branch coin, the
    mixing weight read at the x token); otherwise the step is noise-only.
    Returns an object with .x and .z (same type as `pair`).
    """
    _require_compatible(coupling, spec)
    rng = _as_rng(rng)
    x = np.asarray(pair.x, dtype=float)
    z = np.asarray(pair.z, dtype=float)
    n = x.size
    eps = spec.epsilon

    if coupling.kind == "mirror":
        if spec.kind == "space_dependent" and sI is not None and sII is not None:
            if rng.random() < _alpha_scalar(spec, x):
                mover = sI if rng.random() < 0.5 else sII
                nx, nz = _pair_moves(mover, x, z, spec, rng, eps)
                return type(pair)(tuple(nx), tuple(nz))
        h = uniform_ball(rng, n, eps, 1)[0]
        ph = h if np.linalg.norm(x - z) == 0.0 else mirror_map(x, z, h)
        return type(pair)(tuple(x + h), tuple(z + ph))

    # rotation + directional
    nu_x = np.asarray(coupling.nu_x, dtype=float)
    nu_z = np.asarray(coupling.nu_z, dtype=float)
    if sI is not None and sII is not None:
        mover = sI if rng.random() < 0.5 else sII
        if isinstance(mover, MirrorOf):
            nu_x = _checked_jump(mover.inner.propose(x, spec, rng), eps)
            nu_z = nu_x if np.linalg.norm(x - z) == 0.0 else mirror_map(x, z, nu_x)
        else:
            nu_x = _checked_jump(mover.propose(x, spec, rng), eps)
            nu_z = _checked_jump(mover.propose(z, spec, rng), eps)
        if rng.random() < float(spec.alpha):
            return type(pair)(tuple(x + nu_x), tuple(z + nu_z))
    h = uniform_disk(rng, orthonormal_complement(nu_x), eps, 1)[0]
    return type(pair)(tuple(x + h), tuple(z + rotation_map(nu_x, nu_z)(h)))


def sample_coupled_noise(coupling: CouplingMap, pair, spec: GameSpec,
                         n_samples: int, seed: int,
                         antithetic: bool = False):
    """(X, Z) arrays of n_samples coupled one-step noise destinations.

    With antithetic=True consecutive rows use (h, -h); n_samples must then
    be even. Vectorized companion to coupled_step for distribution tests
    and drift estimation.
    """
    _require_compatible(coupling, spec)
    rng = _as_rng(seed)
    x = np.asarray(pair.x, dtype=float)
    z = np.asarray(pair.z, dtype=float)
    n = x.size
    eps = spec.epsilon
    if antithetic and n_samples % 2 != 0:
        raise ValueError("antithetic sampling needs an even sample count")
    m = n_samples // 2 if antithetic else n_samples

    if coupling.kind == "mirror":
        h = uniform_ball(rng, n, eps, m)
        apply = (lambda H: H) if np.linalg.norm(x - z) == 0.0 else \
            (lambda H: mirror_map(x, z, H))
    else:
        nu_x = np.asarray(coupling.nu_x, dtype=float)
        basis = orthonormal_complement(nu_x)
        h = uniform_disk(rng, basis, eps, m)
        rot = rotation_map(nu_x, np.asarray(coupling.nu_z, dtype=float))
        apply = rot.apply
    if antithetic:
        h = antithetic_pairs(h)
    return x + h, z + apply(h)


def _eval_pairs(g, X, Z) -> np.ndarray:
    """g on paired rows of X and Z; g must be vectorized (one value per row)."""
    out = np.asarray(g(X, Z), dtype=float)
    if out.shape != (len(X),):
        raise ValueError(f"g must be vectorized: expected shape ({len(X)},) "
                         f"for {len(X)} point pairs, got {out.shape}")
    return out


def coupled_drift(g, coupling: CouplingMap, pair, spec: GameSpec,
                  n_samples: int, seed: int,
                  antithetic: bool = True) -> tuple[float, float]:
    """MC estimate of E[g(one coupled noise step)] - g(pair), with 95% CI.

    g is vectorized: g(X, Z) maps (m, n) arrays of paired points to (m,)
    values; any other output shape raises ValueError, and errors raised by g
    propagate.

    Antithetic (h, -h) pairing cancels the first-order term of smooth g
    exactly, which matters here: the drifts of interest are second order in
    the step size while raw samples fluctuate at first order.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    x = np.asarray(pair.x, dtype=float)
    z = np.asarray(pair.z, dtype=float)
    if np.array_equal(x, z):
        raise ValueError("pair must be off the diagonal")
    if antithetic and n_samples % 2 != 0:
        n_samples += 1
    X, Z = sample_coupled_noise(coupling, pair, spec, n_samples, seed,
                                antithetic=antithetic)
    base = _eval_pairs(g, x[None, :], z[None, :])[0]
    s = _eval_pairs(g, X, Z) - base
    if antithetic:
        s = 0.5 * (s[0::2] + s[1::2])
    mean = float(s.mean())
    half = float(1.96 * s.std(ddof=1) / math.sqrt(len(s))) if len(s) > 1 else 0.0
    return mean, half
