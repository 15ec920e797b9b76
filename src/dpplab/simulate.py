"""Monte Carlo play of the games, plus coupled two-token dynamics.

One episode loop runs on a continuum shape (Ball/Box/Mask, payoff evaluated
at the exit point) or on a GridDomain (moves restricted to the stencil,
payoff read off a boundary field). Coupled steps advance a pair (x, z) with
one shared noise draw pushed through a coupling map; drift estimates average
g(next pair) - g(pair) with antithetic variance reduction. One coin rule
(a(x) picks noise or a player move, a fair coin picks player I or II) and
one coupled-noise draw serve every play mode.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import GridDomain, ValueField, orthonormal_complement
from .couplings import CouplingMap, mirror_map, rotation_map
from .operators import GameSpec
from .rng import antithetic_sample, substream, uniform_ball, uniform_disk

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


def _checked_move(spec, x, move):
    """A proposal held to the rules: a destination within epsilon of x, or
    in directional play a jump vector with 0 < |nu| <= epsilon."""
    move = np.asarray(move, dtype=float)
    bound = spec.epsilon * (1.0 + _MOVE_TOL)
    if spec.kind == "directional":
        r = np.linalg.norm(move)
        if r == 0.0 or r > bound:
            raise ValueError("strategy returned an illegal jump vector")
    elif np.linalg.norm(move - x) > bound:
        raise ValueError("strategy returned an out-of-ball move")
    return move


def _mover(spec: GameSpec, alpha, rng) -> str:
    """The game coins of one step: "none" (noise), else the mover "I"/"II".

    alpha() gives a(x) at the token; only the space-dependent game reads
    it, flipping that coin before the mover coin. Directional play draws
    its jump-or-scatter coin after this returns.
    """
    if spec.kind == "random_walk":
        return "none"
    if spec.kind == "space_dependent" and not rng.random() < alpha():
        return "none"
    return "I" if rng.random() < 0.5 else "II"


def _shape_play(spec, players, shape, payoff, x0):
    """Continuum play: (start, inside, step), the position being the point."""
    if isinstance(payoff, ValueField):
        raise ValueError("a ValueField payoff needs a grid domain")

    def step(x, rng):
        mover = _mover(spec, lambda: spec.alpha_at(x)[0], rng)
        nu = None
        if mover != "none":
            nu = _checked_move(spec, x, players[mover].propose(x, spec, rng))
            if spec.kind != "directional":   # nu is the destination
                return nu, nu, mover, "player"
            # a biased coin jumps by nu or scatters in the disk orthogonal
            # to nu (centered at x, radius epsilon)
            if rng.random() < float(spec.alpha):
                return x + nu, x + nu, mover, "player"
        y = x + _noise(spec, x.size, nu, rng, 1)[0]
        return y, y, mover, "noise"

    return x0, lambda x: bool(shape.contains(x)), step


def _lattice_play(spec, players, domain, payoff, x0):
    """Grid play: (start, inside, step), the position being a point row.
    Moves stay on the stencil; a(x) is read once over the interior, as the
    sweep reads it."""
    if spec.kind == "directional":
        raise ValueError("directional episodes need a continuum domain")
    fields = [payoff] + [s.field for s in players.values()
                         if isinstance(s, GreedyOnField)]
    if any(isinstance(f, ValueField) and f.domain is not domain for f in fields):
        raise ValueError("a ValueField payoff or GreedyOnField field must "
                         "live on the play domain")
    inside = domain.interior_mask
    rows = np.cumsum(inside) - 1   # neighbor-table row of each interior point
    table = domain.neighbor_table(spec.epsilon)
    alpha = (spec.alpha_at(domain.interior_points)
             if spec.kind == "space_dependent" else None)
    pts = domain.points

    def step(cur, rng):
        row = rows[cur]
        cand = table[row]
        mover = _mover(spec, lambda: alpha[row], rng)
        if mover == "none":
            nxt, branch = int(cand[rng.integers(len(cand))]), "noise"
        else:
            pick = players[mover].pick(pts[cur], pts[cand], cand, rng)
            nxt, branch = int(cand[pick]), "player"
        return nxt, pts[nxt], mover, branch

    return domain.point_index(x0), lambda cur: inside[cur], step


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
                max_steps: int = 10_000, log=None) -> EpisodeOutcome:
    """Play one episode until the token leaves the domain.

    domain is a shape (Ball/Box/Mask) for continuum play or a GridDomain for
    lattice play. payoff is a callable on points, or a ValueField holding
    boundary data on the play domain in grid play. Truncated episodes
    (max_steps transitions without exit) report payoff -inf and
    truncated=True.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    rng = _as_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    play = _lattice_play if isinstance(domain, GridDomain) else _shape_play
    pos, inside, move = play(spec, {"I": sI, "II": sII}, domain, payoff, x0)
    logger = _EpisodeLog(log, x0.size) if log is not None else None
    try:
        if logger:
            logger.row(0, "none", "start", x0)
        x, step = x0.copy(), 0
        while inside(pos):
            if step == max_steps:
                return EpisodeOutcome(-math.inf, x, step, True)
            step += 1
            pos, x, mover, branch = move(pos, rng)
            if logger:
                logger.row(step, mover, branch, x)
        if isinstance(payoff, ValueField):   # boundary data at point row pos
            return EpisodeOutcome(float(payoff.values[pos]), x, step, False)
        value = np.asarray(payoff(x[None, :])).reshape(-1)[0]
        return EpisodeOutcome(float(value), x, step, False)
    finally:
        if logger:
            logger.close()


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


def _mirrored(x, z, h):
    """h reflected across the bisector of (x, z); h itself on the diagonal."""
    return h if np.linalg.norm(x - z) == 0.0 else mirror_map(x, z, h)


def _pair_moves(strategy, x, z, spec, rng):
    """Both tokens' moves under one player's intent: destinations, or jump
    vectors in directional play. A MirrorOf player makes its inner move at
    x and replays that displacement at z, reflected across the bisector."""
    if not isinstance(strategy, MirrorOf):
        return (_checked_move(spec, x, strategy.propose(x, spec, rng)),
                _checked_move(spec, z, strategy.propose(z, spec, rng)))
    mx = _checked_move(spec, x, strategy.inner.propose(x, spec, rng))
    if spec.kind == "directional":
        return mx, _mirrored(x, z, mx)
    return mx, z + _mirrored(x, z, mx - x)


def _noise(spec, n, nu, rng, m, antithetic=False):
    """m noise displacements of one step: uniform in the epsilon-ball, or in
    directional play uniform in the disk orthogonal to the jump nu."""
    eps = spec.epsilon
    if spec.kind != "directional":
        return antithetic_sample(lambda k: uniform_ball(rng, n, eps, k), m,
                                 antithetic)
    basis = orthonormal_complement(np.asarray(nu, dtype=float))
    return antithetic_sample(lambda k: uniform_disk(rng, basis, eps, k), m,
                             antithetic)


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
    mover = "none"
    if sI is not None and sII is not None:
        mover = _mover(spec, lambda: spec.alpha_at(x)[0], rng)
    if mover != "none":
        mx, mz = _pair_moves(sI if mover == "I" else sII, x, z, spec, rng)
        if spec.kind != "directional":   # destinations
            return type(pair)(tuple(mx), tuple(mz))
        if rng.random() < float(spec.alpha):
            return type(pair)(tuple(x + mx), tuple(z + mz))
        # the scatter disks are orthogonal to the jumps just named
        coupling = CouplingMap.rotation(mx, mz)
    X, Z = sample_coupled_noise(coupling, pair, spec, 1, rng)
    return type(pair)(tuple(X[0]), tuple(Z[0]))


def sample_coupled_noise(coupling: CouplingMap, pair, spec: GameSpec,
                         n_samples: int, seed: int,
                         antithetic: bool = False):
    """(X, Z) arrays of n_samples coupled one-step noise destinations.

    Ball noise is mirrored across the bisector of (x, z); directional disk
    noise, orthogonal to nu_x, is rotated onto the disk orthogonal to nu_z.
    With antithetic=True consecutive rows use (h, -h); n_samples must then
    be even. coupled_step draws its noise here, one row at a time; the
    batch serves distribution tests and drift estimation.
    """
    _require_compatible(coupling, spec)
    x = np.asarray(pair.x, dtype=float)
    z = np.asarray(pair.z, dtype=float)
    h = _noise(spec, x.size, coupling.nu_x, _as_rng(seed), n_samples,
               antithetic)
    if spec.kind != "directional":
        return x + h, z + _mirrored(x, z, h)
    return x + h, z + rotation_map(coupling.nu_x, coupling.nu_z)(h)


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
