"""Monte Carlo play of the games, plus coupled two-token dynamics.

Play is lockstep: the episodes of a batch advance together, one array of
positions through one step function, and drop out as they exit. A position
is a point on a continuum shape (Ball/Box/Mask) or a point row on a
GridDomain, where each strategy is one successor array over the interior.
Episode k draws from its own stream in blocks at a fixed stride per step, so
its path does not depend on the batch; run_episode is the one-episode batch.
Coupled steps advance a pair (x, z) by one shared noise draw through
CouplingMap.step; coupled_drift averages g(next pair) - g(pair).
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import GridDomain, ValueField, orthonormal_complement
from .couplings import CouplingMap, mirror_map
from .operators import GameSpec
from .rng import antithetic_sample, ball_points, substream, uniform_ball, uniform_disk

_MOVE_TOL = 1e-9
# Steps per refill of an episode's draws. A step's stride is three uniforms
# (the game coin: a(x), or jump-or-scatter in directional play; the mover
# coin, I below 1/2; the noise radius, or the stencil column floor(u*S)),
# then n normals in continuum play.
_BLOCK = 64
_NONE, _I, _II = 0, 1, 2


# -- strategies --------------------------------------------------------------


class Strategy:
    """Decision rule for one player over a batch of positions.

    propose(X, spec) maps (B, n) points to (B, n) destinations, or to jump
    vectors nu (0 < |nu| <= epsilon) in directional play. pick(X, rows,
    points) maps (B, n) grid points and their (B, S) stencil point rows into
    the domain's points to the (B,) stencil columns moved to; grid play asks
    once, for the whole interior.
    """

    def propose(self, X, spec: GameSpec) -> np.ndarray:
        raise NotImplementedError

    def pick(self, X, rows, points) -> np.ndarray:
        raise NotImplementedError


def _norms(V):
    """Row norms; each row has the bits of np.linalg.norm on that row."""
    return np.sqrt(np.vecdot(V, V))


class PullToward(Strategy):
    """Move the full step toward a target point (less if already close)."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def propose(self, X, spec):
        d = self.target - X
        t = _norms(d)[:, None]
        step = np.minimum(spec.epsilon, t) * d / np.where(t == 0.0, 1.0, t)
        if spec.kind == "directional":   # no zero jump: push along +e1
            return np.where(t == 0.0, spec.epsilon * np.eye(1, X.shape[1]), step)
        return X + step

    def pick(self, X, rows, points):
        return np.argmin(_norms(points[rows] - self.target), axis=1)


class PullAway(Strategy):
    """Move the full step straight away from a target point."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)

    def propose(self, X, spec):
        d = X - self.target
        r = _norms(d)[:, None]
        u = np.where(r == 0.0, np.eye(1, X.shape[1]), d / np.where(r == 0.0, 1.0, r))
        return spec.epsilon * u if spec.kind == "directional" else X + spec.epsilon * u

    def pick(self, X, rows, points):
        return np.argmax(_norms(points[rows] - self.target), axis=1)


class Stationary(Strategy):
    """Stay put. Not available in directional play (zero jumps are illegal)."""

    def propose(self, X, spec):
        if spec.kind == "directional":
            raise ValueError("directional play admits no zero move")
        return X.copy()

    def pick(self, X, rows, points):
        return np.argmin(_norms(points[rows] - X[:, None, :]), axis=1)


class GreedyOnField(Strategy):
    """Pick the stencil point extremizing a stored field. Grid play only."""

    def __init__(self, field: ValueField, maximize: bool = True):
        self.field = field
        self.maximize = bool(maximize)

    def propose(self, X, spec):
        raise ValueError("GreedyOnField strategies require a grid domain")

    def pick(self, X, rows, points):
        vals = self.field.values[rows]
        return np.argmax(vals, axis=1) if self.maximize else np.argmin(vals, axis=1)


class MirrorOf(Strategy):
    """Coupled-play wrapper: replay the inner strategy's move, reflected
    across the bisector of the current pair. Only coupled_step consults it."""

    def __init__(self, inner: Strategy):
        self.inner = inner


# -- episodes ----------------------------------------------------------------


@dataclass(frozen=True)
class EpisodeOutcome:
    payoff: float
    exit_point: np.ndarray   # final position when truncated
    steps: int
    truncated: bool


@dataclass(frozen=True)
class EpisodeBatch:
    """A lockstep batch, one entry per episode; where an episode was
    truncated its payoff is -inf and its exit point the final position."""

    payoffs: np.ndarray
    exit_points: np.ndarray
    steps: np.ndarray
    truncated: np.ndarray

    def estimate(self) -> tuple[float, float, float]:
        """(mean payoff, 95% CI half-width, truncation rate); truncated
        episodes are excluded from the mean and surface only in the rate."""
        rate = int(self.truncated.sum()) / len(self.truncated)
        arr = self.payoffs[~self.truncated]
        return (*_mean_ci(arr), rate) if len(arr) else (math.nan, math.nan, rate)


def _mean_ci(s) -> tuple[float, float]:
    """Mean of the samples s and the half-width of its 95% CI."""
    half = float(1.96 * s.std(ddof=1) / math.sqrt(len(s))) if len(s) > 1 else 0.0
    return float(s.mean()), half


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else substream(int(seed))


def _vectorized(name, out, shape) -> np.ndarray:
    """The output of a vectorized callable, checked to have the shape of
    one value (or one point) per input row."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} must be vectorized: expected shape {shape}, "
                         f"got {out.shape}")
    return out


def _moves(strategy, spec, X):
    """The strategy's proposals at (B, n) points, held to the rules: a
    destination within epsilon of its point, or in directional play a jump
    vector with 0 < |nu| <= epsilon."""
    M = _vectorized("strategy.propose", strategy.propose(X, spec), X.shape)
    bound = spec.epsilon * (1.0 + _MOVE_TOL)
    if spec.kind == "directional":
        r = _norms(M)
        if np.any((r == 0.0) | (r > bound)):
            raise ValueError("strategy returned an illegal jump vector")
    elif np.any(_norms(M - X) > bound):
        raise ValueError("strategy returned an out-of-ball move")
    return M


class _Game:
    """The game of one batch: positions are (B, n) points on a shape, or
    point rows on a GridDomain, where a(x) is read once over the interior."""

    def __init__(self, spec, sI, sII, domain, payoff):
        if isinstance(sI, MirrorOf) or isinstance(sII, MirrorOf):
            raise ValueError("MirrorOf strategies only apply to coupled play")
        if spec.kind != "random_walk" and (sI is None or sII is None):
            raise ValueError(f"{spec.kind} play needs both players' strategies")
        self.spec, self.domain = spec, domain
        self.players = {} if spec.kind == "random_walk" else {_I: sI, _II: sII}
        self.grid = isinstance(domain, GridDomain)
        if not self.grid:
            if isinstance(payoff, ValueField):
                raise ValueError("a ValueField payoff needs a grid domain")
            return
        if spec.kind == "directional":
            raise ValueError("directional episodes need a continuum domain")
        fields = [payoff] + [s.field for s in (sI, sII) if isinstance(s, GreedyOnField)]
        if any(isinstance(f, ValueField) and f.domain is not domain for f in fields):
            raise ValueError("a ValueField payoff or GreedyOnField field must "
                             "live on the play domain")
        self.rows = np.cumsum(domain.interior_mask) - 1   # row in the table
        table = domain.neighbor_table(spec.epsilon)
        self.columns = table.T   # the stored (S, n_interior) layout
        X = domain.interior_points
        self.alpha = spec.alpha_at(X) if spec.kind == "space_dependent" else None
        at = np.arange(len(X))
        self.players = {m: table[at, s.pick(X, table, domain.points)]
                        for m, s in self.players.items()}

    def inside(self, pos):
        return self.domain.interior_mask[pos] if self.grid else self.domain.contains(pos)

    def points(self, pos):
        return self.domain.points[pos] if self.grid else pos

    def step(self, pos, u, z):
        """One step on uniforms u (B, 3), normals z (B, n): (positions,
        movers, noise mask)."""
        spec, grid = self.spec, self.grid
        row = self.rows[pos] if grid else None
        mover = np.where(u[:, 1] < 0.5, _I, _II)
        if spec.kind == "random_walk":
            mover[:] = _NONE
        elif spec.kind == "space_dependent":
            a = self.alpha[row] if grid else spec.alpha_at(pos)
            mover[~(u[:, 0] < a)] = _NONE
        noise = mover == _NONE
        if grid:   # players hold successor rows
            nxt = self.columns[(u[:, 2] * len(self.columns)).astype(np.intp), row]
            for m, succ in self.players.items():
                nxt[mover == m] = succ[row[mover == m]]
            return nxt, mover, noise
        M = np.empty_like(pos)   # destinations, or jump vectors nu
        for m, s in self.players.items():
            if np.any(mover == m):
                M[mover == m] = _moves(s, spec, pos[mover == m])
        if spec.kind != "directional":
            h = ball_points(z, u[:, 2], spec.epsilon)
            return np.where(noise[:, None], pos + h, M), mover, noise
        # a biased coin jumps by nu or scatters in the disk orthogonal to nu
        # (centered at x, radius epsilon)
        noise = ~(u[:, 0] < float(spec.alpha))
        Y = pos + M
        h = ball_points(z[noise, :-1], u[noise, 2], spec.epsilon)[:, None, :]
        Y[noise] = pos[noise] + (h @ orthonormal_complement(M[noise]))[:, 0]
        return Y, mover, noise


def _play(spec, sI, sII, x0, domain, payoff, rngs, max_steps, trace=None):
    """One episode per generator in rngs, all from x0, played in lockstep."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    game = _Game(spec, sI, sII, domain, payoff)
    x0 = np.asarray(x0, dtype=float)
    B, normals = len(rngs), 0 if game.grid else x0.size
    pos = np.full(B, domain.point_index(x0)) if game.grid else np.tile(x0, (B, 1))
    live = np.flatnonzero(game.inside(pos))
    steps = np.zeros(B, dtype=np.int64)
    for t in range(max_steps):
        if not len(live):
            break
        if t % _BLOCK == 0:   # refill: the next block of each live episode
            u, z = (np.empty((len(live), _BLOCK, k)) for k in (3, normals))
            for i, k in enumerate(live):
                rngs[k].random(out=u[i])
                rngs[k].standard_normal(out=z[i])
            slot = np.arange(len(live))   # buffer row of each live episode
        new, mover, noise = game.step(pos[live], u[slot, t % _BLOCK],
                                      z[slot, t % _BLOCK])
        pos[live] = new
        if trace is not None:   # a batch of one
            trace.append((t + 1, ("none", "I", "II")[mover[0]],
                          "noise" if noise[0] else "player", game.points(new)[0]))
        steps[live] = t + 1
        keep = game.inside(new)
        live, slot = live[keep], slot[keep]
    truncated = np.isin(np.arange(B), live)
    payoffs = np.full(B, -math.inf)
    if isinstance(payoff, ValueField):   # boundary data at the point rows
        payoffs[~truncated] = payoff.values[pos[~truncated]]
    elif len(live) < B:
        P = game.points(pos[~truncated])
        payoffs[~truncated] = _vectorized("payoff", payoff(P), (len(P),))
    return EpisodeBatch(payoffs, game.points(pos), steps, truncated)


def _write_log(target, trace):
    """The CSV of one episode's trace to a path or an open text file."""
    n, own = len(trace[0][3]), isinstance(target, (str, bytes))
    with open(target, "w", newline="") if own else contextlib.nullcontext(target) as fh:
        w = csv.writer(fh)
        w.writerow(["step", "mover", "branch"] + [f"x{i+1}" for i in range(n)])
        w.writerows([t, m, b] + [repr(float(v)) for v in x] for t, m, b, x in trace)


def run_episode(spec: GameSpec, sI, sII, x0, domain, payoff, seed,
                max_steps: int = 10_000, log=None) -> EpisodeOutcome:
    """Play one episode until the token leaves the domain: the one-episode
    batch, so with seed substream(s, k) it is episode k of play_episodes.

    domain is a shape (Ball/Box/Mask) for continuum play or a GridDomain for
    lattice play. payoff is a vectorized callable on (m, n) points, or a
    ValueField holding boundary data on the play domain in grid play.
    Truncated episodes (max_steps transitions without exit) report payoff
    -inf and truncated=True. log, a path or an open text file, receives the
    episode as CSV, one row per step.
    """
    trace = [(0, "none", "start", np.asarray(x0, dtype=float))]
    b = _play(spec, sI, sII, x0, domain, payoff, [_as_rng(seed)], max_steps,
              trace if log is not None else None)
    if log is not None:
        _write_log(log, trace)
    return EpisodeOutcome(float(b.payoffs[0]), b.exit_points[0],
                          int(b.steps[0]), bool(b.truncated[0]))


def play_episodes(spec: GameSpec, sI, sII, x0, domain, payoff, episodes: int,
                  seed: int, max_steps: int = 10_000) -> EpisodeBatch:
    """`episodes` episodes from x0 in lockstep. Episode k draws from
    substream(seed, k), so it does not depend on the batch or its order."""
    if episodes < 2:
        raise ValueError("episodes must be >= 2")
    return _play(spec, sI, sII, x0, domain, payoff,
                 [substream(seed, k) for k in range(episodes)], max_steps)


def estimate_value(spec: GameSpec, sI, sII, x0, domain, payoff,
                   episodes: int, seed: int,
                   max_steps: int = 10_000) -> tuple[float, float, float]:
    """(mean payoff, 95% CI half-width, truncation rate): the
    EpisodeBatch.estimate of play_episodes."""
    return play_episodes(spec, sI, sII, x0, domain, payoff, episodes, seed,
                         max_steps).estimate()


# -- coupled two-token dynamics ----------------------------------------------


def _require_compatible(coupling: CouplingMap, spec: GameSpec):
    if (coupling.kind, spec.kind) not in (("mirror", "random_walk"),
                                          ("mirror", "space_dependent"),
                                          ("rotation", "directional")):
        raise ValueError(f"{coupling.kind} coupling is incompatible with a "
                         f"{spec.kind} noise step")


def _mirrored(x, z, h):
    """h reflected across the bisector of (x, z); h itself on the diagonal."""
    return h if np.linalg.norm(x - z) == 0.0 else mirror_map(x, z, h)


def _pair_moves(strategy, x, z, spec):
    """Both tokens' moves under one player's intent: destinations, or jump
    vectors in directional play. A MirrorOf player makes its inner move at
    x and replays that displacement at z, reflected across the bisector."""
    if not isinstance(strategy, MirrorOf):
        return _moves(strategy, spec, np.stack([x, z]))
    mx = _moves(strategy.inner, spec, x[None, :])[0]
    if spec.kind == "directional":
        return mx, _mirrored(x, z, mx)
    return mx, z + _mirrored(x, z, mx - x)


def coupled_step(coupling: CouplingMap, pair, spec: GameSpec, rng,
                 sI=None, sII=None):
    """Advance (x, z) one step with a shared noise draw.

    Mirror coupling pairs with ball noise (random walk / space dependent),
    rotation coupling with directional disk noise. With both strategies the
    game branches fire with the usual coins (one shared branch coin, the
    mixing weight read at the x token); with neither the step is noise-only.
    Returns an object with .x and .z (same type as `pair`).
    """
    _require_compatible(coupling, spec)
    if spec.kind != "random_walk" and (sI is None) != (sII is None):
        raise ValueError("coupled play needs both strategies or neither")
    rng = _as_rng(rng)
    x, z = np.asarray(pair.x, dtype=float), np.asarray(pair.z, dtype=float)
    mover = None   # the coins as in play, drawn one at a time
    if sI is not None and spec.kind != "random_walk" and (
            spec.kind != "space_dependent" or rng.random() < spec.alpha_at(x)[0]):
        mover = sI if rng.random() < 0.5 else sII
    if mover is not None:
        mx, mz = _pair_moves(mover, x, z, spec)
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

    Draws h at x (the ball, or the disk orthogonal to nu_x) and moves the
    pair by coupling.step: the mirror reflects h across the bisector of
    (x, z) and merges the tokens in the lens; the rotation turns h onto the
    disk orthogonal to nu_z. With antithetic=True consecutive rows use
    (h, -h); n_samples must then be even. coupled_step draws its noise here,
    one row at a time; the batch serves distribution tests and drift.
    """
    _require_compatible(coupling, spec)
    x, z = np.asarray(pair.x, dtype=float), np.asarray(pair.z, dtype=float)
    rng, eps = _as_rng(seed), spec.epsilon
    if spec.kind != "directional":
        H = antithetic_sample(lambda k: uniform_ball(rng, x.size, eps, k),
                              n_samples, antithetic)
    else:
        basis = orthonormal_complement(np.asarray(coupling.nu_x, dtype=float))
        H = antithetic_sample(lambda k: uniform_disk(rng, basis, eps, k),
                              n_samples, antithetic)
    return coupling.step(x, z, H, eps)


def coupled_drift(g, coupling: CouplingMap, pair, spec: GameSpec,
                  n_samples: int, seed: int,
                  antithetic: bool = True) -> tuple[float, float]:
    """MC estimate of E[g(one coupled noise step)] - g(pair), with 95% CI.

    Under the mirror coupling the tokens merge in the lens, so on the same
    draws this is -margin_II.

    g is vectorized: g(X, Z) maps (m, n) arrays of paired points to (m,)
    values; any other output shape raises ValueError, and errors raised by g
    propagate.

    Antithetic (h, -h) pairing cancels the first-order term of smooth g
    exactly, which matters here: the drifts of interest are second order in
    the step size while raw samples fluctuate at first order.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    x, z = np.asarray(pair.x, dtype=float), np.asarray(pair.z, dtype=float)
    if np.array_equal(x, z):
        raise ValueError("pair must be off the diagonal")
    if antithetic and n_samples % 2 != 0:
        n_samples += 1
    X, Z = sample_coupled_noise(coupling, pair, spec, n_samples, seed,
                                antithetic=antithetic)
    base = _vectorized("g", g(x[None, :], z[None, :]), (1,))[0]
    s = _vectorized("g", g(X, Z), (len(X),)) - base
    return _mean_ci(0.5 * (s[0::2] + s[1::2]) if antithetic else s)
