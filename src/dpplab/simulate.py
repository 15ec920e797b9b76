"""Monte Carlo play of the games, plus coupled two-token dynamics.

Play is lockstep, a block at a time: each refill draws every live
episode's next _BLOCK steps, and the live episodes' positions are one
compacted array. Where a step asks no strategy about the current position,
every live episode advances through the whole block and exits are found
once per block: a grid game is a finite Markov chain held as one successor
table with a row per point (an interior row holds the stencil neighbors,
then each player's pick; a strip row names itself, so an exit absorbs), so
a grid step is one table read per episode at a column chosen by its
uniforms; the continuum random walk's positions are the running sums of the
block's moves. A continuum game with players steps once at a time, since
its strategies read the position and must not be asked about a point that
has already exited. An exit's position and step count are written back at
the end of its block, the truncated ones at the end. A position is a point
on a continuum shape (Ball/Box/Mask) or a point row on a GridDomain.
Episode k draws from its own stream in blocks at a fixed stride per step,
so its path does not depend on the batch; run_episode is the one-episode
batch, and play_episodes keys all its streams in one vectorized pass.
Coupled steps advance a pair (x, z) by one shared noise draw through
CouplingMap.step; coupled_drift averages g(next pair) - g(pair).
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import GridDomain, ValueField, _vectorized, orthonormal_complement
from .couplings import CouplingMap, mirror_map
from .operators import GameSpec
from .rng import (antithetic_sample, ball_points, substream, substreams,
                  uniform_ball, uniform_disk)

_MOVE_TOL = 1e-9
# Steps per refill of an episode's draws. A step's stride is three uniforms
# (the game coin: a(x), or jump-or-scatter in directional play; the mover
# coin, I below 1/2; the noise radius, or the stencil column floor(u*S)),
# then n normals in continuum play.
_BLOCK = 64
# Continuum walk episodes advanced through a block together: bounds the
# temporaries of a block's moves and exit tests.
_WALK_ROWS = 16


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
    point rows on a GridDomain.

    On a grid the game is a finite Markov chain, held as one (points,
    S + players) successor table of point rows: an interior row holds the
    S stencil neighbors, then each player's pick; a strip row names itself
    in every column, so an exited episode stays put. A step reads one
    column per episode, chosen by its uniforms."""

    def __init__(self, spec, sI, sII, domain, payoff, batch):
        if isinstance(sI, MirrorOf) or isinstance(sII, MirrorOf):
            raise ValueError("MirrorOf strategies only apply to coupled play")
        if spec.kind != "random_walk" and (sI is None or sII is None):
            raise ValueError(f"{spec.kind} play needs both players' strategies")
        self.spec, self.domain = spec, domain
        self.players = () if spec.kind == "random_walk" else (sI, sII)
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
        P, inner, X = domain.n_points, domain.interior_indices, domain.interior_points
        if callable(spec.alpha):   # alpha at each point row
            self.alpha = np.zeros(P)
            self.alpha[inner] = spec.alpha_at(X)
        self.S = len(domain.stencil(spec.epsilon))
        self.width = self.S + len(self.players)
        rows = np.min_scalar_type(P - 1)   # the smallest integer for a point row
        table = np.empty((P, self.width), dtype=rows)
        table[:] = np.arange(P, dtype=rows)[:, None]   # strip rows: themselves
        stencil, at = domain.neighbor_table(spec.epsilon), np.arange(len(X))
        table[inner, :self.S] = stencil
        for col, s in enumerate(self.players, self.S):
            table[inner, col] = stencil[at, s.pick(X, stencil, domain.points)]
        self.table = table.ravel()   # column c of point row p at p*width + c
        # per-play block buffers: the point rows of a block's path, its
        # stencil or player columns, and one step's flat table indices
        cols = np.min_scalar_type(self.width - 1)
        self.path = np.empty((_BLOCK + 1, batch), dtype=rows)
        self.cols = np.empty((_BLOCK, batch), dtype=cols)
        self.picks = np.empty((_BLOCK, batch), dtype=cols) if self.players else None
        self.flat = np.empty(batch, dtype=np.intp)

    def inside(self, pos):
        return self.domain.interior_mask[pos] if self.grid else self.domain.contains(pos)

    def points(self, pos):
        return self.domain.points[pos] if self.grid else pos

    def _plays(self, pos, u):
        """The game coin: True where a player moves. In a ball game that is
        u0 < alpha(x) (always at alpha 1, never at 0); directional players
        move on every step, and u0 picks jump or scatter."""
        if self.spec.kind == "directional":
            return np.ones(len(u), dtype=bool)
        a = self.spec.alpha
        if callable(a):
            a = self.alpha[pos] if self.grid else self.spec.alpha_at(pos)
        return u[:, 0] < a

    def labels(self, pos, u):
        """(mover, branch) of a batch of one's step from pos on u (1, 3)."""
        if not self._plays(pos, u)[0]:
            return "none", "noise"
        player = self.spec.kind != "directional" or u[0, 0] < self.spec.alpha
        return "I" if u[0, 1] < 0.5 else "II", "player" if player else "noise"

    def _log(self, trace, t, path, u):
        """The trace rows of a batch of one's steps path[0] -> path[1] -> ...
        on its block of uniforms u (1, _BLOCK, 3)."""
        for j in range(len(path) - 1):
            trace.append((t + j + 1, *self.labels(path[j:j + 1], u[:, j]),
                          self.points(path[j + 1:j + 2])[0]))

    def block(self, here, u, z, n, t, trace):
        """Up to n steps of the live episodes at here, on their block of
        draws u (L, _BLOCK, 3) and z (L, _BLOCK, normals): (new, exits),
        where an episode that left the domain on step j of the block has
        exits j (1 <= j <= n) and its exit position in new, and one still
        inside has exits 0 and its position after the n steps. The grid
        and the continuum walk advance every episode through the whole
        block; a continuum game with players steps once at a time, since
        its strategies must only see positions inside the domain."""
        if self.grid:
            return self._grid_block(here, u, n, t, trace)
        if not self.players:
            return self._walk_block(here, u, z, n, t, trace)
        return self._step_block(here, u, z, n, t, trace)

    def _grid_block(self, here, u, n, t, trace):
        L, S, a = len(here), self.S, self.spec.alpha
        path, cols, flat = self.path[:n + 1, :L], self.cols[:n, :L], self.flat[:L]
        coin, mover, radius = u[:, :n].transpose(2, 1, 0)   # (n, L) views
        radius *= S   # the stencil column floor(u*S); nothing reads u[..., 2] after
        np.copyto(cols, radius, casting="unsafe")
        if self.players:   # the mover's column: S for player I, S + 1 for II
            picks = self.picks[:n, :L]
            np.greater_equal(mover, 0.5, out=picks)
            picks += S
            if not callable(a):   # one alpha: the block's coins (all at alpha 1)
                np.copyto(cols, picks, where=coin < a)
        path[0] = here
        for j in range(n):
            col = cols[j]
            if callable(a):
                col = np.where(coin[j] < self.alpha.take(path[j]), picks[j], col)
            np.multiply(path[j], self.width, out=flat, dtype=flat.dtype)
            flat += col
            self.table.take(flat, out=path[j + 1])
        # strip rows name themselves, so an episode outside at the end left
        # on the step after its last interior row
        exits = np.zeros(L, dtype=np.int64)
        out = (~self.inside(path[n])).nonzero()[0]
        if len(out):
            exits[out] = self.inside(path[1:, out]).sum(axis=0) + 1
        if trace is not None:
            self._log(trace, t, path[:(exits[0] or n) + 1, 0], u)
        return path[n], exits

    def _walk_block(self, here, u, z, n, t, trace):
        L, d = here.shape
        new, exits = np.empty_like(here), np.zeros(L, dtype=np.int64)
        for a in range(0, L, _WALK_ROWS):   # bounds the temporaries
            b = min(a + _WALK_ROWS, L)
            Z = z[a:b]
            P = Z.reshape(-1, d)   # the moves, then the positions, in place
            ball_points(P, u[a:b, :, 2].reshape(-1), self.spec.epsilon, out=P)
            Z[:, 0] += here[a:b]
            np.add.accumulate(Z, axis=1, out=Z)
            inside = self.inside(P).reshape(b - a, _BLOCK)[:, :n]
            stay = inside.all(axis=1)
            exits[a:b] = np.where(stay, 0, inside.argmin(axis=1) + 1)
            new[a:b] = Z[np.arange(b - a), np.where(stay, n, exits[a:b]) - 1]
        if trace is not None:
            self._log(trace, t, np.concatenate([here, z[0, :exits[0] or n]]), u)
        return new, exits

    def _step_block(self, here, u, z, n, t, trace):
        L = len(here)
        new, exits = np.empty_like(here), np.zeros(L, dtype=np.int64)
        alive = np.arange(L)
        slot = None   # flat buffer rows of the live episodes, once one exits
        for j in range(n):
            if slot is None:
                uj, zj = u[:, j], z[:, j]
            else:   # takes of flat buffer rows, cheaper than fancy indexing
                at = slot + j
                uj = u.reshape(-1, 3).take(at, axis=0)
                zj = z.reshape(-1, z.shape[2]).take(at, axis=0)
            step = self.step(here, uj, zj)
            if trace is not None:
                trace.append((t + j + 1, *self.labels(here, uj), step[0]))
            keep = self.inside(step)
            if np.count_nonzero(keep) == len(keep):
                here = step
                continue
            kept, gone = keep.nonzero()[0], (~keep).nonzero()[0]
            new[alive[gone]], exits[alive[gone]] = step.take(gone, axis=0), j + 1
            alive, here = alive[kept], step.take(kept, axis=0)
            if not len(alive):
                break
            slot = alive * _BLOCK
        new[alive] = here
        return new, exits

    def step(self, pos, u, z):
        """One continuum step with players on uniforms u (B, 3), normals
        z (B, n): the next positions."""
        spec = self.spec
        first, plays = u[:, 1] < 0.5, self._plays(pos, u)
        Y = np.empty_like(pos)   # destinations, or jump vectors nu in directional play
        # rows are taken by index: boolean row selection of (B, n) arrays
        # costs several times more
        for mask, s in zip((plays & first, plays & ~first), self.players):
            at = mask.nonzero()[0]
            if len(at):
                Y[at] = _moves(s, spec, pos.take(at, axis=0))
        if spec.kind != "directional":   # the ball noise where no player moves
            at = (~plays).nonzero()[0]
            if len(at):
                Y[at] = pos.take(at, axis=0) + ball_points(
                    z.take(at, axis=0), u[at, 2], spec.epsilon)
            return Y
        # a biased coin jumps by nu or scatters in the disk orthogonal to nu
        # (centered at x, radius epsilon)
        at, nu = (~(u[:, 0] < spec.alpha)).nonzero()[0], Y
        Y = pos + nu
        h = ball_points(z.take(at, axis=0)[:, :-1], u[at, 2], spec.epsilon)
        disks = orthonormal_complement(nu.take(at, axis=0))
        Y[at] = pos.take(at, axis=0) + (h[:, None, :] @ disks)[:, 0]
        return Y


def _play(spec, sI, sII, x0, domain, payoff, rngs, max_steps, trace=None):
    """One episode per generator in rngs, all from x0, played in lockstep a
    block at a time. The live episodes' positions are one compacted array;
    an episode's position and step count are written back at the end of
    the block it exits in, and for the truncated ones at the end."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    B = len(rngs)
    game = _Game(spec, sI, sII, domain, payoff, B)
    x0 = np.asarray(x0, dtype=float)
    normals = 0 if game.grid else x0.size
    pos = np.full(B, domain.point_index(x0)) if game.grid else np.tile(x0, (B, 1))
    steps = np.zeros(B, dtype=np.int64)
    live = np.arange(B) if game.inside(pos[:1])[0] else np.arange(0)
    here, t = pos[live], 0
    u, z = (np.empty((len(live), _BLOCK, k)) for k in (3, normals))
    while len(live) and t < max_steps:
        # refill: the next block of each live episode, in order
        for k, uk, zk in zip(live.tolist(), u, z):
            rngs[k].random(out=uk)
            if normals:
                rngs[k].standard_normal(out=zk)
        n = min(_BLOCK, max_steps - t)
        new, exits = game.block(here, u[:len(live)], z[:len(live)], n, t, trace)
        gone, kept = exits.nonzero()[0], (exits == 0).nonzero()[0]
        pos[live[gone]], steps[live[gone]] = new.take(gone, axis=0), t + exits[gone]
        live, here = live[kept], new.take(kept, axis=0)
        t += n
    pos[live], steps[live] = here, t
    truncated = np.zeros(B, dtype=bool)
    truncated[live] = True
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
    return _play(spec, sI, sII, x0, domain, payoff, substreams(seed, episodes),
                 max_steps)


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
        if rng.random() < spec.alpha:
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
    the step size while raw samples fluctuate at first order. With
    antithetic=True an odd n_samples is rounded up to the next even count.
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
