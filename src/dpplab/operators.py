"""One-step dynamic programming operators for tug-of-war type games.

One pointwise operator, apply_at(evaluator, point, spec) -> value, plays
every game once from a point:

* the ball games, alpha/2 * (sup + inf) + (1 - alpha) * mean over the
  epsilon-ball: tug-of-war (alpha = 1), the random walk (alpha = 0) and
  the space-dependent mix (alpha(x));
* directional noise: optimize alpha*u(x+nu) + beta*(disk mean orthogonal to nu)
  over moves 0 < |nu| <= epsilon, then average the two players' optima.

An evaluator is any callable mapping an (m, n) array of points to (m,) values.
Grid application reads stored values only, one row per stencil offset of
the (S, m) neighbor block, and never interpolates. Each game is a move menu
over those rows, which are contiguous slices of the values scattered into
the domain's key-box layout: `sweep_box` sweeps a box, and `apply_operator`
wraps it for a ValueField. The ball games fold sums down the slices and
take max/min as window extrema over runs of consecutive slices, so no
block is formed. The directional game's moves are the rows of one (K, S)
weight matrix, applied as a matrix product to the block gathered from the
same box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (BALL_TOL, Array, GridDomain, ValueField, _vectorized,
                   orthonormal_complement, stencil_offsets)

Evaluator = Callable[[Array], Array]

KINDS = ("tug_of_war", "random_walk", "space_dependent", "directional")
# (kind, alpha) of the mixed game's ends; every other kind takes an alpha
HELD_ALPHA = (("tug_of_war", 1.0), ("random_walk", 0.0))

# r_min convention: the smallest |nu| probed by the directional game's
# move search, as a fraction of epsilon.
R_MIN_FACTOR = 1.0 / 16.0


def alpha_beta_from_p(p: float, n: int) -> tuple[float, float]:
    """Weights (alpha, beta) of the space-dependent game for the p-Laplacian
    in dimension n, whose ball noise has second moment eps^2/(n+2): alpha =
    (p-2)/(p+n), beta = (2+n)/(p+n); p = inf gives (1, 0). ValueError for
    p < 2 (weights would leave [0, 1]) or n < 1."""
    return _weights_from_p(p, n, 2.0, p >= 2)


def directional_alpha_beta_from_p(p: float, n: int) -> tuple[float, float]:
    """The directional game's weights, whose disk noise has second moment
    eps^2/(n+1): alpha = (p-1)/(p+n), beta = (n+1)/(p+n); p = inf gives
    (1, 0). ValueError for p <= 1 (alpha would be 0) or n < 1."""
    return _weights_from_p(p, n, 1.0, p > 1)


def _weights_from_p(p, n, q, admitted) -> tuple[float, float]:
    if n < 1 or not admitted:   # a nan p is never admitted
        raise ValueError(f"no weights for p = {p} in dimension {n}")
    if p == math.inf:
        return 1.0, 0.0
    return (p - q) / (p + n), (q + n) / (p + n)


@dataclass(frozen=True)
class GameSpec:
    """Which game, at which step size, with which quadrature budgets.

    alpha is the players' share of a ball game's step, the rest being ball
    noise: 1 in tug-of-war and 0 in the random walk (HELD_ALPHA; no other
    is accepted), a constant in [0, 1] or a vectorized callable x ->
    alpha(x) in the space-dependent game. A directional player moves every
    step, and the constant alpha in (0, 1] weighs the jump against the disk
    noise. A constant is stored as a float.

    direction_count / radius_count / disk_node_count parametrize the
    directional game's move search and disk rule; defaults follow the
    package conventions (64 directions for n = 2, 128 for n >= 3; radii
    epsilon * {1, 1/2, 1/4, 1/16}; 9 disk nodes per radial line, 16 angular
    for n >= 3).
    """

    kind: str
    epsilon: float
    alpha: object = None
    direction_count: Optional[int] = None
    radius_count: int = 4
    disk_node_count: int = 9
    disk_angle_count: int = 16

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown game kind {self.kind!r}; pick from {KINDS}")
        if not 0 < self.epsilon < math.inf:   # nan fails both comparisons
            raise ValueError("epsilon must be positive and finite")
        alpha = dict(HELD_ALPHA).get(self.kind, self.alpha)
        if self.alpha not in (alpha, None):   # an array alpha matches itself
            raise ValueError(f"{self.kind} holds alpha = {alpha}, "
                             f"got {self.alpha!r}")
        if alpha is None:
            raise ValueError(f"{self.kind} needs alpha")
        if not callable(alpha):
            alpha = float(alpha)
            if not 0.0 <= alpha <= 1.0:
                raise ValueError("alpha must lie in [0, 1]")
        if self.kind == "directional" and (callable(alpha) or alpha == 0.0):
            raise ValueError("directional needs a constant alpha in (0, 1]")
        object.__setattr__(self, "alpha", alpha)
        check_counts(self)

    @staticmethod
    def tug_of_war(epsilon: float) -> "GameSpec":
        return GameSpec("tug_of_war", epsilon)

    @staticmethod
    def random_walk(epsilon: float) -> "GameSpec":
        return GameSpec("random_walk", epsilon)

    @staticmethod
    def space_dependent(epsilon: float, alpha) -> "GameSpec":
        return GameSpec("space_dependent", epsilon, alpha)

    @staticmethod
    def directional(epsilon: float, alpha: float, **kw) -> "GameSpec":
        return GameSpec("directional", epsilon, alpha, **kw)

    @property
    def players(self) -> bool:
        """Whether the game has players: alpha is not identically 0."""
        return callable(self.alpha) or self.alpha != 0.0

    def alpha_at(self, pts: Array) -> Array:
        """alpha at each row of the (m, n) points: a callable's (m,) values
        are checked for shape and range."""
        pts = np.atleast_2d(pts)
        if not callable(self.alpha):
            return np.full(len(pts), self.alpha)
        a = _vectorized("alpha", self.alpha(pts), (len(pts),))
        if not np.all((a >= 0) & (a <= 1)):
            raise ValueError("alpha(x) left [0, 1]")
        return a


def check_counts(counts) -> None:
    """Reject the counts of a GameSpec or PairSearch no move set can use."""
    k = counts.direction_count
    if k is not None and (k < 2 or k % 2):
        raise ValueError("direction_count must be None or even and >= 2")
    if counts.radius_count < 2:
        raise ValueError("radius_count must be >= 2")
    if counts.disk_node_count < 1:
        raise ValueError("disk_node_count must be >= 1")
    if counts.disk_angle_count < 2 or counts.disk_angle_count % 2:
        raise ValueError("disk_angle_count must be even and >= 2")


# -- quadrature ------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def ball_lattice(n: int, epsilon: float, nodes_per_axis: int = 21) -> Array:
    """(M, n) moves of the cube lattice clipped to the closed epsilon-ball,
    in lattice order; their equal-weight mean is the ball average. Built
    once per key, read-only.

    Symmetric under h -> -h, so affine integrands are averaged exactly.
    """
    ax = np.linspace(-epsilon, epsilon, nodes_per_axis)
    grid = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1).reshape(-1, n)
    keep = np.einsum("ij,ij->i", grid, grid) <= epsilon**2 * (1 + BALL_TOL)
    pts = grid[keep]
    pts.flags.writeable = False
    return pts


def sphere_directions(n: int, count: int) -> Array:
    """Deterministic antipodally-symmetric unit directions, (count, n).

    count must be even. n = 2 uses equally spaced angles; n = 3 a Fibonacci
    hemisphere plus antipodes; n >= 4 a seeded low-discrepancy construction.
    """
    if count % 2 != 0 or count < 2:
        raise ValueError("direction count must be even and >= 2")
    if n == 2:
        th = 2.0 * np.pi * np.arange(count) / count
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    half = count // 2
    if n == 3:
        k = np.arange(half) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * k
        z = 1.0 - k / half            # hemisphere z in (0, 1]
        r = np.sqrt(np.maximum(0.0, 1.0 - z**2))
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        gen = np.random.Generator(np.random.Philox(key=np.array([n, count], dtype=np.uint64)))
        pts = gen.standard_normal((half, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return np.concatenate([pts, -pts], axis=0)


def default_direction_count(n: int) -> int:
    return 64 if n == 2 else 128


def move_radii(spec: GameSpec) -> Array:
    """Radii probed for |nu|, decreasing: epsilon * 2^-j for j < radius_count
    - 1 and the floor r_min = epsilon/16, equal radii merged, so
    radius_count=6 gives 5 radii."""
    return _radii(spec.epsilon, spec.radius_count)


def _radii(epsilon: float, count: int) -> Array:
    radii = [epsilon * 0.5**j for j in range(int(count) - 1)]
    radii.append(epsilon * R_MIN_FACTOR)
    return np.unique(np.asarray(radii))[::-1]


@functools.lru_cache(maxsize=None)
def _disk_template(n: int, nodes: int, angles: int) -> tuple:
    """Read-only local disk quadrature, built once per key. n = 2: the
    Gauss-Legendre nodes and normalized weights (angles unused, pass 0);
    n >= 3: the radial factors u^(1/(n-1)) of the volume coordinates u,
    the (n-1)-sphere angle set and the tensor weights."""
    if n == 2:
        x, w = np.polynomial.legendre.leggauss(nodes)
        parts = (x, w / w.sum())
    else:
        x, wu = _disk_template(2, nodes, 0)
        u = 0.5 * (x + 1.0)                   # volume coordinate in (0, 1)
        parts = (u ** (1.0 / (n - 1)), sphere_directions(n - 1, angles),
                 np.repeat(wu / angles, angles))
    for a in parts:
        a.flags.writeable = False
    return parts


def disk_rule(n: int, epsilon: float, nu: Array, nodes: int = 9,
              angles: int = 16) -> tuple[Array, Array]:
    """Quadrature (points, weights) for the mean over the (n-1)-disk.

    The disk has radius epsilon, is centered at the origin, and lies in the
    hyperplane orthogonal to nu. n = 2: Gauss-Legendre on the segment;
    n >= 3: Gauss-Legendre in the radial volume coordinate tensored with a
    symmetric angular set. Exact for affine integrands by symmetry.

    nu is one direction, giving (q, n) points, or a (D, n) stack, giving
    (D, q, n) points, each direction the same bits as its own call; the
    read-only (q,) weights come from a template cached per (n, nodes, angles).
    """
    basis = orthonormal_complement(nu)  # (n-1, n) or (D, n-1, n)
    if n == 2:
        x, w = _disk_template(2, nodes, 0)
        return (x * epsilon)[:, None] * basis[..., 0, None, :], w
    rad, dirs, wts = _disk_template(n, nodes, angles)
    local = dirs @ basis                      # (angles, n) per direction
    pts = (epsilon * rad)[:, None, None] * local[..., None, :, :]
    return pts.reshape(basis.shape[:-2] + (-1, n)), wts


def move_set(n: int, epsilon: float, counts) -> tuple:
    """The directional moves with the counts of a GameSpec or PairSearch:
    directions (K, n), jumps radii x directions, radius-major (R K, n), the
    disks orthogonal to the directions (K, q, n) and their weights (q,).
    Read-only, built once per key (n, epsilon and the counts)."""
    K = counts.direction_count or default_direction_count(n)
    return _move_set(n, epsilon, K, counts.radius_count, counts.disk_node_count,
                     counts.disk_angle_count)


@functools.lru_cache(maxsize=64)
def _move_set(n: int, epsilon: float, direction_count: int, radius_count: int,
              disk_node_count: int, disk_angle_count: int) -> tuple:
    dirs = sphere_directions(n, direction_count)
    jumps = (_radii(epsilon, radius_count)[:, None, None] * dirs).reshape(-1, n)
    disks, weights = disk_rule(n, epsilon, dirs, disk_node_count,
                               disk_angle_count)
    for a in (dirs, jumps, disks):
        a.flags.writeable = False
    return dirs, jumps, disks, weights


# -- pointwise operator -----------------------------------------------------


def apply_at(u: Evaluator, x, spec: GameSpec,
             moves: Optional[Array] = None) -> float:
    """T u at the single point x: the one-step value of the game of spec.

    The ball games read v = u(x + moves) once and return a * 0.5*(max v +
    min v) + (1 - a) * mean v, a = spec.alpha_at(x), or its one term at a = 0
    or 1; moves are ball offsets (ball_lattice by default, the scaled grid
    stencil to check the sweep), and a move outside the closed epsilon-ball
    raises ValueError. The directional game takes its moves from spec: the
    value of move nu is alpha*u(x+nu) + beta*mean of u over the epsilon-disk
    orthogonal to nu, centered at x, and one evaluator call covers every
    jump and every disk node.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if spec.kind == "directional":
        if moves is not None:
            raise ValueError("the directional game takes its moves from spec")
        dirs, jumps, disks, wts = move_set(n, spec.epsilon, spec)
        vals = np.asarray(u(x + np.concatenate([jumps, disks.reshape(-1, n)])),
                          dtype=float)
        disk_means = np.vecdot(vals[len(jumps):].reshape(len(dirs), -1), wts)
        worths = spec.alpha * vals[:len(jumps)].reshape(-1, len(dirs)) \
            + (1.0 - spec.alpha) * disk_means
        return 0.5 * (worths.max() + worths.min())
    moves = ball_lattice(n, spec.epsilon) if moves is None \
        else np.atleast_2d(np.asarray(moves, dtype=float))
    if np.any(np.einsum("ij,ij->i", moves, moves) > spec.epsilon**2 * (1 + 1e-9)):
        raise ValueError("move outside the epsilon-ball")
    v = np.asarray(u(x + moves), dtype=float)
    a = spec.alpha_at(x)[0]
    if a == 0.0:
        return float(v.mean())
    tug = _midrange(v)
    if a == 1.0:
        return float(tug)
    return float(a * tug + (1.0 - a) * v.mean())


# -- grid application -------------------------------------------------------


def _snap(pts: Array, offs: Array) -> Array:
    """Row of offs nearest each point (the first on ties), computed in blocks
    of at most 2^16 point-offset distances."""
    step = max(1, (1 << 16) // len(offs))
    return np.concatenate([
        np.argmin(((pts[s:s + step, None, :] - offs) ** 2).sum(axis=2), axis=1)
        for s in range(0, len(pts), step)])


@functools.lru_cache(maxsize=32)
def _grid_menu(n: int, spacing: float, spec: GameSpec) -> Array:
    """(K, S) move menu of the directional game on the epsilon-stencil.

    Row k is move k = (radius, direction), radius-major. It holds alpha at
    the stencil column nearest the jump and beta * disk weights at the
    columns nearest the disk quadrature nodes; repeated columns add up.
    Rows are nonnegative and sum to 1, so nearest-offset snapping keeps the
    operator monotone and non-expansive on grids. Read-only, and built once
    per (n, spacing, spec): the values it depends on, not the domain.
    """
    offs = stencil_offsets(n, spacing, spec.epsilon) * spacing  # (S, n)
    dirs, jumps, disks, wts = move_set(n, spec.epsilon, spec)
    K = len(dirs)
    disk = np.zeros((K, len(offs)))
    cols = _snap(disks.reshape(-1, n), offs).reshape(K, -1)   # (K, q)
    np.add.at(disk, (np.arange(K)[:, None], cols), (1.0 - spec.alpha) * wts)
    menu = np.tile(disk, (len(jumps) // K, 1))
    menu[np.arange(len(jumps)), _snap(jumps, offs)] += spec.alpha
    menu.flags.writeable = False
    return menu


@functools.lru_cache(maxsize=32)
def _distinct_rows(n: int, spacing: float, spec: GameSpec) -> Array:
    """The distinct rows of `_grid_menu`, in the order of their first
    occurrence; read-only and built once per (n, spacing, spec)."""
    menu = _grid_menu(n, spacing, spec)
    first = np.unique(menu, axis=0, return_index=True)[1]
    rows = menu[np.sort(first)]
    rows.flags.writeable = False
    return rows


def _midrange(vals: Array) -> Array:
    """0.5 * (max + min) down the rows: the two players' optima averaged."""
    return 0.5 * (vals.max(axis=0) + vals.min(axis=0))


def apply_operator(field: ValueField, spec: GameSpec) -> ValueField:
    """Apply the one-step operator at every interior point of a grid field.

    Strip values pass through unchanged. Deterministic; sup/inf and means are
    taken over the stored grid values via the epsilon-stencil (directional
    quadrature nodes snap to their nearest stencil offset). The values are
    scattered into the domain's key-box layout and swept by `sweep_box`.
    """
    box = field.domain._layout(spec.epsilon).scatter(field.values)
    return field.with_interior(sweep_box(box, field.domain, spec))


def sweep_box(box: Array, domain: GridDomain, spec: GameSpec,
              alpha: Optional[Array] = None,
              index: Optional[Array] = None) -> Array:
    """The (m,) interior image T(u) of values u laid out in the domain's
    key-box layout of spec.epsilon (`_Layout.scatter`); box is only read.

    Every kind is the move-menu form
    T(u) = a * 0.5*(max_k W_k.U + min_k W_k.U) + (1 - a) * mean(U), where U
    is the (S, m) block of stencil values, one row per stencil offset, each
    a contiguous slice of the box. In the ball games a is spec.alpha and the
    menu is the identity, so U is never formed: the sum folds down the
    slices, and max and min fold window extrema over runs of consecutive
    slices (`_Layout.runs_fold`); a = 0 or 1 takes its one term alone. The
    directional menu is the matrix of `_grid_menu` with a = 1, applied to U
    gathered from the box as one matrix product in column chunks of at most
    4e6 move values. Only its distinct rows are multiplied: the midrange
    takes max and min, which repeated rows cannot move.

    A caller that sweeps many times can pass what stays fixed between
    sweeps: alpha, a callable alpha read over the interior points
    (`spec.alpha_at`), and index, the directional block's gather index
    (`_Layout.block_index`); without them each sweep derives its own.
    """
    layout = domain._layout(spec.epsilon)
    S = len(layout.slices)
    if spec.kind == "directional":
        vals = layout.gather(box) if index is None else box.take(index)
        menu = _distinct_rows(domain.ndim, domain.spacing, spec)
        step = max(1, int(4e6) // len(menu))
        return np.concatenate([_midrange(menu @ vals[:, s:s + step])
                               for s in range(0, vals.shape[1], step)])
    a = spec.alpha   # a callable equals neither end
    if a == 0.0:
        return layout.fold(box, np.add) / S
    mid = 0.5 * (layout.runs_fold(box, np.maximum)
                 + layout.runs_fold(box, np.minimum))
    if a == 1.0:
        return mid
    if callable(a):
        a = alpha if alpha is not None else spec.alpha_at(domain.interior_points)
    return a * mid + (1.0 - a) * (layout.fold(box, np.add) / S)
