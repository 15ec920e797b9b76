"""One-step dynamic programming operators for tug-of-war type games.

Four step rules share the interface (evaluator, point, spec) -> value:

* tug-of-war: average of the best and worst move in the epsilon-ball;
* random walk: mean over the epsilon-ball;
* space-dependent mix: alpha(x)/2 * (sup+inf) + beta(x) * mean;
* directional noise: optimize alpha*u(x+nu) + beta*(disk mean orthogonal to nu)
  over moves 0 < |nu| <= epsilon, then average the two players' optima.

An evaluator is any callable mapping an (m, n) array of points to (m,) values.
Grid application (`apply_operator`) reads stored values only, one row per
stencil offset of the (S, m) neighbor block, and never interpolates. Each
game is a move menu over those rows, which are contiguous slices of the
values scattered once into the domain's key-box layout. Tug-of-war, the
random walk and the space-dependent game fold max/min/sum down the slices,
so no block is formed. The directional game's moves are the rows of one
(K, S) weight matrix, applied as a matrix product to the block gathered
from the same box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Array, GridDomain, ValueField, orthonormal_complement

Evaluator = Callable[[Array], Array]

KINDS = ("tug_of_war", "random_walk", "space_dependent", "directional")

# r_min convention: the smallest |nu| probed by the directional game's
# move search, as a fraction of epsilon.
R_MIN_FACTOR = 1.0 / 16.0


def alpha_beta_from_p(p: float, n: int) -> tuple[float, float]:
    """Mixing weights (alpha, beta) of the p-degenerate game in dimension n.

    alpha = (p-2)/(p+n), beta = (2+n)/(p+n); p = inf gives (1, 0).

    Raises:
        ValueError: if p < 2 (weights would leave [0, 1]).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if math.isinf(p):
        return 1.0, 0.0
    if p < 2:
        raise ValueError("p must be >= 2 (or inf)")
    return (p - 2.0) / (p + n), (2.0 + n) / (p + n)


@dataclass(frozen=True)
class GameSpec:
    """Which game, at which step size, with which quadrature budgets.

    alpha is a constant in [0, 1] or, for the space-dependent game, a
    vectorized callable x -> alpha(x). direction_count / radius_count /
    disk_node_count parametrize the directional game's move search and disk
    rule; defaults follow the package conventions (64 directions for n = 2,
    128 for n >= 3; radii epsilon * {1, 1/2, 1/4, 1/16}; 9 disk nodes per
    radial line, 16 angular for n >= 3).
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
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.kind == "space_dependent" and self.alpha is None:
            raise ValueError("space_dependent needs alpha")
        if self.kind == "directional":
            if self.alpha is None or not np.isscalar(self.alpha):
                raise ValueError("directional needs a constant alpha")
            if not (0.0 < float(self.alpha) <= 1.0):
                raise ValueError("directional alpha must lie in (0, 1]")
        if self.alpha is not None and not callable(self.alpha):
            a = float(self.alpha)
            if not (0.0 <= a <= 1.0):
                raise ValueError("alpha must lie in [0, 1]")

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

    def alpha_at(self, pts: Array) -> Array:
        pts = np.atleast_2d(pts)
        if callable(self.alpha):
            a = np.asarray(self.alpha(pts), dtype=float)
        else:
            a = np.full(len(pts), float(self.alpha))
        if not np.all((a >= 0) & (a <= 1)):
            raise ValueError("alpha(x) left [0, 1]")
        return a

    @property
    def r_min(self) -> float:
        return self.epsilon * R_MIN_FACTOR


# -- quadrature ------------------------------------------------------------


@dataclass(frozen=True)
class BallRule:
    """Offsets and weights for averaging over an epsilon-ball."""

    offsets: Array   # (m, n)
    weights: Array   # (m,), sums to 1

    @staticmethod
    def product(n: int, epsilon: float, nodes_per_axis: int = 21) -> "BallRule":
        """Equal-weight cube-lattice rule clipped to the closed ball.

        Symmetric under h -> -h, so affine integrands are averaged exactly.
        """
        ax = np.linspace(-epsilon, epsilon, nodes_per_axis)
        grid = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1).reshape(-1, n)
        keep = np.einsum("ij,ij->i", grid, grid) <= epsilon**2 * (1 + 1e-12)
        pts = grid[keep]
        w = np.full(len(pts), 1.0 / len(pts))
        return BallRule(pts, w)


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
    """Radii probed for |nu|: epsilon*2^-j plus the floor r_min."""
    k = max(2, int(spec.radius_count))
    radii = [spec.epsilon * 0.5**j for j in range(k - 1)]
    radii.append(spec.r_min)
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


# -- pointwise step rules ---------------------------------------------------


def step_tug_of_war(u: Evaluator, x, epsilon: float, probe: Array) -> float:
    """0.5*(sup + inf) of u over the probe point set within the epsilon-ball.

    probe holds absolute points; every probe point must lie within the closed
    epsilon-ball of x.
    """
    x = np.asarray(x, dtype=float)
    probe = np.atleast_2d(np.asarray(probe, dtype=float))
    d = probe - x
    if np.any(np.einsum("ij,ij->i", d, d) > epsilon**2 * (1 + 1e-9)):
        raise ValueError("probe point outside the epsilon-ball")
    vals = np.asarray(u(probe), dtype=float)
    return 0.5 * (vals.max() + vals.min())


def step_random_walk(u: Evaluator, x, epsilon: float, rule: BallRule) -> float:
    """Weighted mean of u over x + rule.offsets."""
    x = np.asarray(x, dtype=float)
    vals = np.asarray(u(x + rule.offsets), dtype=float)
    return float(vals @ rule.weights)


def step_space_dependent(u: Evaluator, x, epsilon: float, alpha: float,
                         probe: Array, rule: BallRule) -> float:
    a = float(alpha)
    if not (0.0 <= a <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    tug = step_tug_of_war(u, x, epsilon, probe)
    mean = step_random_walk(u, x, epsilon, rule)
    return a * tug + (1.0 - a) * mean


def step_directional(u: Evaluator, x, spec: GameSpec) -> float:
    """Directional-noise step: 0.5*(sup + inf) over moves of the move value.

    The value of move nu is alpha*u(x+nu) + beta*mean of u over the epsilon-
    disk orthogonal to nu, centered at x. One evaluator call covers every
    jump and every disk node.
    """
    if spec.kind != "directional":
        raise ValueError("spec.kind must be 'directional'")
    x = np.asarray(x, dtype=float)
    n = x.size
    alpha = float(spec.alpha)
    dirs = sphere_directions(n, spec.direction_count or default_direction_count(n))
    jumps = (move_radii(spec)[:, None, None] * dirs).reshape(-1, n)
    pts, wts = disk_rule(n, spec.epsilon, dirs, spec.disk_node_count,
                         spec.disk_angle_count)
    vals = np.asarray(u(x + np.concatenate([jumps, pts.reshape(-1, n)])),
                      dtype=float)
    disk_means = np.vecdot(vals[len(jumps):].reshape(len(dirs), -1), wts)
    moves = alpha * vals[:len(jumps)].reshape(-1, len(dirs)) \
        + (1.0 - alpha) * disk_means
    return 0.5 * (moves.max() + moves.min())


# -- grid application -------------------------------------------------------


def _snap(pts: Array, offs: Array) -> Array:
    """Row of offs nearest each point (the first on ties), computed in blocks
    of at most 2^16 point-offset distances."""
    step = max(1, (1 << 16) // len(offs))
    return np.concatenate([
        np.argmin(((pts[s:s + step, None, :] - offs) ** 2).sum(axis=2), axis=1)
        for s in range(0, len(pts), step)])


def _menu_matrix(domain: GridDomain, spec: GameSpec) -> Array:
    """(K, S) move menu of the directional game on the epsilon-stencil.

    Row k is move k = (radius, direction), radius-major. It holds alpha at
    the stencil column nearest the jump and beta * disk weights at the
    columns nearest the disk quadrature nodes; repeated columns add up.
    Rows are nonnegative and sum to 1, so nearest-offset snapping keeps the
    operator monotone and non-expansive on grids. Cached read-only on the
    domain.
    """
    n = domain.ndim
    count = spec.direction_count or default_direction_count(n)
    alpha = float(spec.alpha)
    key = (round(spec.epsilon / domain.spacing, 9), count, spec.radius_count,
           spec.disk_node_count, spec.disk_angle_count, alpha)
    if key not in domain._menus:
        offs = domain.stencil(spec.epsilon) * domain.spacing  # (S, n)
        dirs = sphere_directions(n, count)
        pts, wts = disk_rule(n, spec.epsilon, dirs, spec.disk_node_count,
                             spec.disk_angle_count)       # (count, q, n)
        disk = np.zeros((count, len(offs)))
        np.add.at(disk, (np.arange(count).repeat(len(wts)),
                         _snap(pts.reshape(-1, n), offs)),
                  np.tile((1.0 - alpha) * wts, count))
        radii = move_radii(spec)
        moves = np.arange(len(radii) * count)
        menu = disk[moves % count]
        menu[moves, _snap((radii[:, None, None] * dirs).reshape(-1, n), offs)] += alpha
        menu.flags.writeable = False
        domain._menus[key] = menu
    return domain._menus[key]


def _midrange(vals: Array) -> Array:
    """0.5 * (max + min) down the rows: the two players' optima averaged."""
    return 0.5 * (vals.max(axis=0) + vals.min(axis=0))


def apply_operator(field: ValueField, spec: GameSpec) -> ValueField:
    """Apply the one-step operator at every interior point of a grid field.

    Strip values pass through unchanged. Deterministic; sup/inf and means are
    taken over the stored grid values via the epsilon-stencil (directional
    quadrature nodes snap to their nearest stencil offset).

    Every kind is the move-menu form
    T(u) = a * 0.5*(max_k W_k.U + min_k W_k.U) + (1 - a) * mean(U), where U
    is the (S, m) block of stencil values, one row per stencil offset. The
    values are scattered once into the domain's key-box layout, where each
    row of U is a contiguous slice. For tug-of-war (a = 1), the random walk
    (a = 0) and the space-dependent game (a = alpha(x), a scalar when alpha
    is constant) the menu is the identity: max, min and sum fold down the
    slices and U is never formed. The directional menu is the matrix of
    `_menu_matrix` with a = 1, applied to U gathered from the box as one
    matrix product in column chunks of at most 4e6 move values.
    """
    dom = field.domain
    layout = dom._layout(spec.epsilon)
    box = layout.scatter(field.values)
    S = len(layout.slices)
    if spec.kind == "random_walk":
        (total,) = layout.fold(box, (np.add,))
        out = total / S
    elif spec.kind == "tug_of_war":
        hi, lo = layout.fold(box, (np.maximum, np.minimum))
        out = 0.5 * (hi + lo)
    elif spec.kind == "space_dependent":
        hi, lo, total = layout.fold(box, (np.maximum, np.minimum, np.add))
        a = spec.alpha_at(dom.interior_points) if callable(spec.alpha) \
            else float(spec.alpha)
        out = a * (0.5 * (hi + lo)) + (1.0 - a) * (total / S)
    else:
        vals = layout.gather(box)
        menu = _menu_matrix(dom, spec)
        step = max(1, int(4e6) // len(menu))
        out = np.concatenate([_midrange(menu @ vals[:, s:s + step])
                              for s in range(0, vals.shape[1], step)])
    return field.with_interior(out)
