"""Signed slack of the four one-step comparison inequalities.

Each margin routine evaluates g(x, z) minus the corresponding one-step
average/extremum of g, so a positive value means the inequality holds at
(x, z) to quadrature resolution. certify_region sweeps stratified pair
samples and serializes the results; geometry helpers check the two ball
facts the near-regime arguments lean on.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .comparison import ComparisonParams, _axes, f_axes, f_terms_on_grid
from .core import BALL_TOL, Array, _json_text, _pack, _vectorized, ball_volume
from .couplings import CouplingMap, clamp_axes, rotate, rotation_frames
from .operators import ball_lattice, check_counts, disk_rule, move_set
from .rng import antithetic_sample, stream_key, substream, uniform_ball

INEQUALITIES = ("I", "II", "III", "T")


# -- search / quadrature schemes ---------------------------------------------


@dataclass(frozen=True)
class GridSearch:
    """Extremum search over a ball: cube lattice clipped to the ball."""

    nodes_per_axis: int = 41

    def __post_init__(self):
        if self.nodes_per_axis < 3:
            raise ValueError("need at least 3 nodes per axis")


@dataclass(frozen=True)
class BallMC:
    """Monte Carlo mean over the noise ball."""

    samples: int = 1_000_000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("need at least 2 samples")


@dataclass(frozen=True)
class NestedSearch:
    """Outer sup grid, inner MC integral, innermost inf grid."""

    outer_nodes_per_axis: int = 41
    inner_samples: int = 100_000
    inf_nodes_per_axis: int = 41
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if min(self.outer_nodes_per_axis, self.inf_nodes_per_axis) < 3:
            raise ValueError("need at least 3 nodes per axis")
        if self.inner_samples < 2:
            raise ValueError("need at least 2 inner samples")


@dataclass(frozen=True)
class PairSearch:
    """Jump-pair discretization for the directional inequality."""

    direction_count: int | None = None
    radius_count: int = 4
    disk_node_count: int = 9
    disk_angle_count: int = 16

    __post_init__ = check_counts


@dataclass(frozen=True)
class _AtPair:
    """A ComparisonParams handed to a margin with f already formed at its
    pair: gxz = f(x, z) and gmid = f at the midpoint pair (m, m). Margins
    read both from it instead of evaluating f on one row."""

    params: ComparisonParams
    gxz: float
    gmid: float


def _as_f(g):
    """g as the margins evaluate it: a ComparisonParams (or an _AtPair's),
    whose blocks go through f_axes, or a callable pair function on rows."""
    if isinstance(g, _AtPair):
        return g.params
    if isinstance(g, ComparisonParams):
        return g
    if not callable(g):
        raise TypeError("g must be callable or a ComparisonParams")
    return g


def _distinct_pair(g, x, z) -> tuple:
    """g as margins evaluate it and x, z as float points; x == z is refused."""
    f = _as_f(g)
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    if np.array_equal(x, z):
        raise ValueError("x and z must differ")
    return f, x, z


def _ball_draws(quadrature, m: int, n: int, epsilon: float) -> Array:
    """m uniform draws of the epsilon-ball from the scheme's seed, m rounded
    up to even when the scheme pairs its draws antithetically."""
    rng = substream(quadrature.seed)
    return antithetic_sample(lambda k: uniform_ball(rng, n, epsilon, k),
                             m + m % 2 if quadrature.antithetic else m,
                             quadrature.antithetic)


def _values(f, xs, zs) -> Array:
    """f at the pairs whose k-th coordinates are xs[k] and zs[k], arrays that
    broadcast together, shaped like their broadcast: f_axes for a
    ComparisonParams, else the callable on the broadcast's rows (for a
    product block x (a, 1) against z (1, b), the np.repeat / np.tile rows)."""
    if isinstance(f, ComparisonParams):
        return f_axes(xs, zs, f)
    shape = np.broadcast_shapes(*(np.shape(a) for a in (*xs, *zs)))

    def rows(cs):
        return np.stack([np.broadcast_to(c, shape) for c in cs],
                        axis=-1).reshape(-1, len(cs))

    X = rows(xs)
    return _vectorized("g", f(X, rows(zs)), (len(X),)).reshape(shape)


def _g_at(g, x, z) -> float:
    """f(x, z) at one pair, read from an _AtPair where certify_region formed it."""
    if isinstance(g, _AtPair):
        return g.gxz
    return float(_values(_as_f(g), _axes(x[None]), _axes(z[None]))[0])


def _g_mid(g, x, z) -> float:
    """f at the midpoint pair (m, m), m = (x + z)/2, likewise."""
    if isinstance(g, _AtPair):
        return g.gmid
    mid = 0.5 * (x + z)
    return _g_at(g, mid, mid)


def _separations(X, Z, epsilon: float) -> tuple[Array, Array, Array]:
    """Each pair's separation t = |x - z| (P,), one BLAS dot per pair as in
    np.linalg.norm, its unit u = (x - z)/t (P, n) and its separation-direction
    moves (P, 4, n): full-step pushes along +-u plus the half-gap steps
    that can close the pair."""
    D = X - Z
    t = np.sqrt(np.vecdot(D, D))
    u = D / t[:, None]
    meet = np.minimum(epsilon, 0.5 * t)[:, None]
    return t, u, np.stack([epsilon * u, -epsilon * u, meet * u, -meet * u],
                          axis=1)


def _axis_pushes(x, z, epsilon: float) -> np.ndarray:
    """The separation-direction moves of one pair (4, n); none on the diagonal."""
    if float(np.linalg.norm(x - z)) == 0.0:
        return np.zeros((0, x.size))
    return _separations(x[None], z[None], epsilon)[2][0]


def _product_blocks(f, XN, ZN, rows: int):
    """f over XN x ZN, one (rows, len(ZN)) block per evaluation."""
    for s in range(0, len(XN), rows):
        yield _values(f, _axes(XN[s:s + rows, None]), _axes(ZN[None]))


def _product_extrema(f, XN, ZN, chunk: int = 1 << 20) -> tuple[float, float]:
    hi, lo = -math.inf, math.inf
    for v in _product_blocks(f, XN, ZN, max(1, chunk // max(1, len(ZN)))):
        hi = max(hi, float(v.max()))
        lo = min(lo, float(v.min()))
    return hi, lo


# -- the four margins ---------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _lattice_keys(n: int, epsilon: float, nodes: int) -> Array:
    """Each ball_lattice node's integer coordinates k (0..nodes-1 per axis)
    as one flat key over the (2 nodes - 1)^n box, read-only. Moves a, b have
    a - b at box key K(a) - K(b) + center and a + b at K(a) + K(b)."""
    offs = ball_lattice(n, epsilon, nodes)
    k = np.rint((offs + epsilon) * ((nodes - 1) / (2.0 * epsilon)))
    keys = _pack(k.astype(np.intp).T, (0,) * n, (2 * nodes - 1,) * n)
    keys.flags.writeable = False
    return keys


def _lattice_extrema(params: ComparisonParams, x, z, epsilon: float,
                     nodes: int) -> tuple[float, float]:
    """Max and min of f over the product of the two move lattices.

    With step h = 2 eps/(nodes - 1), the move differences a - b and sums
    a + b both lie on the lattice j h, |j| < nodes, per axis: f's three
    terms are evaluated once per lattice node of x - z + (a - b) and
    x + z + (a + b), then combined by index over every pair of moves.
    """
    keys = _lattice_keys(x.size, epsilon, nodes)
    side = 2 * nodes - 1
    center = (side**x.size - 1) // 2
    c = (2.0 * epsilon / (nodes - 1)) * np.arange(1 - nodes, nodes)
    P, F, S = (a.reshape(-1) for a in f_terms_on_grid(x - z, x + z, c, params))
    hi, lo = -math.inf, math.inf
    # blocks of at most 2^14 pairs keep the temporaries cache-sized: in 3D
    # at 13 nodes about 1.7x faster than 2^16; in 2D one block either way
    rows = max(1, (1 << 14) // len(keys))
    for r in range(0, len(keys), rows):
        kr = keys[r:r + rows, None]
        diff = kr + center - keys
        v = np.take(P, diff)
        v += np.take(S, kr + keys)
        v -= np.take(F, diff)
        hi = max(hi, float(v.max()))
        lo = min(lo, float(v.min()))
    return hi, lo


def margin_I(g, x, z, epsilon: float, search: GridSearch = GridSearch()) -> float:
    """g(x,z) - (sup g + inf g)/2 over the product of the two move balls.

    The lattice-by-lattice block of the product is read off the difference
    lattice for a ComparisonParams (_lattice_extrema) and evaluated as a
    product block for a plain callable g; the rows and columns of the
    separation-direction pushes are _values blocks for both.
    """
    f = _as_f(g)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    offs = ball_lattice(x.size, epsilon, search.nodes_per_axis)
    pushes = _axis_pushes(x, z, epsilon)
    if isinstance(f, ComparisonParams):
        hi, lo = _lattice_extrema(f, x, z, epsilon, search.nodes_per_axis)
    else:
        hi, lo = _product_extrema(f, x + offs, z + offs)
    if len(pushes):   # push rows against every move, push columns
        moves = np.vstack([offs, pushes])
        for a, b in ((x + pushes, z + moves), (x + offs, z + pushes)):
            v = _values(f, _axes(a[:, None]), _axes(b[None]))
            hi, lo = max(hi, float(v.max())), min(lo, float(v.min()))
    t = float(np.linalg.norm(x - z))
    if 0.0 < t <= 2.0 * epsilon:
        # the meet push built from x + h, z - h never lands on the diagonal
        # exactly in floats, which matters for staircase-shaped g; offer the
        # midpoint pair directly
        v = _g_mid(g, x, z)
        hi = max(hi, v)
        lo = min(lo, v)
    return _g_at(g, x, z) - 0.5 * (hi + lo)


def margin_II(g, x, z, epsilon: float, quadrature: BallMC = BallMC()) -> float:
    """Slack of the mirrored-walk inequality: g(x, z) - mean g(X, Z), with
    (X, Z) the mirror coupling's step on uniform draws h of the noise ball.

    Outside the shifted ball B(z-x, eps) the pair advances to (x+h, z+P(h));
    inside it the tokens merge at y = x+h, which is uniform on the ball
    intersection given that event. The two events partition the ball, so
    constants come out with margin exactly zero.
    """
    f, x, z = _distinct_pair(g, x, z)
    H = _ball_draws(quadrature, quadrature.samples, x.size, epsilon)
    X, Z = CouplingMap.mirror(x, z).step(x, z, H, epsilon)
    return _g_at(g, x, z) - float(_values(f, _axes(X), _axes(Z)).mean())


def margin_III(g, x, z, epsilon: float,
               quadrature: NestedSearch = NestedSearch()) -> float:
    """Slack of the clamped half-and-half inequality.

    Inner integral over y in B(z, eps) by MC; outer sup over x' and inner
    inf over x~ by grid search, the inf always offered clamp_projection(x,
    eps, y) and, when reachable, y itself (both moves the argument uses).
    With equal outer and inf node counts the two searches share their
    g(x', y) blocks, each evaluated once.
    """
    f, x, z = _distinct_pair(g, x, z)
    n = x.size
    H = _ball_draws(quadrature, quadrature.inner_samples, n, epsilon)
    Y, D = np.empty(H.shape), np.empty(H.shape)
    for k in range(n):   # the inner draws z + H, and their offsets from x
        np.add(z[k], H[:, k], out=Y[:, k])
        np.subtract(Y[:, k], x[k], out=D[:, k])
    Ys = _axes(Y)
    pushes = _axis_pushes(x, z, epsilon)

    def moves_against_Y(nodes):   # g(x', y) blocks, x' over the ball + pushes
        XN = x + np.vstack([ball_lattice(n, epsilon, nodes), pushes])
        return _product_blocks(f, XN, Y, 64)

    outer = quadrature.outer_nodes_per_axis
    shared = quadrature.inf_nodes_per_axis == outer
    sup_mean, best = -math.inf, np.full(len(Y), math.inf)
    for v in moves_against_Y(outer):
        sup_mean = max(sup_mean, float(v.mean(axis=1).max()))
        if shared:
            best = np.minimum(best, v.min(axis=0))
    if not shared:
        for v in moves_against_Y(quadrature.inf_nodes_per_axis):
            best = np.minimum(best, v.min(axis=0))
    best = np.minimum(best, _values(f, clamp_axes(x, epsilon, Ys), Ys))
    reach = np.einsum("ij,ij->i", D, D) <= epsilon**2 * (1.0 + BALL_TOL)
    if np.any(reach):
        Yr = [a[reach] for a in Ys]
        best[reach] = np.minimum(best[reach], _values(f, Yr, Yr))
    inf_mean = float(best.mean())

    return _g_at(g, x, z) - 0.5 * (sup_mean + inf_mean)


@functools.lru_cache(maxsize=64)
def _jump_tables(n: int, epsilon: float, quadrature: PairSearch) -> tuple:
    """margin_T's pair-free part, built once per key and read-only: the
    shared move set's directions (K, n), jumps (R K, n), disks (K, q, n) and
    weights (q,), then each direction's disk rotated onto every direction
    (K, K, q, n)."""
    dirs, jumps, H, w = move_set(n, epsilon, quadrature)
    rotated = _rotated_disks(H, dirs, dirs)
    rotated.flags.writeable = False
    return dirs, jumps, H, w, rotated


def _rotated_disks(H, src, dst) -> Array:
    """Disks H (..., S, q, n) of the units src (..., S, n) moved by the
    minimal rotations src[s] -> dst[t], dst (..., T, n), as (..., S, T, q,
    n), the leading axes broadcast; parallel and antipodal pairs keep H."""
    c, cos, sin, ident = rotation_frames(src[..., :, None, :],
                                         dst[..., None, :, :])
    Hs = H[..., :, None, :, :]
    RH = rotate(Hs, src[..., :, None, None, :], c[..., None, :],
                cos[..., None, None], sin[..., None, None])
    return np.where(ident[..., None, None], Hs, RH)


# f values per block of margin_T: the jump block and the disk block of a
# chunk of pairs stay near this size
_T_BLOCK = 1 << 14


def _margins_T(f, X, Z, epsilon: float, alpha: float, quadrature: PairSearch,
               gxz: Array, gmid: Array) -> Array:
    """margin_T at the pairs (X[p], Z[p]), off the diagonal, given g there
    (gxz) and at their midpoint pairs (gmid).

    The pairs go in chunks of about _T_BLOCK / (D^2 q) pairs, each chunk's
    pushes, +-u disks, rotations and blocks formed as one array over it.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    n = X.shape[1]
    dirs, jumps, Hd, w, RHd = _jump_tables(n, epsilon, quadrature)
    K, q = Hd.shape[:2]
    D = K + 2
    w_disk = 1.0 - alpha
    which = np.concatenate([np.tile(np.arange(K), len(jumps) // K),
                            [K, K + 1, K, K + 1]])            # move -> unit
    chunk = max(1, _T_BLOCK // (D * D * q))
    out = np.empty(len(X))
    for c0 in range(0, len(X), chunk):
        x, z = X[c0:c0 + chunk], Z[c0:c0 + chunk]
        P = len(x)
        t, u, pushes = _separations(x, z, epsilon)  # +-eps u, +-meet u
        NU = np.concatenate([np.broadcast_to(jumps, (P,) + jumps.shape),
                             pushes], axis=1)                   # (P, M, n)
        M = NU.shape[1]
        xs, zs = _axes(x), _axes(z)
        jump = _values(f, [(a[:, None] + b)[:, :, None]
                           for a, b in zip(xs, _axes(NU))],
                       [(a[:, None] + b)[:, None, :]
                        for a, b in zip(zs, _axes(NU))])
        # jump pair (-meet u, +meet u) is the merge; float dust off the
        # diagonal misprices staircase-shaped g, so read it off gmid
        merge = np.flatnonzero(t < 2.0 * epsilon)
        jump[merge, M - 1, M - 2] = gmid[c0 + merge]
        if w_disk == 0.0:
            tg = 0.5 * alpha * jump
        else:
            U = np.stack([u, -u], axis=1)                       # (P, 2, n)
            HU, _ = disk_rule(n, epsilon, U.reshape(-1, n),
                              quadrature.disk_node_count,
                              quadrature.disk_angle_count)
            HU = HU.reshape(P, 2, q, n)
            units = np.concatenate([np.broadcast_to(dirs, (P,) + dirs.shape),
                                    U], axis=1)                 # (P, D, n)
            # coordinate planes of the disks at x (P, D, q) and of their
            # rotations at z (P, D, D, q): source, target, node
            XH = [np.concatenate([a[:, None, None] + b, a[:, None, None] + c],
                                 axis=1)
                  for a, b, c in zip(xs, _axes(Hd), _axes(HU))]
            R1 = _rotated_disks(Hd, dirs, U)                    # (P, K, 2, q, n)
            R2 = _rotated_disks(HU, U, units)                   # (P, 2, D, q, n)
            ZR = []
            for a, r0, r1, r2 in zip(zs, _axes(RHd), _axes(R1), _axes(R2)):
                a, c = a[:, None, None, None], np.empty((P, D, D, q))
                np.add(a, r0, out=c[:, :K, :K])
                np.add(a, r1, out=c[:, :K, K:])
                np.add(a, r2, out=c[:, K:])
                ZR.append(c)
            disk_means = np.empty((P, D, D))
            step = max(1, _T_BLOCK // (P * D * q))
            for s in range(0, D, step):     # sources s:s+step, every target
                k = slice(s, s + step)
                disk_means[:, k] = _values(f, [a[:, k, None] for a in XH],
                                           [c[:, k] for c in ZR]) @ w
            tg = 0.5 * alpha * jump + 0.5 * w_disk * \
                disk_means[:, which[:, None], which]
        with np.errstate(invalid="ignore"):   # inf - inf: nan, as in floats
            out[c0:c0 + P] = gxz[c0:c0 + P] - (tg.max(axis=(1, 2))
                                               + tg.min(axis=(1, 2)))
    return out


def margin_T(g, x, z, epsilon: float, alpha: float,
             quadrature: PairSearch = PairSearch()) -> float:
    """Slack of the directional-jump inequality.

    T g over a jump pair (nu_x, nu_z) blends the jump value with the mean of
    g over the disk orthogonal to nu_x, the second token following through
    the minimal rotation nu_x -> nu_z. The margin subtracts sup + inf of T g
    over the discrete pair set (full product of the direction/radius grid,
    separation-direction jumps always included, hence also every (nu, -nu)).
    The disk term depends only on directions, so it is computed once per
    pair of distinct directions; the fixed directions' part comes from
    _jump_tables, and each pair adds the rows and columns of +-u.
    """
    f, x, z = _distinct_pair(g, x, z)
    return float(_margins_T(f, x[None], z[None], epsilon, alpha, quadrature,
                            np.array([_g_at(g, x, z)]),
                            np.array([_g_mid(g, x, z)]))[0])


# -- ball geometry facts -------------------------------------------------------


def intersection_volume(n: int, epsilon: float, t: float) -> float:
    """|B(x, eps) ∩ B(z, eps)| for |x - z| = t, closed form, n in {2, 3}."""
    if t < 0 or epsilon <= 0:
        raise ValueError("need t >= 0 and epsilon > 0")
    if t >= 2.0 * epsilon:
        return 0.0
    if n == 2:
        return float(2.0 * epsilon**2 * math.acos(t / (2.0 * epsilon))
                     - 0.5 * t * math.sqrt(4.0 * epsilon**2 - t**2))
    if n == 3:
        return float(math.pi / 12.0 * (4.0 * epsilon + t)
                     * (2.0 * epsilon - t)**2)
    raise ValueError("closed form implemented for n in {2, 3}")


def overlap_fraction_mc(n: int, epsilon: float, t: float, samples: int,
                        seed: int) -> tuple[float, float]:
    """MC estimate (fraction, standard error) of |B(x,eps) ∩ B(z,eps)|/|B_eps|."""
    rng = substream(seed)
    H = uniform_ball(rng, n, epsilon, samples)
    sep = np.zeros(n)
    sep[0] = t
    hit = np.einsum("ij,ij->i", H - sep, H - sep) < epsilon**2
    p = float(hit.mean())
    se = math.sqrt(max(p * (1.0 - p), 1e-300) / samples)
    return p, se


def small_ball_escapes(x, z, epsilon: float, samples: int, seed: int) -> int:
    """Samples of B(eps*(z-x)/(2|z-x|), eps/4) escaping B(0,eps)\\B(z-x,eps).

    The mirrored-walk argument wants zero escapes whenever |x-z| >= 7eps/4.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    sep = z - x
    t = np.linalg.norm(sep)
    if t == 0.0:
        raise ValueError("x and z must differ")
    center = epsilon * sep / (2.0 * t)
    H = center + uniform_ball(substream(seed), x.size, epsilon / 4.0, samples)
    inside_ball = np.einsum("ij,ij->i", H, H) < epsilon**2
    inside_shift = np.einsum("ij,ij->i", H - sep, H - sep) < epsilon**2
    return int(np.count_nonzero(~(inside_ball & ~inside_shift)))


def volume_fact_holds(n: int, epsilon: float, t: float) -> bool:
    """Whether |B(x,eps) ∩ B(z,eps)| > 4^-n |B_eps| at separation t."""
    lhs = intersection_volume(n, epsilon, t)
    return lhs > 4.0**(-n) * ball_volume(n, epsilon)


# -- region certification ------------------------------------------------------


@dataclass
class CertificateReport:
    params: ComparisonParams
    inequality: str
    seed: int
    samples: list          # dicts: {x, z, regime, margin}
    min_margin: float
    argmin: dict | None
    settings: dict
    regime_counts: dict
    notes: list = field(default_factory=list)
    # per regime tag: {margin, index, g, floor}, the minimum finite margin,
    # its sample index, |g(x, z)| there and np.spacing of it (the float64
    # rounding floor at that scale); None where no margin is finite
    regime_min: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The fields by name, params as their dict."""
        return {**vars(self), "params": self.params.as_dict()}

    def to_json(self) -> str:
        return _json_text(self.as_dict())


def regime_tag(t: float, epsilon: float, N: int) -> str:
    """near/far per the split N*eps/10, sub-tagged at the proof thresholds."""
    split = N * epsilon / 10.0
    if t > split:
        return "far|t>split"
    names = [(2.0 * epsilon / 3.0, "near|t<=2eps/3"),
             (7.0 * epsilon / 4.0, "near|2eps/3<t<=7eps/4"),
             (2.0 * epsilon, "near|7eps/4<t<=2eps")]
    for bound, name in names:
        if t <= bound and bound <= split * (1.0 + BALL_TOL):
            return name
    return "near|2eps<t<=split"


_SWEEP_SCHEMES = {
    "I": GridSearch(nodes_per_axis=13),
    "II": BallMC(samples=4096, seed=0, antithetic=True),
    "III": NestedSearch(outer_nodes_per_axis=5, inner_samples=768,
                        inf_nodes_per_axis=5, seed=0, antithetic=True),
    "T": PairSearch(direction_count=16, radius_count=3, disk_node_count=9,
                    disk_angle_count=8),
}


def _regime_min(rows: list, g_at) -> dict:
    """CertificateReport.regime_min of the sample rows, g_at(j) the pair
    function at pair j."""
    out: dict = {}
    for j, r in enumerate(rows):
        best = out.setdefault(r["regime"], None)
        if math.isfinite(r["margin"]) and (best is None
                                           or r["margin"] < best["margin"]):
            out[r["regime"]] = {"margin": r["margin"], "index": j}
    for best in out.values():
        if best is not None:
            scale = abs(g_at(best["index"]))
            best.update(g=scale, floor=float(np.spacing(scale)))
    return out


# most near bands _strata cuts: past this many eps/10 annuli, equal widths
_MAX_BANDS = 200


def _strata(params: ComparisonParams):
    """(lo, hi] separation bands: the annuli up to the split, then one far
    band to the diameter of the unit-ball pair region."""
    eps = params.epsilon
    split = params.near_far_split
    hi_near = min(split, 2.0)
    n_ann = int(math.ceil(hi_near / (eps / 10.0) - BALL_TOL))
    if n_ann <= _MAX_BANDS:
        edges = [min(i * eps / 10.0, hi_near) for i in range(n_ann + 1)]
    else:
        edges = [hi_near * i / _MAX_BANDS for i in range(_MAX_BANDS + 1)]
    bands = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)
             if edges[i + 1] > edges[i]]
    far_reachable = split < 2.0
    if far_reachable:
        bands.append((split, 2.0))
    return bands, far_reachable


def _sample_pair(rng, n: int, lo: float, hi: float):
    """(x, z) uniform-ish in the unit-ball product at separation in (lo, hi]."""
    t = lo + (hi - lo) * (1.0 - rng.random())
    for _ in range(10_000):
        x = uniform_ball(rng, n, 1.0, 1)[0]
        d = rng.standard_normal(n)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            continue
        zc = x + t * d / nd
        if np.dot(zc, zc) < 1.0:
            return x, zc, t
        # long separations reject often; shrink toward the band floor
        t = max(lo * 1.0000001, lo + 0.5 * (t - lo)) if hi > lo else t
    raise RuntimeError("could not place a pair inside the unit ball")


def _margin_slice(job, w: int, W: int) -> list[list[float]]:
    """Margins of every inequality of job at the pairs i = w, w + W, ...,
    one list per inequality. Each BallMC / NestedSearch scheme is seeded
    by stream_key(seed, i, q_idx), so no margin depends on W or w.

    With G, f at every pair (x, z) and at its midpoint pair, the margins
    read those values (_AtPair) and margin_T runs over the whole slice at
    once; without it (a caller-supplied g) every margin is the public one's
    call, pair by pair."""
    gfun, X, Z, G, epsilon, inequalities, schemes, seed, alpha = job
    idx = np.arange(w, len(X), W)
    # read at call time, so a patched certifier.margin_* is the one called
    margins = {"I": margin_I, "II": margin_II, "III": margin_III,
               "T": lambda g, x, z, eps, q: margin_T(g, x, z, eps, alpha, q)}
    out = []
    for q_idx, name in enumerate(inequalities):
        scheme = schemes[name]
        if name == "T" and G is not None:
            out.append(_margins_T(gfun, X[idx], Z[idx], epsilon, alpha,
                                  scheme, G[0, idx], G[1, idx]).tolist())
            continue
        reseed = isinstance(scheme, (BallMC, NestedSearch))
        col = []
        for i in idx:
            g = gfun if G is None else _AtPair(gfun, float(G[0, i]),
                                               float(G[1, i]))
            sch = replace(scheme, seed=stream_key(seed, i, q_idx)) if reseed \
                else scheme
            col.append(margins[name](g, X[i], Z[i], epsilon, sch))
        out.append(col)
    return out


# Fewer margins than this stay in-process. Two forked workers cost 7-15 ms
# and rebuild the table caches; on a 2-core Xeon they took 0.76-0.81 of
# the serial time at 256 margins (sweep schemes or cheaper test-sized
# ones), 0.82-1.03 at 128 and up to 1.57 at 64 (medians of 9 alternating
# runs each, margins at about 0.25-0.65 ms)
_FORK_MIN_MARGINS = 256


def _worker_count(margins: int, g=None) -> int:
    """How many forked workers certify_region spreads `margins` over: one
    per usable CPU, each given at least _FORK_MIN_MARGINS / 2 margins. It
    is 1 (the loop runs in-process) for a caller-supplied g, which may
    carry state, for fewer than _FORK_MIN_MARGINS margins, on one usable
    CPU, where "fork" is not a start method, and inside a daemonic process."""
    most = 2 * margins // _FORK_MIN_MARGINS
    if g is not None or most < 2 or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2:
        return 1
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return min(cpus, most)


def certify_region(params: ComparisonParams,
                   inequalities=INEQUALITIES,
                   n_samples: int = 1000,
                   seed: int = 0,
                   g=None,
                   alpha: float = 0.5,
                   schemes: dict | None = None) -> list[CertificateReport]:
    """Stratified margin sweep over the off-diagonal unit-ball pair region.

    Samples are spread over the annular separation bands and the far band,
    one report per requested inequality. Deterministic in (params, seed):
    the margins go to _worker_count(...) forked workers in interleaved
    slices (bands run near to far, and cost varies by band), and the report
    is the same bits for every worker count.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    unknown = [q for q in inequalities if q not in INEQUALITIES]
    if unknown:
        raise ValueError(f"unknown inequalities: {unknown}")
    gfun = params if g is None else _as_f(g)
    schemes = {**_SWEEP_SCHEMES, **(schemes or {})}

    bands, far_reachable = _strata(params)
    notes_common = []
    if not far_reachable:
        notes_common.append(
            "far regime unreachable at these parameters: the near/far split "
            f"N*eps/10 = {params.near_far_split:.6g} exceeds the pair-region "
            "diameter 2")
    if not math.isfinite(params.f2_peak()):
        notes_common.append(
            "annular-staircase peak C^(2N)*eps^delta overflows float64 at "
            "these parameters; margins involving it are not finite")

    base, rem = divmod(n_samples, len(bands))
    counts = np.full(len(bands), base, dtype=int)
    counts[:rem] += 1

    pairs = []
    s_idx = 0
    for b_idx, (lo, hi) in enumerate(bands):
        for _ in range(int(counts[b_idx])):
            rng = substream(seed, s_idx)
            pairs.append(_sample_pair(rng, params.n, lo, hi))
            s_idx += 1

    X = np.array([p[0] for p in pairs])
    Z = np.array([p[1] for p in pairs])
    if g is None:   # f at every pair and at its midpoint pair
        M = 0.5 * (X + Z)
        G = np.stack([_values(params, _axes(X), _axes(Z)),
                      _values(params, _axes(M), _axes(M))])
        g_at = lambda j: float(G[0, j])
    else:
        G = None
        g_at = lambda j: _g_at(gfun, X[j], Z[j])
    job = (gfun, X, Z, G, params.epsilon, tuple(inequalities), schemes, seed,
           alpha)
    W = _worker_count(len(pairs) * len(inequalities), g)
    if W == 1:
        slices = [_margin_slice(job, 0, 1)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # fork, not spawn: a spawned worker imports numpy and dpplab afresh
        # (about 0.25 s), most of what two workers save on certify_desk.
        # Forked workers inherit the tables cached so far; the parent only
        # waits, so its peak memory never holds a margin's temporaries. A
        # worker that dies raises BrokenProcessPool here, where a
        # multiprocessing.Pool would hang.
        with ProcessPoolExecutor(W, mp_context=multiprocessing.get_context(
                "fork")) as pool:
            slices = list(pool.map(functools.partial(_margin_slice, job, W=W),
                                   range(W)))

    # each pair's coordinates and regime, shared by every report's rows
    tags = [(x.tolist(), zc.tolist(), regime_tag(t, params.epsilon, params.N))
            for x, zc, t in pairs]
    regime_counts = Counter(tag for *_, tag in tags)
    reports = []
    for q_idx, name in enumerate(inequalities):
        scheme = schemes[name]
        rows = [{"x": x, "z": zc, "regime": tag,
                 "margin": slices[i % W][q_idx][i // W]}
                for i, (x, zc, tag) in enumerate(tags)]
        finite = [r for r in rows if math.isfinite(r["margin"])]
        notes = list(notes_common)
        if len(finite) < len(rows):
            notes.append(f"{len(rows) - len(finite)} non-finite margins")
        if finite:
            worst = min(finite, key=lambda r: r["margin"])
            min_margin, argmin = worst["margin"], worst
        else:
            min_margin, argmin = math.nan, None
        settings = {"scheme": type(scheme).__name__, **vars(scheme),
                    "n_samples": n_samples}
        if name == "T":
            settings.update(alpha=alpha, theta=params.theta)
        reports.append(CertificateReport(
            params=params, inequality=name, seed=seed, samples=rows,
            min_margin=min_margin, argmin=argmin, settings=settings,
            regime_counts=dict(regime_counts), notes=notes,
            regime_min=_regime_min(rows, g_at)))
    return reports
