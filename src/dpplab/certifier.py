"""Signed slack of the four one-step comparison inequalities.

Each margin routine evaluates g(x, z) minus the corresponding one-step
average/extremum of g, so a positive value means the inequality holds at
(x, z) to quadrature resolution. certify_region sweeps stratified pair
samples and serializes the results; geometry helpers check the two ball
facts the near-regime arguments lean on.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .comparison import ComparisonParams, f_terms_on_grid, pair_function
from .core import Array, _pack, ball_volume
from .couplings import (CouplingMap, clamp_projection, rotate,
                        rotation_frames)
from .operators import ball_lattice, check_counts, disk_rule, move_set
from .rng import antithetic_sample, stream_key, substream, uniform_ball

_BOUNDARY_TOL = 1e-12
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


@dataclass(frozen=True)
class PairSearch:
    """Jump-pair discretization for the directional inequality."""

    direction_count: int | None = None
    radius_count: int = 4
    disk_node_count: int = 9
    disk_angle_count: int = 16

    __post_init__ = check_counts


def _as_g(g):
    if isinstance(g, ComparisonParams):
        return pair_function(g)
    if not callable(g):
        raise TypeError("g must be callable or a ComparisonParams")
    return g


def _distinct_pair(g, x, z) -> tuple:
    """g as a pair function and x, z as float points; x == z is refused."""
    g = _as_g(g)
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    if np.array_equal(x, z):
        raise ValueError("x and z must differ")
    return g, x, z


def _ball_draws(quadrature, m: int, n: int, epsilon: float) -> Array:
    """m uniform draws of the epsilon-ball from the scheme's seed, m rounded
    up to even when the scheme pairs its draws antithetically."""
    rng = substream(quadrature.seed)
    return antithetic_sample(lambda k: uniform_ball(rng, n, epsilon, k),
                             m + m % 2 if quadrature.antithetic else m,
                             quadrature.antithetic)


def _g_at(g, x, z) -> float:
    return float(np.asarray(g(x[None, :], z[None, :])).reshape(-1)[0])


def _axis_pushes(x, z, epsilon: float) -> np.ndarray:
    """Separation-direction moves the proofs single out: full-step pushes
    along +-(x-z)/|x-z| plus the half-gap steps that can close the pair."""
    d = x - z
    t = float(np.linalg.norm(d))
    if t == 0.0:
        return np.zeros((0, x.size))
    u = d / t
    meet = min(epsilon, 0.5 * t)
    return np.stack([epsilon * u, -epsilon * u, meet * u, -meet * u])


def _product_blocks(g, XN, ZN, rows: int):
    """g over XN x ZN, one (rows, len(ZN)) block per g call."""
    for s in range(0, len(XN), rows):
        xa = XN[s:s + rows]
        yield np.asarray(g(np.repeat(xa, len(ZN), axis=0), np.tile(
            ZN, (len(xa), 1))), dtype=float).reshape(len(xa), len(ZN))


def _product_extrema(g, XN, ZN, chunk: int = 1 << 20) -> tuple[float, float]:
    hi, lo = -math.inf, math.inf
    for v in _product_blocks(g, XN, ZN, max(1, chunk // max(1, len(ZN)))):
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

    Handed a ComparisonParams, the lattice-by-lattice block of the product
    is evaluated on the difference lattice (_lattice_extrema); the rows and
    columns of the separation-direction pushes go through g. A plain
    callable g is evaluated on the whole product.
    """
    params = g if isinstance(g, ComparisonParams) else None
    g = _as_g(g)
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    offs = ball_lattice(x.size, epsilon, search.nodes_per_axis)
    pushes = _axis_pushes(x, z, epsilon)
    if params is None:
        offs = np.vstack([offs, pushes])
        hi, lo = _product_extrema(g, x + offs, z + offs)
    else:
        hi, lo = _lattice_extrema(params, x, z, epsilon, search.nodes_per_axis)
        if len(pushes):   # push rows against every move, push columns
            moves = np.vstack([offs, pushes])
            v = g(np.vstack([np.repeat(x + pushes, len(moves), axis=0),
                             np.repeat(x + offs, len(pushes), axis=0)]),
                  np.vstack([np.tile(z + moves, (len(pushes), 1)),
                             np.tile(z + pushes, (len(offs), 1))]))
            hi, lo = max(hi, float(v.max())), min(lo, float(v.min()))
    t = float(np.linalg.norm(x - z))
    if 0.0 < t <= 2.0 * epsilon:
        # the meet push built from x + h, z - h never lands on the diagonal
        # exactly in floats, which matters for staircase-shaped g; offer the
        # midpoint pair directly
        mid = 0.5 * (x + z)
        v = _g_at(g, mid, mid)
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
    g, x, z = _distinct_pair(g, x, z)
    H = _ball_draws(quadrature, quadrature.samples, x.size, epsilon)
    X, Z = CouplingMap.mirror(x, z).step(x, z, H, epsilon)
    return _g_at(g, x, z) - float(np.asarray(g(X, Z), dtype=float).mean())


def margin_III(g, x, z, epsilon: float,
               quadrature: NestedSearch = NestedSearch()) -> float:
    """Slack of the clamped half-and-half inequality.

    Inner integral over y in B(z, eps) by MC; outer sup over x' and inner
    inf over x~ by grid search, the inf always offered clamp_projection(x,
    eps, y) and, when reachable, y itself (both moves the argument uses).
    With equal outer and inf node counts the two searches share their
    g(x', y) blocks, each evaluated once.
    """
    g, x, z = _distinct_pair(g, x, z)
    n = x.size
    Y = z + _ball_draws(quadrature, quadrature.inner_samples, n, epsilon)
    pushes = _axis_pushes(x, z, epsilon)

    def moves_against_Y(nodes):   # g(x', y) blocks, x' over the ball + pushes
        XN = x + np.vstack([ball_lattice(n, epsilon, nodes), pushes])
        return _product_blocks(g, XN, Y, 64)

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
    best = np.minimum(best, np.asarray(g(clamp_projection(x, epsilon, Y), Y)))
    reach = np.einsum("ij,ij->i", Y - x, Y - x) <= epsilon**2 * (1.0 + _BOUNDARY_TOL)
    if np.any(reach):
        Yr = Y[reach]
        best[reach] = np.minimum(best[reach], np.asarray(g(Yr, Yr)))
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
    """Disks H (S, q, n) of the units src moved by the minimal rotations
    src[s] -> dst[t], (S, T, q, n); parallel and antipodal pairs keep H."""
    c, cos, sin, ident = rotation_frames(src[:, None], dst[None, :])
    Hs = H[:, None]
    RH = rotate(Hs, src[:, None, None], c[:, :, None], cos[..., None, None],
                sin[..., None, None])
    return np.where(ident[..., None, None], Hs, RH)


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
    g, x, z = _distinct_pair(g, x, z)
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    n = x.size
    dirs, jumps, Hd, w, RHd = _jump_tables(n, epsilon, quadrature)
    K = len(dirs)
    pushes = _axis_pushes(x, z, epsilon)   # +-eps u, +-meet u
    NU = np.vstack([jumps, pushes])
    P = len(NU)

    (jump,) = _product_blocks(g, x + NU, z + NU, P)
    t = float(np.linalg.norm(x - z))
    if t < 2.0 * epsilon:
        # jump pair (-meet u, +meet u) is the merge; float dust off the
        # diagonal misprices staircase-shaped g, so evaluate it exactly
        mid = 0.5 * (x + z)
        jump[P - 1, P - 2] = _g_at(g, mid, mid)

    w_disk = 1.0 - alpha
    if w_disk == 0.0:
        tg = 0.5 * alpha * jump
        return _g_at(g, x, z) - (float(tg.max()) + float(tg.min()))

    u = (x - z) / t
    U = np.stack([u, -u])
    units = np.vstack([dirs, U])                              # (D, n)
    which = np.concatenate([np.tile(np.arange(K), len(jumps) // K),
                            [K, K + 1, K, K + 1]])            # move -> unit
    HU, _ = disk_rule(n, epsilon, U, quadrature.disk_node_count,
                      quadrature.disk_angle_count)
    H = np.concatenate([Hd, HU])                              # (D, q, n)
    D, q = H.shape[:2]
    RH = np.empty((D, D, q, n))
    RH[:K, :K] = RHd
    RH[:K, K:] = _rotated_disks(Hd, dirs, U)
    RH[K:] = _rotated_disks(HU, U, units)
    step = max(1, (1 << 16) // (D * q))
    disk_means = np.empty((D, D))
    for s in range(0, D, step):           # sources s:s+step, every target
        k = slice(s, s + step)
        Xd = np.broadcast_to(x + H[k, None], RH[k].shape).reshape(-1, n)
        vals = np.asarray(g(Xd, (z + RH[k]).reshape(-1, n)))
        disk_means[k] = vals.reshape(-1, D, q) @ w
    tg = 0.5 * alpha * jump + 0.5 * w_disk * disk_means[np.ix_(which, which)]
    return _g_at(g, x, z) - (float(tg.max()) + float(tg.min()))


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
        """The fields by name as JSON values, params as their dict."""
        return _jsonable({**vars(self), "params": self.params.as_dict()})

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(u) for u in v.tolist()]
    if isinstance(v, (np.floating, float)):
        v = float(v)
        return v if math.isfinite(v) else repr(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def regime_tag(t: float, epsilon: float, N: int) -> str:
    """near/far per the split N*eps/10, sub-tagged at the proof thresholds."""
    split = N * epsilon / 10.0
    if t > split:
        return "far|t>split"
    names = [(2.0 * epsilon / 3.0, "near|t<=2eps/3"),
             (7.0 * epsilon / 4.0, "near|2eps/3<t<=7eps/4"),
             (2.0 * epsilon, "near|7eps/4<t<=2eps")]
    for bound, name in names:
        if t <= bound and bound <= split * (1.0 + 1e-12):
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


def _regime_min(rows: list, g) -> dict:
    """CertificateReport.regime_min of the sample rows, g the pair function."""
    out: dict = {}
    for j, r in enumerate(rows):
        best = out.setdefault(r["regime"], None)
        if math.isfinite(r["margin"]) and (best is None
                                           or r["margin"] < best["margin"]):
            out[r["regime"]] = {"margin": r["margin"], "index": j}
    for best in out.values():
        if best is not None:
            row = rows[best["index"]]
            scale = abs(_g_at(g, np.array(row["x"]), np.array(row["z"])))
            best.update(g=scale, floor=float(np.spacing(scale)))
    return out


def _strata(params: ComparisonParams, max_bands: int = 200):
    """(lo, hi] separation bands: the annuli up to the split, then one far
    band to the diameter of the unit-ball pair region."""
    eps = params.epsilon
    split = params.near_far_split
    hi_near = min(split, 2.0)
    n_ann = int(math.ceil(hi_near / (eps / 10.0) - 1e-12))
    if n_ann <= max_bands:
        edges = [min(i * eps / 10.0, hi_near) for i in range(n_ann + 1)]
    else:
        edges = [hi_near * i / max_bands for i in range(max_bands + 1)]
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
    by stream_key(seed, i, q_idx), so no margin depends on W or w."""
    gfun, X, Z, epsilon, inequalities, schemes, seed, alpha = job
    out = []
    for q_idx, name in enumerate(inequalities):
        scheme = schemes[name]
        col = []
        for i in range(w, len(X), W):
            x, zc = X[i], Z[i]
            if isinstance(scheme, (BallMC, NestedSearch)):
                sch = replace(scheme, seed=stream_key(seed, i, q_idx))
            else:
                sch = scheme
            if name == "I":
                m = margin_I(gfun, x, zc, epsilon, sch)
            elif name == "II":
                m = margin_II(gfun, x, zc, epsilon, sch)
            elif name == "III":
                m = margin_III(gfun, x, zc, epsilon, sch)
            else:
                m = margin_T(gfun, x, zc, epsilon, alpha, sch)
            col.append(m)
        out.append(col)
    return out


# Fewer margins than this stay in-process. Two forked workers cost 7-15 ms
# and rebuild the table caches; on a 2-core Xeon they took 0.58-0.64 of
# the serial time at 256 margins (sweep schemes or cheaper test-sized
# ones), 0.65-1.06 at 128 and up to 1.23 at 64
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
    gfun = params if g is None else _as_g(g)   # params: margin_I's lattice
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

    job = (gfun, np.array([p[0] for p in pairs]),
           np.array([p[1] for p in pairs]), params.epsilon,
           tuple(inequalities), schemes, seed, alpha)
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

    reports = []
    for q_idx, name in enumerate(inequalities):
        scheme = schemes[name]
        rows = [{"x": x.tolist(), "z": zc.tolist(),
                 "regime": regime_tag(t, params.epsilon, params.N),
                 "margin": slices[i % W][q_idx][i // W]}
                for i, (x, zc, t) in enumerate(pairs)]
        finite = [r for r in rows if math.isfinite(r["margin"])]
        notes = list(notes_common)
        if len(finite) < len(rows):
            notes.append(f"{len(rows) - len(finite)} non-finite margins")
        if finite:
            worst = min(finite, key=lambda r: r["margin"])
            min_margin, argmin = worst["margin"], worst
        else:
            min_margin, argmin = math.nan, None
        hist: dict = {}
        for r in rows:
            hist[r["regime"]] = hist.get(r["regime"], 0) + 1
        settings = {"scheme": type(scheme).__name__, **vars(scheme),
                    "n_samples": n_samples}
        if name == "T":
            settings.update(alpha=alpha, theta=params.theta)
        reports.append(CertificateReport(
            params=params, inequality=name, seed=seed, samples=rows,
            min_margin=min_margin, argmin=argmin, settings=settings,
            regime_counts=hist, notes=notes,
            regime_min=_regime_min(rows, _as_g(gfun))))
    return reports
