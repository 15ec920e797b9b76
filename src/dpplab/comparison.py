"""Comparison-function machinery for two-point regularity arguments.

The pair function f(x, z) = f1 - f2 combines a Hoelder-profile-plus-midpoint
term f1(x, z) = C|x-z|^delta + |x+z|^2 with an annular staircase f2 that is
largest on the diagonal x = z and drops by the factor C^2 per annulus of
width epsilon/10, vanishing beyond N*epsilon/10. All evaluators are
vectorized over leading axes; difference helpers factor the algebra so that
nearby evaluations do not lose precision to cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BALL_TOL, Array

# annulus_index sentinel for |x-z| > N*epsilon/10
OUTSIDE = -1

# the largest float64 below 2^63, past which a cast to int64 is undefined
_INT64_TOP = float(np.nextafter(2.0**63, 0.0))


@dataclass(frozen=True)
class ComparisonParams:
    """Constant schedule for the pair function.

    mode "strict" pins the conservative sufficient schedule:
        delta = 1/(10(n+2)), omega = min(1/(10(n+2)), 4^-n),
        C = 1e10/(delta^2 * omega), N = ceil(100*C/delta), theta = 1/10.
    mode "desk" admits any delta in (0,1), C > 1, N >= 1 so the certifier can
    probe numerically tractable scales.
    """

    n: int
    delta: float
    C: float
    N: int
    epsilon: float
    theta: float = 0.1
    omega: Optional[float] = None
    mode: str = "desk"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.C <= 1.0:
            raise ValueError("C must exceed 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        if self.mode not in ("strict", "desk"):
            raise ValueError("mode must be 'strict' or 'desk'")
        if self.mode == "strict":
            delta = 1.0 / (10.0 * (self.n + 2))
            if not math.isclose(self.delta, delta, rel_tol=1e-12):
                raise ValueError("strict mode pins delta = 1/(10(n+2))")
            if self.omega is None:
                raise ValueError("strict mode needs omega")
            C = 1e10 / (self.delta**2 * self.omega)
            if not math.isclose(self.C, C, rel_tol=1e-9):
                raise ValueError("strict mode pins C = 1e10/(delta^2*omega)")
            if self.N < 100.0 * self.C / self.delta:
                raise ValueError("strict mode needs N >= 100*C/delta")

    @property
    def near_far_split(self) -> float:
        """Pair distance N*epsilon/10 separating the staircase from f1-only."""
        return self.N * self.epsilon / 10.0

    def f2_peak(self) -> float:
        """f2 on the diagonal: C^(2N) * epsilon^delta (may overflow to inf)."""
        with np.errstate(over="ignore"):
            return float(np.exp(2.0 * self.N * math.log(self.C)
                                + self.delta * math.log(self.epsilon)))

    def as_dict(self) -> dict:
        return {"n": self.n, "delta": self.delta, "C": self.C, "N": self.N,
                "epsilon": self.epsilon, "theta": self.theta,
                "omega": self.omega, "mode": self.mode}


# Desk-scale schedule frozen from the parameter search
# (demos/desk_parameter_search.py); all four certified inequalities hold with
# positive margins at these values over B1 x B1 minus the diagonal.
DESK_SCHEDULE = dict(n=2, delta=0.2, C=250.0, N=40, epsilon=0.05, theta=0.1)


def default_params(n: int, mode: str = "desk",
                   omega_alpha: Optional[float] = None) -> ComparisonParams:
    """Conservative sufficient schedule ("strict") or the frozen desk-scale
    set ("desk").

    omega_alpha overrides the modulus omega in the strict schedule (the
    space-dependent games tie it to the coefficient's modulus of continuity).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if omega_alpha is not None and not (0.0 < omega_alpha < 1.0):
        raise ValueError("omega_alpha must lie in (0, 1)")
    if mode == "strict":
        delta = 1.0 / (10.0 * (n + 2))
        omega = min(delta, 4.0 ** (-n)) if omega_alpha is None else omega_alpha
        C = 1e10 / (delta**2 * omega)
        N = int(math.ceil(100.0 * C / delta))
        return ComparisonParams(n=n, delta=delta, C=C, N=N, epsilon=1e-3,
                                theta=0.1, omega=omega, mode="strict")
    if mode == "desk":
        if n != DESK_SCHEDULE["n"]:
            raise ValueError("the validated desk schedule is for n = 2; "
                             "build ComparisonParams directly for other n")
        return ComparisonParams(mode="desk", omega=None, **DESK_SCHEDULE)
    raise ValueError("mode must be 'strict' or 'desk'")


# -- geometry helpers -------------------------------------------------------


def _pair(x, z) -> tuple[Array, Array, bool]:
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    scalar = x.ndim == 1
    return np.atleast_2d(x), np.atleast_2d(z), scalar


def _ret(v: Array, scalar: bool):
    return float(v[0]) if scalar else v


@dataclass(frozen=True)
class CoupledPoint:
    """A pair (x, z) with the unit separation direction and its projections."""

    x: tuple
    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in np.asarray(self.x).reshape(-1)))
        object.__setattr__(self, "z", tuple(float(v) for v in np.asarray(self.z).reshape(-1)))
        if len(self.x) != len(self.z):
            raise ValueError("x and z must share a dimension")

    @property
    def distance(self) -> float:
        return float(np.linalg.norm(np.subtract(self.x, self.z)))

    @property
    def V(self) -> Optional[Array]:
        """Unit vector (x - z)/|x - z|; None on the diagonal."""
        d = np.subtract(self.x, self.z)
        t = np.linalg.norm(d)
        return None if t == 0.0 else d / t

    def v_component(self, h) -> float:
        v = self.V
        if v is None:
            raise ValueError("projections undefined on the diagonal x = z")
        return float(np.dot(np.asarray(h, dtype=float), v))

    def annulus(self, epsilon: float, N: int) -> int:
        return annulus_index(np.asarray(self.x), np.asarray(self.z), epsilon, N)


# -- the pair function ------------------------------------------------------


def _axes(A: Array) -> list:
    """The coordinate arrays A[..., k] of the points A (..., n), as views."""
    return [A[..., k] for k in range(A.shape[-1])]


def _sqnorm(xs, zs, op) -> Array:
    """|op(x, z)|^2 from the coordinate arrays xs[k], zs[k], summed axis by
    axis in order: the one squared norm of f_axes, eval_f1 and
    annulus_index (op is np.subtract or np.add)."""
    out = None
    for a, b in zip(xs, zs):
        v = op(a, b)
        v *= v
        if out is None:
            out = v
        else:
            out += v
    return out


def _box_sqnorm(cols) -> Array:
    """_sqnorm at every node of the product grid cols[0] x cols[1] x ...,
    as an n-D box array: the same sums in the same order, formed from the
    per-axis squares."""
    n = len(cols)
    out = None
    for k, c in enumerate(cols):
        sq = (c * c).reshape((-1,) + (1,) * (n - 1 - k))
        out = sq if out is None else out + sq
    return out


def eval_f1(x, z, C: float, delta: float):
    """f1(x, z) = C|x - z|^delta + |x + z|^2 (vectorized)."""
    X, Z, scalar = _pair(x, z)
    xs, zs = _axes(X), _axes(Z)
    t = np.sqrt(_sqnorm(xs, zs, np.subtract))
    out = C * t**delta + _sqnorm(xs, zs, np.add)
    return _ret(out, scalar)


def annulus_index(x, z, epsilon: float, N: int):
    """Index of the annulus A_i = {(i-1)eps/10 < |x-z| <= i*eps/10}.

    Returns 0 exactly on the diagonal, 1..N inside the staircase, and the
    sentinel OUTSIDE (-1) beyond N*epsilon/10. The upper annulus boundary is
    closed with the closed-ball tolerance BALL_TOL, relative to epsilon/10.
    """
    X, Z, scalar = _pair(x, z)
    i = _annulus(np.sqrt(_sqnorm(_axes(X), _axes(Z), np.subtract)), epsilon, N)
    return (int(i[0]) if scalar else i)


def _annulus(t: Array, epsilon: float, N: int) -> Array:
    """annulus_index from the pair distances t. Indices past N are found
    before the int64 cast; only an N past 2^63 (strict, n >= 4) leaves
    indices past 2^63 inside, cast as _INT64_TOP, where f2 is inf."""
    q = 10.0 * t
    q /= epsilon
    q -= BALL_TOL
    np.ceil(q, out=q)
    # a min or max reduction is cheaper than the masks it usually spares
    top = q.max() if q.size else 0.0
    far = q > N if top > N else None
    if top > _INT64_TOP:
        np.minimum(q, _INT64_TOP, out=q)
    i = q.astype(np.int64)
    np.maximum(i, 1, out=i)
    if i.size and np.fmin.reduce(t, axis=None) == 0.0:
        np.copyto(i, 0, where=t == 0.0)
    if far is not None:
        np.copyto(i, OUTSIDE, where=far)
    return i


def eval_f2(x, z, params: ComparisonParams):
    """Annular staircase: C^(2(N-i)) * epsilon^delta on A_i, 0 outside.

    Maximal on the diagonal (i = 0); drops by the factor C^2 per annulus.
    Values may overflow to inf at strict-schedule scales; that is reported, not
    masked.
    """
    X, Z, scalar = _pair(x, z)
    i = np.atleast_1d(annulus_index(X, Z, params.epsilon, params.N))
    return _ret(_f2_at(params, i), scalar)


def _staircase(params: ComparisonParams, i: Array) -> Array:
    """C^(2(N-i)) * epsilon^delta at float annulus indices i."""
    with np.errstate(over="ignore"):
        return np.exp(2.0 * (params.N - i) * math.log(params.C)
                      + params.delta * math.log(params.epsilon))


# Longest f2 table eval_f builds: a schedule with N < _TABLE_MAX reads one
# table of all N + 1 annuli; a larger N (the strict schedule, N ~ 2.6e18)
# gets f2 by `_staircase` at the indices.
_TABLE_MAX = 1024


@functools.lru_cache(maxsize=64)
def _f2_table(params: ComparisonParams) -> Array:
    """eval_f2 by annulus index: `_staircase` at 0..N, then 0.0, which the
    index OUTSIDE (-1) reads. Read-only."""
    table = np.append(_staircase(params, np.arange(params.N + 1, dtype=float)),
                      0.0)
    table.flags.writeable = False
    return table


def _f2_at(params: ComparisonParams, i: Array) -> Array:
    """eval_f2 at annulus indices i, read from the cached table, or, past
    _TABLE_MAX annuli, `_staircase` at the indices (0.0 at OUTSIDE)."""
    if params.N + 1 > _TABLE_MAX:
        return np.where(i == OUTSIDE, 0.0, _staircase(params, i.astype(float)))
    return np.take(_f2_table(params), i)


def eval_f(x, z, params: ComparisonParams):
    """The comparison function f = f1 - f2 at the schedule's C, delta:
    f_axes on the coordinates of x and z, bit-identical to eval_f1 - eval_f2.
    """
    X, Z, scalar = _pair(x, z)
    return _ret(f_axes(_axes(X), _axes(Z), params), scalar)


def f_axes(xs, zs, params: ComparisonParams) -> Array:
    """f at the pairs whose k-th coordinates are xs[k] and zs[k].

    The one home of f's arithmetic. xs[k] and zs[k] are arrays that
    broadcast together to the same shape for every k, and every operation
    acts on that shape: rows of x against rows of z form a product block
    with no repeated rows, with the bits of eval_f on the repeated rows.
    |x - z| is formed once and worked into f in place, and f2 is read from a
    cached table by annulus index.
    """
    f = _sqnorm(xs, zs, np.subtract)
    np.sqrt(f, out=f)
    i = _annulus(f, params.epsilon, params.N)
    f **= params.delta
    f *= params.C
    f += _sqnorm(xs, zs, np.add)
    f -= _f2_at(params, i)
    return f


def f_terms_on_grid(d, s, nodes, params: ComparisonParams):
    """The three terms of eval_f on the product grids d + c and s + c', with
    c and c' over nodes^n: C|d + c|^delta, f2(d + c) and |s + c'|^2, each an
    n-D box array over the node indices, in eval_f's operation order.

    For a pair with x - z = d + c and x + z = s + c', eval_f's value is
    (P[c] + S[c']) - F[c]: the certifier combines the boxes by index
    instead of evaluating f on every pair of moves.
    """
    nodes = np.asarray(nodes, dtype=float)
    t = np.sqrt(_box_sqnorm([di + nodes for di in np.asarray(d, dtype=float)]))
    F = _f2_at(params, _annulus(t, params.epsilon, params.N))
    t **= params.delta
    t *= params.C
    return t, F, _box_sqnorm([si + nodes for si in np.asarray(s, dtype=float)])


def pair_function(params: ComparisonParams):
    """Vectorized closure g(x_pts, z_pts) -> f(x, z) for the certifier."""
    def g(xp: Array, zp: Array) -> Array:
        return np.asarray(eval_f(xp, zp, params), dtype=float)
    return g


def f1_difference(x, z, hx, hz, C: float, delta: float):
    """f1(x+hx, z+hz) - f1(x, z) without cancellation.

    Factored form: the quadratic part is (2(x+z) + hx+hz) . (hx+hz) exactly;
    the power part uses a^delta * expm1(delta * log1p((b-a)/a)) with b - a
    computed through the squared norms.
    """
    X, Z, scalar = _pair(x, z)
    HX = np.atleast_2d(np.asarray(hx, dtype=float))
    HZ = np.atleast_2d(np.asarray(hz, dtype=float))
    d = X - Z
    dd = HX - HZ
    s = X + Z
    ds = HX + HZ
    a2 = np.einsum("...i,...i->...", d, d)
    a = np.sqrt(a2)
    cross = 2.0 * np.einsum("...i,...i->...", d, dd) + np.einsum("...i,...i->...", dd, dd)
    b = np.sqrt(a2 + cross)
    quad = np.einsum("...i,...i->...", 2.0 * s + ds, ds)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = cross / (a * (a + b))          # (b - a)/a, stable
        pow_diff = np.where(
            a > 0.0,
            a**delta * np.expm1(delta * np.log1p(rel)),
            b**delta,
        )
    # diagonal start: b^delta - 0^delta = b^delta handled above
    out = C * pow_diff + quad
    return _ret(out, scalar)


def taylor_f1(x, z, hx, hz, C: float, delta: float):
    """Second-order expansion of f1(x+hx, z+hz) and its cubic remainder bound.

    Expansion around (x, z), valid off the diagonal:
        f1 + C*delta*t^(delta-1)*(hx-hz)_V + 2(x+z).(hx+hz)
           + (C/2)*delta*t^(delta-2)*[(delta-1)*(hx-hz)_V^2 + |(hx-hz)_Vperp|^2]
           + |hx+hz|^2
    with t = |x-z| and V = (x-z)/t. The remainder bound
    C*|(hx,hz)|^3*(t - 2*eps_eff)^(delta-3), eps_eff = max(|hx|, |hz|), is
    returned where t > 2*eps_eff; elsewhere it is None (scalar) / nan (array).
    """
    X, Z, scalar = _pair(x, z)
    HX = np.atleast_2d(np.asarray(hx, dtype=float))
    HZ = np.atleast_2d(np.asarray(hz, dtype=float))
    d = X - Z
    t = np.sqrt(np.einsum("...i,...i->...", d, d))
    if np.any(t == 0.0):
        raise ValueError("taylor_f1 needs x != z")
    V = d / t[..., None]
    dd = HX - HZ
    ds = HX + HZ
    dd_v = np.einsum("...i,...i->...", dd, V)
    dd_perp = dd - dd_v[..., None] * V
    s = X + Z
    first = C * delta * t**(delta - 1.0) * dd_v \
        + 2.0 * np.einsum("...i,...i->...", s, ds)
    second = 0.5 * C * delta * t**(delta - 2.0) * (
        (delta - 1.0) * dd_v**2
        + np.einsum("...i,...i->...", dd_perp, dd_perp)
    ) + np.einsum("...i,...i->...", ds, ds)
    f1 = C * t**delta + np.einsum("...i,...i->...", s, s)
    approx = f1 + first + second

    eps_eff = np.maximum(np.linalg.norm(HX, axis=-1), np.linalg.norm(HZ, axis=-1))
    hnorm = np.sqrt(np.einsum("...i,...i->...", HX, HX)
                    + np.einsum("...i,...i->...", HZ, HZ))
    valid = t > 2.0 * eps_eff
    with np.errstate(invalid="ignore"):
        bound = np.where(valid, C * hnorm**3 * (t - 2.0 * eps_eff)**(delta - 3.0),
                         np.nan)
    if scalar:
        return float(approx[0]), (float(bound[0]) if valid[0] else None)
    return approx, bound


def error2_bound(x, z, epsilon: float, params: ComparisonParams):
    """Coarse remainder bound 10*eps^2*|x-z|^(delta-2) for the far regime.

    Requires the schedule relation N >= 100*C/delta and |x-z| > N*epsilon/10.
    """
    if params.N < 100.0 * params.C / params.delta:
        raise ValueError("error2_bound needs N >= 100*C/delta")
    X, Z, scalar = _pair(x, z)
    d = X - Z
    t = np.sqrt(np.einsum("...i,...i->...", d, d))
    if np.any(t <= params.N * epsilon / 10.0):
        raise ValueError("error2_bound needs |x-z| > N*epsilon/10")
    out = 10.0 * epsilon**2 * t**(params.delta - 2.0)
    return _ret(out, scalar)


def f1_oscillation_bound(params: ComparisonParams) -> tuple[float, float]:
    """Uniform bounds on |f1(x+hx, z+hz) - f1(x, z)| over B1 with |h| <= eps.

    Returns the sharp form 2*C*eps^delta + 16*eps and the coarse form
    3*C*eps^delta (the coarse one presumes C*eps^delta >= 16*eps, which holds
    at strict-schedule scales). Requires epsilon < 1.
    """
    if not (0.0 < params.epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    sharp = 2.0 * params.C * params.epsilon**params.delta + 16.0 * params.epsilon
    coarse = 3.0 * params.C * params.epsilon**params.delta
    return sharp, coarse
