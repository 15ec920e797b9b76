"""Empirical smoothness statistics of solved value fields.

The headline statistic K measures how far sampled pairs (x, z) push the
normalized difference |u(x) - u(z)| above the step-size noise floor:

    K = max over pairs of  [|u(x) - u(z)|/osc - C'(eps/R)^delta]
                           / (|x - z|/R)^delta

with osc the oscillation of u over B(center, 2R). Pairs live in
B(center, R) and are sampled stratified by separation decade so short and
long ranges both contribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridDomain, ValueField, _json_text
from .rng import substream

# most candidate pairs one draw of _sample_pairs takes
_MAX_DRAW = 1 << 16
# the floor constants fit_c_prime chooses from
_C_PRIME_GRID = np.linspace(0.0, 5.0, 101)


@dataclass(frozen=True)
class HolderReport:
    delta: float
    epsilon: float
    R: float
    center: tuple
    c_prime: float
    osc: float
    K: float
    pair_count: int
    quotients: tuple   # rows (dist, absdiff, quotient)

    def as_dict(self) -> dict:
        """The fields by name; rows and center stay tuples (JSON arrays)."""
        return dict(vars(self))

    def to_json(self) -> str:
        return _json_text(self.as_dict())


def _ball_point_indices(domain: GridDomain, center, radius: float,
                        require_cover: bool = False) -> np.ndarray:
    """Rows of the ball's lattice points, looked up in the key index;
    require_cover raises unless every one is stored."""
    c = np.asarray(center, dtype=float)
    h = domain.spacing
    lo = np.floor((c - radius) / h).astype(np.int64)
    hi = np.ceil((c + radius) / h).astype(np.int64)
    ks = np.stack(np.meshgrid(*map(np.arange, lo, hi + 1), indexing="ij"),
                  axis=-1).reshape(-1, len(c))  # lexicographic rows
    d = ks * h - c
    rows = domain._rows(ks[np.einsum("ij,ij->i", d, d) < radius**2].T)
    if require_cover and np.any(rows < 0):
        raise ValueError(
            f"B(center, {radius}) is not covered by the field's domain")
    return rows[rows >= 0]


def _sample_pairs(rng, pts: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i != j, of distinct points, stratified by
    separation decade.

    A 64-point probe finds the nearest separation. Each decade from the span
    down toward it (at most six) keeps the first budget // bands candidates
    whose separation falls inside it, out of 50 times that many; candidates
    with i != j fill the rest. Candidates come as (m, 2) index arrays of at
    most _MAX_DRAW rows.
    """
    P = len(pts)
    span = float(math.dist(pts.min(axis=0), pts.max(axis=0)))
    probe = pts[rng.integers(0, P, min(64, P))]
    rows = _MAX_DRAW // len(probe)
    nearest2 = math.inf
    for k in range(0, P, rows):   # at most _MAX_DRAW (point, probe) pairs at once
        d2 = ((pts[k:k + rows, None] - probe) ** 2).sum(axis=-1)
        nearest2 = min(nearest2, np.where(d2 > 0, d2, np.inf).min())
    n_bands = max(1, min(6, math.ceil(math.log10(span / math.sqrt(nearest2)))))
    quota = budget // n_bands
    out = []
    for k in range(n_bands):
        lo, hi = span / 10.0**(k + 1), span / 10.0**k
        got = drawn = 0
        while got < quota and drawn < 50 * quota:
            ij = rng.integers(0, P, (min(_MAX_DRAW, 50 * quota - drawn), 2))
            drawn += len(ij)
            t = np.linalg.norm(pts[ij[:, 0]] - pts[ij[:, 1]], axis=1)
            out.append(ij[(lo < t) & (t <= hi)][:quota - got])
            got += len(out[-1])
    got = sum(map(len, out))
    while got < budget:
        ij = rng.integers(0, P, (min(_MAX_DRAW, budget - got), 2))
        out.append(ij[ij[:, 0] != ij[:, 1]])
        got += len(out[-1])
    ij = np.concatenate(out)
    return ij[:, 0], ij[:, 1]


def _pair_terms(field: ValueField, delta: float, center, R: float,
                pair_budget: int, seed: int):
    """(osc over B_2R, distances, |du|) for sampled pairs in B_R, after the
    argument checks every K statistic shares."""
    if pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    dom = field.domain
    sel2 = _ball_point_indices(dom, center, 2.0 * R, require_cover=True)
    sel1 = _ball_point_indices(dom, center, R)
    if len(sel1) < 2:
        raise ValueError("fewer than two grid points inside B(center, R)")
    osc = float(np.ptp(field.values[sel2]))
    pts = dom.points[sel1]
    vals = field.values[sel1]
    ii, jj = _sample_pairs(substream(seed), pts, pair_budget)
    return (osc, np.linalg.norm(pts[ii] - pts[jj], axis=1),
            np.abs(vals[ii] - vals[jj]))


def _quotients(osc: float, dist, absdiff, delta: float, epsilon: float,
               R: float, C_prime):
    """Pair quotients (|du|/osc - C'(eps/R)^delta) / (|x - z|/R)^delta, the
    one formula behind K; C_prime broadcasts against the pair axis."""
    return (absdiff / osc - C_prime * (epsilon / R)**delta) / (dist / R)**delta


def _report(osc: float, dist, absdiff, delta: float, epsilon: float,
            R: float, center, C_prime) -> HolderReport:
    """holder_report from its pair terms."""
    center = tuple(np.asarray(center, float))
    if osc == 0.0:
        return HolderReport(delta, epsilon, R, center, C_prime, 0.0, 0.0, 0, ())
    quot = _quotients(osc, dist, absdiff, delta, epsilon, R, float(C_prime))
    rows = tuple(zip(dist.tolist(), absdiff.tolist(), quot.tolist()))
    return HolderReport(delta, epsilon, R, center, float(C_prime), osc,
                        float(quot.max()), len(rows), rows)


def _fit(osc: float, dist, absdiff, delta: float, epsilon: float,
         R: float) -> tuple[float, float]:
    """fit_c_prime from its pair terms."""
    if osc == 0.0:
        return 0.0, 0.0
    K = _quotients(osc, dist, absdiff, delta, epsilon, R,
                   _C_PRIME_GRID[:, None]).max(axis=1)
    best = int(np.argmin(K + _C_PRIME_GRID))
    return float(_C_PRIME_GRID[best]), float(K[best])


def holder_report(field: ValueField, delta: float, epsilon: float, R: float,
                  center, C_prime: float, pair_budget: int,
                  seed: int) -> HolderReport:
    """Evaluate the pair statistic K at a supplied floor constant C_prime.

    Pairs and quotients are those of fit_c_prime with the same arguments, so
    at the fitted C' the report's K is the fit's K exactly. A field constant
    on B(center, 2R) reports osc = K = 0 and no pairs. A non-finite
    C_prime raises ValueError.
    """
    if not math.isfinite(C_prime):
        raise ValueError(f"C_prime must be finite, got {C_prime!r}")
    return _report(*_pair_terms(field, delta, center, R, pair_budget, seed),
                   delta, epsilon, R, center, C_prime)


def fit_c_prime(field: ValueField, delta: float, epsilon: float, R: float,
                center, pair_budget: int, seed: int) -> tuple[float, float]:
    """Floor constant minimizing K(C') + C' over the 101-point grid on
    [0, 5], with its K.

    K alone is strictly decreasing in C', so the fit trades the two off at
    equal weight; both terms are dimensionless. The pairs and the quotient
    formula are holder_report's, so holder_report at the returned C' gives
    the returned K.
    """
    return _fit(*_pair_terms(field, delta, center, R, pair_budget, seed),
                delta, epsilon, R)


def _fitted_report(field: ValueField, delta: float, epsilon: float, R: float,
                   center, pair_budget: int,
                   seed: int) -> tuple[float, HolderReport]:
    """fit_c_prime's C' and holder_report at it, from one pair draw."""
    terms = _pair_terms(field, delta, center, R, pair_budget, seed)
    c_prime, _ = _fit(*terms, delta, epsilon, R)
    return c_prime, _report(*terms, delta, epsilon, R, center, c_prime)


def estimate_exponent(field: ValueField, epsilon: float, pair_filter=None,
                      seed: int = 0,
                      pair_budget: int = 20_000) -> tuple[float, float]:
    """Log-log slope of |u(x) - u(z)| against |x - z| over long-range pairs.

    Pairs are restricted to |x - z| >= 10*epsilon so the step-size noise
    floor does not pollute the regression; pair_filter(x_pts, z_pts) can
    narrow them further (e.g. to pairs straddling a feature of interest).
    Needs at least 10 pairs with distinct values.
    """
    dom = field.domain
    rng = substream(seed)
    P = dom.n_points
    ii = rng.integers(0, P, pair_budget)
    jj = rng.integers(0, P, pair_budget)
    X = dom.points[ii]
    Z = dom.points[jj]
    dist = np.linalg.norm(X - Z, axis=1)
    keep = dist >= 10.0 * epsilon
    if pair_filter is not None:
        keep &= np.asarray(pair_filter(X, Z), dtype=bool)
    du = np.abs(field.values[ii] - field.values[jj])
    keep &= du > 0
    if np.count_nonzero(keep) < 10:
        raise ValueError("fewer than 10 usable pairs")
    lt = np.log(dist[keep])
    ld = np.log(du[keep])
    slope, _ = np.polyfit(lt, ld, 1)
    r = np.corrcoef(lt, ld)[0, 1]
    return float(slope), float(r * r)
