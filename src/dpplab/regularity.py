"""Empirical smoothness statistics of solved value fields.

The headline statistic K measures how far sampled pairs (x, z) push the
normalized difference |u(x) - u(z)| above the step-size noise floor:

    K = max over pairs of  [|u(x) - u(z)| - C'(eps/R)^delta * osc]
                           / [(|x - z|/R)^delta * osc]

with osc the oscillation of u over B(center, 2R). Pairs live in
B(center, R) and are sampled stratified by separation decade so short and
long ranges both contribute.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import GridDomain, ValueField
from .rng import substream


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

    def to_json(self) -> str:
        payload = {
            "delta": self.delta, "epsilon": self.epsilon, "R": self.R,
            "center": list(self.center), "c_prime": self.c_prime,
            "osc": self.osc, "K": self.K, "pair_count": self.pair_count,
            "quotients": [list(q) for q in self.quotients],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _ball_point_indices(domain: GridDomain, center, radius: float,
                        require_cover: bool = False) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    d = domain.points - c
    sel = np.flatnonzero(np.einsum("ij,ij->i", d, d) < radius**2)
    if require_cover:
        h = domain.spacing
        lo = np.floor((c - radius) / h).astype(np.int64)
        hi = np.ceil((c + radius) / h).astype(np.int64)
        ranges = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
        grids = np.meshgrid(*ranges, indexing="ij")
        ks = np.stack([g.ravel() for g in grids], axis=1)
        pts = ks * h
        dd = pts - c
        inside = np.einsum("ij,ij->i", dd, dd) < radius**2
        if np.any(domain._rows(ks[inside].T) < 0):
            raise ValueError(
                f"B(center, {radius}) is not covered by the field's domain")
    return sel


def _sample_pairs(rng, pts: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i != j, stratified by separation decade."""
    P = len(pts)
    if P < 2 or budget < 1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    span = float(math.dist(pts.min(axis=0), pts.max(axis=0)))
    nearest = np.inf
    probe = pts[rng.integers(0, P, min(64, P))]
    for q in probe:
        d = np.linalg.norm(pts - q, axis=1)
        d = d[d > 0]
        if len(d):
            nearest = min(nearest, float(d.min()))
    if not math.isfinite(nearest) or span <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    n_bands = max(1, min(6, int(math.ceil(math.log10(span / nearest)))))
    bands = [(span / 10.0**(k + 1), span / 10.0**k) for k in range(n_bands)]
    quota = budget // n_bands
    out_i, out_j = [], []
    for lo, hi in bands:
        got = 0
        for _ in range(quota * 50):
            if got >= quota:
                break
            i = int(rng.integers(0, P))
            j = int(rng.integers(0, P))
            if i == j:
                continue
            t = float(np.linalg.norm(pts[i] - pts[j]))
            if lo < t <= hi:
                out_i.append(i)
                out_j.append(j)
                got += 1
    while len(out_i) < budget:
        i = int(rng.integers(0, P))
        j = int(rng.integers(0, P))
        if i != j:
            out_i.append(i)
            out_j.append(j)
    return np.asarray(out_i[:budget]), np.asarray(out_j[:budget])


def _pair_terms(field: ValueField, center, R: float, pair_budget: int,
                seed: int):
    """(osc over B_2R, distances, |du| ) for sampled pairs in B_R."""
    dom = field.domain
    sel2 = _ball_point_indices(dom, center, 2.0 * R, require_cover=True)
    if len(sel2) == 0:
        raise ValueError("no grid points inside B(center, 2R)")
    ring = field.values[sel2]
    osc = float(ring.max() - ring.min())
    sel1 = _ball_point_indices(dom, center, R)
    pts = dom.points[sel1]
    vals = field.values[sel1]
    ii, jj = _sample_pairs(substream(seed), pts, pair_budget)
    dist = np.linalg.norm(pts[ii] - pts[jj], axis=1)
    absdiff = np.abs(vals[ii] - vals[jj])
    keep = dist > 0
    return osc, dist[keep], absdiff[keep]


def holder_report(field: ValueField, delta: float, epsilon: float, R: float,
                  center, C_prime: float, pair_budget: int,
                  seed: int) -> HolderReport:
    """Evaluate the pair statistic K at a supplied floor constant C_prime."""
    if pair_budget < 1:
        raise ValueError("pair_budget must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    osc, dist, absdiff = _pair_terms(field, center, R, pair_budget, seed)
    if osc == 0.0:
        return HolderReport(delta, epsilon, R, tuple(np.asarray(center, float)),
                            C_prime, 0.0, 0.0, 0, ())
    floor = C_prime * (epsilon / R)**delta * osc
    denom = (dist / R)**delta * osc
    quot = (absdiff - floor) / denom
    rows = tuple((float(d), float(a), float(q))
                 for d, a, q in zip(dist, absdiff, quot))
    return HolderReport(delta, epsilon, R, tuple(np.asarray(center, float)),
                        float(C_prime), osc, float(quot.max()), len(rows), rows)


def fit_c_prime(field: ValueField, delta: float, epsilon: float, R: float,
                center, pair_budget: int, seed: int,
                grid=None) -> tuple[float, float]:
    """Floor constant minimizing K(C') + C' over a grid, with its K.

    K alone is strictly decreasing in C', so the fit trades the two off at
    equal weight; both terms are dimensionless.
    """
    osc, dist, absdiff = _pair_terms(field, center, R, pair_budget, seed)
    if osc == 0.0:
        return 0.0, 0.0
    if grid is None:
        grid = np.linspace(0.0, 5.0, 101)
    grid = np.asarray(grid, dtype=float)
    A = absdiff / osc
    D = (dist / R)**delta
    F = (epsilon / R)**delta
    K = np.max((A[None, :] - grid[:, None] * F) / D[None, :], axis=1)
    best = int(np.argmin(K + grid))
    return float(grid[best]), float(K[best])


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
