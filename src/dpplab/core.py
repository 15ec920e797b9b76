"""Grid domains with boundary strips, ball stencils, and exact moment identities.

A domain is a lattice h*Z^n clipped to a shape (open ball, open box, or a
predicate mask). Interior points carry unknowns; the strip is the minimal set
of extra lattice points so that every interior point's closed epsilon-ball is
covered, which is where boundary data lives. Points are enumerated in
lexicographic lattice order so that every downstream computation is
deterministic; in that order packed int64 keys increase, so one sorted key
index serves every lookup by binary search. Since packing is linear,
values laid out over the key box put each stencil row of every interior
point in one contiguous slice: this key-box layout is the one per-epsilon
stencil structure a domain stores. Sweeps fold down its slices or gather
the (S, m) stencil block from it, and neighbor tables are derived from it
on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

# Closed-ball membership tolerance, relative to epsilon.
BALL_TOL = 1e-12


def _as_point(x, n: int) -> Array:
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != n:
        raise ValueError(f"expected a point of dimension {n}, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class Ball:
    """Open euclidean ball used as a domain shape."""

    center: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def ndim(self) -> int:
        return len(self.center)

    def contains(self, pts: Array) -> Array:
        d = np.asarray(pts, dtype=float) - np.asarray(self.center)
        return np.einsum("...i,...i->...", d, d) < self.radius**2

    def bounding_box(self) -> tuple[Array, Array]:
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box used as a domain shape."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box must have positive extent in every axis")

    @property
    def ndim(self) -> int:
        return len(self.lo)

    def contains(self, pts: Array) -> Array:
        p = np.asarray(pts, dtype=float)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((p > lo) & (p < hi), axis=-1)

    def bounding_box(self) -> tuple[Array, Array]:
        return np.asarray(self.lo), np.asarray(self.hi)


@dataclass(frozen=True)
class Mask:
    """Shape given by an arbitrary vectorized predicate plus a bounding box."""

    predicate: Callable[[Array], Array]
    lo: tuple
    hi: tuple

    @property
    def ndim(self) -> int:
        return len(self.lo)

    def contains(self, pts: Array) -> Array:
        out = np.asarray(self.predicate(np.asarray(pts, dtype=float)))
        return out.astype(bool)

    def bounding_box(self) -> tuple[Array, Array]:
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


def stencil_offsets(n: int, spacing: float, epsilon: float) -> Array:
    """Integer lattice offsets o with |o*spacing| <= epsilon (closed ball).

    Sorted lexicographically. The closed-ball comparison uses the relative
    tolerance BALL_TOL*epsilon so lattice points sitting exactly on the sphere
    are kept regardless of rounding.
    """
    r = int(math.floor(epsilon / spacing + BALL_TOL)) + 1
    axes = [np.arange(-r, r + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    d2 = np.einsum("ij,ij->i", grid * spacing, grid * spacing)
    keep = d2 <= (epsilon * (1.0 + BALL_TOL)) ** 2
    offs = grid[keep]
    order = np.lexsort(offs.T[::-1])
    return offs[order].astype(np.int64)


def _pack(columns, lo: Array, span: Array) -> Array:
    """Row-major int64 keys of lattice points given coordinate-major (n, ...).

    Inside the key box [lo, lo + span) keys follow lexicographic lattice
    order. The map is linear, so the key of p + o is the key of p plus that
    of o packed with lo = 0.
    """
    key = 0
    for c, a, s in zip(columns, lo, span):
        key = key * s + (c - a)
    return key


class GridDomain:
    """Lattice domain: interior unknowns plus a boundary strip.

    Attributes:
        ndim: space dimension n.
        spacing: lattice spacing h.
        strip_width: nominal strip width (>= epsilon used at construction).
        lattice: (M, n) int64 lattice coordinates, lexicographic order, so
            their packed keys (the lookup index) strictly increase.
        points: (M, n) float physical coordinates (lattice * spacing).
        interior_mask: (M,) bool, True for interior points.
    """

    def __init__(self, shape, spacing: float, epsilon: float,
                 lattice: Array, interior_mask: Array):
        self.shape = shape
        self.ndim = int(lattice.shape[1])
        self.spacing = float(spacing)
        self.strip_width = float(epsilon)
        self.lattice = lattice
        self.points = lattice * spacing
        self.interior_mask = interior_mask
        self.interior_indices = np.flatnonzero(interior_mask)
        self.strip_indices = np.flatnonzero(~interior_mask)
        self._lo = lattice.min(axis=0)
        self._span = lattice.max(axis=0) - self._lo + 1
        self._keys = _pack(lattice.T, self._lo, self._span)
        self._stencils: dict = {}
        self._layouts: dict = {}
        # Move-menu matrices of the directional game, built and keyed by
        # dpplab.operators; they live and die with this domain.
        self._menus: dict = {}

    # -- counts ---------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_interior(self) -> int:
        return len(self.interior_indices)

    @property
    def n_strip(self) -> int:
        return len(self.strip_indices)

    @property
    def interior_points(self) -> Array:
        return self.points[self.interior_indices]

    @property
    def strip_points(self) -> Array:
        return self.points[self.strip_indices]

    # -- lookups --------------------------------------------------------

    def _rows(self, cols) -> Array:
        """Rows of integer lattice points given coordinate-major, cols
        (n, m, ...); -1 where a point is absent.

        One binary search in the sorted keys. A point outside the key box is
        absent, so its key can never wrap onto another row's.
        """
        cols = np.asarray(cols, dtype=np.int64)
        key = _pack(cols, self._lo, self._span)
        for c, a, s in zip(cols, self._lo, self._span):
            key[(c < a) | (c >= a + s)] = -1
        pos = self._keys.searchsorted(key)
        pos[self._keys.take(pos, mode="clip") != key] = -1
        return pos

    def _point_rows(self, pts: Array) -> Array:
        """Rows of the lattice points pts (m, n); KeyError names the first
        point that is off the lattice or outside the domain."""
        k = np.rint(pts / self.spacing)
        off = np.any(np.abs(k * self.spacing - pts) > 1e-9 * self.spacing, axis=1)
        rows = self._rows(k.T)
        bad = off | (rows < 0)
        if bad.any():
            i = int(bad.argmax())
            if off[i]:
                raise KeyError(f"{pts[i]} is not a lattice point of this domain")
            raise KeyError(f"{pts[i]} lies outside the domain")
        return rows

    def point_index(self, x) -> int:
        """Row index of the grid point at x (must lie on the lattice)."""
        return int(self._point_rows(_as_point(x, self.ndim)[None, :])[0])

    def nearest_index(self, x) -> int:
        """Row index of the stored point nearest to x (ties: lexicographic)."""
        p = _as_point(x, self.ndim)
        row = int(self._rows(np.rint(p / self.spacing)[:, None])[0])
        if row >= 0:
            return row
        d2 = np.einsum("ij,ij->i", self.points - p, self.points - p)
        return int(np.argmin(d2))

    # -- stencils -------------------------------------------------------

    def stencil(self, epsilon: float) -> Array:
        """Lattice offsets of the closed epsilon-ball, lexicographic order."""
        key = round(epsilon / self.spacing, 9)
        if key not in self._stencils:
            offs = stencil_offsets(self.ndim, self.spacing, epsilon)
            offs.flags.writeable = False
            self._stencils[key] = offs
        return self._stencils[key]

    def neighbor_table(self, epsilon: float) -> Array:
        """(n_interior, S) row indices of each interior point's stencil,
        which grid play steps through: a box-to-row map read at the block
        positions of the key-box layout, derived on each call and cached
        nowhere; C-contiguous (S, n_interior), returned transposed."""
        layout = self._layout(epsilon)
        return layout.gather(layout.scatter(np.arange(self.n_points))).T

    def _layout(self, epsilon: float) -> "_Layout":
        """The key-box layout of the epsilon-stencil, the one per-epsilon
        structure a domain stores. Kept once every neighbor lies in the key
        box of the stored points (so no key wraps onto another row's) and a
        stored-key mask folded down the stencil rows holds everywhere."""
        key = round(epsilon / self.spacing, 9)
        if key not in self._layouts:
            offs = self.stencil(epsilon)
            base = self.lattice[self.interior_indices]
            okeys = _pack(offs.T, np.zeros_like(self._lo), self._span)
            ikeys = self._keys[self.interior_indices]
            start, stop = ikeys[0] + okeys.min(), ikeys[-1] + okeys.max() + 1
            rows = slice(*self._keys.searchsorted([start, stop]).tolist())
            length = int(ikeys[-1] - ikeys[0]) + 1
            layout = _Layout(rows, self._keys[rows] - start, int(stop - start),
                             tuple(slice(s, s + length)
                                   for s in (okeys - okeys.min()).tolist()),
                             ikeys - ikeys[0])
            (hit,) = layout.fold(layout.scatter(np.ones(self.n_points, bool)),
                                 (np.logical_and,))
            if not (np.all(base.min(axis=0) + offs.min(axis=0) >= self._lo)
                    and np.all(base.max(axis=0) + offs.max(axis=0)
                               < self._lo + self._span) and hit.all()):
                raise RuntimeError(
                    "strip does not cover the epsilon-ball of an interior "
                    "point; rebuild the domain with this epsilon")
            self._layouts[key] = layout
        return self._layouts[key]


@dataclass(frozen=True)
class _Layout:
    """Point values laid out over the key box an epsilon-stencil reaches:
    stored rows `rows` go to positions `dest` of a box of `size` values, one
    per key from the first interior key plus the least offset key on. An
    interior point's neighbor at offset o has its key plus the offset's, so
    stencil row o of the (S, m) neighbor block is box[slices[o]] read at
    positions `pos`. The arrays are read-only."""

    rows: slice
    dest: Array
    size: int
    slices: tuple
    pos: Array

    def __post_init__(self):
        self.dest.flags.writeable = self.pos.flags.writeable = False

    def scatter(self, values: Array) -> Array:
        """The per-point values laid out over the box, zero between."""
        box = np.zeros(self.size, dtype=values.dtype)
        box[self.dest] = values[self.rows]
        return box

    def fold(self, box: Array, ufuncs) -> list:
        """Each binary ufunc folded down the stencil rows in stencil order:
        one (m,) result per ufunc, the bits of its axis-0 reduction over
        the (S, m) block, which is never formed."""
        accs = [box[self.slices[0]].copy() for _ in ufuncs]
        for s in self.slices[1:]:
            row = box[s]
            for f, acc in zip(ufuncs, accs):
                f(acc, row, out=acc)
        return [acc[self.pos] for acc in accs]

    def gather(self, box: Array) -> Array:
        """The C-contiguous (S, m) block of box, filled a row at a time
        (pos lies in every slice, so "clip" only skips a buffered copy)."""
        out = np.empty((len(self.slices), len(self.pos)), dtype=box.dtype)
        for row, s in zip(out, self.slices):
            np.take(box[s], self.pos, out=row, mode="clip")
        return out


def build_grid_domain(shape, spacing: float, epsilon: float) -> GridDomain:
    """Build a GridDomain for `shape` with lattice step `spacing`.

    The strip is the dilation of the interior lattice set by the closed
    epsilon-stencil, minus the interior: the minimal point set covering one
    epsilon-step beyond the interior.

    Raises:
        ValueError: no interior points, or spacing too coarse (epsilon < 3h).
    """
    if spacing <= 0 or epsilon <= 0:
        raise ValueError("spacing and epsilon must be positive")
    if epsilon < 3.0 * spacing:
        raise ValueError(
            f"spacing {spacing} too coarse for epsilon {epsilon}: need epsilon >= 3*spacing")
    lo, hi = shape.bounding_box()
    n = shape.ndim
    klo = np.floor(np.asarray(lo) / spacing).astype(np.int64) - 1
    khi = np.ceil(np.asarray(hi) / spacing).astype(np.int64) + 1
    axes = [np.arange(klo[j], khi[j] + 1) for j in range(n)]
    lat = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    inside = shape.contains(lat * spacing)
    interior = lat[inside]
    if len(interior) == 0:
        raise ValueError("shape contains no lattice points at this spacing")

    offs = stencil_offsets(n, spacing, epsilon)
    # Dilate in the key box of interior plus stencil, where each dilated key
    # is an interior key plus an offset key; marked keys come out sorted.
    lo = interior.min(axis=0) + offs.min(axis=0)
    span = interior.max(axis=0) + offs.max(axis=0) - lo + 1
    ikeys = _pack(interior.T, lo, span)
    hit = np.zeros(int(np.prod(span)), dtype=bool)
    hit[ikeys[:, None] + _pack(offs.T, np.zeros_like(lo), span)] = True
    keys = np.flatnonzero(hit)
    lattice = lo + np.stack(np.unravel_index(keys, tuple(span)), axis=1)
    interior_mask = np.zeros(len(keys), dtype=bool)
    interior_mask[np.searchsorted(keys, ikeys)] = True
    dom = GridDomain(shape, spacing, epsilon, lattice, interior_mask)
    dom._layout(epsilon)  # asserts strip coverage eagerly
    return dom


def ball_neighbors(domain: GridDomain, x, epsilon: float) -> Array:
    """Grid points of `domain` within the closed epsilon-ball of x.

    x must be a grid point; the result includes x itself and is ordered
    lexicographically by lattice offset.
    """
    base = domain.lattice[domain.point_index(x)]
    rows = domain._rows((base + domain.stencil(epsilon)).T)
    return domain.points[rows[rows >= 0]]


@dataclass
class ValueField:
    """Values attached to every stored point of a GridDomain."""

    domain: GridDomain
    values: Array

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.domain.n_points:
            raise ValueError("values length must equal the domain point count")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        self.values = v

    @property
    def interior_values(self) -> Array:
        return self.values[self.domain.interior_indices]

    @property
    def strip_values(self) -> Array:
        return self.values[self.domain.strip_indices]

    def osc_strip(self) -> float:
        s = self.strip_values
        return float(s.max() - s.min()) if len(s) else 0.0

    def copy(self) -> "ValueField":
        return ValueField(self.domain, self.values.copy())

    def with_interior(self, interior_values: Array) -> "ValueField":
        out = self.values.copy()
        out[self.domain.interior_indices] = interior_values
        return ValueField(self.domain, out)

    def evaluate(self, pts: Array) -> Array:
        """Exact lookup of stored values at lattice points (batched)."""
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        if p.shape[1] != self.domain.ndim:
            raise ValueError(f"expected points of dimension {self.domain.ndim}, "
                             f"got shape {p.shape}")
        out = self.values[self.domain._point_rows(p)]
        return out if np.ndim(pts) > 1 else out[0]


def constant_field(domain: GridDomain, value: float) -> ValueField:
    return ValueField(domain, np.full(domain.n_points, float(value)))


def field_from_function(domain: GridDomain, f: Callable[[Array], Array]) -> ValueField:
    return ValueField(domain, np.asarray(f(domain.points), dtype=float))


# -- exact moment identities ---------------------------------------------


def ball_second_moment(n: int, epsilon: float) -> float:
    """Mean of a single squared coordinate over the uniform n-ball of radius epsilon."""
    if n < 1 or epsilon <= 0:
        raise ValueError("need n >= 1 and epsilon > 0")
    return epsilon**2 / (n + 2)


def disk_second_moment(n: int, epsilon: float) -> float:
    """Mean of |h|^2 over the uniform (n-1)-disk of radius epsilon in R^n."""
    if n < 2 or epsilon <= 0:
        raise ValueError("need n >= 2 and epsilon > 0")
    return (n - 1) * epsilon**2 / (n + 1)


def ball_volume(n: int, radius: float) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * radius**n


def orthonormal_complement(v: Array) -> Array:
    """(n-1, n) orthonormal basis of the hyperplane orthogonal to v.

    Deterministic for a given v (Householder construction). A (D, n) stack
    of vectors gives the (D, n-1, n) stack of their bases, each row the same
    bits as its single-vector call.
    """
    v = np.asarray(v, dtype=float)
    V = v.reshape(-1, v.shape[-1])
    n = V.shape[1]
    nv = np.sqrt(np.vecdot(V, V))
    if np.any(nv == 0):
        raise ValueError("zero vector has no normal hyperplane")
    U = V / nv[:, None]
    # Householder vector mapping e_k -> u, k = argmax |u_k| for stability.
    k = np.argmax(np.abs(U), axis=1)[:, None]
    W = U + np.where(np.arange(n) == k, np.where(U >= 0, 1.0, -1.0), 0.0)
    W /= np.sqrt(np.vecdot(W, W))[:, None]
    H = np.eye(n) - 2.0 * (W[:, :, None] * W[:, None, :])
    # H is symmetric and maps u to -e_k (up to sign); its other rows span
    # the complement.
    return H[np.arange(n) != k].reshape(v.shape[:-1] + (n - 1, n))
