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
on demand. A multilevel solve adds, on first use, the per-epsilon
hierarchy of coarser random walks behind its V-cycle (`_Hierarchy`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray

# Closed-ball membership tolerance, relative to epsilon.
BALL_TOL = 1e-12


def _as_point(x, n: int) -> Array:
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != n:
        raise ValueError(f"expected a point of dimension {n}, got shape {p.shape}")
    return p


def _vectorized(name, out, shape) -> Array:
    """The output of a vectorized callable, checked to have the shape of
    one value (or one point) per input row."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} must be vectorized: expected shape {shape}, "
                         f"got {out.shape}")
    return out


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


@functools.lru_cache(maxsize=64)
def stencil_offsets(n: int, spacing: float, epsilon: float) -> Array:
    """Integer lattice offsets o with |o*spacing| <= epsilon (closed ball).

    Sorted lexicographically. The closed-ball comparison uses the relative
    tolerance BALL_TOL*epsilon so lattice points sitting exactly on the sphere
    are kept regardless of rounding. Built once per key, read-only.
    """
    r = int(math.floor(epsilon / spacing + BALL_TOL)) + 1
    axes = [np.arange(-r, r + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    d2 = np.einsum("ij,ij->i", grid * spacing, grid * spacing)
    keep = d2 <= (epsilon * (1.0 + BALL_TOL)) ** 2
    offs = grid[keep].astype(np.int64)  # meshgrid "ij" rows are lexicographic
    offs.flags.writeable = False
    return offs


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
        # one column at a time: an axis-0 reduction of (M, n) rows is slower
        self._lo = np.array([c.min() for c in lattice.T])
        self._span = np.array([c.max() for c in lattice.T]) - self._lo + 1
        self._keys = _pack(lattice.T, self._lo, self._span)
        self._layouts: dict = {}
        self._hierarchies: dict = {}

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
        """Lattice offsets of the closed epsilon-ball, lexicographic order:
        the read-only `stencil_offsets` array of this lattice."""
        return stencil_offsets(self.ndim, self.spacing, epsilon)

    def neighbor_table(self, epsilon: float) -> Array:
        """(n_interior, S) row indices of each interior point's stencil
        (the first S columns of grid play's successor table): a box-to-row
        map read at the block positions of the key-box layout, derived on
        each call and cached nowhere; C-contiguous (S, n_interior),
        returned transposed."""
        layout = self._layout(epsilon)
        return layout.gather(layout.scatter(np.arange(self.n_points))).T

    def _layout(self, epsilon: float, runs: Optional[tuple] = None) -> "_Layout":
        """The key-box layout of the epsilon-stencil, the one per-epsilon
        structure a domain stores. Kept once every neighbor lies in the key
        box of the stored points (so no key wraps onto another row's) and a
        stored-key mask folded down the stencil rows holds everywhere.
        `runs`, the stencil's run plan in this key box, is planned here
        unless the caller already has it."""
        key = round(epsilon / self.spacing, 9)
        if key not in self._layouts:
            offs = self.stencil(epsilon)
            layout = _key_layout(
                self._keys, self._keys[self.interior_indices],
                _pack(offs.T, np.zeros_like(self._lo), self._span), runs)
            in_box = all(
                c.min() + a >= lo and c.max() + b < lo + s
                for c, a, b, lo, s in zip(
                    (c[self.interior_mask] for c in self.lattice.T),
                    offs.min(axis=0), offs.max(axis=0), self._lo, self._span))
            box = layout.scatter(np.ones(self.n_points, bool))
            if not (in_box and layout.runs_fold(box, np.logical_and).all()):
                raise RuntimeError(
                    "strip does not cover the epsilon-ball of an interior "
                    "point; rebuild the domain with this epsilon")
            self._layouts[key] = layout
        return self._layouts[key]

    def _hierarchy(self, epsilon: float) -> Optional["_Hierarchy"]:
        """The multigrid hierarchy of the epsilon random walk
        (`_Hierarchy.build`), built on first use and kept beside the
        layouts; None where the domain has none."""
        key = round(epsilon / self.spacing, 9)
        if key not in self._hierarchies:
            self._hierarchies[key] = _Hierarchy.build(self, epsilon)
        return self._hierarchies[key]


@dataclass(frozen=True)
class _Layout:
    """Point values laid out over the key box an epsilon-stencil reaches:
    stored rows `rows` go to positions `dest` of a box of `size` values, one
    per key from the first interior key plus the least offset key on. An
    interior point's neighbor at offset o has its key plus the offset's, so
    stencil row o of the (S, m) neighbor block is box[slices[o]] read at
    positions `pos`, and the interior values themselves sit at `inner`,
    the positions pos of the slice of offset 0 (the middle row of the
    symmetric stencil). The arrays are read-only.

    `runs`, the plan of `runs_fold`, is built once with the layout unless
    given: the slice starts cut into runs of consecutive keys (offsets next
    to each other along the last lattice axis), as (start, width) pairs in
    stencil order."""

    rows: slice
    dest: Array
    size: int
    slices: tuple
    pos: Array
    runs: Optional[tuple] = None
    inner: Array = field(init=False)

    def __post_init__(self):
        inner = self.pos + self.slices[len(self.slices) // 2].start
        object.__setattr__(self, "inner", inner)
        self.dest.flags.writeable = self.pos.flags.writeable = False
        inner.flags.writeable = False
        if self.runs is None:
            object.__setattr__(self, "runs",
                               _run_plan([s.start for s in self.slices]))

    def scatter(self, values: Array) -> Array:
        """The per-point values laid out over the box, zero between."""
        box = np.zeros(self.size, dtype=values.dtype)
        box[self.dest] = values[self.rows]
        return box

    def fold(self, box: Array, ufunc) -> Array:
        """The binary ufunc folded down the stencil rows in stencil order:
        the (m,) bits of its axis-0 reduction over the (S, m) block, which
        is never formed."""
        acc = box[self.slices[0]].copy()
        for s in self.slices[1:]:
            ufunc(acc, box[s], out=acc)
        return acc[self.pos]

    def runs_fold(self, box: Array, ufunc) -> Array:
        """ufunc down the stencil rows by runs (`_window_fold` over axis 0
        of box, read at pos). For maximum, minimum, logical_and and
        logical_or these are the bits of `fold`; for add, the value of
        `fold(box, np.add)` but not its bits."""
        length = self.slices[0].stop - self.slices[0].start
        return _window_fold(box, self.runs, length, ufunc)[self.pos]

    def gather(self, box: Array) -> Array:
        """The (S, m) block of box, a new C-contiguous array filled a row at
        a time (pos lies in every slice, so "clip" only skips a buffered
        copy)."""
        out = np.empty((len(self.slices), len(self.pos)), dtype=box.dtype)
        for row, s in zip(out, self.slices):
            np.take(box[s], self.pos, out=row, mode="clip")
        return out

    def block_index(self) -> Array:
        """The (S, m) box positions of the block: `box.take(index)` gives
        the bits of `gather(box)` in one call, for a caller that gathers
        many times."""
        return np.add.outer([s.start for s in self.slices], self.pos)


def _key_layout(keys: Array, ikeys: Array, okeys: Array,
                runs: Optional[tuple] = None) -> _Layout:
    """The `_Layout` of the stencil with offset keys okeys about the sorted
    interior keys ikeys, over the sorted stored keys, all in one key box."""
    start, stop = ikeys[0] + okeys.min(), ikeys[-1] + okeys.max() + 1
    rows = slice(*keys.searchsorted([start, stop]).tolist())
    length = int(ikeys[-1] - ikeys[0]) + 1
    return _Layout(rows, keys[rows] - start, int(stop - start),
                   tuple(slice(s, s + length)
                         for s in (okeys - okeys.min()).tolist()),
                   ikeys - ikeys[0], runs)


def _run_plan(starts) -> tuple:
    """Increasing slice starts cut into runs of consecutive integers:
    ((run start, width), ...) in the given order."""
    cuts = [0] + [i for i in range(1, len(starts))
                  if starts[i] != starts[i - 1] + 1] + [len(starts)]
    return tuple((starts[a], b - a) for a, b in zip(cuts, cuts[1:]))


def _window_fold(box: Array, runs: tuple, length: int, ufunc) -> Array:
    """A binary ufunc folded over slices box[s:s + length] (along axis 0),
    one per start s of the runs, in run order. A run of w consecutive
    starts reads w consecutive box values, so the ufunc over it is a
    window of width w, made from one table built by doubling: pows[b][i]
    is the ufunc over box[i:i + 2^b]. An idempotent ufunc (maximum,
    minimum, logical_and, logical_or) reads width w from two overlapping
    windows of its top power of two; add sums disjoint windows along the
    binary digits of w. The runs then fold in order. Every call takes the
    later values as its second operand, as a slice-by-slice fold does, so
    max and min resolve a tie of +0 and -0 alike and keep its bits."""
    widths = {w for _, w in runs}
    pows = [box]
    while 2 ** len(pows) <= max(widths):
        p = 2 ** (len(pows) - 1)
        pows.append(ufunc(pows[-1][:-p], pows[-1][p:]))
    wins = {}
    for w in widths:
        top = w.bit_length() - 1
        win, p = pows[top], 2 ** top
        if w == p:
            wins[w] = win
        elif ufunc is not np.add:  # two overlapping windows of width p
            wins[w] = ufunc(win[:p - w], win[w - p:])
        else:  # disjoint windows along the binary digits of w
            size = len(box) - w + 1
            win, at = win[:size], p
            for b in range(top - 1, -1, -1):
                if w >> b & 1:
                    win, at = win + pows[b][at:at + size], at + 2 ** b
            wins[w] = win
    (s, w), *rest = runs
    acc = wins[w][s:s + length].copy()
    for s, w in rest:
        ufunc(acc, wins[w][s:s + length], out=acc)
    return acc


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
    dims = tuple((khi - klo + 1).tolist())
    # the lattice box's points: coordinate k * spacing, as in GridDomain.points
    pts = np.empty(dims + (n,))
    for j in range(n):
        pts[..., j] = (np.arange(klo[j], khi[j] + 1) * spacing).reshape(
            [-1 if k == j else 1 for k in range(n)])
    inside = shape.contains(pts.reshape(-1, n)).reshape(dims)
    del pts
    if not inside.any():
        raise ValueError("shape contains no lattice points at this spacing")
    # the interior's extent in the lattice box, axis by axis
    occupied = [np.flatnonzero(inside.any(axis=tuple(k for k in range(n) if k != j)))
                for j in range(n)]
    first = np.array([o[0] for o in occupied])
    last = np.array([o[-1] for o in occupied])

    offs = stencil_offsets(n, spacing, epsilon)
    # Dilate in the key box of interior plus stencil. The stencil is
    # symmetric, so a key is marked where the interior mask holds at the key
    # plus some offset key: the OR of the mask over the offset keys' runs.
    # The mask sits in `marks`, padded so every such slice stays inside;
    # marked keys come out sorted.
    omin, omax = offs.min(axis=0), offs.max(axis=0)
    lo = klo + first + omin
    span = last - first + omax - omin + 1
    okeys = _pack(offs.T, np.zeros_like(lo), span)
    size = int(np.prod(span))
    marks = np.zeros(size + int(okeys[-1] - okeys[0]), dtype=bool)
    mask = marks[-okeys[0]:][:size]
    mask.reshape(tuple(span))[tuple(map(slice, -omin, last - first - omin + 1))] \
        = inside[tuple(map(slice, first, last + 1))]
    runs = _run_plan((okeys - okeys[0]).tolist())
    keys = np.flatnonzero(_window_fold(marks, runs, size, np.logical_or))
    lattice = np.empty((len(keys), n), dtype=np.int64)
    for col, c, a in zip(lattice.T, np.unravel_index(keys, tuple(span)), lo):
        np.add(c, a, out=col)
    dom = GridDomain(shape, spacing, epsilon, lattice, mask[keys])
    # the dilation's key box is the domain's, so its run plan is the layout's
    dom._layout(epsilon, runs)  # asserts strip coverage eagerly
    return dom


# A hierarchy coarsens until a level has at most COARSEST interior points,
# which its cached inverse solves exactly.
COARSEST = 64


class _Hierarchy:
    """The multigrid hierarchy of the random walk A = I - P on a domain's
    interior, for the V-cycle preconditioner M of A (`vcycle`).

    Level j is the walk at step 2^j epsilon on the lattice 2^j h (the same
    integer stencil: doubling is exact) over level j - 1's interior points
    with all lattice coordinates even, halved, laid out in the key box of
    those points plus the stencil with no strip (the walk reads strip
    values as zero). For a domain built from its shape, that is the
    interior and key box of its rebuild at (2^j h, 2^j epsilon). Coarsening
    stops at a level of at most COARSEST interior points, whose inverse is
    kept: I minus the walk of its layout on the identity's columns,
    inverted (`_walk_inverse`).

    Levels are linked in level j's key box, where a step along lattice
    axis d is a step of stride_d positions. Prolongation lays the coarse
    interior values out at their points' positions, zero elsewhere,
    spreads them by the kernel K = prod_d (1, 2, 1)/2 along each axis and
    reads the fine interior positions: on values at the even points K is
    multilinear interpolation, each fine point taking 2^-q times the sum
    over the 2^q corners of its cell (q its count of odd coordinates), with
    coarse strip and absent points as zero. K is symmetric, so restriction,
    the exact transpose, lays fine values out, spreads them by the same K
    and reads the coarse positions. K reads at most one lattice step per
    axis from an interior point, and the box reaches at least three beyond
    it, so no step wraps across a row of the box.

    The hierarchy keeps each level's layout, the links and the inverse but
    no domain, so it dies with the domain that holds it."""

    def __init__(self, layouts: list, links: list, inverse: Array,
                 scale: float):
        self.layouts, self.links = layouts, links
        self.inverse, self.scale = inverse, scale

    @staticmethod
    def build(domain: GridDomain, epsilon: float) -> Optional["_Hierarchy"]:
        """The hierarchy of the epsilon walk on domain; None where a coarser
        level has no interior point."""
        offs = domain.stencil(epsilon)
        omin, omax = offs.min(axis=0), offs.max(axis=0)
        layout, span = domain._layout(epsilon), domain._span
        lat = domain.lattice[domain.interior_indices]
        layouts, links = [layout], []
        while len(lat) > COARSEST:
            even = np.flatnonzero(~np.any(lat & 1, axis=1))
            if not len(even):
                return None
            strides = np.cumprod(span[:0:-1])[::-1].tolist() + [1]
            links.append((layout.inner[even], strides))
            lat = lat[even] >> 1
            lo = np.array([c.min() for c in lat.T]) + omin
            span = np.array([c.max() for c in lat.T]) + omax - lo + 1
            ikeys = _pack(lat.T, lo, span)
            layout = _key_layout(ikeys, ikeys,
                                 _pack(offs.T, np.zeros_like(span), span))
            layouts.append(layout)
        return _Hierarchy(layouts, links, _walk_inverse(layout),
                          2.0 ** (2 - domain.ndim))

    def vcycle(self, r: Array) -> Array:
        """M r: one V-cycle on A x = r from x = 0. Each level takes one walk
        sweep x = r (Richardson from 0, leaving the residual P r), adds the
        coarse correction of that residual, restricted and scaled by
        2^(2-n), and takes one more sweep x = r + P x; the coarsest level
        applies its inverse. The scale makes the coarse walk stand for the
        fine one on smooth modes: its A is 4 times as large there, and
        restriction sums 2^n times what prolongation spreads. Pre- and
        post-sweep are the same symmetric map, so M is symmetric positive
        definite. Elementwise numpy, gathers and einsum only: no BLAS
        call."""
        return self._cycle(0, r)

    def _cycle(self, j: int, r: Array) -> Array:
        if j == len(self.links):
            return np.einsum("ij,j->i", self.inverse, r)
        layout = self.layouts[j]
        e = self._cycle(j + 1, self.scale * self.restrict(j, _walk(layout, r)))
        return r + _walk(layout, r + self.prolong(j, e))

    def prolong(self, j: int, e: Array) -> Array:
        """Level j's interior values interpolated from level j + 1's."""
        at, strides = self.links[j]
        box = np.zeros(self.layouts[j].size)
        box[at] = e
        return _spread(box, strides)[self.layouts[j].inner]

    def restrict(self, j: int, r: Array) -> Array:
        """Level j + 1's interior values from level j's: the transpose of
        `prolong`."""
        at, strides = self.links[j]
        return _spread(_laid_out(self.layouts[j], r), strides).take(at)


def _walk(layout: "_Layout", x: Array) -> Array:
    """P x on the layout's interior, with zero strip data; x's columns, if
    any, walk side by side."""
    return layout.runs_fold(_laid_out(layout, x), np.add) / len(layout.slices)


def _laid_out(layout: "_Layout", x: Array) -> Array:
    """Interior values x (axis 0) laid out over the layout's box, zero
    elsewhere."""
    box = np.zeros((layout.size,) + x.shape[1:])
    box[layout.inner] = x
    return box


def _spread(box: Array, strides: list) -> Array:
    """K box, in place: for each axis, with its stride s in the box, the
    value plus half of each neighbor's, box[i] + (box[i - s] + box[i +
    s]) / 2, past the box's ends counted as zero."""
    for s in strides:
        half = 0.5 * box
        box[s:] += half[:-s]
        box[:-s] += half[s:]
    return box


def _walk_inverse(layout: "_Layout") -> Array:
    """(A^-1) of the walk A = I - P on a small layout's interior: P is
    the walk of the identity's columns, one (size, m) box."""
    eye = np.eye(len(layout.pos))
    return _spd_inverse(eye - _walk(layout, eye))


def _spd_inverse(A: Array) -> Array:
    """A^-1 for a small symmetric positive definite A: `_eliminate` on
    [A | I], then back substitution a row at a time by einsum."""
    m = len(A)
    M = np.concatenate([A, np.eye(m)], axis=1)
    _eliminate(M)
    X = M[:, m:]
    for k in range(m - 1, -1, -1):
        X[k] -= np.einsum("j,jc->c", M[k, k + 1:m], X[k + 1:])
        X[k] /= M[k, k]
    return np.ascontiguousarray(X)


def _eliminate(M: Array):
    """Forward elimination without pivoting on the augmented (n, n + k)
    system M of a symmetric positive definite matrix, in place and in a
    fixed order: for each pivot row p = M[k] and each later row, c =
    row[k] / p[k], then row[j] - c * p[j] for j > k. numpy row operations
    with no BLAS call; column k below the pivot is left as it was."""
    for k in range(len(M) - 1):
        c = M[k + 1:, k] / M[k, k]
        M[k + 1:, k + 1:] -= np.multiply.outer(c, M[k, k + 1:])


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


def _json_text(payload) -> str:
    """Every report's and artifact's JSON: sorted, indented and strict."""
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2)


def _jsonable(v):
    """v with numpy scalars and arrays as Python ones, a non-finite float as
    its repr string."""
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
