"""Fixed-point solver for the grid dynamic programming operators.

One accelerated loop serves all four games. The strip data is scattered
once per solve into the key-box layout of the stencil. Each evaluation of
T writes the iterate's interior values to their box positions and sweeps
the box (`operators.sweep_box`), so it builds no ValueField; a non-finite
residual (an overflowing sweep) raises ValueError. The first evaluation is
an `apply_operator` call on the starting field, and the returned field is
built once, at the end. A mixer turns the evaluations into the next
iterate:

* The nonlinear games mix by Anderson (Walker & Ni, SIAM J. Numer. Anal.
  2011): the next iterate combines the last ANDERSON_DEPTH evaluations,
  the combination of their residual differences closest to the current
  residual in least squares. Once the games' max/min choices settle the
  map is linear and the loop acts like GMRES, so the evaluation count does
  not grow like the eps^-2 of plain Picard sweeps. The Gram matrix of the
  differences is updated one column per evaluation and the small system is
  solved by elimination in a fixed order (`core._eliminate`, numpy row
  operations). Each extrapolated iterate is clipped to [min, max] of the
  strip data; that box holds the fixed point because T is monotone and
  fixes constants.
* The random walk's T (a constant alpha of 0) is affine and I - P is
  symmetric positive definite, so it mixes by conjugate gradients (`_CG`),
  which need about eps^-1 evaluations where Anderson's restarted GMRES
  needs many more. Each evaluation is at a trial point y = x + a p, a the
  last step length, and T(y) - y gives the product with the search
  direction p; CG iterates are not clipped.

Multilevel solves. The fixed-point equation holds at every step size, so
the walk at 2 eps on a lattice of spacing 2h is the coarse level of the
walk at eps: the domain holds a hierarchy of such walks, built on first
use (`GridDomain._hierarchy`), whose V-cycle M is a symmetric positive
definite preconditioner of I - P (`core._Hierarchy.vcycle`). Where it pays
(`_vcycle`: the stored points span at least VCYCLE_EXTENT step sizes, and
a ball game's mean alpha is at most VCYCLE_ALPHA), the walk runs
preconditioned CG, still one T evaluation per step, and the mixed game
mixes G(x) = x + M(T(x) - x) by Anderson in place of T, one V-cycle per mix.
Either way the loop's residual, its stop, best iterate, restarts,
handover and closing window read T alone. Counts then stay nearly flat in
eps: on the unit disk at h = eps/3, data |x . e|, tol 1e-6, the walk takes
11 evaluations at eps 0.05 (96 without), the mixed game (alpha 0.5) 40
(176), 44 at eps 0.025. Tug-of-war (alpha 1) and the directional game
keep the plain loop: an isotropic walk does not model their
one-directional midrange. Below the gate every solve takes the plain path
and keeps its bits.

No mixer makes a BLAS call: Anderson's products are `np.einsum`
reductions (one pass over its history per evaluation) and its small solve
is elementwise numpy and Python floats, CG's inner products are `np.sum`
reductions, and the V-cycle is elementwise numpy, gathers and einsum, so
a solve is bit-identical at any thread count. When the residual grows
RESTART-fold past its best, the mixer's history is dropped and the loop
restarts from the best iterate's image.

The stop is error-aware: it needs the sup-norm residual AND an estimate of
the distance to the fixed point (the tail) within tol.

* Random walk: the tail is the certified bound (R^2/m2) * residual of
  `_walk_bound`, checked at every evaluated point.
* The nonlinear games: the tail is the geometric estimate
  residual * rho/(1 - rho), rho read from PICARD_SWEEPS plain sweeps.

The mixer hands over to those plain sweeps, taken from the best iterate's
image, once the residual is at most HANDOVER * tol, or after STALL
evaluations without a new best (a tol near the float64 rounding floor).
If the stop fails at the end of the window, mixing resumes from the
window's last image and hands over again at HANDOVER times the window's
last residual. For the nonlinear games neither gate falls below
FLOOR_ULPS ulps of the strip data, so a plain window starts above the
rounding floor, where its residuals still show the contraction.

The returned field is T of the last evaluated point, whose own residual
is at most the last one recorded (T is sup-norm non-expansive). The
diagnostics count operator evaluations and the V-cycles applied
separately and keep one residual per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Array, GridDomain, ValueField, _eliminate
from .operators import GameSpec, apply_operator, sweep_box


@dataclass
class SolveDiagnostics:
    """How a solve ended. Only the random walk's tail_error is a bound: the
    certified (R^2/m2) * residual on the sup-norm distance to the fixed
    point. The nonlinear games' is a geometric estimate from the closing
    sweeps; on unit-disk panels it read under the true distance by up to
    14x (mixed game, alpha 0.5) and 3.4x (tug-of-war, mixed 0.9,
    directional), while every error stayed within tol."""

    iterations: int
    final_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)
    tol: float = float("nan")
    tail_error: float = float("inf")
    # Contraction factor rho behind tail_error: for the nonlinear games
    # estimated from the closing plain sweeps (inf where none were taken or
    # no contraction is visible); for the random walk 1 - m2/R^2, its
    # certified rate in the norm weighted by the barrier of `_walk_bound`.
    contraction: float = float("inf")
    # V-cycles of the multilevel preconditioner applied (0 on the plain
    # path); T evaluations are counted by iterations alone.
    cycles: int = 0

    def as_dict(self) -> dict:
        """The fields by name."""
        return dict(vars(self))

    def summary(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        cycles = f" ({self.cycles} V-cycles)" if self.cycles else ""
        return (f"{state} after {self.iterations} iterations{cycles}, "
                f"residual {self.final_residual:.3e}, tail error "
                f"{self.tail_error:.3e} (tol {self.tol:.3e}), contraction "
                f"{self.contraction:.6f}")


def residual(fld: ValueField, spec: GameSpec) -> float:
    """Sup-norm one-step defect |T(u) - u| over interior points."""
    out = apply_operator(fld, spec)
    return float(np.max(np.abs(out.interior_values - fld.interior_values))) \
        if fld.domain.n_interior else 0.0


def boundary_field(domain: GridDomain, boundary) -> Array:
    """Evaluate boundary data on the strip; returns a full-length value array.

    boundary is a vectorized callable on points or an array over strip points.
    Interior entries are filled with the strip mean (the default solver init).
    """
    if callable(boundary):
        g = np.asarray(boundary(domain.strip_points), dtype=float).reshape(-1)
    else:
        g = np.asarray(boundary, dtype=float).reshape(-1)
    if g.size != domain.n_strip:
        raise ValueError("boundary data length must match the strip size")
    if not np.all(np.isfinite(g)):
        raise ValueError("boundary data must be finite")
    vals = np.empty(domain.n_points)
    vals[domain.strip_indices] = g
    vals[domain.interior_indices] = g.mean() if g.size else 0.0
    return vals


# Anderson depth m: the residual differences mixed per step.
ANDERSON_DEPTH = 10
# Anderson hands over to plain sweeps at a residual <= HANDOVER * tol.
HANDOVER = 1e-3
# Plain sweeps the nonlinear games' tail estimate reads (12 ratios).
PICARD_SWEEPS = 13
# The history restarts once the residual exceeds RESTART times its best ...
RESTART = 100.0
# ... and Anderson hands over after STALL evaluations without a new best.
STALL = 10 * ANDERSON_DEPTH
# Ridge added to the unit-diagonal Gram matrix before the small solve.
RIDGE = 1e-10
# The nonlinear games never hand over below FLOOR_ULPS ulps of the largest
# |strip value|, the scale of the rounding floor of their residuals.
FLOOR_ULPS = 1024
# The V-cycle preconditions the walk and the mixed game once the stored
# points span at least VCYCLE_EXTENT step sizes; below that the plain loop
# is faster. A ball game also needs a mean alpha of at most VCYCLE_ALPHA:
# the walk does not model the tug share, and past it the cycles cost more
# than the evaluations they save.
VCYCLE_EXTENT = 30.0
VCYCLE_ALPHA = 0.8


def solve_dpp(domain: GridDomain, boundary, spec: GameSpec,
              tol: Optional[float] = None, max_iter: int = 100_000,
              init: Optional[ValueField] = None) -> tuple[ValueField, SolveDiagnostics]:
    """Solve u = T(u) on the interior with strip data fixed.

    Args:
        domain: grid domain (strip must cover spec.epsilon).
        boundary: strip data, callable on points or array over strip points.
        spec: game spec; spec.epsilon must match the domain build epsilon
            (a larger epsilon fails the stencil coverage check).
        tol: absolute sup-norm tolerance; default 1e-8 * osc(strip data)
            (or 1e-8 if the data oscillation is zero).
        max_iter: cap on operator evaluations.
        init: optional starting field; default is strip data with the strip
            mean on the interior.

    Returns:
        (field, diagnostics). diagnostics.converged is True iff both the
        final residual and the tail-error estimate of the distance to the
        fixed point (diagnostics.tail_error) are <= tol; a max_iter stop
        with a small residual but a large tail is not converged.

    Raises:
        ValueError: a sweep left the finite float64 range.
    """
    vals = boundary_field(domain, boundary)
    if init is not None:
        vals[domain.interior_indices] = init.interior_values
    fld = ValueField(domain, vals)

    if tol is None:
        osc = fld.osc_strip()
        tol = 1e-8 * (osc if osc > 0 else 1.0)
    if tol <= 0:
        raise ValueError("tol must be positive")

    lo, hi = float(fld.strip_values.min()), float(fld.strip_values.max())
    alpha = spec.alpha_at(domain.interior_points) if callable(spec.alpha) else None
    vcycle = _vcycle(domain, spec, alpha)
    if spec.alpha == 0.0:   # the random walk: T is affine
        bound, mixer, floor = _walk_bound(domain, spec.epsilon), _CG(vcycle), 0.0
    else:
        bound = None
        mixer = _Anderson(ANDERSON_DEPTH, domain.n_interior, lo, hi, vcycle)
        floor = FLOOR_ULPS * float(np.spacing(max(abs(lo), abs(hi))))
    layout = domain._layout(spec.epsilon)
    box = layout.scatter(fld.values)
    index = layout.block_index() if spec.kind == "directional" else None
    history: list = []
    res = tail = rho = best = np.inf
    gate = max(HANDOVER * tol, floor)
    sweeps = k_best = k = 0  # sweeps: trailing evaluations that were plain
    x = f = fld.interior_values
    while k < max_iter:
        if k == 0:
            # The first evaluation is a public apply_operator call on the
            # caller's field, so every solve shows at least one: tracing
            # that reads sweeps from apply_operator calls needs one.
            f = apply_operator(fld, spec).interior_values
        else:
            box[layout.inner] = x
            f = sweep_box(box, domain, spec, alpha, index)
        res = float(np.max(np.abs(f - x))) if domain.n_interior else 0.0
        if not math.isfinite(res):
            raise ValueError("the sweep left the finite float64 range")
        history.append(res)
        k += 1
        if bound is not None:
            tail, rho = bound * res, 1.0 - 1.0 / bound
        else:
            tail, rho = _tail_error(
                history[-sweeps:] if sweeps == PICARD_SWEEPS else [res])
        if res <= tol and tail <= tol:
            break
        mixer.push(x, f)
        if res < best:
            best, k_best, f_best = res, k, f
        if sweeps == PICARD_SWEEPS:  # the window did not stop: mixing
            best, k_best, f_best = res, k, f  # resumes past the chain's end
            gate, sweeps = max(min(gate, HANDOVER * res), floor), 0
        if 0 < sweeps:
            x, sweeps = f, sweeps + 1
        elif best <= gate or k - k_best >= STALL:
            x, sweeps = f_best, 1
        elif res > RESTART * best:
            mixer.clear()
            x, sweeps = f_best, 0
        else:
            x, sweeps = mixer.mix(), 0

    diag = SolveDiagnostics(iterations=k, final_residual=res,
                            converged=bool(res <= tol and tail <= tol),
                            residual_history=history, tol=float(tol),
                            tail_error=float(tail), contraction=float(rho),
                            cycles=mixer.cycles)
    return fld.with_interior(f), diag


def _vcycle(domain: GridDomain, spec: GameSpec, alpha: Optional[Array]):
    """The V-cycle of the domain's walk hierarchy where it pays (the gate of
    VCYCLE_EXTENT and VCYCLE_ALPHA), else None. alpha is the loop's read of
    a callable alpha."""
    if spec.kind == "directional" or (
            np.mean(alpha) if alpha is not None else spec.alpha) > VCYCLE_ALPHA:
        return None
    extent = float(np.max(domain._span - 1)) * domain.spacing
    if extent < VCYCLE_EXTENT * spec.epsilon:
        return None
    hierarchy = domain._hierarchy(spec.epsilon)
    return None if hierarchy is None else hierarchy.vcycle


class _Anderson:
    """Secant history of the last `depth` evaluations (x, f = T(x)): columns
    dG of residual (f - x) differences and dF of image differences between
    consecutive evaluations, with the Gram matrix of dG and the products b
    of dG with the latest residual g (a ring of `depth` slots). Mixed
    iterates are clipped to [lo, hi], the range of the strip data.

    Each push makes one product pass, b' = dG g' with the new residual g':
    the new column dG_s = g' - g has dG_j . dG_s = b'_j - b_j for every
    other slot j, and only its own diagonal |dG_s|^2 is summed directly.
    b' is also the right-hand side of the next mix.

    With a preconditioner M (`_Hierarchy.vcycle`) the history mixes
    G(x) = x + M(f - x) in place of f, and a push is held until the next
    mix, which enters (x, G(x)) of the last one: the history keeps the
    evaluations mixed from, and the plain sweeps between mixes (a closing
    window) apply no V-cycle."""

    def __init__(self, depth: int, size: int, lo: float, hi: float,
                 precond=None):
        self.lo, self.hi = lo, hi
        self.precond, self.cycles = precond, 0
        self.dG = np.empty((depth, size))
        self.dF = np.empty((depth, size))
        self.gram = np.zeros((depth, depth))
        self.b = np.zeros(depth)
        self.clear()

    def clear(self):
        self.n = self.slot = 0
        self.last = None  # (g, f) of the latest evaluation
        self.held = None  # (x, f) of a push not yet preconditioned

    def push(self, x: Array, f: Array):
        if self.precond is not None:
            self.held = (x, f)
        else:
            self._enter(x, f)

    def _enter(self, x: Array, f: Array):
        g = f - x
        if self.last is not None:
            s, n = self.slot, min(self.n + 1, len(self.dG))
            np.subtract(g, self.last[0], out=self.dG[s])
            np.subtract(f, self.last[1], out=self.dF[s])
            b = np.einsum("ij,j->i", self.dG[:n], g)
            col = b - self.b[:n]
            col[s] = np.einsum("i,i->", self.dG[s], self.dG[s])
            self.gram[s, :n] = self.gram[:n, s] = col
            self.b[:n] = b
            self.n, self.slot = n, (s + 1) % len(self.dG)
        self.last = (g, f)

    def mix(self) -> Array:
        """f - dF gamma clipped to [lo, hi], gamma the least-squares fit of g
        by dG gamma, solved on the column-scaled Gram matrix plus RIDGE; a
        new array."""
        if self.held is not None:
            x, f = self.held
            self._enter(x, x + self.precond(f - x))
            self.held, self.cycles = None, self.cycles + 1
        f, n = self.last[1], self.n
        G = self.gram[:n, :n]
        d = np.sqrt(np.diagonal(G))
        d[d == 0] = 1.0
        M = np.empty((n, n + 1))
        np.divide(G, np.multiply.outer(d, d), out=M[:, :n])
        M[:, :n] += RIDGE * np.eye(n)
        np.divide(self.b[:n], d, out=M[:, n])
        gamma = np.array(_solve_spd(M)) / d
        out = f - np.einsum("i,ij->j", gamma, self.dF[:n])
        return np.clip(out, self.lo, self.hi, out=out)


class _CG:
    """Conjugate gradients on A u = b for the random walk, whose T(u) =
    P u + c is affine with A = I - P symmetric positive definite on the
    interior, in trial-point form: one evaluation per step, preconditioned
    by a symmetric positive definite M (`_Hierarchy.vcycle`) when given.

    The state is the CG iterate x, its recursive residual r = b - A x, the
    preconditioned residual z = M r (z = r without M), the search direction
    p and the last step length a; `mix` proposes the trial
    point y = x + a p. Since T is affine, T(y) - y = r - a A p, so the
    evaluation pushed at y yields A p and the usual update of x, r and p.
    Successive step lengths are close, so y lies near the next CG iterate
    and its certified residual follows CG's own. A push at any other point
    (the loop took no trial) restarts from it, as does a step whose
    curvature p.Ap is not positive (rounding at the floor). Inner products
    are `np.sum` reductions, so a solve is bit-identical at any thread
    count. Iterates are not clipped: that would break the recurrence."""

    def __init__(self, precond=None):
        self.precond, self.cycles = precond, 0
        self.clear()

    def clear(self):
        self.proposed = False  # whether the next push is at the trial point

    def push(self, y: Array, f: Array):
        g = f - y
        if self.proposed:
            Ap = (self.r - g) / self.a
            pAp = np.sum(self.p * Ap)
            if pAp > 0:
                self.a = self.rz / pAp
                self.x = self.x + self.a * self.p
                self.r = self.r - self.a * Ap
                z = self._apply(self.r)
                rz = np.sum(self.r * z)
                self.p = z + (rz / self.rz) * self.p
                self.rz, self.proposed = rz, False
                return
        z = self._apply(g)
        self.x, self.r, self.p, self.a = y, g, z, 1.0
        self.rz, self.proposed = np.sum(g * z), False

    def _apply(self, r: Array) -> Array:
        if self.precond is None:
            return r
        self.cycles += 1
        return self.precond(r)

    def mix(self) -> Array:
        """The trial point x + a p; a new array."""
        self.proposed = True
        return self.x + self.a * self.p


def _solve_spd(M: Array) -> list:
    """x with A x = b for a small symmetric positive definite A, given as the
    augmented (n, n + 1) array [A | b] (overwritten) and returned as Python
    floats: forward elimination by `core._eliminate`, then back substitution
    on Python floats, in a fixed order and with no BLAS call."""
    _eliminate(M)
    n = len(M)
    M = M.tolist()
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        acc = M[k][n]
        for j in range(k + 1, n):
            acc -= M[k][j] * x[j]
        x[k] = acc / M[k][k]
    return x


def _walk_bound(domain: GridDomain, epsilon: float) -> float:
    """R^2/m2, which bounds the random walk's distance to its fixed point:
    ||u - u*||_inf <= (R^2/m2) ||T(u) - u||_inf, up to the rounding of the
    residual.

    m2 is the mean |o h|^2 over the epsilon-stencil and R^2 the largest
    |p - c|^2 over the stored points p, with c the centre of their bounding
    box. The stencil is symmetric and holds 0, so the walk's mean P maps
    phi(x) = (R^2 - |x - c|^2)/m2 to phi - 1, and phi >= 0 on the strip.
    Hence A = I - P on the interior has A phi >= 1 there; A is an M-matrix,
    so ||A^-1||_inf <= max phi <= R^2/m2, and u - T(u) = A (u - u*).
    """
    offs = domain.stencil(epsilon) * domain.spacing
    m2 = float(np.mean(np.sum(offs * offs, axis=1)))
    c = 0.5 * (domain.points.min(axis=0) + domain.points.max(axis=0))
    d = domain.points - c
    return float(np.max(np.sum(d * d, axis=1))) / m2


def _tail_error(history: list) -> tuple[float, float]:
    """Geometric estimate of the remaining distance to the fixed point, with
    the contraction factor rho behind it.

    With contraction factor rho, ||u_k - u*|| <= r_k * rho/(1-rho). rho is
    the mean per-step ratio from the first residual of history (the closing
    window's plain sweeps) to the last; if the history is too short or
    the ratio is >= 1 (no contraction visible yet) rho and the estimate are
    infinite, except that an exactly-zero residual ends iteration
    immediately (tail 0).
    """
    r = history[-1]
    rho = np.inf
    if len(history) >= 2:
        m, prev = len(history) - 1, history[0]
        if 0 < prev and r < prev:
            rho = (r / prev) ** (1.0 / m)
            if rho >= 1.0 - 1e-12:
                rho = np.inf
    if r == 0.0:
        return 0.0, rho
    return (np.inf if rho == np.inf else r * rho / (1.0 - rho)), rho
