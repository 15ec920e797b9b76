"""Fixed-point solver for the grid dynamic programming operators.

Plain (unaccelerated) Picard iteration with a Jacobi-style full sweep per
step. The stopping rule is residual-driven but error-aware: iteration ends
once the sup-norm residual is below tol AND the geometric tail estimate
residual * rho/(1 - rho) -- rho estimated from the residual history -- is
also below tol, so the returned iterate sits within tol of the discrete
fixed point rather than merely having a small one-step defect. The
diagnostics keep the residual history and the final rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Array, GridDomain, ValueField
from .operators import GameSpec, apply_operator


@dataclass
class SolveDiagnostics:
    iterations: int
    final_residual: float
    converged: bool
    residual_history: list = field(default_factory=list)
    tol: float = float("nan")
    tail_error: float = float("inf")
    # Contraction factor rho estimated from the residual history at the
    # last sweep; inf where no contraction is visible.
    contraction: float = float("inf")

    def summary(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        return (f"{state} after {self.iterations} iterations, "
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
        max_iter: iteration cap.
        init: optional starting field; default is strip data with the strip
            mean on the interior.

    Returns:
        (field, diagnostics). diagnostics.converged is True iff both the
        final residual and the tail-error estimate of the distance to the
        fixed point (diagnostics.tail_error) are <= tol; a max_iter stop
        with a small residual but a large tail is not converged.
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

    history: list = []
    res = tail = rho = np.inf
    cur = fld.interior_values
    k = 0
    while k < max_iter:
        fld = apply_operator(fld, spec)
        nxt = fld.interior_values
        res = float(np.max(np.abs(nxt - cur))) if domain.n_interior else 0.0
        history.append(res)
        cur = nxt
        k += 1
        tail, rho = _tail_error(history)
        if res <= tol and tail <= tol:
            break

    diag = SolveDiagnostics(iterations=k, final_residual=res,
                            converged=bool(res <= tol and tail <= tol),
                            residual_history=history, tol=float(tol),
                            tail_error=float(tail), contraction=float(rho))
    return fld, diag


def _tail_error(history: list, window: int = 12) -> tuple[float, float]:
    """Geometric estimate of the remaining distance to the fixed point, with
    the contraction factor rho behind it.

    With contraction factor rho, ||u_k - u*|| <= r_k * rho/(1-rho). rho is
    estimated from the recent residual ratio; if the history is too short or
    the ratio is >= 1 (no contraction visible yet) rho and the estimate are
    infinite, except that an exactly-zero residual ends iteration
    immediately (tail 0).
    """
    r = history[-1]
    rho = np.inf
    if len(history) >= 2:
        m = min(window, len(history) - 1)
        prev = history[-1 - m]
        if 0 < prev and r < prev:
            rho = (r / prev) ** (1.0 / m)
            if rho >= 1.0 - 1e-12:
                rho = np.inf
    if r == 0.0:
        return 0.0, rho
    return (np.inf if rho == np.inf else r * rho / (1.0 - rho)), rho
