"""Fixed-point solver against a direct sparse linear oracle."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

from dpplab.core import (Ball, Box, ValueField, build_grid_domain,
                         field_from_function)
from dpplab.operators import GameSpec, apply_operator
from dpplab.solver import (PICARD_SWEEPS, _walk_bound, boundary_field,
                           residual, solve_dpp)


def _disk(h=0.04, eps=0.2):
    return build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), h, eps)


def _four_games(eps=0.2):
    return (GameSpec.tug_of_war(eps), GameSpec.random_walk(eps),
            GameSpec.space_dependent(eps, lambda p: 0.5 + 0.5 * np.tanh(p[:, 0])),
            GameSpec.directional(eps, 0.5, direction_count=16))


def _linear_oracle(dom, eps, g_full):
    """Direct solve of u_i = mean of u over the stencil (random walk)."""
    table = dom.neighbor_table(eps)
    m, S = table.shape
    n_pts = dom.n_points
    rows = np.repeat(np.arange(m), S)
    cols = table.reshape(-1)
    P = csr_matrix(
        (np.full(m * S, 1.0 / S), (rows, cols)), shape=(m, n_pts)
    )
    interior = dom.interior_indices
    strip = dom.strip_indices
    A = identity(m, format="csr") - P[:, interior]
    b = P[:, strip] @ g_full[strip]
    return spsolve(A.tocsc(), b)


def test_random_walk_matches_sparse_solve():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    fld, diag = solve_dpp(dom, lambda p: p[:, 0], spec)
    assert diag.converged
    exact = _linear_oracle(dom, 0.2, boundary_field(dom, lambda p: p[:, 0]))
    gap = np.max(np.abs(fld.interior_values - exact))
    assert gap <= 10 * diag.tol, gap


def test_random_walk_gap_within_certified_tail():
    # the random walk's tail is the bound (R^2/m2) * residual, not an
    # estimate: the sparse oracle's gap never exceeds it
    cases = ((_disk(), 0.2, lambda p: p[:, 0]),
             (_disk(), 0.2, lambda p: np.sin(5 * p[:, 0]) * np.cos(3 * p[:, 1])),
             (build_grid_domain(Box((0.0, 0.0), (1.0, 0.5)), 0.05, 0.2), 0.2,
              lambda p: np.exp(p[:, 0]) * p[:, 1]))
    for dom, eps, F in cases:
        fld, diag = solve_dpp(dom, F, GameSpec.random_walk(eps))
        assert diag.converged
        assert diag.tail_error == _walk_bound(dom, eps) * diag.final_residual
        exact = _linear_oracle(dom, eps, boundary_field(dom, F))
        gap = np.max(np.abs(fld.interior_values - exact))
        assert gap <= diag.tail_error + 1e-13, (gap, diag.tail_error)


def test_walk_bound_barrier():
    # phi = (R^2 - |x - c|^2)/m2 is >= 0 on the stored points, and the walk
    # maps it to phi - 1 on the interior: the premises of the bound
    for dom, eps in ((_disk(), 0.2),
                     (build_grid_domain(Ball((0.3, 0.1, 0.0), 0.6), 0.1, 0.31), 0.31)):
        c = 0.5 * (dom.points.min(axis=0) + dom.points.max(axis=0))
        d2 = np.sum((dom.points - c) ** 2, axis=1)
        K = _walk_bound(dom, eps)
        phi = ValueField(dom, K * (1.0 - d2 / d2.max()))
        assert phi.values.min() >= 0.0
        out = apply_operator(phi, GameSpec.random_walk(eps))
        assert np.allclose(out.interior_values, phi.interior_values - 1.0,
                           rtol=0, atol=1e-12 * K)


def _enclosure(dom, data, spec, tol, max_sweeps=20_000):
    """Plain Picard from the constants min and max of the strip data. T is
    monotone and fixes constants, so the lower iterates rise and the upper
    ones fall to the fixed point, which lies between them at every sweep."""
    g = boundary_field(dom, data)
    strip = g[dom.strip_indices]
    lower, upper = g.copy(), g.copy()
    lower[dom.interior_indices] = strip.min()
    upper[dom.interior_indices] = strip.max()
    lower, upper = ValueField(dom, lower), ValueField(dom, upper)
    for _ in range(max_sweeps):
        if np.max(upper.values - lower.values) <= tol:
            break
        lower, upper = apply_operator(lower, spec), apply_operator(upper, spec)
    return lower.values, upper.values


_SMOOTH = lambda p: np.cos(2 * p[:, 0]) + p[:, 1] ** 2
_JUMP = lambda p: np.sign(p[:, 0])
_WAVES = lambda p: np.cos(6 * p[:, 0]) * np.sin(5 * p[:, 1])


def test_solution_within_monotone_enclosure():
    # the smooth datum at the default tol on two spacings, then the tail
    # panel: a jump and an oscillation beside it, at tols 1e-3 and 1e-5
    # beside the default (None). The fixed point lies in [lower, upper],
    # enclosed to tol/10, so the asserts pin the solve's error <= tol.
    cases = [(0.04, _SMOOTH, None)] + [
        (0.05, data, tol) for data in (_SMOOTH, _JUMP, _WAVES)
        for tol in (None, 1e-3, 1e-5)]
    for h, data, tol in cases:
        dom = _disk(h)
        for spec in _four_games():
            case = (h, data, tol, spec.kind)
            fld, diag = solve_dpp(dom, data, spec, tol=tol)
            assert diag.converged, case
            lower, upper = _enclosure(dom, data, spec, diag.tol / 10)
            assert np.max(upper - lower) <= diag.tol / 10, case
            assert np.all(upper - fld.values <= diag.tol), case
            assert np.all(fld.values - lower <= diag.tol), case


def test_solution_is_a_fixed_point():
    dom = _disk()
    for spec in _four_games():
        fld, diag = solve_dpp(dom, lambda p: p[:, 0] ** 2 - p[:, 1], spec)
        assert diag.converged, spec.kind
        assert residual(fld, spec) <= diag.tol


def test_comparison_principle():
    dom = _disk()
    spec = GameSpec.tug_of_war(0.2)
    lo, _ = solve_dpp(dom, lambda p: p[:, 0], spec)
    hi, _ = solve_dpp(dom, lambda p: p[:, 0] + 0.3 * (1 + np.sin(p[:, 1])), spec)
    assert np.all(hi.values >= lo.values - 1e-10)


def test_antisymmetric_data_vanishes_at_center():
    dom = _disk()
    for spec in (GameSpec.random_walk(0.2), GameSpec.tug_of_war(0.2)):
        fld, diag = solve_dpp(dom, lambda p: p[:, 0], spec)
        i = dom.point_index((0.0, 0.0))
        assert abs(fld.values[i]) <= 10 * diag.tol


def test_residual_history_non_increasing():
    # the nonlinear games stop on PICARD_SWEEPS plain sweeps from the image
    # of the best iterate; T is sup-norm non-expansive, so their residuals,
    # and the best one before them, cannot grow. The random walk's certified
    # stop reads no window: it ends in the Anderson phase.
    dom = _disk()
    for spec in _four_games():
        _, diag = solve_dpp(dom, lambda p: np.sin(3 * p[:, 0]) * p[:, 1], spec)
        assert diag.converged, spec.kind
        r = np.array(diag.residual_history)
        if spec.kind == "random_walk":
            assert diag.tail_error == _walk_bound(dom, 0.2) * r[-1]
            continue
        window = r[-PICARD_SWEEPS:]
        assert np.all(np.diff(window) <= 1e-15), spec.kind
        assert window[0] <= r[:-PICARD_SWEEPS].min() + 1e-15, spec.kind


def test_reruns_bit_identical():
    # the Anderson history, restarts and handovers are deterministic
    dom = _disk()
    for spec in _four_games() + (
            GameSpec.space_dependent(0.2, lambda p: 0.3 + 0.4 * (p[:, 0] > 0)),):
        a, da = solve_dpp(dom, lambda p: p[:, 1], spec)
        b, db = solve_dpp(dom, lambda p: p[:, 1], spec)
        assert np.array_equal(a.values, b.values), spec.kind
        assert da.residual_history == db.residual_history, spec.kind


def test_overflowing_sweep_raises():
    # the stencil mean of interior values near the float64 maximum overflows
    dom = _disk(0.1, 0.4)
    init = ValueField(dom, np.full(dom.n_points, 1.7e308))
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        solve_dpp(dom, lambda p: np.zeros(len(p)), GameSpec.random_walk(0.4),
                  init=init)


def test_warm_start_converges_fast():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    fld, diag = solve_dpp(dom, lambda p: p[:, 0], spec)
    _, diag2 = solve_dpp(dom, lambda p: p[:, 0], spec, init=fld)
    assert diag2.iterations < max(50, diag.iterations // 10)


def test_default_tol_scales_with_oscillation():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    _, d1 = solve_dpp(dom, lambda p: p[:, 0], spec)
    _, d2 = solve_dpp(dom, lambda p: 1000.0 * p[:, 0], spec)
    assert math.isclose(d2.tol / d1.tol, 1000.0, rel_tol=1e-9)


def test_constant_boundary_solves_immediately():
    dom = _disk()
    fld, diag = solve_dpp(dom, lambda p: np.full(len(p), 2.0), GameSpec.tug_of_war(0.2))
    assert np.allclose(fld.values, 2.0, atol=1e-14)
    assert diag.converged


def test_boundary_field_inputs():
    dom = _disk()
    by_fn = boundary_field(dom, lambda p: p[:, 0])
    by_arr = boundary_field(dom, dom.strip_points[:, 0])
    assert np.array_equal(by_fn, by_arr)
    with pytest.raises(ValueError):
        boundary_field(dom, np.zeros(3))
    bad = np.zeros(dom.n_strip)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        boundary_field(dom, bad)


def test_solver_rejects_uncovered_epsilon():
    dom = _disk(eps=0.2)
    with pytest.raises(RuntimeError):
        solve_dpp(dom, lambda p: p[:, 0], GameSpec.random_walk(0.4))


def test_max_iter_reports_not_converged():
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    _, diag = solve_dpp(dom, lambda p: p[:, 0], spec, max_iter=3)
    assert not diag.converged
    assert diag.iterations == 3
    assert "NOT converged" in diag.summary()


def test_max_iter_stop_with_small_residual_is_not_converged():
    # k evaluations bring the one-step defect under tol, but the distance to
    # u* may still exceed it: for the random walk the certified bound
    # (R^2/m2) * residual does, and a nonlinear game in its Anderson phase
    # has taken no plain sweeps to estimate the tail from
    dom = _disk()
    for spec in (GameSpec.random_walk(0.2), GameSpec.tug_of_war(0.2)):
        _, full = solve_dpp(dom, lambda p: p[:, 0], spec)
        assert full.converged and full.tail_error <= full.tol
        tol = 1e-3
        k = int(np.argmax(np.asarray(full.residual_history) <= tol)) + 1
        _, diag = solve_dpp(dom, lambda p: p[:, 0], spec, tol=tol, max_iter=k)
        assert diag.iterations == k
        assert diag.final_residual <= tol < diag.tail_error
        assert not diag.converged
        assert "NOT converged" in diag.summary()


def test_tail_error_over_one_residual_or_the_closing_window():
    # the loop hands over [res] or the last PICARD_SWEEPS residuals; over
    # the 13, rho is the mean ratio of the 12 steps from first to last
    from dpplab.solver import _tail_error

    inf = math.inf
    assert PICARD_SWEEPS == 13
    assert _tail_error([0.5]) == (inf, inf)
    assert _tail_error([0.0]) == (0.0, inf)
    h = [0.3 * 0.7 ** k * (1.0 + 0.01 * (k % 3)) for k in range(13)]
    rho = (h[-1] / h[0]) ** (1.0 / 12)
    assert _tail_error(h) == (h[-1] * rho / (1.0 - rho), rho)
    assert _tail_error(h[:-1] + [0.0]) == (0.0, 0.0)
    for flat in (h[::-1], [1e-3] * 13, [1.0] + [1.0 - 1e-13] * 12):
        assert _tail_error(flat) == (inf, inf)


def test_stalled_anderson_hands_over_to_plain_sweeps():
    # HANDOVER * tol lies below the float64 rounding floor, so Anderson
    # stalls there; the plain sweeps it then hands over to finish the solve
    dom = _disk(0.05)
    data = lambda p: np.cos(2 * p[:, 0]) + p[:, 1] ** 2
    for spec in _four_games()[::2]:
        _, diag = solve_dpp(dom, data, spec, tol=1e-14, max_iter=1000)
        assert diag.converged, (spec.kind, diag.summary())


def test_floor_gate_converges_at_tol_near_the_rounding_floor():
    # the handover gate never falls below the rounding floor of the strip
    # data, so the plain window starts where residuals still contract: the
    # same data, and the data scaled by 1e3 with tol scaled alike
    dom = _disk(0.05)
    for scale in (1.0, 1e3):
        data = lambda p: scale * (np.cos(2 * p[:, 0]) + p[:, 1] ** 2)
        for spec in _four_games()[::2]:
            _, diag = solve_dpp(dom, data, spec, tol=1e-14 * scale,
                                max_iter=1000)
            assert diag.converged, (scale, spec.kind, diag.summary())
            assert diag.iterations <= 250, (scale, spec.kind, diag.iterations)


def _grid_solve_disk():
    """The unit disk at eps 0.05, h = eps/3, with data |x . e|, e off the
    lattice axes."""
    eps = 0.05
    dom = build_grid_domain(Ball((0.0, 0.0), 1.0), eps / 3.0, eps)
    e = np.array([1.0, 0.37]) / math.hypot(1.0, 0.37)
    return dom, eps, lambda p: np.abs(p @ e)


def test_anderson_shared_products_match_direct_gram(monkeypatch):
    # each push reads the Gram column off the products b with the residual
    # (dG_j . dG_s = b'_j - b_j); over a whole solve it stays within
    # 1e-12 |dG_i| |dG_j| of the Gram matrix summed directly
    from dpplab import solver

    checked = []
    push = solver._Anderson.push

    def checked_push(self, x, f):
        push(self, x, f)
        n = self.n
        if n:
            dG = self.dG[:n]
            direct = np.einsum("ik,jk->ij", dG, dG)
            norms = np.sqrt(np.diag(direct))
            err = np.abs(self.gram[:n, :n] - direct)
            assert np.all(err <= 1e-12 * np.multiply.outer(norms, norms))
            g = self.last[0]
            assert np.allclose(self.b[:n], dG @ g, rtol=0,
                               atol=1e-12 * norms.max() * np.linalg.norm(g))
            checked.append(n)

    monkeypatch.setattr(solver._Anderson, "push", checked_push)
    dom, eps, data = _grid_solve_disk()
    _, diag = solve_dpp(dom, data, GameSpec.tug_of_war(eps), tol=1e-6)
    assert diag.converged
    assert max(checked) == solver.ANDERSON_DEPTH and len(checked) > 100


def test_nonlinear_evaluation_counts():
    dom, eps, data = _grid_solve_disk()
    for spec, most in ((GameSpec.tug_of_war(eps), 260),
                       (GameSpec.space_dependent(eps, 0.5), 176)):
        _, diag = solve_dpp(dom, data, spec, tol=1e-6)
        assert diag.converged
        assert diag.iterations <= most, (spec.kind, diag.iterations)


def test_tug_solve_bytes_do_not_depend_on_blas_threads(run_python):
    # Anderson's products are einsum reductions and its small solve runs
    # on Python floats, CG's inner products are np.sum reductions: no BLAS
    # call in tug-of-war, the random walk or the mixed game, so the thread
    # count cannot move a bit
    code = ("import hashlib, math, numpy as np\n"
            "from dpplab import Ball, GameSpec, build_grid_domain, solve_dpp\n"
            "dom = build_grid_domain(Ball((0.0, 0.0), 1.0), 0.05 / 3, 0.05)\n"
            "e = np.array([1.0, 0.37]) / math.hypot(1.0, 0.37)\n"
            "for spec in (GameSpec.tug_of_war(0.05), GameSpec.random_walk(0.05),\n"
            "             GameSpec.space_dependent(0.05, 0.5)):\n"
            "    fld, _ = solve_dpp(dom, lambda p: np.abs(p @ e), spec, tol=1e-6)\n"
            "    print(hashlib.sha256(fld.values.tobytes()).hexdigest())\n")
    digests = []
    for threads in (1, 4):
        proc = run_python("-c", code, threads=threads, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert digests[0] == digests[1]
    assert len(digests[0]) == 3 and all(len(d) == 64 for d in digests[0])


def test_directional_solve_bytes_agree_at_one_and_four_blas_threads(run_python):
    # The directional sweep is a BLAS matrix product, so nothing in the
    # design keeps its bits thread-free. This pins an observed property of
    # OpenBLAS (0.3.31, x86-64) at this size: README's directional solve
    # hashed the same at 1, 2 and 4 threads.
    code = ("import hashlib, numpy as np\n"
            "from dpplab import Ball, GameSpec, build_grid_domain, solve_dpp\n"
            "dom = build_grid_domain(Ball((0.0, 0.0), 1.0), 0.05, 0.2)\n"
            "fld, diag = solve_dpp(dom, lambda p: p[..., 0],\n"
            "                      GameSpec.directional(0.2, 0.5), tol=1e-6)\n"
            "print(hashlib.sha256(fld.values.tobytes()).hexdigest(),"
            " diag.iterations, diag.converged)\n")
    runs = []
    for threads in (1, 4):
        proc = run_python("-c", code, threads=threads, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    assert runs[0] == runs[1]
    assert runs[0][1:] == ["58", "True"]


# sha256 prefixes of (field values, residual history) of solves on the
# coarse disk with data |x . e| at tol 1e-6, taken when each evaluation
# still built a ValueField (x86-64, numpy 2.4, OpenBLAS 0.3.31). The
# directional game's sweep is a BLAS product, so the pins are taken in a
# child process at one BLAS thread.
_SOLVE_PINS = {
    "tug_of_war": ("5953264ceba957c6", "e032f72b8e40c8d6"),
    "random_walk": ("bb54f867d7d25542", "19d92e99129d1bba"),
    "mixed": ("26bf5b156fe62e5c", "9de7603381140baa"),
    "mixed_callable": ("b012202375952dcc", "dda13c5f9f346a5e"),
    "directional": ("7433d01753d7fdc7", "1fbe07773b36e772"),
}


def test_solves_keep_their_pinned_bits(run_python):
    code = """
import hashlib, math
import numpy as np
from dpplab import Ball, GameSpec, build_grid_domain, solve_dpp

dom = build_grid_domain(Ball((0.0, 0.0), 1.0), 0.04, 0.2)
e = np.array([1.0, 0.37]) / math.hypot(1.0, 0.37)
specs = {"tug_of_war": GameSpec.tug_of_war(0.2),
         "random_walk": GameSpec.random_walk(0.2),
         "mixed": GameSpec.space_dependent(0.2, 0.5),
         "mixed_callable": GameSpec.space_dependent(
             0.2, lambda p: 0.5 + 0.5 * np.tanh(p[:, 0])),
         "directional": GameSpec.directional(0.2, 0.5, direction_count=16)}
for name, spec in specs.items():
    fld, diag = solve_dpp(dom, lambda p: np.abs(p @ e), spec, tol=1e-6)
    print(name, hashlib.sha256(fld.values.tobytes()).hexdigest()[:16],
          hashlib.sha256(np.array(diag.residual_history).tobytes())
          .hexdigest()[:16])
"""
    proc = run_python("-c", code, threads=1, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = {name: (values, history) for name, values, history
           in (line.split() for line in proc.stdout.splitlines())}
    assert got == _SOLVE_PINS


# The same for the multilevel path: the walk (preconditioned CG) and the
# mixed game (Anderson on x + M(T(x) - x)) on grid_solve's disk, above the
# V-cycle gate.
_VCYCLE_PINS = {
    "random_walk": ("caa629035138d68b", "039a87df57debdcb"),
    "mixed": ("50cb57812e21db5c", "972157dc6d15b7a0"),
    "mixed_callable": ("37b39b43974ec34b", "f00dbe19f31609b5"),
}


def test_preconditioned_solves_keep_their_pinned_bits(run_python):
    code = """
import hashlib, math
import numpy as np
from dpplab import Ball, GameSpec, build_grid_domain, solve_dpp

dom = build_grid_domain(Ball((0.0, 0.0), 1.0), 0.05 / 3, 0.05)
e = np.array([1.0, 0.37]) / math.hypot(1.0, 0.37)
specs = {"random_walk": GameSpec.random_walk(0.05),
         "mixed": GameSpec.space_dependent(0.05, 0.5),
         "mixed_callable": GameSpec.space_dependent(
             0.05, lambda p: 0.5 + 0.5 * np.tanh(p[:, 0]))}
for name, spec in specs.items():
    fld, diag = solve_dpp(dom, lambda p: np.abs(p @ e), spec, tol=1e-6)
    assert diag.cycles > 0, name
    print(name, hashlib.sha256(fld.values.tobytes()).hexdigest()[:16],
          hashlib.sha256(np.array(diag.residual_history).tobytes())
          .hexdigest()[:16])
"""
    proc = run_python("-c", code, threads=1, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = {name: (values, history) for name, values, history
           in (line.split() for line in proc.stdout.splitlines())}
    assert got == _VCYCLE_PINS


def test_preconditioned_solves_match_the_plain_path(monkeypatch):
    # measured: 11 and 40 evaluations, against 96 and 176 plain
    from dpplab import solver

    dom, eps, data = _grid_solve_disk()
    for spec, most in ((GameSpec.random_walk(eps), 24),
                       (GameSpec.space_dependent(eps, 0.5), 80)):
        fld, diag = solve_dpp(dom, data, spec, tol=1e-6)
        assert diag.converged and diag.final_residual <= diag.tol, spec.kind
        assert 0 < diag.cycles <= diag.iterations <= most, (
            spec.kind, diag.iterations, diag.cycles)
        assert "V-cycles" in diag.summary()
        with monkeypatch.context() as m:
            m.setattr(solver, "_vcycle", lambda *args: None)
            plain, plain_diag = solve_dpp(dom, data, spec, tol=1e-6)
        assert plain_diag.converged and plain_diag.cycles == 0
        assert "V-cycles" not in plain_diag.summary()
        assert plain_diag.iterations > 2 * diag.iterations, spec.kind
        gap = np.max(np.abs(fld.values - plain.values))
        assert gap <= 2 * diag.tol, (spec.kind, gap)


def _long_box(eps=0.1):
    """A box whose stored points span 34 step sizes, above the V-cycle
    gate, with about 1,200 interior points."""
    return build_grid_domain(Box((0.0, 0.0), (3.2, 0.4)), eps / 3, eps)


def test_vcycle_gate_by_kind_and_alpha():
    # tug-of-war and the directional game keep the plain loop, and so does
    # a mixed game whose mean alpha exceeds VCYCLE_ALPHA; the walk and a
    # mixed game below it take V-cycles on the same domain
    from dpplab.solver import VCYCLE_ALPHA, VCYCLE_EXTENT

    eps = 0.1
    dom = _long_box(eps)
    assert np.max(np.ptp(dom.points, axis=0)) >= VCYCLE_EXTENT * eps
    data = lambda p: np.cos(2 * p[:, 0]) + p[:, 1]
    cases = ((GameSpec.tug_of_war(eps), False),
             (GameSpec.directional(eps, 0.5, direction_count=16), False),
             (GameSpec.space_dependent(eps, 0.85), False),
             (GameSpec.space_dependent(
                 eps, lambda p: 0.9 + 0.05 * np.tanh(p[:, 0])), False),
             (GameSpec.space_dependent(eps, VCYCLE_ALPHA), True),
             (GameSpec.random_walk(eps), True))
    for spec, preconditioned in cases:
        _, diag = solve_dpp(dom, data, spec)
        assert diag.converged, spec.kind
        assert (diag.cycles > 0) == preconditioned, (spec.kind, spec.alpha)


def test_vcycle_gate_reads_callable_alpha_with_the_loop():
    calls = []

    def alpha(p):
        calls.append(len(p))
        return 0.5 + 0.5 * np.tanh(p[:, 0] - 1.6)  # mean 0.5 on the box

    dom = _long_box()
    _, diag = solve_dpp(dom, lambda p: np.abs(p[:, 0] - 1.6),
                        GameSpec.space_dependent(0.1, alpha))
    assert diag.converged and diag.cycles > 0
    # the loop's read, which the gate averages, and the first evaluation's
    assert calls == [dom.n_interior] * 2


def test_each_solve_makes_one_apply_operator_call(monkeypatch):
    # the first evaluation goes through apply_operator; the rest sweep the
    # key box, and the solve builds its ValueFields a fixed number of times
    from dpplab import solver

    calls, fields = [], []
    post_init = ValueField.__post_init__

    def counted(fld, spec):
        calls.append(spec.kind)
        return apply_operator(fld, spec)

    def counted_post_init(self):
        fields.append(1)
        post_init(self)

    monkeypatch.setattr(solver, "apply_operator", counted)
    monkeypatch.setattr(ValueField, "__post_init__", counted_post_init)
    dom = _disk()
    for spec in _four_games():
        calls.clear()
        fields.clear()
        _, diag = solve_dpp(dom, lambda p: np.abs(p[:, 0]), spec)
        assert diag.converged and diag.iterations > 10, spec.kind
        assert calls == [spec.kind]
        # the start, the first image and the returned field
        assert len(fields) == 3, spec.kind


def test_overflow_after_the_first_evaluation_raises(monkeypatch):
    from dpplab import solver

    calls, sweep = [], solver.sweep_box

    def overflowing(*args):
        calls.append(1)
        out = sweep(*args)
        if len(calls) == 2:  # evaluation 3; the first is apply_operator's
            out[len(out) // 2] = np.inf
        return out

    monkeypatch.setattr(solver, "sweep_box", overflowing)
    with pytest.raises(ValueError, match="finite"):
        solve_dpp(_disk(), lambda p: p[:, 0] ** 2, GameSpec.tug_of_war(0.2))
    assert len(calls) == 2


def test_callable_alpha_read_once_per_solve():
    calls = []

    def alpha(p):
        calls.append(len(p))
        return 0.5 + 0.5 * np.tanh(p[:, 0])

    dom = _disk()
    _, diag = solve_dpp(dom, lambda p: np.abs(p[:, 0]),
                        GameSpec.space_dependent(0.2, alpha))
    assert diag.converged and diag.iterations > 10
    # once for the loop's sweeps, once by the first evaluation's apply_operator
    assert calls == [dom.n_interior] * 2


def test_random_walk_cg_edge_cases_raise_no_float_errors():
    # the conjugate-gradient coefficients never divide 0 by 0: constant data
    # and a warm start stop at the first evaluation, and a tol below the
    # rounding floor runs to max_iter with a finite residual. On the coarse
    # disk the recursive residual reaches exactly 0 (so p = 0 and p.Ap = 0)
    # before max_iter.
    dom = _disk()
    spec = GameSpec.random_walk(0.2)
    data = lambda p: np.sin(3 * p[:, 0]) * p[:, 1] + 0.3
    coarse = _disk(0.1, 0.31)
    with np.errstate(all="raise"):
        _, flat = solve_dpp(dom, lambda p: np.full(len(p), 0.1), spec)
        fld, _ = solve_dpp(dom, data, spec)
        _, warm = solve_dpp(dom, data, spec, init=fld)
        floors = (solve_dpp(dom, data, spec, tol=1e-15, max_iter=200)[1],
                  solve_dpp(coarse, lambda p: 1e-3 * p[:, 0] ** 2,
                            GameSpec.random_walk(0.31), tol=1e-300,
                            max_iter=200)[1])
    for diag in (flat, warm):
        assert diag.converged and diag.iterations == 1
    for floor in floors:
        assert not floor.converged and floor.iterations == 200
        assert np.isfinite(floor.final_residual)
        assert len(floor.residual_history) == 200


def test_random_walk_evaluation_count():
    # conjugate gradients need about eps^-1 evaluations on the walk; an
    # Anderson(10) mixer takes 355 on this disk
    eps = 0.05
    dom = build_grid_domain(Ball((0.0, 0.0), 1.0), eps / 3.0, eps)
    _, diag = solve_dpp(dom, lambda p: np.abs(p[:, 0]),
                        GameSpec.random_walk(eps), tol=1e-6)
    assert diag.converged
    assert diag.iterations <= 250, diag.iterations


def test_tug_solution_between_data_bounds():
    dom = _disk()
    g = field_from_function(dom, lambda p: np.cos(2 * p[:, 0]) + p[:, 1]).values
    lo, hi = g[dom.strip_indices].min(), g[dom.strip_indices].max()
    fld, _ = solve_dpp(dom, g[dom.strip_indices], GameSpec.tug_of_war(0.2))
    assert np.all(fld.values >= lo - 1e-12)
    assert np.all(fld.values <= hi + 1e-12)
