"""Acceptance suite: one end-to-end check per shipped guarantee.

Each test reports a single ACCEPTANCE line through the `acceptance` fixture
(echoed in the terminal summary) and pins its tolerances and runtime budget
in place. The file is heavier than the unit suites; the certification sweep
and the three-resolution solve ladder dominate, a few minutes each.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest
from scipy import stats
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

from dpplab.certifier import (
    certify_region,
    intersection_volume,
    overlap_fraction_mc,
    small_ball_escapes,
)
from dpplab.comparison import (
    DESK_SCHEDULE,
    ComparisonParams,
    CoupledPoint,
    default_params,
    error2_bound,
    eval_f1,
    f1_oscillation_bound,
    taylor_f1,
)
from dpplab.core import Ball, build_grid_domain, constant_field, field_from_function
from dpplab.couplings import CouplingMap, mirror_map, rotation_map
from dpplab.operators import GameSpec, apply_at, ball_lattice
from dpplab.regularity import fit_c_prime
from dpplab.rng import substream, uniform_ball
from dpplab.simulate import (
    GreedyOnField,
    coupled_drift,
    estimate_value,
    sample_coupled_noise,
)
from dpplab.solver import boundary_field, solve_dpp


# -- 1: constants and affine fields are fixed points -------------------------


def test_fixed_points(acceptance):
    t0 = time.monotonic()
    eps = 0.3
    worst_exact = 0.0
    for n, a, b in ((2, np.array([1.5, -2.0]), 0.25),
                    (3, np.array([0.8, -1.2, 0.5]), -1.0)):
        pts = uniform_ball(substream(901, n), n, 0.8, 40)
        moves = ball_lattice(n, eps, 9)
        specs = (GameSpec.tug_of_war(eps), GameSpec.random_walk(eps),
                 GameSpec.space_dependent(eps, 0.37))
        spec_d = GameSpec.directional(eps, 0.6)
        fields = (
            (lambda p: np.full(len(np.atleast_2d(p)), 2.5), lambda x: 2.5),
            (lambda p: np.atleast_2d(p) @ a + b, lambda x: float(x @ a + b)),
        )
        for u, u_at in fields:
            for x in pts:
                want = u_at(x)
                steps = [apply_at(u, x, spec, moves) for spec in specs]
                steps.append(apply_at(u, x, spec_d))
                worst_exact = max(worst_exact,
                                  max(abs(s - want) for s in steps))

    # grid-applied operators; every stencil is symmetric under h -> -h
    # (directional moves snap antipodally), so affine data is averaged
    # exactly and the tolerance stays at the exact-evaluator level
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.05, 0.2)
    specs = (
        GameSpec.tug_of_war(0.2),
        GameSpec.random_walk(0.2),
        GameSpec.space_dependent(0.2, lambda p: 0.5 + 0.4 * np.tanh(p[:, 0])),
        GameSpec.directional(0.2, 0.5, direction_count=16),
    )
    worst_grid = 0.0
    from dpplab.operators import apply_operator
    for fld in (constant_field(dom, 2.5),
                field_from_function(dom, lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1])):
        for spec in specs:
            out = apply_operator(fld, spec)
            err = np.abs(out.values - fld.values)[dom.interior_indices]
            worst_grid = max(worst_grid, float(err.max()))

    dt = time.monotonic() - t0
    ok = worst_exact <= 1e-10 and worst_grid <= 1e-10 and dt < 10.0
    acceptance(1, "fixed points", ok,
               f"exact residual {worst_exact:.2e}, grid residual "
               f"{worst_grid:.2e}, tol 1e-10, {dt:.1f}s (< 10s)")


# -- 2: iterative solve matches a directly assembled linear system -----------


def test_solver_matches_direct_linear_solve(acceptance):
    t0 = time.monotonic()
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0), 0.04, 0.2)
    spec = GameSpec.random_walk(0.2)
    fld, diag = solve_dpp(dom, lambda p: p[:, 0], spec)

    g_full = boundary_field(dom, lambda p: p[:, 0])
    table = dom.neighbor_table(0.2)
    m, S = table.shape
    rows = np.repeat(np.arange(m), S)
    P = csr_matrix((np.full(m * S, 1.0 / S), (rows, table.reshape(-1))),
                   shape=(m, dom.n_points))
    A = identity(m, format="csr") - P[:, dom.interior_indices]
    rhs = P[:, dom.strip_indices] @ g_full[dom.strip_indices]
    exact = spsolve(A.tocsc(), rhs)

    gap = float(np.max(np.abs(fld.interior_values - exact)))
    dt = time.monotonic() - t0
    ok = diag.converged and gap <= 10.0 * diag.tol and dt < 60.0
    acceptance(2, "direct linear oracle", ok,
               f"sup gap {gap:.2e} <= 10*tol {10 * diag.tol:.2e}, "
               f"{diag.iterations} iterations, {dt:.1f}s (< 60s)")


# -- 3: ball moment identities ------------------------------------------------


def test_ball_moment_identities(acceptance):
    t0 = time.monotonic()
    eps = 0.7
    chunks, m = 10, 1_000_000
    parts = []
    ok = True
    for n in (2, 3):
        v = substream(903, n).standard_normal(n)
        v /= np.linalg.norm(v)
        sums = np.zeros(4)  # s, s^2, c, c^2
        for k in range(chunks):
            h = uniform_ball(substream(905, n, k), n, eps, m)
            s = (h @ v) ** 2
            c = np.einsum("ij,ij->i", h, h) - 2.0 * s - eps**2
            sums += (s.sum(), (s * s).sum(), c.sum(), (c * c).sum())
        total = chunks * m
        checks = (
            ("radial", sums[0] / total, sums[1] / total, eps**2 / (n + 2)),
            ("combined", sums[2] / total, sums[3] / total,
             -eps**2 + (n - 2) * eps**2 / (n + 2)),
        )
        for label, mean, mean_sq, target in checks:
            se = math.sqrt(max(mean_sq - mean**2, 0.0) / total)
            good = abs(mean - target) <= 3.0 * se
            ok = ok and good
            parts.append(f"n={n} {label} |err| {abs(mean - target):.1e} "
                         f"vs 3se {3 * se:.1e}")
    dt = time.monotonic() - t0
    ok = ok and dt < 30.0
    acceptance(3, "ball moment identities", ok,
               "; ".join(parts) + f", 1e7 samples each, {dt:.1f}s (< 30s)")


# -- 4: expansion remainder and oscillation bounds ----------------------------


def test_expansion_remainder_bounds(acceptance):
    t0 = time.monotonic()
    # cubic remainder control wherever the expansion is admissible
    p = ComparisonParams(**DESK_SCHEDULE)
    rng = substream(907)
    m = 110_000
    X = uniform_ball(rng, 2, 1.0, m)
    Z = uniform_ball(rng, 2, 1.0, m)
    HX = uniform_ball(rng, 2, p.epsilon, m)
    HZ = uniform_ball(rng, 2, p.epsilon, m)
    approx, bound = taylor_f1(X, Z, HX, HZ, p.C, p.delta)
    keep = np.isfinite(bound)
    n_admissible = int(keep.sum())
    sel = np.flatnonzero(keep)[:100_000]
    rem = np.abs(eval_f1(X[sel] + HX[sel], Z[sel] + HZ[sel], p.C, p.delta)
                 - approx[sel])
    cubic_ok = n_admissible >= 100_000 and bool(np.all(rem <= bound[sel]))

    # separated pairs: remainder under the flat 10*eps^2*t^(delta-2) bound;
    # this schedule keeps N >= 100*C/delta while the separation threshold
    # N*eps/10 = 1.25 still fits inside the pair region
    p2 = ComparisonParams(n=2, delta=0.5, C=1.25, N=250, epsilon=0.05)
    rng2 = substream(909)
    m2 = 500_000
    X2 = uniform_ball(rng2, 2, 1.0, m2)
    Z2 = uniform_ball(rng2, 2, 1.0, m2)
    t2 = np.linalg.norm(X2 - Z2, axis=1)
    far = t2 > p2.near_far_split * 1.0001
    n_far = int(far.sum())
    X2, Z2 = X2[far][:100_000], Z2[far][:100_000]
    HX2 = uniform_ball(rng2, 2, p2.epsilon, len(X2))
    HZ2 = uniform_ball(rng2, 2, p2.epsilon, len(X2))
    approx2, _ = taylor_f1(X2, Z2, HX2, HZ2, p2.C, p2.delta)
    rem2 = np.abs(eval_f1(X2 + HX2, Z2 + HZ2, p2.C, p2.delta) - approx2)
    flat_ok = n_far >= 100_000 and bool(
        np.all(rem2 <= error2_bound(X2, Z2, p2.epsilon, p2)))

    # one-step oscillation of f1 never exceeds 2*C*eps^delta + 16*eps
    sharp, _ = f1_oscillation_bound(p)
    rng3 = substream(913)
    m3 = 1_000_000
    X3 = uniform_ball(rng3, 2, 1.0, m3)
    Z3 = uniform_ball(rng3, 2, 1.0, m3)
    HX3 = uniform_ball(rng3, 2, p.epsilon, m3)
    HZ3 = uniform_ball(rng3, 2, p.epsilon, m3)
    diff = np.abs(eval_f1(X3 + HX3, Z3 + HZ3, p.C, p.delta)
                  - eval_f1(X3, Z3, p.C, p.delta))
    osc_ok = bool(np.all(diff <= sharp))

    dt = time.monotonic() - t0
    ok = cubic_ok and flat_ok and osc_ok and dt < 60.0
    acceptance(4, "expansion remainder bounds", ok,
               f"cubic 0 violations over 1e5 (max ratio "
               f"{float(np.max(rem / bound[sel])):.3f}), separated-regime 0 "
               f"violations over 1e5, oscillation 0 violations over 1e6, "
               f"{dt:.1f}s (< 60s)")


# -- 5: coupling suite ---------------------------------------------------------


def test_coupling_suite(acceptance):
    t0 = time.monotonic()
    parts = []

    # involution + isometry over 1e6 inputs: 9e5 mirrored rows, 1e5 rotated
    rng = substream(911)
    mir_inv = mir_iso = 0.0
    for _ in range(300):
        x = uniform_ball(rng, 2, 1.0, 1)[0]
        z = uniform_ball(rng, 2, 1.0, 1)[0]
        if np.allclose(x, z):
            continue
        H = uniform_ball(rng, 2, 0.4, 3000)
        P = mirror_map(x, z, H)
        mir_inv = max(mir_inv, float(np.abs(mirror_map(x, z, P) - H).max()))
        mir_iso = max(mir_iso, float(np.abs(
            np.linalg.norm(P, axis=1) - np.linalg.norm(H, axis=1)).max()))
    rot_inv = rot_iso = 0.0
    for n in (2, 3):
        for _ in range(500):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            fwd, back = rotation_map(a, b), rotation_map(b, a)
            H = uniform_ball(rng, n, 1.0, 100)
            rot_inv = max(rot_inv, float(np.abs(back(fwd(H)) - H).max()))
            rot_iso = max(rot_iso, float(np.abs(
                np.linalg.norm(fwd(H), axis=1)
                - np.linalg.norm(H, axis=1)).max()))
    geom_ok = max(mir_inv, mir_iso, rot_inv, rot_iso) <= 1e-13
    parts.append(f"involution/isometry worst "
                 f"{max(mir_inv, mir_iso, rot_inv, rot_iso):.1e} (<= 1e-13)")

    # the shifted quarter-ball stays inside the lens of the two step balls
    esc = 0
    for n in (2, 3):
        x0 = np.zeros(n)
        z0 = np.zeros(n)
        z0[0] = 1.8
        esc += small_ball_escapes(x0, z0, 1.0, 1_000_000, seed=77)
    parts.append(f"lens escapes {esc}/2e6")

    # lens volume: closed form vs MC within 3 standard errors
    vol_ok = True
    worst_z = 0.0
    for n in (2, 3):
        unit = math.pi if n == 2 else 4.0 * math.pi / 3.0
        for t in (0.3, 1.0, 1.6):
            frac, se = overlap_fraction_mc(n, 1.0, t, 400_000, seed=13)
            zscore = abs(frac - intersection_volume(n, 1.0, t) / unit) / se
            worst_z = max(worst_z, zscore)
            vol_ok = vol_ok and zscore <= 3.0
    parts.append(f"lens volume worst z {worst_z:.2f} (<= 3)")

    # coupled one-step marginals: per-axis KS against the closed-form CDFs
    eps = 0.3
    pair = CoupledPoint(x=(0.2, 0.1), z=(-0.3, 0.4))
    cm = CouplingMap.mirror(pair.x, pair.z)
    Xm, Zm = sample_coupled_noise(cm, pair, GameSpec.random_walk(eps),
                                  200_000, seed=99)

    def ball_axis_cdf(s):
        u = np.clip(s / eps, -1.0, 1.0)
        return 0.5 + (u * np.sqrt(1.0 - u**2) + np.arcsin(u)) / math.pi

    pvals = []
    for tok, c in ((Xm, pair.x), (Zm, pair.z)):
        H = tok - np.asarray(c)
        for ax in range(2):
            pvals.append(stats.kstest(H[:, ax], ball_axis_cdf).pvalue)

    nu_x, nu_z = np.array([0.1, 0.05]), np.array([-0.05, 0.1])
    cmr = CouplingMap.rotation(tuple(nu_x), tuple(nu_z))
    Xr, Zr = sample_coupled_noise(cmr, pair, GameSpec.directional(eps, 0.5),
                                  200_000, seed=101)
    ortho_worst = 0.0
    for tok, c, nu in ((Xr, pair.x, nu_x), (Zr, pair.z, nu_z)):
        H = tok - np.asarray(c)
        b = nu / np.linalg.norm(nu)
        perp = np.array([-b[1], b[0]])
        # in-plane coordinate is uniform on [-eps, eps]; the component
        # along the move direction vanishes identically
        pvals.append(stats.kstest(
            H @ perp, lambda s: (np.clip(s / eps, -1, 1) + 1) / 2).pvalue)
        ortho_worst = max(ortho_worst, float(np.max(np.abs(H @ b))))
    ks_ok = min(pvals) > 0.01 and ortho_worst <= 1e-13
    parts.append(f"KS min p {min(pvals):.3f} (> 0.01)")

    dt = time.monotonic() - t0
    ok = geom_ok and esc == 0 and vol_ok and ks_ok
    acceptance(5, "coupling suite", ok, "; ".join(parts) + f", {dt:.1f}s")


# -- 6: mirrored-step drift of f1 is negative for separated pairs -------------


def test_drift_negativity(acceptance):
    t0 = time.monotonic()
    C, d, eps, n = 20000.0, 0.1, 0.05, 2
    assert C * d / (4 * (n + 2)) > 10.0  # constants large enough to force sign
    g = lambda A, B: eval_f1(A, B, C, d)
    spec = GameSpec.random_walk(eps)
    rng = substream(61)
    bad = []
    for k in range(20):
        x = uniform_ball(rng, 2, 0.9, 1)[0]
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        t = rng.uniform(2 * eps * 1.01, 1.0)
        z = x - t * u
        pair = CoupledPoint(x=tuple(x), z=tuple(z))
        drift, half = coupled_drift(g, CouplingMap.mirror(pair.x, pair.z),
                                    pair, spec, 40_000, seed=700 + k)
        se = half / 1.96
        bnd = eps**2 * t ** (d - 2) * (10.0 - C * d / (4 * (n + 2)))
        if not (drift <= bnd + 3 * se and drift < 0):
            bad.append(k)
    dt = time.monotonic() - t0
    ok = not bad and dt < 60.0
    acceptance(6, "drift negativity", ok,
               f"20/20 separated pairs below the negative envelope "
               f"(violations {bad}), {dt:.1f}s (< 60s)")


# -- 7: desk-scale certification with a weak-constant negative control --------


@pytest.mark.slow
def test_desk_scale_certification(acceptance):
    t0 = time.monotonic()
    reports = certify_region(default_params(2), n_samples=10_000, seed=2024)
    pos_parts = []
    pos_ok = True
    for rep in reports:
        good = (rep.min_margin > 0 and not rep.notes
                and len(rep.regime_counts) == 5
                and all(c > 0 for c in rep.regime_counts.values()))
        pos_ok = pos_ok and good
        pos_parts.append(f"{rep.inequality} {rep.min_margin:.3g}")

    # weakening C below the working point must flip the separated regime;
    # the schedule floor C > 1 keeps this the smallest admissible control
    weak = ComparisonParams(n=2, delta=0.2, C=1.5, N=40, epsilon=0.05)
    neg = certify_region(weak, inequalities=("I",), n_samples=123, seed=5)[0]
    flipped = [s for s in neg.samples if s["margin"] < 0]
    neg_ok = (neg.min_margin < 0 and flipped
              and all(s["regime"].startswith("far") for s in flipped))

    dt = time.monotonic() - t0
    ok = pos_ok and neg_ok and dt < 1800.0
    acceptance(7, "desk-scale certification", ok,
               "min margins " + ", ".join(pos_parts)
               + f" (all > 0 over 1e4 stratified pairs); weak-C control "
               f"min {neg.min_margin:.3g} < 0 ({len(flipped)} separated-"
               f"regime flips), {dt:.0f}s (< 1800s)")


# -- 8: regularity ladder across step sizes ------------------------------------


@pytest.mark.slow
def test_regularity_ladder(acceptance):
    t0 = time.monotonic()
    F = lambda P: np.abs(np.atleast_2d(np.asarray(P, float))[:, 0])
    shape = Ball(center=(0.0, 0.0), radius=1.0)
    fields = {}
    conv_ok = True
    for eps in (0.1, 0.05, 0.025):
        dom = build_grid_domain(shape, eps / 3.0, eps)
        fld, diag = solve_dpp(dom, F, GameSpec.space_dependent(eps, 0.5),
                              tol=1e-6)
        conv_ok = conv_ok and diag.converged
        fields[eps] = (dom, fld)

    ratios = {}
    for delta in (0.2, 0.025):
        ks = [fit_c_prime(fld, delta, eps, 0.3, (0.0, 0.0), 4000, seed=11)[1]
              for eps, (_, fld) in fields.items()]
        ratios[delta] = max(ks) / min(ks)
    stat_ok = all(r <= 2.0 for r in ratios.values())

    dom, fld = fields[0.1]
    spec = GameSpec.space_dependent(0.1, 0.5)
    h = 0.1 / 3.0
    mc_worst = 0.0
    mc_ok = True
    for i, x0 in enumerate(((0.0, 0.0), (9 * h, 0.0), (0.0, -13 * h),
                            (-6 * h, 6 * h), (15 * h, 3 * h))):
        mean, half, rate = estimate_value(
            spec, GreedyOnField(fld, True), GreedyOnField(fld, False),
            x0, dom, fld, episodes=6000, seed=500 + i, max_steps=200_000)
        gap = abs(mean - float(fld.values[dom.point_index(x0)]))
        se = half / 1.96
        mc_ok = mc_ok and rate == 0.0 and gap <= 3.0 * se
        mc_worst = max(mc_worst, gap / (3.0 * se))

    dt = time.monotonic() - t0
    ok = conv_ok and stat_ok and mc_ok and dt < 1800.0
    acceptance(8, "regularity ladder", ok,
               f"3 solves converged at tol 1e-6; K ratio across eps "
               f"{ratios[0.2]:.3f} (delta 0.2) / {ratios[0.025]:.3f} "
               f"(delta 0.025), both <= 2; greedy-strategy estimates within "
               f"3se at 5 points (worst {mc_worst:.2f} of budget), "
               f"{dt:.0f}s (< 1800s)")


# -- 9: artifacts are byte-identical across thread counts ----------------------


CONFIGS = {
    "solve": """
command = solve
domain.shape = disk
domain.radius = 0.5
domain.spacing = 0.05
game.kind = random_walk
game.epsilon = 0.3
boundary.expr = y1
""",
    "simulate": """
command = simulate
domain.shape = disk
domain.radius = 1.0
game.kind = tug_of_war
game.epsilon = 0.2
boundary.preset = cone
simulate.x0 = 0.5, 0.0
simulate.episodes = 30
simulate.max_steps = 200
simulate.strategy_I = pull_toward: 2.0, 0.0
simulate.strategy_II = pull_toward: 0.0, 0.0
simulate.episode_csv = true
seed = 9
""",
    "certify": """
command = certify
cmp.n = 2
cmp.delta = 0.2
cmp.C = 1.5
cmp.N = 40
cmp.epsilon = 0.05
certify.inequalities = I
certify.samples = 123
seed = 5
""",
    "holder": """
command = holder
domain.shape = disk
domain.radius = 0.5
domain.spacing = 0.05
game.kind = tug_of_war
game.epsilon = 0.3
boundary.expr = abs(y1)
holder.R = 0.2
holder.delta = 0.5
holder.pairs = 150
seed = 7
""",
}


def _hash_dir(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_deterministic_artifacts(acceptance, tmp_path, run_cli):
    t0 = time.monotonic()
    mismatched = []
    for label, text in CONFIGS.items():
        cfg = tmp_path / f"{label}.cfg"
        cfg.write_text(text)
        hashes = []
        for run, threads in (("a", 1), ("b", 4), ("c", 4)):
            workdir = tmp_path / f"{label}_{run}"
            workdir.mkdir()
            proc = run_cli(cfg, workdir, threads)
            assert proc.returncode == 0, (label, proc.stderr)
            hashes.append(_hash_dir(str(workdir / "artifacts")))
        if not (hashes[0] == hashes[1] == hashes[2]):
            mismatched.append(label)
    dt = time.monotonic() - t0
    ok = not mismatched
    acceptance(9, "deterministic artifacts", ok,
               f"4 pipelines x 3 runs (threads 1/4/4) byte-identical "
               f"(mismatches {mismatched or 'none'}), {dt:.0f}s")
