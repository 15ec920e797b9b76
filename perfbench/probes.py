"""Layer probes: fixed-size calls into each module, timed one by one.

The traced run of every workload runs the same probes first, in a fresh
process, so the per-layer figures below exist for every workload and the
directional first sweep is cold. Grid probes use grid_solve's domains.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from dpplab import (Ball, CoupledPoint, CouplingMap, GameSpec, GreedyOnField,
                    PullAway, PullToward, ValueField, alpha_beta_from_p,
                    apply_operator, ball_neighbors, boundary_field,
                    build_grid_domain, certify_region, coupled_drift,
                    default_params, eval_f1, field_from_function, fit_c_prime,
                    holder_report, move_radii, default_direction_count,
                    disk_rule, pair_function, run_episode, solve_dpp,
                    substream, uniform_ball)
from dpplab import certifier
from dpplab.core import GridDomain

from .trace import Patches, per_call
from .workloads import (DRIFT_C, DRIFT_DELTA, Op, abs_projection,
                        boundary_direction, check, stream_rng, unit_vector)

KINDS = ("tug_of_war", "random_walk", "space_dependent", "directional")
MODES = ("grid_greedy", "continuum_random_walk", "continuum_directional",
         "continuum_tug_of_war")
INEQUALITIES = ("I", "II", "III", "T")


def gather_bytes(domain, spec) -> int:
    """Computed bytes one apply_operator sweep gathers (float64 values).

    Every kind gathers the (m, S) stencil block; the directional kind also
    gathers one jump column and one disk block per move.
    """
    m = domain.n_interior
    total = m * len(domain.stencil(spec.epsilon)) * 8
    if spec.kind == "directional":
        n = domain.ndim
        moves = len(move_radii(spec)) * (spec.direction_count
                                         or default_direction_count(n))
        _, w = disk_rule(n, spec.epsilon, np.eye(n)[0], spec.disk_node_count,
                         spec.disk_angle_count)
        total += m * moves * (1 + len(w)) * 8
    return total


def episode_mode(spec, sI, domain) -> str:
    if isinstance(domain, GridDomain):
        return "grid_greedy" if isinstance(sI, GreedyOnField) else f"grid_{spec.kind}"
    return f"continuum_{spec.kind}"


def _put(m: dict, name: str, samples, scale: float):
    m[f"{name}.p50"], m[f"{name}.tail"], m[f"{name}.n"] = per_call(samples, scale)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def probe_ops(ctx, m: dict) -> list:
    """Ops that fill `m` with the probe metrics."""
    s, seed = ctx.sizes, ctx.seed
    st: dict = {}
    disk = Ball((0.0, 0.0), 1.0)
    F = abs_projection(boundary_direction(seed, 2))

    def sweeps():
        dom = build_grid_domain(disk, s.grid_eps / 3.0, s.grid_eps)
        dom_dir = build_grid_domain(disk, s.dir_h, s.dir_eps)
        # The wide 3D stencil (S = 123) gathers far more per point than the
        # 2D ones, where a sweep tuned for S = 29 could lose.
        eps3 = s.probe_ball3d_eps
        ball = build_grid_domain(Ball((0.0, 0.0, 0.0), 1.0), eps3 / 3.0, eps3)
        cases = {"tug_of_war": (dom, GameSpec.tug_of_war(s.grid_eps)),
                 "random_walk": (dom, GameSpec.random_walk(s.grid_eps)),
                 "space_dependent": (dom, GameSpec.space_dependent(s.grid_eps, 0.5)),
                 "directional": (dom_dir, GameSpec.directional(
                     s.dir_eps, alpha_beta_from_p(4, 2)[0])),
                 "tug_of_war_3d": (ball, GameSpec.tug_of_war(eps3))}
        for kind, (d, spec) in cases.items():
            g = abs_projection(boundary_direction(seed, d.ndim))
            fld = ValueField(d, boundary_field(d, g))
            times = []
            for _ in range(s.probe_sweeps + (kind == "directional")):
                fld, dt = _timed(apply_operator, fld, spec)
                times.append(dt)
            if kind == "directional":
                m["operators.first_sweep_ms.directional"] = times.pop(0) * 1e3
            _put(m, f"operators.sweep_ms.{kind}", times, 1e3)
            m[f"operators.gather_bytes.{kind}"] = gather_bytes(d, spec)
        st["disk"] = dom

    def lookups():
        dom = st["disk"]
        _, dt = _timed(dom.neighbor_table, 0.8 * s.grid_eps)
        m["core.neighbor_table_s"] = dt
        rng = stream_rng(seed, 200)
        idx = rng.integers(0, dom.n_points, s.probe_lookups)
        pts = dom.points[idx]
        times = []
        for i, p in zip(idx, pts):
            j, dt = _timed(dom.point_index, p)
            check(j == i, "point_index returned a wrong row")
            times.append(dt)
        _put(m, "core.point_index_us", times, 1e6)
        fld = field_from_function(dom, lambda x: 1.0 + x[:, 0])
        batch = max(1, len(pts) // 100)
        times = []
        for b in range(0, len(pts) - batch + 1, batch):
            vals, dt = _timed(fld.evaluate, pts[b:b + batch])
            check(bool(np.array_equal(vals, fld.values[idx[b:b + batch]])),
                  "ValueField.evaluate returned wrong values")
            times.append(dt / batch)
        _put(m, "core.evaluate_us", times, 1e6)
        times = []
        for i in rng.choice(dom.interior_indices, max(11, len(idx) // 10)):
            _, dt = _timed(ball_neighbors, dom, dom.points[i], s.grid_eps)
            times.append(dt)
        _put(m, "core.ball_neighbors_us", times, 1e6)

    def randomness():
        times = []
        for k in range(s.probe_substreams):
            _, dt = _timed(substream, seed, k)
            times.append(dt)
        _put(m, "rng.substream_us", times, 1e6)

    def episodes():
        dom = build_grid_domain(disk, s.mc_eps / 3.0, s.mc_eps)
        sd = GameSpec.space_dependent(s.mc_eps, 0.5)
        fld, diag = solve_dpp(dom, F, sd, tol=s.tol)
        check(diag.converged, "probe field did not converge")
        st["field"] = fld
        payoff = ValueField(dom, boundary_field(dom, F))
        x_grid = dom.points[dom.nearest_index((0.3, 0.2))]
        dirs = GameSpec.directional(s.mc_eps, alpha_beta_from_p(4, 2)[0])
        runs = {"grid_greedy": (sd, GreedyOnField(fld, True),
                                GreedyOnField(fld, False), x_grid, dom, payoff),
                "continuum_random_walk": (GameSpec.random_walk(s.mc_eps), None,
                                          None, (0.3, 0.2), disk, F),
                "continuum_directional": (dirs, PullToward((1.5, 0.0)),
                                          PullAway((0.0, 0.0)), (0.3, 0.2),
                                          disk, F),
                "continuum_tug_of_war": (GameSpec.tug_of_war(s.mc_eps),
                                         PullToward((1.5, 0.0)),
                                         PullAway((0.0, 0.0)), (0.3, 0.2),
                                         disk, F)}
        for mode, args in runs.items():
            times, steps = [], 0
            for k in range(s.probe_episodes):
                out, dt = _timed(run_episode, *args, substream(seed, 300, k))
                check(not out.truncated, f"{mode} probe episode truncated")
                times.append(dt)
                steps += out.steps
            _put(m, f"simulate.episode_ms.{mode}", times, 1e3)
            m[f"simulate.steps_per_s.{mode}"] = steps / sum(times)

    def drifts():
        g = lambda a, b: eval_f1(a, b, DRIFT_C, DRIFT_DELTA)
        u = unit_vector(seed, 30, 2)
        pair = CoupledPoint(x=(0.1, 0.0), z=tuple(np.array([0.1, 0.0]) - 0.3 * u))
        eps = s.drift_eps
        cases = {"mirror": (CouplingMap.mirror(pair.x, pair.z),
                            GameSpec.random_walk(eps)),
                 "rotation": (CouplingMap.rotation(eps * u, eps * u[::-1]),
                              GameSpec.directional(eps, alpha_beta_from_p(4, 2)[0]))}
        for kind, (cm, game) in cases.items():
            times = []
            for k in range(s.probe_drifts):
                (mean, half), dt = _timed(coupled_drift, g, cm, pair, game,
                                          s.drift_samples // 5, seed + k)
                check(math.isfinite(mean) and math.isfinite(half),
                      f"{kind} probe drift is not finite")
                times.append(dt)
            _put(m, f"simulate.coupled_drift_ms.{kind}", times, 1e3)

    def comparison():
        params = default_params(2)
        g = pair_function(params)
        rng = stream_rng(seed, 400)
        X = uniform_ball(rng, 2, 1.0, s.probe_g_batch)
        Z = uniform_ball(rng, 2, 1.0, s.probe_g_batch)
        times = [_timed(g, X, Z)[1] for _ in range(5)]
        m["comparison.g_evals_per_s"] = s.probe_g_batch / statistics.median(times)

    def certify():
        params = default_params(2)
        g = pair_function(params)
        for q in INEQUALITIES:
            calls = {"n": 0, "rows": 0}

            def counting_g(X, Z):
                calls["n"] += 1
                calls["rows"] += len(np.atleast_2d(X))
                return g(X, Z)

            times = []
            margin = getattr(certifier, f"margin_{q}")

            def timed_margin(*args, **kwargs):
                out, dt = _timed(margin, *args, **kwargs)
                times.append(dt)
                return out

            patches = Patches()
            patches.replace(margin, timed_margin)
            try:
                rep, = certify_region(params, (q,), n_samples=s.probe_pairs,
                                      seed=seed, g=counting_g)
            finally:
                patches.restore()
            check(math.isfinite(rep.min_margin), f"margin {q}: no finite margin")
            _put(m, f"certifier.pair_ms.{q}", times, 1e3)
            m[f"certifier.g_calls.{q}"] = calls["n"]
            m[f"certifier.g_rows.{q}"] = calls["rows"]
            m[f"certifier.min_margin.{q}"] = rep.min_margin

    def holder():
        fld = st["field"]
        times = []
        for k in range(3):
            t0 = time.perf_counter()
            c_prime, _ = fit_c_prime(fld, 0.2, s.mc_eps, 0.3, (0.0, 0.0), 2000,
                                     seed + k)
            rep = holder_report(fld, 0.2, s.mc_eps, 0.3, (0.0, 0.0), c_prime,
                                2000, seed + k)
            times.append(time.perf_counter() - t0)
            check(math.isfinite(rep.K), "holder report K is not finite")
        m["regularity.holder_s"] = statistics.median(times)

    return [Op(f"probe.{fn.__name__}", fn)
            for fn in (sweeps, lookups, randomness, episodes, drifts,
                       comparison, certify, holder)]
