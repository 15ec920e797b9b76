"""Timed and traced runs of one workload, and the metrics they yield."""

from __future__ import annotations

import filecmp
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import dpplab.certifier
import dpplab.simulate
import dpplab.solver

from .probes import KINDS, MODES, episode_mode, gather_bytes, probe_ops
from .trace import LAYERS, Patches, PhaseClock, Tracer, per_call
from .workloads import SETUP_REPEATS, Context

# (module, function, phase): phase timers for the summary line, installed
# in every run.
PHASES = ((dpplab.solver, "solve_dpp", "solve"),
          (dpplab.simulate, "estimate_value", "estimate"),
          (dpplab.simulate, "coupled_drift", "estimate"),
          (dpplab.certifier, "certify_region", "certify"))


@dataclass
class Measured:
    setup_s: float
    pass_s: float
    phases: dict
    attempted: int
    failed: int

    @property
    def wall_s(self) -> float:
        """Time to result: one set-up plus one pass of the ops."""
        return self.setup_s + self.pass_s


def run_ops(ops) -> tuple[int, int]:
    failed = 0
    for op in ops:
        try:
            op.run()
        except Exception as exc:  # a failing op is counted; the run goes on
            failed += 1
            print(f"op {op.name} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    return len(ops), failed


def _phase_patches(clock: PhaseClock) -> Patches:
    patches = Patches()
    for module, name, phase in PHASES:
        current = getattr(module, name)
        patches.replace(current, clock.timed(phase, current))
    return patches


def measure(workload, ctx: Context, seconds: float) -> Measured:
    """Set up SETUP_REPEATS times (more while under sizes.setup_min_s), then
    run passes of the ops for `seconds` (at least one); report medians."""
    clock = PhaseClock()
    patches = _phase_patches(clock)
    try:
        setups, state = [], None
        while (len(setups) < SETUP_REPEATS
               or sum(setups) < ctx.sizes.setup_min_s):
            state = None  # drop the previous inputs before building anew
            t0 = time.perf_counter()
            state = workload.setup(ctx)
            setups.append(time.perf_counter() - t0)
        passes, attempted, failed = [], 0, 0
        start = time.perf_counter()
        while True:
            clock.totals = {}
            t0 = time.perf_counter()
            a, f = run_ops(workload.ops(ctx, state))
            passes.append((time.perf_counter() - t0, dict(clock.totals)))
            attempted += a
            failed += f
            if time.perf_counter() - start >= seconds:
                break
    finally:
        patches.restore()
    phases = {k: statistics.median(p[1].get(k, 0.0) for p in passes)
              for k in {k for p in passes for k in p[1]}}
    return Measured(statistics.median(setups),
                    statistics.median(p[0] for p in passes), phases,
                    attempted, failed)


def end_to_end(m: Measured) -> dict:
    return {"wall_s": m.wall_s, "setup_s": m.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


# -- traced run ------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_build(tr, args, kwargs, dom):
    tr.count("core.points", dom.n_points)
    tr.count("core.table_bytes",
             dom.n_interior * len(dom.stencil(dom.strip_width)) * 8)


def _count_sweep(tr, args, kwargs, out):
    tr.count("operators.gather_bytes",
             gather_bytes(out.domain, _arg(args, kwargs, 1, "spec")))


def _count_solve(tr, args, kwargs, result):
    diag = result[1]
    tr.count("solver.solves")
    tr.count(f"solver.sweeps.{_arg(args, kwargs, 2, 'spec').kind}", diag.iterations)
    tr.counts["solver.final_residual"] = max(
        tr.counts.get("solver.final_residual", 0.0), diag.final_residual)


def _count_episode(tr, args, kwargs, out):
    mode = episode_mode(_arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "sI"),
                        _arg(args, kwargs, 4, "domain"))
    tr.count("simulate.episodes")
    tr.count("simulate.truncated", int(out.truncated))
    tr.count(f"simulate.steps.{mode}", out.steps)


HOOKS = {"core.build_grid_domain": _count_build,
         "operators.apply_operator": _count_sweep,
         "solver.solve_dpp": _count_solve,
         "simulate.run_episode": _count_episode}


def traced(workload, ctx: Context, untraced: Measured, spans_path) -> tuple:
    """One set-up and one pass with spans on. Returns (metrics, attempted,
    failed)."""
    tracer = Tracer(hooks=HOOKS, run_id=1)
    patches = Patches()
    tracer.install(patches)
    phase_patches = _phase_patches(PhaseClock())
    try:
        t0 = time.perf_counter()
        state = workload.setup(ctx)
        attempted, failed = run_ops(workload.ops(ctx, state))
        wall = time.perf_counter() - t0
    finally:
        phase_patches.restore()
        patches.restore()
    tracer.write(str(spans_path), {"workload": workload.name, "seed": ctx.seed,
                                   "runs": {"1": f"{workload.name} traced pass"}})

    m = {"trace.overhead_s": wall - untraced.wall_s}
    selfs, incl = tracer.self_times(1), tracer.inclusive_times(1)
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = 100.0 * selfs.get(layer, 0.0) / wall
        m[f"{layer}.incl_pct"] = 100.0 * incl.get(layer, 0.0) / wall
    m["other.self_pct"] = 100.0 * (wall - tracer.top_level_time(1)) / wall
    c = tracer.counts
    m["core.build_s"] = sum(tracer.durations("core.build_grid_domain", 1))
    m["core.points"] = c.get("core.points", 0)
    m["core.table_bytes"] = c.get("core.table_bytes", 0)
    sweeps = tracer.durations("operators.apply_operator", 1)
    m["operators.sweep_ms.p50"], m["operators.sweep_ms.tail"], \
        m["operators.sweep_ms.n"] = per_call(sweeps, 1e3)
    m["operators.gather_bytes"] = c.get("operators.gather_bytes", 0)
    m["solver.solves"] = c.get("solver.solves", 0)
    for kind in KINDS:
        m[f"solver.sweeps.{kind}"] = c.get(f"solver.sweeps.{kind}", 0)
    m["solver.self_s"] = selfs.get("solver", 0.0)
    m["solver.final_residual"] = c.get("solver.final_residual", 0.0)
    episodes = c.get("simulate.episodes", 0)
    m["simulate.episodes"] = episodes
    for mode in MODES:
        m[f"simulate.steps.{mode}"] = c.get(f"simulate.steps.{mode}", 0)
    m["simulate.truncation_rate"] = (c.get("simulate.truncated", 0) / episodes
                                     if episodes else 0.0)
    for name in ctx.sizes.cli_configs:
        key = f"cli.artifact_bytes.{name}"
        m[key] = ctx.counts.get(key, 0)
    return m, attempted, failed


def same_artifacts(a, b) -> bool:
    """True if directory trees a and b hold byte-identical files."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        same_artifacts(a / d, b / d) for d in cmp.common_dirs)


def run(workload, ctx: Context, seconds: float, trace: bool, spans_path=None):
    """Returns (metrics, attempted, failed, phases of the untraced run)."""
    if not trace:
        m = measure(workload, ctx, seconds)
        return end_to_end(m), m.attempted, m.failed, m.phases

    metrics: dict = {}
    attempted, failed = run_ops(probe_ops(ctx, metrics))
    m = measure(workload, ctx, seconds)
    attempted += m.attempted
    failed += m.failed
    artifacts = ctx.workdir / "artifacts"
    if artifacts.exists():
        artifacts.rename(ctx.workdir / "untraced")
    layer, a, f = traced(workload, ctx, m, spans_path)
    metrics.update(layer)
    attempted += a
    failed += f
    if (ctx.workdir / "untraced").exists():
        attempted += 1
        if not same_artifacts(ctx.workdir / "untraced", artifacts):
            failed += 1
            print("artifacts of the timed and traced runs differ", file=sys.stderr)
    return metrics, attempted, failed, m.phases
