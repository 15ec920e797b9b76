"""The benchmark's three workloads, their inputs and their correctness checks.

Each workload has a set-up (domain builds and one-off input preparation) and
a list of ops. An op is one solve, one estimate, one drift or one CLI
config; it fails if it raises or if its output fails a check.
All inputs derive from the workload seed; dpplab only sees the generated
inputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dpplab as dl
import dpplab.cli  # noqa: F401  (loads dl.cli)
from dpplab import (Ball, CoupledPoint, CouplingMap, GameSpec, GreedyOnField,
                    PullAway, PullToward, ValueField, alpha_beta_from_p)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "demos" / "configs"

# A run sets up at least SETUP_REPEATS times (and for Sizes.setup_min_s);
# setup_s is the median.
SETUP_REPEATS = 3

# f1 of the coupled-tokens demo: C|x - z|^delta + |x + z|^2.
DRIFT_C, DRIFT_DELTA = 20000.0, 0.1


class CheckFailed(Exception):
    """An op produced output that fails its correctness check."""


def check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. FULL is the benchmark; TOY keeps its tests fast."""

    grid_eps: float = 0.05              # grid_solve shared disk, h = eps/3
    dir_eps: float = 0.2                # grid_solve directional disk
    dir_h: float = 0.05
    tol: float = 1e-6
    # Short set-ups repeat until this much time has passed, so their median
    # rides out a slow moment of a shared machine.
    setup_min_s: float = 2.0
    mc_eps: float = 0.1                 # mc_play grid, h = eps/3
    start_radii: tuple = (0.0, 0.2, 0.35, 0.5, 0.65)
    grid_episodes: int = 1000           # per start point
    continuum_episodes: int = 500
    drift_separations: tuple = (0.15, 0.3, 0.6)
    drift_eps: float = 0.05
    drift_samples: int = 20_000
    cli_configs: tuple = ("solve_disk", "simulate_pull", "holder_tug",
                          "certify_desk")
    cli_overrides: tuple = ()           # ((config, key, value), ...)
    # layer probes (probes.py)
    probe_ball3d_eps: float = 0.2       # 3D unit ball, h = eps/3
    probe_sweeps: int = 40
    probe_lookups: int = 2000
    probe_episodes: int = 100
    probe_drifts: int = 30
    probe_pairs: int = 40
    probe_substreams: int = 2000
    probe_g_batch: int = 100_000


FULL = Sizes()
TOY = Sizes(setup_min_s=0.0, grid_eps=0.3, dir_eps=0.4, dir_h=0.1,
            mc_eps=0.3, start_radii=(0.0, 0.4),
            grid_episodes=40, continuum_episodes=20, drift_samples=2000,
            cli_overrides=(("certify_desk", "certify.samples", "4"),
                           ("holder_tug", "holder.pairs", "200"),
                           ("holder_tug", "domain.spacing", "0.08"),
                           ("holder_tug", "game.epsilon", "0.24"),
                           ("simulate_pull", "simulate.episodes", "10")),
            probe_ball3d_eps=0.6, probe_sweeps=12, probe_lookups=50,
            probe_episodes=12, probe_drifts=12, probe_pairs=12,
            probe_substreams=50, probe_g_batch=1000)


@dataclass
class Op:
    name: str
    run: object                 # callable() -> None; raises on failure


@dataclass
class Context:
    """What a workload run shares across set-ups and passes."""

    seed: int
    sizes: Sizes
    workdir: Path
    counts: dict = field(default_factory=dict)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def unit_vector(seed: int, stream: int, n: int) -> np.ndarray:
    v = stream_rng(seed, stream).standard_normal(n)
    return v / np.linalg.norm(v)


def lattice_symmetry(seed: int, n: int) -> np.ndarray:
    """A signed permutation of the axes, drawn from the seed.

    These map the lattice and the unit ball onto themselves, so a problem
    and its image take the same sweeps and the same expected play: every
    seed poses an equally hard problem in another orientation, and the work
    per run does not swing with the seed.
    """
    rng = stream_rng(seed, 1)
    return np.eye(n)[rng.permutation(n)] * rng.choice((-1.0, 1.0), n)


def boundary_direction(seed: int, n: int) -> np.ndarray:
    """Direction e of the boundary data |y . e|: the seed's lattice symmetry
    applied to a fixed direction off every symmetry axis."""
    e0 = np.array([1.0, 0.37, 0.61][:n])
    return lattice_symmetry(seed, n) @ (e0 / np.linalg.norm(e0))


def abs_projection(e: np.ndarray):
    """Boundary data |y . e|."""
    return lambda x: np.abs(np.asarray(x) @ e)


# -- shared checks -----------------------------------------------------------


def checked_solve(domain, boundary, spec, tol, seed):
    """solve_dpp plus the solver checks; returns the solved field."""
    fld, diag = dl.solve_dpp(domain, boundary, spec, tol=tol)
    check(diag.converged, f"{spec.kind}: not converged ({diag.summary()})")
    res = dl.residual(fld, spec)
    check(res <= tol, f"{spec.kind}: residual {res:.3e} > tol {tol:.1e}")
    strip, inner = fld.strip_values, fld.interior_values
    slack = 1e-12 * max(1.0, float(np.max(np.abs(strip))))
    check(bool(np.all(inner >= strip.min() - slack)
               and np.all(inner <= strip.max() + slack)),
          f"{spec.kind}: interior values leave the strip's range")
    check_affine_fixed(domain, spec, seed)
    return fld, diag


def check_affine_fixed(domain, spec, seed):
    """T maps an affine field to itself: catches stale operator tables,
    which `residual` cannot see because it shares them."""
    rng = stream_rng(seed, 99)
    b = rng.standard_normal(domain.ndim)
    c = float(rng.standard_normal())
    aff = dl.field_from_function(domain, lambda x: c + x @ b)
    out = dl.apply_operator(aff, spec)
    scale = float(np.max(np.abs(aff.values)))
    err = float(np.max(np.abs(out.values - aff.values)))
    check(err <= 1e-12 * scale,
          f"{spec.kind}: affine field moved by {err:.3e} (scale {scale:.3e})")


# -- grid_solve ----------------------------------------------------------------


class GridSolve:
    """Four game kinds solved to tol on narrow-stencil 2D grids."""

    name = "grid_solve"

    def setup(self, ctx):
        s = ctx.sizes
        disk = Ball((0.0, 0.0), 1.0)
        return {"e": boundary_direction(ctx.seed, 2),
                "disk": dl.build_grid_domain(disk, s.grid_eps / 3.0, s.grid_eps),
                "dir": dl.build_grid_domain(disk, s.dir_h, s.dir_eps)}

    def ops(self, ctx, st):
        s = ctx.sizes
        alpha_dir = alpha_beta_from_p(4, 2)[0]
        cases = [("disk", GameSpec.tug_of_war(s.grid_eps)),
                 ("disk", GameSpec.random_walk(s.grid_eps)),
                 ("disk", GameSpec.space_dependent(s.grid_eps, 0.5)),
                 ("dir", GameSpec.directional(s.dir_eps, alpha_dir))]
        F = abs_projection(st["e"])
        return [Op(f"solve.{spec.kind}",
                   lambda d=st[dom], spec=spec:
                   checked_solve(d, F, spec, s.tol, ctx.seed))
                for dom, spec in cases]


# -- mc_play -------------------------------------------------------------------


class McPlay:
    """Monte Carlo play on a grid and in the continuum, and coupled drifts."""

    name = "mc_play"

    def setup(self, ctx):
        s = ctx.sizes
        disk = Ball((0.0, 0.0), 1.0)
        dom = dl.build_grid_domain(disk, s.mc_eps / 3.0, s.mc_eps)
        # Start points and pull target move with the boundary data, by the
        # seed's lattice symmetry.
        g = lattice_symmetry(ctx.seed, 2)
        angles = 0.3 + 1.3 * np.arange(len(s.start_radii))
        base = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        starts = [dom.points[dom.nearest_index(g @ (r * b))]
                  for r, b in zip(s.start_radii, base)]
        return {"e": boundary_direction(ctx.seed, 2), "disk": disk,
                "domain": dom, "starts": starts,
                "x0": g @ np.array([0.4, 0.3]),
                "target": g @ np.array([0.9, -1.2]),
                "mc_seed": int(stream_rng(ctx.seed, 2).integers(1 << 31))}

    def ops(self, ctx, st):
        s = ctx.sizes
        spec = GameSpec.space_dependent(s.mc_eps, 0.5)
        F = abs_projection(st["e"])
        dom = st["domain"]

        def solve():
            st["field"], _ = checked_solve(dom, F, spec, s.tol, ctx.seed)

        def grid_play(k):
            fld = st["field"]
            payoff = ValueField(dom, dl.boundary_field(dom, F))
            x0 = st["starts"][k]
            mean, half, rate = dl.estimate_value(
                spec, GreedyOnField(fld, True), GreedyOnField(fld, False), x0,
                dom, payoff, s.grid_episodes, st["mc_seed"] + k)
            check(rate == 0.0, f"grid play truncated {rate:.3%} of episodes")
            u = float(fld.evaluate(x0))
            se = half / 1.96
            check(abs(mean - u) <= 4.0 * se + s.tol,
                  f"grid play mean {mean:.5f} is {abs(mean - u) / se:.1f} "
                  f"standard errors from the solved value {u:.5f}")

        def continuum(kind):
            if kind == "random_walk":
                game, sI, sII = GameSpec.random_walk(s.mc_eps), None, None
            else:
                game = GameSpec.directional(s.mc_eps, alpha_beta_from_p(4, 2)[0])
                sI, sII = PullToward(st["target"]), PullAway((0.0, 0.0))
            mean, half, rate = dl.estimate_value(
                game, sI, sII, st["x0"], st["disk"], F, s.continuum_episodes,
                st["mc_seed"] + 10)
            check(rate == 0.0, f"{kind} play truncated {rate:.3%} of episodes")
            check(math.isfinite(mean) and math.isfinite(half),
                  f"{kind} play estimate is not finite")

        def drift(kind, k):
            rng = stream_rng(ctx.seed, 20 + k)
            t = s.drift_separations[k]
            u = unit_vector(ctx.seed, 30 + k, 2)
            x = 0.1 * rng.standard_normal(2)
            pair = CoupledPoint(x=tuple(x), z=tuple(x - t * u))
            if kind == "mirror":
                game = GameSpec.random_walk(s.drift_eps)
                cm = CouplingMap.mirror(pair.x, pair.z)
            else:
                game = GameSpec.directional(s.drift_eps,
                                            alpha_beta_from_p(4, 2)[0])
                turn = rng.uniform(-0.3, 0.3)
                rot = np.array([[np.cos(turn), -np.sin(turn)],
                                [np.sin(turn), np.cos(turn)]])
                cm = CouplingMap.rotation(s.drift_eps * u, s.drift_eps * rot @ u)
            mean, half = dl.coupled_drift(
                lambda a, b: dl.eval_f1(a, b, DRIFT_C, DRIFT_DELTA), cm, pair,
                game, s.drift_samples, st["mc_seed"] + 40 + k)
            check(math.isfinite(mean) and math.isfinite(half),
                  f"{kind} drift estimate or its CI is not finite")

        ops = [Op("solve.space_dependent", solve)]
        ops += [Op(f"grid_play.{k}", lambda k=k: grid_play(k))
                for k in range(len(st["starts"]))]
        ops += [Op(f"continuum.{kind}", lambda kind=kind: continuum(kind))
                for kind in ("random_walk", "directional")]
        ops += [Op(f"drift.{kind}.{k}", lambda kind=kind, k=k: drift(kind, k))
                for kind in ("mirror", "rotation")
                for k in range(len(s.drift_separations))]
        return ops


# -- cli_demos -----------------------------------------------------------------


def cold_import():
    """`import dpplab` in a fresh interpreter, as a CLI user pays it."""
    env = {**os.environ, "PYTHONPATH": str(Path(dl.__file__).resolve().parent.parent)}
    subprocess.run([sys.executable, "-c", "import dpplab"], env=env,
                   check=True, timeout=60)


def write_config(src: Path, dst: Path, overrides: dict):
    """Copy a config, replacing `key = value` lines named in overrides."""
    lines = []
    for line in src.read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in overrides:
            line = f"{key} = {overrides[key]}"
        lines.append(line)
    dst.write_text("\n".join(lines) + "\n")


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


class CliDemos:
    """The four demo configs through dpplab.cli.run_config."""

    name = "cli_demos"

    def setup(self, ctx):
        s = ctx.sizes
        cold_import()
        cfg_dir = ctx.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name in s.cli_configs:
            over = {k: v for c, k, v in s.cli_overrides if c == name}
            paths[name] = cfg_dir / f"{name}.cfg"
            write_config(CONFIG_DIR / f"{name}.cfg", paths[name], over)
        return {"configs": paths}

    def ops(self, ctx, st):
        return [Op(f"cli.{name}", lambda name=name: self._run(ctx, st, name))
                for name in ctx.sizes.cli_configs]

    def _run(self, ctx, st, name):
        out = ctx.workdir / "artifacts" / name
        if out.exists():
            shutil.rmtree(out)
        code = dl.cli.run_config(str(st["configs"][name]), seed=ctx.seed, out=str(out))
        check(code == 0, f"{name}: exit code {code}")
        ctx.counts[f"cli.artifact_bytes.{name}"] = artifact_bytes(out)
        for cert in sorted(out.glob("certificate_*.json")):
            m = json.loads(cert.read_text())["min_margin"]
            check(isinstance(m, float) and m > 0.0,
                  f"{name}: {cert.name} min margin {m!r} is not > 0")


WORKLOADS = {w.name: w for w in (GridSolve(), McPlay(), CliDemos())}
