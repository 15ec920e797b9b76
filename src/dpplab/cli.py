"""Config-driven command line entry point.

Configs are flat ``section.key = value`` lines (comments with #). One run
per process: ``dpplab run path/to/config [--seed S] [--out DIR]``.
Every artifact embeds the resolved config and seed so a run can be repeated
without the original file. Exit codes: 0 success, 1 runtime failure,
2 parse or schema error.
"""

from __future__ import annotations

import argparse
import ast
import csv
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .certifier import INEQUALITIES, certify_region
from .comparison import ComparisonParams, default_params
from .core import Ball, Box, ValueField, _json_text, build_grid_domain
from .operators import HELD_ALPHA, KINDS, GameSpec
from .regularity import _fitted_report, holder_report
from .rng import substream
from .simulate import PullAway, PullToward, Stationary, play_episodes, run_episode
from .solver import boundary_field, solve_dpp

COMMANDS = ("solve", "simulate", "certify", "holder")


class ConfigError(Exception):
    """Bad config file: parse failure or missing/invalid keys."""


# -- config parsing -----------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    values: dict          # raw strings by dotted key
    path: str
    # keys a read has touched; --seed and --out stand in for seed and out
    read: set = field(init=False, default_factory=lambda: {"command", "seed", "out"})

    def has(self, key: str) -> bool:
        self.read.add(key)
        return key in self.values

    def check_read(self):
        """ConfigError naming the first key no read touched: called once a
        command has read every key it takes, before its work starts."""
        for key in self.values:
            if key not in self.read:
                raise ConfigError(f"key {key} is not read by the "
                                  f"{self.command} command")

    def _read(self, key: str, default, parse, what: str):
        """The default for an absent key that has one, else parse(value);
        ConfigError naming the key for a missing key or a bad value."""
        self.read.add(key)
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing key: {key}")
            return default
        try:
            return parse(self.values[key])
        except ValueError:
            raise ConfigError(f"key {key} is not {what}: "
                              f"{self.values[key]!r}") from None

    def text(self, key: str, default=None) -> str:
        return self._read(key, default, str, "text")

    def num(self, key: str, default=None) -> float:
        return float(self._read(key, default, float, "a number"))

    def integer(self, key: str, default=None) -> int:
        v = self.num(key, default)
        if not math.isfinite(v) or v != int(v):
            raise ConfigError(f"key {key} must be an integer")
        return int(v)

    def point(self, key: str, default=None) -> np.ndarray:
        return np.asarray(self._read(key, default, _parse_point, "a point"),
                          dtype=float)

    def flag(self, key: str, default: bool = False) -> bool:
        return self._read(key, default, _parse_flag, "a boolean")


def _parse_point(text: str) -> np.ndarray:
    """Comma-separated coordinates; ValueError otherwise."""
    return np.asarray([float(p) for p in text.split(",")])


def _parse_flag(text: str) -> bool:
    v = text.lower()
    if v not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ValueError(text)
    return v in ("true", "yes", "1", "on")


def parse_config(path: str) -> RunConfig:
    values: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = stripped.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
        values[key] = val
    if "command" not in values:
        raise ConfigError("missing key: command")
    command = values["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"expected one of {', '.join(COMMANDS)}")
    return RunConfig(command, values, path)


# -- boundary expressions -------------------------------------------------------


_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.true_divide, ast.Pow: np.power}
_FUNCS = {"abs": np.abs, "sqrt": np.sqrt}


def compile_expression(text: str, n: int):
    """Vectorized boundary function from an arithmetic expression.

    Grammar: numbers, coordinates y1..yn, + - * / **, unary +-, abs(), sqrt().
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {text!r}: {exc.msg}") from None
    names = {f"y{i + 1}": i for i in range(n)}

    def build(node):
        """Evaluator of the subtree at node; ConfigError outside the grammar."""
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, left, right = (_BINOPS[type(node.op)], build(node.left),
                               build(node.right))
            return lambda pts: op(left(pts), right(pts))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            arg = build(node.operand)
            return arg if isinstance(node.op, ast.UAdd) else lambda pts: -arg(pts)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = float(node.value)
            return lambda pts: value
        if isinstance(node, ast.Name) and node.id in names:
            i = names[node.id]
            return lambda pts: pts[:, i]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS and len(node.args) == 1
                and not node.keywords):
            f, arg = _FUNCS[node.func.id], build(node.args[0])
            return lambda pts: f(arg(pts))
        raise ConfigError(f"expression {text!r} uses an unsupported "
                          f"construct: {ast.dump(node)[:60]}")

    evaluate = build(tree.body)

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.broadcast_to(np.asarray(evaluate(pts), dtype=float),
                               (len(pts),)).copy()

    return fn


def _preset(name: str, n: int):
    if name == "linear":
        return lambda pts: np.atleast_2d(np.asarray(pts, float))[:, 0].copy()
    if name == "cone":
        return lambda pts: np.linalg.norm(np.atleast_2d(np.asarray(pts, float)),
                                          axis=1)
    if name == "indicator-halfspace":
        return lambda pts: (np.atleast_2d(np.asarray(pts, float))[:, 0]
                            >= 0.0).astype(float)
    raise ConfigError(f"unknown boundary preset {name!r}; expected linear, "
                      "cone, or indicator-halfspace")


def boundary_function(cfg: RunConfig, n: int):
    if cfg.has("boundary.preset"):
        return _preset(cfg.text("boundary.preset"), n)
    if cfg.has("boundary.expr"):
        return compile_expression(cfg.text("boundary.expr"), n)
    raise ConfigError("missing key: boundary.expr (or boundary.preset)")


# -- shared builders ------------------------------------------------------------


def _shape(cfg: RunConfig):
    kind = cfg.text("domain.shape")
    if kind == "disk":
        center = cfg.point("domain.center", default=(0.0, 0.0))
        return Ball(tuple(center), cfg.num("domain.radius"))
    if kind == "box":
        lo = cfg.point("domain.lo")
        hi = cfg.point("domain.hi")
        return Box(tuple(lo), tuple(hi))
    raise ConfigError(f"unknown domain.shape {kind!r}; expected disk or box")


def _game(cfg: RunConfig) -> GameSpec:
    kind = cfg.text("game.kind")
    eps = cfg.num("game.epsilon")
    if kind not in KINDS:
        raise ConfigError(f"unknown game.kind {kind!r}")
    alpha = cfg.num("game.alpha", default=dict(HELD_ALPHA).get(kind))
    try:
        return GameSpec(kind, eps, alpha)
    except ValueError as exc:   # GameSpec checks epsilon before alpha
        key = "game.alpha" if 0 < eps < math.inf else "game.epsilon"
        raise ConfigError(f"key {key}: {exc}") from None


def _strategy(cfg: RunConfig, key: str, n: int):
    """The strategy named at key; a target point must have dimension n."""
    text = cfg.text(key)
    name, _, arg = text.partition(":")
    name = name.strip()
    if name not in ("stationary", "pull_toward", "pull_away"):
        raise ConfigError(f"key {key}: unknown strategy {name!r}")
    if name == "stationary":
        if arg.strip():
            raise ConfigError(f"key {key}: stationary takes no target: "
                              f"{arg!r}")
        return Stationary()
    if not arg:
        raise ConfigError(f"key {key}: {name} needs a target point")
    try:
        target = _parse_point(arg)
    except ValueError:
        raise ConfigError(f"key {key}: target is not a point: "
                          f"{arg!r}") from None
    if len(target) != n:
        raise ConfigError(f"key {key}: target has dimension {len(target)}, "
                          f"simulate.x0 has {n}")
    return PullToward(target) if name == "pull_toward" else PullAway(target)


def _comparison_params(cfg: RunConfig) -> ComparisonParams:
    """The mode's default schedule with the cmp.* keys the config gives."""
    given = {k: cfg.integer(f"cmp.{k}") if k == "N" else cfg.num(f"cmp.{k}")
             for k in ("delta", "C", "N", "epsilon", "theta")
             if cfg.has(f"cmp.{k}")}
    base = default_params(cfg.integer("cmp.n", default=2),
                          cfg.text("cmp.mode", default="desk"))
    return replace(base, **given)


def _write_artifact(cfg: RunConfig, seed: int, out: str, name: str,
                    payload: dict):
    """Write out/name, the payload with the resolved config and the seed,
    as strict JSON (`_json_text`: non-finite floats as strings)."""
    config = {**cfg.values, "seed": repr(seed), "out": out}
    with open(os.path.join(out, name), "w") as fh:
        fh.write(_json_text({**payload, "config": config, "seed": seed}))
        fh.write("\n")


def _float_cell(v: float) -> str:
    return repr(float(v))


# -- subcommand runners -----------------------------------------------------------


def _seed_of(cfg: RunConfig, override) -> int:
    if override is not None:
        return int(override)
    if cfg.command in ("simulate", "certify", "holder") or cfg.has("seed"):
        return cfg.integer("seed")
    return 0


def _solved(cfg: RunConfig):
    """(game, field, diagnostics): the config's grid game solved to its
    solve.tol and solve.max_iter."""
    shape = _shape(cfg)
    spec = _game(cfg)
    h = cfg.num("domain.spacing")
    F = boundary_function(cfg, shape.ndim)
    tol = cfg.num("solve.tol") if cfg.has("solve.tol") else None
    max_iter = cfg.integer("solve.max_iter", default=100_000)
    cfg.check_read()
    fld, diag = solve_dpp(build_grid_domain(shape, h, spec.epsilon), F, spec,
                          tol=tol, max_iter=max_iter)
    return spec, fld, diag


def _run_solve(cfg: RunConfig, seed: int, out: str):
    _, fld, diag = _solved(cfg)
    domain = fld.domain
    with open(os.path.join(out, "field.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i + 1}" for i in range(domain.ndim)] + ["value"])
        for p, v in zip(domain.points, fld.values):
            w.writerow([_float_cell(c) for c in p] + [_float_cell(v)])
    _write_artifact(cfg, seed, out, "diagnostics.json", {
        **diag.as_dict(), "n_interior": domain.n_interior,
        "n_strip": domain.n_strip})


def _run_simulate(cfg: RunConfig, seed: int, out: str):
    spec = _game(cfg)
    x0 = cfg.point("simulate.x0")
    episodes = cfg.integer("simulate.episodes")
    max_steps = cfg.integer("simulate.max_steps", default=10_000)
    shape = _shape(cfg)
    F = boundary_function(cfg, len(x0))
    grid = cfg.flag("simulate.grid")
    h = cfg.num("domain.spacing") if grid else None
    sI = sII = None
    if spec.players:
        sI = _strategy(cfg, "simulate.strategy_I", len(x0))
        sII = _strategy(cfg, "simulate.strategy_II", len(x0))
    log = cfg.flag("simulate.episode_csv")
    cfg.check_read()
    if grid:
        domain = build_grid_domain(shape, h, spec.epsilon)
        payoff = ValueField(domain, boundary_field(domain, F))
        where = domain
    else:
        payoff = F
        where = shape
    batch = play_episodes(spec, sI, sII, x0, where, payoff, episodes, seed,
                          max_steps=max_steps)
    mean, half, rate = batch.estimate()
    exited = batch.steps[~batch.truncated]
    if log:
        # the trace is episode 0 of the estimate above
        run_episode(spec, sI, sII, x0, where, payoff, substream(seed, 0),
                    max_steps=max_steps, log=os.path.join(out, "episodes.csv"))
    _write_artifact(cfg, seed, out, "outcome.json", {
        "mean": mean, "ci_half_width": half, "truncation_rate": rate,
        "episodes": episodes,
        # steps to exit over the episodes that exited; null if none did
        "exit_steps": {"mean": float(exited.mean()) if len(exited) else None,
                       "max": int(exited.max()) if len(exited) else None},
    })


def _run_certify(cfg: RunConfig, seed: int, out: str):
    params = _comparison_params(cfg)
    names = tuple(s.strip() for s in
                  cfg.text("certify.inequalities", default="I,II,III,T").split(","))
    bad = [s for s in names if s not in INEQUALITIES]
    if bad:
        raise ConfigError(f"certify.inequalities: unknown entries {bad}")
    samples = cfg.integer("certify.samples", default=1000)
    alpha = cfg.num("certify.alpha", default=0.5)
    cfg.check_read()
    reports = certify_region(params, names, n_samples=samples, seed=seed,
                             alpha=alpha)
    for rep in reports:
        _write_artifact(cfg, seed, out, f"certificate_{rep.inequality}.json",
                        rep.as_dict())


def _run_holder(cfg: RunConfig, seed: int, out: str):
    # every holder.* key is read before the solve, so a bad one costs none
    R = cfg.num("holder.R")
    center = cfg.point("holder.center", default=np.zeros(_shape(cfg).ndim))
    delta = cfg.num("holder.delta")
    pairs = cfg.integer("holder.pairs", default=2000)
    fit = cfg.text("holder.c_prime", default="fit") == "fit"
    c_prime = None if fit else cfg.num("holder.c_prime")
    spec, fld, _ = _solved(cfg)
    if fit:
        _, rep = _fitted_report(fld, delta, spec.epsilon, R, center, pairs,
                                seed)
    else:
        rep = holder_report(fld, delta, spec.epsilon, R, center, c_prime,
                            pairs, seed)
    payload = rep.as_dict()
    del payload["quotients"]
    _write_artifact(cfg, seed, out, "holder.json", payload)
    with open(os.path.join(out, "quotients.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dist", "absdiff", "quotient"])
        w.writerows(rep.quotients)   # Python floats, written by repr


def run_config(path: str, seed=None, out=None) -> int:
    """Execute one config file. Returns the process exit status."""
    try:
        cfg = parse_config(path)
        out_dir = out if out is not None else cfg.text("out", default="artifacts")
        the_seed = _seed_of(cfg, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
        runner = {"solve": _run_solve, "simulate": _run_simulate,
                  "certify": _run_certify, "holder": _run_holder}[cfg.command]
        runner(cfg, the_seed, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, KeyError, OSError, ArithmeticError,
            MemoryError) as exc:   # runtime failure: report, don't traceback-spam
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpplab",
        description="Game-step averaging operators: solve, simulate, "
                    "certify, and smoothness reports from one config file.")
    sub = parser.add_subparsers(dest="verb", required=True)
    runp = sub.add_parser("run", help="execute a config file")
    runp.add_argument("config", help="path to a key = value config")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config's seed")
    runp.add_argument("--out", default=None,
                      help="override the output directory")
    args = parser.parse_args(argv)
    return run_config(args.config, seed=args.seed, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
