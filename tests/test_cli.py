"""End-to-end runs of the config-driven entry point."""

import csv
import json
import hashlib
import math
import os

import numpy as np
import pytest

from dpplab.cli import ConfigError, compile_expression, main, parse_config, run_config
from dpplab.core import Ball, build_grid_domain
from dpplab.operators import GameSpec
from dpplab.rng import substream
from dpplab.simulate import PullAway, PullToward, play_episodes, run_episode
from dpplab.solver import solve_dpp


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


SOLVE_CFG = """
# smallest useful solve
command = solve
domain.shape = disk
domain.radius = 0.5
domain.spacing = 0.05
game.kind = random_walk
game.epsilon = 0.3
boundary.expr = y1
"""


def test_solve_smoke(tmp_path, capsys):
    cfg = _write(tmp_path, SOLVE_CFG)
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    diag = _read_json(os.path.join(out, "diagnostics.json"))
    assert diag["converged"] is True
    assert diag["final_residual"] <= diag["tol"]
    assert diag["tail_error"] <= diag["tol"]
    assert diag["config"]["command"] == "solve"
    assert diag["seed"] == 0
    with open(os.path.join(out, "field.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "value"]
    assert len(rows) - 1 == diag["n_interior"] + diag["n_strip"]
    # strip rows carry the boundary data exactly
    vals = {(float(r[0]), float(r[1])): float(r[2]) for r in rows[1:]}
    for (x1, x2), v in vals.items():
        if x1 * x1 + x2 * x2 >= 0.25:
            assert v == x1


def test_missing_key_names_it(tmp_path, capsys):
    cfg = _write(tmp_path, SOLVE_CFG.replace("game.epsilon = 0.3\n", ""))
    assert run_config(cfg, out=str(tmp_path / "a")) == 2
    assert "game.epsilon" in capsys.readouterr().err


def test_bad_expression_is_schema_error(tmp_path, capsys):
    cfg = _write(tmp_path, SOLVE_CFG.replace(
        "boundary.expr = y1", "boundary.expr = y1 + open('x')"))
    assert run_config(cfg, out=str(tmp_path / "a")) == 2
    assert "unsupported" in capsys.readouterr().err


def test_parse_errors(tmp_path):
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config(_write(tmp_path, "command = solve\nnonsense line\n"))
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(_write(tmp_path, "command = solve\ncommand = solve\n"))
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config(_write(tmp_path, "command = dance\n"))
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "missing.cfg"))


def test_runtime_failure_is_status_one(tmp_path, capsys):
    # spacing too coarse for the step size: library-level ValueError
    cfg = _write(tmp_path, SOLVE_CFG.replace("game.epsilon = 0.3",
                                             "game.epsilon = 0.15"))
    assert run_config(cfg, out=str(tmp_path / "a")) == 1
    assert "run failed" in capsys.readouterr().err


def test_expression_grammar():
    fn = compile_expression("abs(y1) + 0.5*y2**2 - sqrt(abs(y2))", 2)
    pts = np.array([[1.0, 4.0], [-2.0, 0.25]])
    want = np.abs(pts[:, 0]) + 0.5 * pts[:, 1] ** 2 - np.sqrt(np.abs(pts[:, 1]))
    assert np.allclose(fn(pts), want, atol=1e-15)
    assert compile_expression("3.5", 2)(pts).tolist() == [3.5, 3.5]
    with pytest.raises(ConfigError, match="bad expression"):
        compile_expression("y1 +", 2)
    with pytest.raises(ConfigError, match="unsupported"):
        compile_expression("y3", 2)
    with pytest.raises(ConfigError, match="unsupported"):
        compile_expression("__import__('os')", 2)


def test_expression_rejects_bool_constants():
    # True and False pass an isinstance check for int; the grammar has
    # numbers only
    for text in ("y1 * True + False", "True", "-False"):
        with pytest.raises(ConfigError, match="unsupported"):
            compile_expression(text, 2)


def test_boundary_presets(tmp_path):
    for preset in ("linear", "cone", "indicator-halfspace"):
        cfg = _write(tmp_path, SOLVE_CFG.replace(
            "boundary.expr = y1", f"boundary.preset = {preset}"), f"{preset}.cfg")
        out = str(tmp_path / f"art_{preset}")
        assert run_config(cfg, out=out) == 0
        diag = _read_json(os.path.join(out, "diagnostics.json"))
        assert diag["converged"] is True


def test_unknown_preset(tmp_path, capsys):
    cfg = _write(tmp_path, SOLVE_CFG.replace("boundary.expr = y1",
                                             "boundary.preset = ramp"))
    assert run_config(cfg, out=str(tmp_path / "a")) == 2
    assert "preset" in capsys.readouterr().err


SIM_CFG = """
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
seed = 9
"""


def test_simulate_artifacts(tmp_path):
    cfg = _write(tmp_path, SIM_CFG + "simulate.episode_csv = true\n")
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    outcome = _read_json(os.path.join(out, "outcome.json"))
    assert outcome["episodes"] == 30
    assert outcome["seed"] == 9
    assert 0.0 <= outcome["truncation_rate"] <= 1.0
    assert isinstance(outcome["mean"], float)
    with open(os.path.join(out, "episodes.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "step,mover,branch,x1,x2"
    assert len(rows) >= 3


@pytest.mark.parametrize("target,message", [
    ("two, 0.0", "simulate.strategy_I: target is not a point: ' two, 0.0'"),
    ("1.0, 0.0, 0.0", "simulate.strategy_I: target has dimension 3, "
                      "simulate.x0 has 2"),
], ids=["malformed", "wrong-dimension"])
def test_bad_strategy_target_is_schema_error(tmp_path, capsys, target,
                                              message):
    text = SIM_CFG.replace("pull_toward: 2.0, 0.0", f"pull_toward: {target}")
    assert run_config(_write(tmp_path, text), out=str(tmp_path / "a")) == 2
    assert f"config error: key {message}" in capsys.readouterr().err


def test_trailing_text_after_stationary_is_schema_error(tmp_path, capsys):
    text = SIM_CFG.replace("pull_toward: 2.0, 0.0", "stationary: 9, 9, 9")
    assert run_config(_write(tmp_path, text), out=str(tmp_path / "a")) == 2
    assert ("config error: key simulate.strategy_I: stationary takes no "
            "target: ' 9, 9, 9'") in capsys.readouterr().err


def test_unknown_strategy_is_named_before_its_target(tmp_path, capsys):
    # without a colon the whole text is the name, so the fault is the name,
    # not a missing target
    text = SIM_CFG.replace("pull_toward: 0.0, 0.0", "stationary 9")
    assert run_config(_write(tmp_path, text), out=str(tmp_path / "a")) == 2
    err = capsys.readouterr().err
    assert ("config error: key simulate.strategy_II: unknown strategy "
            "'stationary 9'") in err
    assert "needs a target" not in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_non_finite_epsilon_is_schema_error(tmp_path, capsys, eps):
    # a nan or inf step would otherwise play every episode to truncation
    # and write "nan" statistics; the message names game.epsilon, not
    # game.alpha, for both
    for kind in ("tug_of_war", "space_dependent\ngame.alpha = 0.5"):
        text = SIM_CFG.replace("game.epsilon = 0.2", f"game.epsilon = {eps}")
        text = text.replace("game.kind = tug_of_war", f"game.kind = {kind}")
        out = str(tmp_path / kind[:3])
        assert run_config(_write(tmp_path, text), out=out) == 2
        assert ("config error: key game.epsilon: epsilon must be positive "
                "and finite") in capsys.readouterr().err


def test_episode_trace_is_episode_zero_of_the_estimate(tmp_path):
    # opposed pulls, so each episode's path depends on its coin flips
    text = SIM_CFG.replace("pull_toward: 0.0, 0.0", "pull_toward: -2.0, 0.0")
    cfg = _write(tmp_path, text + "simulate.episode_csv = true\n")
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    with open(os.path.join(out, "episodes.csv")) as fh:
        last = list(csv.reader(fh))[-1]
    cone = lambda P: np.linalg.norm(np.atleast_2d(P), axis=1)
    first = run_episode(GameSpec.tug_of_war(0.2), PullToward((2.0, 0.0)),
                        PullToward((-2.0, 0.0)), (0.5, 0.0),
                        Ball(center=(0.0, 0.0), radius=1.0), cone,
                        substream(9, 0), max_steps=200)
    assert not first.truncated
    assert int(last[0]) == first.steps
    assert [float(v) for v in last[3:]] == first.exit_point.tolist()


def test_outcome_reports_exit_steps(tmp_path):
    # opposed pulls, with a step cap that truncates some episodes: the
    # statistics cover the episodes that exited, from the estimate's batch
    text = SIM_CFG.replace("pull_toward: 0.0, 0.0", "pull_toward: -2.0, 0.0")
    text = text.replace("max_steps = 200", "max_steps = 12")
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    outcome = _read_json(os.path.join(out, "outcome.json"))
    cone = lambda P: np.linalg.norm(np.atleast_2d(P), axis=1)
    batch = play_episodes(GameSpec.tug_of_war(0.2), PullToward((2.0, 0.0)),
                          PullToward((-2.0, 0.0)), (0.5, 0.0),
                          Ball(center=(0.0, 0.0), radius=1.0), cone,
                          episodes=30, seed=9, max_steps=12)
    exited = batch.steps[~batch.truncated]
    assert 0 < len(exited) < 30
    assert outcome["truncation_rate"] == (30 - len(exited)) / 30
    assert outcome["exit_steps"] == {"mean": float(exited.mean()),
                                     "max": int(exited.max())}
    assert outcome["exit_steps"]["max"] <= 12


def test_simulate_requires_seed(tmp_path, capsys):
    cfg = _write(tmp_path, SIM_CFG.replace("seed = 9\n", ""))
    assert run_config(cfg, out=str(tmp_path / "a")) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_grid_random_walk(tmp_path):
    text = """
command = simulate
domain.shape = box
domain.lo = 0.0, 0.0
domain.hi = 1.0, 1.0
domain.spacing = 0.05
game.kind = random_walk
game.epsilon = 0.3
boundary.preset = linear
simulate.x0 = 0.5, 0.5
simulate.episodes = 40
simulate.grid = true
seed = 3
"""
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    outcome = _read_json(os.path.join(out, "outcome.json"))
    assert outcome["truncation_rate"] == 0.0
    assert 0.0 <= outcome["mean"] <= 1.0


CERT_CFG = """
command = certify
cmp.n = 2
cmp.delta = 0.2
cmp.C = 1.5
cmp.N = 40
cmp.epsilon = 0.05
certify.inequalities = I
certify.samples = 123
seed = 5
"""


def test_certify_negative_control_artifact(tmp_path):
    cfg = _write(tmp_path, CERT_CFG)
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    rep = _read_json(os.path.join(out, "certificate_I.json"))
    assert rep["min_margin"] < 0
    assert any(row["margin"] < 0 for row in rep["samples"])
    assert rep["config"]["cmp.C"] == "1.5"


def test_certify_rejects_unknown_inequality(tmp_path, capsys):
    cfg = _write(tmp_path, CERT_CFG.replace("= I", "= I, Q"))
    assert run_config(cfg, out=str(tmp_path / "a")) == 2
    assert "Q" in capsys.readouterr().err


def test_certify_theta_alone_is_applied(tmp_path):
    cfg = _write(tmp_path, "command = certify\ncmp.theta = 0.3\n"
                           "certify.inequalities = I\ncertify.samples = 20\n"
                           "seed = 5\n")
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    params = _read_json(os.path.join(out, "certificate_I.json"))["params"]
    assert params["theta"] == 0.3 and params["C"] == 250.0


def test_certify_alpha_is_read_with_T(tmp_path):
    text = CERT_CFG.replace("= I", "= I, T").replace("= 123", "= 20")
    out = str(tmp_path / "art")
    assert run_config(_write(tmp_path, text + "certify.alpha = 0.3\n"),
                      out=out) == 0
    settings = _read_json(os.path.join(out, "certificate_T.json"))["settings"]
    assert settings["alpha"] == 0.3


def test_certify_strict_override_keeps_omega(tmp_path):
    cfg = _write(tmp_path, "command = certify\ncmp.mode = strict\n"
                           "cmp.epsilon = 0.002\ncertify.inequalities = I\n"
                           "certify.samples = 20\nseed = 5\n")
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    params = _read_json(os.path.join(out, "certificate_I.json"))["params"]
    assert params["mode"] == "strict" and params["epsilon"] == 0.002
    assert params["omega"] == 1.0 / 40


@pytest.mark.parametrize("cfg_text", [
    SOLVE_CFG + "seed = 1e400\n",
    CERT_CFG.replace("certify.samples = 123", "certify.samples = inf"),
    CERT_CFG.replace("certify.samples = 123", "certify.samples = nan"),
], ids=["seed-overflow", "samples-inf", "samples-nan"])
def test_non_finite_integer_is_schema_error(tmp_path, capsys, cfg_text):
    assert run_config(_write(tmp_path, cfg_text), out=str(tmp_path / "a")) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_programming_error_propagates(tmp_path, monkeypatch):
    def broken(cfg, seed, out):
        raise AttributeError("no such attribute")

    monkeypatch.setattr("dpplab.cli._run_solve", broken)
    with pytest.raises(AttributeError, match="no such attribute"):
        run_config(_write(tmp_path, SOLVE_CFG), out=str(tmp_path / "a"))


HOLDER_CFG = """
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
"""


def test_holder_artifacts(tmp_path):
    cfg = _write(tmp_path, HOLDER_CFG)
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    rep = _read_json(os.path.join(out, "holder.json"))
    assert rep["pair_count"] == 150
    assert rep["seed"] == 7
    assert "quotients" not in rep
    with open(os.path.join(out, "quotients.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dist", "absdiff", "quotient"]
    assert len(rows) - 1 == 150
    # K is the max quotient column
    assert rep["K"] == max(float(r[2]) for r in rows[1:])


def _hash_dir(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("text,extra", [
    (SOLVE_CFG, ["--seed", "4"]),
    (SIM_CFG, []),
    (CERT_CFG, []),
    (HOLDER_CFG, []),
], ids=["solve", "simulate", "certify", "holder"])
def test_artifacts_reproducible_across_threads(tmp_path, run_cli, text, extra):
    cfg = _write(tmp_path, text)
    hashes = []
    for run, threads in (("a", 1), ("b", 4)):
        workdir = tmp_path / run
        workdir.mkdir()
        proc = run_cli(cfg, workdir, threads, *extra)
        assert proc.returncode == 0, proc.stderr
        hashes.append(_hash_dir(str(workdir / "artifacts")))
    assert hashes[0] == hashes[1]


def test_simulate_demo_plays_a_game(tmp_path):
    # the two players pull in opposite directions, so episodes differ; equal
    # episodes leave a half-width of float dust (~1e-16 of the mean)
    cfg = os.path.join(os.path.dirname(__file__), "..", "demos", "configs",
                       "simulate_pull.cfg")
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    outcome = _read_json(os.path.join(out, "outcome.json"))
    assert outcome["ci_half_width"] > 1e-6 * abs(outcome["mean"])


def test_solve_demo_reports_contraction(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), "..", "demos", "configs",
                       "solve_disk.cfg")
    out = str(tmp_path / "art")
    assert run_config(cfg, out=out) == 0
    diag = _read_json(os.path.join(out, "diagnostics.json"))
    history = diag["residual_history"]
    assert len(history) == diag["iterations"]
    assert history[-1] == diag["final_residual"]
    assert 0.0 < diag["contraction"] < 1.0


def test_threads_flag_is_gone(tmp_path):
    # thread counts are set in the environment before numpy loads; a flag
    # parsed after the import could never size the pool
    with pytest.raises(SystemExit):
        main(["run", _write(tmp_path, SOLVE_CFG), "--threads", "2"])


def test_seed_override_lands_in_artifacts(tmp_path):
    cfg = _write(tmp_path, CERT_CFG)
    out = str(tmp_path / "art")
    assert main(["run", cfg, "--seed", "21", "--out", out]) == 0
    rep = _read_json(os.path.join(out, "certificate_I.json"))
    assert rep["config"]["seed"] == "21"


def _strict_json(path):
    """The JSON at path, parsed with NaN and Infinity refused."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def _demo_config(tmp_path, name, overrides):
    """A copy of demos/configs/<name>.cfg with the keys of overrides set."""
    over = dict(overrides)
    lines = []
    with open(os.path.join(os.path.dirname(__file__), "..", "demos",
                           "configs", f"{name}.cfg")) as fh:
        for line in fh:
            key = line.split("#", 1)[0].partition("=")[0].strip()
            lines.append(f"{key} = {over.pop(key)}\n" if key in over else line)
    lines += [f"{k} = {v}\n" for k, v in over.items()]
    return _write(tmp_path, "".join(lines), f"{name}.cfg")


@pytest.mark.parametrize("name, overrides", [
    ("certify_desk", {"certify.samples": "4"}),
    ("holder_tug", {"holder.pairs": "200", "domain.spacing": "0.08",
                    "game.epsilon": "0.24"}),
    ("simulate_pull", {"simulate.episodes": "10"}),
    ("solve_disk", {}),
    ("solve_disk", {"game.kind": "tug_of_war", "solve.max_iter": "3"}),
], ids=["certify", "holder", "simulate", "solve", "unconverged"])
def test_every_json_artifact_is_strict_json(tmp_path, name, overrides):
    # the demo configs at small sizes, and a solve stopped before it
    # converges, whose contraction and tail bound are infinite
    out = str(tmp_path / "art")
    assert run_config(_demo_config(tmp_path, name, overrides), out=out) == 0
    paths = sorted(os.path.join(out, f) for f in os.listdir(out)
                   if f.endswith(".json"))
    assert paths
    for path in paths:
        payload = _strict_json(path)
        assert payload["config"]["out"] == out and "seed" in payload, path
    if "solve.max_iter" in overrides:
        diag = _strict_json(os.path.join(out, "diagnostics.json"))
        assert diag["converged"] is False and diag["iterations"] == 3
        assert diag["tail_error"] == diag["contraction"] == "inf"


# -- strategies, game kinds and holder keys read through the config ----------


def test_stationary_players_truncate_every_episode(tmp_path):
    # a tug-of-war token whose two players both stay put never moves
    text = SIM_CFG.replace("pull_toward: 2.0, 0.0", "stationary")
    text = text.replace("pull_toward: 0.0, 0.0", "stationary")
    out = str(tmp_path / "art")
    assert run_config(_write(tmp_path, text), out=out) == 0
    outcome = _strict_json(os.path.join(out, "outcome.json"))
    assert outcome["truncation_rate"] == 1.0
    assert outcome["mean"] == outcome["ci_half_width"] == "nan"
    assert outcome["exit_steps"] == {"mean": None, "max": None}


def test_pull_away_is_the_library_strategy(tmp_path):
    text = SIM_CFG.replace("pull_toward: 0.0, 0.0", "pull_away: 0.0, 0.0")
    out = str(tmp_path / "art")
    assert run_config(_write(tmp_path, text), out=out) == 0
    outcome = _read_json(os.path.join(out, "outcome.json"))
    cone = lambda P: np.linalg.norm(np.atleast_2d(P), axis=1)
    mean, half, rate = play_episodes(
        GameSpec.tug_of_war(0.2), PullToward((2.0, 0.0)), PullAway((0.0, 0.0)),
        (0.5, 0.0), Ball(center=(0.0, 0.0), radius=1.0), cone, episodes=30,
        seed=9, max_steps=200).estimate()
    assert rate == 0.0
    assert (outcome["mean"], outcome["ci_half_width"],
            outcome["truncation_rate"]) == (mean, half, rate)


def test_directional_solve_is_the_library_solve(tmp_path):
    text = SOLVE_CFG.replace("game.kind = random_walk",
                             "game.kind = directional\ngame.alpha = 0.5")
    out = str(tmp_path / "art")
    assert run_config(_write(tmp_path, text), out=out) == 0
    with open(os.path.join(out, "field.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    domain = build_grid_domain(Ball(center=(0.0, 0.0), radius=0.5), 0.05, 0.3)
    fld, diag = solve_dpp(domain, lambda P: P[:, 0],
                          GameSpec.directional(0.3, 0.5))
    assert [float(r[2]) for r in rows] == fld.values.tolist()
    assert _read_json(os.path.join(out, "diagnostics.json"))["iterations"] \
        == diag.iterations


@pytest.mark.parametrize("edit, code, message", [
    (("game.kind = random_walk", "game.kind = chess"), 2,
     "unknown game.kind 'chess'"),
    (("game.kind = random_walk", "game.kind = space_dependent"), 2,
     "missing key: game.alpha"),
    (("game.kind = random_walk", "game.kind = tug_of_war\ngame.alpha = abc"),
     2, "config error: key game.alpha is not a number: 'abc'"),
    (("game.kind = random_walk",
      "game.kind = space_dependent\ngame.alpha = 1.5"), 2,
     "config error: key game.alpha: alpha must lie in [0, 1]"),
    (("game.kind = random_walk", "game.kind = tug_of_war\ngame.alpha = 1"),
     0, ""),
    (("game.kind = random_walk", "game.kind = tug_of_war\ngame.alpha = 0.3"),
     2, "config error: key game.alpha: tug_of_war holds alpha = 1.0, got 0.3"),
], ids=["unknown-kind", "mixed-needs-alpha", "tug-alpha-not-a-number",
        "alpha-out-of-range", "tug-alpha-held", "tug-alpha-not-held"])
def test_game_alpha_is_read_for_the_kinds_that_take_one(tmp_path, capsys, edit,
                                                         code, message):
    text = SOLVE_CFG.replace(*edit)
    assert run_config(_write(tmp_path, text), out=str(tmp_path / "a")) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    (SOLVE_CFG + "solve.tols = 1e-3\n",
     "key solve.tols is not read by the solve command"),
    (SIM_CFG.replace("game.kind = tug_of_war", "game.kind = random_walk"),
     "key simulate.strategy_I is not read by the simulate command"),
    (CERT_CFG + "holder.R = 0.3\n",
     "key holder.R is not read by the certify command"),
    (SIM_CFG + "simulate.episode_csv = maybe\n",
     "key simulate.episode_csv is not a boolean: 'maybe'"),
    (CERT_CFG + "certify.alpha = 0.3\n",
     "key certify.alpha is not read by the certify command"),
], ids=["solve-typo", "walk-strategy", "certify-holder-key",
        "bad-episode-csv", "certify-alpha-without-T"])
def test_a_key_no_read_takes_is_refused_before_the_work(tmp_path, capsys,
                                                         text, message):
    out = tmp_path / "art"
    assert run_config(_write(tmp_path, text), out=str(out)) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_mixed_game_trace_labels_noise_and_player_steps(tmp_path):
    # opposed pulls keep the token in play; a player's pull moves it a full
    # eps, the noise move strictly less
    text = SIM_CFG.replace("game.kind = tug_of_war",
                           "game.kind = space_dependent\ngame.alpha = 0.5")
    text = text.replace("pull_toward: 0.0, 0.0", "pull_toward: -2.0, 0.0")
    out = str(tmp_path / "art")
    cfg = _write(tmp_path, text + "simulate.episode_csv = true\n")
    assert run_config(cfg, out=out) == 0
    with open(os.path.join(out, "episodes.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert (rows[0]["mover"], rows[0]["branch"]) == ("none", "start")
    steps = rows[1:]
    assert {(r["mover"], r["branch"]) for r in steps} == \
        {("none", "noise"), ("I", "player"), ("II", "player")}
    for before, r in zip(rows, steps):
        d = math.dist([float(before["x1"]), float(before["x2"])],
                      [float(r["x1"]), float(r["x2"])])
        if r["branch"] == "player":
            assert d == pytest.approx(0.2, rel=1e-12)
        else:
            assert d < 0.2


@pytest.mark.parametrize("edit, message", [
    (("", "holder.c_prime = abc\n"),
     "key holder.c_prime is not a number: 'abc'"),
    (("holder.R = 0.2", "holder.R = wide"),
     "key holder.R is not a number: 'wide'"),
    (("holder.pairs = 150", "holder.pairs = 1.5"),
     "key holder.pairs must be an integer"),
    (("", "holder.center = 0.0, x\n"),
     "key holder.center is not a point: '0.0, x'"),
], ids=["c_prime", "R", "pairs", "center"])
def test_bad_holder_key_is_schema_error_before_the_solve(tmp_path, capsys,
                                                         monkeypatch, edit,
                                                         message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the holder keys were read")

    monkeypatch.setattr("dpplab.cli.solve_dpp", no_solve)
    old, new = edit
    text = HOLDER_CFG.replace(old, new) if old else HOLDER_CFG + new
    assert run_config(_write(tmp_path, text), out=str(tmp_path / "a")) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_holder_with_a_given_c_prime(tmp_path):
    out = str(tmp_path / "art")
    cfg = _write(tmp_path, HOLDER_CFG + "holder.c_prime = 0.7\n")
    assert run_config(cfg, out=out) == 0
    rep = _read_json(os.path.join(out, "holder.json"))
    assert rep["c_prime"] == 0.7
    with open(os.path.join(out, "quotients.csv")) as fh:
        dist, absdiff, quot = np.array(list(csv.reader(fh))[1:], float).T
    # K's quotient at eps 0.3, R 0.2, delta 0.5
    want = (absdiff / rep["osc"] - 0.7 * (0.3 / 0.2)**0.5) / (dist / 0.2)**0.5
    assert quot == pytest.approx(want, rel=1e-12)
    assert rep["K"] == quot.max()


def test_diagnostics_artifact_holds_every_solve_diagnostic(tmp_path):
    from dataclasses import fields

    from dpplab.solver import SolveDiagnostics

    out = str(tmp_path / "art")
    assert run_config(_write(tmp_path, SOLVE_CFG), out=out) == 0
    diag = _read_json(os.path.join(out, "diagnostics.json"))
    missing = {f.name for f in fields(SolveDiagnostics)} - set(diag)
    assert missing == set()
    assert diag["cycles"] == 0   # too small a disk for the V-cycle


@pytest.mark.parametrize("text, message", [
    (SOLVE_CFG + " = 3\n", "empty key"),
    (SOLVE_CFG.replace("command = solve\n", ""), "missing key: command"),
    (SOLVE_CFG.replace("boundary.expr = y1\n", ""),
     "missing key: boundary.expr"),
    (SOLVE_CFG.replace("domain.shape = disk", "domain.shape = torus"),
     "unknown domain.shape 'torus'"),
    (SIM_CFG.replace("pull_toward: 0.0, 0.0", "pull_toward"),
     "key simulate.strategy_II: pull_toward needs a target point"),
], ids=["empty-key", "no-command", "no-boundary", "unknown-shape",
        "no-target"])
def test_config_faults_exit_2_and_name_the_key(tmp_path, capsys, text, message):
    assert run_config(_write(tmp_path, text), out=str(tmp_path / "a")) == 2
    assert message in capsys.readouterr().err


def test_unary_plus_passes_its_operand_through():
    f = compile_expression("+y1 - +(-y2)", 2)
    pts = np.array([[0.5, -0.25], [-1.0, 2.0]])
    assert f(pts).tolist() == [0.25, 1.0]
