"""Demo scripts and README's Quick start run end to end in a child process."""

import os
import subprocess
import sys
from pathlib import Path

import dpplab

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _run_demo(name, *args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpplab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(DEMOS / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_readme_quick_start_prints_its_commented_line(run_python):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [ln[2:] for ln in code.splitlines() if ln.startswith("# ")]
    assert expected == ["u(0,0) = 0.5704 after 83 sweeps"]
    proc = run_python("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected, proc.stdout


def test_solve_four_games_prints_one_row_per_game():
    proc = _run_demo("solve_four_games.py", "--epsilon", "0.3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for game in ("tug_of_war", "random_walk", "mixed p=4", "directional"):
        rows = [ln.split() for ln in lines if ln.startswith(game)]
        assert len(rows) == 1, (game, proc.stdout)
        value, iters, res = rows[0][-3:]
        assert float(value) >= 0.0 and int(iters) >= 1 and float(res) >= 0.0


def test_desk_parameter_search_reports_each_inequality():
    proc = _run_demo("desk_parameter_search.py", "--samples", "4")
    assert proc.returncode == 0, proc.stderr
    rows = [ln.split() for ln in proc.stdout.splitlines()
            if ln.strip().startswith("inequality ")]
    assert [r[1].rstrip(":") for r in rows] == ["I", "II", "III", "T"], proc.stdout
    for r in rows:
        assert r[2:4] == ["min", "margin"] and r[-1] == "pairs"
        assert r[-2] == "4"


def test_build_scaling_prints_one_row_per_rung():
    proc = _run_demo("build_scaling.py", "--no-ladder", "--epsilon", "0.6",
                     "--epsilon", "0.45", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    head, *rows = [ln.split() for ln in proc.stdout.splitlines()]
    assert head == ["n", "eps", "points", "interior", "S", "build_s",
                    "peak_MB", "kept_MB"]
    assert [r[:2] for r in rows] == [["2", "0.600"], ["2", "0.450"],
                                     ["3", "0.600"], ["3", "0.450"]]
    for r in rows:
        points, interior, S = map(int, r[2:5])
        seconds, peak, kept = map(float, r[5:])
        assert points > interior > 0 and S > 1
        assert seconds > 0.0 and peak >= kept > 0.0


def test_margin_timing_prints_ms_per_pair_for_each_inequality():
    proc = _run_demo("margin_timing.py", "--pairs", "2", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    head, *rows = [ln.split() for ln in proc.stdout.splitlines()]
    assert head == ["n", "pairs", "shared", "I", "II", "III", "T", "(ms",
                    "per", "pair)"]
    assert [r[:2] for r in rows] == [["2", "2"], ["3", "2"]]
    for r in rows:
        assert all(float(v) >= 0.0 for v in r[2:])


def test_play_timing_prints_one_row_per_mode():
    proc = _run_demo("play_timing.py", "--episodes", "4", "--repeats", "1",
                     "--eps", "0.3")
    assert proc.returncode == 0, proc.stderr
    head, *rows = [ln.split() for ln in proc.stdout.splitlines()]
    assert head == ["mode", "episodes", "lockstep", "us/episode",
                    "lockstep/s"]
    assert [r[:2] for r in rows] == [
        ["grid_greedy", "4"], ["grid_walk", "4"], ["continuum_walk", "4"],
        ["continuum_directional", "4"]]
    for r in rows:
        assert int(r[2]) >= 1 and float(r[3]) > 0.0 and float(r[4]) > 0.0
