"""Every workload at toy sizes: the printed result line carries exactly the
metric names of BENCHMARK.json, and a wrong output is counted as failed."""

import argparse
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import dpplab
import dpplab.cli
import dpplab.simulate
import dpplab.solver
from perfbench import run as entry
from perfbench.runner import run
from perfbench.trace import per_call
from perfbench.workloads import TOY, WORKLOADS, Context

ROOT = entry.ROOT


def result_line(name, trace, tmp_path, capsys):
    ctx = Context(seed=5, sizes=TOY, workdir=tmp_path / "work")
    ctx.workdir.mkdir()
    metrics, attempted, failed, phases = run(
        WORKLOADS[name], ctx, 0, trace, tmp_path / "spans.json")
    args = argparse.Namespace(workload=name, seed=5, trace=int(trace))
    code = entry.report(args, entry.declared_metrics(trace), metrics,
                        attempted, failed, phases)
    assert code == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_prints_declared_metrics(name, trace, tmp_path, capsys):
    out = result_line(name, trace, tmp_path, capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert (tmp_path / "spans.json").is_file()


def _corrupt_solve(monkeypatch):
    solve = dpplab.solver.solve_dpp

    def wrong(*args, **kwargs):
        fld, diag = solve(*args, **kwargs)
        fld.values[fld.domain.interior_indices[0]] += 0.5
        return fld, diag

    for mod in (dpplab, dpplab.solver, dpplab.cli):
        monkeypatch.setattr(mod, "solve_dpp", wrong)


def _corrupt_estimate(monkeypatch):
    estimate = dpplab.simulate.estimate_value

    def wrong(*args, **kwargs):
        mean, half, rate = estimate(*args, **kwargs)
        return mean + 1.0, half, rate

    monkeypatch.setattr(dpplab, "estimate_value", wrong)


def _corrupt_cli(monkeypatch):
    monkeypatch.setattr(dpplab.cli, "run_config", lambda *a, **k: 1)


@pytest.mark.parametrize("name, corrupt", [
    ("grid_solve", _corrupt_solve), ("mc_play", _corrupt_estimate),
    ("cli_demos", _corrupt_cli)])
def test_wrong_output_counts_as_failed(name, corrupt, monkeypatch, tmp_path):
    corrupt(monkeypatch)
    ctx = Context(seed=5, sizes=TOY, workdir=tmp_path)
    _, attempted, failed, _ = run(WORKLOADS[name], ctx, 0, False)
    assert 1 <= failed <= attempted


def test_tail_is_eleventh_largest():
    p50, tail, n = per_call(np.arange(100.0), 2.0)
    assert (p50, tail, n) == (99.0, 178.0, 100)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
