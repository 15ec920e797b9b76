"""Shared pytest plumbing: acceptance lines echoed into the terminal summary,
and CLI runs in child processes."""

import os
import subprocess
import sys

import pytest

import dpplab

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Record one PASS/FAIL line for an acceptance check, then enforce it.

    The line is printed immediately (visible with -s, and in the captured
    output of a failing test) and repeated in the terminal summary so a
    plain `pytest -q` run still shows one line per acceptance item.
    """

    def record(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {num} ({name}): {status}"
        if detail:
            line += f" - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


def _run_python(*args, threads=None, **kw):
    """Run `python ARGS...` in a child process that imports this dpplab.

    With `threads`, the numeric-library thread variables are set in the
    child's environment, so they are in place before numpy loads and really
    size its thread pool.
    """
    env = dict(os.environ)
    if threads is not None:
        env.update({var: str(threads) for var in THREAD_VARS})
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpplab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kw)


@pytest.fixture
def run_python():
    """`python ARGS...` in a child process (see `_run_python`)."""
    return _run_python


@pytest.fixture
def run_cli():
    """Run `python -m dpplab run CONFIG --out artifacts ...` in a child
    process with `threads` numeric-library threads."""

    def run(config, workdir, threads: int, *extra):
        return _run_python("-m", "dpplab", "run", str(config),
                           "--out", "artifacts", *extra,
                           threads=threads, cwd=workdir)

    return run


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance summary")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line("  " + line)
