"""dpplab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid_solve --seed 1 --seconds 20 --trace 0

Run from the root of a dpplab checkout; the package is imported from its
``src`` directory, never from an installed copy. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (the traced run also writes its spans
to perfbench/out/). Lines before it give the machine record and a readable
summary.
"""

from __future__ import annotations

import os

# Single-threaded numeric libraries, fixed before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine_record() -> dict:
    import numpy as np

    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{idx}/level")
        kind = _read(f"{base}/{idx}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/{idx}/size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "l2": caches.get("L2", "unknown"), "l3": caches.get("L3", "unknown"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ[v] for v in THREAD_VARS}}


def declared_metrics(trace: bool) -> dict:
    """name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dpplab" / "__init__.py").is_file():
        print(f"no dpplab sources under {SRC}; run from a dpplab checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import dpplab

    if Path(dpplab.__file__).resolve().parent != SRC / "dpplab":
        print(f"imported dpplab from {dpplab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench.runner import run
    from perfbench.workloads import FULL, WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    ctx = Context(seed=args.seed, sizes=FULL,
                  workdir=out_dir / f"work-{args.workload}-{os.getpid()}")
    ctx.workdir.mkdir()
    try:
        metrics, attempted, failed, phases = run(
            WORKLOADS[args.workload], ctx, args.seconds, bool(args.trace),
            out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    return report(args, units, metrics, attempted, failed, phases)


def report(args, units, metrics, attempted, failed, phases) -> int:
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    if set(metrics) != set(units):
        print(f"metric names differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 1
    shown = {k: metrics[k] for k in ("wall_s", "setup_s", "peak_rss_mb")
             if k in metrics}
    shown.update({f"{p}_s": v for p, v in sorted(phases.items())})
    line = " | ".join(f"{k} {v:.4g} {units.get(k, 's')}" for k, v in shown.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {line} | "
          f"ops {attempted} | ops_failed {failed}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
