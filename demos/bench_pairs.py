"""Alternating-pairs benchmark of this checkout against a parent revision.

Exports the parent with `git archive REV | tar -x` into a temporary
directory (removed at the end) and runs the unmodified
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in
both trees: each pair runs one seed on both sides, the parent first in
even pairs (counting from 0) and this checkout first in odd ones. Each
run's last line of standard output is its JSON result. Writes
BENCH_<pr>.json at the root of this checkout: the machine line, every run
(side, order, seed, exit code, attempted and failed operations, metrics),
and per workload and end-to-end metric of BENCHMARK.json the medians,
IQRs, wins and a verdict:

- gain: at least 9 wins in 10 pairs and a median gap wider than the
  parent's IQR;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
- unresolved: the parent's IQR is wider than the bound, and not every
  change run beats every parent run;
- ok: none of these.

A workload whose change side fails a larger share of its operations (a run
that exits non-zero counts as failed) reads failed_ops. Ties in a pair
count for neither side.

    python3 demos/bench_pairs.py PARENT_REV --pr N [--workloads grid_solve ...]
        [--pairs 10] [--seed 1] [--seconds 20]
"""

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CLAIM_SHARE = 0.9   # 9 wins in 10 pairs


def quartiles(values) -> tuple:
    """(q1, median, q3), linearly interpolated."""
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(med), float(q3)


def _costs(values, better: str):
    """values as costs: lower is better."""
    return np.asarray(values, dtype=float) * (1.0 if better == "lower" else -1.0)


def wins(parent, change, better: str) -> tuple:
    """(change wins, parent wins) over the pairs; ties count for neither."""
    p, c = _costs(parent, better), _costs(change, better)
    return int(np.sum(c < p)), int(np.sum(p < c))


def metric_verdict(parent, change, better: str, bound: float) -> dict:
    """Medians, IQRs, wins and the verdict of one metric over paired runs."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    cwins, pwins = wins(parent, change, better)
    gain = float(_costs(pmed - cmed, better))   # > 0: the change's median is better
    scale = bound * abs(pmed)
    dominates = _costs(change, better).max() < _costs(parent, better).min()
    if pq3 - pq1 > scale and not dominates:
        verdict = "unresolved"
    elif -gain > scale:
        verdict = "regressed"
    elif cwins >= math.ceil(CLAIM_SHARE * len(parent)) and gain > pq3 - pq1:
        verdict = "gain"
    else:
        verdict = "ok"
    return {"better": better, "bound": bound,
            "parent": {"median": pmed, "q1": pq1, "q3": pq3, "iqr": pq3 - pq1},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "iqr": cq3 - cq1},
            "wins": {"change": cwins, "parent": pwins,
                     "ties": len(parent) - cwins - pwins},
            "verdict": verdict}


def failed_share(runs) -> float:
    """Failed operations over attempted ones; a run without a result is one
    failed operation."""
    attempted = sum(r["attempted"] if r["exit"] == 0 else 1 for r in runs)
    failed = sum(r["failed"] if r["exit"] == 0 else 1 for r in runs)
    return failed / attempted if attempted else 0.0


def workload_summary(runs, end_to_end) -> dict:
    """Per-metric verdicts of one workload's runs, and the workload's verdict.

    runs: dicts with side ("parent" or "change"), pair, exit, attempted,
    failed and metrics (name -> value); end_to_end: BENCHMARK.json's
    entries (name, better, bound).
    """
    side = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"])
            for s in ("parent", "change")}
    shares = {s: failed_share(side[s]) for s in side}
    complete = [p for p in {r["pair"] for r in runs}
                if all(r["exit"] == 0 for r in runs if r["pair"] == p)]
    ok = {s: [r for r in side[s] if r["pair"] in complete] for s in side}
    metrics = {m["name"]: metric_verdict(
        [r["metrics"][m["name"]] for r in ok["parent"]],
        [r["metrics"][m["name"]] for r in ok["change"]], m["better"], m["bound"])
        for m in end_to_end} if complete else {}
    verdicts = {v["verdict"] for v in metrics.values()}
    if shares["change"] > shares["parent"] or not metrics:
        verdict = "failed_ops"
    else:
        verdict = next((v for v in ("regressed", "unresolved", "gain")
                        if v in verdicts), "ok")
    return {"failed_share": shares, "metrics": metrics, "verdict": verdict}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(run record without side/pair fields, machine dict or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    record = {"seed": seed, "exit": proc.returncode, "attempted": 0,
              "failed": 0, "metrics": {}}
    if proc.returncode == 0 and lines:
        out = json.loads(lines[-1])
        record.update(attempted=out["attempted"], failed=out["failed"],
                      metrics={k: v["value"] for k, v in out["metrics"].items()})
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record, machine


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="git revision to compare against")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    runs, machine = [], None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload in args.workloads:
            for pair in range(args.pairs):
                seed = args.seed + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for rank, side in enumerate(order):
                    record, seen = run_once(trees[side], workload, seed, args.seconds)
                    machine = machine or seen
                    runs.append({"workload": workload, "pair": pair, "side": side,
                                 "order": rank, **record})
                    print(f"{workload} pair {pair} {side}: exit {record['exit']} "
                          f"{record['metrics']}", flush=True)

    summary = {w: workload_summary([r for r in runs if r["workload"] == w],
                                   spec["end_to_end"]) for w in args.workloads}
    verdict = next((v for v in ("failed_ops", "regressed", "unresolved", "gain")
                    if any(s["verdict"] == v for s in summary.values())), "ok")
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "parent": args.parent, "pairs": args.pairs, "first_seed": args.seed,
        "seconds": args.seconds, "machine": machine, "verdict": verdict,
        "workloads": summary, "runs": runs}, indent=1) + "\n")
    for w, s in summary.items():
        print(w, s["verdict"], {k: v["verdict"] for k, v in s["metrics"].items()})
    print(f"verdict {verdict}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
