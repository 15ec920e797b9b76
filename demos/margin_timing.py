"""Certifier cost per inequality: milliseconds per pair for I, II, III and T.

Certifies one inequality at a time with the sweep schemes over the pair
strata of the desk schedule (delta 0.2, C 250, N 40, eps 0.05, as
certify_desk in 2D), in 2D and 3D. Every run stays in one process: --pairs
margins are fewer than certify_region's fork threshold, so no worker is
started. A run with no inequality times the part every run shares (pair
sampling and f at the pairs and their midpoints); the table subtracts it.
Each figure is the fastest of --repeats runs, taken in turn across the
inequalities so a slow spell of a shared machine does not hit one alone.

    PYTHONPATH=src python demos/margin_timing.py [--pairs 205] [--repeats 5]
"""

import argparse
import math
import time

from dpplab.certifier import _FORK_MIN_MARGINS, INEQUALITIES, certify_region
from dpplab.comparison import ComparisonParams


def timings(n: int, pairs: int, repeats: int, seed: int) -> dict:
    """Fastest seconds per run: the shared part (key "") and each inequality."""
    params = ComparisonParams(n=n, delta=0.2, C=250.0, N=40, epsilon=0.05)
    runs = {"": ()} | {q: (q,) for q in INEQUALITIES}
    best = dict.fromkeys(runs, math.inf)
    for _ in range(repeats):
        for name, inequalities in runs.items():
            t0 = time.perf_counter()
            certify_region(params, inequalities, n_samples=pairs, seed=seed)
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=205,
                    help="pairs per run, fewer than the fork threshold "
                         f"({_FORK_MIN_MARGINS})")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed runs per inequality; the fastest is printed")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()
    if not 1 <= args.pairs < _FORK_MIN_MARGINS:
        ap.error(f"--pairs must lie in [1, {_FORK_MIN_MARGINS})")

    print(f"{'n':>2s} {'pairs':>6s} {'shared':>7s} "
          + " ".join(f"{q:>6s}" for q in INEQUALITIES) + "  (ms per pair)")
    for n in (2, 3):
        best = timings(n, args.pairs, args.repeats, args.seed)
        per = {q: 1e3 * max(best[q] - best[""], 0.0) / args.pairs
               for q in INEQUALITIES}
        print(f"{n:2d} {args.pairs:6d} {1e3 * best[''] / args.pairs:7.3f} "
              + " ".join(f"{per[q]:6.3f}" for q in INEQUALITIES))


if __name__ == "__main__":
    main()
