"""Domain build cost across step sizes, in two and three dimensions.

Builds the unit ball at h = eps/3 for each rung of an eps ladder and prints
the stored points, the stencil size S, the build's wall time (best of
--repeats, untraced) and two tracemalloc readings of one more build: its
peak, the most memory the build held at once, and what the finished domain
keeps. A build whose peak grows with the points alone, not with points x S,
can reach the three-dimensional rungs the paper's estimate is stated for.

The default ladder runs to eps 0.025 in 2D and eps 0.1 in 3D; --epsilon
adds rungs to both (3D eps 0.05 is about 0.9M interior points).
"""

import argparse
import time
import tracemalloc

from dpplab import Ball, build_grid_domain

LADDER = {2: (0.2, 0.1, 0.05, 0.025), 3: (0.2, 0.1)}


def measure(n: int, eps: float, repeats: int) -> dict:
    """Points, S, best build seconds, and peak and kept MB of one build."""
    shape = Ball(center=(0.0,) * n, radius=1.0)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        build_grid_domain(shape, eps / 3.0, eps)
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        dom = build_grid_domain(shape, eps / 3.0, eps)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"points": dom.n_points, "interior": dom.n_interior,
            "S": len(dom.stencil(eps)), "seconds": best,
            "peak_mb": peak / 2**20, "kept_mb": kept / 2**20}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, action="append", default=[],
                    help="add a rung (repeatable)")
    ap.add_argument("--no-ladder", action="store_true",
                    help="build only the --epsilon rungs")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed builds per rung; the fastest is printed")
    args = ap.parse_args()

    print(f"{'n':>2s} {'eps':>6s} {'points':>9s} {'interior':>9s} {'S':>4s} "
          f"{'build_s':>9s} {'peak_MB':>8s} {'kept_MB':>8s}")
    for n in LADDER:
        ladder = () if args.no_ladder else LADDER[n]
        for eps in sorted(set(ladder) | set(args.epsilon), reverse=True):
            r = measure(n, eps, args.repeats)
            print(f"{n:2d} {eps:6.3f} {r['points']:9d} {r['interior']:9d} "
                  f"{r['S']:4d} {r['seconds']:9.4f} {r['peak_mb']:8.2f} "
                  f"{r['kept_mb']:8.2f}")


if __name__ == "__main__":
    main()
