"""Monte Carlo play cost per mode: microseconds per episode and lockstep
steps per second.

Plays one batch per mode, modelled on the benchmark's mc_play workload,
on the unit disk at step eps (h = eps/3 on the grid) with boundary data
|x.e|, e = (0.6, 0.8): greedy grid play of the mixed game (alpha 0.5) on
its solved field and the grid random walk, both from the lattice point
nearest (0.2, 0.1); the continuum random walk and continuum directional
play ("p = 4" weights, a pull toward (0.9, -1.2) against a push away from
the origin), both from (0.4, 0.3). A batch's lockstep steps are its
longest episode's, the steps every live episode advances together; the
grid and the continuum walk play them a 64-step block at a time,
directional play one step at a time. Every run stays in one process, and
each figure is the fastest of --repeats runs, taken in turn across the
modes so a slow spell of a shared machine does not hit one alone.

    PYTHONPATH=src python demos/play_timing.py [--episodes 1000] [--repeats 5]
"""

import argparse
import math
import time

import numpy as np

from dpplab import (Ball, GameSpec, GreedyOnField, PullAway, PullToward,
                    ValueField, alpha_beta_from_p, boundary_field,
                    build_grid_domain, play_episodes, solve_dpp)


def modes(eps: float) -> dict:
    """name -> the play_episodes arguments before episodes, seed."""
    disk = Ball((0.0, 0.0), 1.0)
    dom = build_grid_domain(disk, eps / 3.0, eps)
    e = np.array([0.6, 0.8])
    F = lambda p: np.abs(p @ e)
    mixed = GameSpec.space_dependent(eps, 0.5)
    fld, _ = solve_dpp(dom, F, mixed)
    data = ValueField(dom, boundary_field(dom, F))
    start = dom.points[dom.nearest_index((0.2, 0.1))]
    x0 = (0.4, 0.3)
    directional = GameSpec.directional(eps, alpha_beta_from_p(4, 2)[0])
    return {
        "grid_greedy": (mixed, GreedyOnField(fld, True),
                        GreedyOnField(fld, False), start, dom, data),
        "grid_walk": (GameSpec.random_walk(eps), None, None, start, dom, data),
        "continuum_walk": (GameSpec.random_walk(eps), None, None, x0, disk, F),
        "continuum_directional": (directional, PullToward((0.9, -1.2)),
                                  PullAway((0.0, 0.0)), x0, disk, F),
    }


def timings(games: dict, episodes: int, repeats: int, seed: int) -> dict:
    """name -> (fastest seconds per batch, lockstep steps of the batch)."""
    best = dict.fromkeys(games, math.inf)
    lockstep = {}
    for _ in range(repeats):
        for name, args in games.items():
            t0 = time.perf_counter()
            batch = play_episodes(*args, episodes, seed)
            best[name] = min(best[name], time.perf_counter() - t0)
            lockstep[name] = int(batch.steps.max())
    return {name: (best[name], lockstep[name]) for name in games}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--episodes", type=int, default=1000,
                    help="episodes per batch")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timed batches per mode; the fastest is printed")
    ap.add_argument("--eps", type=float, default=0.1, help="step size")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()
    if args.episodes < 2 or args.repeats < 1:
        ap.error("--episodes must be >= 2 and --repeats >= 1")

    games = modes(args.eps)
    print(f"{'mode':<22s} {'episodes':>8s} {'lockstep':>8s} "
          f"{'us/episode':>10s} {'lockstep/s':>10s}")
    for name, (seconds, steps) in timings(games, args.episodes, args.repeats,
                                          args.seed).items():
        print(f"{name:<22s} {args.episodes:8d} {steps:8d} "
              f"{1e6 * seconds / args.episodes:10.1f} {steps / seconds:10.0f}")


if __name__ == "__main__":
    main()
