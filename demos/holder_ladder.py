"""Smoothness of the solved field, tracked across step sizes.

Solves the mixed game (alpha = 0.5) on the unit disk with cone data at a
ladder of step sizes, then summarizes each solution with the normalized
pair statistic K: the largest quotient |u(x) - u(z)| / (|x - z|/R)^delta
after subtracting a fitted noise-floor term C' * (eps/R)^delta. A stable K
across the ladder is the numerical signature that the smoothness estimate
survives eps -> 0. A crude long-range exponent fit closes the script; cone
data keeps the solution roughly Lipschitz away from the step-size scale,
so the fitted slope lands near 1 (with real scatter, since the increment
depends on where a pair sits and not only on its separation).
"""

import argparse
import time

import numpy as np

from dpplab import (
    Ball,
    GameSpec,
    build_grid_domain,
    estimate_exponent,
    fit_c_prime,
    holder_report,
    solve_dpp,
)


def F(pts):
    return np.abs(np.atleast_2d(np.asarray(pts, dtype=float))[:, 0])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=0.2)
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--deep", action="store_true",
                    help="include eps=0.025")
    args = ap.parse_args()

    ladder = (0.1, 0.05, 0.025) if args.deep else (0.1, 0.05)
    shape = Ball(center=(0.0, 0.0), radius=1.0)

    print(f"{'eps':>6s} {'points':>7s} {'iters':>6s} {'cycles':>6s} "
          f"{'solve_s':>8s} {'c_prime':>8s} {'K':>8s}")
    ks = {}
    fields = {}
    for eps in ladder:
        t0 = time.monotonic()
        dom = build_grid_domain(shape, eps / 3.0, eps)
        fld, diag = solve_dpp(dom, F, GameSpec.space_dependent(eps, 0.5),
                              tol=1e-6)
        dt = time.monotonic() - t0
        c_prime, k = fit_c_prime(fld, args.delta, eps, 0.3, (0.0, 0.0),
                                 args.pairs, seed=11)
        ks[eps] = k
        fields[eps] = fld
        print(f"{eps:6.3f} {dom.n_points:7d} {diag.iterations:6d} "
              f"{diag.cycles:6d} {dt:8.3f} {c_prime:8.3f} {k:8.5f}")

    spread = max(ks.values()) / min(ks.values())
    print(f"\nK spread across the ladder: {spread:.3f}x")

    # the per-pair quotient distribution behind the coarsest K
    eps = ladder[0]
    rep = holder_report(fields[eps], args.delta, eps, 0.3, (0.0, 0.0),
                        C_prime=0.0, pair_budget=args.pairs, seed=11)
    q = np.asarray([row[2] for row in rep.quotients])
    print(f"\nquotients at eps={eps} (C'=0): median {np.median(q):.4f}, "
          f"p90 {np.quantile(q, 0.9):.4f}, max {q.max():.4f}")

    # pairs must clear the 10*eps floor, so fit on the finest field, and
    # restrict to same-side runs along the data axis where the increment
    # actually tracks the separation
    fine = ladder[-1]

    def aligned(X, Z):
        d = X - Z
        return ((np.abs(d[:, 0]) > 0.9 * np.linalg.norm(d, axis=1))
                & (X[:, 0] > fine) & (Z[:, 0] > fine))

    slope, r2 = estimate_exponent(fields[fine], fine, pair_filter=aligned,
                                  pair_budget=300_000)
    print(f"aligned-pair exponent at eps={fine}: {slope:.3f} (r2={r2:.3f})")


if __name__ == "__main__":
    main()
