"""Solve all four game operators on the unit disk and compare their values.

The boundary data F(y) = |y1| is cone-shaped, so the four averaging rules
disagree in a readable way: the pure tug game (p = inf) keeps the value
closest to the cone, the pure mean game smooths it the most, and the mixed
and directional games land in between.
"""

import argparse
import csv

import numpy as np

from dpplab import (Ball, GameSpec, alpha_beta_from_p, build_grid_domain,
                    directional_alpha_beta_from_p, solve_dpp)


def F(pts):
    return np.abs(np.atleast_2d(np.asarray(pts, dtype=float))[:, 0])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=0.15)
    ap.add_argument("--spacing", type=float, default=None,
                    help="lattice spacing, default epsilon/3")
    ap.add_argument("--out", default=None, help="optional CSV of all four fields")
    args = ap.parse_args()

    h = args.epsilon / 3.0 if args.spacing is None else args.spacing
    dom = build_grid_domain(Ball(center=(0.0, 0.0), radius=1.0),
                            h, args.epsilon)
    print(f"unit disk, h={h:g}, eps={args.epsilon}: "
          f"{dom.n_interior} interior points, {dom.n_strip} strip points")

    alpha, beta = alpha_beta_from_p(4.0, 2)
    jump = directional_alpha_beta_from_p(4.0, 2)[0]
    games = [
        ("tug_of_war", GameSpec.tug_of_war(args.epsilon)),
        ("random_walk", GameSpec.random_walk(args.epsilon)),
        (f"mixed p=4 (alpha={alpha:.3f})",
         GameSpec.space_dependent(args.epsilon, alpha)),
        (f"directional p=4 (alpha={jump:.3f})",
         GameSpec.directional(args.epsilon, jump, direction_count=32)),
    ]

    center = (0.0, 0.0)
    fields = {}
    print(f"\n{'game':30s} {'u(0,0)':>9s} {'iters':>6s} {'residual':>10s}")
    for name, spec in games:
        fld, diag = solve_dpp(dom, F, spec)
        fields[name] = fld
        print(f"{name:30s} {fld.values[dom.point_index(center)]:9.5f} "
              f"{diag.iterations:6d} {diag.final_residual:10.2e}")

    # Sanity: more tug weight pushes the center value toward the cone value
    # of the radial projection; the mean game sits highest on this data.
    vals = [fld.values[dom.point_index(center)] for fld in fields.values()]
    print("\ncenter value spread:", f"{max(vals) - min(vals):.5f}")

    if args.out:
        names = list(fields)
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2"] + names)
            for i, pt in enumerate(dom.points):
                w.writerow([repr(pt[0]), repr(pt[1])]
                           + [repr(float(fields[n].values[i])) for n in names])
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
