#!/usr/bin/env python3
"""Mixed interpolation on a solid cylinder cross a segment.

Takes the product of a Kergin projector at Leja points of the planar unit
disk with a univariate Lagrange projector at real Leja points, projects
exp(x + y + t), and reports sup errors over a cylinder-shaped grid along
with the residual at the product's own interpolation nodes.
"""

import argparse

from nprox.experiments import ExperimentConfig, cylinder_run, report_write


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dmax", type=int, default=10,
                    help="largest degree, even degrees from 2 up (max 12)")
    ap.add_argument("--grid", type=int, default=64,
                    help="angular resolution of the evaluation grid")
    ap.add_argument("--out", default=None,
                    help="directory for CSV and JSON output (optional)")
    return ap.parse_args()


def main():
    args = parse_args()
    degrees = list(range(2, args.dmax + 1, 2))
    config = ExperimentConfig(
        name="cylinder_sweep",
        projector=None,
        function=["exp", ["affine", [1.0, 1.0, 1.0], 0.0]],
        compact=None,
        degrees=degrees,
        grid=args.grid,
    )
    report = cylinder_run(config)

    print(" d   sup error    root error")
    for row in report.rows:
        print(f"{row['d']:2d}   {row['sup_error']:.3e}    {row['root_error']:.4f}")
    meta = report.metadata
    print(f"\nnodes used at degree {degrees[-1]}: {meta['node_count']}")
    print(f"worst residual at a node: {meta['node_residual']:.3e}")
    print(f"wall time: {meta['wall_time_s']:.1f} s")

    if args.out:
        paths = report_write(report, args.out)
        for path in paths:
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
