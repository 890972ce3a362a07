#!/usr/bin/env python3
"""Run the m = 0.2 sediment scenario and compare with the closed form.

Usage: python scripts/sediment_demo.py [--n-cells 512] [--iters 50]
       [--density-out final.csv] [--trace-out trace.csv]
"""

import argparse
import sys

import numpy as np

from etlab.extremal import rho_type1
from etlab.sediment import ExternalPotentialSpec, minimize_energy


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--m", type=float, default=0.2)
    parser.add_argument("--n-cells", type=int, default=512)
    parser.add_argument("--iters", type=int, default=50,
                        help="cap on the active-set steps")
    parser.add_argument("--tol", type=float, default=1e-3)
    parser.add_argument("--density-out", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    u = ExternalPotentialSpec(0.0, args.m)
    trace: list = []
    grid, residual = minimize_energy(u, 1.0 - 2.0 * args.m, args.n_cells,
                                     args.iters, tol=args.tol, trace=trace)
    target = rho_type1(args.m).density.evaluate(grid.centers)
    l1 = float(np.abs(grid.values - target).mean())
    print(f"residual = {residual:.3e}   L1 distance to closed form = {l1:.3e}")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write("iteration,energy,residual\n")
            fh.writelines(f"{it},{e:.10g},{r:.6g}\n" for it, e, r in trace)
    if args.density_out:
        with open(args.density_out, "w") as fh:
            fh.write("center,value,closed_form\n")
            fh.writelines(f"{c:.8f},{v:.8f},{t:.8f}\n"
                          for c, v, t in zip(grid.centers, grid.values, target))
    return 0 if residual <= args.tol else 1


if __name__ == "__main__":
    sys.exit(main())
