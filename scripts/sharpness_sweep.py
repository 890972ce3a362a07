#!/usr/bin/env python3
"""Convergence trace for the ratio chain: emit (n, G) pairs as CSV.

Usage: python scripts/sharpness_sweep.py [--m 0.05] [--q-factor 16]
       [--grids 256,1024,4096] [--out sweep.csv]

Each row also gives the wall seconds of its ``sharpness_pipeline`` call and
the process's peak resident set so far, in MiB; run one grid per process to
read each grid's own peak.
"""

import argparse
import resource
import sys
import time

from etlab.discretize import sharpness_pipeline

HEADER = "n,G_continuum,G_discrete,G_rational,seconds,peak_rss_mb"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--m", type=float, default=0.05)
    parser.add_argument("--grids", default="256,1024,4096")
    parser.add_argument("--q-factor", type=int, default=16,
                        help="rational denominator as a multiple of n")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    grids = [int(tok) for tok in args.grids.split(",")]
    lines = [HEADER]
    print(HEADER)
    for n in grids:
        t0 = time.perf_counter()
        rep = sharpness_pipeline(args.m, n, args.q_factor * n)
        seconds = time.perf_counter() - t0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        lines.append(f"{n},{rep.continuum.G:.8f},{rep.discrete.G:.8f},"
                     f"{rep.rational.G:.8f},{seconds:.3f},{peak_mb:.1f}")
        print(lines[-1])
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
