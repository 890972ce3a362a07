#!/usr/bin/env python3
"""Regenerate the 20-row reference grid and diff it against the printed values
(``etlab.extremal.TABLE1_PRINTED``).

Usage: python scripts/reproduce_table.py [--out table.csv]
Exits nonzero if any entry drifts past the acceptance tolerances.
"""

import argparse
import sys

from etlab.extremal import TABLE1_PRINTED, table1, table1_csv


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    rows = table1()
    worst_h = worst_d = worst_r = 0.0
    for row in rows:
        _, H, D, ratio = TABLE1_PRINTED[row.k]
        worst_h = max(worst_h, abs(row.H - H))
        worst_d = max(worst_d, abs(row.D - D))
        if ratio is not None:
            worst_r = max(worst_r, abs(row.ratio - ratio))
    print(f"max |dH| = {worst_h:.2e}  max |dD| = {worst_d:.2e}  "
          f"max |dratio| = {worst_r:.2e}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table1_csv(rows))
        print(f"wrote {args.out}")
    ok = worst_h <= 2e-3 and worst_d <= 2e-3 and worst_r <= 1e-3
    print("within tolerance" if ok else "TOLERANCE EXCEEDED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
