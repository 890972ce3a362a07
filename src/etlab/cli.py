"""Command-line entry point for reproduction runs and CSV/JSON emission.

Subcommands:

* check-poly FILE     sharp-bound report for a polynomial JSON document
* table1              the 20-row reference grid as CSV
* phi --L --R         the admissibility integral
* extremal            build an admissible distribution, report functionals
* sharpness           the continuum -> discrete -> rational ratio chain
* simulate FILE       sediment state from a scenario JSON
* ganelius FILE       conjugate-function bound for a density document
* periodize           wrap a line distribution and compare heights

Exit codes: 0 success (and all checked inequalities hold), 1 a checked
inequality failed, 2 bad input/usage.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys

import numpy as np

from . import discretize, extremal, harmonic, measures, polynomials, sediment
from .errors import EtLabError


def _print_json(obj, precision: int, summary: str | None = None) -> None:
    """Print ``summary`` (if any) and then ``obj`` as one line of strict JSON;
    nothing is printed when ``obj`` does not encode."""
    def enc(o):
        if isinstance(o, float):
            return float(f"{o:.{precision}g}")
        if isinstance(o, dict):
            return {k: enc(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [enc(v) for v in o]
        return o

    line = json.dumps(enc(obj), sort_keys=True, allow_nan=False)
    if summary is not None:
        print(summary)
    print(line)


def _load(path: str, build):
    """``build`` applied to the JSON document at ``path``.  A document of the
    wrong shape (not an object, a scalar where a pair belongs, a missing
    entry of a pair, a missing key) is bad input like a bad value."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return build(doc)
    except KeyError as exc:
        key = exc.args[0]
        what = f"key {key!r}" if isinstance(key, str) else f"entry {key!r}"
        raise EtLabError(f"malformed document: missing {what}") from exc
    except (TypeError, IndexError, AttributeError) as exc:
        raise EtLabError(f"malformed document: {exc}") from exc


def _cmd_check_poly(args) -> int:
    f = _load(args.file, polynomials.poly_from_json).with_computed_roots()
    report = polynomials.check_et(f)
    _print_json(report.to_json(), args.precision, report.summary())
    return 0 if report.holds else 1


def _cmd_table1(args) -> int:
    csv = extremal.table1_csv(precision=args.precision)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_phi(args) -> int:
    value = extremal.phi(args.L, args.R)
    print(f"{value:.{args.precision}g}")
    return 0


def _cmd_extremal(args) -> int:
    if args.kind == 1 and args.R is not None:
        raise EtLabError("--R applies to kinds 2 and 3 only")
    if args.kind != 1 and args.m is not None:
        raise EtLabError("--m applies to kind 1 only")
    if args.kind != 1 and args.R is None:
        raise EtLabError("kinds 2 and 3 require --R")
    mu = extremal.make_admissible(args.R, args.lam)
    if mu.kind != ("I", "II", "III")[args.kind - 1]:
        raise EtLabError(
            f"R = {args.R} selects kind {mu.kind} (critical radius "
            f"{extremal.r_critical():.6f}); pass --kind {2 if mu.kind == 'II' else 3}")
    report = {
        "kind": mu.kind, "lambda": mu.lam, "R": mu.R, "L": mu.L, "m": mu.m,
        "h_tilde": measures.h_tilde(mu),
        "d_tilde": measures.d_tilde(mu),
        "g_tilde": measures.g_tilde(mu),
    }
    if args.kind == 1 and args.m is not None:
        rho = extremal.rho_type1(args.m)
        h, _ = measures.height_T(rho, 512)
        report["circle_family"] = {"m": args.m, "D": 2.0 * args.m, "H": h,
                                   "G": h / (2.0 * args.m) ** 2}
    _print_json(report, args.precision)
    if args.emit_density:
        span = 2.0 * (mu.R or 1.0) * mu.lam + 1.0
        xs = np.linspace(-span, span, 2001)
        for p, _ in mu.dirac_positions_masses():
            xs = xs[np.abs(xs - p) >= 1e-12]
        with open(args.emit_density, "w") as fh:
            fh.write("x,density\n")
            for x, value in zip(xs, measures.admissible_density_line(mu, xs)):
                fh.write(f"{x:.{args.precision}g},{value:.{args.precision}g}\n")
    return 0


def _cmd_sharpness(args) -> int:
    report = discretize.sharpness_pipeline(args.m, args.n, args.q)
    _print_json(report.to_json(), args.precision)
    return 0 if report.rational.G > 0.5 else 1


def _scenario(doc: dict):
    """(potential, mass, n_cells, iters, tol) of a scenario document."""
    u = sediment.ExternalPotentialSpec(float(doc.get("M", 0.0)), float(doc.get("m", 0.0)))
    mass = float(doc.get("mass", 1.0 - 2.0 * u.m))
    tol = doc.get("tol")
    return (u, mass, operator.index(doc["n_cells"]), operator.index(doc["iters"]),
            None if tol is None else float(tol))


def _cmd_simulate(args) -> int:
    u, mass, n_cells, iters, tol = _load(args.file, _scenario)
    trace: list = []
    grid, residual = sediment.minimize_energy(
        u, mass, n_cells, iters, tol=tol, trace=trace)
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write("iteration,energy,residual\n")
            for it, e, r in trace:
                fh.write(f"{it},{e:.{args.precision}g},{r:.{args.precision}g}\n")
    out = args.out or (os.path.splitext(args.file)[0] + "_density.csv")
    with open(out, "w") as fh:
        fh.write("center,value\n")
        for c, v in zip(grid.centers, grid.values):
            fh.write(f"{c:.{args.precision}g},{v:.{args.precision}g}\n")
    _print_json({"residual": residual, "density_csv": out,
                 "iterations_recorded": len(trace)}, args.precision)
    if tol is not None and residual > tol:
        return 1
    return 0


def _cmd_ganelius(args) -> int:
    rho = _load(args.file, measures.measure_from_json)
    if isinstance(rho, measures.EmpiricalMeasure) or rho.diracs:
        raise EtLabError("the conjugate-function check needs a smooth density "
                         "document (no atoms); mollify first")
    theta = np.arange(args.grid_n) / args.grid_n
    samples = rho.density_eval(theta)
    report = harmonic.ganelius_check(samples)
    _print_json(report.to_json(), args.precision, report.summary())
    return 0 if report.holds else 1


def _cmd_periodize(args) -> int:
    mu = extremal.make_admissible(args.R, args.lam)
    rho = extremal.periodize(mu)
    h_circle, _ = measures.height_T(rho, args.grid_n)
    h_line = measures.h_tilde(mu)
    report = {
        "kind": mu.kind, "lambda": mu.lam, "R": mu.R, "L": mu.L,
        "diracs": [[a, m] for a, m in rho.diracs],
        "H_circle": h_circle, "H_line": h_line,
        "difference": abs(h_circle - h_line),
        "l_ring": rho.meta.get("l_ring"), "r_ring": rho.meta.get("r_ring"),
    }
    _print_json(report, args.precision)
    return 0


def _precision(text: str) -> int:
    """Significant digits: 17 already round-trip every double."""
    value = int(text)
    if not 1 <= value <= 17:
        raise argparse.ArgumentTypeError(f"must lie in 1..17, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etlab",
        description="Discrepancy/height functionals and extremal distributions "
                    "on the unit circle.")
    parser.add_argument("--precision", type=_precision, default=6,
                        help="significant digits in numeric output, 1 to 17")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-poly", help="sharp-bound report for a polynomial")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_poly)

    p = sub.add_parser("table1", help="emit the 20-row reference grid as CSV")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("phi", help="admissibility integral phi(L, R)")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("extremal", help="build an admissible distribution")
    p.add_argument("--kind", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--m", type=float, default=None,
                   help="circle-family Dirac mass (kind 1 only)")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--emit-density", default=None, metavar="CSV")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("sharpness", help="continuum -> discrete -> rational chain")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("simulate", help="sediment state from a scenario JSON")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="final density CSV path")
    p.add_argument("--trace-out", default=None, help="active-set step trace CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ganelius", help="conjugate-function bound for a density")
    p.add_argument("file")
    p.add_argument("--grid-n", type=int, default=4096)
    p.set_defaults(func=_cmd_ganelius)

    p = sub.add_parser("periodize", help="wrap a line distribution onto the circle")
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--grid-n", type=int, default=256)
    p.set_defaults(func=_cmd_periodize)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (EtLabError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
