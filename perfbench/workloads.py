"""The four workloads: seeded inputs, one item's call into etlab, the item's
outputs for the digest, and the checks of those outputs against ``oracles``.

Each workload is a fixed list of items made from the seed.  The seed changes
the random parameters but not the list's shape (degrees, grid sizes and
scenario classes are fixed), so the work in a list barely depends on the seed
and runs with different seeds can be compared.

Items call etlab through module attributes (``et.polynomials.check_et``), so
the tracer's rebinding of those names is seen at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles


@dataclass(frozen=True)
class Check:
    """Outcome of the oracle checks on one item."""

    ok: bool
    errors: dict  # check name -> error measured against its oracle
    failures: tuple[str, ...] = ()
    notes: dict | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable  # seed -> list of item inputs
    run: Callable  # (etlab, input) -> output
    flatten: Callable  # output -> list of numbers and arrays for the digest
    check: Callable  # (etlab, input, output) -> Check


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Generator for one workload's stream; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**64, stream])


def _finish(errors: dict, limits: dict, failures: list, notes=None) -> Check:
    for name, err in errors.items():
        if not err <= limits[name]:
            failures.append(f"{name}: {err:.3g} > {limits[name]:.3g}")
    return Check(not failures, errors, tuple(failures), notes)


# ---------------------------------------------------------------------------
# poly_corpus
# ---------------------------------------------------------------------------

DEGREES = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96,
           128, 160, 192, 256)
FORMS = ("unimodular", "off_circle", "coefficients")


def poly_generate(seed: int) -> list[dict]:
    rng = _rng(seed, 1)
    items = []
    for n in DEGREES:
        for form in FORMS:
            if form == "coefficients":
                c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
                items.append({"form": form, "n": n, "coeffs": c})
                continue
            angles = rng.uniform(-0.5, 0.5, n)
            if form == "unimodular":
                moduli, leading = np.ones(n), 1.0 + 0.0j
            else:
                moduli = np.exp(rng.uniform(-0.5, 0.5, n))
                leading = complex(rng.normal(), rng.normal())
            items.append({"form": form, "n": n, "moduli": moduli, "angles": angles,
                          "leading": leading})
    return items


def poly_run(et, inp: dict) -> dict:
    P = et.polynomials
    if inp["form"] == "coefficients":
        f = P.PolynomialSpec.from_coeffs(inp["coeffs"])
        g = f.with_computed_roots()
        rep = P.check_et(g)
        return {"report": rep, "H_coeffs": P.height_poly(f),
                "angles": g.angles, "moduli": g.moduli}
    f = P.PolynomialSpec(moduli=inp["moduli"], angles=inp["angles"],
                         leading=inp["leading"])
    return {"report": P.check_et(f)}


def poly_flatten(out: dict) -> list:
    rep = out["report"]
    vals = [rep.D, rep.H, rep.bound, rep.margin, rep.witness.start,
            rep.witness.length, float(rep.holds)]
    if "H_coeffs" in out:
        vals += [out["H_coeffs"], out["angles"], out["moduli"]]
    return vals


def poly_check(et, inp: dict, out: dict) -> Check:
    rep = out["report"]
    n = inp["n"]
    failures: list[str] = []
    if inp["form"] == "coefficients":
        angles = np.angle(np.roots(inp["coeffs"][::-1])) / (2.0 * math.pi)
        h_lo, h_hi = oracles.height_interval_coeffs(inp["coeffs"])
    else:
        angles = inp["angles"]
        h_lo, h_hi = oracles.height_interval_roots(inp["moduli"], angles, inp["leading"])
    d_bf = oracles.brute_force_discrepancy(angles, np.full(n, 1.0 / n))

    def outside(h: float) -> float:
        return max(h_lo - h, h - h_hi, 0.0)

    errors = {"D_vs_bruteforce": abs(rep.D - d_bf), "H_outside_interval": outside(rep.H)}
    limits = {"D_vs_bruteforce": 1e-12, "H_outside_interval": 1e-12}
    if "H_coeffs" in out:
        # the root path carries the companion-matrix root error on top
        limits["H_outside_interval"] = 1e-9
        errors["H_coeffs_outside_interval"] = outside(out["H_coeffs"])
        limits["H_coeffs_outside_interval"] = 1e-12
    # D <= sqrt(2 H_lo) certifies the bound, D > sqrt(2 H_hi) refutes it;
    # in between either verdict is acceptable.
    if d_bf <= math.sqrt(2.0 * max(h_lo, 0.0)) - 1e-9 and not rep.holds:
        failures.append("holds=False where the bound is certified")
    if d_bf > math.sqrt(2.0 * max(h_hi, 0.0)) + 1e-9 and rep.holds:
        failures.append("holds=True where the bound is refuted")
    return _finish(errors, limits, failures)


# ---------------------------------------------------------------------------
# sharpness_chain
# ---------------------------------------------------------------------------

FIXED_POINT = (0.05, 4096, 4096)  # criterion 6: observed, never gated


def sharpness_generate(seed: int) -> list[tuple[float, int, int]]:
    """Seeded chains at n = 256 and 1024, q in {n, 4n}, then the fixed point.

    n = 4096 appears only at the fixed point: a seeded chain there would move
    the median item time with its atom count, which m changes by up to 25%.
    """
    rng = _rng(seed, 2)
    items = [(float(rng.uniform(0.02, 0.2)), n, n * int(rng.choice((1, 4))))
             for n in (256, 1024)]
    items.append(FIXED_POINT)
    return items


def sharpness_run(et, inp):
    return et.discretize.sharpness_pipeline(*inp)


def sharpness_flatten(rep) -> list:
    return [v for s in (rep.continuum, rep.discrete, rep.rational) for v in (s.D, s.H, s.G)]


def sharpness_check(et, inp, rep) -> Check:
    m, n, q = inp
    failures: list[str] = []
    # Stages rebuilt outside the timed region; the calls are deterministic.
    rho = et.extremal.rho_type1(m)
    rho_n = et.discretize.discretize_measure(rho, n)
    rho_q = et.discretize.rationalize(rho_n, q)
    if rep.continuum.D != 2.0 * m:
        failures.append(f"D_continuum = {rep.continuum.D!r} != 2m")
    for stage in ("continuum", "discrete", "rational"):
        if not getattr(rep, stage).G > 0.5:
            failures.append(f"G_{stage} = {getattr(rep, stage).G} <= 1/2")
    numerators = rho_q.weights * q
    errors = {
        "H_continuum_vs_mpmath": abs(rep.continuum.H - oracles.type1_height(m)),
        "mass_continuum": abs(rho.mass() - oracles.type1_mass(m)),
        "mass_discrete": abs(math.fsum(rho_n.weights.tolist()) - 1.0),
        "mass_rational": abs(math.fsum(rho_q.weights.tolist()) - 1.0),
        "rational_numerators": float(np.max(np.abs(numerators - np.rint(numerators)))),
        "D_discrete_vs_bruteforce": abs(
            rep.discrete.D - oracles.brute_force_discrepancy(rho_n.angles, rho_n.weights)),
        "D_rational_vs_bruteforce": abs(
            rep.rational.D - oracles.brute_force_discrepancy(rho_q.angles, rho_q.weights)),
    }
    limits = {"H_continuum_vs_mpmath": 1e-8, "mass_continuum": 1e-9,
              "mass_discrete": 1e-9, "mass_rational": 1e-12, "rational_numerators": 1e-9,
              "D_discrete_vs_bruteforce": 1e-12, "D_rational_vs_bruteforce": 1e-12}
    if int(np.rint(numerators).sum()) != q:
        failures.append("rational numerators do not sum to q")
    notes = {"G_rational_at_fixed_point": rep.rational.G} if inp == FIXED_POINT else None
    return _finish(errors, limits, failures, notes)


# ---------------------------------------------------------------------------
# extremal_height
# ---------------------------------------------------------------------------


def extremal_generate(seed: int) -> list[tuple[float, float]]:
    """One kind-III (1 < R < R_c ~ 1.8102) and one kind-II (R > R_c) radius,
    each with a scaling factor small enough that lam * m < 1/2."""
    rng = _rng(seed, 3)
    return [(float(rng.uniform(1.1, 1.75)), float(rng.uniform(0.05, 0.15))),
            (float(rng.uniform(1.85, 2.4)), float(rng.uniform(0.05, 0.12)))]


def extremal_run(et, inp) -> dict:
    R, lam = inp
    mu = et.extremal.make_admissible(R, lam)
    rho = et.extremal.periodize(mu)
    h_circle, x_min = et.measures.height_T(rho, 256)
    d, arc = et.measures.discrepancy_mixed(rho)
    return {"kind": mu.kind, "L": mu.L, "H_circle": h_circle, "x_min": x_min,
            "H_line": et.measures.h_tilde(mu), "D": d, "arc": (arc.start, arc.length),
            "rings": (rho.meta.get("l_ring") or -1.0, rho.meta.get("r_ring") or -1.0)}


def extremal_flatten(out: dict) -> list:
    return [out["L"], out["H_circle"], out["x_min"], out["H_line"], out["D"],
            *out["arc"], *out["rings"]]


def extremal_check(et, inp, out: dict) -> Check:
    R, lam = inp
    h_line = oracles.h_tilde_line(out["kind"], lam, R, out["L"])
    errors = {"H_circle_vs_H_line": abs(out["H_circle"] - h_line),
              "H_circle_vs_h_tilde": abs(out["H_circle"] - out["H_line"]),
              "h_tilde_vs_mpmath": abs(out["H_line"] - h_line)}
    limits = {"H_circle_vs_H_line": 1e-3, "H_circle_vs_h_tilde": 1e-3,
              "h_tilde_vs_mpmath": 1e-8}
    if out["kind"] == "III":
        errors["phi_at_L"] = abs(oracles.phi_pv(out["L"], R))
        limits["phi_at_L"] = 1e-7
    return _finish(errors, limits, [])


# ---------------------------------------------------------------------------
# sediment_descent
# ---------------------------------------------------------------------------

SEDIMENT_TOL = 1e-3
SEDIMENT_ITERS = 50_000


def sediment_generate(seed: int) -> list[tuple[float, float, int]]:
    """(M, m, n_cells): two single-Dirac (M = 0) and two Dirac-pair scenarios.

    The descent's iteration count is chaotic in (M, m): a change of 1e-3 in
    either moves it by up to 35%, and 1e-4 by up to 3%.  The seed therefore
    perturbs M and m by at most 1e-6 (relative), which leaves the work of
    each scenario class fixed while every seed still gives its own inputs.
    """
    rng = _rng(seed, 4)
    classes = ((0.0, 0.2, 512), (0.0, 0.1, 1024), (0.25, 0.1, 512), (0.3, 0.05, 256))
    return [(M * float(rng.uniform(1 - 1e-6, 1 + 1e-6)),
             m * float(rng.uniform(1 - 1e-6, 1 + 1e-6)), n) for M, m, n in classes]


def sediment_run(et, inp) -> dict:
    M, m, n = inp
    u = et.sediment.ExternalPotentialSpec(M, m)
    trace: list = []
    grid, residual = et.sediment.minimize_energy(
        u, 1.0 - 2.0 * m, n, SEDIMENT_ITERS, tol=SEDIMENT_TOL, trace=trace)
    return {"values": grid.values, "residual": residual,
            "iterations": trace[-1][0] if trace else 0}


def sediment_flatten(out: dict) -> list:
    return [out["values"], out["residual"], out["iterations"]]


def sediment_check(et, inp, out: dict) -> Check:
    M, m, n = inp
    mass = 1.0 - 2.0 * m
    v = out["values"]
    residual = oracles.sediment_residual(v, M, m, mass)
    errors = {"residual": residual,
              "residual_vs_reported": abs(residual - out["residual"]),
              "mass": abs(math.fsum(v.tolist()) / n - mass)}
    limits = {"residual": SEDIMENT_TOL, "residual_vs_reported": 1e-9, "mass": 1e-12}
    if M == 0.0:
        centers = (np.arange(n) + 0.5) / n
        errors["L1_to_rho_type1"] = float(np.abs(v - oracles.type1_density(m, centers)).mean())
        limits["L1_to_rho_type1"] = 0.02
    return _finish(errors, limits, [])


WORKLOADS = {w.name: w for w in (
    Workload("poly_corpus", poly_generate, poly_run, poly_flatten, poly_check),
    Workload("sharpness_chain", sharpness_generate, sharpness_run, sharpness_flatten,
             sharpness_check),
    Workload("extremal_height", extremal_generate, extremal_run, extremal_flatten,
             extremal_check),
    Workload("sediment_descent", sediment_generate, sediment_run, sediment_flatten,
             sediment_check),
)}
