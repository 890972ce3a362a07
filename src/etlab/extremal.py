"""Explicit extremal constructions: the admissibility curve and its families.

The central object is the principal-value integral

    phi(L, R) = pv int_L^R sqrt((R^2-x^2)(x^2-L^2)) / (x^2 - 1) dx,

whose zero set defines the curve L(R) pairing the two support radii of the
kind-III line distributions; phi(0, .) has the closed form
sqrt(R^2-1) log(R + sqrt(R^2-1)) - R whose unique root R_c ~ 1.8102 separates
kind II (R >= R_c) from kind III (1 < R < R_c).  The potential of the
distribution at the origin equals pi * phi(L, R).

Also here: the circle families rho_type1/rho_type2, periodization of line
distributions onto the circle, and the 20-row reference grid of (R, H, D)
values used by the acceptance suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._search import bisect
from .errors import AtDirac, DomainError, LambdaTooLarge
from .measures import (
    AdmissibleDistR,
    MixedMeasureT,
    PeriodizedDensity,
    TypeITDensity,
    TypeIITDensity,
    _canonical_array,
    _crossings,
    admissible_density_line,
    d_tilde,
    h_tilde,
)

__all__ = [
    "phi",
    "r_critical",
    "l_of_r",
    "make_admissible",
    "density_R",
    "rho_type1",
    "rho_type2",
    "periodize",
    "Table1Row",
    "table1",
    "table1_csv",
    "TABLE1_R_GRID",
]


# phi is exact to rounding, so the bisection for L(R) goes to a few ulps of 1
_L_TOL = 1e-14


def phi(L: float, R: float) -> float:
    """pv int_L^R sqrt((R^2-x^2)(x^2-L^2))/(x^2-1) dx, pole at 1, 0 <= L < 1 < R.

    Strictly increasing in both arguments, R finite; vanishes exactly on the
    admissibility curve.  The generated potential at the origin is pi times
    this value.
    """
    if not (0.0 <= L < 1.0 < R and math.isfinite(R)):
        raise DomainError(f"need 0 <= L < 1 < R with R finite, got L={L}, R={R}")

    def g(x):  # the integrand times (x - 1)
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.maximum((R - x) * (R + x) * (x - L) * (x + L), 0.0)) / (x + 1.0)

    return kernels.pv_sqrt_composite(g, L, R, 1.0)


def _phi0_closed(R: float) -> float:
    """Closed form of phi(0, R): sqrt(R^2-1) log(R + sqrt(R^2-1)) - R."""
    s = math.sqrt(R * R - 1.0)
    return s * math.log(R + s) - R


@functools.cache
def r_critical() -> float:
    """The unique root of sqrt(R^2-1) log(R + sqrt(R^2-1)) - R in (1, 3).

    Computed once by bisection on the closed form to 1e-13 and cached; the
    principal-value route phi(0, r_critical()) ~ 0 is a consistency test,
    not the source of truth.
    """
    lo, hi = 1.0 + 1e-9, 3.0
    assert _phi0_closed(lo) < 0.0 < _phi0_closed(hi)
    return float(bisect(lambda r: _phi0_closed(float(r)) < 0.0, lo, hi, 1e-13))


def l_of_r(R: float) -> float:
    """The unique L in (0, 1) with phi(L, R) = 0, for 1 + 1e-13 <= R < r_critical().

    Bisection to ``_L_TOL`` (1e-14) is valid because phi is strictly increasing in L;
    phi(0, R) < 0 below the critical radius and phi(L, R) -> positive as L -> 1.
    The root lies near 1 - (R - 1) as R falls to 1, below the bracket's upper
    end 1 - min(1e-6, (R - 1)/2).  Closer to 1 the root is a few hundred ulps
    below 1, where phi's quadrature meets non-finite values, so such R raise.
    """
    rc = r_critical()
    if not (1.0 + 1e-13 <= R < rc):
        raise DomainError(f"need 1 + 1e-13 <= R < {rc:.6f}, got R={R}")
    lo, hi = 0.0, 1.0 - min(1e-6, 0.5 * (R - 1.0))
    flo = phi(lo, R)
    fhi = phi(hi, R)
    if not (flo < 0.0 < fhi):
        raise DomainError(f"admissibility bracket failed at R={R}: [{flo}, {fhi}]")
    return float(bisect(lambda L: phi(float(L), R) < 0.0, lo, hi, _L_TOL))


def make_admissible(R: float | None, lam: float = 1.0) -> AdmissibleDistR:
    """Build the admissible distribution selected by R (None picks kind I).

    R >= r_critical() gives kind II; 1 < R < r_critical() gives kind III with
    L solved from the admissibility curve.
    """
    if R is None:
        return AdmissibleDistR("I", lam)
    if not R > 1.0:
        raise DomainError(f"need R > 1, got {R}")
    rc = r_critical()
    if R >= rc:
        return AdmissibleDistR("II", lam, R)
    return AdmissibleDistR("III", lam, R, l_of_r(R))


def density_R(mu: AdmissibleDistR, x: float) -> float:
    """Pointwise scaled line density (background included); raises at Diracs."""
    for pos, _ in mu.dirac_positions_masses():
        if abs(x - pos) <= 1e-15 * max(1.0, abs(pos)):
            raise AtDirac(f"x = {x} is a Dirac location")
    return float(admissible_density_line(mu, np.array([x]))[0])


def rho_type1(m: float) -> MixedMeasureT:
    """Circle probability measure: Dirac 2m at the origin plus the arc density
    sqrt(1 - 4m^2/sin^2(pi x)) outside the central gap.  0 < m <= 1/2."""
    if not (0.0 < m <= 0.5):
        raise DomainError(f"need 0 < m <= 1/2, got m={m}")
    density = None if m >= 0.5 else TypeITDensity(m)
    rho = MixedMeasureT(diracs=((0.0, 2.0 * m),), density=density)
    if density is not None:
        total = rho.mass()
        if abs(total - 1.0) > 1e-8:
            raise DomainError(f"unit-mass check failed: total = {total}")
    return rho


def rho_type2(M: float, R: float, L: float) -> MixedMeasureT:
    """Circle probability measure with Diracs at +-M and the two-arc density
    supported on |x| in [0, L] u [R, 1/2].  Requires 0 <= L < M < R < 1/2."""
    density = TypeIITDensity(M, R, L)  # validates the ordering
    m = density.dirac_mass()
    rho = MixedMeasureT(diracs=((-M, m), (M, m)), density=density)
    total = rho.mass()
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"unit-mass check failed: total = {total}")
    return rho


def periodize(mu: AdmissibleDistR) -> MixedMeasureT:
    """Wrap an admissible line distribution onto the circle.

    The result is 1 + (lattice sum of the scaled density) plus the wrapped
    Dirac masses: lam * delta_0 for kind I, lam*m at +-lam otherwise.  The
    scaling factor must satisfy lam <= 1 (kind I) or lam <= 1/2 with
    lam*m < 1/2 (kinds II/III).

    For kinds II/III ``meta`` holds the ring radii, sign changes of the
    density that ``measures._crossings`` reads off the result's own fixed
    nodes, so the density is read once per measure: ``l_ring`` in (0, lam)
    nearest lam*L (kind III, density >= 0 at 0), ``r_ring`` in (lam, 1/2]
    nearest lam*R (lam*R < 1/2, density >= 0 at 1/2); else None.
    """
    if mu.kind == "I":
        if mu.lam > 1.0:
            raise LambdaTooLarge(f"kind I needs lam <= 1, got {mu.lam}")
    else:
        if mu.lam > 0.5 or mu.lam * mu.m >= 0.5:
            raise LambdaTooLarge(
                f"kinds II/III need lam <= 1/2 and lam*m < 1/2, got lam={mu.lam}, "
                f"lam*m={mu.lam * mu.m}")
    rho = MixedMeasureT(diracs=tuple(mu.dirac_positions_masses()),
                        density=PeriodizedDensity(mu))
    if mu.kind != "I":
        fixed, lam = rho._fixed_nodes, mu.lam  # cached on rho for every later functional
        at_0, at_half = fixed.values(np.array([0.0, 0.5]))
        radii = np.abs(_canonical_array(_crossings(fixed, 0.0)))
        rho.meta["l_ring"] = (_nearest(radii[radii < lam], lam * mu.L)
                              if mu.kind == "III" and at_0 >= 0.0 else None)
        rho.meta["r_ring"] = (_nearest(radii[radii > lam], lam * mu.R)
                              if lam * mu.R < 0.5 and at_half >= 0.0 else None)
    return rho


def _nearest(radii: np.ndarray, target: float) -> float | None:
    """The radius nearest target; None if there is none."""
    return float(radii[np.argmin(np.abs(radii - target))]) if radii.size else None


# Printed R grid of the reference table; inputs are data, the spacing rule is
# not derived.  The last entry is the critical radius to the printed digits.
TABLE1_R_GRID = (
    1.1000, 1.1292, 1.1592, 1.1900, 1.2216, 1.2541, 1.2874, 1.3216, 1.3567,
    1.3927, 1.4297, 1.4677, 1.5067, 1.5467, 1.5878, 1.6300, 1.6733, 1.7177,
    1.7633, 1.8102,
)


@dataclass(frozen=True)
class Table1Row:
    k: int
    R: float
    H: float
    D: float
    ratio: float | None  # H_k / D_{k+1}^2; None on the last row


def table1() -> list[Table1Row]:
    """The 20-row verification grid: (R_k, H_k, D_k) and the staggered ratios
    H_k / D_{k+1}^2, all computed from the kind-III family (the last row sits
    at the critical radius, where the curve parameter L reaches 0)."""
    rows_hd = []
    for k, R in enumerate(TABLE1_R_GRID):
        mu = make_admissible(R)
        rows_hd.append((k, R, h_tilde(mu), d_tilde(mu)))
    rows = []
    for k, R, H, D in rows_hd:
        ratio = None
        if k + 1 < len(rows_hd):
            ratio = H / rows_hd[k + 1][3] ** 2
        rows.append(Table1Row(k, R, H, D, ratio))
    return rows


def table1_csv(rows: list[Table1Row] | None = None, precision: int = 6) -> str:
    """CSV rendering with header k,R,H,D,ratio; '.' decimal, fixed digits."""
    rows = table1() if rows is None else rows
    out = ["k,R,H,D,ratio"]
    for r in rows:
        ratio = "" if r.ratio is None else f"{r.ratio:.{precision}g}"
        out.append(f"{r.k},{r.R:.{precision}g},{r.H:.{precision}g},"
                   f"{r.D:.{precision}g},{ratio}")
    return "\n".join(out) + "\n"
