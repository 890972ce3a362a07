"""Continuum-to-discrete pipeline: moment-matched atom splitting and the
sharpness chain.

Each grid cell's density is replaced by masses at the cell endpoints matching
the 0th and 1st moments; convexity of the log kernel makes the swap raise the
potential everywhere outside the cell, so heights degrade by at most
O(log n / n).  Rationalizing the weights to a common denominator q fixes the
integer numerators p_j; the atoms off 0 are then moved from the grid to the
midpoint quantiles of the mass slabs they carry in the type-I arc whose Dirac
mass is the rounded p_0/q.  That measure is realizable as a degree-q
polynomial, completing the chain whose height/discrepancy^2 ratio descends
toward 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from ._search import bisect
from .errors import DomainError, NegativeDensity, NonRationalWeights, QTooSmall
from .extremal import rho_type1
from .measures import (
    EmpiricalMeasure,
    MixedMeasureT,
    discrepancy_empirical,
    discrepancy_mixed,
    height_T,
)
from .polynomials import check_et, synthesize_poly

__all__ = [
    "moment_match_cell",
    "discretize_measure",
    "rationalize",
    "type1_arc_mass",
    "move_to_slab_midpoints",
    "StageMetrics",
    "SharpnessReport",
    "sharpness_pipeline",
    "cell_replacement_potential",
]


def moment_match_cell(density, a: float, b: float) -> tuple[float, float]:
    """Endpoint masses (m1 at a, m2 at b) matching mass and first moment.

    density is a vectorized nonnegative function on [a, b]; the 2x2 moment
    system gives m1 = (b S0 - S1)/(b-a), m2 = (S1 - a S0)/(b-a), both
    nonnegative since the density's centroid lies in [a, b].
    """
    if not b > a:
        raise DomainError(f"need b > a, got [{a}, {b}]")
    s0 = kernels.integrate_piece(density, a, b)
    s1 = kernels.integrate_piece(lambda x: np.asarray(x, dtype=float) * density(x), a, b)
    m1 = (b * s0 - s1) / (b - a)
    m2 = (s1 - a * s0) / (b - a)
    if min(m1, m2) < -1e-10 * max(1.0, abs(s0)):
        raise NegativeDensity(
            f"moment masses came out negative (m1={m1}, m2={m2}); density must be >= 0")
    return max(m1, 0.0), max(m2, 0.0)


def discretize_measure(rho: MixedMeasureT, n: int) -> EmpiricalMeasure:
    """Replace the density of rho by endpoint masses on the grid {j/n}.

    Dirac atoms are kept verbatim (the customary atom at 0 sits on a cell
    boundary and is excluded from cell integrals).  Each cell [a, b] gives
    its endpoints the masses m1 = (b S0 - S1)/(b - a) and m2 = (S1 - a S0)/(b - a)
    of its 0th and 1st moments S0 and S1, all cells at once from the density's
    cumulative at the n + 1 grid edges (``_FixedNodes.cumulative``), so the
    density is read only at its fixed nodes.  Grid points whose mass is not
    positive are dropped, and a cell whose endpoint masses come out negative
    raises ``NegativeDensity``.  Total mass is preserved to ~1e-12.
    """
    if n < 2:
        raise DomainError("need at least 2 cells")
    pos, mass = np.array(rho.diracs, dtype=float).reshape(-1, 2).T
    fixed = rho._fixed_nodes
    if fixed is None:
        return EmpiricalMeasure(pos, mass)
    edges = np.arange(n + 1) / n
    c0, c1 = fixed.cumulative(edges)
    s0, s1 = np.diff(c0), np.diff(c1)
    m2 = (s1 - edges[:-1] * s0) / np.diff(edges)
    m1 = s0 - m2
    if np.any(np.minimum(m1, m2) < -1e-10 * np.maximum(1.0, np.abs(s0))):
        raise NegativeDensity("moment masses came out negative; density must be >= 0")
    grid_mass = m1 + np.roll(m2, 1)  # point j/n takes m1 of cell j and m2 of cell j - 1
    keep = grid_mass > 0.0
    return EmpiricalMeasure(np.concatenate((pos, edges[:-1][keep])),
                            np.concatenate((mass, grid_mass[keep])))


def rationalize(rho: EmpiricalMeasure, q: int) -> EmpiricalMeasure:
    """Round weights to p_j/q by cumulative (error-diffusion) rounding.

    Numerators are nonnegative integers summing to q with |p_j/q - w_j| <= 1/q;
    atoms rounding to zero are dropped.  Rounding the running sums (rather
    than apportioning by largest remainder) additionally keeps every partial
    sum within 1/(2q) of the original, so the rounding error never clusters:
    largest-remainder drops concentrate at the support edges where the
    weights are smallest, which opens visible gaps and inflates the height.
    """
    if q < rho.n_atoms:
        raise QTooSmall(f"q = {q} < number of atoms = {rho.n_atoms}")
    scaled_cum = np.cumsum(rho.weights) * q
    rounded = np.rint(scaled_cum)
    p = np.diff(np.concatenate(([0.0], rounded))).astype(np.int64)
    deficit = int(q - p.sum())
    if deficit != 0:
        p[np.argmax(p)] += deficit
    keep = p > 0
    return EmpiricalMeasure(rho.angles[keep], p[keep] / q)


def type1_arc_mass(m: float, x) -> np.ndarray:
    """Mass of the arc density of rho_type1(m) on [gap, x], for gap <= x <= 1/2.

    With a = 2m, b = sqrt(1 - a^2) and u = cos(pi x), the antiderivative of
    sqrt(1 - a^2 / sin^2(pi x)) gives

        (1/pi) [pi (1 - a)/2 - asin(u/b) + a atan(a u / sqrt(b^2 - u^2))],

    which is 0 at the gap edge (u = b) and (1 - a)/2, half the arc mass, at
    x = 1/2.  m = 0 is the uniform limit: no gap, and the mass is x.
    """
    if not (0.0 <= m < 0.5):
        raise DomainError(f"need 0 <= m < 1/2, got m={m}")
    a = 2.0 * m
    b = math.sqrt(1.0 - a * a)
    u = np.cos(np.pi * np.asarray(x, dtype=float))
    return (0.5 * math.pi * (1.0 - a) - np.arcsin(np.minimum(u / b, 1.0))
            + a * np.arctan2(a * u, np.sqrt(np.maximum(b * b - u * u, 0.0)))) / math.pi


def move_to_slab_midpoints(rho_q: EmpiricalMeasure, q: int) -> EmpiricalMeasure:
    """Move every atom off 0 to the midpoint quantile of the mass slab it carries.

    rho_q is a rational stage of the type-I chain: weights p_j/q, with the
    Dirac at 0 carrying p_0/q.  Counted around the circle from the gap edge,
    atom j carries the slab [P_{j-1}, P_j]/q of cumulative numerators, and
    it moves to where the arc mass of rho_type1(p_0/(2q)) reaches the slab's
    midpoint.  That is the type-I equilibrium whose Dirac mass is exactly
    p_0/q, so its arc mass (q - p_0)/q is what the slabs tile.  For fixed
    weights in circular order this is the placement closest to the arc in
    transport (W1) distance: each slab's cost is least at its median.

    The numerators, the atom count and the atom at 0 are kept, so wherever
    the Dirac atom alone attains the discrepancy, D is unchanged.
    """
    p = np.rint(rho_q.weights * q).astype(np.int64)
    if np.any(np.abs(rho_q.weights * q - p) > 1e-9 * q) or p.sum() != q:
        raise NonRationalWeights("weights are not p_j/q with numerators summing to q")
    at_zero = rho_q.angles == 0.0
    p0 = int(p[at_zero].sum())
    if p0 == q:
        return rho_q
    order = np.argsort(rho_q.angles[~at_zero] % 1.0, kind="stable")
    p_arc = p[~at_zero][order]
    # twice each slab midpoint, in units of 1/q; exact integers, so atoms past
    # the half-arc mass q - p0 mirror exactly onto the negative side
    mid2 = 2 * np.cumsum(p_arc) - p_arc
    far = mid2 > q - p0
    target = np.where(far, 2 * (q - p0) - mid2, mid2) / (2.0 * q)
    m = p0 / (2.0 * q)
    gap = math.asin(2.0 * m) / math.pi
    # 60 bisection halvings of [gap, 1/2] reach 5e-19
    x = bisect(lambda x: type1_arc_mass(m, x) < target, np.full(target.shape, gap), 0.5,
               (0.5 - gap) * 2.0**-60)
    angles = np.concatenate((rho_q.angles[at_zero], np.where(far, 1.0 - x, x)))
    weights = np.concatenate((rho_q.weights[at_zero], rho_q.weights[~at_zero][order]))
    return EmpiricalMeasure(angles, weights)


@dataclass(frozen=True)
class StageMetrics:
    D: float
    H: float
    G: float


@dataclass(frozen=True)
class SharpnessReport:
    m: float
    n: int
    q: int
    continuum: StageMetrics
    discrete: StageMetrics
    rational: StageMetrics
    polynomial: StageMetrics | None = None

    def to_json(self) -> dict:
        def enc(s):
            return None if s is None else {"D": s.D, "H": s.H, "G": s.G}
        return {"m": self.m, "n": self.n, "q": self.q,
                "continuum": enc(self.continuum), "discrete": enc(self.discrete),
                "rational": enc(self.rational), "polynomial": enc(self.polynomial)}


def _stage_metrics(rho: EmpiricalMeasure | MixedMeasureT, grid_n: int) -> StageMetrics:
    if isinstance(rho, EmpiricalMeasure):
        d, _ = discrepancy_empirical(rho)
    else:
        d, _ = discrepancy_mixed(rho)
    h, _ = height_T(rho, grid_n)
    return StageMetrics(d, h, h / d**2)


def sharpness_pipeline(m: float, n: int, q: int,
                       include_polynomial: bool = False) -> SharpnessReport:
    """Chain rho_type1(m) -> moment-matched atoms -> rational stage
    (-> polynomial), reporting (D, H, H/D^2) at every stage.  H is searched on
    a grid of 2048 points for the continuum and 4096 for the atomic stages.

    The rational stage keeps the numerators p_j of ``rationalize``, hence
    the atom count and the Dirac mass that sets D, and moves the atoms off 0
    to slab midpoint quantiles (``move_to_slab_midpoints``); the polynomial
    realizes it.
    Rounding alone would leave the atoms on the n-grid, and with q = n each
    arc atom would carry 0 or 1 units, opening holes of width 2/q along the
    arc.  As m decreases, the continuum ratio approaches 1/2 from above and
    each downstream stage tracks it within its discretization drift.
    """
    if not (0.0 < m <= 0.5):
        raise DomainError(f"need 0 < m <= 1/2, got m={m}")
    rho = rho_type1(m)
    cont = _stage_metrics(rho, 2048)
    rho_n = discretize_measure(rho, n)
    disc = _stage_metrics(rho_n, 4096)
    rho_q = move_to_slab_midpoints(rationalize(rho_n, q), q)
    rat = _stage_metrics(rho_q, 4096)
    poly_metrics = None
    if include_polynomial:
        f = synthesize_poly(rho_q, q)
        report = check_et(f)
        poly_metrics = StageMetrics(report.D, report.H, report.H / report.D**2)
    return SharpnessReport(m, n, q, cont, disc, rat, poly_metrics)


def cell_replacement_potential(density, a: float, b: float, x) -> np.ndarray:
    """Potential of (endpoint masses - cell density) at points x outside [a, b].

    Convexity of the kernel makes this nonnegative for every x outside the
    cell; used as the direct verification of the height-drift mechanism.
    """
    m1, m2 = moment_match_cell(density, a, b)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    atoms = m1 * kernels.kernel_T(xs - a) + m2 * kernels.kernel_T(xs - b)
    nodes, weights = kernels._gl_rule(32)
    ys = a + (b - a) * nodes
    dens_vals = density(ys) * weights * (b - a)
    removed = kernels.kernel_T(xs[:, None] - ys[None, :]) @ dens_vals
    return atoms - removed
