"""Logarithmic kernels on the circle and the line, and the singular quadrature engines.

The circle kernel is W(x) = -log|2 sin(pi x)| (mean zero, even, convex off the
lattice, W'' = pi/sin^2(pi x) >= pi); the line kernel is -log|x|.  All heavier
machinery in the package reduces to three integral shapes:

* an integrable logarithmic singularity at a known point,
* a simple-pole principal value,
* square-root vanishing at interval endpoints.

Panels are laid out deterministically (dyadic grading toward singular points,
Gauss-Legendre inside each panel) and summed with ``math.fsum``, so repeated
runs produce bitwise identical results.  Integrands are vectorized: each
takes the array of all its nodes in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateInterval,
    NonFinite,
    PoleOnBoundary,
    ToleranceNotMet,
)

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "TIGHT_SPEC",
    "kernel_T",
    "kernel_R",
    "integrate_log_singular",
    "pv_integrate",
    "integrate_sqrt_endpoints",
    "integrate_piece",
]

_EPS = float(np.finfo(float).eps)
# Dyadic grading never descends below this depth: panel widths of order
# 2**-46 * (b - a) are already at the edge of double resolution relative to
# O(1) anchors, and the skipped sliver contributes < 1e-12 for any integrand
# with an integrable log/sqrt endpoint.
_DEPTH_CAP = 46


@dataclass(frozen=True)
class QuadratureSpec:
    """Effort/accuracy knobs for the singular integrators.

    panels           equal subdivisions used on smooth stretches
    nodes_per_panel  Gauss-Legendre nodes per panel
    abs_tol          target absolute error
    max_refinements  dyadic grading depth toward each singular endpoint
    """

    panels: int = 8
    nodes_per_panel: int = 32
    abs_tol: float = 1e-8
    max_refinements: int = 40

    def __post_init__(self) -> None:
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be >= 2")
        if not self.abs_tol > 0.0:
            raise ValueError("abs_tol must be > 0")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


DEFAULT_SPEC = QuadratureSpec()
# For closed-form comparisons that assert 1e-8 .. 1e-10 agreement.  The
# tolerance stops at 1e-11: the innermost dyadic panel of an O(1) log
# singularity bottoms out near 4e-13 at double-precision grading depth.
TIGHT_SPEC = QuadratureSpec(panels=12, nodes_per_panel=48, abs_tol=1e-11, max_refinements=46)


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def kernel_T(x):
    """Circle kernel -log|2 sin(pi x)|; +inf on the integer lattice.

    Accepts scalars or arrays; the argument is reduced mod 1 first, so
    lattice points map to +inf exactly.
    """
    raw = np.asarray(x, dtype=float)
    arr = raw - np.rint(raw)  # exactly odd-symmetric reduction to [-1/2, 1/2]
    with np.errstate(divide="ignore"):
        out = -np.log(np.abs(2.0 * np.sin(np.pi * arr)))
    if out.ndim == 0:
        return float(out)
    return out


def kernel_R(x):
    """Line kernel -log|x|; +inf at 0."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = -np.log(np.abs(arr))
    if out.ndim == 0:
        return float(out)
    return out


def _eval_vectorized(f, xs: np.ndarray) -> np.ndarray:
    """f at every node of a 1-d array in one call; integrands must be vectorized."""
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError(f"integrand must map an array of nodes to an array, got {vals.shape}")
    return vals


def _depth(width: float, anchor: float, spec: QuadratureSpec) -> int:
    """Grading depth toward an endpoint, capped by float resolution near it."""
    floor_width = max(abs(anchor), 1.0) * 64.0 * _EPS
    if width <= floor_width:
        return 1
    by_float = int(math.floor(math.log2(width / floor_width)))
    return max(1, min(spec.max_refinements, _DEPTH_CAP, by_float))


def _graded_panels(lo: float, hi: float, toward_lo: bool, spec: QuadratureSpec,
                   check: bool = True, depth: int | None = None):
    """Dyadic panels on [lo, hi] with widths halving toward one end.

    The innermost sliver at the graded end is dropped; its contribution is
    below tolerance whenever the innermost kept panel is (flagged for the
    decay check when ``check``).  Panels are listed outermost-first for a
    fixed summation order.
    """
    width = hi - lo
    anchor = lo if toward_lo else hi
    if depth is None:
        depth = _depth(width, anchor, spec)
    panels = []
    for k in range(depth):
        outer = width * 0.5**k
        inner = width * 0.5 ** (k + 1)
        if toward_lo:
            panels.append((lo + inner, lo + outer, check and k == depth - 1))
        else:
            panels.append((hi - outer, hi - inner, check and k == depth - 1))
    return panels


def _segment_panels(lo: float, hi: float, grade_lo: bool, grade_hi: bool, spec: QuadratureSpec,
                    check: bool = True, depth: int | None = None):
    """Panel layout for one smooth-interior segment.

    Returns a list of (a, b, innermost_flag); innermost panels are the ones
    whose contribution must have decayed below tolerance for the graded scheme
    to be trusted.
    """
    if hi <= lo:
        return []
    if grade_lo and grade_hi:
        mid = 0.5 * (lo + hi)
        return (_graded_panels(lo, mid, True, spec, check, depth)
                + _graded_panels(mid, hi, False, spec, check, depth))
    if grade_lo:
        mid = 0.5 * (lo + hi)
        out = _graded_panels(lo, mid, True, spec, check, depth)
        step = (hi - mid) / spec.panels
        out += [(mid + j * step, mid + (j + 1) * step, False) for j in range(spec.panels)]
        return out
    if grade_hi:
        mid = 0.5 * (lo + hi)
        step = (mid - lo) / spec.panels
        out = [(lo + j * step, lo + (j + 1) * step, False) for j in range(spec.panels)]
        out += _graded_panels(mid, hi, False, spec, check, depth)
        return out
    step = (hi - lo) / spec.panels
    return [(lo + j * step, lo + (j + 1) * step, False) for j in range(spec.panels)]


def _split_toward(lo: float, hi: float, toward_lo: bool, levels: int):
    """Exact dyadic cover of [lo, hi] refined toward one end (nothing dropped)."""
    width = hi - lo
    out = []
    if toward_lo:
        out.append((lo, lo + width * 0.5**levels, False))
        for k in range(levels, 0, -1):
            out.append((lo + width * 0.5**k, lo + width * 0.5 ** (k - 1), False))
    else:
        for k in range(1, levels + 1):
            out.append((hi - width * 0.5 ** (k - 1), hi - width * 0.5**k, False))
        out.append((hi - width * 0.5**levels, hi, False))
    return out


def _edge_refined_panels(lo: float, hi: float, spec: QuadratureSpec,
                         levels_lo: int = 4, levels_hi: int = 16):
    """Equal panels on [lo, hi] with the two edge panels dyadically refined.

    The refinement toward ``lo`` (the fold point of a principal value) is kept
    shallow: probing closer amplifies cancellation noise in the folded
    integrand.  The refinement toward ``hi`` is deep enough to absorb
    square-root kinks at the window edge.
    """
    n = max(spec.panels, 2)
    step = (hi - lo) / n
    panels = _split_toward(lo, lo + step, True, levels_lo)
    panels += [(lo + j * step, lo + (j + 1) * step, False) for j in range(1, n - 1)]
    panels += _split_toward(hi - step, hi, False, levels_hi)
    return panels


def _integrate_panels(f, panels, spec: QuadratureSpec) -> float:
    """Gauss-Legendre over a fixed panel list; deterministic compensated sum."""
    if not panels:
        return 0.0
    nodes, weights = _gl_rule(spec.nodes_per_panel)
    a = np.array([p[0] for p in panels])
    b = np.array([p[1] for p in panels])
    widths = b - a
    xs = a[:, None] + widths[:, None] * nodes[None, :]
    vals = _eval_vectorized(f, xs.ravel()).reshape(xs.shape)
    if not np.isfinite(vals).all():
        raise NonFinite("integrand evaluated to a non-finite value inside a panel")
    contribs = widths * (vals @ weights)
    for (lo, hi, innermost), c in zip(panels, contribs):
        if innermost and abs(c) > spec.abs_tol / 4.0:
            raise ToleranceNotMet(
                f"innermost panel [{lo!r}, {hi!r}] still contributes {c:.3e} "
                f"(> abs_tol/4 = {spec.abs_tol / 4.0:.3e}); raise max_refinements"
            )
    return math.fsum(contribs.tolist())


def integrate_piece(f, a: float, b: float, spec: QuadratureSpec = DEFAULT_SPEC, *,
                    log_at: float | None = None, grade_ends: bool = True) -> float:
    """Integrate f over [a, b], tolerating endpoint sqrt/log behavior.

    ``log_at`` marks an integrable logarithmic singularity (interior or at an
    endpoint); panels grade dyadically toward it and, when ``grade_ends``,
    toward both endpoints, which also absorbs square-root endpoint factors.
    """
    if not b > a:
        raise DegenerateInterval(f"need b > a, got [{a}, {b}]")
    panels = []
    if log_at is not None and a < log_at < b:
        panels += _segment_panels(a, log_at, grade_ends, True, spec)
        panels += _segment_panels(log_at, b, True, grade_ends, spec)
    else:
        gl = grade_ends or (log_at is not None and log_at <= a)
        gr = grade_ends or (log_at is not None and log_at >= b)
        panels += _segment_panels(a, b, gl, gr, spec)
    return _integrate_panels(f, panels, spec)


def integrate_log_singular(f, a: float, b: float, s: float,
                           spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integral of f over [a, b] with a logarithmic singularity at s in [a, b].

    Splits at s and grades panel widths toward it (and toward the outer
    endpoints, so mildly singular behavior there is free).  Raises
    ``ToleranceNotMet`` when the innermost panels have not decayed below
    abs_tol/4, and ``NonFinite`` if f blows up away from the graded points.
    """
    if not b > a:
        raise DegenerateInterval(f"need b > a, got [{a}, {b}]")
    if not (a <= s <= b):
        raise ValueError(f"singularity {s} outside [{a}, {b}]")
    return integrate_piece(f, a, b, spec, log_at=s, grade_ends=True)


def pv_integrate(f, a: float, b: float, p: float,
                 spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Cauchy principal value of f = g(x)/(x - p) over [a, b], pole strictly inside.

    The symmetric window around p is folded: t -> f(p+t) + f(p-t) has a
    removable singularity at t = 0, so graded Gauss-Legendre converges.  The
    unpaired remainder is regular and integrated directly.
    """
    if not (a < p < b):
        raise PoleOnBoundary(f"pole {p} not strictly inside [{a}, {b}]")
    r = min(p - a, b - p)

    def paired(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return _eval_vectorized(f, p + t) + _eval_vectorized(f, p - t)

    # The folded integrand is smooth at t = 0 (and bounded throughout), so
    # equal panels suffice; the two edge panels are refined dyadically with
    # every subpanel kept, which absorbs steep-but-integrable behavior at the
    # fold point and at the window edges (e.g. sqrt factors vanishing there).
    panels = _edge_refined_panels(0.0, r, spec)
    core = _integrate_panels(paired, panels, spec)
    rest = 0.0
    if p - a < b - p:
        rest = _integrate_panels(
            f, _segment_panels(p + r, b, True, False, spec, check=False), spec)
    elif b - p < p - a:
        rest = _integrate_panels(
            f, _segment_panels(a, p - r, False, True, spec, check=False), spec)
    return math.fsum((core, rest))


def integrate_sqrt_endpoints(f, a: float, b: float,
                             spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Integral of f = sqrt((b-x)(x-a)) * (smooth) over [a, b].

    The substitution x = a + (b-a) sin^2(phi) removes both square-root
    endpoints, leaving a smooth integrand on [0, pi/2].
    """
    if not b > a:
        raise DegenerateInterval(f"need b > a, got [{a}, {b}]")
    width = b - a

    def transformed(phi: np.ndarray) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        s = np.sin(phi)
        x = a + width * s * s
        return _eval_vectorized(f, x) * width * np.sin(2.0 * phi)

    panels = _segment_panels(0.0, math.pi / 2.0, False, False, spec)
    return _integrate_panels(transformed, panels, spec)


def pv_sqrt_composite(f, lo: float, hi: float, pole: float,
                      spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """PV integral over [lo, hi] with sqrt endpoints and a simple pole inside.

    A symmetric window of 3/4 the pole clearance takes the folded treatment;
    the outer pieces grade toward their sqrt end and refine (keeping every
    subpanel, since the integrand is bounded there) toward the pole side.
    """
    if not (lo < pole < hi):
        raise PoleOnBoundary(f"pole {pole} not strictly inside [{lo}, {hi}]")
    r0 = 0.75 * min(pole - lo, hi - pole)
    parts = [pv_integrate(f, pole - r0, pole + r0, pole, spec)]
    left, right = pole - r0, pole + r0
    if left > lo:
        mid = 0.5 * (lo + left)
        panels = _graded_panels(lo, mid, True, spec) + _split_toward(mid, left, False, 18)
        parts.append(_integrate_panels(f, panels, spec))
    if hi > right:
        mid = 0.5 * (right + hi)
        panels = _split_toward(right, mid, True, 18) + _graded_panels(mid, hi, False, spec)
        parts.append(_integrate_panels(f, panels, spec))
    return math.fsum(parts)

