"""The graded panel rule that ``etlab.kernels`` used before its fixed rule,
kept as an independent oracle for the tests.

Panels are laid out deterministically (dyadic grading toward singular points
and interval ends, Gauss-Legendre inside each panel) and summed with
``math.fsum``.  ``integrate_piece`` with ``log_at`` and
``integrate_log_singular`` integrate a logarithmic singularity at a known
point; ``_split_toward`` is the exact dyadic cover that the potential tests
grade toward a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from etlab.errors import DegenerateInterval, NonFinite
from etlab.kernels import _gl_rule

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


class ToleranceNotMet(Exception):
    """Refinement budget exhausted before the panel contributions fell below tolerance."""


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
