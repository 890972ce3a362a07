"""Logarithmic kernels on the circle and the line, and the line-side quadrature rule.

The circle kernel is W(x) = -log|2 sin(pi x)| (mean zero, even, convex off the
lattice, W'' = pi/sin^2(pi x) >= pi); the line kernel is -log|x|.

Every integral over an interval of the line goes through one fixed rule: the
map x = a + (b - a) sin^2(theta), then Gauss-Legendre with ``_NODES`` nodes
in theta on [0, pi/2], summed with ``math.fsum``.  The map turns a square-root
end into a smooth integrand, so integrands that are smooth, or that vanish
like a square root at either end, come out exact to rounding.  A simple pole
inside takes the same rule once it is subtracted against the closed form

    pv int_a^b sqrt((b - x)(x - a)) / (x - p) dx = pi (c - p),  c = (a + b)/2,

or, when a node lies close to the pole, the interlaced rule of one node more.
The nodes are fixed, so repeated runs give bitwise identical results.
Integrands are vectorized: each takes the array of all its nodes in one call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DegenerateInterval, NonFinite, PoleOnBoundary

__all__ = [
    "kernel_T",
    "integrate_piece",
    "integrate_sqrt_endpoints",
    "pv_sqrt_composite",
]

_EPS = float(np.finfo(float).eps)
_NODES = 256


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _sin2_rule(n: int = _NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s = sin^2(theta) in (0, 1) and weights of the n-node rule for
    int_0^1 F(s) ds = int_0^{pi/2} F(sin^2 theta) sin(2 theta) dtheta."""
    t = np.polynomial.legendre.leggauss(n)[0]
    # numpy's weights are off by up to 2e-11 relative (3e-14 on average) at
    # n = 256; 2 / ((1 - t^2) P_n'(t)^2) by the three-term recurrence at its
    # nodes is good to 7e-13 at the ends and 5e-15 on average
    p0, p1 = np.ones_like(t), t
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
    one_minus_t2 = (1.0 - t) * (1.0 + t)
    dp = n * (p0 - t * p1) / one_minus_t2
    theta = 0.25 * math.pi * (t + 1.0)
    return np.sin(theta) ** 2, 0.5 * math.pi * np.sin(2.0 * theta) / (one_minus_t2 * dp * dp)


def kernel_T(x):
    """Circle kernel -log|2 sin(pi x)|; +inf on the integer lattice.

    Accepts scalars or arrays; the argument is reduced mod 1 first, so
    lattice points map to +inf exactly.  Every step works in place in the
    one array it allocates, and the argument is never written.
    """
    raw = np.asarray(x, dtype=float)
    out = np.rint(raw, out=np.empty(raw.shape))
    np.subtract(raw, out, out=out)  # exactly odd-symmetric reduction to [-1/2, 1/2]
    out *= np.pi
    np.sin(out, out=out)
    np.abs(out, out=out)
    out *= 2.0
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    np.negative(out, out=out)
    if out.ndim == 0:
        return float(out)
    return out


def _eval_vectorized(f, xs: np.ndarray) -> np.ndarray:
    """f at every node of a 1-d array in one call; integrands must be vectorized."""
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise ValueError(f"integrand must map an array of nodes to an array, got {vals.shape}")
    return vals


def _fixed_rule(f, a: float, b: float, n: int = _NODES) -> float:
    """The fixed rule for int_a^b f(x) dx."""
    if not b > a:
        raise DegenerateInterval(f"need b > a, got [{a}, {b}]")
    s, w = _sin2_rule(n)
    vals = _eval_vectorized(f, a + (b - a) * s)
    if not np.isfinite(vals).all():
        raise NonFinite("integrand evaluated to a non-finite value at a node")
    return (b - a) * math.fsum((vals * w).tolist())


def integrate_piece(f, a: float, b: float) -> float:
    """Integral of f over [a, b] for f smooth on [a, b], or smooth up to
    square-root behaviour at either end."""
    return _fixed_rule(f, a, b)


def integrate_sqrt_endpoints(f, a: float, b: float) -> float:
    """Integral of f = sqrt((b-x)(x-a)) * (smooth) over [a, b].

    The substitution x = a + (b-a) sin^2(theta) removes both square-root
    endpoints, leaving a smooth integrand on [0, pi/2].
    """
    return _fixed_rule(f, a, b)


def pv_sqrt_composite(g, a: float, b: float, p: float) -> float:
    """pv int_a^b g(x) / (x - p) dx for g = sqrt((b-x)(x-a)) * (smooth) and a
    simple pole a < p < b.

    With q = g(p) / sqrt((b-p)(p-a)), the value is
    int_a^b (g(x) - q sqrt((b-x)(x-a))) / (x - p) dx + pi (c - p) q,
    c = (a + b)/2, whose integrand is smooth up to the square roots at a and b.
    The difference quotient loses digits at a node close to p, so the pole
    takes whichever of the interlaced rules of ``_NODES`` and ``_NODES + 1``
    nodes keeps its nearest node farther from p: at least a quarter of the
    local node spacing.
    """
    if not (a < p < b):
        raise PoleOnBoundary(f"pole {p} not strictly inside [{a}, {b}]")
    q = float(_eval_vectorized(g, np.array([p]))[0]) / math.sqrt((b - p) * (p - a))

    def subtracted(x):
        return (_eval_vectorized(g, x) - q * np.sqrt((b - x) * (x - a))) / (x - p)

    n = max((_NODES, _NODES + 1),
            key=lambda n: np.abs(a + (b - a) * _sin2_rule(n)[0] - p).min())
    return math.fsum((_fixed_rule(subtracted, a, b, n), math.pi * (0.5 * (a + b) - p) * q))
