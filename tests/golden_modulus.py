"""The max-modulus search that ``etlab.polynomials.max_log_modulus`` ran
before its Newton polish, kept as an independent oracle for the tests.

log|f| is read on a dense grid of max(4096, 64 n) points, the root form by
the cosine form 1 + r^2 - 2 r cos of |w - z_j|^2 and the coefficient form by
``polyval``, and the top five grid cells are polished by golden section to
1e-14.  The cosine form loses relative accuracy next to a root, and the
golden section maximizes its rounding along with log|f|, so the tests compare
against it at about 1e-14.
"""

from __future__ import annotations

import math

import numpy as np

from etlab._search import golden_min
from etlab.measures import _BLOCK_DOUBLES, canonical_angle
from etlab.polynomials import PolynomialSpec


def log_abs_on_circle(f: PolynomialSpec, theta) -> np.ndarray:
    """log |f(e^{2 pi i theta})|, stable in the root form."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if f.has_roots:
        out = np.full(th.shape, math.log(abs(f.leading)))
        block = max(1, _BLOCK_DOUBLES // max(f.degree, 1))
        for i in range(0, th.size, block):
            d = th[i:i + block, None] - f.angles[None, :]
            sq = 1.0 + f.moduli**2 - 2.0 * f.moduli * np.cos(2.0 * np.pi * d)
            with np.errstate(divide="ignore"):
                out[i:i + block] += 0.5 * np.log(np.maximum(sq, 0.0)).sum(axis=1)
        return out
    z = np.exp(2j * np.pi * th)
    vals = np.polynomial.polynomial.polyval(z, f.coeffs)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals))


def max_log_modulus(f: PolynomialSpec) -> tuple[float, float]:
    """(max of log|f| on the unit circle, maximizing angle).

    Dense grid of max(4096, 64 n) points, then one batched golden-section
    polish of the top five grid cells to 1e-14; documented as a careful
    search, not a certified bound.
    """
    n = f.degree
    grid_n = max(4096, 64 * n)
    theta = np.arange(grid_n) / grid_n
    vals = log_abs_on_circle(f, theta)
    top = np.argsort(vals)[-5:]
    x, neg = golden_min(lambda t: -log_abs_on_circle(f, t),
                        theta[top] - 1.0 / grid_n, theta[top] + 1.0 / grid_n, 1e-14)
    j = int(np.argmin(neg))
    if -neg[j] > vals[top[-1]]:
        return float(-neg[j]), canonical_angle(x[j])
    return float(vals[top[-1]]), canonical_angle(theta[top[-1]])


def height_poly(f: PolynomialSpec) -> float:
    """(1/n) log( max_{|z|=1} |f| / sqrt|a_0 a_n| ) through this search."""
    return (max_log_modulus(f)[0] - 0.5 * f.log_a0_an_magnitude()) / f.degree
