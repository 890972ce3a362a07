"""The golden-section search that ``etlab`` polished with before its Newton
and sampling searches, and the max-modulus search built on it, kept as
independent oracles for the tests.

``golden_min`` polished ``height_T``'s best sample before ``sample_min``;
the height tests put it back in its place to compare the two polishes.

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

from etlab._search import _step_count
from etlab.measures import _BLOCK_DOUBLES, canonical_angle
from etlab.polynomials import PolynomialSpec

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink factor per step


def golden_min(f, lo, hi, tol):
    """Golden-section search for a minimum of ``f`` in every bracket [lo, hi].

    ``f`` maps a 1-d array of points to their values; its first call takes
    both interior points of every bracket, each later call one new point per
    bracket.  Returns 1-d arrays (x, f(x)) at the best point evaluated: the
    better interior point is always the one kept, so it is the lower of the
    final two.  For f unimodal, x is within tol of a minimizer.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    steps = _step_count(hi - lo, tol, _INV_PHI)
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = np.split(np.asarray(f(np.concatenate((c, d))), dtype=float), 2)
    for _ in range(steps):
        # keep [lo, d] when fc <= fd, else [c, hi]; the kept interior point
        # becomes the far one of the new bracket
        left = fc <= fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        x_keep, f_keep = np.where(left, c, d), np.where(left, fc, fd)
        x_new = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        f_new = np.asarray(f(x_new), dtype=float)
        c, d = np.where(left, x_new, x_keep), np.where(left, x_keep, x_new)
        fc, fd = np.where(left, f_new, f_keep), np.where(left, f_keep, f_new)
    left = fc <= fd
    return np.where(left, c, d), np.where(left, fc, fd)


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
