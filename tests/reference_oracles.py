"""Second paths for quantities the library computes one way, kept as oracles
for the tests: the line-side H~ and D~ by quadrature of their integrals (no
closed forms), the periodized density by its plain lattice sum, the
potential of a UniformPlus density by the kernel's cosine expansion, the
Legendre log-moments by the backward ratio recurrence the far-z series
replaced, and the level crossings by bisection on ``legval``, as they ran
before their Chebyshev form."""

from __future__ import annotations

import math

import numpy as np

from etlab import kernels
from etlab._search import bisect
from etlab.measures import (
    _LATTICE_J,
    _PANEL_NODES,
    AdmissibleDistR,
    PeriodizedDensity,
    UniformPlusDensity,
    _canonical_array,
    _FixedNodes,
    _lattice_sum,
    _lattice_tail,
    admissible_density_line,
)


def h_tilde_quadrature(mu: AdmissibleDistR) -> float:
    """h_tilde through the principal-value moment integral (no closed forms).

    Kind I integrates the semicircle profile directly; kinds II/III integrate
    -2 x (potential)' across the support gap, which carries a pole at 1.
    """
    lam2 = mu.lam**2
    if mu.kind == "I":
        invpi = 1.0 / math.pi

        def f(y):
            y = np.asarray(y, dtype=float)
            return np.sqrt(np.maximum(invpi**2 - y * y, 0.0))

        return lam2 * math.pi * kernels.integrate_sqrt_endpoints(f, -invpi, invpi)
    R, L = mu.R, mu.L or 0.0

    def g(x):  # the integrand times (x - 1)
        x = np.asarray(x, dtype=float)
        return x * np.sqrt(np.maximum((R - x) * (R + x) * (x - L) * (x + L), 0.0)) / (x + 1.0)

    return lam2 * 2.0 * math.pi * kernels.pv_sqrt_composite(g, L, R, 1.0)


def with_lam(mu: AdmissibleDistR, lam: float) -> AdmissibleDistR:
    return AdmissibleDistR(mu.kind, lam, mu.R, mu.L)


def d_tilde_quadrature(mu: AdmissibleDistR) -> float:
    """d_tilde by integrating the density over the closed unit window."""
    if mu.kind == "I":
        return mu.lam
    unscaled = with_lam(mu, 1.0)

    def dens(x):
        return admissible_density_line(unscaled, x)

    L = unscaled.L or 0.0
    parts = [2.0 * unscaled.m]
    if L > 0.0:
        parts.append(kernels.integrate_piece(dens, -L, L))
        parts.append(kernels.integrate_piece(dens, L, 1.0))
        parts.append(kernels.integrate_piece(dens, -1.0, -L))
    else:
        parts.append(kernels.integrate_piece(dens, -1.0, 1.0))
    return mu.lam * math.fsum(parts)


def evaluate_direct(dens: PeriodizedDensity, x) -> np.ndarray:
    """The periodized density by summing the translates |j| <= 400 and the tail."""
    xs = np.atleast_1d(_canonical_array(x))
    return 1.0 + _lattice_sum(dens.mu, xs, np.arange(-_LATTICE_J, _LATTICE_J + 1)) \
        + _lattice_tail(dens.mu, xs)


def potential_exact(up: UniformPlusDensity, x) -> np.ndarray:
    """Closed-form W * rho using the cosine expansion of the kernel."""
    xs = np.asarray(x, dtype=float)
    k = np.arange(1, up.cos_coeffs.size + 1)
    phase = 2.0 * np.pi * np.multiply.outer(xs, k)
    return np.cos(phase) @ (up.cos_coeffs / (2.0 * k)) \
        + np.sin(phase) @ (up.sin_coeffs / (2.0 * k))


def log_moments_recurrence(z: np.ndarray) -> np.ndarray:
    """``measures._log_moments`` as it ran before the far-z series.

    I_k(z) = int_{-1}^{1} P_k(t) log|z - t| dt, k < _PANEL_NODES, at each z
    of a 1-d array: I_k = 2 (Q_{k+1} - Q_{k-1}) / (2k + 1) with the Legendre
    functions of the second kind Q_k, and I_0 = 2 Q_1 + log|z^2 - 1|.

    For |z| <= 1.1 Q_k runs forward from Q_0 = (log|z + 1| - log|z - 1|) / 2,
    and I_0 takes the form that keeps its digits next to z = +-1.  Beyond,
    rounding would grow like P_k forward, so the ratios Q_k / Q_{k-1} run
    backward from 0 at k = 3 * _PANEL_NODES (converged by 0.41**48 at 1.1).
    At z = +-1: I_0 = 2 log 2 - 2, I_k = (+-1)**k (-2 / (k (k + 1))).
    """
    n = _PANEL_NODES
    edge, far = np.abs(z) == 1.0, np.abs(z) > 1.1
    sign = z[edge, None]
    z = np.where(edge, 0.0, z)  # the edges take the closed form
    lp, lm = np.log(np.abs(z + 1.0)), np.log(np.abs(z - 1.0))
    zn, zf = np.where(far, 0.0, z), z[far]  # the far z are overwritten below
    q = np.empty((n + 1, z.size))
    q[0] = 0.5 * (lp - lm)
    q[1] = zn * q[0] - 1.0
    for k in range(1, n):
        q[k + 1] = ((2 * k + 1) * zn * q[k] - k * q[k - 1]) / (k + 1)
    ratios = [np.zeros(zf.size)]
    for k in range(3 * n, 0, -1):
        ratios.append(k / ((2 * k + 1) * zf - (k + 1) * ratios[-1]))
    q[0, far] = np.arctanh(1.0 / zf)
    q[1:, far] = q[0, far] * np.cumprod(ratios[:-n - 1:-1], axis=0)
    k = np.arange(1, n)
    out = np.empty((z.size, n))
    out[:, 0] = np.where(far, 2.0 * q[1] + lp + lm, (z + 1.0) * lp - (z - 1.0) * lm - 2.0)
    out[:, 1:] = (2.0 * (q[2:] - q[:-2])).T / (2 * k + 1)
    out[edge] = sign ** np.arange(n) * np.append(2.0 * math.log(2.0) - 2.0, -2.0 / (k * (k + 1)))
    return out


def crossings_legval(fixed: _FixedNodes, level: float) -> np.ndarray:
    """``measures._crossings`` as it ran before its Chebyshev form.

    The points where rho's panel interpolants cross ``level``, unsorted:
    bracketed between neighbours among the panel ends and nodes, then
    bisected, all panels at once, and the panel edges where the interpolants
    on the two sides lie on either side (at a sqrt kink they can disagree,
    by 3.6e-6 for a ``PeriodizedDensity`` at (R, lam) = (1.005, 0.005)).
    A sign change by at most 1e-12 is no bracket.  At level 1 a missed pair
    of crossings moves the sup of ``discrepancy_mixed`` by less than 1e-12
    times its width, and the fit of a panel equal to 1 rounds to 1.1e-13;
    at level 0 (ring radii) the density is 1 plus O(1) lattice terms, so it
    rounds alike, and such a sign change is not resolved."""
    nodes = np.concatenate(([-1.0], 2.0 * kernels._gl_rule(_PANEL_NODES)[0] - 1.0, [1.0]))
    excess = fixed.coef @ np.polynomial.legendre.legvander(nodes, _PANEL_NODES - 1).T - level
    above = excess > 0.0
    panel, k = np.nonzero((above[:, 1:] != above[:, :-1]) & (np.abs(np.diff(excess)) > 1e-12))
    coef, start = fixed.coef[panel].T, above[panel, k]
    u = bisect(lambda u: (np.polynomial.legendre.legval(u, coef, tensor=False) > level) == start,
               nodes[k], nodes[k + 1], 2.0**-42)
    lo, hi = fixed.edges[panel], fixed.edges[panel + 1]
    # edge p + 1 joins the end of panel p to the start of panel p + 1, the last to the first
    head = np.roll(excess[:, 0], -1)
    jump = ((excess[:, -1] > 0.0) != (head > 0.0)) & (np.abs(head - excess[:, -1]) > 1e-12)
    return np.concatenate((lo + 0.5 * (hi - lo) * (1.0 + u), fixed.edges[1:][jump]))
