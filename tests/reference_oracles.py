"""Second paths for quantities the library computes one way, kept as oracles
for the tests: the line-side H~ and D~ by quadrature of their integrals (no
closed forms), the periodized density by its plain lattice sum, and the
potential of a UniformPlus density by the kernel's cosine expansion."""

from __future__ import annotations

import math

import numpy as np

from etlab import kernels
from etlab.measures import (
    _LATTICE_J,
    AdmissibleDistR,
    PeriodizedDensity,
    UniformPlusDensity,
    _canonical_array,
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
