"""The mirror descent that ``etlab.sediment.minimize_energy`` ran before its
active-set loop, kept as an independent oracle for the tests.

It reaches the sediment state only to its stopping residual (1e-3 in the
benchmark scenarios), so the tests compare against it at that accuracy.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from etlab.errors import DomainError, NonConvergence
from etlab.measures import GridBackedDensity
from etlab.sediment import (
    ExternalPotentialSpec,
    _check_power_of_two,
    spectral_kernel_coefficients,
)


def minimize_energy(u: ExternalPotentialSpec, mass: float, n_cells: int,
                    iters: int, tol: float | None = None,
                    trace: list | None = None,
                    trace_every: int = 50) -> tuple[GridBackedDensity, float]:
    """Mirror descent toward the sediment state in the mass-``mass`` simplex.

    Multiplicative-weights updates keep the cell masses positive and
    normalized; the step starts at 0.5/max|V_U| and halves whenever the
    energy fails to decrease.  Returns the final density and the sediment
    residual: max over support cells (density > 1e-6 * mass) of
    V_U - min V_U.  Stops early once the residual is below ``tol``.
    """
    _check_power_of_two(n_cells)
    if not (math.isfinite(mass) and mass > 0.0):
        raise DomainError(f"mass must be positive and finite, got {mass}")
    if iters < 1:
        raise DomainError(f"iters must be at least 1, got {iters}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and nonnegative, got {tol}")
    n = n_cells
    u_grid = u.on_grid(n)
    p = np.full(n, mass / n)  # cell masses
    what = spectral_kernel_coefficients(n)

    def potential_of(pvec):
        return u_grid + np.real(np.fft.ifft(what * np.fft.fft(pvec * n)))

    def energy_of(pvec, v):
        interaction = 0.5 * float(np.dot(v - u_grid, pvec))
        return interaction + float(np.dot(u_grid, pvec))

    def residual_of(pvec, v):
        support = pvec * n > 1e-6 * mass
        if not support.any():
            return float("inf")
        return float(v[support].max() - v.min())

    v = potential_of(p)
    eta = 0.5 / max(float(np.abs(v).max()), 1e-9)
    e_prev = energy_of(p, v)
    residual = residual_of(p, v)
    for it in range(iters):
        g = v - v.mean()
        p_new = p * np.exp(-eta * np.clip(g, -50.0 / max(eta, 1e-12), 50.0 / max(eta, 1e-12)))
        p_new *= mass / p_new.sum()
        v_new = potential_of(p_new)
        e_new = energy_of(p_new, v_new)
        if e_new > e_prev + 1e-15:
            eta *= 0.5
            if eta < 1e-12:
                break
            continue
        p, v, e_prev = p_new, v_new, e_new
        if (it + 1) % trace_every == 0 or it == iters - 1:
            residual = residual_of(p, v)
            if trace is not None:
                trace.append((it + 1, e_prev, residual))
            if tol is not None and residual <= tol:
                break
    residual = residual_of(p, v)
    if tol is not None and residual > tol:
        warnings.warn(NonConvergence(
            f"residual {residual:.3e} still above tol {tol:.3e} after {iters} "
            "iterations"))
    return GridBackedDensity(p * n), residual
