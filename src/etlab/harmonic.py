"""Conjugate harmonic pairs on the circle and the sharp oscillation bound.

From a smooth probability density rho on the circle, build the boundary pair

    v(theta) = int_0^theta (1 - rho) - c_rho        (mean zero)
    u = conjugate of v = -(1/pi) W * rho            (mean zero)

and check the sharp estimate osc(v) <= sqrt(2 pi) sqrt(H K) with H = sup u
and K = sup(1 - rho); harmonicity puts both disk sups on the boundary, so no
interior sampling is needed.  The oscillation of v equals the discrepancy of
rho, which is how the circle-measure optimum transfers to this setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, HNonpositive, KNonpositive, NegativeDensity
from .extremal import rho_type1
from .measures import _canonical_array

__all__ = [
    "conjugate_pair",
    "GaneliusReport",
    "ganelius_check",
    "triangular_mollifier",
    "mollified_type1_samples",
    "random_nonneg_trig_samples",
]


def _validate_density_samples(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 1 or rho.size < 16:
        raise DomainError("need a 1-d sample array of length >= 16")
    if not np.all(np.isfinite(rho)):
        raise DomainError("density samples must be finite")
    if rho.min() < -1e-10:
        raise NegativeDensity(f"density samples dip to {rho.min()}")
    mean = float(rho.mean())
    if abs(mean - 1.0) > 1e-6:
        raise DomainError(f"density must have mean 1, got {mean}")
    return np.maximum(rho, 0.0)


def conjugate_pair(rho_samples) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) sampled at j/n from density samples at j/n.

    v is the cumulative trapezoid of (1 - rho) recentered to mean zero; u is
    its conjugate, applied spectrally as multiplication of the Fourier
    coefficients by i sgn(k) (equivalently u = -(1/pi) W * rho).  Both come
    back mean zero.
    """
    rho = _validate_density_samples(rho_samples)
    n = rho.size
    f = 1.0 - rho
    h = 1.0 / n
    v = np.zeros(n)
    v[1:] = np.cumsum(0.5 * (f[:-1] + f[1:])) * h
    v -= v.mean()
    k = np.fft.fftfreq(n, d=h)
    u = np.real(np.fft.ifft(1j * np.sign(k) * np.fft.fft(v)))
    u -= u.mean()
    return u, v


@dataclass(frozen=True)
class GaneliusReport:
    H: float
    K: float
    osc_v: float
    bound: float  # sqrt(2 pi) sqrt(H K)
    holds: bool
    ratio: float

    def to_json(self) -> dict:
        return {"H": self.H, "K": self.K, "osc_v": self.osc_v,
                "bound": self.bound, "holds": self.holds, "ratio": self.ratio}

    def summary(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        return (f"osc(v)={self.osc_v:.6g} <= sqrt(2*pi*H*K)={self.bound:.6g} "
                f"(H={self.H:.6g}, K={self.K:.6g}, ratio={self.ratio:.4f}) -> {verdict}")


def ganelius_check(rho_samples) -> GaneliusReport:
    """Evaluate the sharp conjugate-function bound for a sampled density.

    H = max u and K = max(1 - rho) must both be positive (the bound is
    vacuous or ill-posed otherwise); the boundary maxima equal the disk
    maxima by harmonicity.
    """
    rho = _validate_density_samples(rho_samples)
    u, v = conjugate_pair(rho)
    h_sup = float(u.max())
    k_sup = float((1.0 - rho).max())
    if h_sup <= 0.0:
        raise HNonpositive(f"sup u = {h_sup} <= 0")
    if k_sup <= 0.0:
        raise KNonpositive(f"sup(1 - rho) = {k_sup} <= 0")
    osc = float(v.max() - v.min())
    bound = math.sqrt(2.0 * math.pi * h_sup * k_sup)
    return GaneliusReport(H=h_sup, K=k_sup, osc_v=osc, bound=bound,
                          holds=osc <= bound + 1e-9, ratio=osc / bound)


def triangular_mollifier(t, a: float) -> np.ndarray:
    """The unit-mass triangular bump max(1 - |t|/a, 0)/a."""
    tt = np.asarray(t, dtype=float)
    return np.maximum(1.0 - np.abs(tt) / a, 0.0) / a


def mollified_type1_samples(m: float, grid_n: int = 4096,
                            a: float | None = None) -> np.ndarray:
    """Samples at j/grid_n of the triangular mollification of rho_type1(m).

    The Dirac at the origin becomes 2m * mollifier; the arc density is
    convolved by Gauss-Legendre over the (tiny) mollifier support, split at
    its central kink.
    """
    if a is None:
        a = 2.0 / grid_n
    if not 0.0 < a <= 0.25:
        raise DomainError(f"mollifier width must be in (0, 1/4], got {a}")
    rho = rho_type1(m)
    theta = np.arange(grid_n) / grid_n
    out = 2.0 * m * triangular_mollifier(_canonical_array(theta), a)
    nodes, weights = kernels._gl_rule(32)
    for lo, hi in ((-a, 0.0), (0.0, a)):
        ts = lo + (hi - lo) * nodes
        psi = triangular_mollifier(ts, a) * weights * (hi - lo)
        out += rho.density_eval(theta[:, None] - ts[None, :]) @ psi
    return out


def random_nonneg_trig_samples(rng: np.random.Generator, grid_n: int = 2048) -> np.ndarray:
    """Mean-1 nonnegative trig-polynomial samples for the verification corpus.

    The degree is drawn from 1..32, coefficients with a 1/k taper, and the
    fluctuation is rescaled so the density dips to 1 - 0.95 > 0; K = max(1 - rho)
    stays positive.
    """
    deg = int(rng.integers(1, 33))
    k = np.arange(1, deg + 1)
    a = rng.normal(size=deg) / k
    b = rng.normal(size=deg) / k
    theta = np.arange(grid_n) / grid_n
    phase = 2.0 * np.pi * np.outer(theta, k)
    g = np.cos(phase) @ a + np.sin(phase) @ b
    g -= g.mean()
    span = max(float(-g.min()), float(g.max()), 1e-9)
    return 1.0 + g * (0.95 / span)
