"""Independent oracles for the benchmark's correctness checks.

Nothing here imports etlab: every reference value is computed from the
workload's inputs with plain numpy or with mpmath at high precision, so a
fault in etlab cannot hide in its own reference.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

mp.mp.dps = 30

# Points of the dense circle grid evaluated per block, to bound memory.
_BLOCK = 1 << 21


def brute_force_discrepancy(angles, weights) -> float:
    """sup over closed arcs of (mass - length), by the O(k^2) sweep over every
    atom-to-atom arc; coincident atoms are merged first."""
    ang = (np.asarray(angles, dtype=float) + 0.5) % 1.0 - 0.5
    uniq, inverse = np.unique(ang, return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inverse, np.asarray(weights, dtype=float))
    best = -math.inf
    for i in range(uniq.size):
        order = np.roll(np.arange(uniq.size), -i)
        mass = np.cumsum(w[order])
        length = (uniq[order] - uniq[i]) % 1.0
        best = max(best, float(np.max(mass - length)))
    return best


def _grid_size(n: int) -> int:
    """Power of two at least 128 n (twice etlab's 64 n) and at least 8192."""
    return 1 << max(13, math.ceil(math.log2(128 * n)))


def bernstein_interval(log_max_on_grid: float, log_a0an: float, n: int,
                       grid: int) -> tuple[float, float]:
    """Certified [H_lo, H_hi] from the maximum of log|f| on `grid` equispaced
    points: Bernstein's |f'| <= n ||f|| gives grid max <= ||f|| <=
    grid max / (1 - pi n / grid)."""
    lo = (log_max_on_grid - 0.5 * log_a0an) / n
    return lo, lo - math.log1p(-math.pi * n / grid) / n


def height_interval_roots(moduli, angles, leading: complex) -> tuple[float, float]:
    """Height interval of leading * prod (z - r_j e^{2 pi i a_j})."""
    r = np.asarray(moduli, dtype=float)
    z = r * np.exp(2j * np.pi * np.asarray(angles, dtype=float))
    n = z.size
    grid = _grid_size(n)
    step = max(1, _BLOCK // n)
    best = -math.inf
    for k0 in range(0, grid, step):
        w = np.exp(2j * np.pi * np.arange(k0, min(grid, k0 + step)) / grid)
        best = max(best, float(np.log(np.abs(w[:, None] - z[None, :])).sum(axis=1).max()))
    log_lead = math.log(abs(leading))
    log_a0an = 2.0 * log_lead + float(np.log(r).sum())
    return bernstein_interval(best + log_lead, log_a0an, n, grid)


def height_interval_coeffs(coeffs) -> tuple[float, float]:
    """Height interval of sum a_j z^j, evaluated on the grid by one FFT."""
    c = np.asarray(coeffs, dtype=complex)
    n = c.size - 1
    grid = _grid_size(n)
    vals = np.fft.ifft(c, grid) * grid  # f(e^{2 pi i k / grid})
    log_a0an = math.log(abs(c[0])) + math.log(abs(c[-1]))
    return bernstein_interval(float(np.log(np.abs(vals)).max()), log_a0an, n, grid)


def type1_height(m: float) -> float:
    """Height of rho_type1(m) from the moment integral
    H = (8 m^2 / pi) int_0^1 sqrt(1 - y^2) asin(2 m y) / (2 m y sqrt(1 - (2 m y)^2)) dy."""
    mm = mp.mpf(m)

    def f(y):
        if y == 0:
            return mp.mpf(1)
        t = 2 * mm * y
        return mp.sqrt(1 - y * y) * mp.asin(t) / (t * mp.sqrt(1 - t * t))

    return float(8 * mm * mm / mp.pi * mp.quad(f, [0, 1]))


def type1_mass(m: float) -> float:
    """Dirac 2m plus the integral of sqrt(1 - 4 m^2 / sin^2(pi x)) off the gap."""
    mm = mp.mpf(m)
    gap = mp.asin(2 * mm) / mp.pi

    def f(x):
        return mp.sqrt(max(mp.mpf(0), 1 - 4 * mm * mm / mp.sin(mp.pi * x) ** 2))

    return float(2 * mm + mp.quad(f, [gap, mp.mpf(1) / 2, 1 - gap]))


def type1_density(m: float, x) -> np.ndarray:
    """sqrt(1 - 4 m^2 / sin^2(pi x)) outside the gap |x| < asin(2 m) / pi, else 0."""
    s2 = np.sin(np.pi * np.asarray(x, dtype=float)) ** 2
    with np.errstate(divide="ignore"):
        return np.sqrt(np.maximum(1.0 - 4.0 * m * m / s2, 0.0))


def phi_pv(L: float, R: float) -> float:
    """pv int_L^R sqrt((R^2 - x^2)(x^2 - L^2)) / (x^2 - 1) dx with the pole at 1
    removed analytically: 1/(x^2-1) = (1/2)(1/(x-1) - 1/(x+1)) and
    pv int g/(x-1) = int (g - g(1))/(x-1) + g(1) log((R-1)/(1-L))."""
    LL, RR = mp.mpf(L), mp.mpf(R)

    def g(x):
        return mp.sqrt(max(mp.mpf(0), (RR * RR - x * x) * (x * x - LL * LL)))

    g1 = g(mp.mpf(1))

    def smooth(x):
        if x == 1:
            return mp.diff(g, 1)
        return (g(x) - g1) / (x - 1)

    pv = mp.quad(smooth, [LL, 1, RR]) + g1 * mp.log((RR - 1) / (1 - LL))
    return float((pv - mp.quad(lambda x: g(x) / (x + 1), [LL, RR])) / 2)


def h_tilde_line(kind: str, lam: float, R: float, L: float) -> float:
    """Line height of the admissible distribution: pi^2 (R^2 - 2) lam^2 / 2 for
    kind II, 2 pi lam^2 int_L^R sqrt((R^2 - x^2)(x^2 - L^2)) / (x + 1) dx for III."""
    if kind == "II":
        return math.pi**2 * (R * R - 2.0) * lam * lam / 2.0
    LL, RR = mp.mpf(L), mp.mpf(R)
    val = mp.quad(lambda x: mp.sqrt(max(mp.mpf(0), (RR * RR - x * x) * (x * x - LL * LL)))
                  / (x + 1), [LL, RR])
    return float(2 * mp.pi * mp.mpf(lam) ** 2 * val)


def sediment_residual(values, M: float, m: float, mass: float,
                      support_frac: float = 1e-6) -> float:
    """max over support cells of V - min V, with V = U + W * rho at the cell
    centers: U from the kernel -log|2 sin(pi x)| at the Dirac pair, W * rho
    from the kernel's Fourier symbol 1/(2|k|)."""
    v = np.asarray(values, dtype=float)
    n = v.size
    c = (np.arange(n) + 0.5) / n

    def kernel(x):
        return -np.log(np.abs(2.0 * np.sin(np.pi * x)))

    u = m * (kernel(c - M) + kernel(c + M))
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    symbol = np.zeros(n)
    symbol[1:] = 1.0 / (2.0 * k[1:])
    pot = u + np.real(np.fft.ifft(symbol * np.fft.fft(v)))
    support = v > support_frac * mass
    return float(pot[support].max() - pot.min())
