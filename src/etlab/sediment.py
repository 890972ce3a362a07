"""Grid-based energy minimization on the circle with frozen Dirac potentials.

The state is a cell-averaged density on a power-of-two grid.  The interaction
energy is computed spectrally with kernel coefficients 1/(2|k|) (the cosine
expansion of -log|2 sin(pi x)| is sum cos(2 pi k x)/k, so each exponential
mode carries half of 1/k); an independent quadrature route validates this in
the test suite.  Every product with the kernel is one real FFT pair, ``rfft``
and ``irfft``, with the symbol cached per grid size.  The sediment state, where
the total potential is constant on the support and no smaller elsewhere (the
Frostman conditions), is solved for by a primal-dual active-set loop over the
support; each step is a conjugate-gradient solve preconditioned by the
circulant with the inverse symbol 2|k|, which takes a few products per solve.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, IntervalTooCoarse, NonConvergence
from .kernels import kernel_T
from .measures import _canonical_array, canonical_angle

__all__ = [
    "GridDensity",
    "ExternalPotentialSpec",
    "spectral_kernel_coefficients",
    "energy",
    "total_potential",
    "micro_diffuse",
    "diffusion_replacement_potential",
    "minimize_energy",
]


def _check_power_of_two(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise DomainError(f"n_cells must be a power of two, got {n}")


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Cell-averaged nonnegative density plus point masses at cell boundaries.

    Cell k covers [k/n, (k+1)/n); a Dirac entry (k, mass) sits at the left
    boundary k/n.  values/n summed with the Dirac masses equals total_mass.
    """

    values: np.ndarray
    diracs: tuple[tuple[int, float], ...] = ()
    total_mass: float | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        _check_power_of_two(v.size)
        if np.any(v < -1e-12):
            raise DomainError("cell values must be nonnegative")
        object.__setattr__(self, "values", np.maximum(v, 0.0))
        total = math.fsum(v.tolist()) / v.size + math.fsum(m for _, m in self.diracs)
        if self.total_mass is None:
            object.__setattr__(self, "total_mass", total)
        elif abs(total - self.total_mass) > 1e-10:
            raise DomainError(
                f"mass bookkeeping off: cells+diracs = {total}, declared {self.total_mass}")

    @property
    def n_cells(self) -> int:
        return int(self.values.size)

    @property
    def centers(self) -> np.ndarray:
        n = self.n_cells
        return (np.arange(n) + 0.5) / n


@dataclass(frozen=True)
class ExternalPotentialSpec:
    """External potential from a symmetric Dirac pair.

    U(x) = m (W(x - M) + W(x + M)), sampled at the cell centers of whatever
    grid the simulation runs on.
    """

    M: float = 0.0
    m: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(float(self.M)) and math.isfinite(float(self.m))):
            raise DomainError(f"M and m must be finite, got M={self.M}, m={self.m}")
        object.__setattr__(self, "M", canonical_angle(self.M))
        if self.m < 0.0:
            raise DomainError("Dirac pair mass must be nonnegative")

    def evaluate(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        return self.m * (kernel_T(xs - self.M) + kernel_T(xs + self.M))

    def on_grid(self, n_cells: int) -> np.ndarray:
        centers = (np.arange(n_cells) + 0.5) / n_cells
        return np.asarray(self.evaluate(centers), dtype=float)


def spectral_kernel_coefficients(n_cells: int) -> np.ndarray:
    """Kernel symbol 1/(2|k|) on the FFT frequency grid (0 at k = 0)."""
    k = np.fft.fftfreq(n_cells, d=1.0 / n_cells)
    with np.errstate(divide="ignore"):
        w = 1.0 / (2.0 * np.abs(k))
    w[0] = 0.0
    return w


@functools.lru_cache(maxsize=32)
def _half_symbol(n_cells: int) -> np.ndarray:
    """``spectral_kernel_coefficients`` at k = 0 .. n/2, the frequencies of
    ``rfft``; read-only, built once per n."""
    w = spectral_kernel_coefficients(n_cells)[: n_cells // 2 + 1]
    w.flags.writeable = False
    return w


def _interaction_potential(values: np.ndarray) -> np.ndarray:
    """(W * rho) at the cell centers, spectrally; the center phases cancel."""
    n = values.size
    return np.fft.irfft(_half_symbol(n) * np.fft.rfft(values), n)


def total_potential(rho: GridDensity, u: ExternalPotentialSpec) -> np.ndarray:
    """V_U = U + W * rho at the cell centers (density part of rho only)."""
    return u.on_grid(rho.n_cells) + _interaction_potential(rho.values)


def energy(rho: GridDensity, u: ExternalPotentialSpec) -> float:
    """mean(rho (W * rho / 2 + U)), which by Parseval is
    (1/2) sum_{k!=0} What(k) |rho_hat(k)|^2 + mean(U * rho).

    Uses the density part only; Dirac self-energy is infinite and the Dirac
    configuration is carried by U.
    """
    w_rho = _interaction_potential(rho.values)
    return float(np.mean(rho.values * (0.5 * w_rho + u.on_grid(rho.n_cells))))


def _diffusion_window(rho: GridDensity, x0: float, eps: float):
    """The window (x0 - eps, x0 + eps) snapped to the cell lattice, as
    (b0, k, idx, u, m1, m2): its center b0 / n and half-width k / n, its
    cells idx, their centers' offsets u from b0 / n, and the endpoint masses
    m1 at (b0 - k) / n and m2 at (b0 + k) / n that match the window's 0th
    and 1st moments.  The window must span at least 8 cells and less than
    half the circle."""
    n = rho.n_cells
    if not eps < 0.5:
        raise DomainError("eps must be < 1/2")
    b0 = int(round(canonical_angle(x0) * n))
    k = int(round(eps * n))
    if 2 * k < 8:
        raise IntervalTooCoarse(
            f"window spans {2 * k} cells; need at least 8 (eps = {eps}, n = {n})")
    if 2 * k >= n:
        raise DomainError("window covers the whole circle")
    idx = (b0 - k + np.arange(2 * k)) % n
    u = _canonical_array((idx + 0.5) / n - b0 / n)
    cell_mass = rho.values[idx] / n
    m1 = math.fsum((0.5 * (1.0 - u / (k / n)) * cell_mass).tolist())
    m2 = math.fsum((0.5 * (1.0 + u / (k / n)) * cell_mass).tolist())
    return b0, k, idx, u, m1, m2


def micro_diffuse(rho: GridDensity, x0: float, eps: float) -> GridDensity:
    """Replace the density on (x0 - eps, x0 + eps) by endpoint masses matching
    the 0th and 1st moments.

    x0 and eps snap to the cell lattice; the window must span at least 8
    cells and less than half the circle.  For piecewise-constant densities
    the midpoint sums are the exact moment integrals, so mass and first
    moment are conserved to rounding.
    """
    n = rho.n_cells
    b0, k, idx, _, m1, m2 = _diffusion_window(rho, x0, eps)
    new_values = rho.values.copy()
    new_values[idx] = 0.0
    new_diracs = dict(rho.diracs)
    left = (b0 - k) % n
    right = (b0 + k) % n
    new_diracs[left] = new_diracs.get(left, 0.0) + m1
    new_diracs[right] = new_diracs.get(right, 0.0) + m2
    return GridDensity(new_values, tuple(sorted(new_diracs.items())),
                       rho.total_mass)


def diffusion_replacement_potential(rho: GridDensity, x0: float, eps: float,
                                    x) -> np.ndarray:
    """Potential of (endpoint masses - removed window density) at points x,
    for the window of ``micro_diffuse`` and with its checks.

    Convexity of the kernel makes this nonnegative outside the closed window;
    per-cell 32-node Gauss-Legendre keeps the quadrature error well below the
    1e-9 assertion threshold used by the verification suite.
    """
    n = rho.n_cells
    b0, k, idx, u, m1, m2 = _diffusion_window(rho, x0, eps)
    x0_eff, eps_eff = b0 / n, k / n
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = m1 * kernel_T(xs - (x0_eff - eps_eff)) + m2 * kernel_T(xs - (x0_eff + eps_eff))
    nodes, weights = kernels._gl_rule(32)
    lows = x0_eff + u - 0.5 / n
    ys = lows[:, None] + nodes[None, :] / n
    vals = kernel_T(xs[:, None, None] - ys[None, :, :]) @ weights
    out -= (vals * rho.values[idx][None, :] / n).sum(axis=1)
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by numpy's own sum: BLAS ddot starts threads from 10,000 terms,
    and at n = 16384 they made a whole sediment run 18 times slower (3.1
    against 0.17 s) while another process kept the second of two cores busy."""
    return float((a * b).sum())


def _solve_on(support: np.ndarray, u_grid: np.ndarray, mass: float) -> np.ndarray:
    """Cell values of mean ``mass``, zero off ``support`` and with U + W * rho
    constant on it: preconditioned conjugate gradients on rho's mean-zero part
    there.

    The preconditioner extends a residual by zero to the whole circle, applies
    the circulant with symbol 2|k|, the inverse of the kernel's, and restricts
    to the support with the mean removed there (operator preconditioning of
    the log single layer by its hypersingular partner; Steinbach & Wendland
    1998), so a solve takes a few products where plain CG took about |S|.
    The loop stops where the unpreconditioned residual is 1e-13 of the
    unprojected right side, so that its rounding is not chased; where the
    curvature d . Kd is not positive or r . z is not positive and finite (they
    underflow to 0 when the right side is subnormal); or after |S|
    iterations."""
    idx = np.flatnonzero(support)
    rho = np.zeros(support.size)
    rho[idx] = base = mass * support.size / idx.size
    y = _interaction_potential(rho)[idx] + u_grid[idx]
    r = y.mean() - y
    inverse = 2.0 * np.arange(support.size // 2 + 1)  # the symbol 2|k|

    def precondition(res: np.ndarray) -> np.ndarray:
        rho[idx] = res
        z = np.fft.irfft(inverse * np.fft.rfft(rho), support.size)[idx]
        return z - z.mean()

    x, stop = np.zeros(idx.size), 1e-26 * _dot(y, y)
    z = precondition(r)
    d, rz = z, _dot(r, z)
    for _ in range(idx.size):
        if _dot(r, r) <= stop or not (math.isfinite(rz) and rz > 0.0):
            break
        rho[idx] = d
        kd = _interaction_potential(rho)[idx]
        kd -= kd.mean()
        curvature = _dot(d, kd)
        if not curvature > 0.0:
            break
        alpha = rz / curvature
        x += alpha * d
        r -= alpha * kd
        z = precondition(r)
        rz, rz_old = _dot(r, z), rz
        d = z + (rz / rz_old) * d
    rho[idx] = base + x
    return rho


def minimize_energy(u: ExternalPotentialSpec, mass: float, n_cells: int,
                    iters: int, tol: float | None = None,
                    trace: list | None = None) -> tuple[GridDensity, float]:
    """The sediment state of mass ``mass`` by primal-dual active set
    (Hintermueller, Ito & Kunisch 2002): from the full circle, solve for rho on
    the support S with V_U = U + W * rho = lam there and rho = 0 off it, then
    take S = {rho + lam - V_U > 0}, with the cell of the largest test value
    kept so that S is never empty, until S repeats or for ``iters`` steps.
    Returns the last rho, clipped at 0 and rescaled to ``mass``, and its
    residual max(V_U where rho > 1e-6 * mass) - min V_U; each step appends
    (step, energy, residual) to ``trace``.  Warns ``NonConvergence`` if S still
    moves or the residual exceeds ``tol``.
    """
    _check_power_of_two(n_cells)
    if not (math.isfinite(mass) and mass > 0.0):
        raise DomainError(f"mass must be positive and finite, got {mass}")
    if iters < 1:
        raise DomainError(f"iters must be at least 1, got {iters}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and nonnegative, got {tol}")
    u_grid = u.on_grid(n_cells)
    support = np.ones(n_cells, dtype=bool)
    for step in range(1, iters + 1):
        rho = _solve_on(support, u_grid, mass)
        v = u_grid + _interaction_potential(rho)
        test = rho + v[support].mean() - v
        following = test > 0.0
        following[np.argmax(test)] = True  # never empty
        settled = np.array_equal(following, support)
        if settled or step == iters:
            rho = np.maximum(rho, 0.0)
            rho *= mass / rho.mean()
            v = u_grid + _interaction_potential(rho)
        residual = float(v[rho > 1e-6 * mass].max() - v.min())
        if trace is not None:
            trace.append((step, 0.5 * float(np.mean(rho * (v + u_grid))), residual))
        if settled:
            break
        support = following
    if not settled or (tol is not None and residual > tol):
        warnings.warn(NonConvergence(f"residual {residual:.3e} after {step} active-set "
                                     f"steps{'' if settled else ', support still moving'}"))
    return GridDensity(rho, (), mass), residual
