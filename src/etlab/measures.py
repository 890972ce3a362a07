"""Measures on the circle and the line, and their discrepancy/height functionals.

Circle measures come in two flavors: ``EmpiricalMeasure`` (weighted atoms,
the root-angle distributions of polynomials) and ``MixedMeasureT`` (closed
form density families plus Dirac masses).  Line-side signed distributions are
``AdmissibleDistR`` (the one-parameter extremal families with a scaling
factor).  Angles are reals mod 1, canonicalized to [-1/2, 1/2).

The functionals:

* ``discrepancy_*``   sup over closed arcs of (mass in arc - arc length)
* ``height_T``        -min of the log-kernel potential W * rho
* ``g_ratio``         height / discrepancy**alpha
* ``h_tilde/d_tilde/g_tilde``   the line-side analogues on AdmissibleDistR

Potentials take a scalar or an array.  One engine, ``_BoxField``, sums the
kernel over weighted points: the points of the target's box and its two
neighbours exactly, every other box through a Chebyshev far field on one
level of boxes, within about 1e-15 of the plain kernel sum.
``EmpiricalMeasure.potential`` sends its atoms through it.
``MixedMeasureT.potential`` evaluates all targets in one pass: fixed nodes
graded toward the density's kinks go through the engine the same way, and on
the three panels next to x the node sum is corrected by the kernel split
-log|x - y| + smooth, product-integrated against rho's interpolant on each
panel (``_density_potential``).
``height_T`` samples its whole grid in one such call.  The mass, the
discrepancy and the discretization (``discretize.discretize_measure``) read
the same interpolants through one cumulative, ``_FixedNodes.cumulative``, so
every functional reads a density only at its fixed nodes, once per measure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from ._search import bisect, sample_min
from .errors import DomainError, EmptyMeasure, ZeroDiscrepancy
from .kernels import kernel_T

__all__ = [
    "Angle",
    "canonical_angle",
    "IntervalT",
    "EmpiricalMeasure",
    "MixedMeasureT",
    "AdmissibleDistR",
    "TypeITDensity",
    "TypeIITDensity",
    "PeriodizedDensity",
    "GridBackedDensity",
    "UniformPlusDensity",
    "discrepancy_empirical",
    "discrepancy_mixed",
    "height_T",
    "g_ratio",
    "h_tilde",
    "d_tilde",
    "g_tilde",
    "h_tilde_quadrature",
    "d_tilde_quadrature",
    "admissible_density_line",
    "measure_to_json",
    "measure_from_json",
]

Angle = float  # a point of R/Z, stored canonically in [-1/2, 1/2)


def canonical_angle(x: float) -> float:
    """Reduce mod 1 to the representative in [-1/2, 1/2).  Idempotent: an
    angle already there comes back unchanged, not rounded through x + 1/2."""
    y = float(x)
    if not -0.5 <= y < 0.5:
        y = (y + 0.5) % 1.0 - 0.5
    return 0.0 if y == 0.0 else y  # normalize -0.0


def _canonical_array(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where((x >= -0.5) & (x < 0.5), x + 0.0, (x + 0.5) % 1.0 - 0.5)  # + 0.0: no -0.0


@dataclass(frozen=True)
class IntervalT:
    """Closed arc [start, start + length] on the circle, length in [0, 1)."""

    start: Angle
    length: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", canonical_angle(self.start))
        if not (0.0 <= self.length < 1.0):
            raise DomainError(f"arc length must lie in [0, 1), got {self.length}")

    @property
    def end(self) -> Angle:
        return canonical_angle(self.start + self.length)


# ---------------------------------------------------------------------------
# Empirical measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Weighted Dirac atoms on the circle, sorted by angle, duplicates merged."""

    angles: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_pairs(cls, pairs) -> "EmpiricalMeasure":
        if len(pairs) == 0:
            return cls(np.empty(0), np.empty(0))
        return cls(np.array([p[0] for p in pairs], dtype=float),
                   np.array([p[1] for p in pairs], dtype=float))

    def __post_init__(self) -> None:
        ang = np.asarray(self.angles, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if ang.shape != wts.shape or ang.ndim != 1:
            raise ValueError("angles and weights must be 1-d arrays of equal length")
        # checked before the reduction, which would warn on an infinite angle
        if not np.all(np.isfinite(ang) & np.isfinite(wts) & (wts > 0.0)):
            raise DomainError("atom angles must be finite and weights finite and strictly positive")
        ang = _canonical_array(ang)
        order = np.argsort(ang, kind="stable")
        ang, wts = ang[order], wts[order]
        if ang.size:
            # merge exactly coincident atoms
            keep = np.empty(ang.size, dtype=bool)
            keep[0] = True
            keep[1:] = ang[1:] != ang[:-1]
            idx = np.cumsum(keep) - 1
            merged_w = np.zeros(int(idx[-1]) + 1)
            np.add.at(merged_w, idx, wts)
            ang, wts = ang[keep], merged_w
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "weights", wts)

    @property
    def total(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    @property
    def n_atoms(self) -> int:
        return int(self.angles.size)

    def is_probability(self, tol: float = 1e-12) -> bool:
        return abs(self.total - 1.0) <= tol

    def rotated(self, phi: float) -> "EmpiricalMeasure":
        return EmpiricalMeasure(_canonical_array(self.angles + phi), self.weights.copy())

    def potential(self, x) -> np.ndarray | float:
        """(W * rho)(x) at a scalar or at every point of an array; +inf
        exactly at an atom.

        The atoms of the target's box and its two neighbours are summed
        exactly; all other boxes reach it through a Chebyshev far field built
        once per measure (``_BoxField``), to within about 1e-15 of the plain
        kernel sum.  The near pairs go in blocks of contiguous windows and the
        far field is interpolated by Clenshaw's recurrence, so the
        temporaries are a few doubles per target.
        """
        xs = np.asarray(x, dtype=float)
        out = self._box_field(xs.ravel())
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    @cached_property
    def _box_field(self) -> "_BoxField":
        field = _BoxField.build(self.angles, self.weights)
        # the atoms become the first n entries of the field's wrapped copy,
        # equal to them, so that a set of atoms is stored once
        object.__setattr__(self, "angles", field.angles)
        object.__setattr__(self, "weights", field.weights)
        return field


# The kernel sum over every weighted point at every target (the atoms of an
# empirical measure, the fixed nodes of a density: one call path for both),
# one level of the black-box fast multipole method (Fong & Darve, J. Comput.
# Phys. 228, 2009).  [-1/2, 1/2) splits into B equal boxes, B the largest
# power of two not above n / _BOX_ATOMS for n points (1 for fewer than
# 2 * _BOX_ATOMS).  A target sums the points of its own box and of its two
# neighbours exactly.  Boxes two or more away reach it through
# _CHEB_NODES Chebyshev nodes per box: the weights of each box are anterpolated
# onto its nodes, the kernel between the nodes of boxes b and c depends on
# (b - c) mod B only, so every far box is summed in one FFT convolution, and
# the target interpolates from the nodes of its own box.  With B <= 2 no box
# is far and the sum is exact.  A far pair is at least one box width apart, so
# interpolation in each variable converges like (3 + sqrt 8)**-p: 5e-16 at
# p = 20.  Every blocked kernel evaluation takes blocks of about _BLOCK_DOUBLES
# pairs.  Smaller blocks would pay the Python overhead of a block's dozen numpy
# calls more often: 2**12 made a sharpness_chain pass about 10% slower.  At
# 2**14 a block's arrays are near 128 KiB, glibc's default mmap and trim
# threshold.  With that threshold fixed (MALLOC_MMAP_THRESHOLD_=131072, as
# perfbench runs), they are mapped or trimmed and faulted in afresh, block
# after block.  A sharpness_chain pass makes about 10,000 minor faults so,
# where the near pass with per-pair modulo, bincount and an out-of-place
# kernel made about 33,000; under glibc's sliding threshold it makes a handful.
_BOX_ATOMS = 16
_CHEB_NODES = 20
_BLOCK_DOUBLES = 2**14


def _cheb_nodes(n: int) -> np.ndarray:
    return np.cos(np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n))


def _cheb_fit(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at first-kind nodes."""
    n = values.shape[0]
    k = np.arange(n)
    basis = np.cos(np.pi * np.outer(k, 2.0 * k + 1.0) / (2.0 * n))
    coeffs = (2.0 / n) * basis @ values
    coeffs[0] /= 2.0
    return coeffs


_CHEB_POINTS = _cheb_nodes(_CHEB_NODES)
# q[j, k] = alpha_j cos(j theta_k) = alpha_j T_j(t_k): the interpolant through
# values v_k at the nodes t_k = cos(theta_k) is sum_j T_j(u) (q @ v)_j
_CHEB_FIT = _cheb_fit(np.eye(_CHEB_NODES))


def _clenshaw(coef: np.ndarray, box: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_j coef[j, box] T_j(u) per target, by Clenshaw's recurrence; the
    temporaries are a few arrays the size of the result."""
    b1 = b2 = np.zeros(u.size)
    u2 = 2.0 * u
    for j in range(_CHEB_NODES - 1, 0, -1):
        b1, b2 = coef[j][box] + u2 * b1 - b2, b1
    return coef[0][box] + u * b1 - b2


@lru_cache(maxsize=None)
def _far_transfer(n_boxes: int) -> np.ndarray:
    """rfft over the box offset d of the node-to-node kernel
    W((d + (t_k - t_l) / 2) / B), zero for the near offsets d = -1, 0, 1."""
    t = _CHEB_POINTS
    d = np.arange(n_boxes)
    far = np.minimum(d, n_boxes - d) >= 2
    k = np.zeros((n_boxes, _CHEB_NODES, _CHEB_NODES))
    k[far] = kernel_T((d[far, None, None] + 0.5 * (t[:, None] - t[None, :])) / n_boxes)
    out = np.fft.rfft(k, axis=0)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class _BoxField:
    """Weighted points sorted by angle, their boxes and the far field in each
    box; calling it sums the kernel over the points at each target."""

    angles: np.ndarray    # ascending, in [-1/2, 1/2)
    weights: np.ndarray   # one weight per point
    wrapped_angles: np.ndarray   # the angles, then the first K again: every
    wrapped_weights: np.ndarray  # window lo, ..., lo + len - 1 is one slice
    n_boxes: int
    near_lo: np.ndarray   # index of the first point of boxes b - 1, b, b + 1
    near_len: np.ndarray  # their point count, at most the number of points
    coef: np.ndarray      # coef[j, b]: degree-j Chebyshev coefficient of the far field in box b

    @classmethod
    def build(cls, angles: np.ndarray, weights: np.ndarray) -> "_BoxField":
        """The field of the points."""
        n = weights.size
        n_boxes = 1 << max(0, (n // _BOX_ATOMS).bit_length() - 1)
        s = (angles + 0.5) * n_boxes
        box = np.minimum(s.astype(np.int64), n_boxes - 1)  # ascending, as the points
        start = np.searchsorted(box, np.arange(n_boxes + 1))
        count = np.diff(start)
        prev, nxt = np.roll(np.arange(n_boxes), 1), np.roll(np.arange(n_boxes), -1)
        near_lo, near_len = start[prev], np.minimum(n, count[prev] + count + count[nxt])
        # moments[b, j, 0] = sum of weights T_j(u) over the points of box b,
        # one degree at a time so the temporaries stay the size of the set
        # (T_{-1} = T_1 = u starts the recurrence at T_0 = 1)
        u = 2.0 * (s - box) - 1.0
        moments = np.empty((n_boxes, _CHEB_NODES, 1))
        t_prev, t = u, np.ones(n)
        for j in range(_CHEB_NODES):
            moments[:, j, 0] = np.bincount(box, weights * t, minlength=n_boxes)
            t_prev, t = t, 2.0 * u * t - t_prev
        # anterpolate onto the nodes, convolve over the box index, and fit
        # the far field at the nodes of each box
        at_nodes = np.fft.irfft(_far_transfer(n_boxes) @ np.fft.rfft(_CHEB_FIT.T @ moments, axis=0),
                                n=n_boxes, axis=0)
        wrap = np.arange(int(np.max(near_lo + near_len)))
        wrapped_angles = np.take(angles, wrap, mode="wrap")
        wrapped_weights = np.take(weights, wrap, mode="wrap")
        return cls(wrapped_angles[:n], wrapped_weights[:n], wrapped_angles, wrapped_weights,
                   n_boxes, near_lo, near_len,
                   np.ascontiguousarray((_CHEB_FIT @ at_nodes)[:, :, 0].T))

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """sum_i weights[i] W(x - angles[i]) at each x."""
        s = (xs + 0.5) % 1.0 * self.n_boxes  # in [0, B) for finite x
        box = np.nan_to_num(s).astype(np.int64)
        # the far field goes after the near sums: computed first, it left a
        # sharpness_chain run's peak RSS 0.3 MB higher under a fixed mmap threshold
        near = self._window_sums(xs, self.near_lo[box], self.near_len[box])
        return near + _clenshaw(self.coef, box, 2.0 * (s - box) - 1.0)

    def _window_sums(self, xs: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
        """Exact kernel sum at each x over the points lo, ..., lo + length - 1
        of the wrapped copy; 0 over an empty window.

        Targets go through in blocks of about ``_BLOCK_DOUBLES`` pairs, a
        target with a longer window in a block of its own: the differences of
        a block in one array, one kernel call, and one segment sum per target.
        """
        out = np.zeros(xs.size)
        ends = np.cumsum(length)
        i = 0
        while i < xs.size:
            base = ends[i] - length[i]
            j = max(i + 1, int(np.searchsorted(ends, base + _BLOCK_DOUBLES, side="right")))
            size = length[i:j]
            first = ends[i:j] - size - base  # each target's first pair in the block
            if ends[j - 1] > base:
                idx = np.repeat(lo[i:j] - first, size)
                idx += np.arange(idx.size)
                diff = np.repeat(xs[i:j], size)
                diff -= self.wrapped_angles[idx]
                pairs = kernel_T(diff)
                # in range; mode 'raise' would gather into a buffer, not into diff
                pairs *= np.take(self.wrapped_weights, idx, out=diff, mode="clip")
                full = size > 0
                out[i:j][full] = np.add.reduceat(pairs, first[full])
            i = j
        return out


def _check_probability(rho: EmpiricalMeasure) -> None:
    if rho.n_atoms == 0:
        raise EmptyMeasure("measure has no atoms")
    if not rho.is_probability(1e-9):
        raise DomainError(f"expected a probability measure, total mass = {rho.total}")


def discrepancy_empirical(rho: EmpiricalMeasure) -> tuple[float, IntervalT]:
    """Exact sup over closed arcs of (mass - length), with a maximizing arc.

    Optimal arcs have both endpoints at atoms (shrinking an endpoint onto the
    nearest atom keeps the mass and reduces the length), so with prefix sums
    A_j = W_j - theta_j and B_i = W_{i-1} - theta_i every closed atom-to-atom
    arc value is A_j - B_i, and the sup is max A - min B.  O(n log n) overall.
    """
    _check_probability(rho)
    theta = rho.angles
    w = rho.weights
    prefix = np.cumsum(w)
    a_vals = prefix - theta
    b_vals = np.concatenate(([0.0], prefix[:-1])) - theta
    j = int(np.argmax(a_vals))
    i = int(np.argmin(b_vals))
    value = float(a_vals[j] - b_vals[i])
    length = (theta[j] - theta[i]) % 1.0 if i != j else 0.0
    return value, IntervalT(theta[i], length)


# ---------------------------------------------------------------------------
# Density families on the circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeITDensity:
    """sqrt(1 - 4 m^2 / sin^2(pi x)) outside the central gap |x| < asin(2m)/pi."""

    m: float

    def __post_init__(self) -> None:
        if not (0.0 < self.m <= 0.5):
            raise DomainError(f"need 0 < m <= 1/2, got {self.m}")

    @property
    def gap(self) -> float:
        return math.asin(2.0 * self.m) / math.pi

    def evaluate(self, x) -> np.ndarray:
        xs = _canonical_array(x)
        s2 = np.sin(np.pi * xs) ** 2
        out = np.zeros_like(xs)
        mask = np.abs(xs) >= self.gap
        out[mask] = np.sqrt(np.maximum(1.0 - 4.0 * self.m**2 / s2[mask], 0.0))
        return out

    def pieces(self) -> list[tuple[float, float]]:
        if self.m >= 0.5:
            return []
        return [(self.gap, 1.0 - self.gap)]


@dataclass(frozen=True)
class TypeIITDensity:
    """Two-arc density with Dirac positions at +-M; support |x| in [0,L] u [R,1/2]."""

    M: float
    R: float
    L: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.L < self.M < self.R < 0.5):
            raise DomainError(
                f"need 0 <= L < M < R < 1/2, got L={self.L}, M={self.M}, R={self.R}")

    def dirac_mass(self) -> float:
        M, R, L = self.M, self.R, self.L
        prod = (-math.sin(math.pi * (M - R)) * math.sin(math.pi * (M + R))
                * math.sin(math.pi * (M - L)) * math.sin(math.pi * (M + L)))
        return math.sqrt(prod) / math.sin(2.0 * math.pi * M)

    def evaluate(self, x) -> np.ndarray:
        xs = _canonical_array(x)
        M, R, L = self.M, self.R, self.L
        num = (np.sin(np.pi * (xs - R)) * np.sin(np.pi * (xs + R))
               * np.sin(np.pi * (xs - L)) * np.sin(np.pi * (xs + L)))
        den = np.abs(np.sin(np.pi * (xs - M)) * np.sin(np.pi * (xs + M)))
        out = np.zeros_like(xs)
        mask = (np.abs(xs) <= L) | (np.abs(xs) >= R)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.sqrt(np.maximum(num, 0.0)) / den
        out[mask] = vals[mask]
        return out

    def pieces(self) -> list[tuple[float, float]]:
        out = []
        if self.L > 0.0:
            out.append((-self.L, self.L))
        out.append((self.R, 1.0 - self.R))
        return out


@dataclass(frozen=True)
class GridBackedDensity:
    """Piecewise-constant cell-averaged density; cell k covers [k/n, (k+1)/n)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)):
            raise DomainError("cell values must be a nonempty 1-d array of finite numbers")
        object.__setattr__(self, "values", values)

    @property
    def n_cells(self) -> int:
        return int(self.values.size)

    def evaluate(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float) % 1.0
        idx = np.minimum((xs * self.n_cells).astype(int), self.n_cells - 1)
        return self.values[idx]

    def pieces(self) -> list[tuple[float, float]]:
        n = self.n_cells
        return [(k / n, (k + 1) / n) for k in range(n)]


@dataclass(frozen=True)
class UniformPlusDensity:
    """1 + sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x)."""

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray | None = None

    def __post_init__(self) -> None:
        c = np.asarray(self.cos_coeffs, dtype=float)
        s = (np.zeros_like(c) if self.sin_coeffs is None
             else np.asarray(self.sin_coeffs, dtype=float))
        if c.shape != s.shape:
            raise ValueError("cos and sin coefficient arrays must have equal length")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(s))):
            raise DomainError("cos and sin coefficients must be finite")
        object.__setattr__(self, "cos_coeffs", c)
        object.__setattr__(self, "sin_coeffs", s)

    def evaluate(self, x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        k = np.arange(1, self.cos_coeffs.size + 1)
        phase = 2.0 * np.pi * np.multiply.outer(xs, k)
        return 1.0 + np.cos(phase) @ self.cos_coeffs + np.sin(phase) @ self.sin_coeffs

    def potential_exact(self, x) -> np.ndarray:
        """Closed-form W * rho using the cosine expansion of the kernel."""
        xs = np.asarray(x, dtype=float)
        k = np.arange(1, self.cos_coeffs.size + 1)
        phase = 2.0 * np.pi * np.multiply.outer(xs, k)
        return np.cos(phase) @ (self.cos_coeffs / (2.0 * k)) \
            + np.sin(phase) @ (self.sin_coeffs / (2.0 * k))

    def pieces(self) -> list[tuple[float, float]]:
        return [(-0.5, 0.5)]


# ---------------------------------------------------------------------------
# Admissible distributions on the line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleDistR:
    """Signed extremal distribution on the line with scaling factor lam.

    kind "I":   -1 + sqrt(x^2 - pi^-2)/|x| outside |x| < 1/pi, unit Dirac at 0
    kind "II":  -1 + |x| sqrt(x^2-R^2)/|x^2-1| outside |x| < R, mass m at +-1
    kind "III": -1 + sqrt((x^2-R^2)(x^2-L^2))/|x^2-1| on |x| in [0,L] u [R,oo),
                mass m at +-1
    All are even, mean zero, and O(1/x^2) at infinity; the unscaled potential
    -log|.| * mu vanishes identically outside the support ring.
    """

    kind: str
    lam: float = 1.0
    R: float | None = None
    L: float | None = None
    m: float = field(init=False)  # Dirac mass at +-1, set from (R, L)

    def __post_init__(self) -> None:
        if self.kind not in ("I", "II", "III"):
            raise DomainError(f"kind must be 'I', 'II' or 'III', got {self.kind!r}")
        # h_tilde scales as lam**2: a square that overflows, or underflows
        # below the normal range, leaves g_tilde = h_tilde / d_tilde**2
        # infinite, 0/0 or short of digits
        if not (self.lam > 0.0 and sys.float_info.min <= self.lam * self.lam < math.inf):
            raise DomainError(
                f"scaling factor must be positive with a normal, finite square, got {self.lam}")
        if self.kind == "I":
            if self.R is not None or self.L is not None:
                raise DomainError("kind I takes no R or L")
            object.__setattr__(self, "m", 1.0)
            return
        if self.R is None or not 1.0 < self.R < math.inf:
            raise DomainError(f"kinds II/III require a finite R > 1, got {self.R}")
        L = 0.0 if self.kind == "II" else self.L
        if self.kind == "III" and (L is None or not (0.0 < L < 1.0)):
            raise DomainError("kind III requires 0 < L < 1")
        object.__setattr__(self, "L", L)
        try:
            m = math.pi * math.sqrt((self.R**2 - 1.0) * (1.0 - L**2)) / 2.0
        except OverflowError:
            raise DomainError(f"R = {self.R} gives a Dirac mass that is not finite") from None
        object.__setattr__(self, "m", m)

    def with_lam(self, lam: float) -> "AdmissibleDistR":
        return AdmissibleDistR(self.kind, lam, self.R, self.L)

    def dirac_positions_masses(self) -> list[tuple[float, float]]:
        """Scaled Dirac atoms: (position, mass)."""
        if self.kind == "I":
            return [(0.0, self.lam)]
        return [(-self.lam, self.lam * self.m), (self.lam, self.lam * self.m)]

    def support_edges(self) -> list[float]:
        """Positive radii where the scaled density has sqrt-type kinks."""
        if self.kind == "I":
            return [self.lam / math.pi]
        if self.kind == "II":
            return [self.lam * self.R]
        return [self.lam * self.L, self.lam * self.R]

    def tail_coefficients(self) -> tuple[float, float]:
        """(c, d) with unscaled density(u) = c/u^2 + d/u^4 + O(u^-6) at infinity."""
        if self.kind == "I":
            p2 = math.pi**-2
            return -p2 / 2.0, -p2**2 / 8.0
        a, b = self.R**2, (self.L or 0.0) ** 2
        c = 1.0 - (a + b) / 2.0
        d = 1.0 - (a + b) / 2.0 + a * b / 4.0 - (a * a + b * b) / 8.0
        return c, d


def admissible_density_line(mu: AdmissibleDistR, t) -> np.ndarray:
    """Pointwise scaled density (background -1 included, Diracs excluded).

    Vectorized and silent about Dirac locations; the scalar, raising variant
    is ``extremal.density_R``.
    """
    au = np.abs(np.asarray(t, dtype=float) / mu.lam)
    out = np.full_like(au, -1.0)
    # sqrt((u^2 - R^2)(u^2 - L^2)) / |u^2 - p^2| as the root of four bounded,
    # nonnegative ratios such as (|u| - R) / (|u| - p): |u| - R is exact next
    # to a support edge, and nothing overflows far out, where the unfactored
    # product does from |u| ~ 1e77 on.  Kind I, sqrt(u^2 - 1/pi^2) / |u|, is
    # (R, L, p) = (1/pi, 0, 0); only kind III has u = 0 on its support.
    R, L, pole = (1.0 / math.pi, 0.0, 0.0) if mu.kind == "I" else (mu.R, mu.L, 1.0)
    mask = (au >= R) | ((au <= L) & (L > 0.0))
    a = au[mask]
    below, above = a - pole, a + pole
    out[mask] += np.sqrt((a - R) / below * ((a + R) / above)
                         * ((a - L) / below) * ((a + L) / above))
    return out


# ---------------------------------------------------------------------------
# Periodization density (near translates summed, far lattice interpolated)
# ---------------------------------------------------------------------------

_LATTICE_J = 400  # translates summed; the Bernoulli-series tail restores the rest
# The far translates are analytic on [-1/2, 1/2] with their nearest kink at
# least 4/3 from the centre, so their Chebyshev interpolant converges like
# 5.14**-n, its Bernstein ellipse (Trefethen, ATAP ch. 8): 9e-18 at 24.
_FAR_NODES = 24


def _lattice_sum(mu: AdmissibleDistR, xs: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """sum of mu(x - j) over the shifts j at each x, in blocks of about
    ``_BLOCK_DOUBLES`` terms."""
    out = np.empty(xs.size)
    block = max(1, _BLOCK_DOUBLES // max(1, shifts.size))
    for i in range(0, xs.size, block):
        out[i:i + block] = admissible_density_line(mu, xs[i:i + block, None] - shifts).sum(axis=1)
    return out


def _lattice_tail(mu: AdmissibleDistR, xs: np.ndarray) -> np.ndarray:
    """sum of mu(x - j) over |j| > _LATTICE_J from mu(t) ~ c lam^2/t^2 +
    d lam^4/t^4, by the large-z Bernoulli series of sum_{k >= 0} (z + k)^-2 and
    sum_{k >= 0} (z + k)^-4 in w = 1/z (DLMF 5.15.8)."""
    # Needs z >= 400.5: there the first dropped terms, w^7/42 and 2 w^9/9, are
    # below 2e-16 of their sums.
    c, d = mu.tail_coefficients()
    return sum(c * mu.lam**2 * w * (1.0 + w * (1 / 2 + w * (1 / 6 - w * w / 30)))
               + d * mu.lam**4 * w**3 * (1 / 3 + w * (1 / 2 + w * (1 / 3 - w * w / 6)))
               for w in (1.0 / (_LATTICE_J + 1.0 + xs), 1.0 / (_LATTICE_J + 1.0 - xs)))


class PeriodizedDensity:
    """1 + sum_j mu(x - j) for an admissible line distribution (Diracs excluded).

    At x in [-1/2, 1/2) the translates |j| <= n are summed, n = ceil(E + 1/3)
    for the outer support edge E (n = 1 within the lambda gate of ``periodize``,
    where E <= 0.661): the rest have every kink at least 4/3 from the centre and
    come from one Chebyshev interpolant, fitted once per measure from the sum
    over n < |j| <= 400 and its tail.  ``evaluate_direct`` sums |j| <= 400 and the tail.
    """

    def __init__(self, mu: AdmissibleDistR):
        self.mu = mu
        kinks = sorted({canonical_angle(s * e) for e in mu.support_edges() for s in (1, -1)})
        self._arcs = [(lo, hi) for lo, hi in zip(kinks, kinks[1:] + [kinks[0] + 1.0])
                      if hi - lo > 1e-13]
        n = math.ceil(min(max(mu.support_edges()) + 1.0 / 3.0, _LATTICE_J))
        self._near = np.arange(-n, n + 1.0)
        far = np.arange(n + 1, _LATTICE_J + 1)
        nodes = 0.5 * _cheb_nodes(_FAR_NODES)
        self._far = _cheb_fit(_lattice_sum(mu, nodes, np.concatenate((-far[::-1], far)))
                              + _lattice_tail(mu, nodes))

    def evaluate_direct(self, x) -> np.ndarray:
        xs = np.atleast_1d(_canonical_array(x))
        return 1.0 + _lattice_sum(self.mu, xs, np.arange(-_LATTICE_J, _LATTICE_J + 1)) \
            + _lattice_tail(self.mu, xs)

    def evaluate(self, x) -> np.ndarray:
        xs = np.atleast_1d(_canonical_array(x))
        return 1.0 + _lattice_sum(self.mu, xs, self._near) \
            + np.polynomial.chebyshev.chebval(2.0 * xs, self._far)

    def pieces(self) -> list[tuple[float, float]]:
        return list(self._arcs)


# ---------------------------------------------------------------------------
# Mixed measures on the circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MixedMeasureT:
    """Dirac masses plus a closed-form density family on the circle."""

    diracs: tuple[tuple[Angle, float], ...]
    density: object | None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = tuple((canonical_angle(a), float(m)) for a, m in self.diracs)
        if not all(math.isfinite(a) and 0.0 < m < math.inf for a, m in clean):
            raise DomainError("Dirac positions must be finite and masses finite and strictly positive")
        object.__setattr__(self, "diracs", tuple(sorted(clean)))

    @property
    def dirac_total(self) -> float:
        return float(math.fsum(m for _, m in self.diracs))

    def density_eval(self, x) -> np.ndarray:
        if self.density is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.density.evaluate(x)

    def density_mass(self) -> float:
        """The sum of the fixed-node weights: the integral of rho's panel
        interpolants, correctly rounded."""
        fixed = self._fixed_nodes
        return 0.0 if fixed is None else fixed.mass

    def mass(self) -> float:
        return self.dirac_total + self.density_mass()

    def potential(self, x):
        """(W * rho)(x) at a scalar or at every point of an array; +inf exactly
        at a Dirac.

        Every density goes through one batched pass that reads it only at
        its fixed nodes (``_density_potential``).  The Diracs are a plain sum.
        """
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel()
        out = np.zeros(flat.size)
        if self.diracs:
            pos, mass = np.array(self.diracs).T
            out += kernel_T(flat[:, None] - pos[None, :]) @ mass
        if self._fixed_nodes is not None:
            out += _density_potential(self._fixed_nodes, flat)
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    @cached_property
    def _fixed_nodes(self) -> "_FixedNodes | None":
        """The nodes every functional reads the density at; None with no
        density, or one without support."""
        if self.density is None or not self.density.pieces():
            return None
        return _FixedNodes.build(self.density)


# The batched potential of a density.  Panels between its kinks take fixed
# Gauss-Legendre nodes, so the density is evaluated there once per measure,
# and every node reaches x through the nodes' box field.  On the panel holding
# x and its two neighbours that node sum is corrected by kernel splitting
# (Helsing & Ojala, J. Comput. Phys. 227, 2008): W(t) = -log|t| + s(t) with s
# smooth for |t| < 1, so adding w rho log|t| over their nodes leaves the node
# sum of s, and -log|t| is integrated exactly against rho's interpolant on
# each of the three panels.
_PANEL_WIDTH = 1.0 / 16.0  # widest fixed panel
_PANEL_NODES = 24          # Gauss-Legendre nodes per fixed panel
_KINK_LEVELS = 40          # dyadic levels of the end panels toward each kink


@dataclass(frozen=True, eq=False)
class _FixedNodes:
    """Fixed quadrature nodes covering [edges[0], edges[0] + 1), and the
    Legendre interpolant of rho through the nodes of each panel.

    The density's kinks, the edges of its pieces, split the circle into
    arcs; each arc takes equal panels no wider than 1/16, and its two end
    panels are split dyadically toward the kinks (every sub-panel kept),
    except on the cells of a ``GridBackedDensity``, where it is constant.
    """

    edges: np.ndarray   # panel edges, ascending; edges[-1] = edges[0] + 1
    first: int          # position of panel 0's first node among the sorted nodes
    field: _BoxField    # the nodes, canonical and ascending, weighted w rho
    coef: np.ndarray    # coef[panel, k]: Legendre coefficient k of rho on the panel
    mass: float         # fsum of the weights: the integral of the interpolants, correctly rounded

    @classmethod
    def build(cls, density) -> "_FixedNodes":
        ends = sorted({canonical_angle(e) for piece in density.pieces() for e in piece})
        # edges within 1e-13 of each other, also across the seam, are one kink
        kinks = [e for e, prev in zip(ends, [-math.inf] + ends[:-1]) if e - prev > 1e-13]
        if len(kinks) > 1 and kinks[0] + 1.0 - kinks[-1] <= 1e-13:
            kinks.pop()
        ends = kinks + [kinks[0] + 1.0]
        grade = not isinstance(density, GridBackedDensity)
        edges = [np.array([ends[0]])]
        for lo, hi in zip(ends[:-1], ends[1:]):
            n = max(1 + grade, math.ceil((hi - lo) / _PANEL_WIDTH))
            step = (hi - lo) / n
            # the innermost sub-panel stays wider than 64 ulp of an O(1) angle
            levels = grade * max(1, min(_KINK_LEVELS, int(math.log2(step / (64.0 * kernels._EPS)))))
            graded = 0.5 ** np.arange(levels, 0, -1)
            edges += [lo + step * graded, lo + step * np.arange(1, n),
                      hi - step * graded[::-1], np.array([hi])]
        edges = np.concatenate(edges)
        nodes, weights = kernels._gl_rule(_PANEL_NODES)
        widths = np.diff(edges)
        y = (edges[:-1, None] + widths[:, None] * nodes).ravel()
        w = (widths[:, None] * weights).ravel()
        rho = density.evaluate(y)
        w_rho = w * rho
        # values at the Gauss nodes t of [-1, 1] @ fit = the Legendre coefficients
        # of their interpolant, (k + 1/2) w(t) P_k(t) with w(t) = 2 weights
        fit = np.polynomial.legendre.legvander(2.0 * nodes - 1.0, _PANEL_NODES - 1) \
            * (weights[:, None] * (2.0 * np.arange(_PANEL_NODES) + 1.0))
        # the nodes at or above 1/2 wrap to the front as y - 1, which is exact
        first = (y.size - int(np.searchsorted(y, 0.5))) % y.size
        ys = np.roll(np.where(y >= 0.5, y - 1.0, y), first)
        return cls(edges, first, _BoxField.build(ys, np.roll(w_rho, first)),
                   rho.reshape(widths.size, _PANEL_NODES) @ fit, math.fsum(w_rho.tolist()))

    def _locate(self, t: np.ndarray):
        """(turns, x, p, z): t = turns + x with x in [edges[0], edges[0] + 1)
        up to rounding, the panel p holding x, and x's place z in [-1, 1]
        on that panel."""
        edges = self.edges
        turns = np.floor(t - edges[0])
        x = t - turns
        p = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2)
        return turns, x, p, ((x - edges[p]) - (edges[p + 1] - x)) / (edges[p + 1] - edges[p])

    def values(self, t: np.ndarray) -> np.ndarray:
        """rho's panel interpolant at each real t."""
        _, _, p, z = self._locate(t)
        return np.polynomial.legendre.legval(z, self.coef[p].T, tensor=False)

    def cumulative(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The integrals of rho(y) and of y rho(y) over [edges[0], t] at each
        real t, whole turns counted, exact for the panel interpolants.
        Whole panels are prefix sums (int P_0 = 2 and int u P_1 = 2/3 on
        [-1, 1]); the panel holding t takes the Legendre antiderivatives
        A(z) = int_{-1}^z p and B(z) = int_{-1}^z A, since
        int_{-1}^z u p(u) du = z A(z) - B(z)."""
        edges, coef = self.edges, self.coef
        h = 0.5 * np.diff(edges)
        c0 = np.concatenate(([0.0], np.cumsum(2.0 * h * coef[:, 0])))
        c1 = np.concatenate(([0.0], np.cumsum(
            h * (2.0 * (edges[:-1] + h) * coef[:, 0] + (2.0 / 3.0) * h * coef[:, 1]))))
        turns, x, p, z = self._locate(t)
        anti = np.polynomial.legendre.legint(coef, lbnd=-1.0, axis=1)
        a = np.polynomial.legendre.legval(z, anti[p].T, tensor=False)
        b = np.polynomial.legendre.legval(
            z, np.polynomial.legendre.legint(anti, lbnd=-1.0, axis=1)[p].T, tensor=False)
        mass, moment = c0[p] + h[p] * a, c1[p] + h[p] * (x * a - h[p] * b)
        # turn k adds the mass T and the moment M1 + k T of [edges[0] + k, edges[0] + k + 1)
        total, first = c0[-1], c1[-1]
        return (turns * total + mass,
                turns * first + 0.5 * turns * (turns - 1.0) * total + turns * mass + moment)


def _log_moments(z: np.ndarray) -> np.ndarray:
    """I_k(z) = int_{-1}^{1} P_k(t) log|z - t| dt, k < _PANEL_NODES, at each z
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


def _density_potential(fixed: _FixedNodes, xs: np.ndarray) -> np.ndarray:
    """W * rho at every x: the box field over every node, corrected on the
    panel holding x and its two neighbours, in blocks of about
    ``_BLOCK_DOUBLES`` doubles."""
    edges, field, coef = fixed.edges, fixed.field, fixed.coef
    n_panels, n_nodes = edges.size - 1, field.angles.size
    x = _canonical_array(xs)
    # A target on a node, where W is +inf, moves to the next double above it
    # that is no node.  On every measure tried distinct nodes are at least 2
    # ulps apart, so the move is one ulp and the potential moves by under 1e-15.
    on = field.angles[np.searchsorted(field.angles, x) % n_nodes] == x
    while np.any(on):
        x[on] = _canonical_array(np.nextafter(x[on], 1.0))
        on[on] = field.angles[np.searchsorted(field.angles, x[on]) % n_nodes] == x[on]
    out = field(x)
    rel = edges[0] + (x - edges[0]) % 1.0
    p = np.clip(np.searchsorted(edges, rel, side="right") - 1, 0, n_panels - 1)
    local = (p - 1) * _PANEL_NODES + fixed.first  # the first node of panel p - 1
    ext = np.concatenate(([edges[-2] - 1.0], edges, [edges[1] + 1.0]))
    block = max(1, _BLOCK_DOUBLES // (3 * _PANEL_NODES))
    for i in range(0, x.size, block):
        s = slice(i, i + block)
        # the field's own pairs on panels p - 1, p and p + 1: the same doubles
        # x and y, reduced as kernel_T reduces them, so log|t| cancels exactly
        idx = (local[s, None] + np.arange(3 * _PANEL_NODES)) % n_nodes
        t = x[s, None] - field.angles[idx]
        t -= np.rint(t)
        near = (field.weights[idx] * np.log(np.abs(t))).sum(axis=1)
        q = p[s, None] + np.arange(-1, 2)  # panels p - 1, p, p + 1
        lo, hi = ext[q + 1], ext[q + 2]    # unwrapped across the seam
        h = 0.5 * (hi - lo)
        z = ((rel[s, None] - lo) - (hi - rel[s, None])) / (hi - lo)
        c = coef[q % n_panels]
        logs = 2.0 * np.log(h) * c[..., 0] + (_log_moments(z.ravel()).reshape(c.shape) * c).sum(-1)
        out[s] += near - (h * logs).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Discrepancy and height for mixed measures
# ---------------------------------------------------------------------------


def discrepancy_mixed(rho: MixedMeasureT) -> tuple[float, IntervalT]:
    """Sup of (mass - length) over closed arcs of a probability measure,
    with a maximizing arc.

    The bookkeeping of ``discrepancy_empirical``: with M the cumulative mass
    from the first kink, the sup is max_t (M(t+) - t) - min_s (M(s-) - s)
    over the points where either can peak: the panel edges of the fixed
    nodes, the Diracs, and the points where rho's interpolant on a panel
    crosses 1.  The density part of M is ``_FixedNodes.cumulative``, so the
    density is read only at its fixed nodes.  ``rho_type1(m)`` takes its
    closed form 2m, the Dirac alone.
    """
    if isinstance(rho.density, TypeITDensity) and rho.diracs == ((0.0, 2.0 * rho.density.m),):
        return 2.0 * rho.density.m, IntervalT(0.0, 0.0)
    total = rho.mass()
    if not abs(total - 1.0) <= 1e-9:  # the arcs across the seam assume mass 1
        raise DomainError(f"expected a probability measure, total mass = {total}")
    fixed = rho._fixed_nodes
    base = -0.5 if fixed is None else fixed.edges[0]
    pos, mass = np.array(rho.diracs, dtype=float).reshape(-1, 2).T
    pos = base + (pos - base) % 1.0
    order = np.argsort(pos, kind="stable")
    pos, dirac_cum = pos[order], np.concatenate(([0.0], np.cumsum(mass[order])))
    t = pos if fixed is None else np.concatenate((fixed.edges, _crossings(fixed, 1.0), pos))
    density = 0.0 if fixed is None else fixed.cumulative(t)[0]
    a_vals = density + dirac_cum[np.searchsorted(pos, t, side="right")] - (t - base)
    b_vals = density + dirac_cum[np.searchsorted(pos, t, side="left")] - (t - base)
    j, i = int(np.argmax(a_vals)), int(np.argmin(b_vals))
    length = float((t[j] - t[i]) % 1.0) if i != j else 0.0
    return float(a_vals[j] - b_vals[i]), IntervalT(t[i], min(length, 1.0 - 1e-15))


def _crossings(fixed: _FixedNodes, level: float) -> np.ndarray:
    """The points where rho's panel interpolants cross ``level``, unsorted:
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


def height_T(rho, grid_n: int = 1024) -> tuple[float, Angle]:
    """-(min of W * rho) over the circle, with the minimizing angle.

    The atoms are an atomic measure's angles or a mixed measure's Diracs.
    One call samples the potential on the half-cell-shifted grid and the
    atom-gap midpoints, less those within 1e-12 of an atom; ``sample_min``
    polishes the best sample x0 to 1e-10 on x0 +- 1/grid_n, kept 1e-13
    inside its neighbouring atoms, at 32 points per potential call: 7 calls
    at grid_n 256, 6 at 2048 and 4096.  The potential of atoms alone is
    convex between atoms, so its minimum lies between x0's two neighbouring
    samples; the constructed densities have flat or smooth bottoms.  Where
    the potential is flat to rounding, as on the support of ``rho_type1(m)``,
    the angle is any point of the flat set; the height does not move.
    """
    if grid_n < 256:
        raise DomainError("grid_n must be at least 256")
    if isinstance(rho, EmpiricalMeasure):
        _check_probability(rho)
        theta = rho.angles
    else:
        theta = np.array([a for a, _ in rho.diracs])
    cands = (np.arange(grid_n) + 0.5) / grid_n - 0.5
    if theta.size:
        gaps_mid = _canonical_array(theta + 0.5 * ((np.roll(theta, -1) - theta) % 1.0))
        cands = np.concatenate((cands, gaps_mid))
        cands = cands[_nearest_atom_distance(theta, cands) > 1e-12]
    vals = rho.potential(cands)
    k = int(np.argmin(vals))
    x0 = cands[k]
    lo, hi = x0 - 1.0 / grid_n, x0 + 1.0 / grid_n
    if theta.size:
        rel = (theta - x0) % 1.0
        lo = max(lo, x0 - float(np.min((-rel) % 1.0)) + 1e-13)
        hi = min(hi, x0 + float(np.min(rel)) - 1e-13)
    x, v = sample_min(rho.potential, lo, hi, 1e-10)
    if vals[k] < v[0]:
        return -float(vals[k]), canonical_angle(x0)
    return -float(v[0]), canonical_angle(x[0])


def _nearest_atom_distance(theta: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Circular distance from each x to the nearest atom of sorted, nonempty
    theta: one of the two circular neighbours of x (both in [-1/2, 1/2))."""
    right = np.searchsorted(theta, xs) % theta.size
    left = right - 1  # -1 wraps to the last atom
    return np.minimum(np.abs(_canonical_array(xs - theta[left])),
                      np.abs(_canonical_array(xs - theta[right])))


def g_ratio(rho, alpha: float = 2.0, grid_n: int = 1024) -> float:
    """height / discrepancy**alpha for a circle probability measure.

    A discrepancy within 1e-14 of 0, the rounding of the mixed scan's O(1)
    cumulative masses, counts as vanishing.
    """
    if isinstance(rho, EmpiricalMeasure):
        d, _ = discrepancy_empirical(rho)
    else:
        d, _ = discrepancy_mixed(rho)
    if d <= 1e-14:
        raise ZeroDiscrepancy("discrepancy vanishes; ratio undefined")
    h, _ = height_T(rho, grid_n)
    return h / d**alpha


# ---------------------------------------------------------------------------
# Line-side functionals
# ---------------------------------------------------------------------------


def h_tilde(mu: AdmissibleDistR) -> float:
    """Integral of the generated potential over the line; scales as lam^2.

    Kinds I and II have closed forms (1/2 and pi^2 (R^2 - 2)/2); kind III
    reduces to a pole-free integral with sqrt endpoints on [L, R].
    """
    lam2 = mu.lam**2
    if mu.kind == "I":
        return 0.5 * lam2
    if mu.kind == "II":
        return lam2 * math.pi**2 * (mu.R**2 - 2.0) / 2.0
    R, L = mu.R, mu.L

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.maximum((R - x) * (R + x) * (x - L) * (x + L), 0.0)) / (x + 1.0)

    return lam2 * 2.0 * math.pi * kernels.integrate_sqrt_endpoints(f, L, R)


def d_tilde(mu: AdmissibleDistR) -> float:
    """Signed mass of the closed window [-lam, lam]; scales as lam."""
    if mu.kind == "I":
        return mu.lam
    if mu.kind == "II":
        return mu.lam * (math.pi * math.sqrt(mu.R**2 - 1.0) - 2.0)
    R, L = mu.R, mu.L

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.maximum((R - x) * (R + x) * (L - x) * (L + x), 0.0)) \
            / ((1.0 - x) * (1.0 + x))

    inner = kernels.integrate_sqrt_endpoints(f, -L, L)
    return mu.lam * (2.0 * mu.m - 2.0 + inner)


def g_tilde(mu: AdmissibleDistR) -> float:
    """h_tilde / d_tilde^2; invariant under the scaling factor."""
    return h_tilde(mu) / d_tilde(mu) ** 2


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


def d_tilde_quadrature(mu: AdmissibleDistR) -> float:
    """d_tilde by integrating the density over the closed unit window."""
    if mu.kind == "I":
        return mu.lam
    unscaled = mu.with_lam(1.0)

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


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def measure_to_json(rho) -> dict:
    """Serialize either measure flavor to the shared document schema.

    Angles are in turns (full revolutions); masses dimensionless.
    """
    if isinstance(rho, EmpiricalMeasure):
        return {"atoms": [[float(a), float(w)] for a, w in zip(rho.angles, rho.weights)]}
    fam = None
    d = rho.density
    if isinstance(d, TypeITDensity):
        fam = {"tag": "TypeI_T", "params": {"m": d.m}}
    elif isinstance(d, TypeIITDensity):
        fam = {"tag": "TypeII_T", "params": {"M": d.M, "R": d.R, "L": d.L}}
    elif isinstance(d, PeriodizedDensity):
        mu = d.mu
        fam = {"tag": "Periodized",
               "params": {"kind": mu.kind, "lambda": mu.lam, "R": mu.R, "L": mu.L}}
    elif isinstance(d, GridBackedDensity):
        fam = {"tag": "GridBacked", "params": {"values": d.values.tolist()}}
    elif isinstance(d, UniformPlusDensity):
        fam = {"tag": "UniformPlus",
               "params": {"cos": d.cos_coeffs.tolist(), "sin": d.sin_coeffs.tolist()}}
    elif d is not None:
        raise TypeError(f"unknown density family {type(d).__name__}")
    return {
        "diracs": [[float(a), float(m)] for a, m in rho.diracs],
        "family": fam,
    }


def measure_from_json(doc: dict):
    """Inverse of measure_to_json."""
    if "atoms" in doc and doc.get("atoms") is not None and "family" not in doc:
        return EmpiricalMeasure.from_pairs(doc["atoms"])
    fam = doc.get("family")
    density = None
    if fam is not None:
        tag, params = fam["tag"], fam.get("params", {})
        if tag == "TypeI_T":
            density = TypeITDensity(params["m"])
        elif tag == "TypeII_T":
            density = TypeIITDensity(params["M"], params["R"], params["L"])
        elif tag == "Periodized":
            mu = AdmissibleDistR(params["kind"], params["lambda"],
                                 params.get("R"), params.get("L"))
            density = PeriodizedDensity(mu)
        elif tag == "GridBacked":
            density = GridBackedDensity(np.asarray(params["values"], dtype=float))
        elif tag == "UniformPlus":
            density = UniformPlusDensity(np.asarray(params["cos"], dtype=float),
                                         np.asarray(params.get("sin"), dtype=float)
                                         if params.get("sin") is not None else None)
        else:
            raise ValueError(f"unknown family tag {tag!r}")
    return MixedMeasureT(
        diracs=tuple((a, m) for a, m in doc.get("diracs", [])),
        density=density,
    )
