"""Polynomial-side functionals: height, discrepancy, and the sharp bound check.

Polynomials are held either by coefficients (a_0 .. a_n) or by roots
(modulus, angle-in-turns) with a leading coefficient.  The analysis-side
operations (discrepancy, Schur reduction, root counts) need the root form;
coefficient-only inputs can opt into a companion-matrix root solve via
``with_computed_roots``.

The quantities: height H[f] = (1/n) log(max_{|z|=1}|f| / sqrt|a_0 a_n|),
discrepancy D[f] of the root-angle empirical measure, and the report for
D <= sqrt(2) sqrt(H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import golden_min
from .errors import (
    DomainError,
    NonRationalWeights,
    RootsUnavailable,
    ZeroCoefficient,
)
from .measures import (
    _BLOCK_DOUBLES,
    EmpiricalMeasure,
    IntervalT,
    canonical_angle,
    discrepancy_empirical,
)

__all__ = [
    "PolynomialSpec",
    "EtReport",
    "RealRootReport",
    "max_log_modulus",
    "height_poly",
    "sector_count",
    "discrepancy_poly",
    "check_et",
    "schur_reduce",
    "count_at_angle",
    "real_root_check",
    "synthesize_poly",
    "rotate_poly",
    "poly_to_json",
    "poly_from_json",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class PolynomialSpec:
    """Degree-n complex polynomial, by coefficients or by roots.

    roots are (modulus, angle) pairs with moduli > 0; angle in turns.  The
    nonvanishing of a_0 (no root at the origin) is part of the contract.
    """

    coeffs: np.ndarray | None = None        # a_0 .. a_n
    moduli: np.ndarray | None = None
    angles: np.ndarray | None = None
    leading: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.coeffs is not None:
            c = np.asarray(self.coeffs, dtype=complex)
            if c.size < 2:
                raise DomainError("degree must be at least 1")
            if not np.all(np.isfinite(c)):
                raise DomainError("coefficients must be finite")
            if c[0] == 0 or c[-1] == 0:
                raise ZeroCoefficient("a_0 and a_n must be nonzero")
            object.__setattr__(self, "coeffs", c)
        if self.moduli is not None or self.angles is not None:
            r = np.asarray(self.moduli, dtype=float)
            a = np.asarray(self.angles, dtype=float)
            if r.shape != a.shape or r.ndim != 1 or r.size == 0:
                raise DomainError("moduli and angles must be 1-d arrays of equal length")
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(a))
                    and np.isfinite(self.leading)):
                raise DomainError("moduli, angles and the leading coefficient must be finite")
            if np.any(r <= 0.0):
                raise ZeroCoefficient("root at the origin (a_0 = 0) is not allowed")
            if self.leading == 0:
                raise ZeroCoefficient("leading coefficient must be nonzero")
            object.__setattr__(self, "moduli", r)
            object.__setattr__(self, "angles", (a + 0.5) % 1.0 - 0.5)
        if self.coeffs is None and self.moduli is None:
            raise DomainError("provide coefficients or roots")

    @classmethod
    def from_roots(cls, roots, leading: complex = 1.0) -> "PolynomialSpec":
        r = np.array([p[0] for p in roots], dtype=float)
        a = np.array([p[1] for p in roots], dtype=float)
        return cls(moduli=r, angles=a, leading=complex(leading))

    @classmethod
    def from_coeffs(cls, coeffs) -> "PolynomialSpec":
        return cls(coeffs=np.asarray(coeffs, dtype=complex))

    @property
    def has_roots(self) -> bool:
        return self.moduli is not None

    @property
    def degree(self) -> int:
        if self.has_roots:
            return int(self.moduli.size)
        return int(self.coeffs.size - 1)

    def roots_complex(self) -> np.ndarray:
        self._require_roots()
        return self.moduli * np.exp(2j * np.pi * self.angles)

    def _require_roots(self) -> None:
        if not self.has_roots:
            raise RootsUnavailable(
                "operation needs the root form; call with_computed_roots() to "
                "solve the coefficient form first")

    def with_computed_roots(self) -> "PolynomialSpec":
        """Root-form copy; coefficient inputs are solved by companion matrix."""
        if self.has_roots:
            return self
        rts = np.roots(self.coeffs[::-1])
        return PolynomialSpec(
            moduli=np.abs(rts),
            angles=np.angle(rts) / (2.0 * np.pi),
            leading=complex(self.coeffs[-1]),
        )

    def expanded_coeffs(self) -> np.ndarray:
        """a_0 .. a_n from the root form (conditioning limits apply)."""
        if self.coeffs is not None:
            return self.coeffs
        c = np.array([1.0 + 0.0j])
        for z in self.roots_complex():
            c = np.convolve(c, np.array([-z, 1.0 + 0.0j]))
        return c * self.leading

    def log_a0_an_magnitude(self) -> float:
        """log |a_0 a_n| without expanding the root product; stays finite
        where |a_0 a_n| itself overflows (e.g. |a_n| = 1e308)."""
        if self.has_roots:
            return 2.0 * math.log(abs(self.leading)) + float(np.log(self.moduli).sum())
        return math.log(abs(self.coeffs[0])) + math.log(abs(self.coeffs[-1]))

    def log_abs_on_circle(self, theta) -> np.ndarray:
        """log |f(e^{2 pi i theta})|, stable in the root form."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.has_roots:
            out = np.full(th.shape, math.log(abs(self.leading)))
            block = max(1, _BLOCK_DOUBLES // max(self.degree, 1))
            for i in range(0, th.size, block):
                d = th[i:i + block, None] - self.angles[None, :]
                sq = 1.0 + self.moduli**2 - 2.0 * self.moduli * np.cos(2.0 * np.pi * d)
                with np.errstate(divide="ignore"):
                    out[i:i + block] += 0.5 * np.log(np.maximum(sq, 0.0)).sum(axis=1)
            return out
        z = np.exp(2j * np.pi * th)
        vals = np.polynomial.polynomial.polyval(z, self.coeffs)
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
    vals = f.log_abs_on_circle(theta)
    top = np.argsort(vals)[-5:]
    x, neg = golden_min(lambda t: -f.log_abs_on_circle(t),
                        theta[top] - 1.0 / grid_n, theta[top] + 1.0 / grid_n, 1e-14)
    j = int(np.argmin(neg))
    if -neg[j] > vals[top[-1]]:
        return float(-neg[j]), canonical_angle(x[j])
    return float(vals[top[-1]]), canonical_angle(theta[top[-1]])


def height_poly(f: PolynomialSpec) -> float:
    """(1/n) log( max_{|z|=1} |f| / sqrt|a_0 a_n| )."""
    log_mag = f.log_a0_an_magnitude()
    if not math.isfinite(log_mag):
        raise ZeroCoefficient("height needs nonzero, finite a_0 and a_n")
    peak, _ = max_log_modulus(f)
    return (peak - 0.5 * log_mag) / f.degree


def empirical_from_roots(f: PolynomialSpec) -> EmpiricalMeasure:
    """Root-angle empirical measure (1/n per root; moduli ignored)."""
    f._require_roots()
    n = f.degree
    return EmpiricalMeasure.from_pairs(list(zip(f.angles.tolist(), [1.0 / n] * n)))


def sector_count(f: PolynomialSpec, alpha: float, beta: float) -> int:
    """Number of roots (with multiplicity) whose angle lies in the closed arc
    [alpha, beta], where alpha <= beta < alpha + 1."""
    f._require_roots()
    if not (alpha <= beta < alpha + 1.0):
        raise DomainError("need alpha <= beta < alpha + 1")
    rel = (f.angles - alpha) % 1.0
    width = beta - alpha
    return int(np.count_nonzero((rel <= width) | (rel >= 1.0 - 1e-15)))


def discrepancy_poly(f: PolynomialSpec) -> tuple[float, IntervalT]:
    """Discrepancy of the root-angle distribution of f."""
    return discrepancy_empirical(empirical_from_roots(f))


@dataclass(frozen=True)
class EtReport:
    """Outcome of the sharp-bound check D <= sqrt(2) sqrt(H)."""

    D: float
    H: float
    bound: float
    witness: IntervalT
    margin: float
    holds: bool

    def to_json(self) -> dict:
        return {
            "D": self.D, "H": self.H, "bound": self.bound,
            "witness": {"start": self.witness.start, "length": self.witness.length},
            "margin": self.margin, "holds": self.holds,
        }

    def summary(self) -> str:
        verdict = "holds" if self.holds else "VIOLATED"
        return (f"D={self.D:.6g} H={self.H:.6g} bound=sqrt(2H)={self.bound:.6g} "
                f"margin={self.margin:.3g} -> {verdict}")


def check_et(f: PolynomialSpec) -> EtReport:
    """Evaluate D, H, and the bound sqrt(2) sqrt(H) for f (f(0) != 0)."""
    d, witness = discrepancy_poly(f)
    h = height_poly(f)
    bound = SQRT2 * math.sqrt(max(h, 0.0))
    margin = bound - d
    return EtReport(D=d, H=h, bound=bound, witness=witness,
                    margin=margin, holds=d <= bound + 1e-9)


def schur_reduce(f: PolynomialSpec) -> PolynomialSpec:
    """Project all roots to the unit circle (monic), keeping the angles.

    The discrepancy is unchanged; on |z| = 1 the reduced polynomial satisfies
    |f~(z)| <= |f(z)| / sqrt|a_0 a_n| (single-root identity
    1 + r^2 - 2 r cos >= r (2 - 2 cos)), so the height does not increase.
    """
    f._require_roots()
    return PolynomialSpec(moduli=np.ones_like(f.moduli), angles=f.angles.copy(),
                          leading=1.0 + 0.0j)


def count_at_angle(f: PolynomialSpec, theta: float) -> int:
    """Multiplicity-counted roots at the exact angle theta (within 1e-12 in angle)."""
    f._require_roots()
    rel = np.abs((f.angles - theta + 0.5) % 1.0 - 0.5)
    return int(np.count_nonzero(rel <= 1e-12))


@dataclass(frozen=True)
class RealRootReport:
    n_positive: int
    n_negative: int
    H: float
    bound: float  # sqrt(2) sqrt(H) * n
    holds: bool


def real_root_check(f: PolynomialSpec) -> RealRootReport:
    """Check the signed real-root counts against sqrt(2) sqrt(H) n."""
    n_pos = count_at_angle(f, 0.0)
    n_neg = count_at_angle(f, 0.5)
    h = height_poly(f)
    bound = SQRT2 * math.sqrt(max(h, 0.0)) * f.degree
    return RealRootReport(n_pos, n_neg, h, bound,
                          holds=max(n_pos, n_neg) <= bound + 1e-9)


def rotate_poly(f: PolynomialSpec, phi: float) -> PolynomialSpec:
    """g(z) = f(z e^{2 pi i phi}): root angles shift by -phi, height unchanged."""
    f._require_roots()
    return PolynomialSpec(moduli=f.moduli.copy(),
                          angles=(f.angles - phi + 0.5) % 1.0 - 0.5,
                          leading=f.leading * np.exp(2j * np.pi * phi * f.degree))


def synthesize_poly(rho: EmpiricalMeasure, q: int) -> PolynomialSpec:
    """Monic unimodular-root polynomial of degree q realizing rho.

    Every weight must equal p_j / q exactly (within 1e-9 of an integer
    numerator) with the numerators summing to q.
    """
    numerators = rho.weights * q
    p = np.rint(numerators).astype(int)
    if np.any(np.abs(numerators - p) > 1e-9 * q):
        raise NonRationalWeights("weights are not integer multiples of 1/q")
    if p.sum() != q:
        raise NonRationalWeights(f"numerators sum to {p.sum()}, expected {q}")
    angles = np.repeat(rho.angles, p)
    return PolynomialSpec(moduli=np.ones(q), angles=angles, leading=1.0 + 0.0j)


def poly_to_json(f: PolynomialSpec) -> dict:
    if f.has_roots:
        return {
            "leading": [float(np.real(f.leading)), float(np.imag(f.leading))],
            "roots": [[float(r), float(a)] for r, a in zip(f.moduli, f.angles)],
        }
    return {"coeffs": [[float(c.real), float(c.imag)] for c in f.coeffs]}


def poly_from_json(doc: dict) -> PolynomialSpec:
    if "roots" in doc and doc["roots"] is not None:
        lead = doc.get("leading", [1.0, 0.0])
        return PolynomialSpec.from_roots(doc["roots"], complex(lead[0], lead[1]))
    if "coeffs" in doc and doc["coeffs"] is not None:
        return PolynomialSpec.from_coeffs([complex(c[0], c[1]) for c in doc["coeffs"]])
    raise DomainError("polynomial document needs 'roots' or 'coeffs'")
