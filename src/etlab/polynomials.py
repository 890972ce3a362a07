"""Polynomial-side functionals: height, discrepancy, and the sharp bound check.

Polynomials are held by coefficients (a_0 .. a_n), by roots (modulus,
angle-in-turns) with a leading coefficient, or by both.  The analysis-side
operations (discrepancy, Schur reduction, root counts) need the roots;
``with_computed_roots`` solves a coefficient form for them, by batched
Aberth-Ehrlich steps from degree ``_ABERTH_MIN_DEGREE`` on and by
``np.roots`` (a companion-matrix eigensolve) below it or when the steps do not
converge, and keeps the coefficients beside the roots.  Where coefficients are
present they define f: the height and log|f| are read from them.

The quantities: height H[f] = (1/n) log(max_{|z|=1}|f| / sqrt|a_0 a_n|),
discrepancy D[f] of the root-angle empirical measure, and the report for
D <= sqrt(2) sqrt(H).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._search import newton_max
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
    _canonical_array,
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

# Coefficient forms of degree _ABERTH_MIN_DEGREE and above are solved by
# Aberth-Ehrlich steps; below it np.roots is faster.  On one BLAS thread and
# Gaussian coefficients np.roots against the steps took 1.3 against 2.0 ms at
# n = 40, 2.0 against 1.8 ms at 48, 3.8 against 2.9 ms at 64 and 143 against
# 17 ms at 256.  Gaussian forms converge in 7-18 steps up to n = 2048, forms
# expanded from random roots in up to 50 at n = 256; a solve with a root still
# live after _ABERTH_STEPS falls back to np.roots.
_ABERTH_MIN_DEGREE = 48
_ABERTH_STEPS = 64


@dataclass(frozen=True, eq=False)
class PolynomialSpec:
    """Degree-n complex polynomial, by coefficients, by roots or by both.

    roots are (modulus, angle) pairs with moduli > 0; angle in turns.  The
    nonvanishing of a_0 (no root at the origin) is part of the contract.
    When coefficients are present they define f, and the roots beside them
    (from ``with_computed_roots``) are derived from them: log|f|, the height
    and log|a_0 a_n| read the coefficients, the discrepancy and root counts
    read the roots.
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
            if self.coeffs is not None and r.size != self.coeffs.size - 1:
                raise DomainError("coefficients and roots disagree on the degree")
            object.__setattr__(self, "moduli", r)
            object.__setattr__(self, "angles", _canonical_array(a))
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

    def _require_roots(self) -> None:
        if not self.has_roots:
            raise RootsUnavailable(
                "operation needs the root form; call with_computed_roots() to "
                "solve the coefficient form first")

    def with_computed_roots(self) -> "PolynomialSpec":
        """Copy with roots solved from the coefficients, which it keeps (they
        still define f).  The solve runs on p(2^e w), whose end coefficients
        a_0 and a_n 2^(en) are about equal in size, and scales the roots back
        by 2^e; powers of two are exact.  Degrees from ``_ABERTH_MIN_DEGREE``
        on take batched Aberth-Ehrlich steps; smaller degrees, and solves that
        do not converge in ``_ABERTH_STEPS``, take ``np.roots``."""
        if self.has_roots:
            return self
        c = self.coeffs
        b, e = _unit_scaled(c)
        rts = _aberth_roots(b) if c.size > _ABERTH_MIN_DEGREE else None
        if rts is None:
            rts = np.roots(b[::-1])
        if e:
            rts = _ldexp(rts, e)
        return PolynomialSpec(
            coeffs=c,
            moduli=np.abs(rts),
            angles=np.angle(rts) / (2.0 * np.pi),
            leading=complex(c[-1]),
        )

    def log_a0_an_magnitude(self) -> float:
        """log |a_0 a_n| without expanding the root product; stays finite
        where |a_0 a_n| itself overflows (e.g. |a_n| = 1e308)."""
        if self.coeffs is not None:
            return math.log(abs(self.coeffs[0])) + math.log(abs(self.coeffs[-1]))
        return 2.0 * math.log(abs(self.leading)) + float(np.log(self.moduli).sum())

    def log_abs_on_circle(self, theta) -> np.ndarray:
        """log |f(e^{2 pi i theta})|.  The root form sums log |w - z_j| with
        |w - z_j|^2 = R_j^2 [((1 - r_j)/R_j)^2 + 4 (r_j/R_j)/R_j
        sin^2(pi (theta - phi_j))], R_j = max(r_j, 1): every term is
        nonnegative and none overflows, and for r_j <= 1 it is
        (1 - r_j)^2 + 4 r_j sin^2 exactly.  theta is first reduced exactly
        into [-1/2, 1/2] (theta - rint(theta)), and the angles phi_j are
        stored in [-1/2, 1/2), so theta - phi_j is exact next to a root and
        the term keeps its relative accuracy there.  Across the seam (theta
        near 1/2, phi_j near -1/2) the difference is near 1 and may lose half
        an ulp of 1, 2^-53, which moves the term by up to
        2^-53 / dist(theta, phi_j), dist in turns."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.coeffs is not None:
            z = np.exp(2j * np.pi * th)
            vals = np.polynomial.polynomial.polyval(z, self.coeffs)
            with np.errstate(divide="ignore"):
                return np.log(np.abs(vals))
        r, phi = self.moduli, self.angles
        big = np.maximum(r, 1.0)
        gap, scale = ((1.0 - r) / big) ** 2, 4.0 * (r / big) / big
        th = th - np.rint(th)
        out = np.full(th.shape, math.log(abs(self.leading)) + float(np.log(big).sum()))
        block = max(1, _BLOCK_DOUBLES // max(self.degree, 1))
        for i in range(0, th.size, block):
            sq = np.subtract.outer(th[i:i + block], phi)
            sq *= np.pi
            np.sin(sq, out=sq)
            sq *= sq
            sq *= scale
            sq += gap
            with np.errstate(divide="ignore"):
                np.log(sq, out=sq)
            out[i:i + block] += 0.5 * sq.sum(axis=1)
        return out


def _ldexp(z: np.ndarray, e) -> np.ndarray:
    """z * 2^e, exactly, part by part."""
    return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)


def _unit_scaled(c: np.ndarray) -> tuple[np.ndarray, int]:
    """(b, e) with b_k = a_k 2^(ek) and e = round(log2|a_0 / a_n| / n), so
    that the roots of sum b_k w^k are those of sum a_k z^k over 2^e and their
    geometric mean modulus is about 1: without it a form like
    1e300 z^64 + 1e-300 has roots (of modulus 4e-10) that are representable
    where z^64 and a_0 / a_n are not.  e = 0 also where |a_0|, |a_n| or some
    b_k would not be finite; where e = 0, b is c itself."""
    n = c.size - 1
    with np.errstate(over="ignore"):
        lo, hi = np.log2(np.abs(c[[0, -1]]))
        e = round((lo - hi) / n) if np.isfinite(lo - hi) else 0
        if e == 0:
            return c, 0
        b = _ldexp(c, e * np.arange(n + 1))
    return (b, e) if np.all(np.isfinite(b)) else (c, 0)


def _newton_polygon_start(c: np.ndarray) -> np.ndarray:
    """n starting points for the roots of sum a_k z^k (Bini 1996): each edge
    (k_i, k_j) of the upper convex hull of (k, log|a_k|) over the nonzero a_k
    puts k_j - k_i points, equally spaced and turned by 2 pi k_i / n + 0.7, on
    the circle of radius |a_{k_i} / a_{k_j}|^{1/(k_j - k_i)}.  a_0 and a_n are
    nonzero, so the edges run from 0 to n and give exactly n points."""
    n = c.size - 1
    k = np.flatnonzero(c)
    y = np.log(np.abs(c[k]))
    kl, yl = k.tolist(), y.tolist()
    hull = [0]
    for i in range(1, k.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (kl[b] - kl[a]) * (yl[i] - yl[a]) < (yl[b] - yl[a]) * (kl[i] - kl[a]):
                break
            hull.pop()
        hull.append(i)
    ends, logs = k[hull], y[hull]
    m = np.diff(ends)
    first = np.repeat(ends[:-1], m)
    turns = (np.arange(n) - first) / np.repeat(m, m) + first / n
    return np.repeat(np.exp((logs[:-1] - logs[1:]) / m), m) * np.exp(2j * np.pi * turns + 0.7j)


def _power_sums(x: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p(x), p'(x), sum |a_k| |x|^k) for p = sum a_k x^k at |x| <= 1, from
    row blocks of the power table x^k of about ``_BLOCK_DOUBLES`` doubles.
    The products are einsum's, not BLAS's: with BLAS's own threads and the
    other of two cores busy, a degree-1024 solve took 0.52-0.73 s against 0.15-0.23 s."""
    n = a.size - 1
    da, abs_a = a[1:] * np.arange(1, n + 1), np.abs(a)
    p, dp, bound = np.empty_like(x), np.empty_like(x), np.empty(x.size)
    rows = max(1, _BLOCK_DOUBLES // (2 * a.size))
    for i in range(0, x.size, rows):
        xb = x[i:i + rows, None]
        pw = np.ones((xb.size, a.size), dtype=complex)
        np.cumprod(np.broadcast_to(xb, (xb.size, n)), axis=1, out=pw[:, 1:])
        p[i:i + rows] = np.einsum("ij,j->i", pw, a)
        dp[i:i + rows] = np.einsum("ij,j->i", pw[:, :-1], da)
        apw = np.ones((xb.size, a.size))
        np.cumprod(np.broadcast_to(np.abs(xb), (xb.size, n)), axis=1, out=apw[:, 1:])
        bound[i:i + rows] = np.einsum("ij,j->i", apw, abs_a)
    return p, dp, bound


def _aberth_roots(c: np.ndarray) -> np.ndarray | None:
    """The roots of sum a_k z^k by simultaneous Aberth-Ehrlich steps (Bini
    1996; Bini & Robol 2014), or None if one is still moving or non-finite
    after ``_ABERTH_STEPS``.

    From ``_newton_polygon_start``, each step corrects every live root z_i by
    N_i / (1 - N_i S_i), with N_i = p/p'(z_i) and S_i = sum_{j != i}
    1/(z_i - z_j).  Beyond |z| = 1, N is read from the reversed coefficients
    q(y) = y^n p(1/y) at y = 1/z, as z q / (n q - y q'), so that nothing
    overflows.  A root stops after the step at which |p(z)| <= 4 n eps
    sum |a_k| |z|^k (or the same test on q at y) held.
    """
    n = c.size - 1
    tol = 4.0 * n * np.finfo(float).eps
    rows = max(1, _BLOCK_DOUBLES // (2 * n))
    live = np.ones(n, dtype=bool)
    with np.errstate(all="ignore"):
        z = _newton_polygon_start(c)
        for _ in range(_ABERTH_STEPS):
            idx = np.flatnonzero(live)
            if idx.size == 0 or not np.all(np.isfinite(z)):
                break
            zl = z[idx]
            out = np.abs(zl) > 1.0
            newton, done = np.empty_like(zl), np.empty(zl.size, dtype=bool)
            p, dp, bound = _power_sums(zl[~out], c)
            newton[~out] = p / dp
            done[~out] = np.abs(p) <= tol * bound
            y = 1.0 / zl[out]
            q, dq, bound = _power_sums(y, c[::-1])
            newton[out] = zl[out] * q / (n * q - y * dq)
            done[out] = np.abs(q) <= tol * bound
            pair = np.empty_like(zl)
            for i in range(0, idx.size, rows):
                d = np.subtract.outer(zl[i:i + rows], z)
                d[np.arange(d.shape[0]), idx[i:i + rows]] = np.inf
                pair[i:i + rows] = (1.0 / d).sum(axis=1)
            z[idx] = zl - newton / (1.0 - newton * pair)
            live[idx[done]] = False
    if live.any() or not np.all(np.isfinite(z)):
        return None
    return z


def _modulus_coefficients(f: PolynomialSpec) -> np.ndarray:
    """The Fourier coefficients c_0 .. c_n of P = |f|^2 / (its largest
    sample): P(theta) = c_0 + 2 Re sum_{k>=1} c_k e^{2 pi i k theta}.

    |f(e^{2 pi i theta})|^2 is a real trigonometric polynomial of degree n,
    which its values at the M = 2n + 1 points j/M determine (M is odd, so no
    Nyquist bin aliases the frequencies n and -n).  s = log|f| there comes
    from one FFT of the coefficients where they are present, else from the
    root sum; then exp(2 (s - max s)) in [0, 1] and one real FFT.  Sampling
    f itself would need the phase of every root term; |f|^2 needs none.
    """
    m = 2 * f.degree + 1
    if f.coeffs is not None:
        with np.errstate(divide="ignore"):
            s = np.log(np.abs(np.fft.ifft(f.coeffs, m, norm="forward")))
    else:
        s = f.log_abs_on_circle(np.arange(m) / m)
    return np.fft.rfft(np.exp(2.0 * (s - s.max())), norm="forward")


def _modulus_grid(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid theta_j = j/N of N = max(4096, 64 n) points and P on it, by
    one real FFT zero-padded to N.  Its values carry the rounding of the
    samples and of the FFT, about 1e-16 of max P."""
    grid_n = max(4096, 64 * (c.size - 1))
    return np.arange(grid_n) / grid_n, np.fft.irfft(c, grid_n, norm="forward")


def _modulus_slopes(c: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P', P'') at theta from the coefficients of P: the sums
    -4 pi sum k Im(c_k e^{2 pi i k theta}) and -8 pi^2 sum k^2 Re(...)."""
    k = np.arange(1, c.size, dtype=float)
    terms = np.exp(2j * np.pi * np.outer(theta, k))
    d1 = np.einsum("ij,j->i", terms, k * c[1:])
    d2 = np.einsum("ij,j->i", terms, k * k * c[1:])
    return -4.0 * np.pi * d1.imag, -8.0 * np.pi**2 * d2.real


def max_log_modulus(f: PolynomialSpec) -> tuple[float, float]:
    """(max of log|f| on the unit circle, maximizing angle).

    P = |f|^2 / (its largest sample) from its Fourier coefficients
    (``_modulus_coefficients``), on a grid of N = max(4096, 64 n) points
    (``_modulus_grid``).  Its five highest local maxima (cells at least as
    high as both neighbours) are kept, less any that Bernstein's inequality
    shows cannot reach the grid maximum: with |P''| <= (2 pi n)^2 ||P||, an
    apex is at most eps ||P|| above the cell within half a cell of it,
    eps = (pi n / N)^2 / 2, and ||P|| <= max / (1 - eps), so a peak below
    max (1 - eps / (1 - eps)) is dropped.  Safeguarded Newton
    (``newton_max``) on P', P'' from the same coefficients polishes each,
    within one grid step, to 1e-14.  Returns the largest of
    ``log_abs_on_circle`` at the polished points and at the kept grid peaks,
    each first reduced to [-1/2, 1/2): the value reported is log|f|
    evaluated at the angle reported, never read from the grid.  A careful
    search, not a certified bound.
    """
    c = _modulus_coefficients(f)
    theta, vals = _modulus_grid(c)
    step = 1.0 / theta.size
    eps = 0.5 * (np.pi * f.degree * step) ** 2
    peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    top = peaks[np.argsort(vals[peaks], kind="stable")[-5:]]
    top = top[vals[top] >= vals.max() * (1.0 - eps / (1.0 - eps))]
    x = newton_max(lambda t: _modulus_slopes(c, t), theta[top] - step, theta[top] + step,
                   1e-14)
    x = _canonical_array(np.concatenate((x, theta[top])))
    exact = f.log_abs_on_circle(x)
    j = int(np.argmax(exact))
    return float(exact[j]), float(x[j])


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
    return EmpiricalMeasure(f.angles, np.full(f.degree, 1.0 / f.degree))


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
        return asdict(self)

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
    rel = np.abs(_canonical_array(f.angles - theta))
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
                          angles=f.angles - phi,  # reduced by __post_init__
                          leading=f.leading * np.exp(2j * np.pi * phi * f.degree))


def _numerators(weights: np.ndarray, q: int) -> np.ndarray:
    """The integer numerators p_j = rint(w_j q) of weights w_j = p_j / q.

    Raises NonRationalWeights unless each w_j q is within 1e-9 q of p_j and
    the p_j sum to q.
    """
    wq = weights * q
    p = np.rint(wq).astype(np.int64)
    if np.any(np.abs(wq - p) > 1e-9 * q):
        raise NonRationalWeights("weights are not integer multiples of 1/q")
    if p.sum() != q:
        raise NonRationalWeights(f"numerators sum to {p.sum()}, expected {q}")
    return p


def synthesize_poly(rho: EmpiricalMeasure, q: int) -> PolynomialSpec:
    """Monic unimodular-root polynomial of degree q realizing rho.

    Every weight must equal p_j / q exactly (within 1e-9 of an integer
    numerator) with the numerators summing to q.
    """
    angles = np.repeat(rho.angles, _numerators(rho.weights, q))
    return PolynomialSpec(moduli=np.ones(q), angles=angles, leading=1.0 + 0.0j)


def poly_to_json(f: PolynomialSpec) -> dict:
    """The coefficients where present (they define f), else the roots."""
    if f.coeffs is not None:
        return {"coeffs": [[float(c.real), float(c.imag)] for c in f.coeffs]}
    return {
        "leading": [float(np.real(f.leading)), float(np.imag(f.leading))],
        "roots": [[float(r), float(a)] for r, a in zip(f.moduli, f.angles)],
    }


def poly_from_json(doc: dict) -> PolynomialSpec:
    if "roots" in doc and doc["roots"] is not None:
        lead = doc.get("leading", [1.0, 0.0])
        return PolynomialSpec.from_roots(doc["roots"], complex(lead[0], lead[1]))
    if "coeffs" in doc and doc["coeffs"] is not None:
        return PolynomialSpec.from_coeffs([complex(c[0], c[1]) for c in doc["coeffs"]])
    raise DomainError("polynomial document needs 'roots' or 'coeffs'")
