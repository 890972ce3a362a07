"""Exception types shared across the library.

Quadrature failures are separated from domain/contract violations so callers
can distinguish "the integrand misbehaved" from "the inputs were illegal".
"""


class EtLabError(Exception):
    """Base class for all library errors."""


class QuadratureError(EtLabError):
    """Base class for quadrature failures."""


class NonFinite(QuadratureError):
    """Integrand evaluated to a non-finite value at a quadrature node."""


class PoleOnBoundary(QuadratureError):
    """Principal-value pole coincides with (or falls outside) the integration interval."""


class DegenerateInterval(QuadratureError):
    """Integration interval has non-positive length."""


class DomainError(EtLabError):
    """Parameter outside the admissible domain of the requested construction."""


class EmptyMeasure(EtLabError):
    """Operation requires at least one atom or a nonzero density."""


class ZeroDiscrepancy(EtLabError):
    """Ratio functional undefined: the discrepancy vanishes."""


class LambdaTooLarge(EtLabError):
    """Scaling factor violates the periodization preconditions."""


class RootsUnavailable(EtLabError):
    """Operation needs the root representation but only coefficients were given."""


class ZeroCoefficient(EtLabError):
    """Polynomial has a vanishing constant or leading coefficient."""


class NonRationalWeights(EtLabError):
    """Empirical weights are not integer multiples of 1/q."""


class QTooSmall(EtLabError):
    """Rationalization denominator smaller than the number of atoms."""


class NegativeDensity(EtLabError):
    """Operation requires a nonnegative density."""


class IntervalTooCoarse(EtLabError):
    """Diffusion interval is not resolvable on the grid."""


class HNonpositive(EtLabError):
    """Conjugate-function bound requires a positive harmonic sup."""


class KNonpositive(EtLabError):
    """Conjugate-function bound requires a positive derivative sup."""


class NonConvergence(UserWarning):
    """Descent ran out of iterations above tolerance (reported, not fatal)."""
