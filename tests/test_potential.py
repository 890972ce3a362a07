"""The batched potential of mixed measures against independent oracles.

``potential_oracle`` is the per-point graded quadrature that
``MixedMeasureT.potential`` ran before it was batched: one adaptive rule per
density piece and per target, graded toward the target and the piece ends.
"""

import math

import mpmath
import numpy as np
import pytest

from etlab import kernels
from etlab.extremal import make_admissible, periodize, rho_type1, rho_type2
from etlab.kernels import TIGHT_SPEC, kernel_T
from etlab.measures import (
    GridBackedDensity,
    MixedMeasureT,
    UniformPlusDensity,
    _canonical_array,
    canonical_angle,
    height_T,
)


def _piece_oracle(dens, lo: float, hi: float, x: float, spec) -> float:
    """Integral of dens(y) W(x - y) over one arc, split at y = x mod 1.

    The kernel is taken against the representative of x in the arc's own
    coordinates, and a representative within 1e-15 of an arc end is moved
    onto it, so that a target on a kink puts no node on the singularity.
    """
    def integrand(at):
        return lambda y: dens(y) * kernel_T(at - np.asarray(y, dtype=float))

    if hi - lo >= 1.0 - 1e-12:
        return kernels.integrate_piece(integrand(x), x - 0.5, x + 0.5, spec,
                                       log_at=x, grade_ends=False)
    mid = 0.5 * (lo + hi)
    rep = mid + canonical_angle(x - mid)
    for end in (lo, hi):
        if abs(rep - end) < 1e-15:
            rep = end
    log_at = rep if lo <= rep <= hi else None
    return kernels.integrate_piece(integrand(rep), lo, hi, spec, log_at=log_at,
                                   grade_ends=True)


def potential_oracle(rho: MixedMeasureT, x: float, spec=TIGHT_SPEC) -> float:
    x = float(x)
    acc = [m * kernel_T(x - a) for a, m in rho.diracs]
    for lo, hi in rho.density.pieces():
        acc.append(_piece_oracle(rho.density.evaluate, lo, hi, x, spec))
    return math.fsum(acc)


FAMILIES = {
    "type1_0.02": lambda: rho_type1(0.02),
    "type1_0.05": lambda: rho_type1(0.05),
    "type1_0.2": lambda: rho_type1(0.2),
    "type1_0.45": lambda: rho_type1(0.45),
    "type2": lambda: rho_type2(0.13, 0.22, 0.034),
    "periodized_II": lambda: periodize(make_admissible(2.1, 0.1)),
    "periodized_III": lambda: periodize(make_admissible(1.4, 0.1)),
    "uniform_plus": lambda: MixedMeasureT(diracs=(), density=UniformPlusDensity(
        np.array([0.3, -0.1]), np.array([0.05, 0.2])), even=False),
}


def _kinks(rho):
    return sorted({canonical_angle(e) for piece in rho.density.pieces() for e in piece})


def _targets(rho):
    """The height_T grid at 256, the kinks, and panel edges (the edges of
    every wide panel and every fourth graded edge), all off the Diracs."""
    grid = (np.arange(256) + 0.5) / 256 - 0.5
    edges = rho._fixed_nodes.edges[:-1]
    wide = edges[np.diff(rho._fixed_nodes.edges) > 1e-3]
    xs = np.concatenate((grid, _kinks(rho), wide, edges[::4]))
    if rho.diracs:
        pos = np.array([a for a, _ in rho.diracs])
        xs = xs[np.abs(_canonical_array(xs[:, None] - pos)).min(axis=1) > 1e-12]
    return xs


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_matches_oracle_on_grid_kinks_and_panel_edges(name):
    rho = FAMILIES[name]()
    xs = _targets(rho)
    got = rho.potential(xs)
    want = np.array([potential_oracle(rho, x) for x in xs])
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-9


def test_uniform_plus_matches_closed_form():
    rho = FAMILIES["uniform_plus"]()
    xs = np.concatenate((np.linspace(-0.5, 0.5, 257), _targets(rho)))
    assert np.max(np.abs(rho.potential(xs) - rho.density.potential_exact(xs))) <= 1e-9


@pytest.mark.parametrize("name", ["type1_0.2", "type2", "periodized_III"])
def test_infinite_exactly_at_a_dirac(name):
    rho = FAMILIES[name]()
    pos = np.array([a for a, _ in rho.diracs])
    xs = np.concatenate((pos, pos + 1e-3))
    vals = rho.potential(xs)
    assert np.all(vals[:pos.size] == np.inf)
    assert np.all(np.isfinite(vals[pos.size:]))
    assert rho.potential(float(pos[0])) == math.inf


@pytest.mark.parametrize("name", ["type1_0.05", "periodized_II"])
def test_scalar_and_array_calls(name):
    rho = FAMILIES[name]()
    xs = _targets(rho)[::7]
    batch = rho.potential(xs)
    single = np.array([rho.potential(float(x)) for x in xs])
    assert isinstance(rho.potential(float(xs[0])), float)
    assert np.all(np.isfinite(single)) and np.all(np.isfinite(batch))
    assert np.max(np.abs(single - batch)) <= 1e-12
    assert rho.potential(xs.reshape(-1, 1)).shape == (xs.size, 1)


def test_bitwise_reproducible():
    xs = (np.arange(256) + 0.5) / 256 - 0.5
    a = FAMILIES["periodized_III"]()
    b = FAMILIES["periodized_III"]()
    first = a.potential(xs)
    assert np.array_equal(first, a.potential(xs))
    assert np.array_equal(first, b.potential(xs))
    assert height_T(a, 256) == height_T(b, 256)


def _grid_potential_exact(values, x) -> float:
    """Closed form: the integral of W(x - y) over [a, b] is
    [Cl2(2 pi (b - x)) - Cl2(2 pi (a - x))] / (2 pi)."""
    n = len(values)
    acc = mpmath.mpf(0)
    for k, v in enumerate(values):
        a, b = mpmath.mpf(k) / n, mpmath.mpf(k + 1) / n
        acc += float(v) * (mpmath.clsin(2, 2 * mpmath.pi * (b - x))
                           - mpmath.clsin(2, 2 * mpmath.pi * (a - x)))
    return float(acc / (2 * mpmath.pi))


@pytest.mark.parametrize("values", [
    np.ones(8),
    np.array([0.3, 1.7, 0.9, 1.2, 0.1, 2.0, 0.8, 1.0]),
    np.array([0.5, 1.5, 1.0]),
    np.array([0.4, 1.6]),
    np.array([1.0]),
])
def test_grid_backed_against_clausen_closed_form(values):
    rho = MixedMeasureT(diracs=(), density=GridBackedDensity(values), even=False)
    n = values.size
    edges = [j / n for j in range(n)] + [1.0, -0.5]
    near_edges = [1.0 / n + 1e-9, 1.0 / n - 1e-12, 0.5 - 1e-7]
    inside = [0.3, -0.37, 0.123]
    for x in edges + near_edges + inside:
        assert rho.potential(x) == pytest.approx(_grid_potential_exact(values, x), abs=1e-9)
