import math

import numpy as np
import pytest

from reference_oracles import potential_exact
from etlab.errors import DomainError, HNonpositive, NegativeDensity
from etlab.harmonic import (
    conjugate_pair,
    ganelius_check,
    mollified_type1_samples,
    triangular_mollifier,
)
from etlab.measures import MixedMeasureT, UniformPlusDensity, discrepancy_mixed, height_T


GRID = 4096
THETA = np.arange(GRID) / GRID


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


class TestConjugatePair:
    def test_uniform_gives_zero(self):
        u, v = conjugate_pair(np.ones(GRID))
        assert np.abs(u).max() <= 1e-14
        assert np.abs(v).max() <= 1e-14

    def test_single_mode_closed_form(self):
        rho = 1.0 + np.cos(2.0 * np.pi * THETA)
        u, v = conjugate_pair(rho)
        assert np.abs(v + np.sin(2.0 * np.pi * THETA) / (2.0 * math.pi)).max() <= 1e-6
        assert np.abs(u + np.cos(2.0 * np.pi * THETA) / (2.0 * math.pi)).max() <= 1e-6

    def test_mean_zero_outputs(self, rng):
        rho = random_nonneg_trig_samples(rng, GRID)
        u, v = conjugate_pair(rho)
        assert abs(u.mean()) <= 1e-12 and abs(v.mean()) <= 1e-12

    def test_negative_density_rejected(self):
        rho = np.ones(GRID)
        rho[10] = -0.2
        rho += (1.0 - rho.mean())
        with pytest.raises(NegativeDensity):
            conjugate_pair(rho)

    def test_mean_one_required(self):
        with pytest.raises(DomainError):
            conjugate_pair(np.full(GRID, 1.2))

    def test_u_is_scaled_kernel_potential(self):
        # u = -(1/pi) W * rho, checked against the closed-form potential
        up = UniformPlusDensity(np.array([0.4, -0.1, 0.07]))
        rho = up.evaluate(THETA)
        u, _ = conjugate_pair(rho)
        expect = -potential_exact(up, THETA) / math.pi
        # cumulative-trapezoid v carries an O(1/n^2) bias into u
        assert np.abs(u - expect).max() <= 1e-7


class TestGanelius:
    def test_single_mode_report(self):
        rho = 1.0 + np.cos(2.0 * np.pi * THETA)
        rep = ganelius_check(rho)
        assert rep.osc_v == pytest.approx(1.0 / math.pi, abs=1e-6)
        assert rep.K == pytest.approx(1.0, abs=1e-12)
        assert rep.H == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-6)
        assert rep.bound == pytest.approx(1.0, abs=1e-6)
        assert rep.holds and rep.ratio == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_uniform_rejected(self):
        with pytest.raises(HNonpositive):
            ganelius_check(np.ones(GRID))

    def test_corpus_holds(self, rng_session):
        for _ in range(200):
            rep = ganelius_check(random_nonneg_trig_samples(rng_session))
            assert rep.holds

    def test_mollified_type1_near_sharp(self):
        rep = ganelius_check(mollified_type1_samples(0.02, GRID))
        assert rep.holds
        assert rep.ratio >= 0.9

    def test_ratio_improves_as_mollifier_sharpens(self):
        # fixed family mass; shrinking the mollifier width recovers more of
        # the Dirac's oscillation, pushing the ratio toward 1
        r_wide = ganelius_check(mollified_type1_samples(0.02, GRID, a=16 / GRID)).ratio
        r_narrow = ganelius_check(mollified_type1_samples(0.02, GRID, a=2 / GRID)).ratio
        assert r_narrow > r_wide

    def test_oscillation_equals_discrepancy(self):
        # osc(v) = D[rho] for even densities with a single deficit window
        coeffs = np.array([0.6, 0.12])
        up = UniformPlusDensity(coeffs)
        rho_m = MixedMeasureT(diracs=(), density=up)
        d, _ = discrepancy_mixed(rho_m)
        rep = ganelius_check(up.evaluate(THETA))
        assert rep.osc_v == pytest.approx(d, abs=1e-6)

    def test_height_cross_module(self):
        # pi * max u = H[rho] via the measure-side machinery
        up = UniformPlusDensity(np.array([0.5, -0.2, 0.1]))
        u, _ = conjugate_pair(up.evaluate(THETA))
        h, _ = height_T(MixedMeasureT(diracs=(), density=up), 512)
        assert math.pi * float(u.max()) == pytest.approx(h, abs=1e-6)


class TestMollifier:
    def test_unit_mass(self):
        a = 0.01
        ts = np.linspace(-a, a, 200_001)
        vals = triangular_mollifier(ts, a)
        assert np.trapezoid(vals, ts) == pytest.approx(1.0, abs=1e-8)

    def test_mollified_mean_and_positivity(self):
        s = mollified_type1_samples(0.05, 2048)
        assert s.mean() == pytest.approx(1.0, abs=1e-6)
        assert s.min() >= -1e-12

    def test_width_validation(self):
        with pytest.raises(DomainError):
            mollified_type1_samples(0.05, 2048, a=0.3)
