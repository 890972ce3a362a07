import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_sharp_inequality
from etlab.errors import (
    DomainError,
    NonRationalWeights,
    RootsUnavailable,
    ZeroCoefficient,
)
from etlab.measures import EmpiricalMeasure, height_T
from etlab.polynomials import (
    PolynomialSpec,
    check_et,
    count_at_angle,
    discrepancy_poly,
    empirical_from_roots,
    height_poly,
    max_log_modulus,
    poly_from_json,
    poly_to_json,
    real_root_check,
    rotate_poly,
    schur_reduce,
    sector_count,
    synthesize_poly,
)


def unit_roots(angles):
    return PolynomialSpec(moduli=np.ones(len(angles)),
                          angles=np.asarray(angles, dtype=float))


class TestMaxLogModulus:
    def test_z_minus_one_power(self):
        f = unit_roots([0.0] * 8)
        peak, arg = max_log_modulus(f)
        assert peak == pytest.approx(8.0 * math.log(2.0), abs=1e-10)
        assert abs(abs(arg) - 0.5) <= 1e-7

    def test_roots_of_unity(self):
        f = unit_roots([k / 8 for k in range(8)])
        peak, _ = max_log_modulus(f)
        assert peak == pytest.approx(math.log(2.0), abs=1e-10)

    def test_constant_modulus_scaling(self):
        # coefficient form 3 z^2 + tiny constant is excluded (a_0 = 0); use
        # c (z - r)(z - 1/r) whose height must ignore |c|
        f1 = PolynomialSpec(moduli=np.array([2.0, 0.5]), angles=np.zeros(2),
                            leading=3.7 - 1.1j)
        f2 = PolynomialSpec(moduli=np.array([2.0, 0.5]), angles=np.zeros(2),
                            leading=1.0)
        assert height_poly(f1) == pytest.approx(height_poly(f2), abs=1e-12)


class TestHeights:
    def test_spec_values(self):
        assert height_poly(unit_roots([0.0] * 8)) == pytest.approx(
            math.log(2.0), abs=1e-10)
        assert height_poly(unit_roots([k / 8 for k in range(8)])) == pytest.approx(
            math.log(2.0) / 8.0, abs=1e-10)

    def test_overflowing_a0_an(self):
        # f = 1e308 i (z - 1): |a_0 a_n| = 1e616 overflows a double, H = log 2 does not
        f = PolynomialSpec(moduli=np.array([1.0]), angles=np.array([0.0]), leading=1e308j)
        assert f.log_a0_an_magnitude() == pytest.approx(2.0 * math.log(1e308), rel=1e-15)
        assert height_poly(f) == pytest.approx(math.log(2.0), abs=1e-10)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroCoefficient):
            PolynomialSpec(moduli=np.array([0.0]), angles=np.array([0.0]))
        with pytest.raises(ZeroCoefficient):
            PolynomialSpec.from_coeffs([0.0, 1.0])

    def test_height_matches_measure_potential(self, rng):
        # for unimodular roots, n H[f] = max of -(W * rho_f) * n
        ang = rng.uniform(-0.5, 0.5, 9)
        f = unit_roots(ang)
        h_poly = height_poly(f)
        h_meas, _ = height_T(empirical_from_roots(f), 512)
        assert h_poly == pytest.approx(h_meas, abs=1e-6)


class TestSectorCounts:
    def test_quartic(self):
        f = unit_roots([0.0, 0.25, 0.5, 0.75])
        assert sector_count(f, 0.0, 0.5) == 3
        assert sector_count(f, 0.1, 0.2) == 0

    def test_full_partition_sums_to_degree(self, rng):
        ang = rng.uniform(-0.5, 0.5, 20)
        f = unit_roots(ang)
        cuts = np.sort(rng.uniform(-0.5, 0.5, 6))
        total = 0
        for lo, hi in zip(cuts, np.roll(cuts, -1)):
            width = (hi - lo) % 1.0
            # half-open sweep: count closed arc then subtract the endpoint
            total += sector_count(f, lo, lo + width) - count_at_angle(f, lo + width)
        assert total == 20

    def test_roots_required(self):
        f = PolynomialSpec.from_coeffs([1.0, 0.0, 1.0])
        with pytest.raises(RootsUnavailable):
            sector_count(f, 0.0, 0.5)
        g = f.with_computed_roots()
        assert sector_count(g, 0.2, 0.3) == 1  # root at angle 1/4


class TestDiscrepancy:
    def test_spec_values(self):
        assert discrepancy_poly(unit_roots([0.0] * 6))[0] == pytest.approx(1.0)
        assert discrepancy_poly(unit_roots([k / 8 for k in range(8)]))[0] == \
            pytest.approx(1.0 / 8.0)

    def test_multiplicity_example(self):
        d, w = discrepancy_poly(unit_roots([0.0, 0.0, 0.5]))
        assert d == pytest.approx(2.0 / 3.0)
        assert w.length == 0.0 and w.start == 0.0

    def test_moduli_ignored(self):
        f = PolynomialSpec(moduli=np.array([2.0, 0.3, 1.0]),
                           angles=np.array([0.0, 0.0, 0.5]))
        assert discrepancy_poly(f)[0] == pytest.approx(2.0 / 3.0)


class TestCheckEt:
    def test_spec_examples(self):
        rep = check_et(unit_roots([0.0] * 8))
        assert rep.D == pytest.approx(1.0)
        assert rep.bound == pytest.approx(math.sqrt(2.0 * math.log(2.0)), abs=1e-9)
        assert rep.holds and rep.margin == pytest.approx(0.17741, abs=1e-4)
        rep = check_et(unit_roots([k / 8 for k in range(8)]))
        assert rep.D == pytest.approx(0.125)
        assert rep.holds

    def test_random_unimodular(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 65))
            rep = check_et(unit_roots(rng.uniform(-0.5, 0.5, n)))
            assert rep.holds
            assert_sharp_inequality(rep.D, rep.H, tol=1e-9)

    def test_report_roundtrip(self):
        rep = check_et(unit_roots([0.0, 0.37]))
        doc = json.loads(json.dumps(rep.to_json()))
        assert doc["holds"] is True
        assert "margin" in doc and "witness" in doc
        assert "holds" in rep.summary()


class TestSchur:
    def test_single_root_example(self):
        # f = z - 2i; at z = -i the reduced value 2 is below |f|/sqrt(2) = 3/sqrt 2
        f = PolynomialSpec(moduli=np.array([2.0]), angles=np.array([0.25]))
        ft = schur_reduce(f)
        assert ft.moduli[0] == 1.0 and ft.angles[0] == 0.25
        z_angle = -0.25
        lhs = float(ft.log_abs_on_circle(z_angle)[0])
        rhs = float(f.log_abs_on_circle(z_angle)[0]) \
            - 0.5 * f.log_a0_an_magnitude()
        assert math.exp(lhs) == pytest.approx(2.0, abs=1e-12)
        assert math.exp(rhs) == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-12)
        assert lhs <= rhs

    def test_unimodular_fixed_point(self):
        f = unit_roots([0.1, -0.3])
        ft = schur_reduce(f)
        assert np.array_equal(ft.angles, f.angles)
        assert np.all(ft.moduli == 1.0)

    def test_angles_preserved_discrepancy_unchanged(self):
        f = PolynomialSpec(moduli=np.array([2.0, 0.5]), angles=np.array([0.0, 0.0]))
        ft = schur_reduce(f)
        assert discrepancy_poly(ft)[0] == discrepancy_poly(f)[0] == 1.0

    def test_pointwise_inequality_sampled(self, rng):
        # |f~| <= |f| / sqrt|a_0 a_n| at 4096 circle points, 100 random polys
        theta = np.arange(4096) / 4096
        for _ in range(100):
            n = int(rng.integers(1, 13))
            f = PolynomialSpec(moduli=rng.uniform(0.2, 5.0, n),
                               angles=rng.uniform(-0.5, 0.5, n),
                               leading=complex(rng.normal(), rng.normal()) or 1.0)
            ft = schur_reduce(f)
            lhs = ft.log_abs_on_circle(theta)
            rhs = f.log_abs_on_circle(theta) - 0.5 * f.log_a0_an_magnitude()
            assert float((rhs - lhs).min()) >= -1e-10

    def test_height_does_not_increase(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            f = PolynomialSpec(moduli=rng.uniform(0.2, 5.0, n),
                               angles=rng.uniform(-0.5, 0.5, n))
            assert height_poly(schur_reduce(f)) <= height_poly(f) + 1e-9


class TestRealRoots:
    def test_all_at_one(self):
        rep = real_root_check(unit_roots([0.0] * 5))
        assert rep.n_positive == 5 and rep.n_negative == 0
        assert rep.bound == pytest.approx(5.0 * math.sqrt(2.0 * math.log(2.0)), abs=1e-6)
        assert rep.holds

    def test_quartic_signs(self):
        rep = real_root_check(unit_roots([0.0, 0.25, 0.5, 0.75]))
        assert rep.n_positive == 1 and rep.n_negative == 1

    def test_mixed(self):
        f = unit_roots([0.5, 0.5, 0.5, 0.0])
        rep = real_root_check(f)
        assert rep.n_negative == 3 and rep.holds

    def test_rotation_identity(self, rng):
        ang = rng.uniform(-0.5, 0.5, 11)
        f = unit_roots(ang)
        theta = float(ang[3])
        g = rotate_poly(f, theta)
        assert count_at_angle(f, theta) == count_at_angle(g, 0.0)
        assert height_poly(f) == pytest.approx(height_poly(g), abs=1e-9)


class TestSynthesize:
    def test_single_dirac(self):
        rho = EmpiricalMeasure.from_pairs([(0.0, 1.0)])
        f = synthesize_poly(rho, 1)
        coeffs = f.expanded_coeffs()
        assert np.allclose(coeffs, [-1.0, 1.0])

    def test_uniform_four(self):
        rho = EmpiricalMeasure.from_pairs([(k / 4, 0.25) for k in range(4)])
        f = synthesize_poly(rho, 4)
        coeffs = f.expanded_coeffs()
        assert np.allclose(coeffs, [-1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_rejects_irrational(self):
        rho = EmpiricalMeasure.from_pairs([(0.0, 1.0 / 3.0), (0.25, 2.0 / 3.0)])
        with pytest.raises(NonRationalWeights):
            synthesize_poly(rho, 4)

    def test_measure_functionals_transfer(self):
        rho = EmpiricalMeasure.from_pairs([(0.0, 0.5), (0.3, 0.25), (-0.2, 0.25)])
        f = synthesize_poly(rho, 8)
        assert f.degree == 8
        from etlab.measures import discrepancy_empirical
        assert discrepancy_poly(f)[0] == pytest.approx(
            discrepancy_empirical(rho)[0], abs=1e-14)


class TestJsonAndConstruction:
    def test_coeff_root_interconversion(self):
        f = PolynomialSpec.from_coeffs([2.0, 0.0, 1.0])  # z^2 + 2
        g = f.with_computed_roots()
        assert g.degree == 2
        assert np.allclose(np.sort(g.moduli), [math.sqrt(2.0)] * 2)
        back = g.expanded_coeffs()
        assert np.allclose(back, [2.0, 0.0, 1.0], atol=1e-12)

    def test_json_roundtrip_both_forms(self):
        f = PolynomialSpec(moduli=np.array([2.0, 1.0]), angles=np.array([0.25, 0.0]),
                           leading=1.0 + 2.0j)
        doc = json.loads(json.dumps(poly_to_json(f)))
        f2 = poly_from_json(doc)
        assert np.allclose(f2.moduli, f.moduli)
        assert complex(f2.leading) == pytest.approx(1.0 + 2.0j)
        g = PolynomialSpec.from_coeffs([1.0, 2.0 + 1.0j, 3.0])
        doc = json.loads(json.dumps(poly_to_json(g)))
        g2 = poly_from_json(doc)
        assert np.allclose(g2.coeffs, g.coeffs)

    def test_degree_floor(self):
        with pytest.raises(DomainError):
            PolynomialSpec.from_coeffs([1.0])

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_sector_sweep_counts_everything(self, n):
        rng = np.random.default_rng(n)
        f = unit_roots(rng.uniform(-0.5, 0.5, n))
        assert sector_count(f, -0.5, 0.49999999) == n
