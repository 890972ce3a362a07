import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import golden_modulus
from conftest import assert_sharp_inequality
from etlab import polynomials
from etlab._search import newton_max
from etlab.errors import (
    DomainError,
    NonRationalWeights,
    RootsUnavailable,
    ZeroCoefficient,
)
from etlab.measures import EmpiricalMeasure, height_T
from etlab.polynomials import (
    PolynomialSpec,
    _modulus_coefficients,
    _modulus_grid,
    _modulus_slopes,
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


def mp_log_abs(f, theta):
    """log|f(e^{2 pi i theta})| in 40-digit arithmetic from the stored
    roots or coefficients."""
    with mpmath.workdps(40):
        w = mpmath.expjpi(2 * mpmath.mpf(float(theta)))
        if f.has_roots:
            out = mpmath.log(abs(mpmath.mpc(f.leading)))
            for r, a in zip(f.moduli.tolist(), f.angles.tolist()):
                out += mpmath.log(abs(w - r * mpmath.expjpi(2 * mpmath.mpf(a))))
            return float(out)
        return float(mpmath.log(abs(mpmath.polyval(
            [mpmath.mpc(c) for c in f.coeffs[::-1].tolist()], w))))


def corpus_of(form, seed=1414):
    rng = np.random.default_rng(seed)
    out = []
    for n in (1, 2, 3, 5, 8, 13, 32, 64, 128, 256):
        if form == "coefficients":
            out.append(PolynomialSpec.from_coeffs(rng.normal(size=n + 1)
                                                  + 1j * rng.normal(size=n + 1)))
        elif form == "unimodular":
            out.append(unit_roots(rng.uniform(-0.5, 0.5, n)))
        else:
            out.append(PolynomialSpec(moduli=np.exp(rng.uniform(-0.5, 0.5, n)),
                                      angles=rng.uniform(-0.5, 0.5, n),
                                      leading=complex(rng.normal(), rng.normal())))
    return out


class TestAgainstGoldenSection:
    """The Newton search against the dense grid and golden section it
    replaced (``tests/golden_modulus.py``)."""

    @pytest.mark.parametrize("form", ["unimodular", "off_circle", "coefficients"])
    def test_heights_agree(self, form):
        for f in corpus_of(form):
            h, h_ref = height_poly(f), golden_modulus.height_poly(f)
            assert abs(h - h_ref) <= 1e-13, f.degree
            assert h >= h_ref - 1e-14, f.degree

    @pytest.mark.parametrize("f", [
        unit_roots(np.random.default_rng(1).uniform(-0.5, 0.5, 1024)),
        PolynomialSpec.from_coeffs(np.random.default_rng(2).normal(size=1025)
                                   + 1j * np.random.default_rng(3).normal(size=1025)),
        corpus_of("off_circle")[6],
        corpus_of("coefficients")[8],
    ], ids=["unimodular-1024", "coefficients-1024", "off_circle-32", "coefficients-128"])
    def test_value_at_the_angle_matches_mpmath(self, f):
        peak, arg = max_log_modulus(f)
        assert abs(peak - mp_log_abs(f, arg)) <= 1e-12

    @pytest.mark.parametrize("form", ["unimodular", "off_circle", "coefficients"])
    def test_polishing_every_grid_peak_gives_the_same_height(self, form):
        # max_log_modulus polishes the five highest grid peaks above the
        # Bernstein floor; Newton from every local maximum of the grid, with
        # neither the cap nor the floor, finds no higher value
        for f in corpus_of(form) + corpus_of(form, seed=2121):
            if f.degree > 64:
                continue
            c = _modulus_coefficients(f)
            theta, vals = _modulus_grid(c)
            step = 1.0 / theta.size
            peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
            x = newton_max(lambda t: _modulus_slopes(c, t), theta[peaks] - step,
                           theta[peaks] + step, 1e-14)
            every = f.log_abs_on_circle(np.concatenate((x, theta[peaks]))).max()
            peak, _ = max_log_modulus(f)
            assert abs(peak - every) / f.degree <= 1e-15, f.degree


class TestLogAbsOnCircle:
    @pytest.mark.parametrize("form", ["unimodular", "off_circle"])
    @pytest.mark.parametrize("n", [1, 16, 256])
    def test_root_sum_against_mpmath(self, n, form):
        rng = np.random.default_rng(n)
        moduli = np.ones(n) if form == "unimodular" else np.exp(rng.uniform(-0.5, 0.5, n))
        f = PolynomialSpec(moduli=moduli, angles=rng.uniform(-0.5, 0.5, n),
                           leading=complex(rng.normal(), rng.normal()))
        theta = np.concatenate((f.angles[:8] + 1e-7, rng.uniform(-0.5, 0.5, 8)))
        ref = np.array([mp_log_abs(f, t) for t in theta])
        # rounding the Cartesian parts of w and z_j moves |w - z_j| by about
        # 2e-16, which is a relative 2e-16 / |w - z_j| of the term
        dist = np.abs(np.subtract.outer(np.exp(2j * np.pi * theta), f.roots_complex()))
        bound = 2e-14 + 2.0**-51 * (1.0 / dist).sum(axis=1)
        assert np.all(np.abs(f.log_abs_on_circle(theta) - ref) <= bound)

    @pytest.mark.parametrize("form", ["unimodular", "off_circle"])
    @pytest.mark.parametrize("offset", [1e-3, -1e-3, 1e-7, -1e-7, 1e-10, -1e-10])
    def test_root_sum_next_to_a_root_against_mpmath(self, offset, form):
        # theta - phi_j is exact next to a root and every term of
        # (1 - r)^2 + 4 r sin^2(pi (theta - phi_j)) is nonnegative, so each
        # log term keeps its relative accuracy however close the root
        rng = np.random.default_rng(16)
        moduli = np.ones(16) if form == "unimodular" else np.exp(rng.uniform(-0.5, 0.5, 16))
        f = PolynomialSpec(moduli=moduli, angles=rng.uniform(-0.5, 0.5, 16),
                           leading=complex(rng.normal(), rng.normal()))
        theta = f.angles + offset
        ref = np.array([mp_log_abs(f, t) for t in theta])
        assert np.all(np.abs(f.log_abs_on_circle(theta) - ref) <= 1e-14)

    @pytest.mark.parametrize("modulus", [1.0 + 1e-12, 1e100, 1e153, 1e200, 1e300])
    def test_root_sum_at_one_modulus_against_mpmath(self, modulus):
        # one root of the given modulus among off-circle ones, on both sides
        # of 1.3e154, beyond which (1 - r)^2 alone would overflow: with
        # R = max(r, 1) every scaled term stays finite and nonnegative, and
        # log R carries the size
        rng = np.random.default_rng(17)
        moduli = np.exp(rng.uniform(-0.5, 0.5, 16))
        moduli[0] = modulus
        f = PolynomialSpec(moduli=moduli, angles=rng.uniform(-0.5, 0.5, 16),
                           leading=complex(rng.normal(), rng.normal()))
        theta = np.concatenate((f.angles[0] + np.array([0.0, 1e-10, -1e-7, 1e-3]),
                                f.angles[1:5] + 1e-7, rng.uniform(-0.5, 0.5, 8)))
        ref = np.array([mp_log_abs(f, t) for t in theta])
        with np.errstate(over="raise", invalid="raise"):
            got = f.log_abs_on_circle(theta)
        assert np.all(np.abs(got - ref) <= 1e-14 + 1e-15 * np.abs(ref))

    def test_root_sum_across_the_seam_against_mpmath(self):
        # theta near 1/2 and a root near -1/2: theta - phi_j is near 1, where
        # the subtraction may lose half an ulp of 1, 2^-53, which moves the
        # term by up to 2^-53 / dist(theta, phi_j) (dist in turns); on the
        # root's own side of the seam the flat bound holds
        gaps = np.array([1e-10, 1e-7, 1e-3])
        f = PolynomialSpec(moduli=np.array([1.0, 1.0, 1.0, 1.3, 0.8]),
                           angles=np.concatenate((-0.5 + gaps, [0.1, 0.3])))
        for theta, seam in ((0.5 - gaps, True), (-0.5 + 2.0 * gaps, False)):
            ref = np.array([mp_log_abs(f, t) for t in theta])
            dist = np.abs((np.subtract.outer(theta, f.angles) + 0.5) % 1.0 - 0.5)
            bound = 1e-14 + (2.0**-53 * (1.0 / dist[:, :3]).sum(axis=1) if seam else 0.0)
            assert np.all(np.abs(f.log_abs_on_circle(theta) - ref) <= bound)

    @staticmethod
    def assert_grid_matches(f, direct_of, tol):
        """P on the grid against direct_of(theta), |f|^2 / max |f|^2 from an
        independent evaluation: the same theta, values within tol of the
        maximum, and the same top peak cells among those where
        |f|^2 >= e^-10 max."""
        n = f.degree
        theta, vals = _modulus_grid(_modulus_coefficients(f))
        assert np.array_equal(theta, np.arange(max(4096, 64 * n)) / max(4096, 64 * n))
        direct = direct_of(theta)
        high = direct >= math.exp(-10.0)

        def top_peaks(v):
            # as max_log_modulus picks them; below e^-10 the grid's own
            # rounding floor (about 1e-16 of max P) makes bumps of its own,
            # so only the high peaks must agree
            peaks = np.flatnonzero((v >= np.roll(v, 1)) & (v >= np.roll(v, -1)))
            cells = peaks[np.argsort(v[peaks], kind="stable")[-5:]]
            return sorted(cells[high[cells]].tolist())

        assert top_peaks(vals) == top_peaks(direct)
        assert np.max(np.abs(vals / vals.max() - direct)) <= tol

    @pytest.mark.parametrize("n", [1, 7, 64, 300])
    def test_fft_grid_matches_polyval(self, n):
        rng = np.random.default_rng(n)
        f = PolynomialSpec.from_coeffs(rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))

        def direct_of(theta):
            sq = np.abs(np.polynomial.polynomial.polyval(np.exp(2j * np.pi * theta),
                                                         f.coeffs)) ** 2
            return sq / sq.max()

        # 1e-13 of max |f| on |f|, as the grid of f itself was held to
        self.assert_grid_matches(f, direct_of, 2e-13)

    @pytest.mark.parametrize("form, n", [
        *[("unimodular", n) for n in (1, 2, 7, 64, 300, 1024)],
        *[("off_circle", n) for n in (1, 2, 7, 64, 300)],
        *[("repeated", n) for n in (7, 64, 300)],
        *[("huge", n) for n in (2, 7, 64)],
    ])
    def test_root_form_grid_matches_root_sum(self, form, n):
        """P from 2n + 1 samples of |f|^2 and one zero-padded real FFT
        against the exp of twice the root sum at every grid point."""
        rng = np.random.default_rng(n)
        angles = rng.uniform(-0.5, 0.5, n)
        if form == "repeated":
            k = max(1, n // 8)
            p = rng.multinomial(n - k, np.ones(k) / k) + 1
            f = synthesize_poly(EmpiricalMeasure(angles[:k], p / n), n)
        else:
            moduli = np.ones(n) if form == "unimodular" else np.exp(rng.uniform(-0.5, 0.5, n))
            if form == "huge":
                moduli[0] = 1e200
            f = PolynomialSpec(moduli=moduli, angles=angles,
                               leading=complex(rng.normal(), rng.normal()))

        def direct_of(theta):
            s = f.log_abs_on_circle(theta)
            return np.exp(2.0 * (s - s.max()))

        # both sides round relative to max P: each sample of log|f| carries
        # the rounding of its n terms, up to log 1e200 in size, which
        # exp(2 (s - max s)) doubles (up to 1.4e-13 here); 1e-12 is the
        # 5e-13 e^{2 (max - log|f|)} the log grid was held to
        self.assert_grid_matches(f, direct_of, 1e-12)

    @pytest.mark.parametrize("form", ["unimodular", "off_circle", "coefficients"])
    def test_reported_maximum_is_the_root_sum_at_its_angle(self, form):
        for f in corpus_of(form, seed=2121):
            peak, arg = max_log_modulus(f)
            assert abs(peak - float(f.log_abs_on_circle(arg)[0])) <= 1e-15, f.degree


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

    def test_huge_root_modulus(self):
        # f = (z - 1e200)(z - i): (Re w - Re z)^2 would overflow; on |w| = 1
        # max |f| = 2e200 (1 + O(1e-200)) at w = -i, and |a_0 a_n| = 1e200
        f = PolynomialSpec(moduli=np.array([1e200, 1.0]), angles=np.array([0.0, 0.25]))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            h = height_poly(f)
            vals = f.log_abs_on_circle(np.array([-0.25, 0.0, 0.3]))
        assert h == pytest.approx(0.25 * math.log(1e200) + 0.5 * math.log(2.0), rel=1e-15)
        for th, v in zip((-0.25, 0.0, 0.3), vals):
            assert v == pytest.approx(mp_log_abs(f, th), rel=1e-15)

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
        roots_only = PolynomialSpec(moduli=g.moduli, angles=g.angles, leading=g.leading)
        back = roots_only.expanded_coeffs()
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

    def test_root_angles_reduced_once_and_exactly(self):
        # an angle in [-1/2, 1/2) is stored as given, not rounded through
        # x + 1/2 (3e-12 came back as 3.0000446571e-12, 1e-17 as 0.0)
        angles = [3e-12, 1e-17, -1e-300, -0.0, 0.5, -0.5, 0.75, -0.3]
        f = PolynomialSpec.from_roots([(1.0, a) for a in angles])
        want = [3e-12, 1e-17, -1e-300, 0.0, -0.5, -0.5, -0.25, -0.3]
        assert f.angles.tolist() == want
        assert PolynomialSpec(moduli=f.moduli, angles=f.angles).angles.tolist() == want
        assert rotate_poly(f, 0.0).angles.tolist() == want
        rho = empirical_from_roots(f)
        assert rho.angles.tolist() == sorted(set(want))
        assert rho.weights.tolist() == [2 / 8] + [1 / 8] * 6
        assert count_at_angle(f, 1e-17) == 3 and count_at_angle(f, 0.5) == 2

    @given(st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_sector_sweep_counts_everything(self, n):
        rng = np.random.default_rng(n)
        f = unit_roots(rng.uniform(-0.5, 0.5, n))
        assert sector_count(f, -0.5, 0.49999999) == n


def gaussian_form(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)


def matched_gap(z, ref):
    """max |z_i - ref_pi(i)| / max(1, |ref_pi(i)|) over the matching pi that
    minimizes the sum of the gaps."""
    gap = np.abs(np.subtract.outer(z, ref)) / np.maximum(1.0, np.abs(ref))
    i, j = linear_sum_assignment(gap)
    assert i.size == z.size == ref.size
    return float(gap[i, j].max())


def backward_error(c, z):
    """|p(z)| / sum |a_k| |z|^k by Horner, from the reversed coefficients at
    1/z where |z| > 1."""
    out = np.empty(z.size)
    for sel, a, x in ((np.abs(z) <= 1.0, c, z), (np.abs(z) > 1.0, c[::-1], 1.0 / z)):
        out[sel] = (np.abs(np.polynomial.polynomial.polyval(x[sel], a))
                    / np.polynomial.polynomial.polyval(np.abs(x[sel]), np.abs(a)))
    return out


def mp_newton_steps(c, z):
    """|p(z_j) / p'(z_j)| in 40-digit arithmetic: to first order the distance
    from z_j to the nearest root, where that root is simple."""
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(a) for a in c[::-1].tolist()]
        out = []
        for zj in z.tolist():
            p, dp = mpmath.polyval(coeffs, mpmath.mpc(zj), derivative=True)
            out.append(float(abs(p / dp)))
    return np.array(out)


class TestAberthRoots:
    """Batched Aberth-Ehrlich roots of coefficient forms (degree 48 and up)
    against np.roots, mpmath and closed forms."""

    @pytest.mark.parametrize("n", [64, 160, 512, 1024])
    def test_match_np_roots_on_gaussian_forms(self, n):
        c = gaussian_form(n, 7000 + n)
        z = polynomials._aberth_roots(c)
        assert z is not None
        assert matched_gap(z, np.roots(c[::-1])) <= 1e-12

    def test_match_mpmath_at_degree_256(self):
        # each root is within 1e-13 of a root by a 40-digit Newton step, and
        # the roots lie far enough apart that no two share one
        c = gaussian_form(256, 256)
        z = polynomials._aberth_roots(c)
        steps = mp_newton_steps(c, z)
        assert float((steps / np.maximum(1.0, np.abs(z))).max()) <= 1e-13
        sep = np.abs(np.subtract.outer(z, z))
        np.fill_diagonal(sep, np.inf)
        assert float(sep.min()) > 1e3 * float(steps.max())

    def test_discrepancy_matches_the_np_roots_path(self):
        # the coefficient items of the benchmark corpus from degree 48 on
        rng = np.random.default_rng(4242)
        for n in (48, 64, 80, 96, 128, 160, 192, 256):
            c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            g = PolynomialSpec.from_coeffs(c).with_computed_roots()
            ref = np.roots(c[::-1])
            d_ref, _ = discrepancy_poly(PolynomialSpec(
                moduli=np.abs(ref), angles=np.angle(ref) / (2.0 * math.pi)))
            assert abs(check_et(g).D - d_ref) <= 1e-12, n

    def test_unit_circle_with_zero_coefficients(self):
        # z^1024 + 1: a_1 .. a_1023 = 0, one hull edge; roots e^{i pi (2k+1)/1024}
        c = np.zeros(1025, dtype=complex)
        c[0] = c[-1] = 1.0
        z = polynomials._aberth_roots(c)
        exact = np.exp(1j * np.pi * (2.0 * np.arange(1024) + 1.0) / 1024)
        assert matched_gap(z, exact) <= 1e-14

    @pytest.mark.parametrize("c", [
        np.r_[1.0, -2.0, np.zeros(62), 1.0],                  # z^64 - 2z + 1
        np.r_[1.0, np.zeros(47), 2.0, np.zeros(47), 1.0],     # (z^48 + 1)^2
        np.r_[1.0, np.zeros(63), 1e300, np.zeros(63), 1.0],   # moduli 1e±4.7
    ])
    def test_start_has_n_points_with_zero_coefficients(self, c):
        c = c.astype(complex)
        start = polynomials._newton_polygon_start(c)
        assert start.size == c.size - 1 and np.all(np.isfinite(start))
        z = polynomials._aberth_roots(c)
        assert z is not None
        assert float(backward_error(c, z).max()) <= 1e-13

    def test_moduli_spread_over_sixteen_decades(self):
        rng = np.random.default_rng(88)
        roots = 10.0 ** rng.uniform(-8.0, 8.0, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
        c = np.polynomial.polynomial.polyfromroots(roots)
        z = polynomials._aberth_roots(c)
        assert z is not None
        assert matched_gap(z, roots) <= 1e-12
        assert matched_gap(z, np.roots(c[::-1])) <= 1e-12

    def test_fallback_to_np_roots(self, monkeypatch):
        # (z - 1)^16 (z + 2) does converge in the step cap (the cluster of 16
        # meets the backward-error test at about 0.2 from 1), so the cap is
        # lowered to 2 to make the solve give up
        c = np.polynomial.polynomial.polyfromroots([1.0] * 16 + [-2.0]).astype(complex)
        monkeypatch.setattr(polynomials, "_ABERTH_MIN_DEGREE", 1)
        monkeypatch.setattr(polynomials, "_ABERTH_STEPS", 2)
        assert polynomials._aberth_roots(c) is None
        g = PolynomialSpec.from_coeffs(c).with_computed_roots()
        ref = np.roots(c[::-1])
        assert np.array_equal(g.moduli, np.abs(ref))
        assert np.array_equal(g.angles, PolynomialSpec(
            moduli=np.abs(ref), angles=np.angle(ref) / (2.0 * math.pi)).angles)

    def test_non_finite_step_falls_back(self, monkeypatch):
        c = gaussian_form(64, 3)
        start = polynomials._newton_polygon_start(c)
        start[5] = np.nan
        monkeypatch.setattr(polynomials, "_newton_polygon_start", lambda _: start)
        assert polynomials._aberth_roots(c) is None
        g = PolynomialSpec.from_coeffs(c).with_computed_roots()
        assert np.array_equal(g.moduli, np.abs(np.roots(c[::-1])))

    def test_below_the_crossover_np_roots_runs(self):
        c = gaussian_form(polynomials._ABERTH_MIN_DEGREE - 1, 5)
        g = PolynomialSpec.from_coeffs(c).with_computed_roots()
        assert np.array_equal(g.moduli, np.abs(np.roots(c[::-1])))

    def test_bitwise_reproducible(self):
        f = PolynomialSpec.from_coeffs(gaussian_form(256, 11))
        g1, g2 = f.with_computed_roots(), f.with_computed_roots()
        assert np.array_equal(g1.moduli, g2.moduli)
        assert np.array_equal(g1.angles, g2.angles)
        assert check_et(g1) == check_et(g2)


class TestPowerOfTwoScaling:
    """with_computed_roots solves p(2^e w), whose end coefficients a_0 and
    a_n 2^(en) are about equal, and scales the roots back by 2^e."""

    @pytest.mark.parametrize("n", [16, 64])
    def test_tiny_roots_of_a_huge_leading_coefficient(self, n):
        # 1e300 z^n + 1e-300: a_0 / a_n = 1e-600 underflows, and so does z^n at
        # the roots, which are (1e-600)^(1/n) e^{i pi (2k + 1) / n}; unscaled,
        # np.roots returned exact zeros (ZeroCoefficient)
        c = np.zeros(n + 1, dtype=complex)
        c[0], c[-1] = 1e-300, 1e300
        g = PolynomialSpec.from_coeffs(c).with_computed_roots()
        radius = 10.0 ** (-600.0 / n)
        exact = np.exp(1j * np.pi * (2.0 * np.arange(n) + 1.0) / n)
        assert matched_gap(g.roots_complex() / radius, exact) <= 1e-14
        report = check_et(g)
        assert report.D == pytest.approx(1.0 / n, abs=1e-12)
        assert report.H == pytest.approx(300.0 * math.log(10.0) / n, rel=1e-14)

    def test_scaling_is_exact(self):
        c = np.array([3e-200 + 1e-201j, 2.0, -1e-100j, 0.5e100], dtype=complex)
        b, e = polynomials._unit_scaled(c)
        assert e == round(math.log2(abs(c[0] / c[-1])) / 3) != 0
        for k in range(4):
            assert b[k].real == math.ldexp(c[k].real, e * k)
            assert b[k].imag == math.ldexp(c[k].imag, e * k)
        assert abs(math.log2(abs(b[0] / b[-1]))) <= 1.5

    @pytest.mark.parametrize("n", [*range(1, 24), 47, 48, 64, 128])
    def test_ordinary_forms_move_only_at_rounding(self, n):
        # a Gaussian form against np.roots on its unscaled coefficients
        c = gaussian_form(n, 6100 + n)
        g = PolynomialSpec.from_coeffs(c).with_computed_roots()
        assert matched_gap(g.roots_complex(), np.roots(c[::-1])) <= 1e-12

    @pytest.mark.parametrize("n", [16, 23, 47, 48, 128])
    def test_shrunken_roots(self, n):
        # sum g_k (3z)^k, whose roots are those of the Gaussian form g over 3:
        # here e = -2, and unscaled np.roots was 2e-11 off at n = 23 and 5e-2
        # at n = 47, where the coefficients span 3^47 = 3e22
        g = gaussian_form(n, 6300 + n)
        c = g * 3.0 ** np.arange(n + 1)
        assert polynomials._unit_scaled(c)[1] == -2
        z = PolynomialSpec.from_coeffs(c).with_computed_roots().roots_complex()
        assert matched_gap(z, np.roots(g[::-1]) / 3.0) <= 1e-14

    def test_overflowing_scale_is_skipped(self):
        # 1e-300 z^2 + 1e300 z + 1e300: e = 997 would make b_1 = 1e300 2^997
        c = np.array([1e300, 1e300, 1e-300], dtype=complex)
        b, e = polynomials._unit_scaled(c)
        assert e == 0 and b is c


class TestComputedRootCopy:
    """The copy from with_computed_roots keeps its coefficients, which define f."""

    @pytest.mark.parametrize("n", [3, 40, 64, 256])
    def test_height_is_the_coefficient_height(self, n):
        f = PolynomialSpec.from_coeffs(gaussian_form(n, 900 + n))
        g = f.with_computed_roots()
        assert g.coeffs is f.coeffs and g.has_roots
        assert check_et(g).H == height_poly(f)
        assert g.log_a0_an_magnitude() == f.log_a0_an_magnitude()

    def test_json_keeps_the_coefficients(self):
        f = PolynomialSpec.from_coeffs([1.0, 2.0 + 1.0j, 3.0])
        assert poly_to_json(f.with_computed_roots()) == poly_to_json(f)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DomainError):
            PolynomialSpec(coeffs=np.array([1.0, 0.0, 1.0]), moduli=np.ones(3),
                           angles=np.zeros(3))
