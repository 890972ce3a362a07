import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import polygamma

import graded_quadrature as graded
from etlab import kernels, measures
from etlab.errors import AtDirac, DomainError, LambdaTooLarge
from etlab.extremal import (
    TABLE1_R_GRID,
    density_R,
    l_of_r,
    make_admissible,
    periodize,
    phi,
    r_critical,
    rho_type1,
    rho_type2,
    table1,
    table1_csv,
)
from etlab.measures import (
    AdmissibleDistR,
    PeriodizedDensity,
    admissible_density_line,
    d_tilde,
    discrepancy_mixed,
    h_tilde,
    height_T,
)

PAPER_TABLE = {
    # k: (R, H, D, ratio H_k / D_{k+1}^2)
    0: (1.1000, 0.0986, 0.3188, 0.5765),
    1: (1.1292, 0.1645, 0.4135, 0.6290),
    2: (1.1592, 0.2495, 0.5114, 0.6650),
    3: (1.1900, 0.3550, 0.6125, 0.6906),
    4: (1.2216, 0.4824, 0.7170, 0.7090),
    5: (1.2541, 0.6331, 0.8248, 0.7225),
    6: (1.2874, 0.8088, 0.9361, 0.7323),
    7: (1.3216, 1.0111, 1.0509, 0.7394),
    8: (1.3567, 1.2417, 1.1694, 0.7445),
    9: (1.3927, 1.5025, 1.2915, 0.7479),
    10: (1.4297, 1.7954, 1.4174, 0.7500),
    11: (1.4677, 2.1224, 1.5472, 0.7512),
    12: (1.5067, 2.4858, 1.6809, 0.7515),
    13: (1.5467, 2.8879, 1.8187, 0.7512),
    14: (1.5878, 3.3312, 1.9607, 0.7504),
    15: (1.6300, 3.8188, 2.1070, 0.7492),
    16: (1.6733, 4.3538, 2.2577, 0.7477),
    17: (1.7177, 4.9404, 2.4131, 0.7459),
    18: (1.7633, 5.5844, 2.5736, 0.7437),
    19: (1.8102, 6.3003, 2.7403, None),
}


def line_potential(mu: AdmissibleDistR, x: float, T: float = 100.0) -> float:
    """Oracle for the line potential (-log|.| * mu)(x): windowed quadrature of
    the density plus exact Dirac terms, with the 1/t^2 tail integrated in
    closed form."""
    def integrand(t):
        return admissible_density_line(mu, t) * kernels.kernel_R(x - np.asarray(t))

    edges = sorted({-T, T, *(s * e for e in mu.support_edges() for s in (1, -1))})
    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        log_at = x if lo <= x <= hi else None
        parts.append(graded.integrate_piece(integrand, lo, hi, graded.DEFAULT_SPEC,
                                            log_at=log_at, grade_ends=True))
    total = math.fsum(parts)
    for pos, mass in mu.dirac_positions_masses():
        total += mass * kernels.kernel_R(x - pos)
    # tail: density ~ c lam^2 / t^2, int_T^inf log(t^2-x^2)/t^2 dt in closed form
    c, _ = mu.tail_coefficients()
    c *= mu.lam**2
    tail = -c * (math.log(T * T - x * x) / T
                 - (math.log((T - x) / (T + x)) / x if x != 0.0 else -2.0 / T))
    return total + tail


def mpmath_phi(L: float, R: float) -> float:
    """phi at 30 digits."""
    with mpmath.workdps(30):
        return float(_mp_phi(mpmath.mpf(L), mpmath.mpf(R)))


def _mp_phi(LL, RR):
    """phi at mpmath's working precision, with the pole at 1 removed
    analytically: 1/(x^2 - 1) = (1/(x - 1) - 1/(x + 1))/2 and
    pv int g/(x - 1) = int (g - g(1))/(x - 1) + g(1) log((R - 1)/(1 - L))."""
    def g(x):
        return mpmath.sqrt(max(mpmath.mpf(0), (RR * RR - x * x) * (x * x - LL * LL)))

    g1 = g(mpmath.mpf(1))
    pv = mpmath.quad(lambda x: (g(x) - g1) / (x - 1) if x != 1 else mpmath.diff(g, 1),
                     [LL, 1, RR]) + g1 * mpmath.log((RR - 1) / (1 - LL))
    return (pv - mpmath.quad(lambda x: g(x) / (x + 1), [LL, RR])) / 2


def mpmath_periodized(mu: AdmissibleDistR, x: float, J: int = 40, K: int = 12) -> float:
    """1 + sum_j mu(x - j) at 30 digits: the translates |j| <= J from the
    density's formula, the rest from the expansion mu(t) = sum_k g_k
    (lam / t)^(2k) of sqrt((1 - a s)(1 - b s))/(1 - s) - 1 in s = (lam/t)^2
    (kind I: sqrt(1 - s/pi^2) - 1), k <= K, summed by Hurwitz zeta."""
    with mpmath.workdps(30):
        lam, xx = mpmath.mpf(mu.lam), mpmath.mpf(x)
        if mu.kind == "I":
            edge = 1 / mpmath.pi

            def line(u):
                return -1 + (mpmath.sqrt(u * u - edge * edge) / abs(u) if abs(u) >= edge else 0)

            def series(s):
                return mpmath.sqrt(1 - s / mpmath.pi**2) - 1
        else:
            R, L = mpmath.mpf(mu.R), mpmath.mpf(mu.L)

            def line(u):
                on = abs(u) >= R or abs(u) <= L
                return -1 + (mpmath.sqrt((u * u - R * R) * (u * u - L * L)) / abs(u * u - 1)
                             if on else 0)

            def series(s):
                return mpmath.sqrt((1 - R * R * s) * (1 - L * L * s)) / (1 - s) - 1
        total = 1 + mpmath.fsum(line((xx - j) / lam) for j in range(-J, J + 1))
        g = mpmath.taylor(series, 0, K)
        total += mpmath.fsum(g[k] * lam ** (2 * k) * (mpmath.zeta(2 * k, J + 1 - xx)
                                                      + mpmath.zeta(2 * k, J + 1 + xx))
                             for k in range(1, K + 1))
        return float(total)


class TestPhi:
    def test_against_mpmath(self):
        # L = 0 and L = 1e-6 included: the fixed rule needs no small-L branch
        for L in (0.0, 1e-6, 1e-3, 0.05, 0.3, 0.6, 0.95, 1.0 - 1e-6):
            for R in (1.0 + 1e-6, 1.01, 1.3, 2.0, 3.0):
                assert phi(L, R) == pytest.approx(mpmath_phi(L, R), abs=1e-13)
    def test_closed_form_at_l_zero(self):
        closed = math.sqrt(3.0) * math.log(2.0 + math.sqrt(3.0)) - 2.0
        assert phi(0.0, 2.0) == pytest.approx(closed, abs=1e-9)

    def test_zero_at_critical_radius(self):
        assert phi(0.0, r_critical()) == pytest.approx(0.0, abs=1e-8)

    def test_sign_near_one(self):
        # The zero curve satisfies L^2 + R^2 > 2, so at R = 1.05 the root L
        # exceeds sqrt(2 - 1.05^2) ~ 0.947 and phi(0.9, 1.05) is still negative;
        # positivity kicks in only closer to L = 1.
        assert phi(0.9, 1.05) < 0.0
        assert phi(0.99, 1.05) > 0.0

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            phi(1.2, 2.0)
        with pytest.raises(DomainError):
            phi(0.0, 0.9)

    @pytest.mark.parametrize("R", [math.inf, math.nan])
    def test_non_finite_R_rejected_before_any_arithmetic(self, R):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                phi(0.5, R)

    def test_monotone_in_both_arguments(self):
        ls = np.linspace(0.0, 0.9, 20)
        rs = np.linspace(1.05, 2.5, 20)
        vals = np.array([[phi(L, R) for R in rs] for L in ls])
        assert np.all(np.diff(vals, axis=0) > 0.0)  # increasing in L
        assert np.all(np.diff(vals, axis=1) > 0.0)  # increasing in R


class TestCriticalRadius:
    def test_four_decimals(self):
        assert round(r_critical(), 4) == 1.8102

    def test_root_of_closed_form(self):
        rc = r_critical()
        s = math.sqrt(rc * rc - 1.0)
        assert s * math.log(rc + s) - rc == pytest.approx(0.0, abs=1e-10)

    def test_pv_route_consistent(self):
        assert phi(0.0, r_critical()) == pytest.approx(0.0, abs=1e-7)


class TestCurve:
    def test_row10_pin(self):
        mu = AdmissibleDistR("III", 1.0, 1.4297, l_of_r(1.4297))
        assert h_tilde(mu) == pytest.approx(1.7954, abs=2e-3)

    def test_geometry_constraints(self):
        rc = r_critical()
        for R in np.linspace(1.02, rc - 1e-3, 30):
            L = l_of_r(float(R))
            assert L + R < 2.0
            assert L * L + R * R > 2.0

    def test_decreasing(self):
        rc = r_critical()
        rs = np.linspace(1.02, rc - 1e-3, 30)
        ls = [l_of_r(float(R)) for R in rs]
        assert np.all(np.diff(ls) < 0.0)

    @pytest.mark.parametrize("R", [TABLE1_R_GRID[0], TABLE1_R_GRID[9], TABLE1_R_GRID[18]])
    def test_residual_against_mpmath(self, R):
        assert abs(mpmath_phi(l_of_r(R), R)) <= 1e-12

    def test_vanishes_at_critical(self):
        assert l_of_r(r_critical() - 1e-4) < 0.02

    def test_root_below_1e6_near_critical(self):
        # L(R) falls below 1e-6 within about 1e-11 of the critical radius,
        # so the bracket starts at L = 0, where phi has the closed form
        rc = r_critical()
        for R in (rc - 1e-10, rc - 1e-12):
            L = l_of_r(R)
            assert 0.0 < L < 1e-5
            assert abs(mpmath_phi(L, R)) <= 1e-12

    @pytest.mark.parametrize("R", [1.0 + 1e-6, 1.0 + 1e-7, 1.0 + 1e-8, 1.0 + 1e-10, 1.0 + 1e-13])
    def test_root_next_to_the_pole(self, R):
        # 1 - L(R) is about R - 1 here, so the root lies above 1 - 1e-6; the
        # 30-digit root is found between 1 - 10 (R - 1) and 1 - (R - 1)/100.
        # Measured: within 2.7e-15 of it; the bisection stops at 1e-14
        with mpmath.workdps(30):
            RR = mpmath.mpf(R)
            bracket = (1 - 10 * (RR - 1), 1 - (RR - 1) / 100)
            root = mpmath.findroot(lambda L: _mp_phi(L, RR), bracket, solver="illinois")
        assert abs(l_of_r(R) - float(root)) <= 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            l_of_r(0.99)
        with pytest.raises(DomainError):
            l_of_r(1.0)
        with pytest.raises(DomainError):
            l_of_r(2.0)

    @pytest.mark.parametrize("R", [math.nextafter(1.0, 2.0), 1.0 + 1e-15, 1.0 + 1e-14, 1.0 + 9e-14])
    def test_below_the_resolved_range(self, R):
        # the root would lie within a few hundred ulps of 1, where phi is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="1e-13"):
                l_of_r(R)


class TestMakeAdmissible:
    def test_kind_selection(self):
        assert make_admissible(None).kind == "I"
        assert make_admissible(2.1).kind == "II"
        mu = make_admissible(1.4)
        assert mu.kind == "III"
        assert mu.L == pytest.approx(0.60, abs=5e-3)  # curve value at R = 1.4
        assert mu.m == pytest.approx(
            math.pi * math.sqrt((1.4**2 - 1.0) * (1.0 - mu.L**2)) / 2.0, abs=1e-12)

    def test_kind2_mass(self):
        mu = make_admissible(2.1)
        assert mu.m == pytest.approx(math.pi * math.sqrt(2.1**2 - 1.0) / 2.0)

    def test_rejects_low_radius(self):
        with pytest.raises(DomainError):
            make_admissible(0.8)

    def test_admissibility_residual(self):
        mu = make_admissible(1.3)
        assert abs(phi(mu.L, mu.R)) <= 1e-8


class TestDensityR:
    def test_kind1_point_value(self):
        mu = AdmissibleDistR("I", 1.0)
        x = 2.0 / math.pi
        expect = -1.0 + math.sqrt(4.0 / math.pi**2 - 1.0 / math.pi**2) / x
        assert density_R(mu, x) == pytest.approx(expect, abs=1e-14)
        assert expect == pytest.approx(-1.0 + math.sqrt(3.0) / 2.0)

    def test_kind2_gap_is_background(self):
        mu = AdmissibleDistR("II", 1.0, 2.0)
        assert density_R(mu, 1.5) == -1.0

    def test_kind3_negative_off_diracs(self):
        mu = make_admissible(1.4)
        assert density_R(mu, 3.0) < 0.0

    def test_at_dirac_raises(self):
        mu = AdmissibleDistR("II", 1.0, 2.0)
        with pytest.raises(AtDirac):
            density_R(mu, 1.0)
        with pytest.raises(AtDirac):
            density_R(AdmissibleDistR("I", 1.0), 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam", [1.0, 1e-80, 2e-154])
    @pytest.mark.parametrize("kind", ["I", "II", "III"])
    def test_line_density_against_mpmath(self, kind, lam):
        # (u^2 - R^2)(u^2 - L^2) overflows from |u| ~ 1e77 on, and u^2 itself
        # from 1.3e154 on (t = 400 at the smallest lam with a normal square):
        # far out the density is about (1 - (R^2 + L^2)/2) / u^2, not inf;
        # next to the support edges |u| = R and L it keeps its digits.  Kind I
        # is sqrt(u^2 - R^2) / |u| with R the double 1/pi, its support edge.
        if kind == "I":
            mu, R, L, pole = AdmissibleDistR("I", lam), 1.0 / math.pi, 0.0, 0
        else:
            mu = (AdmissibleDistR("II", lam, 2.0) if kind == "II"
                  else AdmissibleDistR("III", lam, 1.4, l_of_r(1.4)))
            R, L, pole = mu.R, mu.L, 1
        t = np.array([0.3, 0.1, 0.45 * lam, 1.3 * lam, 3.0 * lam, 400.0])
        t = np.concatenate((t, lam * np.array([R + 1e-12, R * (1.0 + 1e-15), L - 1e-12])))
        got = admissible_density_line(mu, t)
        with mpmath.workdps(40):
            R, L = mpmath.mpf(R), mpmath.mpf(L)
            ref = []
            for u in (mpmath.mpf(float(x)) for x in t / lam):
                inside = abs(u) >= R or (L > 0 and abs(u) <= L)
                ref.append(float(-1 + (mpmath.sqrt((u * u - R * R) * (u * u - L * L))
                                       / abs(u * u - pole) if inside else 0)))
        assert np.all(np.abs(got - np.array(ref)) <= 1e-15)

    def test_mean_zero_and_decay(self):
        # window totals ~ -tail ~ 2|c|/X and the density is O(1/x^2)
        for mu in (AdmissibleDistR("I", 1.0), AdmissibleDistR("II", 1.0, 2.0),
                   make_admissible(1.4)):
            xs = np.linspace(10.0, 100.0, 200)
            c, _ = mu.tail_coefficients()
            vals = admissible_density_line(mu, xs)
            assert np.max(np.abs(vals) * xs * xs) <= 2.0 * abs(c) + 0.1
            X = 50.0
            window = graded.integrate_piece(
                lambda t: admissible_density_line(mu, t),
                max(mu.support_edges()) + 1e-9, X, grade_ends=True)
            window *= 2.0
            window += math.fsum(m for _, m in mu.dirac_positions_masses())
            inner_hi = max(mu.support_edges())
            edges = sorted({0.0, *(e for e in mu.support_edges()), inner_hi})
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi - lo > 1e-12:
                    window += 2.0 * graded.integrate_piece(
                        lambda t: admissible_density_line(mu, t), lo, hi,
                        grade_ends=True)
            # remaining tail of the exact mean-zero identity: ~ -2c/X
            assert window == pytest.approx(-2.0 * c / X, rel=0.08, abs=1e-4)

    def test_line_potential_vanishes_outside_support(self):
        for mu in (AdmissibleDistR("II", 1.0, 2.0), make_admissible(1.4)):
            R = mu.R
            for x in (1.2 * R, 2.0 * R, 5.0 * R):
                assert abs(line_potential(mu, x)) <= 1e-4

    def test_line_potential_at_origin_matches_phi(self):
        # (potential at 0) = pi * phi(L, R) for the unscaled families
        mu = AdmissibleDistR("II", 1.0, 2.0)
        assert line_potential(mu, 0.0) == pytest.approx(
            math.pi * phi(0.0, 2.0), abs=2e-4)
        mu3 = make_admissible(1.3)
        assert line_potential(mu3, 0.0) == pytest.approx(0.0, abs=2e-4)


class TestCircleFamilies:
    def test_type1_degenerate_top(self):
        rho = rho_type1(0.5)
        assert rho.density is None
        assert rho.diracs == ((0.0, 1.0),)

    def test_type1_figure_mass(self):
        rho = rho_type1(0.41)
        assert rho.density_mass() == pytest.approx(1.0 - 0.82, abs=1e-8)

    def test_type1_mass_example(self):
        assert rho_type1(0.2).density_mass() == pytest.approx(0.6, abs=1e-6)

    def test_type1_domain(self):
        with pytest.raises(DomainError):
            rho_type1(0.0)
        with pytest.raises(DomainError):
            rho_type1(0.6)

    @pytest.mark.parametrize("M,R,L", [
        (0.13, 0.3, 0.0),      # figure (b), reading its impossible R = 3 as 0.3
        (0.13, 0.22, 0.05),    # figure (c), non-sediment
        (0.13, 0.22, 0.034),   # figure (d), sediment
    ])
    def test_type2_total_mass(self, M, R, L):
        rho = rho_type2(M, R, L)
        assert rho.mass() == pytest.approx(1.0, abs=1e-6)

    def test_type2_ordering_enforced(self):
        with pytest.raises(DomainError):
            rho_type2(0.3, 0.2, 0.0)
        with pytest.raises(DomainError):
            rho_type2(0.13, 0.6, 0.0)


class TestPeriodize:
    def test_kind1_diracs_and_mass(self):
        rho = periodize(AdmissibleDistR("I", 0.1))
        assert rho.diracs == ((0.0, pytest.approx(0.1)),)
        assert rho.mass() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kind1_at_the_smallest_lam(self):
        # u = x / lam passes 1.3e154, where u^2 overflows, at every x
        rho = periodize(AdmissibleDistR("I", 2e-154))
        assert np.all(np.isfinite(rho.density_eval(np.linspace(-0.5, 0.5, 257))))
        assert abs(rho.mass() - 1.0) <= 1e-12

    def test_kind2_height_identity(self):
        mu = AdmissibleDistR("II", 0.1, 2.0)
        rho = periodize(mu)
        h, _ = height_T(rho, 256)
        assert h == pytest.approx(h_tilde(mu), abs=1e-3)

    def test_kind3_ring_containment(self):
        mu = make_admissible(1.4, 0.2)
        rho = periodize(mu)
        assert rho.meta["l_ring"] is not None
        assert rho.meta["l_ring"] < 0.2 * mu.L
        assert rho.meta["r_ring"] > 0.2 * mu.R

    # kinds III and II; at (1.005, 0.1) no sign change lies below lam*L (it is
    # at lam*L), at (1.005, 0.005) the density crosses 0 by a jump at a panel
    # edge, and at (1.06, 0.5) lam L and 1 - lam R lie 8.1e-7 apart
    RING_CASES = [(R, lam) for R in (1.005, 1.06, 1.4, 1.75, 2.0, 2.5)
                  for lam in (0.005, 0.1, 0.3, 0.5)] + [(1.3, 0.17), (2.2, 0.04)]

    def test_ring_radii_are_sign_changes_of_the_lattice_sum(self):
        seen = 0
        for R, lam in self.RING_CASES:
            mu = make_admissible(R, lam)
            try:
                rho = periodize(mu)
            except LambdaTooLarge:
                continue
            seen += 1
            dens, l_ring, r_ring = rho.density, rho.meta["l_ring"], rho.meta["r_ring"]
            at_0, at_half = dens.evaluate_direct(np.array([0.0, 0.5]))
            # a ring exists exactly where the density is >= 0 at its centre
            assert (l_ring is not None) == (mu.kind == "III" and at_0 >= 0.0), (R, lam)
            assert (r_ring is not None) == (lam * mu.R < 0.5 and at_half >= 0.0), (R, lam)
            for radius, window in ((l_ring, (0.0, lam)), (r_ring, (lam, 0.5))):
                if radius is None:
                    continue
                assert window[0] < radius < window[1] + 1e-15
                below, above = dens.evaluate_direct(np.array([radius - 1e-8, radius + 1e-8]))
                assert (below >= 0.0) != (above >= 0.0), (R, lam, radius)
        assert seen == 19

    @pytest.mark.parametrize("R, lam", [(None, 0.3), (1.4, 0.2), (2.0, 0.08)])
    def test_density_read_once_per_measure(self, R, lam, monkeypatch):
        calls = []
        evaluate = PeriodizedDensity.evaluate
        monkeypatch.setattr(PeriodizedDensity, "evaluate",
                            lambda self, x: calls.append(np.size(x)) or evaluate(self, x))
        rho = periodize(make_admissible(R, lam))
        height_T(rho, 256)
        discrepancy_mixed(rho)
        assert len(calls) == 1

    def test_lambda_gate(self):
        with pytest.raises(LambdaTooLarge):
            periodize(AdmissibleDistR("I", 1.2))
        with pytest.raises(LambdaTooLarge):
            periodize(AdmissibleDistR("II", 0.6, 2.0))
        with pytest.raises(LambdaTooLarge):
            periodize(AdmissibleDistR("II", 0.4, 2.0))  # lam*m = 0.4*2.72 > 1/2

    def test_interpolant_matches_lattice_sum(self, rng):
        mu = make_admissible(1.4, 0.1)
        dens = periodize(mu).density
        xs = rng.uniform(-0.5, 0.5, 40)
        assert np.allclose(dens.evaluate(xs), dens.evaluate_direct(xs), atol=1e-9)

    # kinks 8.1e-7 apart at +-0.47 (1.06, 0.5) and 5e-5 apart next to the
    # origin (1.005, 0.005), kind II, kind I, and the largest lam R the lambda
    # gate admits (1.32, 0.5)
    EXACT_CASES = [(1.06, 0.5), (1.005, 0.005), (2.2, 0.12), (None, 0.3), (1.32, 0.5)]

    @pytest.mark.parametrize("R, lam", EXACT_CASES)
    def test_matches_lattice_sum_at_kinks(self, R, lam):
        dens = PeriodizedDensity(make_admissible(R, lam))
        kinks = np.array([lo for lo, _ in dens.pieces()])
        xs = np.concatenate([np.linspace(-0.5, 0.5, 4001)]
                            + [kinks + d for d in (-1e-9, -1e-12, 1e-12, 1e-9)])
        assert np.max(np.abs(dens.evaluate(xs) - dens.evaluate_direct(xs))) <= 1e-13

    @pytest.mark.parametrize("R, lam", EXACT_CASES)
    def test_matches_mpmath_lattice_sum(self, R, lam):
        mu = make_admissible(R, lam)
        dens = PeriodizedDensity(mu)
        # 1e-9 from a kink the float density alone rounds to about 1e-12 (u^2 - R^2
        # cancels), so the point next to the outer kink sits 1e-3 away
        xs = np.array([-0.4321, -0.1234, 0.0321, 0.2468, max(mu.support_edges()) + 1e-3])
        want = [mpmath_periodized(mu, x) for x in xs]
        assert np.max(np.abs(dens.evaluate(xs) - want)) <= 1e-13

    def test_work_per_point(self, monkeypatch):
        mu = make_admissible(1.4, 0.1)
        seen = []
        line = measures.admissible_density_line
        monkeypatch.setattr(measures, "admissible_density_line",
                            lambda m, t: seen.append(np.size(t)) or line(m, t))
        dens = PeriodizedDensity(mu)
        assert sum(seen) == 798 * 24  # the translates 2 <= |j| <= 400 at the 24 fit nodes
        seen.clear()
        dens.evaluate(np.linspace(-0.5, 0.5, 1001))
        assert sum(seen) == 3 * 1001  # the translates j = -1, 0, 1 at each point

    @pytest.mark.parametrize("R, lam", [(None, 0.3), (2.2, 0.12), (1.06, 0.5)])
    @pytest.mark.parametrize("coefficients", [None, (1.0, 0.0), (0.0, 1.0)])
    def test_lattice_tail(self, R, lam, coefficients, monkeypatch):
        # z = 401 +- x runs over [400.5, 401.5]; oracles: the polygamma form
        # sum_{k >= 0} (z + k)^-(n+1) = (-1)^(n+1) psi^(n)(z) / n! and 40-digit
        # zeta.  The measure's own (c, d), then each series alone: the 1/t^4
        # term is about 1e-6 of the whole.
        mu = make_admissible(R, lam)
        if coefficients is not None:
            monkeypatch.setattr(AdmissibleDistR, "tail_coefficients", lambda self: coefficients)
        c, d = mu.tail_coefficients()
        J, xs = measures._LATTICE_J, np.linspace(-0.5, 0.5, 201)
        got = measures._lattice_tail(mu, xs)
        by_polygamma = sum(c * lam**2 * polygamma(1, z) + d * lam**4 * polygamma(3, z) / 6.0
                           for z in (J + 1.0 + xs, J + 1.0 - xs))
        with mpmath.workdps(40):
            by_zeta = np.array([float(sum(
                c * lam**2 * mpmath.zeta(2, z) + d * lam**4 * mpmath.zeta(4, z)
                for z in (J + 1 + mpmath.mpf(x), J + 1 - mpmath.mpf(x)))) for x in xs])
        for want in (by_polygamma, by_zeta):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15


class TestTable:
    def test_against_printed_values(self):
        rows = table1()
        assert len(rows) == 20
        for row in rows:
            R, H, D, ratio = PAPER_TABLE[row.k]
            assert row.R == R
            assert row.H == pytest.approx(H, abs=2e-3)
            assert row.D == pytest.approx(D, abs=2e-3)
            if ratio is None:
                assert row.ratio is None
            else:
                assert row.ratio == pytest.approx(ratio, abs=1e-3)
                assert row.ratio > 0.5

    def test_monotone_h_and_d(self):
        rows = table1()
        hs = [r.H for r in rows]
        ds = [r.D for r in rows]
        assert np.all(np.diff(hs) > 0.0)
        assert np.all(np.diff(ds) > 0.0)

    def test_row_bounds(self):
        # closed-form envelope: H >= pi^2 (R^2-L^2)^2 / (8 (R+1) R) and
        # D <= pi (1-L)(1 + 2(1-L)/pi)
        rc = r_critical()
        for R in TABLE1_R_GRID[:-1]:
            L = l_of_r(R) if R < rc else 0.0
            mu = AdmissibleDistR("III", 1.0, R, L) if R < rc \
                else AdmissibleDistR("II", 1.0, R)
            H, D = h_tilde(mu), d_tilde(mu)
            assert H >= math.pi**2 * (R * R - L * L) ** 2 / (8.0 * (R + 1.0) * R) - 1e-9
            assert D <= math.pi * (1.0 - L) * (1.0 + 2.0 * (1.0 - L) / math.pi) + 1e-9

    def test_monotone_along_curve_grid(self):
        # strict growth of both functionals along a 50-point curve sample
        rc = r_critical()
        rs = np.linspace(1.02, rc - 1e-3, 50)
        hs, ds = [], []
        for R in rs:
            mu = make_admissible(float(R))
            hs.append(h_tilde(mu))
            ds.append(d_tilde(mu))
        assert np.all(np.diff(hs) > 0.0)
        assert np.all(np.diff(ds) > 0.0)

    def test_csv_shape(self):
        text = table1_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "k,R,H,D,ratio"
        assert len(lines) == 21
        assert lines[-1].endswith(",")  # last row has no ratio
