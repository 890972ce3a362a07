import math

import mpmath
import numpy as np
import pytest

import graded_quadrature as graded
from etlab import kernels
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
    """phi at 30 digits with the pole at 1 removed analytically:
    1/(x^2 - 1) = (1/(x - 1) - 1/(x + 1))/2 and
    pv int g/(x - 1) = int (g - g(1))/(x - 1) + g(1) log((R - 1)/(1 - L))."""
    with mpmath.workdps(30):
        LL, RR = mpmath.mpf(L), mpmath.mpf(R)

        def g(x):
            return mpmath.sqrt(max(mpmath.mpf(0), (RR * RR - x * x) * (x * x - LL * LL)))

        g1 = g(mpmath.mpf(1))
        pv = mpmath.quad(lambda x: (g(x) - g1) / (x - 1) if x != 1 else mpmath.diff(g, 1),
                         [LL, 1, RR]) + g1 * mpmath.log((RR - 1) / (1 - LL))
        return float((pv - mpmath.quad(lambda x: g(x) / (x + 1), [LL, RR])) / 2)


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

    def test_domain(self):
        with pytest.raises(DomainError):
            l_of_r(0.99)
        with pytest.raises(DomainError):
            l_of_r(2.0)


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
    # edge, and at (1.06, 0.5) the compression is off the lattice sum by 4.6e-8
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
