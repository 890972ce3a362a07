import math
import warnings

import numpy as np
import pytest

import graded_quadrature as graded
import mirror_descent
from etlab import kernels
from etlab.errors import DomainError, IntervalTooCoarse, NonConvergence
from etlab.extremal import rho_type1
from etlab.sediment import (
    ExternalPotentialSpec,
    GridDensity,
    diffusion_replacement_potential,
    energy,
    micro_diffuse,
    minimize_energy,
    spectral_kernel_coefficients,
    total_potential,
)


def direct_energy_from_coefficients(cos_coeffs, sin_coeffs,
                                    spec=graded.TIGHT_SPEC) -> float:
    """Dual-route interaction energy for rho = 1 + sum a_k cos + b_k sin.

    The autocorrelation A(t) = 1 + (1/2) sum (a_k^2 + b_k^2) cos(2 pi k t) is
    an algebraic identity in the density's own coefficients; the kernel enters
    only through graded quadrature of W(t) A(t), so the spectral symbol
    1/(2|k|) is genuinely cross-checked.
    """
    a = np.asarray(cos_coeffs, dtype=float)
    b = np.asarray(sin_coeffs, dtype=float)
    power = 0.5 * (a * a + b * b)
    k = np.arange(1, a.size + 1)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        acorr = 1.0 + np.cos(2.0 * np.pi * np.multiply.outer(t, k)) @ power
        return acorr * kernels.kernel_T(t)

    return 0.5 * graded.integrate_log_singular(integrand, 0.0, 1.0, 0.0, spec)


class TestGridDensity:
    def test_power_of_two_required(self):
        with pytest.raises(DomainError):
            GridDensity(np.ones(100))

    def test_mass_bookkeeping(self):
        g = GridDensity(np.ones(64), ((0, 0.25),))
        assert g.total_mass == pytest.approx(1.25)
        with pytest.raises(DomainError):
            GridDensity(np.ones(64), ((0, 0.25),), total_mass=2.0)

    def test_nonnegative(self):
        with pytest.raises(DomainError):
            GridDensity(-np.ones(64))


class TestEnergy:
    def test_uniform_zero(self):
        assert energy(GridDensity(np.ones(256)), ExternalPotentialSpec()) == 0.0

    def test_single_mode_eighth(self):
        n = 512
        centers = (np.arange(n) + 0.5) / n
        rho = GridDensity(1.0 + np.cos(2.0 * np.pi * centers))
        e = energy(rho, ExternalPotentialSpec())
        assert e == pytest.approx(0.125, abs=1e-12)

    def test_uniform_with_dirac_potential_nearly_zero(self):
        # continuum value is 0 (mean-zero kernel); the discrete sampling of U
        # leaves only the aliased residue ~ -2 m log|2 cos(pi n M)| / n
        n = 512
        rho = GridDensity(np.ones(n))
        u = ExternalPotentialSpec(0.25, 0.1)
        assert abs(energy(rho, u)) <= 1e-3

    def test_spectral_matches_direct_quadrature(self, rng):
        n = 1024
        centers = (np.arange(n) + 0.5) / n
        for _ in range(8):
            deg = int(rng.integers(1, 17))
            kk = np.arange(1, deg + 1)
            a = rng.normal(size=deg) / (1.0 + kk)
            b = rng.normal(size=deg) / (1.0 + kk)
            scale = 0.9 / max(1.0, float(np.abs(a).sum() + np.abs(b).sum()))
            a, b = a * scale, b * scale
            phases = 2.0 * np.pi * np.outer(centers, kk)
            rho = GridDensity(1.0 + np.cos(phases) @ a + np.sin(phases) @ b)
            spectral = energy(rho, ExternalPotentialSpec())
            direct = direct_energy_from_coefficients(a, b)
            assert spectral == pytest.approx(direct, abs=1e-8)

    def test_symbol_values(self):
        w = spectral_kernel_coefficients(8)
        assert w[0] == 0.0
        assert w[1] == pytest.approx(0.5)
        assert w[2] == pytest.approx(0.25)
        assert w[-1] == pytest.approx(0.5)  # k = -1


class TestMicroDiffuse:
    def test_uniform_window_splits_evenly(self):
        n = 512
        rho = GridDensity(np.ones(n))
        out = micro_diffuse(rho, 0.25, 16 / n)
        d = dict(out.diracs)
        # interval mass is 2 eps for unit density; each endpoint takes half
        assert d[(128 - 16)] == pytest.approx(16 / n, abs=1e-15)
        assert d[(128 + 16)] == pytest.approx(16 / n, abs=1e-15)
        assert out.total_mass == pytest.approx(1.0)

    def test_empty_window_is_identity_mass(self):
        n = 256
        vals = np.ones(n)
        vals[50:70] = 0.0
        rho = GridDensity(vals)
        out = micro_diffuse(rho, (60 + 0.0) / n, 8 / n)
        assert all(m == 0.0 for _, m in out.diracs)

    def test_ramp_window_moment_system(self):
        n = 512
        vals = np.ones(n)
        idx = (128 - 16 + np.arange(32)) % n
        vals[idx] = np.linspace(0.5, 1.5, 32)
        rho = GridDensity(vals)
        out = micro_diffuse(rho, 0.25, 16 / n)
        d = dict(out.diracs)
        u = (idx + 0.5) / n - 0.25
        cm = vals[idx] / n
        eps = 16 / n
        m1 = float(np.sum(0.5 * (1.0 - u / eps) * cm))
        m2 = float(np.sum(0.5 * (1.0 + u / eps) * cm))
        assert d[128 - 16] == pytest.approx(m1, abs=1e-15)
        assert d[128 + 16] == pytest.approx(m2, abs=1e-15)
        # conservation of mass and first moment about the window center
        assert (d[128 - 16] + d[128 + 16]) == pytest.approx(float(cm.sum()), abs=1e-14)
        assert eps * (m2 - m1) == pytest.approx(float((cm * u).sum()), abs=1e-14)

    def test_too_coarse(self):
        with pytest.raises(IntervalTooCoarse):
            micro_diffuse(GridDensity(np.ones(64)), 0.25, 2 / 64)

    @pytest.mark.parametrize("eps, error", [
        (1e-4, IntervalTooCoarse),  # no cell: the parent returned [0, nan, 0]
        (0.02, IntervalTooCoarse),  # a 2-cell window
        (0.5, DomainError),         # the window wraps the whole circle
        (0.6, DomainError),
        (-0.1, IntervalTooCoarse),  # a negative width: the parent returned zeros
    ])
    def test_replacement_potential_checks_the_window(self, eps, error):
        rho = GridDensity(np.ones(64))
        with pytest.raises(error):
            micro_diffuse(rho, 0.25, eps)
        with pytest.raises(error):
            diffusion_replacement_potential(rho, 0.25, eps, np.array([0.3, 0.25, 0.0]))

    def test_potential_rises_outside(self, rng):
        n = 512
        xs = (np.arange(2048) + 0.5) / 2048
        for _ in range(10):
            vals = rng.random(n) + 0.05
            rho = GridDensity(vals)
            b0 = int(rng.integers(0, n))
            k = int(rng.integers(4, 20))
            x0, eps = b0 / n, k / n
            rel = np.abs((xs - x0 + 0.5) % 1.0 - 0.5)
            outside = rel > eps + 1e-9
            delta = diffusion_replacement_potential(rho, x0, eps, xs[outside])
            assert float(delta.min()) >= -1e-9


class TestMinimize:
    def test_reaches_type1_equilibrium(self):
        u = ExternalPotentialSpec(0.0, 0.2)
        grid, residual = minimize_energy(u, 0.6, 512, 50_000, tol=1e-3)
        assert residual <= 1e-3
        target = rho_type1(0.2).density.evaluate(grid.centers)
        l1 = float(np.abs(grid.values - target).mean())
        assert l1 <= 0.02

    def test_no_potential_flattens_to_uniform(self):
        grid, residual = minimize_energy(ExternalPotentialSpec(), 1.0, 256, 2000)
        assert np.allclose(grid.values, 1.0, atol=1e-8)
        assert residual <= 1e-8

    def test_trace_records(self):
        # one row per active-set step, the last one for the returned density;
        # the iterates before it are infeasible, so their energies need not
        # decrease
        trace = []
        grid, residual = minimize_energy(ExternalPotentialSpec(0.0, 0.1), 0.8, 256, 500,
                                         trace=trace)
        steps = [k for k, _, _ in trace]
        assert steps == list(range(1, len(trace) + 1))
        assert 1 < len(trace) <= 500
        assert trace[-1][1] == pytest.approx(energy(grid, ExternalPotentialSpec(0.0, 0.1)),
                                             abs=1e-14)
        assert trace[-1][2] == residual

    def test_energy_below_uniform(self):
        u = ExternalPotentialSpec(0.0, 0.2)
        grid, _ = minimize_energy(u, 0.6, 256, 5000)
        assert energy(grid, u) <= energy(GridDensity(np.full(256, 0.6)), u)

    def test_total_potential_shape(self):
        u = ExternalPotentialSpec(0.0, 0.2)
        grid, residual = minimize_energy(u, 0.6, 256, 20_000, tol=1e-4)
        v = total_potential(grid, u)
        support = grid.values > 1e-6 * 0.6
        # sediment inequality: flat on the support up to the residual, never
        # below the floor elsewhere
        assert float(v[support].max() - v.min()) <= residual + 1e-12
        assert float(v.min()) >= float(v[support].max()) - residual - 1e-9
        if (~support).any():
            assert float(v[~support].min()) >= float(v[support].max()) - 1e-6

    def test_two_arc_support_matches_closed_form(self):
        # Dirac pair at +-0.13 with the two-arc family's own mass: the
        # minimizer's support reproduces the [|x|<L] u [|x|>R] structure with
        # L ~ 0.034 and R ~ 0.22
        from etlab.extremal import rho_type2
        ref = rho_type2(0.13, 0.22, 0.034)
        m = ref.diracs[1][1]
        u = ExternalPotentialSpec(0.13, m)
        grid, residual = minimize_energy(u, 1.0 - 2.0 * m, 512, 60_000, tol=5e-4)
        assert residual <= 5e-4
        cc = (grid.centers + 0.5) % 1.0 - 0.5
        support = grid.values > 1e-3
        changes = np.count_nonzero(np.diff(support.astype(int),
                                           append=int(support[0])) != 0)
        assert changes == 4  # exactly two arcs
        assert float(np.abs(cc[support & (np.abs(cc) < 0.13)]).max()) == \
            pytest.approx(0.034, abs=5e-3)
        assert float(np.abs(cc[support & (np.abs(cc) > 0.13)]).min()) == \
            pytest.approx(0.22, abs=5e-3)
        assert float(np.abs(grid.values - ref.density.evaluate(grid.centers)).mean()) \
            <= 5e-3

    def test_energy_convex_along_interpolations(self, rng):
        u = ExternalPotentialSpec(0.2, 0.1)
        for _ in range(5):
            a = GridDensity(rng.random(128) + 0.01)
            b_vals = rng.random(128) + 0.01
            b_vals *= a.total_mass / b_vals.mean()
            b = GridDensity(b_vals)
            ts = np.linspace(0.0, 1.0, 21)
            es = [energy(GridDensity((1 - t) * a.values + t * b.values), u)
                  for t in ts]
            assert np.all(np.diff(es, 2) >= -1e-12)

    def test_nonconvergence_warns(self):
        # one step from the full circle cannot find the support of m = 0.2;
        # the density returned at the cap is still feasible
        u = ExternalPotentialSpec(0.0, 0.2)
        with pytest.warns(NonConvergence):
            grid, residual = minimize_energy(u, 0.6, 256, 1, tol=1e-9)
        assert residual > 1e-9
        assert float(grid.values.min()) >= 0.0
        assert math.fsum(grid.values.tolist()) / 256 == pytest.approx(0.6, abs=1e-15)

    @pytest.mark.parametrize("M, m, n, iters, mass", [
        (-0.5004323459186146, 0.12978338310496765, 16, 8, 2.2431712087533625e-13),
        (-0.26310305784109533, 0.22409980386768558, 32, 13, 9.261448293488143e-44),
        (0.0, 0.25, 16, 9, 1.6935730096421992e-270),
    ])
    def test_tiny_mass_stays_feasible(self, M, m, n, iters, mass):
        # far below the rounding of U the support is a near-tie of cells; a
        # solve that chases the rounding of U and W * rho there can leave no
        # positive cell, and the rescaling to the mass divides by zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergence)
            grid, residual = minimize_energy(ExternalPotentialSpec(M, m), mass, n, iters)
        assert math.isfinite(residual)
        assert float(grid.values.min()) >= 0.0
        assert math.fsum(grid.values.tolist()) / n == pytest.approx(mass, rel=1e-12)

    def test_subnormal_right_side_ends_the_solve(self):
        # with m = 1.4e-158 the solve's right side is subnormal: r . r, its
        # stop 1e-26 y . y and the curvature d . Kd all underflow to 0
        m = 1.4172571284121228e-158
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NonConvergence)
            grid, residual = minimize_energy(ExternalPotentialSpec(0.0, m), 1.0 - 2.0 * m,
                                             16, 1)
        assert 0.0 <= residual < 1e-150
        assert np.all(grid.values == 1.0)

    @pytest.mark.parametrize("M, m, n, mass", [
        (0.0, 0.25, 16, 1.6935730096421992e-270),
        (0.1, 0.4, 64, 1e-300),
    ])
    def test_tiny_mass_settles(self, M, m, n, mass):
        # far below the rounding of U no cell tests positive, and the support
        # is the one cell kept by the never-empty rule; that support repeats
        trace = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergence)
            minimize_energy(ExternalPotentialSpec(M, m), mass, n, 20, trace=trace)
        assert trace[-1][0] < 20


def _two_arc_scenario():
    from etlab.extremal import rho_type2
    return 0.13, rho_type2(0.13, 0.22, 0.034).diracs[1][1], 512


# the four scenario classes of the benchmark's sediment workload and the
# two-arc scenario of test_two_arc_support_matches_closed_form
SCENARIOS = [(0.0, 0.2, 512), (0.0, 0.1, 1024), (0.25, 0.1, 512), (0.3, 0.05, 256),
             _two_arc_scenario()]
SCENARIO_IDS = ["M0-m0.2", "M0-m0.1", "M0.25-m0.1", "M0.3-m0.05", "two-arc"]


class TestFrostman:
    @pytest.mark.parametrize("M, m, n", SCENARIOS + [(0.4, 0.3, 64), (0.1, 0.45, 128)],
                             ids=SCENARIO_IDS + ["M0.4-m0.3", "M0.1-m0.45"])
    def test_kkt_conditions(self, M, m, n):
        # solver-independent: p >= 0 with exact mass, V = lam on the support
        # (p > 0) and V >= lam off it, to a gap of 1e-12
        u = ExternalPotentialSpec(M, m)
        mass = 1.0 - 2.0 * m
        trace = []
        grid, residual = minimize_energy(u, mass, n, 20, tol=1e-12, trace=trace)
        assert len(trace) <= 20 and residual <= 1e-12
        p = grid.values / n
        assert float(p.min()) >= 0.0
        assert abs(math.fsum(p.tolist()) - mass) <= 1e-12
        v = total_potential(grid, u)
        support = p > 0.0
        lam = float(v[support].mean())
        assert float(np.abs(v[support] - lam).max()) <= 1e-12
        assert float((v[~support] - lam).min(initial=np.inf)) >= -1e-12

    @pytest.mark.parametrize("M, m, n", SCENARIOS, ids=SCENARIO_IDS)
    def test_mirror_descent_reaches_the_same_minimizer(self, M, m, n):
        # the energy is strictly convex and V is its gradient in the cell
        # masses, so for mirror descent's p (residual r) and the minimizer p*:
        # (1/2)|p - p*|_K^2 <= E(p) - E(p*) <= r * mass, up to the cells below
        # the 1e-6 * mass support threshold
        u = ExternalPotentialSpec(M, m)
        mass = 1.0 - 2.0 * m
        oracle, r = mirror_descent.minimize_energy(u, mass, n, 60_000, tol=1e-3)
        grid, _ = minimize_energy(u, mass, n, 20)
        gap = energy(oracle, u) - energy(grid, u)
        assert -1e-15 <= gap <= r * mass * (1.0 + 1e-3)
        diff_hat = np.fft.fft(oracle.values - grid.values) / n
        distance = 0.5 * float(np.sum(spectral_kernel_coefficients(n) * np.abs(diff_hat) ** 2))
        assert distance <= gap + 1e-15
