import math
import warnings

import mpmath
import numpy as np
import pytest

import graded_quadrature as graded
import mirror_descent
from etlab import kernels, sediment
from etlab.errors import DomainError, IntervalTooCoarse, NonConvergence
from etlab.extremal import rho_type1, rho_type2
from etlab.measures import GridBackedDensity, canonical_angle
from etlab.sediment import (
    ExternalPotentialSpec,
    diffusion_replacement_potential,
    energy,
    micro_diffuse,
    minimize_energy,
    spectral_kernel_coefficients,
)


def total_potential(rho: GridBackedDensity, u: ExternalPotentialSpec) -> np.ndarray:
    """V_U = U + W * rho at the cell centers."""
    return u.on_grid(rho.n_cells) + sediment._interaction_potential(rho.values)


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
    """The rules on the sediment's cell grid, where they are enforced: the
    solver takes a power-of-two grid, micro-diffusion nonnegative cells."""

    def test_power_of_two_required(self):
        with pytest.raises(DomainError):
            minimize_energy(ExternalPotentialSpec(0.0, 0.2), 0.6, 100, 20)

    def test_nonnegative(self):
        with pytest.raises(DomainError):
            micro_diffuse(GridBackedDensity(-np.ones(64)), 0.25, 8 / 64)


class TestEnergy:
    def test_uniform_zero(self):
        assert energy(GridBackedDensity(np.ones(256)), ExternalPotentialSpec()) == 0.0

    def test_single_mode_eighth(self):
        n = 512
        centers = (np.arange(n) + 0.5) / n
        rho = GridBackedDensity(1.0 + np.cos(2.0 * np.pi * centers))
        e = energy(rho, ExternalPotentialSpec())
        assert e == pytest.approx(0.125, abs=1e-12)

    def test_uniform_with_dirac_potential_nearly_zero(self):
        # continuum value is 0 (mean-zero kernel); the discrete sampling of U
        # leaves only the aliased residue ~ -2 m log|2 cos(pi n M)| / n
        n = 512
        rho = GridBackedDensity(np.ones(n))
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
            rho = GridBackedDensity(1.0 + np.cos(phases) @ a + np.sin(phases) @ b)
            spectral = energy(rho, ExternalPotentialSpec())
            direct = direct_energy_from_coefficients(a, b)
            assert spectral == pytest.approx(direct, abs=1e-8)

    def test_symbol_values(self):
        w = spectral_kernel_coefficients(8)
        assert w[0] == 0.0
        assert w[1] == pytest.approx(0.5)
        assert w[2] == pytest.approx(0.25)
        assert w[-1] == pytest.approx(0.5)  # k = -1


def new_endpoint_diracs(rho, x0, eps):
    """(left, m1, right, m2): micro_diffuse's two endpoint Diracs, as angles,
    for a window whose endpoint masses are both positive."""
    n = rho.n_cells
    b0, k = round(x0 * n), round(eps * n)
    left, right = (b0 - k) / n, (b0 + k) / n
    d = dict(micro_diffuse(rho, x0, eps).diracs)
    return left, d[canonical_angle(left)], right, d[canonical_angle(right)]


def clausen_replacement_potential(rho, x0, eps, x) -> float:
    """diffusion_replacement_potential at x to 40 digits: each endpoint Dirac
    of mass m gives m W(x - y), and the cell of value c on [a, b] that it
    removes gives -c (Cl2(2 pi (x - a)) - Cl2(2 pi (x - b))) / (2 pi), the
    integral of sum_k cos(2 pi k (x - y)) / k over y in [a, b]."""
    n = rho.n_cells
    left, m1, right, m2 = new_endpoint_diracs(rho, x0, eps)
    b0, k = round(x0 * n), round(eps * n)
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)

        def w(y):
            return -mpmath.log(abs(2 * mpmath.sin(mpmath.pi * (xm - mpmath.mpf(y)))))

        out = mpmath.mpf(m1) * w(left) + mpmath.mpf(m2) * w(right)
        for j in range(b0 - k, b0 + k):
            a, b = mpmath.mpf(j) / n, mpmath.mpf(j + 1) / n
            out -= mpmath.mpf(rho.values[j % n]) * (
                mpmath.clsin(2, 2 * mpmath.pi * (xm - a))
                - mpmath.clsin(2, 2 * mpmath.pi * (xm - b))) / (2 * mpmath.pi)
        return float(out)


def gauss_legendre_replacement_potential(rho, x0, eps, xs) -> np.ndarray:
    """The per-cell rule diffusion_replacement_potential used before it went
    through the potential engine: the endpoint Diracs minus 32 Gauss-Legendre
    nodes on every window cell.  Accurate at targets half a cell or more
    outside the window."""
    n = rho.n_cells
    left, m1, right, m2 = new_endpoint_diracs(rho, x0, eps)
    b0, k = round(x0 * n), round(eps * n)
    out = m1 * kernels.kernel_T(xs - left) + m2 * kernels.kernel_T(xs - right)
    nodes, weights = kernels._gl_rule(32)
    cells = np.arange(b0 - k, b0 + k)
    ys = (cells[:, None] + nodes[None, :]) / n
    vals = kernels.kernel_T(xs[:, None, None] - ys[None, :, :]) @ weights
    return out - vals @ (rho.values[cells % n] / n)


class TestMicroDiffuse:
    def test_uniform_window_splits_evenly(self):
        n = 512
        rho = GridBackedDensity(np.ones(n))
        out = micro_diffuse(rho, 0.25, 16 / n)
        d = dict(out.diracs)
        # interval mass is 2 eps for unit density; each endpoint takes half
        assert d[canonical_angle((128 - 16) / n)] == pytest.approx(16 / n, abs=1e-15)
        assert d[canonical_angle((128 + 16) / n)] == pytest.approx(16 / n, abs=1e-15)
        assert out.mass() == pytest.approx(1.0)

    def test_empty_window_is_identity_mass(self):
        n = 256
        vals = np.ones(n)
        vals[50:70] = 0.0
        rho = GridBackedDensity(vals)
        out = micro_diffuse(rho, (60 + 0.0) / n, 8 / n)
        assert out.diracs == ()  # no endpoint Dirac of mass 0
        assert np.array_equal(out.density.values, vals)

    def test_ramp_window_moment_system(self):
        n = 512
        vals = np.ones(n)
        idx = (128 - 16 + np.arange(32)) % n
        vals[idx] = np.linspace(0.5, 1.5, 32)
        rho = GridBackedDensity(vals)
        out = micro_diffuse(rho, 0.25, 16 / n)
        d = dict(out.diracs)
        left, right = d[canonical_angle((128 - 16) / n)], d[canonical_angle((128 + 16) / n)]
        u = (idx + 0.5) / n - 0.25
        cm = vals[idx] / n
        eps = 16 / n
        m1 = float(np.sum(0.5 * (1.0 - u / eps) * cm))
        m2 = float(np.sum(0.5 * (1.0 + u / eps) * cm))
        assert left == pytest.approx(m1, abs=1e-15)
        assert right == pytest.approx(m2, abs=1e-15)
        # conservation of mass and first moment about the window center
        assert (left + right) == pytest.approx(float(cm.sum()), abs=1e-14)
        assert eps * (m2 - m1) == pytest.approx(float((cm * u).sum()), abs=1e-14)

    def test_too_coarse(self):
        with pytest.raises(IntervalTooCoarse):
            micro_diffuse(GridBackedDensity(np.ones(64)), 0.25, 2 / 64)

    @pytest.mark.parametrize("eps, error", [
        (1e-4, IntervalTooCoarse),  # no cell: the parent returned [0, nan, 0]
        (0.02, IntervalTooCoarse),  # a 2-cell window
        (0.5, DomainError),         # the window wraps the whole circle
        (0.6, DomainError),
        (-0.1, IntervalTooCoarse),  # a negative width: the parent returned zeros
    ])
    def test_replacement_potential_checks_the_window(self, eps, error):
        rho = GridBackedDensity(np.ones(64))
        with pytest.raises(error):
            micro_diffuse(rho, 0.25, eps)
        with pytest.raises(error):
            diffusion_replacement_potential(rho, 0.25, eps, np.array([0.3, 0.25, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["x0", "eps"])
    def test_non_finite_window_is_a_domain_error(self, which, bad):
        """A NaN or infinite centre or half-width is bad input: it had raised
        a bare ValueError from int(round(nan)), or for a NaN eps the
        misleading "eps must be < 1/2"."""
        rho = GridBackedDensity(np.ones(64))
        args = {"x0": 0.25, "eps": 0.2, which: bad}
        with pytest.raises(DomainError, match="finite"):
            micro_diffuse(rho, args["x0"], args["eps"])
        with pytest.raises(DomainError, match="finite"):
            diffusion_replacement_potential(rho, args["x0"], args["eps"], np.array([0.3, 0.0]))

    def test_potential_rises_outside(self, rng):
        n = 512
        xs = (np.arange(2048) + 0.5) / 2048
        for _ in range(10):
            vals = rng.random(n) + 0.05
            rho = GridBackedDensity(vals)
            b0 = int(rng.integers(0, n))
            k = int(rng.integers(4, 20))
            x0, eps = b0 / n, k / n
            rel = np.abs((xs - x0 + 0.5) % 1.0 - 0.5)
            outside = rel > eps + 1e-9
            delta = diffusion_replacement_potential(rho, x0, eps, xs[outside])
            assert float(delta.min()) >= -1e-9


    def test_replacement_potential_matches_clausen_oracle(self, rng):
        """To 1e-14 of 40 digits at 1e-9, 1e-6 and 1e-3 outside both window
        edges, where a fixed per-cell rule loses digits (32 Gauss-Legendre
        nodes are 9e-7 off at 1e-9), and at the far point."""
        n, b0, k = 256, 70, 12
        rho = GridBackedDensity(rng.random(n) + 0.05)
        x0, eps = b0 / n, k / n
        gaps = np.array([1e-9, 1e-6, 1e-3])
        xs = np.concatenate(((b0 - k) / n - gaps, (b0 + k) / n + gaps, [x0 + 0.5]))
        got = diffusion_replacement_potential(rho, x0, eps, xs)
        want = [clausen_replacement_potential(rho, x0, eps, x) for x in xs]
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_replacement_potential_matches_per_cell_gauss_legendre(self, rng):
        xs = (np.arange(2048) + 0.5) / 2048
        for n in (256, 512):
            vals = rng.random(n) + 0.05
            rho = GridBackedDensity(vals)
            b0 = int(rng.integers(0, n))
            k = int(rng.integers(4, 20))
            x0, eps = b0 / n, k / n
            rel = np.abs((xs - x0 + 0.5) % 1.0 - 0.5)
            outside = xs[rel >= eps + 0.5 / n]
            got = diffusion_replacement_potential(rho, x0, eps, outside)
            want = gauss_legendre_replacement_potential(rho, x0, eps, outside)
            assert np.max(np.abs(got - want)) <= 1e-14


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
        assert energy(grid, u) <= energy(GridBackedDensity(np.full(256, 0.6)), u)

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
            a = GridBackedDensity(rng.random(128) + 0.01)
            b_vals = rng.random(128) + 0.01
            b_vals *= a.values.mean() / b_vals.mean()
            b = GridBackedDensity(b_vals)
            ts = np.linspace(0.0, 1.0, 21)
            es = [energy(GridBackedDensity((1 - t) * a.values + t * b.values), u)
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
        (0.0, 0.14742100767984398, 64, 11, 3.290902619967107e-20),
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

    def test_zero_residual_at_the_step_cap_settles_later(self):
        # at 11 steps this warns "residual 0.000e+00 ..., support still
        # moving": the support is shrinking, 6 cells to 4, 2 and 1 over steps
        # 9-13, not cycling; rounding decides which of cells 31 and 32 stays
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonConvergence)
            grid, residual = minimize_energy(ExternalPotentialSpec(0.0, 0.14742100767984398),
                                             3.290902619967107e-20, 64, 20)
        assert residual <= 1e-15
        assert set(np.flatnonzero(grid.values > 0.0)) <= {31, 32}

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


def plain_cg_solve_on(support, u_grid, mass):
    """The unpreconditioned conjugate gradients that ``sediment._solve_on``
    ran before, with its stop 1e-26 y . y on r . r; returns (rho, stop)."""
    idx = np.flatnonzero(support)
    rho = np.zeros(support.size)
    rho[idx] = base = mass * support.size / idx.size
    y = sediment._interaction_potential(rho)[idx] + u_grid[idx]
    r = y.mean() - y
    x, d, rr, stop = np.zeros(idx.size), r.copy(), float(r @ r), 1e-26 * float(y @ y)
    for _ in range(idx.size):
        if rr <= stop:
            break
        rho[idx] = d
        kd = sediment._interaction_potential(rho)[idx]
        kd -= kd.mean()
        curvature = float(d @ kd)
        if not curvature > 0.0:
            break
        alpha = rr / curvature
        x += alpha * d
        r -= alpha * kd
        rr, rr_old = float(r @ r), rr
        d = r + (rr / rr_old) * d
    rho[idx] = base + x
    return rho, stop


def dense_solve_on(support, u_grid, mass):
    """The bordered system [K_SS -1; 1^T 0] (rho_S, lam) = (-u_S, n mass)
    with K formed explicitly from the complex FFT of the symbol."""
    n = support.size
    kcol = np.fft.ifft(spectral_kernel_coefficients(n)).real
    idx = np.flatnonzero(support)
    s = idx.size
    a = np.zeros((s + 1, s + 1))
    a[:s, :s] = kcol[np.subtract.outer(idx, idx) % n]
    a[:s, s] = -1.0
    a[s, :s] = 1.0
    sol = np.linalg.solve(a, np.append(-u_grid[idx], mass * n))
    rho = np.zeros(n)
    rho[idx] = sol[:s]
    return rho


def _fixed_supports(n):
    """(name, M, m, support) on n cells: the whole circle, one arc (outside
    rho_type1(0.2)'s gap), the two arcs of the two-arc scenario and supports
    of one to three cells."""
    x = ((np.arange(n) + 0.5) / n + 0.5) % 1.0 - 0.5
    cells = np.arange(n)
    m_two_arc = rho_type2(0.13, 0.22, 0.034).diracs[1][1]
    return [("whole", 0.25, 0.1, np.ones(n, dtype=bool)),
            ("one-arc", 0.0, 0.2, np.abs(x) > 0.131),
            ("two-arc", 0.13, m_two_arc, (np.abs(x) < 0.034) | (np.abs(x) > 0.22)),
            ("one-cell", 0.3, 0.05, cells == n // 3),
            ("two-cells", 0.0, 0.2, np.isin(cells, [n // 2, n // 2 + 1])),
            ("three-cells", 0.3, 0.05, np.isin(cells, [1, 2, n // 2]))]


class TestSolveOn:
    # rho against the dense solve: the stop |r| <= 1e-13 |y| allows an error
    # of about |K_SS^-1| |r|, and |K_SS^-1| grows like n; at n = 512 on the
    # arcs the two differ by 2.6e-12 relative while their potentials agree to
    # 1e-14 of max |U|
    RHO_REL = {64: 1e-12, 256: 1e-12, 512: 1e-11}

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_matches_the_dense_bordered_solve(self, n):
        for name, M, m, support in _fixed_supports(n):
            u_grid = ExternalPotentialSpec(M, m).on_grid(n)
            mass = 1.0 - 2.0 * m
            rho = sediment._solve_on(support, u_grid, mass)
            ref = dense_solve_on(support, u_grid, mass)
            scale = float(np.abs(ref).max())
            assert float(np.abs(rho - ref).max()) <= self.RHO_REL[n] * scale, name
            v = u_grid + sediment._interaction_potential(rho)
            v_ref = u_grid + sediment._interaction_potential(ref)
            assert float(np.abs(v - v_ref).max()) <= 1e-12 * float(np.abs(u_grid).max()), name
            assert np.all(rho[~support] == 0.0), name
            assert abs(math.fsum(rho.tolist()) / n - mass) <= 1e-15, name

    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_meets_the_plain_cg_stop(self, n):
        # both solves stop where |r| <= 1e-13 |y|, so their residuals, the
        # potentials' deviation from their mean on S, are each within it
        for name, M, m, support in _fixed_supports(n):
            u_grid = ExternalPotentialSpec(M, m).on_grid(n)
            mass = 1.0 - 2.0 * m
            rho = sediment._solve_on(support, u_grid, mass)
            ref, stop = plain_cg_solve_on(support, u_grid, mass)

            def residual(values):
                v = (u_grid + sediment._interaction_potential(values))[support]
                return v - v.mean()

            r, r_ref = residual(rho), residual(ref)
            assert float(r @ r) <= stop and float(r_ref @ r_ref) <= stop, name
            assert float(np.linalg.norm(r - r_ref)) <= 2.0 * math.sqrt(stop), name


class TestWork:
    @pytest.mark.parametrize("M, m, n, steps", [
        (0.0, 0.2, 512, 11), (0.0, 0.1, 1024, 10), (0.25, 0.1, 512, 8), (0.3, 0.05, 256, 5),
        (0.3, 0.05, 16384, 13),
    ], ids=SCENARIO_IDS[:4] + ["M0.3-m0.05-n16384"])
    def test_kernel_products_per_step(self, monkeypatch, M, m, n, steps):
        # the benchmark's scenario classes and one large grid; plain CG took
        # 72-140 products per step on the four classes, the preconditioned
        # solve takes 6-7 there and 11 at n = 16384
        calls = []
        product = sediment._interaction_potential

        def counted(values):
            calls.append(values.size)
            return product(values)

        monkeypatch.setattr(sediment, "_interaction_potential", counted)
        trace = []
        _, residual = minimize_energy(ExternalPotentialSpec(M, m), 1.0 - 2.0 * m, n,
                                      50_000, tol=1e-3, trace=trace)
        assert trace[-1][0] == steps
        assert len(calls) <= 15 * steps
        assert residual <= 1e-13


def type1_cell_averages(m, n):
    """rho_type1(m)'s density averaged over each cell [k/n, (k+1)/n), from
    its antiderivative: with a = 2m, b = sqrt(1 - a^2) and u = cos(pi x),
    int sqrt(1 - a^2/sin^2(pi x)) dx = -F(u) / pi on the arc, where
    F(u) = asin(u/b) - a atan(a u / sqrt(b^2 - u^2))."""
    a = 2.0 * m
    b = math.sqrt(1.0 - a * a)

    def from_zero(x):  # the density's integral over [0, x], |x| <= 1/2
        u = np.minimum(np.cos(np.pi * np.abs(x)), b)
        f_u = np.arcsin(u / b) - a * np.arctan2(a * u, np.sqrt(b * b - u * u))
        return np.sign(x) * (0.5 * np.pi * (1.0 - a) - f_u) / np.pi

    edges = np.arange(n + 1) / n
    upper = edges > 0.5
    cumulative = from_zero(np.where(upper, edges - 1.0, edges)) + np.where(upper, 1.0 - a, 0.0)
    return n * np.diff(cumulative)


class TestLargeGrids:
    def test_cell_averages_closed_form(self):
        n = 512
        avg = type1_cell_averages(0.2, n)
        assert math.fsum(avg.tolist()) / n == pytest.approx(0.6, abs=1e-14)
        # away from the gap's edge a cell average is the center value to O(1/n^2)
        centers = (np.arange(n) + 0.5) / n
        inner = np.abs((centers + 0.5) % 1.0 - 0.5) > 0.2
        mid = rho_type1(0.2).density.evaluate(centers)
        assert float(np.abs(avg - mid)[inner].max()) <= 1e-4

    @pytest.mark.parametrize("n, bound", [(4096, 4e-6), (8192, 2e-7), (16384, 1e-7)])
    def test_type1_sediment_converges(self, n, bound):
        # mean |delta| against the cell averages of rho_type1(0.2), measured
        # 2.3e-4, 1.0e-5, 4.5e-6 and 3.2e-6 at n = 256 to 2048, then 3.7e-6,
        # 1.6e-7 and 7.0e-8 here: the cells at the gap's edge carry most of it,
        # and it depends on where in its cell the edge falls (0.27 of a cell
        # at n = 2048, 0.54 at 4096, 0.07 at 8192, 0.14 at 16384)
        grid, residual = minimize_energy(ExternalPotentialSpec(0.0, 0.2), 0.6, n, 50)
        assert residual <= 1e-13
        assert float(np.abs(grid.values - type1_cell_averages(0.2, n)).mean()) <= bound
