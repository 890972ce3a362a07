import json
import math

import mpmath
import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graded_quadrature as graded
from conftest import assert_sharp_inequality
from golden_modulus import golden_min
from reference_oracles import (
    d_tilde_quadrature,
    evaluate_direct,
    h_tilde_quadrature,
    potential_exact,
)
from etlab import kernels, measures
from etlab._search import bisect
from etlab.discretize import discretize_measure, move_to_slab_midpoints, rationalize
from etlab.errors import DomainError, EmptyMeasure, ZeroDiscrepancy
from etlab.extremal import make_admissible, periodize, rho_type1, rho_type2
from etlab.measures import (
    AdmissibleDistR,
    EmpiricalMeasure,
    GridBackedDensity,
    IntervalT,
    MixedMeasureT,
    TypeIITDensity,
    TypeITDensity,
    UniformPlusDensity,
    _canonical_array,
    _nearest_atom_distance,
    canonical_angle,
    d_tilde,
    discrepancy_empirical,
    discrepancy_mixed,
    g_ratio,
    g_tilde,
    h_tilde,
    height_T,
    measure_from_json,
    measure_to_json,
)



def rotated(rho: EmpiricalMeasure, phi: float) -> EmpiricalMeasure:
    return EmpiricalMeasure(_canonical_array(rho.angles + phi), rho.weights.copy())


class TestAngles:
    @given(st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    @example(0.1)
    @example(-0.3)
    @example(1e-300)
    @example(-0.0)
    @example(float(np.nextafter(0.5, 0.0)))
    @example(1.1)
    @settings(max_examples=300, deadline=None)
    def test_canonical_idempotent_and_in_range(self, x):
        y = canonical_angle(x)
        assert -0.5 <= y < 0.5
        assert canonical_angle(y) == y
        if -0.5 <= x < 0.5:  # a canonical angle comes back unchanged
            assert y == x
        assert _canonical_array(np.array([x, y])).tolist() == [y, y]
        assert math.copysign(1.0, y) == 1.0 or y != 0.0

    def test_potential_is_infinite_at_an_atoms_own_angle(self):
        assert EmpiricalMeasure(np.array([0.1]), np.array([1.0])).potential(0.1) == math.inf
        assert MixedMeasureT(diracs=((0.1, 1.0),), density=None).potential(0.1) == math.inf

    def test_half_maps_down(self):
        assert canonical_angle(0.5) == -0.5
        assert canonical_angle(-0.5) == -0.5

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            IntervalT(0.0, 1.0)
        arc = IntervalT(0.75, 0.5)
        assert arc.start == -0.25 and arc.end == pytest.approx(0.25)


def discrepancy_empirical_bruteforce(rho: EmpiricalMeasure) -> float:
    """O(n^2) sweep over all closed atom-to-atom arcs."""
    theta, w = rho.angles, rho.weights
    prefix = np.cumsum(w)
    total = float(prefix[-1])
    best = -np.inf
    for i in range(theta.size):
        before_i = prefix[i] - w[i]
        mass = prefix - before_i
        mass[:i] = total - (before_i - prefix[:i])  # arcs wrapping past the seam
        best = max(best, float(np.max(mass - (theta - theta[i]) % 1.0)))
    return best


class TestEmpirical:
    def test_merging_and_sorting(self):
        m = EmpiricalMeasure.from_pairs([(0.75, 0.25), (-0.25, 0.25), (0.1, 0.5)])
        assert m.n_atoms == 2
        assert m.weights[0] == pytest.approx(0.5)

    def test_positive_weights_enforced(self):
        with pytest.raises(DomainError):
            EmpiricalMeasure.from_pairs([(0.0, 0.0)])

    def test_dirac_discrepancy(self):
        m = EmpiricalMeasure.from_pairs([(0.0, 1.0)])
        d, w = discrepancy_empirical(m)
        assert d == pytest.approx(1.0) and w.length == 0.0

    def test_equally_spaced(self):
        n = 12
        m = EmpiricalMeasure.from_pairs([(k / n, 1.0 / n) for k in range(n)])
        d, w = discrepancy_empirical(m)
        assert d == pytest.approx(1.0 / n, abs=1e-12)
        # every atom-to-atom arc ties here; the witness must achieve the value
        inside = np.abs((m.angles - w.start) % 1.0) <= w.length + 1e-12
        assert float(m.weights[inside].sum()) - w.length == pytest.approx(d, abs=1e-12)

    def test_three_atom_example(self):
        m = EmpiricalMeasure.from_pairs([(0.0, 0.5), (0.3, 0.25), (0.6, 0.25)])
        d, w = discrepancy_empirical(m)
        assert d == pytest.approx(discrepancy_empirical_bruteforce(m), abs=1e-14)
        assert d == pytest.approx(0.5)  # the single heavy atom

    def test_empty_measure(self):
        with pytest.raises(EmptyMeasure):
            discrepancy_empirical(EmpiricalMeasure.from_pairs([]))

    def test_fast_path_matches_bruteforce_200(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 51))
            ang = rng.uniform(-0.5, 0.5, k)
            wts = rng.random(k) + 1e-3
            wts /= wts.sum()
            m = EmpiricalMeasure.from_pairs(list(zip(ang, wts)))
            fast, _ = discrepancy_empirical(m)
            assert fast == pytest.approx(discrepancy_empirical_bruteforce(m), abs=1e-12)

    @given(st.lists(st.tuples(st.floats(-0.5, 0.499), st.floats(0.01, 1.0)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_bruteforce_hypothesis(self, pairs):
        wts = np.array([w for _, w in pairs])
        wts = wts / wts.sum()
        m = EmpiricalMeasure.from_pairs(
            [(a, w) for (a, _), w in zip(pairs, wts)])
        fast, _ = discrepancy_empirical(m)
        assert fast == pytest.approx(discrepancy_empirical_bruteforce(m), abs=1e-12)

    def test_height_of_dirac(self):
        m = EmpiricalMeasure.from_pairs([(0.0, 1.0)])
        h, arg = height_T(m, 512)
        assert h == pytest.approx(math.log(2.0), abs=1e-10)
        assert abs(abs(arg) - 0.5) <= 1e-8

    @pytest.mark.parametrize("at", [0.3137, -0.5, 0.5 - 1e-14])
    def test_height_of_one_atom_off_the_grid(self, at):
        for rho in (EmpiricalMeasure.from_pairs([(at, 1.0)]),
                    MixedMeasureT(diracs=((at, 1.0),), density=None)):
            h, arg = height_T(rho, 256)
            assert h == pytest.approx(math.log(2.0), abs=1e-15)
            assert abs(canonical_angle(arg - at - 0.5)) <= 1e-7

    @pytest.mark.parametrize("a", [0.1, 0.5 - 0.15 / 256])
    def test_height_of_two_atoms_closer_than_a_cell(self, a):
        # -(log|2 sin pi x| + log|2 sin pi (x - d)|) / 2 is lowest at x = a + d/2 + 1/2
        d = 0.3 / 256
        rho = EmpiricalMeasure.from_pairs([(a, 0.5), (a + d, 0.5)])
        h, arg = height_T(rho, 256)
        assert h == pytest.approx(math.log(2.0 * math.cos(0.5 * math.pi * d)), abs=1e-15)
        assert abs(canonical_angle(arg - a - 0.5 * d - 0.5)) <= 1e-7

    def test_height_rotation_invariant(self, rng):
        ang = rng.uniform(-0.5, 0.5, 7)
        m = EmpiricalMeasure.from_pairs([(a, 1.0 / 7) for a in ang])
        h0, _ = height_T(m, 512)
        h1, _ = height_T(rotated(m, 0.237), 512)
        assert h0 == pytest.approx(h1, abs=1e-9)

    def test_atoms_on_grid_candidates_match_dense_filter(self, rng):
        grid_n = 512
        grid = (np.arange(grid_n) + 0.5) / grid_n - 0.5
        ang = np.concatenate(([-0.5], grid[[0, 1, 7, 255, 256, 400, grid_n - 1]],
                              rng.uniform(-0.5, 0.5, 40)))
        m = EmpiricalMeasure.from_pairs([(a, 1.0 / ang.size) for a in ang])
        theta = m.angles
        gaps_mid = _canonical_array(theta + 0.5 * ((np.roll(theta, -1) - theta) % 1.0))
        pts = _canonical_array(np.concatenate(
            (grid, gaps_mid, theta + 5e-13, theta - 5e-13, [-0.5, 0.5 - 1e-17])))
        dense = np.abs(_canonical_array(pts[:, None] - theta[None, :])).min(axis=1)
        assert np.array_equal(_nearest_atom_distance(theta, pts), dense)
        h, arg = height_T(m, grid_n)
        assert np.isfinite(h)
        assert np.abs(_canonical_array(arg - theta)).min() > 1e-12

    def test_sharp_inequality_on_random_atoms(self, rng):
        for _ in range(25):
            k = int(rng.integers(1, 33))
            m = EmpiricalMeasure.from_pairs(
                [(a, 1.0 / k) for a in rng.uniform(-0.5, 0.5, k)])
            d, _ = discrepancy_empirical(m)
            h, _ = height_T(m, 512)
            assert_sharp_inequality(d, h)


def grid_cumulative_discrepancy_oracle(rho: MixedMeasureT, n: int = 200_001):
    """Dense-grid oracle for even measures: cumulative trapezoid of the
    density plus Dirac masses, maximized over symmetric closed windows."""
    a = np.linspace(0.0, 0.5, n)
    ring = rho.density_eval(a) + rho.density_eval(-a)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (ring[1:] + ring[:-1]) * np.diff(a))))
    dmass = np.zeros_like(a)
    for pos, mass in rho.diracs:
        dmass[a >= abs(pos) - 1e-12] += mass
    return float(np.max(dmass + cum - 2.0 * a))


def even_window_oracle(rho: MixedMeasureT) -> tuple[float, float]:
    """The scan ``discrepancy_mixed`` ran before the general two-endpoint
    scan, for measures whose best arc is a window [-a, a]: F(a), the mass of
    [-a, a] minus 2a, on 1,025 half-widths plus the piece edges and Dirac
    radii, with the density cumulative by 16 Gauss nodes per segment, then
    refined where F'(a) = rho(a) + rho(-a) - 2 falls through 0 next to the
    best half-width.  Returns (D, a)."""
    def value(a, cum):
        return math.fsum(m for pos, m in rho.diracs if abs(pos) <= a + 1e-15) + cum - 2.0 * a

    radii = {0.0, 0.5} | {abs(pos) for pos, _ in rho.diracs}
    for lo, hi in rho.density.pieces():
        radii |= {min(abs(e), abs(1.0 - abs(e))) for e in (lo, hi)}
    radii.update(np.linspace(0.0, 0.5, 1025).tolist())
    avals = np.array(sorted(r for r in radii if 0.0 <= r <= 0.5))

    def ring(y):
        y = np.asarray(y, dtype=float)
        return rho.density_eval(y) + rho.density_eval(-y)

    nodes, weights = kernels._gl_rule(16)
    width = np.diff(avals)
    xs = avals[:-1, None] + width[:, None] * nodes
    cums = np.concatenate(([0.0], np.cumsum((ring(xs.ravel()).reshape(xs.shape) @ weights) * width)))
    best = int(np.argmax([value(a, c) for a, c in zip(avals, cums)]))
    best_a, best_f = avals[best], value(avals[best], cums[best])
    ks = np.array([k for k in (best - 1, best) if 0 <= k and k + 1 < avals.size], dtype=int)
    lo, hi = avals[ks], avals[ks + 1]
    falls = (ring(lo + 1e-13) - 2.0 > 0.0) & (ring(hi - 1e-13) - 2.0 < 0.0) & (hi - lo > 1e-13)
    ks, lo, hi = ks[falls], lo[falls], hi[falls]
    spec = graded.QuadratureSpec(panels=4, nodes_per_panel=16, abs_tol=1e-10, max_refinements=40)
    for k, a_star in zip(ks, bisect(lambda a: ring(a) - 2.0 > 0.0, lo, hi, (hi - lo) * 2.0**-60)):
        extra = graded.integrate_piece(ring, avals[k], a_star, spec, grade_ends=True) \
            if a_star > avals[k] else 0.0
        if value(a_star, cums[k] + extra) > best_f:
            best_a, best_f = a_star, value(a_star, cums[k] + extra)
    return best_f, best_a


# even measures whose best arc is a window [-a, a]
EVEN_WINDOWS = {
    "type2_0.034": lambda: rho_type2(0.13, 0.22, 0.034),
    "type2_0.05": lambda: rho_type2(0.13, 0.22, 0.05),
    "type2_L0": lambda: rho_type2(0.13, 0.3, 0.0),
    "periodized_I": lambda: periodize(AdmissibleDistR("I", 0.1)),
    "periodized_II": lambda: periodize(make_admissible(2.1, 0.1)),
    "periodized_III": lambda: periodize(make_admissible(1.4, 0.1)),
    "periodized_III_wide": lambda: periodize(make_admissible(1.4, 0.2)),
    "periodized_III_narrow": lambda: periodize(make_admissible(1.1, 0.05)),
    "cosines": lambda: MixedMeasureT((), UniformPlusDensity(np.array([0.6, 0.12]))),
}


class TestMixed:
    def test_uniform_height_and_discrepancy(self):
        uni = MixedMeasureT(diracs=(), density=UniformPlusDensity(np.zeros(1)))
        h, _ = height_T(uni, 256)
        assert abs(h) <= 1e-8
        d, _ = discrepancy_mixed(uni)
        assert d == pytest.approx(0.0, abs=1e-10)
        with pytest.raises(ZeroDiscrepancy):
            g_ratio(uni)

    def test_uneven_density_closed_form(self):
        # 1 + a cos 2 pi x + b sin 2 pi x: the arc where the density exceeds 1,
        # half a turn long, holds sqrt(a^2 + b^2) / pi more than its length
        rho = MixedMeasureT(diracs=(), density=UniformPlusDensity(
            np.array([0.1]), np.array([0.3])))
        d, w = discrepancy_mixed(rho)
        assert d == pytest.approx(math.sqrt(0.1) / math.pi, abs=1e-13)
        assert w.length == pytest.approx(0.5, abs=1e-12)

    def test_sine_density_and_documents_without_parity(self):
        # 1 + 0.5 sin(2 pi x): D = 1/(2 pi) on the arc [0, 1/2]
        odd = MixedMeasureT((), UniformPlusDensity(np.array([0.0]), np.array([0.5])))
        d, w = discrepancy_mixed(odd)
        assert d == pytest.approx(0.5 / math.pi, abs=1e-13)
        assert w.start == pytest.approx(0.0, abs=1e-12)
        assert w.length == pytest.approx(0.5, abs=1e-12)
        doc = measure_to_json(odd)
        assert "even" not in doc
        # documents that still carry the key load, and the key is ignored
        assert discrepancy_mixed(measure_from_json({**doc, "even": True}))[0] == d

    def test_dirac_pair_off_center(self):
        # the best arc is the heavier Dirac alone, which no window centred
        # at 0 holds without the other
        pairs = ((0.0, 0.4), (0.5, 0.6))
        d, w = discrepancy_mixed(MixedMeasureT(pairs, None))
        assert d == pytest.approx(discrepancy_empirical(EmpiricalMeasure.from_pairs(pairs))[0],
                                  abs=1e-15)
        assert d == pytest.approx(0.6, abs=1e-15)
        assert w.start == -0.5 and w.length == 0.0

    def test_non_probability_rejected(self):
        # the arcs across the seam assume mass 1: the sup of (mass - length)
        # for half the uniform mass is 0, not the 0.5 of the seam arc
        for rho in (MixedMeasureT((), GridBackedDensity(np.full(4, 0.5))),
                    MixedMeasureT(((0.1, 0.5),), None),
                    MixedMeasureT(((0.0, 0.2),), UniformPlusDensity(np.zeros(1)))):
            with pytest.raises(DomainError):
                discrepancy_mixed(rho)

    def test_type2_discrepancy_against_mpmath(self):
        # the window [-M, M]: both Diracs and the inner arc [-L, L]
        M, R, L = 0.13, 0.22, 0.034
        rho = rho_type2(M, R, L)
        d, w = discrepancy_mixed(rho)

        def density(x):
            num = (mpmath.sin(mpmath.pi * (x - R)) * mpmath.sin(mpmath.pi * (x + R))
                   * mpmath.sin(mpmath.pi * (x - L)) * mpmath.sin(mpmath.pi * (x + L)))
            return mpmath.sqrt(num) / abs(mpmath.sin(mpmath.pi * (x - M))
                                          * mpmath.sin(mpmath.pi * (x + M)))

        with mpmath.workdps(30):
            inner = mpmath.quad(density, [-L, 0, L])
        want = 2.0 * rho.density.dirac_mass() + float(inner) - 2.0 * M
        assert d == pytest.approx(want, abs=1e-13)
        assert w.start == pytest.approx(-M, abs=1e-15) and w.length == pytest.approx(2 * M)

    @pytest.mark.parametrize("name", sorted(EVEN_WINDOWS))
    def test_matches_even_window_oracle(self, name):
        rho = EVEN_WINDOWS[name]()
        d, w = discrepancy_mixed(rho)
        want, a = even_window_oracle(rho)
        assert d == pytest.approx(want, abs=1e-8)
        assert w.start == pytest.approx(-a, abs=1e-8)
        assert w.length == pytest.approx(2.0 * a, abs=1e-8)

    def test_grid_backed_uniform_mass(self):
        rho = MixedMeasureT((), GridBackedDensity(np.ones(4096)))
        assert rho.mass() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("build", [
        lambda: MixedMeasureT((), GridBackedDensity(np.ones(4096))),
        lambda: rho_type1(0.05),
        lambda: rho_type2(0.13, 0.22, 0.034),
        lambda: periodize(make_admissible(1.4, 0.1)),
    ], ids=["grid_4096", "type1", "type2", "periodized_III"])
    def test_density_mass_stored_with_the_nodes(self, build):
        # the mass is summed once, when the nodes are built, bit for bit
        # the fsum over the node weights
        rho = build()
        fixed = rho._fixed_nodes
        assert rho.density_mass() == fixed.mass == math.fsum(fixed.field.weights.tolist())

    def test_type1_discrepancy_is_dirac_mass(self):
        rho = rho_type1(0.2)
        d, w = discrepancy_mixed(rho)
        assert d == 0.4 and w.length == 0.0
        assert d == pytest.approx(grid_cumulative_discrepancy_oracle(rho), abs=2e-5)

    def test_type2_discrepancy_against_grid_oracle(self):
        rho = rho_type2(0.13, 0.22, 0.034)
        d, w = discrepancy_mixed(rho)
        assert d == pytest.approx(grid_cumulative_discrepancy_oracle(rho), abs=2e-5)
        # sediment variant: the window is the Dirac pair [-M, M]
        assert w.length == pytest.approx(0.26, abs=1e-9)

    def test_height_type1_against_moment_oracle(self):
        # H = (8 m^2/pi) int_0^1 sqrt(1-y^2) asin(2my)/(2my sqrt(1-(2my)^2)) dy
        for m in (0.25, 0.1):
            def f(y, m=m):
                y = np.asarray(y, dtype=float)
                t = 2.0 * m * y
                return np.sqrt(np.maximum(1.0 - y * y, 0.0)) * np.arcsin(t) \
                    / (t * np.sqrt(1.0 - t * t))

            oracle = (8.0 * m * m / math.pi) * graded.integrate_piece(
                f, 1e-300, 1.0, graded.TIGHT_SPEC, grade_ends=True)
            h, arg = height_T(rho_type1(m), 512)
            assert h == pytest.approx(oracle, abs=1e-8)
            assert h > 2.0 * m * m  # strict bound behind the sharp constant

    def test_height_type1_frozen_value(self):
        # frozen from adaptive quadrature of the moment-integral oracle
        h, _ = height_T(rho_type1(0.25), 512)
        assert h == pytest.approx(0.130812035941137, abs=5e-8)

    def test_g_ratio_type1(self):
        g = g_ratio(rho_type1(0.25), grid_n=512)
        assert 0.5 < g < 0.6
        assert g == pytest.approx(0.130812035941137 / 0.25, abs=1e-6)

    def test_g_ratio_limit_toward_half(self):
        g1 = g_ratio(rho_type1(0.05), grid_n=512)
        g2 = g_ratio(rho_type1(0.02), grid_n=1024)
        assert g1 > g2 > 0.5
        assert g2 == pytest.approx(0.5, abs=5e-4)

    def test_dirac_height(self):
        rho = MixedMeasureT(diracs=((0.0, 1.0),), density=None)
        h, arg = height_T(rho, 256)
        assert h == pytest.approx(math.log(2.0), abs=1e-9)

    def test_height_with_a_dirac_on_the_best_grid_cell(self):
        # W * (1 + a cos 2 pi x) = (a/2) cos 2 pi x is lowest at 1/2; a small
        # Dirac sits on the grid point next to it, so the best sample's
        # bracket reaches the Dirac and the search must stay off it
        a, m, grid_n = 0.5, 1e-5, 256
        p = 0.5 - 0.5 / grid_n
        rho = MixedMeasureT(diracs=((p, m),), density=UniformPlusDensity(np.array([a])))
        grid = (np.arange(grid_n) + 0.5) / grid_n - 0.5
        grid = np.delete(grid, grid_n - 1)  # the grid point on the Dirac
        best = grid[np.argmin(rho.potential(grid))]
        assert abs(canonical_angle(best - p)) == pytest.approx(1.0 / grid_n)
        h, arg = height_T(rho, grid_n)

        def f(x):
            return (0.5 * a * np.cos(2.0 * np.pi * x)
                    - m * np.log(np.abs(2.0 * np.sin(np.pi * (x - p)))))

        xs = p + np.arange(1, 100_000) / 100_000
        x0 = xs[np.argmin(f(xs))]
        oracle = scipy.optimize.minimize_scalar(f, bounds=(x0 - 1e-5, x0 + 1e-5), method="bounded",
                                                options={"xatol": 1e-12})
        assert math.isfinite(h) and abs(canonical_angle(arg - p)) > 1e-12
        assert h == pytest.approx(-oracle.fun, abs=1e-12)

    def test_g_ratio_dirac(self):
        m = EmpiricalMeasure.from_pairs([(0.0, 1.0)])
        assert g_ratio(m, grid_n=512) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_grid_backed_discrepancy(self):
        from etlab.measures import GridBackedDensity
        vals = np.array([2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0])
        rho = MixedMeasureT(diracs=(), density=GridBackedDensity(vals))
        d, w = discrepancy_mixed(rho)
        assert d == pytest.approx(0.5, abs=1e-12)
        assert w.length == pytest.approx(0.5, abs=1e-12)
        # an uneven one: its best arc wraps through cell 0
        vals2 = np.array([4.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0])
        rho2 = MixedMeasureT(diracs=(), density=GridBackedDensity(vals2))
        d2, w2 = discrepancy_mixed(rho2)
        # wrap arc over cells 7, 0, 1: mass 1.0 minus length 3/8
        assert d2 == pytest.approx(1.0 - 0.375, abs=1e-12)
        assert w2.length == pytest.approx(0.375, abs=1e-12)

    def test_height_grid_floor(self):
        with pytest.raises(DomainError):
            height_T(rho_type1(0.2), 128)

    def test_masses(self):
        assert rho_type1(0.2).mass() == pytest.approx(1.0, abs=1e-9)
        assert rho_type2(0.13, 0.22, 0.05).mass() == pytest.approx(1.0, abs=1e-7)


def criterion6_stage(rational: bool) -> EmpiricalMeasure:
    """The discrete or rational stage of the sharpness chain at n = q = 4096."""
    rho_n = discretize_measure(rho_type1(0.05), 4096)
    return move_to_slab_midpoints(rationalize(rho_n, 4096), 4096) if rational else rho_n


class TestHeightPolish:
    @pytest.mark.parametrize("make, grid_n", [
        (lambda: rho_type1(0.05), 2048),
        (lambda: periodize(make_admissible(2.1, 0.1)), 256),
        (lambda: periodize(make_admissible(1.4, 0.1)), 256),
        (lambda: criterion6_stage(False), 4096),
        (lambda: criterion6_stage(True), 4096),
        (lambda: rho_type2(0.13, 0.22, 0.034), 1024),
    ], ids=["type1", "periodized_II", "periodized_III", "discrete_4096", "rational_4096",
            "type2_two_diracs"])
    def test_agrees_with_golden_section(self, monkeypatch, make, grid_n):
        # the same candidates and best sample, polished by golden section
        rho = make()
        h, _ = height_T(rho, grid_n)
        monkeypatch.setattr(measures, "sample_min", golden_min)
        h_golden, _ = height_T(rho, grid_n)
        assert abs(h - h_golden) <= 1e-14

    @pytest.mark.parametrize("rho", [
        periodize(make_admissible(1.4, 0.1)),
        EmpiricalMeasure.from_pairs([(0.1, 0.3), (0.35, 0.5), (-0.2, 0.2)]),
    ], ids=["periodized_III", "empirical"])
    def test_potential_calls_per_search(self, monkeypatch, rho):
        # one grid call, then at most 7 calls of 32 points each
        sizes = []
        potential = type(rho).potential

        def counted(self, x):
            sizes.append(np.size(x))
            return potential(self, x)

        monkeypatch.setattr(type(rho), "potential", counted)
        height_T(rho, 256)
        assert 2 <= len(sizes) <= 8 and set(sizes[1:]) == {32}


class TestLineFunctionals:
    def test_type1_closed_forms(self):
        mu = AdmissibleDistR("I", 1.0)
        assert h_tilde(mu) == 0.5
        assert d_tilde(mu) == 1.0
        assert g_tilde(mu) == pytest.approx(0.5, abs=1e-12)
        assert d_tilde(AdmissibleDistR("I", 3.0)) == 3.0

    def test_type1_quadrature_route(self):
        mu = AdmissibleDistR("I", 1.0)
        assert h_tilde_quadrature(mu) == pytest.approx(0.5, abs=1e-6)

    def test_type2_closed_forms(self):
        mu = AdmissibleDistR("II", 1.0, 2.0)
        assert h_tilde(mu) == pytest.approx(math.pi**2, abs=1e-12)
        assert d_tilde(mu) == pytest.approx(math.pi * math.sqrt(3.0) - 2.0, abs=1e-12)

    def test_type2_quadrature_vs_closed(self):
        for R in (1.9, 2.0, 3.0):
            mu = AdmissibleDistR("II", 1.0, R)
            assert h_tilde_quadrature(mu) == pytest.approx(h_tilde(mu), abs=1e-8)
            assert d_tilde_quadrature(mu) == pytest.approx(d_tilde(mu), abs=1e-10)

    @pytest.mark.parametrize("R", [1.05, 1.3, 1.6, 1.76])
    def test_type3_against_mpmath(self, R):
        # h_tilde = 2 pi int_L^R sqrt((R^2-x^2)(x^2-L^2))/(x+1) dx; its moment
        # route adds 2 pi phi(L, R) (pv of the same root over x^2 - 1, the pole
        # at 1 removed analytically); d_tilde = 2m - 2 + the inner integral
        mu = make_admissible(R)
        with mpmath.workdps(30):
            LL, RR = mpmath.mpf(mu.L), mpmath.mpf(R)

            def root(x):
                return mpmath.sqrt(max(mpmath.mpf(0), (RR * RR - x * x) * (x * x - LL * LL)))

            h = 2 * mpmath.pi * mpmath.quad(lambda x: root(x) / (x + 1), [LL, RR])
            r1 = root(mpmath.mpf(1))
            pv = mpmath.quad(lambda x: (root(x) - r1) / (x - 1) if x != 1 else mpmath.diff(root, 1),
                             [LL, 1, RR]) + r1 * mpmath.log((RR - 1) / (1 - LL))
            phi = (pv - mpmath.quad(lambda x: root(x) / (x + 1), [LL, RR])) / 2
            inner = mpmath.quad(lambda x: mpmath.sqrt((RR * RR - x * x) * (LL * LL - x * x))
                                / (1 - x * x), [-LL, 0, LL])
            d = mpmath.pi * mpmath.sqrt((RR * RR - 1) * (1 - LL * LL)) - 2 + inner
            want_h, want_hq, want_d = float(h), float(h + 2 * mpmath.pi * phi), float(d)
        assert h_tilde(mu) == pytest.approx(want_h, abs=1e-13)
        assert h_tilde_quadrature(mu) == pytest.approx(want_hq, abs=1e-13)
        assert h_tilde_quadrature(mu) == pytest.approx(want_h, abs=1e-13)
        assert d_tilde(mu) == pytest.approx(want_d, abs=1e-13)
        assert d_tilde_quadrature(mu) == pytest.approx(want_d, abs=1e-13)

    def test_type3_quadrature_vs_closed(self):
        mu = make_admissible(1.4)
        assert h_tilde_quadrature(mu) == pytest.approx(h_tilde(mu), abs=1e-7)
        assert d_tilde_quadrature(mu) == pytest.approx(d_tilde(mu), abs=1e-9)

    def test_paper_rows(self):
        mu = make_admissible(1.4297)
        assert h_tilde(mu) == pytest.approx(1.7954, abs=2e-3)
        mu = make_admissible(1.1)
        assert d_tilde(mu) == pytest.approx(0.3188, abs=2e-3)

    def test_g_tilde_row_ratios(self):
        from etlab.extremal import r_critical
        mu = AdmissibleDistR("II", 1.0, r_critical())
        assert g_tilde(mu) == pytest.approx(6.3003 / 2.7403**2, abs=1e-3)
        mu = make_admissible(1.5067)
        assert g_tilde(mu) == pytest.approx(2.4858 / 1.6809**2, abs=1e-3)

    def test_scaling_invariance(self):
        for build in (lambda lam: AdmissibleDistR("I", lam),
                      lambda lam: AdmissibleDistR("II", lam, 2.2),
                      lambda lam: make_admissible(1.3, lam)):
            base = g_tilde(build(1.0))
            for lam in (0.1, 0.5, 2.0, 10.0):
                assert abs(g_tilde(build(lam)) - base) <= 1e-10

    def test_kind_1_is_exactly_half_others_above(self):
        assert g_tilde(AdmissibleDistR("I", 0.7)) == pytest.approx(0.5, abs=1e-12)
        for R in (1.05, 1.2, 1.5, 1.75, 1.9, 2.5, 4.0):
            mu = make_admissible(R)
            assert g_tilde(mu) > 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            AdmissibleDistR("IV", 1.0)
        with pytest.raises(DomainError):
            AdmissibleDistR("I", -1.0)
        with pytest.raises(DomainError):
            AdmissibleDistR("II", 1.0, 0.9)
        with pytest.raises(DomainError):
            AdmissibleDistR("III", 1.0, 1.4, 1.2)

    @pytest.mark.parametrize("L", [0.3, -0.2, 1e-300, math.nan])
    def test_kind_2_rejects_an_L(self, L):
        with pytest.raises(DomainError):
            AdmissibleDistR("II", 0.1, 2.5, L)
        with pytest.raises(DomainError):
            measure_from_json({"diracs": [], "family": {
                "tag": "Periodized", "params": {"kind": "II", "lambda": 0.1, "R": 2.5, "L": L}}})

    def test_kind_2_takes_L_none_or_zero(self):
        for L in (None, 0.0):
            assert AdmissibleDistR("II", 0.1, 2.5, L).L == 0.0
        doc = json.loads(json.dumps(measure_to_json(periodize(AdmissibleDistR("II", 0.1, 2.5)))))
        assert doc["family"]["params"]["L"] == 0.0
        assert measure_from_json(doc).density.mu.L == 0.0


class TestSerialization:
    def test_empirical_roundtrip(self):
        m = EmpiricalMeasure.from_pairs([(0.1, 0.5), (0.45, 0.5)])
        doc = json.loads(json.dumps(measure_to_json(m)))
        m2 = measure_from_json(doc)
        assert isinstance(m2, EmpiricalMeasure)
        assert np.allclose(m2.angles, m.angles) and np.allclose(m2.weights, m.weights)

    @pytest.mark.parametrize("rho", [
        rho_type1(0.2),
        rho_type2(0.13, 0.22, 0.05),
        MixedMeasureT(diracs=(), density=UniformPlusDensity(
            np.array([0.2, 0.1]), np.array([0.0, -0.05]))),
    ])
    def test_mixed_roundtrip(self, rho):
        doc = json.loads(json.dumps(measure_to_json(rho)))
        rho2 = measure_from_json(doc)
        xs = np.linspace(-0.5, 0.5, 101)
        assert np.allclose(rho2.density_eval(xs), rho.density_eval(xs), atol=1e-12)
        assert rho2.diracs == rho.diracs

    def test_periodized_roundtrip(self):
        from etlab.extremal import periodize
        rho = periodize(make_admissible(1.4, 0.1))
        doc = json.loads(json.dumps(measure_to_json(rho)))
        rho2 = measure_from_json(doc)
        xs = np.linspace(-0.5, 0.5, 64)
        assert np.allclose(rho2.density_eval(xs), rho.density_eval(xs), atol=1e-7)

    @pytest.mark.parametrize("kind, lam, R, L", [
        ("I", 1.2, None, None), ("II", 0.6, 2.0, None), ("II", 0.4, 2.0, None),
        ("III", 0.55, 1.4, 0.5), ("III", 0.5, 2.9, 0.999), ("III", 0.5, 3.6, 0.9999),
        ("I", 2000.0, None, None)])
    def test_periodized_outside_the_lambda_gate(self, kind, lam, R, L):
        # off the admissibility curve or past periodize's gate lam R reaches 1.8,
        # so translates |j| >= 2 carry kinks on the circle and are summed too;
        # at lam = 2000 all of |j| <= 400 are, and only the tail is interpolated
        dens = measure_from_json({"diracs": [], "family": {
            "tag": "Periodized", "params": {"kind": kind, "lambda": lam, "R": R, "L": L}}}).density
        kinks = np.array([lo for lo, _ in dens.pieces()])
        xs = np.concatenate([np.linspace(-0.5, 0.5, 4001)]
                            + [kinks + d for d in (-1e-9, -1e-12, 1e-12, 1e-9)])
        want = evaluate_direct(dens, xs)
        assert np.max(np.abs(dens.evaluate(xs) - want) / np.maximum(1.0, np.abs(want))) <= 1e-13


class TestDensityFamilies:
    def test_type1_density_support(self):
        d = TypeITDensity(0.2)
        gap = math.asin(0.4) / math.pi
        assert d.evaluate(np.array([gap / 2.0]))[0] == 0.0
        assert d.evaluate(np.array([0.4]))[0] == pytest.approx(
            math.sqrt(1.0 - 0.16 / math.sin(0.4 * math.pi) ** 2))

    def test_type2_density_positive_on_support(self):
        d = TypeIITDensity(0.13, 0.22, 0.05)
        xs = np.concatenate([np.linspace(-0.04, 0.04, 31),
                             np.linspace(0.23, 0.49, 31)])
        assert np.all(d.evaluate(xs) >= 0.0)
        assert np.all(d.evaluate(np.linspace(0.06, 0.21, 31)) == 0.0)

    def test_uniform_plus_potential_closed_form(self):
        up = UniformPlusDensity(np.array([0.3, -0.1]), np.array([0.05, 0.2]))
        rho = MixedMeasureT(diracs=(), density=up)
        for x in (0.13, -0.37, 0.49):
            assert rho.potential(x) == pytest.approx(
                float(potential_exact(up, np.array([x]))[0]), abs=1e-9)


class TestNonFiniteInput:
    """NaN and inf are rejected when a measure is built, not turned into a
    NaN potential or discrepancy later."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("angles, weights", [
        ([math.nan, 0.1], [0.5, 0.5]),
        ([math.inf, 0.1], [0.5, 0.5]),
        ([0.2, 0.1], [math.nan, 1.0]),
        ([0.2, 0.1], [math.inf, 1.0]),
    ])
    def test_empirical(self, angles, weights):
        with pytest.raises(DomainError):
            EmpiricalMeasure(np.array(angles), np.array(weights))
        with pytest.raises(DomainError):
            measure_from_json({"atoms": [list(p) for p in zip(angles, weights)]})

    @pytest.mark.parametrize("diracs", [((math.nan, 0.5),), ((0.1, math.nan),),
                                        ((0.1, math.inf),), ((-math.inf, 0.5),)])
    def test_dirac(self, diracs):
        with pytest.raises(DomainError):
            MixedMeasureT(diracs=diracs, density=TypeITDensity(0.1))
        with pytest.raises(DomainError):
            measure_from_json({"diracs": [list(d) for d in diracs], "family": None})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_backed(self, bad):
        with pytest.raises(DomainError):
            GridBackedDensity(np.array([1.0, bad, 1.0, 1.0]))
        with pytest.raises(DomainError):
            measure_from_json({"diracs": [], "family": {
                "tag": "GridBacked", "params": {"values": [1.0, bad, 1.0, 1.0]}}})

    @pytest.mark.parametrize("cos, sin", [([0.1, math.nan], None), ([0.1], [math.inf])])
    def test_uniform_plus(self, cos, sin):
        with pytest.raises(DomainError):
            UniformPlusDensity(np.array(cos), None if sin is None else np.array(sin))
        with pytest.raises(DomainError):
            measure_from_json({"diracs": [], "family": {
                "tag": "UniformPlus", "params": {"cos": cos, "sin": sin}}})
