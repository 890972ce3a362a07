import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_sharp_inequality
from graded_quadrature import integrate_piece
from etlab.discretize import (
    _endpoint_masses,
    discretize_measure,
    moment_match_cell,
    move_to_slab_midpoints,
    rationalize,
    sharpness_pipeline,
    type1_arc_mass,
)
from etlab.errors import NegativeDensity, NonRationalWeights, QTooSmall
from etlab.extremal import make_admissible, periodize, rho_type1, rho_type2
from etlab.kernels import _gl_rule, kernel_T
from etlab.measures import (
    EmpiricalMeasure,
    GridBackedDensity,
    MixedMeasureT,
    UniformPlusDensity,
    discrepancy_empirical,
    g_ratio,
    height_T,
)


def cell_replacement_potential(density, a, b, x):
    """Potential of (endpoint masses - cell density) at points x outside [a, b],
    the cell density by 32 Gauss-Legendre nodes.  Convexity of the kernel makes
    it nonnegative there: the direct check of the height-drift mechanism."""
    m1, m2 = moment_match_cell(density, a, b)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    atoms = m1 * kernel_T(xs - a) + m2 * kernel_T(xs - b)
    nodes, weights = _gl_rule(32)
    ys = a + (b - a) * nodes
    removed = kernel_T(xs[:, None] - ys[None, :]) @ (density(ys) * weights * (b - a))
    return atoms - removed


def constant(c):
    return lambda x: np.full_like(np.asarray(x, dtype=float), c)


class TestMomentMatch:
    def test_constant_cell(self):
        m1, m2 = moment_match_cell(constant(1.0), 0.0, 0.125)
        assert m1 == pytest.approx(0.0625, abs=1e-12)
        assert m2 == pytest.approx(0.0625, abs=1e-12)

    def test_linear_ramp(self):
        m1, m2 = moment_match_cell(lambda x: np.asarray(x, dtype=float), 0.0, 1.0)
        assert m1 == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert m2 == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_zero_density(self):
        m1, m2 = moment_match_cell(constant(0.0), 0.2, 0.3)
        assert m1 == 0.0 and m2 == 0.0

    def test_negative_density_rejected(self):
        with pytest.raises(NegativeDensity):
            moment_match_cell(lambda x: np.asarray(x, dtype=float) - 10.0, 0.0, 1.0)

    @given(st.floats(0.1, 2.0), st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_moments_conserved(self, c0, c1):
        a, b = 0.25, 0.375
        dens = lambda x: c0 + (c1 if c1 > -c0 * 0.5 else 0.0) * (np.asarray(x) - a)
        m1, m2 = moment_match_cell(dens, a, b)
        s0 = integrate_piece(dens, a, b)
        s1 = integrate_piece(lambda x: np.asarray(x) * dens(x), a, b)
        assert m1 + m2 == pytest.approx(s0, abs=1e-12)
        assert m1 * a + m2 * b == pytest.approx(s1, abs=1e-12)


class TestEndpointMasses:
    def test_scalar_reproduces_moments(self):
        a, b, s0, s1 = 0.25, 0.375, 0.1, 0.03
        m1, m2 = _endpoint_masses(s0, s1, a, b)
        assert m1 + m2 == pytest.approx(s0, abs=1e-16)
        assert m1 * a + m2 * b == pytest.approx(s1, abs=1e-16)

    def test_array_reproduces_moments(self, rng):
        edges = np.sort(rng.random(65))
        a, b = edges[:-1], edges[1:]
        s0 = rng.random(64)
        s1 = s0 * (a + rng.random(64) * (b - a))  # centroids inside the cells
        m1, m2 = _endpoint_masses(s0, s1, a, b)
        assert np.all(np.minimum(m1, m2) >= 0.0)
        np.testing.assert_allclose(m1 + m2, s0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(m1 * a + m2 * b, s1, rtol=0, atol=1e-15)

    def test_negative_mass_threshold(self):
        """On [0, 1], m2 = s1 exactly: -1e-10 s0 passes (s0 >= 1), the next
        double below raises, in a scalar and in one entry of an array."""
        s0 = 4.0
        edge = -1e-10 * s0
        past = np.nextafter(edge, -1.0)
        assert _endpoint_masses(s0, edge, 0.0, 1.0)[1] == edge
        with pytest.raises(NegativeDensity):
            _endpoint_masses(s0, past, 0.0, 1.0)
        s0s = np.full(3, s0)
        _endpoint_masses(s0s, np.array([1.0, edge, 2.0]), 0.0, 1.0)
        with pytest.raises(NegativeDensity):
            _endpoint_masses(s0s, np.array([1.0, past, 2.0]), 0.0, 1.0)


def per_cell_oracle(rho: MixedMeasureT, n: int) -> EmpiricalMeasure:
    """The cell loop ``discretize_measure`` ran before the cumulative: each
    piece of the density, re-expressed inside [0, 1], gives every cell it
    meets its moments, by one 32-node Gauss-Legendre panel on a cell inside
    the piece and by ``moment_match_cell``'s graded rule on the fragment of
    a cell the piece only partly covers."""
    pieces = []
    for lo, hi in rho.density.pieces():
        lo_m = lo % 1.0
        if lo_m + hi - lo <= 1.0 + 1e-15:
            pieces.append((lo_m, min(lo_m + hi - lo, 1.0)))
        else:
            pieces += [(lo_m, 1.0), (0.0, lo_m + hi - lo - 1.0)]
    dens = rho.density.evaluate
    grid_mass = np.zeros(n + 1)
    edges = np.arange(n + 1) / n
    nodes, weights = _gl_rule(32)
    for lo, hi in sorted(p for p in pieces if p[1] - p[0] > 1e-15):
        for j in range(int(np.floor(lo * n)), int(np.ceil(hi * n))):
            a, b = edges[j], edges[j + 1]
            fa, fb = max(a, lo), min(b, hi)
            if fb - fa <= 1e-15:
                continue
            if fa == a and fb == b:
                xs = a + (b - a) * nodes
                vals = dens(xs)
                s0, s1 = (b - a) * (vals @ weights), (b - a) * ((xs * vals) @ weights)
            else:
                m1f, m2f = moment_match_cell(dens, fa, fb)
                s0, s1 = m1f + m2f, m1f * fa + m2f * fb
            grid_mass[j] += (b * s0 - s1) / (b - a)
            grid_mass[j + 1] += (s1 - a * s0) / (b - a)
    grid_mass[0] += grid_mass[n]
    pairs = list(rho.diracs) + [(edges[j], grid_mass[j]) for j in range(n) if grid_mass[j] > 0.0]
    return EmpiricalMeasure.from_pairs(pairs)


CELL_FAMILIES = {
    "type1_0.05": lambda: rho_type1(0.05),
    "type1_0.2": lambda: rho_type1(0.2),
    "type2": lambda: rho_type2(0.13, 0.22, 0.034),
    "trig": lambda: MixedMeasureT((), UniformPlusDensity(np.array([0.3, -0.1]),
                                                         np.array([0.05, 0.2]))),
    "grid_backed": lambda: MixedMeasureT((), GridBackedDensity(np.arange(1.0, 9.0) / 4.5)),
}


class TestDiscretize:
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    @pytest.mark.parametrize("name", sorted(CELL_FAMILIES))
    def test_matches_per_cell_oracle(self, name, n):
        # a cell's moment about its end is a difference of O(1) cumulative
        # values divided by the width 1/n, so its rounding grows like n:
        # 1.9e-12 at n = 4096 on the trigonometric density
        rho = CELL_FAMILIES[name]()
        got, want = discretize_measure(rho, n), per_cell_oracle(rho, n)
        assert np.array_equal(got.angles, want.angles)
        assert np.max(np.abs(got.weights - want.weights)) <= max(2e-12, 1e-15 * n)

    def test_criterion_point_keeps_the_oracle_numerators(self):
        rho = rho_type1(0.05)
        got, want = discretize_measure(rho, 4096), per_cell_oracle(rho, 4096)
        assert np.max(np.abs(got.weights - want.weights)) <= 2e-12
        assert np.array_equal(rationalize(got, 4096).weights, rationalize(want, 4096).weights)

    def test_signed_density_rejected(self):
        with pytest.raises(NegativeDensity):
            discretize_measure(periodize(make_admissible(1.4, 0.1)), 256)

    def test_uniform_density(self):
        uni = MixedMeasureT(diracs=(), density=UniformPlusDensity(np.zeros(1)))
        em = discretize_measure(uni, 8)
        assert em.n_atoms == 8
        assert np.allclose(em.weights, 0.125, atol=1e-10)
        assert em.total == pytest.approx(1.0, abs=1e-10)

    def test_type1_dirac_kept_and_discrepancy(self):
        rho = rho_type1(0.2)
        em = discretize_measure(rho, 512)
        at_zero = em.weights[np.argmin(np.abs(em.angles))]
        assert at_zero >= 0.4 - 1e-12
        d, w = discrepancy_empirical(em)
        assert d == pytest.approx(at_zero, abs=1e-12)
        assert em.total == pytest.approx(1.0, abs=1e-10)

    def test_mass_conservation_tight(self):
        rho = rho_type1(0.05)
        for n in (64, 256):
            em = discretize_measure(rho, n)
            assert em.total == pytest.approx(1.0, abs=1e-10)

    def test_height_drift_scaling(self):
        # H[rho_n] <= H[rho] + C log n / n with a stable fitted constant
        rho = rho_type1(0.05)
        h_cont, _ = height_T(rho, 512)
        drifts = {}
        for n in (256, 1024):
            em = discretize_measure(rho, n)
            h_n, _ = height_T(em, 2048)
            drifts[n] = h_n - h_cont
            assert drifts[n] > -1e-9
        c_fit = drifts[1024] / (math.log(1024) / 1024)
        assert drifts[256] <= 1.8 * c_fit * math.log(256) / 256
        assert drifts[256] >= 0.4 * c_fit * math.log(256) / 256

    def test_convexity_transfer_outside_cells(self, rng):
        # the moment-matched swap raises the potential at every grid point
        # outside the cell
        rho = rho_type1(0.2)
        dens = rho.density.evaluate
        xs = (np.arange(2048) + 0.5) / 2048 - 0.5
        gap = rho.density.gap
        n = 256
        for j in rng.choice(np.arange(int(gap * n) + 1, n // 2), size=8, replace=False):
            a, b = j / n, (j + 1) / n
            outside = (xs < a - 1e-9) | (xs > b + 1e-9)
            delta = cell_replacement_potential(dens, a, b, xs[outside])
            assert float(delta.min()) >= -1e-9


class TestRationalize:
    def test_exact_halves(self):
        em = EmpiricalMeasure.from_pairs([(0.0, 0.5), (0.25, 0.5)])
        rq = rationalize(em, 2)
        assert np.allclose(rq.weights, 0.5)

    def test_thirds_into_quarters(self):
        em = EmpiricalMeasure.from_pairs([(0.0, 1 / 3), (0.25, 1 / 3), (0.5, 1 / 3)])
        rq = rationalize(em, 4)
        assert rq.total == pytest.approx(1.0)
        assert np.all(np.abs(rq.weights - 1 / 3) <= 0.25 + 1e-12)

    def test_boundary_drop(self):
        em = EmpiricalMeasure.from_pairs([(0.0, 0.999), (0.25, 0.001)])
        rq = rationalize(em, 100)
        assert rq.n_atoms == 1 and rq.weights[0] == 1.0

    def test_q_too_small(self):
        em = EmpiricalMeasure.from_pairs([(k / 5, 0.2) for k in range(5)])
        with pytest.raises(QTooSmall):
            rationalize(em, 4)

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=20),
           st.integers(30, 200))
    @settings(max_examples=60, deadline=None)
    def test_apportionment_properties(self, raw, q):
        w = np.asarray(raw)
        w = w / w.sum()
        em = EmpiricalMeasure.from_pairs([(i / len(w) - 0.49, wi)
                                          for i, wi in enumerate(w)])
        rq = rationalize(em, q)
        nums = rq.weights * q
        assert np.allclose(nums, np.rint(nums), atol=1e-9)
        assert int(round(nums.sum())) == q
        # per-atom error bound, checked against the surviving atoms
        kept = {round(a, 12): wt for a, wt in zip(rq.angles, rq.weights)}
        for a, wt in zip(em.angles, em.weights):
            got = kept.get(round(a, 12), 0.0)
            assert abs(got - wt) <= 1.0 / q + 1e-12
        # cumulative closeness, the property the height functional needs
        orig_cum = np.cumsum(em.weights)
        new_w = np.array([kept.get(round(a, 12), 0.0) for a in em.angles])
        assert np.max(np.abs(np.cumsum(new_w) - orig_cum)) <= 0.5 / q + 1e-12


class TestPipeline:
    def test_degenerate_top(self):
        rep = sharpness_pipeline(0.5, 64, 64)
        assert rep.continuum.D == pytest.approx(1.0)
        assert rep.continuum.H == pytest.approx(math.log(2.0), abs=1e-9)
        assert rep.continuum.G == pytest.approx(math.log(2.0), abs=1e-9)
        # a single atom with p0 = q: nothing to move
        assert rep.rational.D == 1.0
        assert rep.rational.G == pytest.approx(math.log(2.0), abs=1e-9)

    def test_chain_small(self):
        rep = sharpness_pipeline(0.1, 256, 512, include_polynomial=True)
        assert rep.continuum.G == pytest.approx(0.5034, abs=2e-3)
        assert rep.continuum.G > 0.5
        assert rep.discrete.G > 0.5
        assert rep.rational.G > 0.5
        for stage in (rep.continuum, rep.discrete, rep.rational, rep.polynomial):
            assert_sharp_inequality(stage.D, stage.H)
        # polynomial realization reproduces the rational measure's functionals
        assert rep.polynomial.D == pytest.approx(rep.rational.D, abs=1e-12)
        assert rep.polynomial.H == pytest.approx(rep.rational.H, abs=1e-5)

    def test_json_report(self):
        rep = sharpness_pipeline(0.2, 128, 256)
        doc = rep.to_json()
        assert doc["continuum"]["G"] > 0.5 and doc["polynomial"] is None

    def test_g_rational_floor_at_stated_parameters(self):
        # Oracle record for rounding alone at (m=0.05, n=q=4096): with q
        # equal to n every arc atom weighs less than 1/q, so the cumulative
        # rounding gives each grid atom 0 or 1 units and leaves holes of
        # width 2/q along the arc; G lands near 0.63, not the 0.52 the
        # acceptance check asks for.  The pipeline's rational stage moves
        # the atoms off the grid (see TestSlabMidpoints); this test freezes
        # what the rounding construction by itself yields.
        rho_n = discretize_measure(rho_type1(0.05), 4096)
        g_rounded = g_ratio(rationalize(rho_n, 4096), grid_n=4096)
        assert g_rounded == pytest.approx(0.6317, abs=5e-3)
        assert g_rounded > 0.5
        assert g_ratio(rho_n, grid_n=4096) == pytest.approx(0.5177, abs=2e-3)

    def test_g_rational_reaches_threshold_with_fine_denominator(self):
        # with q >> n the rational stage tracks the discrete one and the
        # intended 0.52 threshold is met
        rep = sharpness_pipeline(0.05, 4096, 1 << 20)
        assert 0.5 < rep.rational.G <= 0.52


def _circular_numerators(rho, q):
    """Numerators of the atoms off 0, counted around the circle from 0+."""
    off = rho.angles != 0.0
    order = np.argsort(rho.angles[off] % 1.0, kind="stable")
    return np.rint(rho.weights[off][order] * q).astype(np.int64)


class TestSlabMidpoints:
    @pytest.mark.parametrize("m", [0.02, 0.05, 0.2])
    def test_arc_mass_closed_form_vs_quadrature(self, m):
        dens = rho_type1(m).density
        for x in (dens.gap + 1e-3, dens.gap + 0.05, 0.3, 0.5):
            assert float(type1_arc_mass(m, x)) == pytest.approx(
                integrate_piece(dens.evaluate, dens.gap, x), abs=1e-12)
        assert float(type1_arc_mass(m, 0.5)) == pytest.approx((1.0 - 2.0 * m) / 2.0,
                                                              abs=1e-15)

    def test_arc_mass_uniform_limit(self):
        xs = np.linspace(0.0, 0.5, 11)
        assert np.allclose(type1_arc_mass(0.0, xs), xs, atol=1e-12)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_moved_stage_keeps_rounding_invariants(self, data):
        # m n >= 2.4 keeps the Dirac atom alone the maximizing arc in both
        # stages; below m n ~ 1 the grid atoms rival it and D depends on the
        # rounding pattern, which the move does not preserve.
        m = data.draw(st.floats(0.05, 0.45), label="m")
        n = data.draw(st.integers(48, 256), label="n")
        q = data.draw(st.one_of(st.integers(n, 4 * n), st.sampled_from([256, 512, 1024])),
                      label="q")
        rho_n = discretize_measure(rho_type1(m), n)
        rounded = rationalize(rho_n, q)
        moved = move_to_slab_midpoints(rounded, q)
        assert moved.n_atoms == rounded.n_atoms
        assert np.array_equal(_circular_numerators(moved, q),
                              _circular_numerators(rounded, q))
        assert moved.weights[moved.angles == 0.0].tolist() == \
            rounded.weights[rounded.angles == 0.0].tolist()
        assert moved.total == rounded.total and moved.is_probability()
        # each atom sits where the arc of rho_type1(p0/(2q)) reaches its slab
        # midpoint, mirrored past x = 1/2
        p0 = int(np.rint(moved.weights[moved.angles == 0.0].sum() * q))
        nums = _circular_numerators(moved, q)
        mids = (np.cumsum(nums) - 0.5 * nums) / q
        x = np.sort(moved.angles[moved.angles != 0.0] % 1.0)
        near = x <= 0.5
        assert np.allclose(type1_arc_mass(p0 / (2 * q), np.where(near, x, 1.0 - x)),
                           np.where(near, mids, (q - p0) / q - mids), rtol=0, atol=1e-12)
        d_moved, _ = discrepancy_empirical(moved)
        d_rounded, _ = discrepancy_empirical(rounded)
        if q & (q - 1) == 0:
            # dyadic weights: every prefix sum is exact
            assert d_moved == d_rounded
        else:
            # the atom nearest 1/2 may change side, which reorders the prefix
            # sums; their rounding error is at most n_atoms ulp
            assert abs(d_moved - d_rounded) <= moved.n_atoms * np.finfo(float).eps

    def test_rejects_non_rational_weights(self):
        em = EmpiricalMeasure.from_pairs([(0.0, 0.5), (0.25, 0.5)])
        with pytest.raises(NonRationalWeights):
            move_to_slab_midpoints(em, 3)
