import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlab import kernels
from etlab.errors import (
    DegenerateInterval,
    NonFinite,
    PoleOnBoundary,
)
from etlab.kernels import (
    integrate_piece,
    integrate_sqrt_endpoints,
    kernel_T,
    pv_sqrt_composite,
)
from graded_quadrature import DEFAULT_SPEC, ToleranceNotMet, integrate_log_singular


def midpoint_log_oracle(f, a, b, s):
    """Independent oracle: midpoint rule with epsilon-exclusion around the
    singularity, Richardson-extrapolated over the exclusion radius."""
    def excluded(eps, n=400_000):
        xs = np.linspace(a, b, n, endpoint=False) + (b - a) / (2 * n)
        keep = np.abs(xs - s) > eps
        return float(np.sum(f(xs[keep])) * (b - a) / n)

    # For a log singularity the excluded mass is ~ c eps (log eps - 1);
    # evaluating at eps and eps/2 and eliminating the leading term:
    e1, e2 = 2e-4, 1e-4
    v1, v2 = excluded(e1), excluded(e2)
    # I = v(eps) + c*eps*(log eps - 1); solve for c from the pair
    c = (v2 - v1) / (e2 * (math.log(e2) - 1) - e1 * (math.log(e1) - 1))
    return v1 - c * e1 * (math.log(e1) - 1)


def chebyshev_u(k, t):
    """U_k(t) by the three-term recurrence."""
    t = np.asarray(t, dtype=float)
    prev, cur = np.zeros_like(t), np.ones_like(t)
    for _ in range(k):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


class TestKernels:
    def test_circle_kernel_values(self):
        assert kernel_T(0.5) == pytest.approx(-math.log(2.0), abs=1e-15)
        assert kernel_T(0.25) == pytest.approx(-0.5 * math.log(2.0), abs=1e-15)
        assert kernel_T(0.0) == math.inf
        assert kernel_T(1.0) == math.inf

    @given(st.floats(min_value=-50.0, max_value=50.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=1000, deadline=None)
    def test_kernel_even(self, x):
        a, b = kernel_T(x), kernel_T(-x)
        assert a == b or (math.isinf(a) and math.isinf(b))

    def test_second_difference_lower_bound(self):
        # W'' = pi / sin^2(pi x) >= pi away from the lattice
        xs = np.linspace(0.05, 0.95, 181)
        h = 1e-4
        dd = (kernel_T(xs + h) - 2.0 * kernel_T(xs) + kernel_T(xs - h)) / h**2
        assert dd.min() >= math.pi - 1e-3


class TestLogSingular:
    """The graded log-singular rule that the potential, sediment and line
    tests use as their oracle."""

    def test_log_abs(self):
        v = integrate_log_singular(lambda x: np.log(np.abs(x)), -1.0, 1.0, 0.0)
        assert v == pytest.approx(-2.0, abs=1e-9)

    def test_kernel_mean_zero(self):
        v = integrate_log_singular(kernel_T, 0.0, 1.0, 0.0)
        assert abs(v) <= DEFAULT_SPEC.abs_tol

    def test_log_times_cosine_against_oracle(self):
        f = lambda x: np.log(np.abs(x)) * np.cos(x)
        oracle = midpoint_log_oracle(f, 0.0, 1.0, 0.0)
        # frozen from the oracle; analytically this is -Si(1)
        assert oracle == pytest.approx(-0.9460830703671830, abs=2e-7)
        v = integrate_log_singular(f, 0.0, 1.0, 0.0)
        assert v == pytest.approx(oracle, abs=5e-7)
        assert v == pytest.approx(-0.9460830703671830, abs=1e-10)

    def test_nonfinite_detected(self):
        # NaN away from the declared singularity must be reported, not summed
        def f(x):
            with np.errstate(invalid="ignore"):
                return np.sqrt(np.asarray(x) - 0.3)

        with pytest.raises(NonFinite):
            integrate_log_singular(f, 0.0, 1.0, 0.0)

    def test_tolerance_not_met_for_nonintegrable(self):
        # 1/|x| declared as a log singularity cannot converge
        with pytest.raises(ToleranceNotMet):
            integrate_log_singular(lambda x: 1.0 / np.abs(x), 0.0, 1.0, 0.0)

    def test_bitwise_reproducible(self):
        f = lambda x: np.log(np.abs(x)) * np.cos(3.0 * x)
        assert integrate_log_singular(f, -0.5, 1.0, 0.0) == \
            integrate_log_singular(f, -0.5, 1.0, 0.0)

    def test_scalar_only_integrand_raises(self):
        # an integrand gets the whole node array in one call, never one point
        with pytest.raises(TypeError):
            integrate_log_singular(lambda x: math.log(abs(x)), -1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="must map an array of nodes"):
            integrate_log_singular(lambda x: 1.0, -1.0, 1.0, 0.0)


def sqrt_weight(a, b):
    return lambda x: np.sqrt(np.maximum((b - np.asarray(x)) * (np.asarray(x) - a), 0.0))


class TestPrincipalValue:
    """pv_sqrt_composite(g, a, b, p) = pv int_a^b g(x)/(x - p) dx for
    g = sqrt((b-x)(x-a)) * (smooth)."""

    def test_odd_pole(self):
        # pv int sqrt((b-x)(x-a))/(x-p) = pi (c - p), zero at the centre
        assert pv_sqrt_composite(sqrt_weight(0.0, 2.0), 0.0, 2.0, 1.0) == \
            pytest.approx(0.0, abs=1e-15)

    def test_linear_over_pole(self):
        # x/(x - 1) = 1 + 1/(x - 1): the semicircle area pi/2 plus pi (c - p) = 0
        w = sqrt_weight(0.0, 2.0)
        v = pv_sqrt_composite(lambda x: np.asarray(x) * w(x), 0.0, 2.0, 1.0)
        assert v == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_sqrt_weighted_pole_closed_form(self):
        # pv int_0^2 x sqrt(4 - x^2)/(x^2 - 1) dx = sqrt(3) log(2 + sqrt 3) - 2
        # (verified by u = x^2 reduction to a rational integral)
        g = lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0)) * x / (x + 1.0)
        closed = math.sqrt(3.0) * math.log(2.0 + math.sqrt(3.0)) - 2.0
        assert pv_sqrt_composite(g, 0.0, 2.0, 1.0) == pytest.approx(closed, abs=1e-14)

    @given(st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_odd_about_pole_vanishes(self, c2, c4, r):
        # g even about p makes g(x)/(x - p) odd about the window -> 0
        p = 0.3

        def g(x):
            t = np.asarray(x) - p
            return np.sqrt(np.maximum(r * r - t * t, 0.0)) * (1.0 + c2 * t**2 + c4 * t**4)

        assert pv_sqrt_composite(g, p - r, p + r, p) == pytest.approx(0.0, abs=1e-14)

    def test_pole_on_boundary(self):
        g = sqrt_weight(1.0, 2.0)
        for p in (1.0, 2.0, 3.0, 0.5):
            with pytest.raises(PoleOnBoundary):
                pv_sqrt_composite(g, 1.0, 2.0, p)

    def test_asymmetric_window_remainder(self):
        # x^2/(x - 1) = x + 1 + 1/(x - 1) on [0, 3]: 9 pi/8 (c + 1) + pi (c - 1), c = 3/2
        w = sqrt_weight(0.0, 3.0)
        v = pv_sqrt_composite(lambda x: np.asarray(x) ** 2 * w(x), 0.0, 3.0, 1.0)
        assert v == pytest.approx(53.0 * math.pi / 16.0, abs=1e-14)

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 1.0), (0.25, 2.75), (-5.0, -4.5)])
    def test_finite_hilbert_transform(self, a, b):
        # pv int_{-1}^{1} sqrt(1 - t^2) U_{n-1}(t)/(t - t0) dt = -pi T_n(t0)
        # (Mason & Handscomb, Chebyshev Polynomials, ch. 9), on x = c + h t.
        # T_n is taken at the pole as rounded, (p - c)/h in mpmath: its slope
        # reaches n^2, so rounding c + h t0 alone moves it by 1e-13
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        t0s = (-1.0 + 1e-6, -1.0 + 1e-3, -0.5, 0.0, 0.3141, 0.9, 1.0 - 1e-6)
        w = sqrt_weight(a, b)
        for n in range(1, 17):
            g = lambda x: w(x) * chebyshev_u(n - 1, (np.asarray(x) - c) / h)
            for t0 in t0s:
                p = c + h * t0
                with mpmath.workdps(30):
                    want = float(-mpmath.pi * h * mpmath.chebyt(n, (mpmath.mpf(p) - c) / h))
                assert pv_sqrt_composite(g, a, b, p) == pytest.approx(want, abs=1e-13)

    def test_pole_on_a_node(self):
        # a pole on a node of the 256-node rule takes the interlaced 257-node rule
        a, b = 0.0, 2.0
        s, _ = kernels._sin2_rule()
        w = sqrt_weight(a, b)
        for k in (3, 100, 128, 200):
            p = a + (b - a) * s[k]
            g = lambda x: w(x) * chebyshev_u(3, np.asarray(x) - 1.0)
            want = -math.pi * math.cos(4 * math.acos(p - 1.0))
            assert pv_sqrt_composite(g, a, b, p) == pytest.approx(want, abs=1e-13)

    def test_nonfinite_detected(self):
        with pytest.raises(NonFinite):
            pv_sqrt_composite(lambda x: np.where(np.asarray(x) > 1.5, np.nan, 1.0), 0.0, 2.0, 1.0)


class TestSpecValidation:
    """pv_sqrt_composite against an oracle that shares none of its rule."""

    def test_composite_pv_with_sqrt_ends(self):
        # pv int g/(x - p) = int (g(x) - g(p))/(x - p) dx + g(p) log((b - p)/(p - a)),
        # the smooth remainder by mpmath's tanh-sinh, split at the pole
        a, b = 0.3, 1.7
        w = sqrt_weight(a, b)
        g = lambda x: w(x) * np.exp(np.asarray(x))
        for p in (0.31, 0.9, 1.0, 1.69):
            with mpmath.workdps(30):
                gm = lambda x: mpmath.sqrt((b - x) * (x - a)) * mpmath.exp(x)
                gp = gm(mpmath.mpf(p))
                rest = mpmath.quad(lambda x: (gm(x) - gp) / (x - p), [a, p, b])
                want = float(rest + gp * mpmath.log((b - p) / (p - a)))
            assert pv_sqrt_composite(g, a, b, p) == pytest.approx(want, abs=1e-13)


class TestSqrtEndpoints:
    def test_semicircle(self):
        v = integrate_sqrt_endpoints(
            lambda x: np.sqrt(np.maximum((1.0 - x) * x, 0.0)), 0.0, 1.0)
        assert v == pytest.approx(math.pi / 8.0, abs=1e-15)

    def test_shifted_semicircle(self):
        # sqrt((R^2 - u)(u - L^2)) on [L^2, R^2] with R=2, L=1: area 9 pi/8
        v = integrate_sqrt_endpoints(
            lambda u: np.sqrt(np.maximum((4.0 - u) * (u - 1.0), 0.0)), 1.0, 4.0)
        assert v == pytest.approx(9.0 * math.pi / 8.0, abs=1e-14)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            integrate_sqrt_endpoints(lambda x: x, 1.0, 1.0)
        with pytest.raises(DegenerateInterval):
            integrate_piece(lambda x: x, 2.0, 1.0)

    def test_table_row_integrand(self):
        # the height integrand of the curve family at the row-10 radius
        from etlab.extremal import l_of_r
        R = 1.4297
        L = l_of_r(R)

        def f(x):
            x = np.asarray(x, dtype=float)
            return np.sqrt(np.maximum((R * R - x * x) * (x * x - L * L), 0.0)) / (x + 1.0)

        v = integrate_sqrt_endpoints(f, L, R)
        assert 2.0 * math.pi * v == pytest.approx(1.7954, abs=2e-3)


class TestFixedRule:
    def test_smooth_and_one_sided_sqrt_exact(self):
        assert integrate_piece(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-15)
        assert integrate_piece(np.sqrt, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert integrate_piece(lambda x: np.sqrt(3.0 - np.asarray(x)) * np.cos(x), 1.0, 3.0) == \
            pytest.approx(-0.3584178862914005, abs=1e-15)  # mpmath.quad at 30 digits

    def test_nonfinite_detected(self):
        def f(x):
            with np.errstate(invalid="ignore"):
                return np.sqrt(np.asarray(x) - 0.3)

        with pytest.raises(NonFinite):
            integrate_piece(f, 0.0, 1.0)
        with np.errstate(invalid="ignore"), pytest.raises(NonFinite):
            integrate_sqrt_endpoints(lambda x: np.log(np.asarray(x) - 0.5), 0.0, 1.0)

    def test_bitwise_reproducible(self):
        f = lambda x: np.sqrt(np.asarray(x) * (2.0 - np.asarray(x))) * np.cos(3.0 * x)
        assert integrate_piece(f, 0.0, 2.0) == integrate_piece(f, 0.0, 2.0)
        g = lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0)) * x / (x + 1.0)
        assert pv_sqrt_composite(g, 0.0, 2.0, 1.0) == pv_sqrt_composite(g, 0.0, 2.0, 1.0)

    def test_scalar_only_integrand_raises(self):
        with pytest.raises(TypeError):
            integrate_piece(lambda x: math.sqrt(x), 0.0, 1.0)
        with pytest.raises(ValueError, match="must map an array of nodes"):
            integrate_piece(lambda x: 1.0, 0.0, 1.0)
