import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etlab.errors import (
    DegenerateInterval,
    NonFinite,
    PoleOnBoundary,
    ToleranceNotMet,
)
from etlab.kernels import (
    DEFAULT_SPEC,
    TIGHT_SPEC,
    QuadratureSpec,
    integrate_log_singular,
    integrate_sqrt_endpoints,
    kernel_R,
    kernel_T,
    pv_integrate,
    pv_sqrt_composite,
)


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


class TestKernels:
    def test_circle_kernel_values(self):
        assert kernel_T(0.5) == pytest.approx(-math.log(2.0), abs=1e-15)
        assert kernel_T(0.25) == pytest.approx(-0.5 * math.log(2.0), abs=1e-15)
        assert kernel_T(0.0) == math.inf
        assert kernel_T(1.0) == math.inf

    def test_line_kernel_values(self):
        assert kernel_R(1.0) == 0.0
        assert kernel_R(math.e) == pytest.approx(-1.0, abs=1e-15)
        assert kernel_R(-2.0) == pytest.approx(-math.log(2.0), abs=1e-15)
        assert kernel_R(0.0) == math.inf

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


class TestPrincipalValue:
    def test_odd_pole(self):
        assert pv_integrate(lambda x: 1.0 / (x - 1.0), 0.0, 2.0, 1.0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_linear_over_pole(self):
        v = pv_integrate(lambda x: x / (x - 1.0), 0.0, 2.0, 1.0)
        assert v == pytest.approx(2.0, abs=1e-9)

    def test_sqrt_weighted_pole_closed_form(self):
        # pv int_0^2 x sqrt(4 - x^2)/(x^2 - 1) dx = sqrt(3) log(2 + sqrt 3) - 2
        # (verified by u = x^2 reduction to a rational integral)
        f = lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0)) * x / (x * x - 1.0)
        closed = math.sqrt(3.0) * math.log(2.0 + math.sqrt(3.0)) - 2.0
        assert pv_integrate(f, 0.0, 2.0, 1.0) == pytest.approx(closed, abs=1e-9)

    @given(st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_odd_about_pole_vanishes(self, c2, c4, r):
        # g even about p makes g(x)/(x - p) odd about paired window -> 0
        p = 0.3

        def f(x):
            t = np.asarray(x) - p
            return (1.0 + c2 * t**2 + c4 * t**4) / t

        assert pv_integrate(f, p - r, p + r, p) == pytest.approx(0.0, abs=1e-9)

    def test_pole_on_boundary(self):
        with pytest.raises(PoleOnBoundary):
            pv_integrate(lambda x: 1.0 / (x - 1.0), 1.0, 2.0, 1.0)
        with pytest.raises(PoleOnBoundary):
            pv_integrate(lambda x: 1.0 / (x - 3.0), 1.0, 2.0, 3.0)

    def test_asymmetric_window_remainder(self):
        from scipy.special import expi
        v = pv_integrate(lambda x: np.exp(x) / (x - 1.0), 0.0, 3.0, 1.0)
        ref = math.e * (expi(2.0) - expi(-1.0))
        assert v == pytest.approx(ref, abs=1e-9)


class TestSqrtEndpoints:
    def test_semicircle(self):
        v = integrate_sqrt_endpoints(
            lambda x: np.sqrt(np.maximum((1.0 - x) * x, 0.0)), 0.0, 1.0)
        assert v == pytest.approx(math.pi / 8.0, abs=1e-12)

    def test_shifted_semicircle(self):
        # sqrt((R^2 - u)(u - L^2)) on [L^2, R^2] with R=2, L=1: area 9 pi/8
        v = integrate_sqrt_endpoints(
            lambda u: np.sqrt(np.maximum((4.0 - u) * (u - 1.0), 0.0)), 1.0, 4.0)
        assert v == pytest.approx(9.0 * math.pi / 8.0, abs=1e-10)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            integrate_sqrt_endpoints(lambda x: x, 1.0, 1.0)

    def test_table_row_integrand(self):
        # the height integrand of the curve family at the row-10 radius
        from etlab.extremal import l_of_r
        R = 1.4297
        L = l_of_r(R)

        def f(x):
            x = np.asarray(x, dtype=float)
            return np.sqrt(np.maximum((R * R - x * x) * (x * x - L * L), 0.0)) / (x + 1.0)

        v = integrate_sqrt_endpoints(f, L, R, TIGHT_SPEC)
        assert 2.0 * math.pi * v == pytest.approx(1.7954, abs=2e-3)


class TestSpecValidation:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(panels=0)
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_panel=1)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinements=0)

    def test_composite_pv_with_sqrt_ends(self):
        # same integral as the pv closed form, but with the composite helper
        f = lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0)) * x / (x * x - 1.0)
        closed = math.sqrt(3.0) * math.log(2.0 + math.sqrt(3.0)) - 2.0
        assert pv_sqrt_composite(f, 0.0, 2.0, 1.0, TIGHT_SPEC) == \
            pytest.approx(closed, abs=1e-9)
