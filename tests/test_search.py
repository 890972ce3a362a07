import math

import numpy as np
import pytest

from etlab._search import _SAMPLES, _step_count, bisect, newton_max, sample_min

SHRINK = 2.0 / (_SAMPLES + 1)  # sample_min's bracket shrink per call


class Counted:
    """Wraps f and records the size of every batch it is called on."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.f(x)


class TestBisect:
    def test_batch_of_cube_roots(self):
        y = np.array([-7.5, -1.0, 0.0, 1e-6, 2.0, 26.9])
        lo, hi = np.full(y.shape, -3.0), np.array([0.0, 1.0, 1.0, 3.0, 3.0, 3.0])
        x = bisect(lambda x: x**3 < y, lo, hi, 1e-12)
        assert x.shape == y.shape
        assert np.all(np.abs(x - np.cbrt(y)) <= 1e-12)

    def test_scalar_bracket_keeps_shape(self):
        x = bisect(lambda x: x * x < 2.0, 1.0, 2.0, 1e-14)
        assert np.shape(x) == ()
        assert abs(float(x) - math.sqrt(2.0)) <= 1e-14

    def test_one_call_per_step_on_the_whole_batch(self):
        y = np.linspace(0.5, 7.5, 9)
        below = Counted(lambda x: x**3 < y)
        bisect(below, np.zeros(y.size), 2.0, 2.0 * 2.0**-37)
        assert below.sizes == [y.size] * 37

    def test_ends_when_tol_is_below_the_float_spacing(self):
        # the spacing at 2**(1/3) is 2.2e-16; a while-width loop never ends here
        below = Counted(lambda x: x**3 < 2.0)
        x = bisect(below, 1.0, 2.0, 1e-300)
        assert len(below.sizes) == math.ceil(math.log2(1e300))
        assert abs(float(x) - np.cbrt(2.0)) <= 2.0 * np.spacing(np.cbrt(2.0))

    @pytest.mark.parametrize("lo, hi, tol", [
        (0.0, 1.0, 0.0), (0.0, 1.0, -1e-9), (0.0, 1.0, float("nan")),
        (0.0, float("inf"), 1e-9), (1.0, 0.0, 1e-9),
    ])
    def test_bad_brackets_rejected(self, lo, hi, tol):
        with pytest.raises(ValueError):
            bisect(lambda x: x < 0.5, lo, hi, tol)


def step_count_loop(width, tol, shrink):
    """The step count as a loop over the steps, the oracle for _step_count."""
    steps = 0
    while np.any(width * shrink**steps > tol):
        steps += 1
    return steps


class TestStepCount:
    @pytest.mark.parametrize("shrink", [0.5, SHRINK, (math.sqrt(5.0) - 1.0) / 2.0])
    def test_matches_the_loop(self, shrink):
        rng = np.random.default_rng(15)
        for _ in range(300):
            width = 10.0 ** rng.uniform(-20.0, 5.0, size=rng.integers(1, 6))
            tol = 10.0 ** rng.uniform(-320.0, 2.0)
            assert _step_count(width, tol, shrink) == step_count_loop(width, tol, shrink)

    @pytest.mark.parametrize("shrink", [0.5, SHRINK])
    def test_matches_the_loop_at_exact_powers(self, shrink):
        # width * shrink**n == tol exactly: the least n is n itself, where
        # the log estimate can round to either side
        for n in range(1, 60):
            width, tol = np.array([1.0, 0.25]), shrink**n
            assert _step_count(width, tol, shrink) == step_count_loop(width, tol, shrink)

    def test_tol_below_the_float_spacing_and_per_bracket_tols(self):
        width = np.array([3.0, 0.0, 1e-3])
        for tol in (1e-300, 5e-324, np.array([1e-17, 1.0, 1e-30])):
            for shrink in (0.5, SHRINK):
                assert _step_count(width, tol, shrink) == step_count_loop(width, tol, shrink)

    def test_zero_when_every_bracket_is_within_tol(self):
        assert _step_count(np.array([0.0, 1e-3]), 1e-3, 0.5) == 0

    @pytest.mark.parametrize("width, tol", [
        (np.array([1.0, np.inf]), 1e-9), (np.array([np.nan]), 1e-9), (np.array([-1.0]), 1e-9),
        (np.array([1.0]), 0.0), (np.array([1.0]), -1e-9),
    ])
    def test_bad_widths_and_tols_rejected(self, width, tol):
        with pytest.raises(ValueError):
            _step_count(width, tol, 0.5)


class TestSampleMin:
    # parabolas a (x - c)^2 on [0, 1]; the first has its minimum at the lower
    # edge, the last two at the upper edge.  No constant term: it would hide
    # x below sqrt(float spacing) in the values.
    a = np.array([1.0, 0.5, 3.0, 10.0, 1.0, 2.0, 0.25])
    c = np.array([0.0, 0.1, 1.0 / 3.0, 0.5, 0.77, 1.0, 1.4])

    def f(self, x):
        # every call carries _SAMPLES points of each bracket in turn
        return np.repeat(self.a, _SAMPLES) * (x - np.repeat(self.c, _SAMPLES)) ** 2

    def test_batch_of_parabolas(self):
        x, fx = sample_min(self.f, np.zeros(self.c.size), 1.0, 1e-10)
        x_min = np.clip(self.c, 0.0, 1.0)
        assert np.all(np.abs(x - x_min) <= 1e-10)
        assert np.array_equal(fx, self.a * (x - self.c) ** 2)
        assert np.all(np.abs(fx - self.a * (x_min - self.c) ** 2) <= 1e-10)

    def test_one_call_per_step_on_the_whole_batch(self):
        f = Counted(self.f)
        sample_min(f, np.zeros(self.c.size), 1.0, 1e-6)
        steps = math.ceil(math.log(1e-6) / math.log(SHRINK))  # (2/33)^5 = 8.1e-7
        assert f.sizes == [_SAMPLES * self.c.size] * steps

    def test_keeps_an_earlier_lower_sample(self):
        # the minimum 1/2 is sample 16 of [0, 33/32]; the next bracket's
        # samples straddle it, and all lie above it
        x, fx = sample_min(lambda x: (x - 0.5) ** 2, 0.0, 33.0 / 32.0, 1e-3)
        assert x[0] == 0.5 and fx[0] == 0.0

    def test_ends_when_tol_is_below_the_float_spacing(self):
        f = Counted(lambda x: (x - 0.3) ** 2)
        x, fx = sample_min(f, 0.0, 1.0, 1e-300)
        assert len(f.sizes) == math.ceil(math.log(1e-300) / math.log(SHRINK))
        assert abs(x[0] - 0.3) <= 1e-7 and fx[0] <= 1e-14

    def test_takes_one_step_on_a_bracket_within_tol(self):
        f = Counted(lambda x: (x - 0.3) ** 2)
        x, _ = sample_min(f, 0.29, 0.31, 0.1)
        assert f.sizes == [_SAMPLES] and abs(x[0] - 0.3) <= 0.02 / (_SAMPLES + 1)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            sample_min(lambda x: x * x, -1.0, 1.0, 0.0)


class TestNewtonMax:
    c = np.array([-0.31, 0.0, 0.123456789, 0.25, 0.4999])

    def cos_slopes(self, x):
        # g = cos 2 pi (x - c): one maximum at c in each bracket below
        t = 2.0 * np.pi * (x - self.c)
        return -2.0 * np.pi * np.sin(t), -4.0 * np.pi**2 * np.cos(t)

    def test_batch_of_cosines(self):
        f = Counted(self.cos_slopes)
        x = newton_max(f, self.c - 0.2, self.c + 0.1, 1e-14)
        assert np.all(np.abs(x - self.c) <= 1e-14)
        # Newton steps end it long before the cap of 45 bisection steps
        assert f.sizes == [self.c.size] * 4

    def test_batch_of_quartics(self):
        # g = -(x - c)^2 - b (x - c)^3 - (x - c)^4 has one critical point, its
        # maximum at c, for |b| < 4 sqrt(2) / 3 = 1.886
        b = np.array([0.0, 1.0, -1.5, 1.85, -0.5])

        def slopes(x):
            u = x - self.c
            return -2.0 * u - 3.0 * b * u**2 - 4.0 * u**3, -2.0 - 6.0 * b * u - 12.0 * u**2

        x = newton_max(slopes, self.c - 0.4, self.c + 0.7, 1e-14)
        assert np.all(np.abs(x - self.c) <= 1e-14)

    def test_bisects_where_g_is_convex(self):
        # g = (x - 1/4)^2 on [0, 1/2]: at the midpoint g' = 0 and g'' > 0, a
        # minimum, where the Newton step would be 0; it bisects instead, and
        # ends at the maximum on the side g' < 0 leaves, the lower end
        points = []

        def slopes(x):
            points.append(x.copy())
            return 2.0 * (x - 0.25), np.full(x.shape, 2.0)

        x = newton_max(slopes, 0.0, 0.5, 2.0**-40)
        assert [p[0] for p in points[:3]] == [0.25, 0.125, 0.0625]
        assert abs(x[0]) <= 2.0**-40

    def test_bisects_where_the_newton_step_leaves_the_bracket(self):
        # g = x - x^2 / 200: g'' = -1/100, so Newton from 0.5 jumps to 99.5
        points = []

        def slopes(x):
            points.append(x.copy())
            return 1.0 - x / 100.0, np.full(x.shape, -0.01)

        x = newton_max(slopes, 0.0, 1.0, 2.0**-40)
        assert [p[0] for p in points[:3]] == [0.5, 0.75, 0.875]
        assert abs(x[0] - 1.0) <= 2.0**-40

    def test_ends_at_the_cap_without_a_zero(self):
        # g' jumps from +1 to -1 at c and never vanishes; each Newton step
        # crosses c and lands at 0.9 of the distance on the other side, inside
        # the bracket, so the steps never fall to tol
        c = 0.3

        def slopes(x):
            d1 = np.where(x < c, 1.0, -1.0)
            return d1, d1 / (1.9 * (x - c))

        f = Counted(slopes)
        x = newton_max(f, 0.0, 1.0, 1e-14)
        assert len(f.sizes) == math.ceil(math.log2(1e14))
        assert abs(x[0] - c) < 0.5

    def test_repeated_calls_are_bitwise_equal(self):
        runs = [newton_max(self.cos_slopes, self.c - 0.2, self.c + 0.1, 1e-14) for _ in range(3)]
        assert all(r.tobytes() == runs[0].tobytes() for r in runs)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            newton_max(self.cos_slopes, self.c - 0.2, self.c + 0.1, 0.0)
