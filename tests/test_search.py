import math

import numpy as np
import pytest

from etlab._search import bisect, golden_min, newton_max

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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


class TestGoldenMin:
    # parabolas a (x - c)^2 on [0, 1]; the first has its minimum at the lower
    # edge, the last two at the upper edge.  No constant term: it would hide
    # x below sqrt(float spacing) in the values.
    a = np.array([1.0, 0.5, 3.0, 10.0, 1.0, 2.0, 0.25])
    c = np.array([0.0, 0.1, 1.0 / 3.0, 0.5, 0.77, 1.0, 1.4])

    def f(self, x):
        # the first call carries both interior points of every bracket
        return np.resize(self.a, x.size) * (x - np.resize(self.c, x.size)) ** 2

    def test_batch_of_parabolas(self):
        x, fx = golden_min(self.f, np.zeros(self.c.size), 1.0, 1e-10)
        x_min = np.clip(self.c, 0.0, 1.0)
        assert np.all(np.abs(x - x_min) <= 1e-10)
        assert np.array_equal(fx, self.f(x))
        assert np.all(np.abs(fx - self.f(x_min)) <= 1e-10)

    def test_one_call_per_step_on_the_whole_batch(self):
        f = Counted(self.f)
        golden_min(f, np.zeros(self.c.size), 1.0, 1e-6)
        steps = math.ceil(math.log(1e-6) / math.log(INV_PHI))  # 0.618^29 = 8.6e-7
        assert f.sizes == [2 * self.c.size] + [self.c.size] * steps

    def test_ends_when_tol_is_below_the_float_spacing(self):
        f = Counted(lambda x: (x - 0.3) ** 2)
        x, fx = golden_min(f, 0.0, 1.0, 1e-300)
        assert len(f.sizes) == 1 + math.ceil(math.log(1e-300) / math.log(INV_PHI))
        assert abs(x[0] - 0.3) <= 1e-7 and fx[0] <= 1e-14

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            golden_min(lambda x: x * x, -1.0, 1.0, 0.0)


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
