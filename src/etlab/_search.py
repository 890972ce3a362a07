"""Batched bracket searches: bisection for a sign flip, equispaced sampling
for a minimum, safeguarded Newton for a maximum.

All work elementwise on arrays of brackets and call their function once per
step on the whole batch.  The step count, or for Newton its cap, is fixed
from ``tol`` before the first step, so a search is reproducible bit for bit
and always ends, even when tol is below the float spacing at the bracket.
"""

from __future__ import annotations

import math

import numpy as np

_SAMPLES = 32  # interior points per bracket and step of sample_min


def _step_count(width: np.ndarray, tol, shrink: float) -> int:
    """Least n with width * shrink**n <= tol for every bracket: the count from
    log(width / tol) / log(1 / shrink), moved to the least such n by the
    floating-point comparisons themselves."""
    tol = np.asarray(tol, dtype=float)
    if not (np.all(np.isfinite(width)) and np.all(width >= 0.0) and np.all(tol > 0.0)):
        raise ValueError(f"need finite brackets with lo <= hi and tol > 0, got tol={tol}")
    with np.errstate(divide="ignore"):
        excess = float(np.max(np.log(width) - np.log(tol), initial=0.0))
    steps = math.ceil(excess / -math.log(shrink))
    while steps > 0 and not np.any(width * shrink ** (steps - 1) > tol):
        steps -= 1
    while np.any(width * shrink**steps > tol):
        steps += 1
    return steps


def bisect(below, lo, hi, tol):
    """Points where ``below`` flips from True (toward lo) to False (toward hi).

    ``below`` maps an array of points to booleans of the same shape.  Each
    step halves every bracket, lo and hi broadcast together, and all take
    the step count of the bracket widest relative to its tol.  Returns the
    final midpoints.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    for _ in range(_step_count(hi - lo, tol, 0.5)):
        mid = 0.5 * (lo + hi)
        left = below(mid)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def sample_min(f, lo, hi, tol):
    """Search for a minimum of ``f`` in every bracket [lo, hi] by sampling.

    ``f`` maps a 1-d array of points to their values.  Each step calls it
    once, at ``_SAMPLES`` equispaced interior points of every bracket, and
    keeps the two cells either side of the lowest sample, so a bracket
    shrinks by 2 / (_SAMPLES + 1) per call; at least one step is taken.
    Returns 1-d arrays (x, f(x)) at the lowest point evaluated.  For f
    unimodal, that point and a minimizer both stay in the bracket, so x is
    within tol of a minimizer.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    steps = max(_step_count(hi - lo, tol, 2.0 / (_SAMPLES + 1)), 1)
    t = np.arange(_SAMPLES + 2) / (_SAMPLES + 1)
    rows = np.arange(lo.size)
    best_x, best_f = np.full(lo.shape, np.nan), np.full(lo.shape, np.inf)
    for _ in range(steps):
        grid = lo[:, None] + (hi - lo)[:, None] * t
        grid[:, 0], grid[:, -1] = lo, hi
        vals = np.asarray(f(grid[:, 1:-1].ravel()), dtype=float).reshape(lo.size, _SAMPLES)
        j = np.argmin(vals, axis=1)  # sample j sits at grid[:, j + 1]
        low = vals[rows, j]
        lower = low < best_f
        best_x, best_f = np.where(lower, grid[rows, j + 1], best_x), np.where(lower, low, best_f)
        lo, hi = grid[rows, j], grid[rows, j + 2]
    return best_x, best_f


def newton_max(slopes, lo, hi, tol):
    """Safeguarded Newton search for a maximum of g in every bracket [lo, hi].

    ``slopes`` maps a 1-d array of points to the pair (g', g'') there.  From
    each bracket's midpoint, a step first narrows the bracket to the side
    where g' says the maximum lies, then takes the Newton step x - g'/g''
    where g'' < 0 and it lands inside the bracket, and else goes to the
    bracket's midpoint.  It stops once every step is at most tol, or after
    the bisection step count from tol.  Returns the 1-d array of last points.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    x = 0.5 * (lo + hi)
    for _ in range(_step_count(hi - lo, tol, 0.5)):
        d1, d2 = slopes(x)
        rising = d1 > 0.0
        lo, hi = np.where(rising, x, lo), np.where(rising, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - d1 / d2
        take = (d2 < 0.0) & (newton >= lo) & (newton <= hi)
        x, x_old = np.where(take, newton, 0.5 * (lo + hi)), x
        if np.all(np.abs(x - x_old) <= tol):
            break
    return x
