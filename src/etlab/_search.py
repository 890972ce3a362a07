"""Batched bracket searches: bisection for a sign flip, golden section for a
minimum, safeguarded Newton for a maximum.

All work elementwise on arrays of brackets and call their function once per
step on the whole batch.  The step count, or for Newton its cap, is fixed
from ``tol`` before the first step, so a search is reproducible bit for bit
and always ends, even when tol is below the float spacing at the bracket.
"""

from __future__ import annotations

import math

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink factor per step


def _step_count(width: np.ndarray, tol, shrink: float) -> int:
    """Least n with width * shrink**n <= tol for every bracket (exact for shrink 1/2)."""
    tol = np.asarray(tol, dtype=float)
    if not (np.all(np.isfinite(width)) and np.all(width >= 0.0) and np.all(tol > 0.0)):
        raise ValueError(f"need finite brackets with lo <= hi and tol > 0, got tol={tol}")
    steps = 0
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


def golden_min(f, lo, hi, tol):
    """Golden-section search for a minimum of ``f`` in every bracket [lo, hi].

    ``f`` maps a 1-d array of points to their values; its first call takes
    both interior points of every bracket, each later call one new point per
    bracket.  Returns 1-d arrays (x, f(x)) at the best point evaluated: the
    better interior point is always the one kept, so it is the lower of the
    final two.  For f unimodal, x is within tol of a minimizer.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    steps = _step_count(hi - lo, tol, _INV_PHI)
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = np.split(np.asarray(f(np.concatenate((c, d))), dtype=float), 2)
    for _ in range(steps):
        # keep [lo, d] when fc <= fd, else [c, hi]; the kept interior point
        # becomes the far one of the new bracket
        left = fc <= fd
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        x_keep, f_keep = np.where(left, c, d), np.where(left, fc, fd)
        x_new = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        f_new = np.asarray(f(x_new), dtype=float)
        c, d = np.where(left, x_new, x_keep), np.where(left, x_keep, x_new)
        fc, fd = np.where(left, f_new, f_keep), np.where(left, f_keep, f_new)
    left = fc <= fd
    return np.where(left, c, d), np.where(left, fc, fd)


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
