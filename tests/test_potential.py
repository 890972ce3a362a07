"""The potential engines against independent oracles.

``potential_oracle`` is the per-point graded quadrature that
``MixedMeasureT.potential`` ran before it was batched: one adaptive rule per
density piece and per target, graded toward the target and the piece ends.
``dense_density_potential`` is the batched pass as it ran before kernel
splitting: the kernel at every target and every fixed node off the three
panels around the target, and on those panels the singularity subtraction
rho(y) - rho(x) with a rule graded 20 levels toward the target.  The Legendre
log-moments of the split kernel are checked against ``mpmath.quad``, and a
grid-backed density against the Clausen closed form.  ``dense_potential`` is
the plain kernel sum over every (target, atom) pair that
``EmpiricalMeasure.potential`` ran before its box far field.
"""

import math
import tracemalloc
from contextlib import nullcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graded_quadrature as graded
from reference_oracles import crossings_legval, log_moments_recurrence, potential_exact
from etlab import extremal, kernels, measures
from etlab.discretize import discretize_measure, move_to_slab_midpoints, rationalize
from etlab.errors import NegativeDensity
from etlab.extremal import make_admissible, periodize, rho_type1, rho_type2
from etlab.kernels import kernel_T
from etlab.measures import (
    EmpiricalMeasure,
    GridBackedDensity,
    MixedMeasureT,
    UniformPlusDensity,
    _canonical_array,
    canonical_angle,
    discrepancy_mixed,
    height_T,
)


def _piece_oracle(dens, lo: float, hi: float, x: float, spec) -> float:
    """Integral of dens(y) W(x - y) over one arc, split at y = x mod 1.

    The kernel is taken against the representative of x in the arc's own
    coordinates, and a representative within 1e-15 of an arc end is moved
    onto it, so that a target on a kink puts no node on the singularity.
    """
    def integrand(at):
        return lambda y: dens(y) * kernel_T(at - np.asarray(y, dtype=float))

    if hi - lo >= 1.0 - 1e-12:
        return graded.integrate_piece(integrand(x), x - 0.5, x + 0.5, spec,
                                      log_at=x, grade_ends=False)
    mid = 0.5 * (lo + hi)
    rep = mid + canonical_angle(x - mid)
    for end in (lo, hi):
        if abs(rep - end) < 1e-15:
            rep = end
    log_at = rep if lo <= rep <= hi else None
    return graded.integrate_piece(integrand(rep), lo, hi, spec, log_at=log_at,
                                  grade_ends=True)


def potential_oracle(rho: MixedMeasureT, x: float, spec=graded.TIGHT_SPEC) -> float:
    x = float(x)
    acc = [m * kernel_T(x - a) for a, m in rho.diracs]
    for lo, hi in rho.density.pieces():
        acc.append(_piece_oracle(rho.density.evaluate, lo, hi, x, spec))
    return math.fsum(acc)


FAMILIES = {
    "type1_0.02": lambda: rho_type1(0.02),
    "type1_0.05": lambda: rho_type1(0.05),
    "type1_0.2": lambda: rho_type1(0.2),
    "type1_0.45": lambda: rho_type1(0.45),
    "type2": lambda: rho_type2(0.13, 0.22, 0.034),
    "periodized_II": lambda: periodize(make_admissible(2.1, 0.1)),
    "periodized_III": lambda: periodize(make_admissible(1.4, 0.1)),
    "uniform_plus": lambda: MixedMeasureT(diracs=(), density=UniformPlusDensity(
        np.array([0.3, -0.1]), np.array([0.05, 0.2]))),
}


def _kinks(rho):
    return sorted({canonical_angle(e) for piece in rho.density.pieces() for e in piece})


def _targets(rho):
    """The height_T grid at 256, the kinks, and panel edges (the edges of
    every wide panel and every fourth graded edge), all off the Diracs."""
    grid = (np.arange(256) + 0.5) / 256 - 0.5
    edges = rho._fixed_nodes.edges[:-1]
    wide = edges[np.diff(rho._fixed_nodes.edges) > 1e-3]
    xs = np.concatenate((grid, _kinks(rho), wide, edges[::4]))
    if rho.diracs:
        pos = np.array([a for a, _ in rho.diracs])
        xs = xs[np.abs(_canonical_array(xs[:, None] - pos)).min(axis=1) > 1e-12]
    return xs


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_matches_oracle_on_grid_kinks_and_panel_edges(name):
    rho = FAMILIES[name]()
    xs = _targets(rho)
    got = rho.potential(xs)
    want = np.array([potential_oracle(rho, x) for x in xs])
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-9


def test_uniform_plus_matches_closed_form():
    rho = FAMILIES["uniform_plus"]()
    xs = np.concatenate((np.linspace(-0.5, 0.5, 257), _targets(rho)))
    assert np.max(np.abs(rho.potential(xs) - potential_exact(rho.density, xs))) <= 1e-9


@pytest.mark.parametrize("name", ["type1_0.2", "type2", "periodized_III"])
def test_infinite_exactly_at_a_dirac(name):
    rho = FAMILIES[name]()
    pos = np.array([a for a, _ in rho.diracs])
    xs = np.concatenate((pos, pos + 1e-3))
    vals = rho.potential(xs)
    assert np.all(vals[:pos.size] == np.inf)
    assert np.all(np.isfinite(vals[pos.size:]))
    assert rho.potential(float(pos[0])) == math.inf


@pytest.mark.parametrize("name", ["type1_0.05", "periodized_II"])
def test_scalar_and_array_calls(name):
    rho = FAMILIES[name]()
    xs = _targets(rho)[::7]
    batch = rho.potential(xs)
    single = np.array([rho.potential(float(x)) for x in xs])
    assert isinstance(rho.potential(float(xs[0])), float)
    assert np.all(np.isfinite(single)) and np.all(np.isfinite(batch))
    assert np.max(np.abs(single - batch)) <= 1e-12
    assert rho.potential(xs.reshape(-1, 1)).shape == (xs.size, 1)


def test_bitwise_reproducible(monkeypatch):
    builds = []
    build = measures._FixedNodes.build
    monkeypatch.setattr(measures._FixedNodes, "build",
                        classmethod(lambda cls, density: builds.append(1) or build(density)))
    a = FAMILIES["periodized_III"]()
    b = FAMILIES["periodized_III"]()
    xs = np.concatenate(((np.arange(256) + 0.5) / 256 - 0.5, _on_nodes(a, 37)))
    first = a.potential(xs)
    assert np.array_equal(first, a.potential(xs))
    assert np.array_equal(first, b.potential(xs))
    assert height_T(a, 256) == height_T(b, 256)
    assert len(builds) == 2  # once per measure, not per call of the search


def _graded_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1]: 16 Gauss-Legendre nodes on each of 21
    panels graded dyadically 20 levels toward 0 (sliver kept)."""
    panels = graded._split_toward(0.0, 1.0, True, 20)
    a, b = np.array([p[:2] for p in panels]).T
    nodes, weights = kernels._gl_rule(16)
    return ((a[:, None] + (b - a)[:, None] * nodes).ravel(),
            ((b - a)[:, None] * weights).ravel())


def dense_density_potential(rho: MixedMeasureT, x) -> np.ndarray:
    """W * rho at every x: the Dirac sum, and the integral of
    W(x - y) (rho(y) - rho(x)), which is W * rho since W integrates to 0,
    by the kernel at every (target, fixed node) pair off the panels p - 1, p
    and p + 1 around the target and by a rule graded toward the target on
    those three panels."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    edges = rho._fixed_nodes.edges
    nodes, weights = kernels._gl_rule(measures._PANEL_NODES)
    widths = np.diff(edges)
    y = (edges[:-1, None] + widths[:, None] * nodes).ravel()
    w = (widths[:, None] * weights).ravel()
    dens = rho.density.evaluate
    w_rho = np.stack((w * dens(y), w), axis=1)
    rel = edges[0] + (xs - edges[0]) % 1.0
    p = np.clip(np.searchsorted(edges, rel, side="right") - 1, 0, edges.size - 2)
    ext = np.concatenate(([edges[-2] - 1.0], edges, [edges[1] + 1.0]))
    before, after = rel - ext[p], ext[p + 3] - rel
    rho_x = dens(xs)
    u, wu = _graded_rule()
    out = np.zeros(xs.size)
    if rho.diracs:
        pos, mass = np.array(rho.diracs).T
        out += kernel_T(xs[:, None] - pos[None, :]) @ mass
    for i in range(0, xs.size, 64):
        s = slice(i, i + 64)
        k = kernel_T(rel[s, None] - y[None, :])
        near = ((p[s, None] - 1) * measures._PANEL_NODES
                + np.arange(3 * measures._PANEL_NODES)) % y.size
        k[np.arange(k.shape[0])[:, None], near] = 0.0
        sums = k @ w_rho
        t = np.concatenate((before[s, None] * u, after[s, None] * u), axis=1)
        wt = np.concatenate((before[s, None] * wu, after[s, None] * wu), axis=1)
        ys = rel[s, None] + np.concatenate((-t[:, :u.size], t[:, u.size:]), axis=1)
        diff = dens(ys.ravel()).reshape(ys.shape) - rho_x[s, None]
        out[s] += (sums[:, 0] - rho_x[s] * sums[:, 1]
                   + (kernel_T(np.where(t > 0.0, t, 0.5)) * diff * wt).sum(axis=1))
    return out


def _on_nodes(rho, step):
    """Every step-th fixed node, and the first and last node of every panel,
    off the Diracs."""
    field = rho._fixed_nodes.field
    n = measures._PANEL_NODES
    ends = (np.arange(field.angles.size) + rho._fixed_nodes.first) % field.angles.size
    xs = np.concatenate((field.angles[::step], field.angles[ends[::n]],
                         field.angles[ends[n - 1::n]]))
    if rho.diracs:
        pos = np.array([a for a, _ in rho.diracs])
        xs = xs[np.abs(_canonical_array(xs[:, None] - pos)).min(axis=1) > 1e-12]
    return xs


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_node_path_matches_dense_sum(name):
    """At the grid, the kinks and panel edges, at every 37th fixed node
    exactly, at the nodes next to every panel edge, and next to the seam and
    the first kink, where the correction gathers the nodes of its three
    panels across the last node: a target on a node is finite, since it
    moves one ulp off the node."""
    rho = FAMILIES[name]()
    fixed = rho._fixed_nodes
    seam = np.array([-0.5, np.nextafter(0.5, 0.0), 0.5 - 1e-3, -0.5 + 1e-3,
                     fixed.edges[0] + 1e-9, fixed.edges[0] - 1e-9])
    xs = np.concatenate((_targets(rho), _on_nodes(rho, 37), seam))
    # the three panels around some of the seam targets run past the last node
    p = np.searchsorted(fixed.edges, fixed.edges[0] + (seam - fixed.edges[0]) % 1.0, "right") - 1
    gather_lo = ((p - 1) * measures._PANEL_NODES + fixed.first) % fixed.field.angles.size
    assert np.any(gather_lo + 3 * measures._PANEL_NODES > fixed.field.angles.size)
    got, want = rho.potential(xs), dense_density_potential(rho, xs)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-13


def test_node_path_evaluates_few_kernels(monkeypatch):
    """The far nodes reach the targets through the box field: far fewer
    kernel evaluations than targets times nodes."""
    rho = rho_type1(0.05)
    xs = (np.arange(2048) + 0.5) / 2048 - 0.5
    n_nodes = rho._fixed_nodes.field.angles.size
    evals = []

    def counting(x):
        evals.append(np.size(x))
        return kernel_T(x)

    monkeypatch.setattr(measures, "kernel_T", counting)
    rho.potential(xs)
    assert sum(evals) < xs.size * n_nodes / 4


@pytest.mark.parametrize("name", ["type1_0.05", "periodized_III", "uniform_plus"])
def test_density_cost_is_the_near_pairs_and_the_dirac_pairs(name, monkeypatch):
    """A density call evaluates the kernel once per pair of the box field's
    near windows and once per (target, Dirac) pair; its near panels add
    none."""
    rho = FAMILIES[name]()
    xs = np.concatenate(((np.arange(2048) + 0.5) / 2048 - 0.5, _targets(rho)))
    field = rho._fixed_nodes.field
    box = ((xs + 0.5) % 1.0 * field.n_boxes).astype(np.int64)
    want = int(field.near_len[box].sum()) + xs.size * len(rho.diracs)
    evals = []

    def counting(x):
        evals.append(np.size(x))
        return kernel_T(x)

    monkeypatch.setattr(measures, "kernel_T", counting)
    rho.potential(xs)
    assert sum(evals) == want


def test_every_node_as_a_target_where_nodes_are_two_ulps_apart():
    """The end panels toward the kinks at +-0.4999 put distinct nodes 2 ulps
    apart; a target on any node moves one ulp, onto no other node, and
    matches the dense sum there."""
    rho = rho_type2(0.3, 0.4999, 0.1)
    ys = rho._fixed_nodes.field.angles
    gaps = np.diff(ys)[np.diff(ys) > 0.0]
    assert np.min(gaps / np.spacing(np.abs(ys[1:][np.diff(ys) > 0.0]))) == 2.0
    got, want = rho.potential(ys), dense_density_potential(rho, ys)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("z", [0.0, 0.3, -0.3, 1 - 1e-12, -(1 - 1e-12), 1.0, -1.0, 1 + 1e-12,
                               -(1 + 1e-12), 1.0999, 1.1, -1.1, 1.1001, -1.1001, 1.5, -1.5, 2.0,
                               -2.0, 3.0, 5.0, -3.0, 50.0, 1e3])
def test_log_moments_against_mpmath(z):
    """I_k(z) = int P_k(t) log|z - t| dt for every k of a panel, on both
    sides of the switch from the forward recurrence to the far-z series at
    |z| = 1.1 and on it, at far z of both signs, and next to the panel edges
    z = +-1.  The substitution u = t - z puts the singularity on a
    breakpoint at 0, which the quadrature never hits."""
    got = measures._log_moments(np.array([z]))[0]
    assert got.shape == (measures._PANEL_NODES,)
    zz = mpmath.mpf(z)
    ends = [-1 - zz, 0, 1 - zz] if abs(z) < 1.0 else [-1 - zz, 1 - zz]
    with mpmath.workdps(30):
        want = [mpmath.quad(lambda u: mpmath.legendre(k, zz + u) * mpmath.log(abs(u)), ends)
                for k in range(got.size)]
    assert np.max(np.abs(got - np.array(want, dtype=float))) <= 1e-13


def test_log_moment_series_against_the_recurrence():
    """The far-z series against the backward ratio recurrence it replaced,
    at 2,000 seeded z: 500 each in (1.1, 3], [-3, -1.1), (3, 1e3] and
    [-1e3, -3), the last two spread evenly in log |z|."""
    rng = np.random.default_rng(2028)
    mag = np.concatenate((3.0 - rng.uniform(0.0, 1.9, 1000),
                          1e3 * np.exp(-rng.uniform(0.0, math.log(1e3 / 3.0), 1000))))
    z = np.where(np.arange(mag.size) % 2 == 0, mag, -mag)
    got, want = measures._log_moments(z), log_moments_recurrence(z)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_legendre_to_chebyshev_table():
    """Row k of _LEG_TO_CHEB holds the Chebyshev coefficients of P_k."""
    for k in range(measures._PANEL_NODES):
        want = np.polynomial.Legendre.basis(k).convert(kind=np.polynomial.Chebyshev).coef
        row = measures._LEG_TO_CHEB[k]
        assert np.max(np.abs(row[:k + 1] - want)) <= 1e-15
        assert np.all(row[k + 1:] == 0.0)


# the periodized densities of the crossing checks, by (R, lam): kinds II and
# III, and the sqrt kink of _crossings' docstring at (1.005, 0.005); and a
# density of eight modes, which crosses 1 twelve times
PERIODIZED = {"II_2.1": (2.1, 0.1), "II_2.35": (2.35, 0.06), "III_1.4": (1.4, 0.1),
              "III_1.2": (1.2, 0.13), "III_1.005": (1.005, 0.005)}
def _periodized(R: float, lam: float):
    return lambda: periodize(make_admissible(R, lam))


CROSSING_FAMILIES = dict(FAMILIES, uniform_plus_8=lambda: MixedMeasureT(
    diracs=(), density=UniformPlusDensity(0.12 * np.cos(np.arange(1.0, 9.0)),
                                          0.1 * np.sin(1.7 * np.arange(1.0, 9.0)))))
CROSSING_FAMILIES.update({f"periodized_{k}": _periodized(*v) for k, v in PERIODIZED.items()})


@pytest.mark.parametrize("level", [1.0, 0.0])
@pytest.mark.parametrize("name", sorted(CROSSING_FAMILIES))
def test_crossings_match_the_legval_bisection(name, level):
    """The bisection on the Chebyshev form against the bisection on legval:
    the same brackets, and each crossing within 2**-42 of its panel's
    half-width, the bisection's own tolerance."""
    fixed = CROSSING_FAMILIES[name]()._fixed_nodes
    got, want = measures._crossings(fixed, level), crossings_legval(fixed, level)
    assert got.shape == want.shape
    half = 0.5 * np.diff(fixed.edges)
    panel = np.clip(np.searchsorted(fixed.edges, want, side="right") - 1, 0, half.size - 1)
    assert np.all(np.abs(got - want) <= 2.0**-42 * half[panel])


# rho_type1 takes its closed form D = 2m and reads no crossing
@pytest.mark.parametrize("name", [n for n in sorted(CROSSING_FAMILIES) if not n.startswith("type1")])
def test_discrepancy_bitwise_with_the_legval_bisection(name, monkeypatch):
    rho = CROSSING_FAMILIES[name]()
    got = discrepancy_mixed(rho)
    monkeypatch.setattr(measures, "_crossings", crossings_legval)
    assert discrepancy_mixed(rho) == got


@pytest.mark.parametrize("R, lam", sorted(PERIODIZED.values()))
def test_ring_radii_bitwise_with_the_legval_bisection(R, lam, monkeypatch):
    mu = make_admissible(R, lam)
    got = periodize(mu).meta
    monkeypatch.setattr(extremal, "_crossings", crossings_legval)
    want = periodize(mu).meta
    assert (got["l_ring"], got["r_ring"]) == (want["l_ring"], want["r_ring"])
    assert got["r_ring"] is not None or got["l_ring"] is not None


@pytest.mark.parametrize("name", sorted(FAMILIES) + ["grid_backed"])
def test_density_read_only_at_the_fixed_nodes(name, monkeypatch):
    """Once the fixed nodes are built, no functional reads the density: the
    near panels of the potential take the interpolant through the cached
    node values, and the mass, D and the discretization its cumulative."""
    rho = (MixedMeasureT(diracs=(), density=GridBackedDensity(np.arange(1.0, 9.0) / 4.5))
           if name == "grid_backed" else FAMILIES[name]())
    rho.potential(0.1)
    points = []
    evaluate = type(rho.density).evaluate
    monkeypatch.setattr(type(rho.density), "evaluate",
                        lambda self, y: points.append(np.size(y)) or evaluate(self, y))
    assert np.all(np.isfinite(rho.potential(_targets(rho))))
    height_T(rho, 256)
    assert rho.mass() == pytest.approx(1.0, abs=1e-12)
    discrepancy_mixed(rho)
    # the periodized densities dip below 0, which discretization refuses
    with pytest.raises(NegativeDensity) if name.startswith("periodized") else nullcontext():
        discretize_measure(rho, 256)
    assert sum(points) == 0


def _grid_potential_exact(values, x) -> float:
    """Closed form: the integral of W(x - y) over [a, b] is
    [Cl2(2 pi (b - x)) - Cl2(2 pi (a - x))] / (2 pi)."""
    n = len(values)
    acc = mpmath.mpf(0)
    for k, v in enumerate(values):
        a, b = mpmath.mpf(k) / n, mpmath.mpf(k + 1) / n
        acc += float(v) * (mpmath.clsin(2, 2 * mpmath.pi * (b - x))
                           - mpmath.clsin(2, 2 * mpmath.pi * (a - x)))
    return float(acc / (2 * mpmath.pi))


@pytest.mark.parametrize("values", [
    np.ones(8),
    np.array([0.3, 1.7, 0.9, 1.2, 0.1, 2.0, 0.8, 1.0]),
    np.array([0.5, 1.5, 1.0]),
    np.array([0.4, 1.6]),
    np.array([1.0]),
])
def test_grid_backed_against_clausen_closed_form(values):
    rho = MixedMeasureT(diracs=(), density=GridBackedDensity(values))
    n = values.size
    edges = [j / n for j in range(n)] + [1.0, -0.5]
    near_edges = [1.0 / n + 1e-9, 1.0 / n - 1e-12, 0.5 - 1e-7]
    inside = [0.3, -0.37, 0.123]
    for x in edges + near_edges + inside:
        assert rho.potential(x) == pytest.approx(_grid_potential_exact(values, x), abs=1e-9)


# ---------------------------------------------------------------------------
# Weighted atoms: the box far field against the dense kernel sum
# ---------------------------------------------------------------------------


def dense_potential(rho: EmpiricalMeasure, x) -> np.ndarray:
    """Sum of w_i W(x - a_i) over every atom, in blocks of the outer product."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xs)
    block = max(1, int(4e6 // max(rho.n_atoms, 1)))
    for i in range(0, xs.size, block):
        out[i:i + block] = kernel_T(xs[i:i + block, None] - rho.angles[None, :]) @ rho.weights
    return out


def _atom_set(kind: str, n: int, seed: int) -> EmpiricalMeasure:
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        grid = n + int(rng.integers(0, n))
        angles = rng.choice(grid, size=n, replace=False) / grid - 0.5
    elif kind == "moved":
        # a lattice atom moved to a point of its cell, as slab midpoints are
        angles = (np.arange(n) + rng.random(n)) / n - 0.5
    elif kind == "random":
        angles = rng.random(n) - 0.5
    elif kind == "crowded":
        angles = rng.random() - 0.5 + 0.02 * rng.random(n)
    elif kind == "few":
        angles = rng.random(min(n, 4 * measures._BOX_ATOMS)) - 0.5
    else:  # "edges": atoms at -1/2 and just below 1/2, the rest random
        angles = np.concatenate(([-0.5, np.nextafter(0.5, 0.0), 0.5 - 1e-15],
                                 rng.random(n) - 0.5))
    weights = rng.random(angles.size) + 0.1
    return EmpiricalMeasure(angles, weights / weights.sum())


ATOM_KINDS = ["lattice", "moved", "random", "crowded", "few", "edges"]


def _atom_targets(rho: EmpiricalMeasure) -> np.ndarray:
    """Grid, gap midpoints, box edges, points next to the seam, on atoms and
    next to them, and shifted copies outside [-1/2, 1/2)."""
    theta = rho.angles
    n_boxes = rho._box_field.n_boxes
    inside = np.concatenate((
        (np.arange(512) + 0.5) / 512 - 0.5,
        _canonical_array(theta + 0.5 * ((np.roll(theta, -1) - theta) % 1.0)),
        np.arange(n_boxes) / n_boxes - 0.5,
        [-0.5, np.nextafter(-0.5, 0.0), np.nextafter(0.5, 0.0), 0.5 - 1e-12],
        theta[::11],
        _canonical_array(theta[::7] + 1e-9)))
    return np.concatenate((inside, inside[::5] + 1.0, inside[::5] - 3.0))


def _assert_matches_dense(rho: EmpiricalMeasure, xs: np.ndarray, tol: float = 1e-13):
    got, want = rho.potential(xs), dense_potential(rho, xs)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.isfinite(got[finite]))
    assert np.max(np.abs(got[finite] - want[finite])) <= tol


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(ATOM_KINDS), n=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_atoms_match_dense_sum(kind, n, seed):
    rho = _atom_set(kind, n, seed)
    _assert_matches_dense(rho, _atom_targets(rho))


@pytest.mark.parametrize("kind", ATOM_KINDS)
def test_each_atom_set_matches_dense_sum(kind):
    rho = _atom_set(kind, 2500, 7)
    _assert_matches_dense(rho, _atom_targets(rho))


@pytest.mark.parametrize("m, n, q", [(0.05, 1024, 1024), (0.1, 256, 1024)])
def test_sharpness_stages_match_dense_sum(m, n, q):
    """The discrete stage sits on the j/n lattice, the rational stage on
    slab midpoint quantiles off it."""
    rho_n = discretize_measure(rho_type1(m), n)
    rho_q = move_to_slab_midpoints(rationalize(rho_n, q), q)
    for rho in (rho_n, rho_q):
        assert rho._box_field.n_boxes >= 8
        _assert_matches_dense(rho, _atom_targets(rho))


def test_infinite_exactly_at_atoms_across_the_seam():
    rho = _atom_set("edges", 300, 3)
    assert np.all(rho.potential(rho.angles) == np.inf)
    assert rho.potential(-0.5) == math.inf
    assert rho.potential(0.5) == math.inf  # the same point as -1/2
    near = rho.potential(np.array([0.5 - 1e-9, -0.5 + 1e-9]))
    assert np.all(np.isfinite(near))


def _near_case(case: str):
    """An atom set and targets for one edge case of the near pass."""
    if case == "empty":  # the gap of rho_type1(0.3) leaves about 50 boxes empty
        rho = discretize_measure(rho_type1(0.3), 4096)
    else:
        rho = _atom_set("random", {"seam": 2500, "one_box": 20, "two_boxes": 40}[case], 23)
    width = 1.0 / rho._box_field.n_boxes
    seam = np.concatenate((np.linspace(-0.5, -0.5 + width, 40, endpoint=False),
                           np.linspace(0.5 - width, 0.5, 40, endpoint=False)))
    return rho, np.concatenate(((np.arange(512) + 0.5) / 512 - 0.5, seam, rho.angles))


@pytest.mark.parametrize("case", ["seam", "empty", "one_box", "two_boxes"])
def test_near_windows_at_the_edges_match_dense_sum(case):
    """Windows that run past the last point into the wrapped copy (targets
    in box 0 and box B - 1), empty windows, which read 0, and one or two
    boxes, where the window is every point; targets on atoms read +inf."""
    rho, xs = _near_case(case)
    field = rho._box_field
    box = ((xs + 0.5) % 1.0 * field.n_boxes).astype(np.int64)
    lo, length = field.near_lo[box], field.near_len[box]
    if case == "seam":
        assert np.any(lo + length > rho.n_atoms) and field.n_boxes >= 64
    elif case == "empty":
        assert np.sum(length == 0) >= 100
    else:
        assert field.n_boxes == (1 if case == "one_box" else 2)
        assert np.all(length == rho.n_atoms)
    _assert_matches_dense(rho, xs)
    assert np.all(rho.potential(rho.angles) == np.inf)


def test_fewer_atoms_than_five_boxes_need_is_the_plain_sum():
    rho = _atom_set("few", 60, 11)
    assert rho._box_field.n_boxes <= 2
    assert not np.any(rho._box_field.coef)
    _assert_matches_dense(rho, _atom_targets(rho))
    empty = EmpiricalMeasure(np.empty(0), np.empty(0))
    assert empty.potential(0.25) == 0.0


def test_against_mpmath_at_30_digits():
    rho = _atom_set("random", 700, 5)
    assert rho._box_field.n_boxes == 32
    with mpmath.workdps(30):
        for x in (0.123456789, -0.4999, 0.5 - 1.0 / 64):
            want = mpmath.fsum(mpmath.mpf(float(w)) * -mpmath.log(abs(
                2 * mpmath.sin(mpmath.pi * (mpmath.mpf(x) - mpmath.mpf(float(a))))))
                for a, w in zip(rho.angles, rho.weights))
            assert abs(rho.potential(x) - float(want)) <= 1e-13


def test_scalar_and_shape_contract():
    rho = _atom_set("random", 500, 9)
    xs = np.linspace(-0.7, 0.7, 12)
    assert isinstance(rho.potential(0.1), float)
    assert isinstance(rho.potential(np.float64(0.1)), float)
    assert isinstance(rho.potential(np.array(0.1)), float)
    assert rho.potential(xs).shape == (12,)
    assert rho.potential(xs.reshape(3, 4)).shape == (3, 4)
    assert np.array_equal(rho.potential(xs.reshape(3, 4)).ravel(), rho.potential(xs))
    assert rho.potential(np.empty(0)).shape == (0,)
    single = np.array([rho.potential(float(x)) for x in xs])
    assert np.max(np.abs(single - rho.potential(xs))) <= 1e-14


def test_atoms_bitwise_reproducible_and_cached(monkeypatch):
    builds = []
    build = measures._BoxField.build
    monkeypatch.setattr(measures._BoxField, "build",
                        classmethod(lambda cls, *args: builds.append(1) or build(*args)))
    a, b = _atom_set("moved", 2000, 13), _atom_set("moved", 2000, 13)
    xs = _atom_targets(a)
    first = a.potential(xs)
    assert np.array_equal(first, a.potential(xs))
    assert np.array_equal(first, b.potential(xs))
    assert height_T(a, 1024) == height_T(b, 1024)
    assert len(builds) == 2  # once per measure, not per call of the search


def test_temporaries_grow_as_a_few_arrays_per_target():
    """The far field is interpolated by a recurrence and the near field runs
    in blocks, so a long target array costs a few doubles per target, not
    one per Chebyshev degree."""
    rho = _atom_set("random", 4000, 3)
    rho.potential(0.1)
    xs = np.random.default_rng(1).random(200_000) - 0.5
    tracemalloc.start()
    try:
        rho.potential(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * xs.size


def test_cost_is_the_number_of_near_pairs(monkeypatch):
    """On a crowded set, kernel evaluations are the near pairs of each
    target, not targets times the longest window."""
    rho = _atom_set("crowded", 3000, 17)
    xs = _atom_targets(rho)
    field = rho._box_field
    s = (xs + 0.5) % 1.0 * field.n_boxes
    near_pairs = int(field.near_len[s.astype(np.int64)].sum())
    evals = []

    def counting(x):
        evals.append(np.size(x))
        return kernel_T(x)

    monkeypatch.setattr(measures, "kernel_T", counting)
    rho.potential(xs)
    assert sum(evals) == near_pairs
    assert near_pairs < xs.size * field.near_len.max()
