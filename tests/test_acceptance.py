"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (written through pytest's capture, so the lines always show).

Criterion 6 asserts its stated threshold verbatim.  The pipeline's rational
stage meets it with q = n by moving the atoms to slab midpoint quantiles;
the floor of rounding alone at the same parameters is frozen in
tests/test_discretize.py.
"""

import functools
import math
import time

import numpy as np

from conftest import ACCEPTANCE_LINES
from reference_oracles import d_tilde_quadrature, h_tilde_quadrature
from test_harmonic import random_nonneg_trig_samples
from test_sediment import direct_energy_from_coefficients

from etlab.discretize import sharpness_pipeline
from etlab.extremal import (
    TABLE1_PRINTED,
    l_of_r,
    make_admissible,
    periodize,
    phi,
    r_critical,
    rho_type1,
    table1,
)
from etlab.harmonic import ganelius_check, mollified_type1_samples
from etlab.measures import (
    AdmissibleDistR,
    GridBackedDensity,
    canonical_angle,
    d_tilde,
    g_tilde,
    h_tilde,
    height_T,
)
from etlab.polynomials import PolynomialSpec, check_et, discrepancy_poly, height_poly
from etlab.sediment import (
    ExternalPotentialSpec,
    diffusion_replacement_potential,
    energy,
    micro_diffuse,
    minimize_energy,
)


def _announce(line: str) -> None:
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except AssertionError as exc:
                _announce(f"[FAIL] criterion {number:2d}: {label} -- {exc}")
                raise
            _announce(f"[PASS] criterion {number:2d}: {label}"
                      + (f" ({detail})" if detail else ""))
        return wrapper
    return decorate


@criterion(1, "reference table reproduction within 2e-3/1e-3, under 60 s")
def test_criterion_01_table():
    t0 = time.time()
    rows = table1()
    elapsed = time.time() - t0
    for row in rows:
        _, H, D, ratio = TABLE1_PRINTED[row.k]
        assert abs(row.H - H) <= 2e-3, f"H mismatch at k={row.k}"
        assert abs(row.D - D) <= 2e-3, f"D mismatch at k={row.k}"
        if row.k <= 18:
            assert abs(row.ratio - ratio) <= 1e-3, \
                f"ratio mismatch at k={row.k}"
            assert row.ratio > 0.5
    assert elapsed <= 60.0, f"table took {elapsed:.1f}s"
    return f"max|dH|={max(abs(r.H - TABLE1_PRINTED[r.k][1]) for r in rows):.1e}, {elapsed:.1f}s"


@criterion(2, "critical radius to 4 decimals and PV consistency")
def test_criterion_02_critical_radius():
    rc = r_critical()
    assert round(rc, 4) == 1.8102, f"r_critical() = {rc}"
    residue = phi(0.0, rc)
    assert abs(residue) <= 1e-7, f"phi(0, rc) = {residue}"
    return f"rc={rc:.6f}, phi residue={residue:.1e}"


@criterion(3, "kind-I exactness: ratio 1/2 closed-form, 1e-6 by quadrature")
def test_criterion_03_type1():
    mu = AdmissibleDistR("I", 1.0)
    assert abs(g_tilde(mu) - 0.5) <= 1e-12
    quad = h_tilde_quadrature(mu)
    assert abs(quad - 0.5) <= 1e-6, f"quadrature H = {quad}"
    return f"|H_quad - 1/2| = {abs(quad - 0.5):.1e}"


@criterion(4, "kind-II closed forms vs quadrature (1e-8 / 1e-10)")
def test_criterion_04_type2():
    worst_h = worst_d = 0.0
    for R in (1.9, 2.0, 3.0):
        mu = AdmissibleDistR("II", 1.0, R)
        dh = abs(h_tilde_quadrature(mu) - math.pi**2 * (R * R - 2.0) / 2.0)
        dd = abs(d_tilde_quadrature(mu) - (math.pi * math.sqrt(R * R - 1.0) - 2.0))
        assert dh <= 1e-8, f"H mismatch {dh} at R={R}"
        assert dd <= 1e-10, f"D mismatch {dd} at R={R}"
        worst_h, worst_d = max(worst_h, dh), max(worst_d, dd)
    return f"worst dH={worst_h:.1e}, dD={worst_d:.1e}"


@criterion(5, "polynomial sanity and 1000-polynomial bound check")
def test_criterion_05_polynomials():
    f = PolynomialSpec(moduli=np.ones(8), angles=np.zeros(8))
    assert abs(discrepancy_poly(f)[0] - 1.0) <= 1e-9
    assert abs(height_poly(f) - math.log(2.0)) <= 1e-9
    g = PolynomialSpec(moduli=np.ones(8), angles=np.arange(8) / 8.0)
    assert abs(discrepancy_poly(g)[0] - 0.125) <= 1e-9
    assert abs(height_poly(g) - math.log(2.0) / 8.0) <= 1e-9
    rng = np.random.default_rng(20240612)
    min_margin = math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        rep = check_et(PolynomialSpec(moduli=np.ones(n),
                                      angles=rng.uniform(-0.5, 0.5, n)))
        assert rep.holds, f"bound violated: {rep.summary()}"
        min_margin = min(min_margin, rep.margin)
    return f"min margin over corpus = {min_margin:.4f}"


@criterion(6, "sharpness chain at (m=0.05, n=4096, q=4096) at its stated threshold")
def test_criterion_06_sharpness_chain():
    gs = {}
    for n in (256, 1024, 4096):
        rep = sharpness_pipeline(0.05, n, 4096 if n == 4096 else n)
        gs[n] = rep.discrete.G
        if n == 4096:
            g_rational = rep.rational.G
    assert gs[256] >= gs[1024] - 1e-3 and gs[1024] >= gs[4096] - 1e-3, \
        f"G_discrete not decreasing: {gs}"
    assert g_rational > 0.5, f"G_rational = {g_rational}"
    assert g_rational <= 0.52, (
        f"G_rational = {g_rational:.4f} > 0.52: the rational stage should "
        "track G_discrete by moving its atoms to slab midpoint quantiles; "
        "rounding alone leaves them on the grid, near 0.63 "
        "(see tests/test_discretize.py)")
    return f"G_discrete={gs}, G_rational={g_rational:.4f}"


def test_criterion_06_polynomial_stage():
    # beside criterion 6: the degree-4096 polynomial whose roots are the
    # rational stage's atoms reads that stage's D exactly and its H to 1e-11
    rep = sharpness_pipeline(0.05, 4096, 4096, include_polynomial=True)
    assert rep.polynomial.D == rep.rational.D
    assert abs(rep.polynomial.H - rep.rational.H) <= 1e-11


@criterion(7, "sediment descent reaches the kind-I equilibrium")
def test_criterion_07_sediment():
    u = ExternalPotentialSpec(0.0, 0.2)
    grid, residual = minimize_energy(u, 0.6, 512, 50_000, tol=1e-3)
    assert residual <= 1e-3, f"residual = {residual}"
    target = rho_type1(0.2).density.evaluate(grid.centers)
    l1 = float(np.abs(grid.values - target).mean())
    assert l1 <= 0.02, f"L1 distance = {l1}"
    return f"residual={residual:.1e}, L1={l1:.1e}"


@criterion(8, "periodization height identity within 1e-3")
def test_criterion_08_periodization():
    details = []
    for mu in (AdmissibleDistR("II", 0.1, 2.0), make_admissible(1.4, 0.1)):
        rho = periodize(mu)
        h_circle, _ = height_T(rho, 256)
        diff = abs(h_circle - h_tilde(mu))
        assert diff <= 1e-3, f"kind {mu.kind}: |H_circle - H_line| = {diff}"
        details.append(f"{mu.kind}: {diff:.1e}")
    return ", ".join(details)


@criterion(9, "spectral vs direct energy on 20 trig densities within 1e-6")
def test_criterion_09_energy():
    rng = np.random.default_rng(90125)
    n = 1024
    centers = (np.arange(n) + 0.5) / n
    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(1, 17))
        kk = np.arange(1, deg + 1)
        a = rng.normal(size=deg) / (1.0 + kk)
        b = rng.normal(size=deg) / (1.0 + kk)
        scale = 0.9 / max(1.0, float(np.abs(a).sum() + np.abs(b).sum()))
        a, b = a * scale, b * scale
        phases = 2.0 * np.pi * np.outer(centers, kk)
        rho = GridBackedDensity(1.0 + np.cos(phases) @ a + np.sin(phases) @ b)
        diff = abs(energy(rho, ExternalPotentialSpec())
                   - direct_energy_from_coefficients(a, b))
        assert diff <= 1e-6, f"energy mismatch {diff}"
        worst = max(worst, diff)
    return f"worst |spectral - direct| = {worst:.1e}"


@criterion(10, "microscopic diffusion: convexity and exact conservation, 50 configs")
def test_criterion_10_micro_diffusion():
    rng = np.random.default_rng(1031)
    xs = (np.arange(2048) + 0.5) / 2048
    worst_pot, worst_cons = 0.0, 0.0
    for _ in range(50):
        n = int(rng.choice([256, 512]))
        vals = rng.random(n) + 0.05
        rho = GridBackedDensity(vals)
        b0 = int(rng.integers(0, n))
        k = int(rng.integers(4, max(5, n // 16)))
        x0, eps = b0 / n, k / n
        out = micro_diffuse(rho, x0, eps)
        idx = (b0 - k + np.arange(2 * k)) % n
        u = ((idx + 0.5) / n - x0 + 0.5) % 1.0 - 0.5
        cm = vals[idx] / n
        d = dict(out.diracs)
        m1, m2 = d[canonical_angle((b0 - k) / n)], d[canonical_angle((b0 + k) / n)]
        mass_err = abs((m1 + m2) - math.fsum(cm.tolist()))
        mom_err = abs(eps * (m2 - m1) - math.fsum((cm * u).tolist()))
        assert mass_err <= 1e-12 and mom_err <= 1e-12, \
            f"conservation errs: {mass_err}, {mom_err}"
        worst_cons = max(worst_cons, mass_err, mom_err)
        rel = np.abs((xs - x0 + 0.5) % 1.0 - 0.5)
        outside = rel > eps + 1e-9
        delta = diffusion_replacement_potential(rho, x0, eps, xs[outside])
        low = float(delta.min())
        assert low >= -1e-9, f"potential dropped outside: {low}"
        worst_pot = min(worst_pot, low)
    return f"min outside potential = {worst_pot:.1e}, worst conservation = {worst_cons:.1e}"


@criterion(11, "conjugate-function bound: corpus holds, near-sharp family >= 0.9")
def test_criterion_11_ganelius():
    rng = np.random.default_rng(811)
    for _ in range(200):
        rep = ganelius_check(random_nonneg_trig_samples(rng))
        assert rep.holds, rep.summary()
    sharp = ganelius_check(mollified_type1_samples(0.02, 4096))
    assert sharp.holds
    assert sharp.ratio >= 0.9, f"ratio = {sharp.ratio}"
    return f"near-sharp ratio = {sharp.ratio:.4f}"


@criterion(12, "monotonicity, curve geometry, and envelope-bound property suites")
def test_criterion_12_property_suites():
    # admissibility integral increasing in both arguments on a 20 x 20 grid
    ls = np.linspace(0.0, 0.9, 20)
    rs = np.linspace(1.05, 2.5, 20)
    vals = np.array([[phi(float(L), float(R)) for R in rs] for L in ls])
    assert np.all(np.diff(vals, axis=0) > 0.0)
    assert np.all(np.diff(vals, axis=1) > 0.0)
    # curve L(R) strictly decreasing, 30 samples, with the zero-set geometry
    rc = r_critical()
    rr = np.linspace(1.02, rc - 1e-3, 30)
    lvals = [l_of_r(float(R)) for R in rr]
    assert np.all(np.diff(lvals) < 0.0)
    for R, L in zip(rr, lvals):
        assert L + R < 2.0 and L * L + R * R > 2.0
    # both line functionals strictly increasing along the curve, 50 samples
    rr50 = np.linspace(1.02, rc - 1e-3, 50)
    hs, ds = [], []
    for R in rr50:
        mu = make_admissible(float(R))
        hs.append(h_tilde(mu))
        ds.append(d_tilde(mu))
    assert np.all(np.diff(hs) > 0.0) and np.all(np.diff(ds) > 0.0)
    # closed-form envelopes on the table grid
    for R, *_ in TABLE1_PRINTED:
        mu = (AdmissibleDistR("II", 1.0, R) if R >= rc
              else make_admissible(float(R)))
        L = mu.L or 0.0
        assert h_tilde(mu) >= math.pi**2 * (R * R - L * L) ** 2 \
            / (8.0 * (R + 1.0) * R) - 1e-9
        assert d_tilde(mu) <= math.pi * (1.0 - L) * (1.0 + 2.0 * (1.0 - L) / math.pi) + 1e-9
    return "phi grid 20x20, curve 30, functionals 50, envelopes 20"
