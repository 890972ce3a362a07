"""The accuracy of each layer is fixed in the library, not chosen by callers:
no public callable takes a quadrature ``spec``, and the grid, tolerance and
size parameters that no caller varied stay deleted.  Second paths that only
the tests used live in the tests, and stay out of the library."""

import inspect

import pytest

import etlab
from etlab import discretize, extremal, harmonic, kernels, measures, polynomials, sediment

MODULES = (kernels, measures, extremal, discretize, polynomials, harmonic, sediment)

# callable -> parameters it no longer takes (besides ``spec``, which none takes)
DELETED = {
    "kernels.integrate_piece": ("log_at", "grade_ends"),
    "measures.MixedMeasureT": ("total", "even"),
    "measures.AdmissibleDistR": ("m",),
    "measures.PeriodizedDensity": ("lattice_terms", "cheb_nodes"),
    "measures.discrepancy_mixed": ("grid",),
    "measures.g_ratio": ("alpha",),
    "extremal.l_of_r": ("tol",),
    "extremal.periodize": ("lattice_terms",),
    "extremal.rho_type1": ("check_mass",),
    "extremal.rho_type2": ("check_mass",),
    "discretize.sharpness_pipeline": ("grid_n",),
    "polynomials.max_log_modulus": ("grid_n",),
    "polynomials.height_poly": ("grid_n",),
    "polynomials.check_et": ("grid_n",),
    "polynomials.real_root_check": ("grid_n",),
    "polynomials.count_at_angle": ("tol",),
    "harmonic.conjugate_pair": ("grid_n",),
    "sediment.ExternalPotentialSpec": ("extra",),
    "sediment.minimize_energy": ("step", "support_frac", "trace_every"),
}

# names that left the library: the oracles and leftovers only tests called
# moved into the tests (``reference_oracles.py`` and the test modules using them)
REMOVED = [
    "etlab.kernel_R",
    "kernels.kernel_R",
    "measures.h_tilde_quadrature",
    "measures.d_tilde_quadrature",
    "measures.PeriodizedDensity.evaluate_direct",
    "measures.UniformPlusDensity.potential_exact",
    "measures.EmpiricalMeasure.rotated",
    "extremal.density_R",
    "errors.AtDirac",
    "polynomials.PolynomialSpec.expanded_coeffs",
    "sediment.total_potential",
    "measures.AdmissibleDistR.with_lam",
    "harmonic.random_nonneg_trig_samples",
    "polynomials.PolynomialSpec.roots_complex",
    "extremal.TABLE1_R_GRID",
    # the sediment state is a measures.GridBackedDensity
    "etlab.GridDensity",
    "sediment.GridDensity",
]


def _public_signatures():
    """(qualified name, parameter names) of every function in the modules'
    ``__all__``, every class's ``__init__`` and every public method."""
    out = []
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) == "builtins" or not callable(obj):
                continue  # the alias Angle = float, and constants
            qual = f"{short}.{name}"
            out.append((qual, inspect.signature(obj).parameters))
            if inspect.isclass(obj):
                for attr, val in vars(obj).items():
                    func = getattr(val, "__func__", val)
                    if not attr.startswith("_") and inspect.isfunction(func):
                        out.append((f"{qual}.{attr}", inspect.signature(func).parameters))
    return out


SIGNATURES = _public_signatures()


def test_every_listed_callable_is_walked():
    assert set(DELETED) <= {qual for qual, _ in SIGNATURES}


@pytest.mark.parametrize("qual, params", SIGNATURES, ids=[q for q, _ in SIGNATURES])
def test_no_spec_and_no_deleted_parameter(qual, params):
    assert "spec" not in params
    assert not set(DELETED.get(qual, ())) & set(params)


@pytest.mark.parametrize("qual", REMOVED)
def test_removed_name_is_gone(qual):
    head, *path, name = qual.split(".")
    owner = etlab if head == "etlab" else getattr(etlab, head)
    for attr in path:
        owner = getattr(owner, attr)
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())
