"""Discrepancy and height functionals for circle measures and polynomial
root distributions, with the extremal constructions that realize the sharp
sqrt(2) constant relating them."""

from .errors import EtLabError
from .kernels import integrate_sqrt_endpoints, kernel_T
from .measures import (
    AdmissibleDistR,
    EmpiricalMeasure,
    GridBackedDensity,
    IntervalT,
    MixedMeasureT,
    canonical_angle,
    d_tilde,
    discrepancy_empirical,
    discrepancy_mixed,
    g_ratio,
    g_tilde,
    h_tilde,
    height_T,
    measure_from_json,
    measure_to_json,
)
from .extremal import (
    l_of_r,
    make_admissible,
    periodize,
    phi,
    r_critical,
    rho_type1,
    rho_type2,
    table1,
)
from .polynomials import (
    EtReport,
    PolynomialSpec,
    check_et,
    discrepancy_poly,
    height_poly,
    max_log_modulus,
    schur_reduce,
    synthesize_poly,
)
from .discretize import (
    discretize_measure,
    moment_match_cell,
    rationalize,
    sharpness_pipeline,
)
from .sediment import (
    ExternalPotentialSpec,
    energy,
    micro_diffuse,
    minimize_energy,
)
from .harmonic import conjugate_pair, ganelius_check

__version__ = "0.1.0"

__all__ = [
    "AdmissibleDistR", "EmpiricalMeasure", "EtLabError", "EtReport",
    "ExternalPotentialSpec", "GridBackedDensity", "IntervalT", "MixedMeasureT",
    "PolynomialSpec", "canonical_angle", "check_et", "conjugate_pair",
    "d_tilde", "discrepancy_empirical", "discrepancy_mixed",
    "discrepancy_poly", "discretize_measure", "energy", "g_ratio",
    "g_tilde", "ganelius_check", "h_tilde", "height_T", "height_poly",
    "integrate_sqrt_endpoints", "kernel_T", "l_of_r",
    "make_admissible", "max_log_modulus", "measure_from_json",
    "measure_to_json", "micro_diffuse", "minimize_energy",
    "moment_match_cell", "periodize", "phi", "r_critical", "rationalize",
    "rho_type1", "rho_type2", "schur_reduce", "sharpness_pipeline",
    "synthesize_poly", "table1",
]
