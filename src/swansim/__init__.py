"""Metriplectic phase-space and Gaussian wave-packet dynamics for the Swanson oscillator.

The library pairs closed-form solutions of the non-Hermitian oscillator with
a generic numerical engine for quadratic models, exact Gaussian quantum
propagation, and divergence classification of initial conditions.
"""

from .closed_form import (
    ComplexState,
    Metric,
    RealState,
    closed_series,
    complex_trajectory,
    first_pole_time,
    metric_eigen,
    survival_closed,
)
from .errors import (
    DivergenceError,
    MobiusPoleError,
    NonNormalizableError,
    SwansimError,
)
from .gaussian import (
    GaussianState,
    b_from_metric,
    blowup_detected,
    eta_action,
    evaluate_wavefunction,
    evolve_b,
    evolve_state,
    gaussian_norm,
    is_normalizable,
    mapped_dynamics,
    metric_closed,
    metric_from_b,
    project_expectations,
    propagate,
    riccati_direct,
)
from .geometry import (
    HyperboloidPoint,
    RegionLabel,
    classify_b,
    classify_metric,
    plane_slope,
    region_grid,
    xyz_from_metric,
    xyz_rhs,
)
from .model import (
    QuadraticHamiltonian,
    SpectralData,
    SwansonParams,
    doubled_generator,
    spectral_data,
    swanson_hamiltonian,
)
from .ode import MetriplecticState, Trajectory, integrate

__version__ = "0.1.0"

__all__ = [
    "ComplexState",
    "DivergenceError",
    "GaussianState",
    "HyperboloidPoint",
    "Metric",
    "MetriplecticState",
    "MobiusPoleError",
    "NonNormalizableError",
    "QuadraticHamiltonian",
    "RealState",
    "RegionLabel",
    "SpectralData",
    "SwansimError",
    "SwansonParams",
    "Trajectory",
    "b_from_metric",
    "blowup_detected",
    "classify_b",
    "classify_metric",
    "closed_series",
    "complex_trajectory",
    "doubled_generator",
    "eta_action",
    "evaluate_wavefunction",
    "evolve_b",
    "evolve_state",
    "first_pole_time",
    "gaussian_norm",
    "integrate",
    "is_normalizable",
    "mapped_dynamics",
    "metric_closed",
    "metric_eigen",
    "metric_from_b",
    "plane_slope",
    "project_expectations",
    "propagate",
    "region_grid",
    "riccati_direct",
    "spectral_data",
    "survival_closed",
    "swanson_hamiltonian",
    "xyz_from_metric",
    "xyz_rhs",
]
