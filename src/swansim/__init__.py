"""Metriplectic phase-space and Gaussian wave-packet dynamics for the Swanson oscillator.

The library pairs closed-form solutions of the non-Hermitian oscillator with
a generic numerical engine for quadratic models, exact Gaussian quantum
propagation, and divergence classification of initial conditions.

The namespace is lazy (PEP 562): `import swansim` loads no submodule and no
numpy.  The first use of an exported name imports its home submodule, and
the name is then cached here.
"""

from importlib import import_module

__version__ = "0.1.0"

# home submodule -> the names swansim exports from it
_EXPORTS = {
    "closed_form": ("ComplexState", "Metric", "RealState", "closed_series", "complex_trajectory",
                    "first_pole_time", "metric_eigen", "survival_closed"),
    "errors": ("DivergenceError", "MobiusPoleError", "NonNormalizableError", "SwansimError"),
    "gaussian": ("GaussianState", "blowup_detected", "eta_action", "evaluate_wavefunction", "evolve_b",
                 "evolve_state", "gaussian_norm", "mapped_dynamics", "metric_closed", "project_expectations",
                 "riccati_direct"),
    "geometry": ("HyperboloidPoint", "RegionLabel", "classify_b", "classify_metric", "plane_slope",
                 "region_grid", "xyz_from_metric", "xyz_rhs"),
    "model": ("QuadraticHamiltonian", "SwansonParams", "doubled_generator", "swanson_hamiltonian"),
    "ode": ("integrate",),
    "propagator": ("MetriplecticState", "Trajectory", "b_from_metric", "is_normalizable", "metric_from_b",
                   "propagate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
