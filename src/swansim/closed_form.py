"""Analytic solutions for the Swanson oscillator seeded with the identity metric.

The complexified flow of the Swanson model is a rotation at frequency
omega = sqrt(omega0^2 + delta^2) (complex_trajectory), so every
identity-seeded quantity (centre, metric, survival probability) is a
trigonometric expression sharing one scale factor, which diverges
periodically once |delta| >= omega0 (closed_series).  The metric of an
arbitrary initial metric is gaussian.metric_closed, the Möbius route.
The state and metric types every module shares live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .model import SwansonParams

__all__ = [
    "SINGULAR_DET_TOL",
    "Metric",
    "RealState",
    "ComplexState",
    "stretch_factor",
    "first_pole_time",
    "complex_trajectory",
    "real_trajectory",
    "survival_closed",
    "closed_series",
    "metric_eigen",
]

# stretch-factor denominator below which a sample counts as inside a blow-up
# window rather than inverted (separates blow-up from roundoff)
SINGULAR_DET_TOL = 1e-12


@dataclass(frozen=True)
class RealState:
    """Real phase-space point (momentum first)."""

    P: float
    Q: float

    def __post_init__(self):
        if not (math.isfinite(self.P) and math.isfinite(self.Q)):
            raise ValueError("phase-space point must be finite")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.P, self.Q])


@dataclass(frozen=True)
class ComplexState:
    """Complexified phase-space point (momentum first)."""

    p: complex
    q: complex

    @property
    def array(self) -> np.ndarray:
        return np.array([self.p, self.q], dtype=complex)


@dataclass(frozen=True)
class Metric:
    """Symmetric positive-definite phase-space metric with unit determinant.

    The unit determinant is what makes the metric compatible with the
    symplectic structure (G Omega G = det(G) Omega).  The constructor only
    enforces positivity and finiteness; det G = 1 holds by construction for
    every metric the library produces and is asserted in the test suite.
    """

    g_pp: float
    g_pq: float
    g_qq: float

    def __post_init__(self):
        vals = (self.g_pp, self.g_pq, self.g_qq)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("metric entries must be finite")
        if self.g_pp <= 0 or self.g_qq <= 0:
            raise ValueError("metric must be positive definite")

    @classmethod
    def identity(cls) -> "Metric":
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def from_matrix(cls, m) -> "Metric":
        a = np.asarray(m, dtype=float)
        if a.shape != (2, 2) or abs(a[0, 1] - a[1, 0]) > 1e-9 * max(1.0, np.abs(a).max()):
            raise ValueError("metric must be a symmetric 2x2 matrix")
        return cls(float(a[0, 0]), 0.5 * float(a[0, 1] + a[1, 0]), float(a[1, 1]))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.g_pp, self.g_pq], [self.g_pq, self.g_qq]])

    @property
    def det(self) -> float:
        return self.g_pp * self.g_qq - self.g_pq * self.g_pq

    def normalized(self) -> "Metric":
        """Rescale to unit determinant (used to absorb integrator drift); ValueError if det <= 0."""
        det = self.det
        if not det > 0:
            raise ValueError(f"cannot normalize an indefinite metric: det = {det!r} <= 0")
        s = 1.0 / math.sqrt(det)
        return Metric(self.g_pp * s, self.g_pq * s, self.g_qq * s)


def _stretch(params: SwansonParams, times: np.ndarray) -> np.ndarray:
    """Stretch factor 1/den on an array of times; DivergenceError in a blow-up window."""
    d, w = params.delta, params.omega
    den = 1.0 - (d * d / (w * w)) * (1.0 - np.cos(2.0 * w * times))
    if den.min() <= SINGULAR_DET_TOL:
        k = int(np.argmax(den <= SINGULAR_DET_TOL))
        raise DivergenceError("sampled times include a blow-up window", time=float(times[k]))
    return 1.0 / den


def stretch_factor(params: SwansonParams, t: float) -> float:
    """Common scale factor of the identity-seeded metric and trajectory solutions.

    Returns math.inf once the factor's denominator drops below tolerance,
    which covers both the blow-up instants and the supercritical windows in
    between, where the projected matrix is no longer a metric.
    """
    try:
        return float(_stretch(params, np.array([t], dtype=float))[0])
    except DivergenceError:
        return math.inf


def first_pole_time(params: SwansonParams) -> float | None:
    """Earliest blow-up time of the identity-seeded flow, None if bounded.

    The first zero of the stretch factor's denominator: stretch_factor is
    finite before it and inf from it until the window closes.
    """
    w0, d = params.omega0, params.delta
    if d * d < w0 * w0:
        return None
    w = params.omega
    arg = 1.0 - w * w / (d * d)
    return math.acos(max(-1.0, arg)) / (2.0 * w)


def complex_trajectory(params: SwansonParams, z0: ComplexState, t: float) -> ComplexState:
    """Complexified Hamiltonian trajectory; finite for all times and parameters."""
    w0, d = params.omega0, params.delta
    w = params.omega
    c, s = math.cos(w * t), math.sin(w * t) / w
    p = z0.p * c + (-w0 * z0.q + 1j * d * z0.p) * s
    q = z0.q * c + (w0 * z0.p - 1j * d * z0.q) * s
    return ComplexState(p, q)


def real_trajectory(params: SwansonParams, z0: RealState, t: float) -> RealState:
    """Expectation-value trajectory for identity initial metric.

    Only valid for G(0) = I; other initial metrics go through the exact
    propagator (gaussian.propagate) or the RK4 oracle.
    """
    row = closed_series(params, z0, [t])[0]
    return RealState(float(row[0]), float(row[1]))


def survival_closed(params: SwansonParams, z0: RealState, t: float) -> float:
    """Survival probability n(t) for G(0) = I and n(0) = 1; math.inf past blow-up."""
    try:
        return float(closed_series(params, z0, [t])[0, 5])
    except DivergenceError:
        return math.inf


def closed_series(params: SwansonParams, z0: RealState, times) -> np.ndarray:
    """Identity-seeded closed-form solution sampled on an array of times.

    Returns rows (P, Q, g_pp, g_pq, g_qq, n); the single-time operations
    above are evaluated through it.
    Raises DivergenceError if any sampled time lies in a blow-up window.
    """
    times = np.asarray(times, dtype=float)
    dd = _stretch(params, times)
    w0, d = params.omega0, params.delta
    w = params.omega
    two = 2.0 * w * times
    c, s = np.cos(w * times), np.sin(w * times) / w
    out = np.empty(times.shape + (6,))
    out[..., 0] = dd * (z0.P * c - z0.Q * (w0 + d) * s)
    out[..., 1] = dd * (z0.Q * c + z0.P * (w0 - d) * s)
    out[..., 2] = dd * (1.0 - (d * w0 / (w * w)) * (1.0 - np.cos(two)))
    out[..., 3] = dd * (d / w) * np.sin(two)
    out[..., 4] = dd * (1.0 + (d * w0 / (w * w)) * (1.0 - np.cos(two)))
    ex = (d * dd / (2.0 * w * w)) * (
        ((d - w0) * z0.P**2 + (d + w0) * z0.Q**2) * (1.0 - np.cos(two))
        - 2.0 * w * z0.P * z0.Q * np.sin(two)
    )
    # near delta = -omega0 the norm overflows before the pole: inf is the value meant there
    with np.errstate(over="ignore"):
        out[..., 5] = np.sqrt(dd) * np.exp(ex)
    return out


def metric_eigen(g_pp, g_pq, g_qq):
    """Eigenvalues (g_plus, g_minus) and rotation angle phi of the eigenframe; scalars or arrays.

    The entries are those of a unit-determinant metric, so g_plus * g_minus = 1.
    phi uses atan2 to fix the quadrant; the isotropic metric returns phi = 0 by
    convention.  Scalar entries give numpy scalars.
    """
    # |g_plus - g_minus| from hypot rather than sqrt(tr^2 - 4), which cancels
    # near the isotropic metric; g_minus = 1/g_plus then needs no subtraction
    g_plus = 0.5 * (g_pp + g_qq + np.hypot(g_pp - g_qq, 2.0 * g_pq))
    g_minus = 1.0 / g_plus
    isotropic = (g_pq == 0.0) & (g_pp == g_qq)
    # [()] turns the 0-d array np.where makes of scalars into a scalar
    phi = np.where(isotropic, 0.0, 0.5 * np.arctan2(2.0 * g_pq, g_pp - g_qq))[()]
    return g_plus, g_minus, phi
