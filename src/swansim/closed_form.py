"""Analytic solutions for the Swanson oscillator.

Everything here follows from one fact: the doubled-phase-space generator
A = doubled_generator(model) satisfies A^2 = -omega^2 * I, so its flow is
exp(A t) = cos(omega t) I + sin(omega t)/omega * A and all dynamical
quantities reduce to trigonometric expressions plus a fractional-linear
projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .model import SwansonParams, doubled_generator, swanson_hamiltonian

__all__ = [
    "SINGULAR_DET_TOL",
    "Metric",
    "DoubledFlow",
    "RealState",
    "ComplexState",
    "doubled_flow",
    "metric_closed",
    "stretch_factor",
    "complex_trajectory",
    "real_trajectory",
    "survival_closed",
    "closed_series",
    "metric_eigen",
]

# determinant of the projection denominator below which the metric is
# declared divergent rather than inverted (separates blow-up from roundoff)
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
        """Rescale to unit determinant (used to absorb integrator drift)."""
        s = 1.0 / math.sqrt(self.det)
        return Metric(self.g_pp * s, self.g_pq * s, self.g_qq * s)


@dataclass(frozen=True)
class DoubledFlow:
    """Flow matrix of the doubled (4-dimensional) phase space.

    Acts on metrics by the fractional-linear projection
    G(t) = (pp G0 + pq)(qp G0 + qq)^{-1}.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError("doubled flow must be 4x4")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def pp(self) -> np.ndarray:
        return self.matrix[:2, :2]

    @property
    def pq(self) -> np.ndarray:
        return self.matrix[:2, 2:]

    @property
    def qp(self) -> np.ndarray:
        return self.matrix[2:, :2]

    @property
    def qq(self) -> np.ndarray:
        return self.matrix[2:, 2:]

    def propagate_metric(self, g0: Metric, time: float | None = None) -> Metric:
        """Apply the fractional-linear action to an initial metric.

        Raises DivergenceError when the denominator factor is singular (the
        signed determinant also goes negative between the periodic blow-up
        times of supercritical flows, which is equally outside the chart).
        """
        m0 = g0.matrix
        num = self.pp @ m0 + self.pq
        den = self.qp @ m0 + self.qq
        det = den[0, 0] * den[1, 1] - den[0, 1] * den[1, 0]
        if det <= SINGULAR_DET_TOL:
            raise DivergenceError("metric projection is singular: flow diverged", time=time)
        g = num @ np.array([[den[1, 1], -den[0, 1]], [-den[1, 0], den[0, 0]]]) / det
        return Metric(float(g[0, 0]), 0.5 * float(g[0, 1] + g[1, 0]), float(g[1, 1]))


def doubled_flow(params: SwansonParams, t: float) -> DoubledFlow:
    """Closed-form doubled flow cos(wt) I + sin(wt)/w * A."""
    w = params.omega
    a = doubled_generator(swanson_hamiltonian(params))
    return DoubledFlow(math.cos(w * t) * np.eye(4) + (math.sin(w * t) / w) * a)


def metric_closed(params: SwansonParams, g0: Metric, t: float) -> Metric:
    """Metric at time t for an arbitrary initial metric.

    Raises DivergenceError at (and between) the periodic blow-up times.
    """
    return doubled_flow(params, t).propagate_metric(g0, time=t)


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

    Only valid for G(0) = I; other initial metrics go through the numerical
    integrator or the complex-trajectory projection.
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
    out[..., 5] = np.sqrt(dd) * np.exp(ex)
    return out


def metric_eigen(g: Metric) -> tuple[float, float, float]:
    """Eigenvalues (g_plus, g_minus) and rotation angle phi of the eigenframe.

    g_plus * g_minus = 1 by the unit determinant.  phi uses atan2 to fix the
    quadrant; the isotropic metric returns phi = 0 by convention.
    """
    tr = g.g_pp + g.g_qq
    disc = max(tr * tr - 4.0, 0.0)
    root = math.sqrt(disc)
    g_plus = 0.5 * (tr + root)
    g_minus = 0.5 * (tr - root)
    if g.g_pq == 0.0 and g.g_pp == g.g_qq:
        phi = 0.0
    else:
        phi = 0.5 * math.atan2(2.0 * g.g_pq, g.g_pp - g.g_qq)
    return g_plus, g_minus, phi
