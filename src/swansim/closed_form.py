"""Analytic solutions for the Swanson oscillator seeded with the identity metric.

The complexified flow of the Swanson model is a rotation at frequency
omega = sqrt(omega0^2 + delta^2) (complex_trajectory), so every
identity-seeded quantity (centre, metric, survival probability) is a
trigonometric expression sharing one scale factor, which diverges
periodically once |delta| >= omega0 (closed_series), first at first_pole_time:
both are the b0 = i case of divergence_law, which holds for every initial
Gaussian.  The metric of an arbitrary initial metric is gaussian.metric_closed.
The state and metric types every module shares live here too.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DivergenceError
from .model import SwansonParams, _Value

__all__ = [
    "SINGULAR_DET_TOL",
    "Metric",
    "RealState",
    "ComplexState",
    "divergence_law",
    "first_pole_time",
    "complex_trajectory",
    "survival_closed",
    "closed_series",
    "metric_eigen",
]

# stretch-factor denominator below which a sample counts as inside a blow-up
# window rather than inverted (separates blow-up from roundoff)
SINGULAR_DET_TOL = 1e-12


class RealState(_Value):
    """Real phase-space point (momentum first)."""

    P: float
    Q: float

    def __init__(self, P: float, Q: float):
        super().__init__(P, Q)
        if not (math.isfinite(self.P) and math.isfinite(self.Q)):
            raise ValueError("phase-space point must be finite")

    @property
    def array(self) -> np.ndarray:
        return np.array([self.P, self.Q])


class ComplexState(_Value):
    """Complexified phase-space point (momentum first)."""

    p: complex
    q: complex

    @property
    def array(self) -> np.ndarray:
        return np.array([self.p, self.q], dtype=complex)


class Metric(_Value):
    """Symmetric positive-definite phase-space metric with unit determinant.

    The unit determinant is what makes the metric compatible with the
    symplectic structure (G Omega G = det(G) Omega).  The constructor only
    enforces positivity and finiteness; det G = 1 holds by construction for
    every metric the library produces and is asserted in the test suite.
    """

    g_pp: float
    g_pq: float
    g_qq: float

    def __init__(self, g_pp: float, g_pq: float, g_qq: float):
        super().__init__(g_pp, g_pq, g_qq)
        vals = (self.g_pp, self.g_pq, self.g_qq)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("metric entries must be finite")
        if self.g_pp <= 0 or self.g_qq <= 0:
            raise ValueError("metric must be positive definite")

    @classmethod
    def identity(cls) -> "Metric":
        return cls(1.0, 0.0, 1.0)

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


def divergence_law(params: SwansonParams, b0: complex) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, R) of Im b(t) |den(t)|^2 = alpha + beta cos 2wt + gamma sin 2wt, R = hypot(beta, gamma).

    den = S_qp b0 + S_qq is the Möbius denominator of the Swanson flow from
    b0 = x + iy, w = params.omega; the packet stays bounded exactly when
    alpha > R, and alpha + beta = y.  The identity seed is b0 = i.
    """
    # the law reads only omega0 / w and delta / w: a power-of-two scale of all three is exact where no product is
    # subnormal. w is scaled up to [1/2, 1), and down to it only where a product could overflow (|b0|^2 finite)
    x, y = b0.real, b0.imag
    e = -math.frexp(params.omega)[1]
    if params.omega * max(1.0, abs(x), abs(y)) < 2.0**500:
        e = max(e, 0)
    w0, d, w = (math.ldexp(v, e) for v in (params.omega0, params.delta, params.omega))
    excess = x * x + y * y - 1.0
    alpha = w0 * (0.5 * d * excess + w0 * y) / (w * w)
    beta = d * (d * y - 0.5 * w0 * excess) / (w * w)
    gamma = d * x / w
    return alpha, beta, gamma, math.hypot(beta, gamma)


def first_pole_time(params: SwansonParams) -> float | None:
    """Earliest blow-up time of the identity-seeded flow, None if bounded.

    The first root of alpha + R cos 2wt, the law at b0 = i (R = beta): closed_series
    is finite before it and raises DivergenceError from it until the window
    closes.  |delta| = omega0 gives -alpha / R = -1 exactly.
    """
    alpha, _, _, r = divergence_law(params, 1j)
    if alpha > r:
        return None
    return math.acos(-alpha / r) / (2.0 * params.omega)


def complex_trajectory(params: SwansonParams, z0: ComplexState, t: float) -> ComplexState:
    """Complexified Hamiltonian trajectory; finite for all times and parameters."""
    w0, d = params.omega0, params.delta
    w = params.omega
    c, s = math.cos(w * t), math.sin(w * t) / w
    p = z0.p * c + (-w0 * z0.q + 1j * d * z0.p) * s
    q = z0.q * c + (w0 * z0.p - 1j * d * z0.q) * s
    return ComplexState(p, q)


def survival_closed(params: SwansonParams, z0: RealState, t: float) -> float:
    """Survival probability n(t) for G(0) = I and n(0) = 1; math.inf inside a blow-up window, finite between them."""
    try:
        return float(closed_series(params, z0, [t])[0, 5])
    except DivergenceError:
        return math.inf


def closed_series(params: SwansonParams, z0: RealState, times) -> np.ndarray:
    """Identity-seeded closed-form solution sampled on an array of times.

    Returns rows (P, Q, g_pp, g_pq, g_qq, n); survival_closed is evaluated
    through it, and rows[:, :2] is the expectation-value trajectory.
    Raises DivergenceError if any sampled time lies in a blow-up window.
    """
    times = np.asarray(times, dtype=float)
    w0, d = params.omega0, params.delta
    w = params.omega
    two = 2.0 * w * times
    # 1 - cos 2wt, sin 2wt and delta omega0 / w^2 serve the stretch, the metric and the exponent alike
    vers, sin2, dw = 1.0 - np.cos(two), np.sin(two), d * w0 / (w * w)
    # the stretch factor is 1/den, den = Im b |S_qp i + S_qq|^2: the law at b0 = i, where alpha + beta = 1
    den = 1.0 - divergence_law(params, 1j)[1] * vers
    if den.min() <= SINGULAR_DET_TOL:
        k = int(np.argmax(den <= SINGULAR_DET_TOL))
        raise DivergenceError("sampled times include a blow-up window", time=float(times[k]))
    dd = 1.0 / den
    c, s = np.cos(w * times), np.sin(w * times) / w
    out = np.empty(times.shape + (6,))
    out[..., 0] = dd * (z0.P * c - z0.Q * (w0 + d) * s)
    out[..., 1] = dd * (z0.Q * c + z0.P * (w0 - d) * s)
    out[..., 2] = dd * (1.0 - dw * vers)
    out[..., 3] = dd * (d / w) * sin2
    out[..., 4] = dd * (1.0 + dw * vers)
    # halving delta, not doubling w^2: 2 w^2 is inf past w = 9.5e153, and SwansonParams accepts up to 1.34e154
    ex = (0.5 * d * dd / (w * w)) * (((d - w0) * z0.P**2 + (d + w0) * z0.Q**2) * vers - 2.0 * w * z0.P * z0.Q * sin2)
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
