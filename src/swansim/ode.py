"""RK4 oracle for arbitrary quadratic models, and the trajectory type it shares.

Classical fixed-step RK4 throughout: the flows are smooth, periodic and
low-dimensional, so adaptivity buys nothing and fixed steps keep the
convergence-order tests clean.  Blow-up is detected by thresholding the
largest metric eigenvalue and the centre norm.

The CLI's simulate and sweep run the exact propagator
(gaussian.propagate), which returns the same Trajectory on the same grid;
integrate stays as its independent oracle for validate and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .closed_form import DoubledFlow, Metric, RealState
from .model import OMEGA, QuadraticHamiltonian, doubled_generator

__all__ = [
    "BLOWUP_THRESHOLD",
    "MetriplecticState",
    "Trajectory",
    "rhs_state",
    "rhs_metric",
    "rhs_norm",
    "step_count",
    "integrate",
    "integrate_doubled",
]

# metric eigenvalue / centre norm beyond which a trajectory counts as divergent
BLOWUP_THRESHOLD = 1e8


@dataclass(frozen=True)
class MetriplecticState:
    """Joint state of the coupled flow: centre Z, metric G, survival probability n."""

    Z: RealState
    G: Metric
    n: float

    def __post_init__(self):
        if not (math.isfinite(self.n) and self.n > 0):
            raise ValueError("survival probability must be positive and finite")


@dataclass
class Trajectory:
    """Uniformly sampled solution of the coupled flow.

    values has one row (P, Q, g_pp, g_pq, g_qq, n) per retained time;
    divergence_time is set when the run was truncated by blow-up and
    det_drift records the largest raw |det G - 1| seen before the per-step
    renormalization.
    """

    times: np.ndarray
    values: np.ndarray
    divergence_time: float | None = None
    det_drift: float = 0.0
    _states: list[MetriplecticState] | None = field(default=None, repr=False)

    @classmethod
    def from_samples(cls, out: np.ndarray, stop: int, step: float, det_drift: float = 0.0) -> "Trajectory":
        """Rows out[k] at times step * k; stop >= 0 truncates to out[:stop] and sets the divergence time."""
        if stop < 0:
            return cls(times=step * np.arange(len(out)), values=out, det_drift=det_drift)
        return cls(
            times=step * np.arange(stop),
            values=out[:stop],
            divergence_time=stop * step,
            det_drift=det_drift,
        )

    @property
    def states(self) -> list[MetriplecticState]:
        if self._states is None:
            self._states = [
                MetriplecticState(
                    Z=RealState(float(row[0]), float(row[1])),
                    G=Metric(float(row[2]), float(row[3]), float(row[4])),
                    n=float(row[5]),
                )
                for row in self.values
            ]
        return self._states

    @property
    def final(self) -> MetriplecticState:
        return self.states[-1]


def rhs_state(model: QuadraticHamiltonian, z: RealState, g: Metric) -> np.ndarray:
    """Centre velocity: symplectic gradient of H minus metric gradient of Gamma."""
    det = g.det
    if abs(det) < 1e-12:
        raise ValueError("metric is near-singular")
    zv = z.array
    grad_h = model.hess_h @ zv + model.lin_h
    grad_g = model.hess_gamma @ zv + model.lin_gamma
    g_inv = np.array([[g.g_qq, -g.g_pq], [-g.g_pq, g.g_pp]]) / det
    return OMEGA @ grad_h - g_inv @ grad_g


def rhs_metric(model: QuadraticHamiltonian, g: Metric) -> np.ndarray:
    """Metric velocity; symmetric, and trace(G^-1 Gdot) = 0 so det G is conserved."""
    hh, gg = model.hess_h, model.hess_gamma
    gm = g.matrix
    m = hh @ OMEGA @ gm
    gg_om = OMEGA.T @ gg @ OMEGA
    return m + m.T + gg - gm @ gg_om @ gm


def rhs_norm(model: QuadraticHamiltonian, z: RealState, g: Metric, n: float) -> float:
    """Survival-probability rate -(2 Gamma(Z) + tr(Omega^T Gamma'' Omega G)/2) n."""
    gg = model.hess_gamma
    gg_om = OMEGA.T @ gg @ OMEGA
    tr = gg_om[0, 0] * g.g_pp + (gg_om[0, 1] + gg_om[1, 0]) * g.g_pq + gg_om[1, 1] * g.g_qq
    return -(2.0 * model.gamma_value(z.array) + 0.5 * tr) * n


def step_count(t_end: float, step: float) -> int:
    """Steps of the uniform grid 0, step, ..., n_steps * step with n_steps = max(1, round(t_end / step))."""
    if step <= 0:
        raise ValueError("step must be positive")
    return max(1, int(round(t_end / step)))


def integrate(
    model: QuadraticHamiltonian,
    init: MetriplecticState,
    t_end: float,
    step: float,
    blow_threshold: float = BLOWUP_THRESHOLD,
) -> Trajectory:
    """RK4 integration of the coupled system from t = 0 to n_steps * step.

    n_steps = round(t_end / step); pass a commensurate step for exact spans.
    The metric determinant is renormalized to one after every step.  On
    blow-up the trajectory is truncated and divergence_time is set to the
    first offending time.
    """
    n_steps = step_count(t_end, step)
    y0 = np.array([init.Z.P, init.Z.Q, init.G.g_pp, init.G.g_pq, init.G.g_qq, init.n])
    out = np.empty((n_steps + 1, 6))
    with np.errstate(all="ignore"):
        stop, drift = _kernels.metriplectic_rk4(
            model.hess_h,
            model.lin_h,
            model.hess_gamma,
            model.lin_gamma,
            model.const_gamma,
            y0,
            step,
            n_steps,
            blow_threshold,
            out,
        )
    return Trajectory.from_samples(out, stop, step, det_drift=drift)


def integrate_doubled(model: QuadraticHamiltonian, t_end: float, step: float) -> list[DoubledFlow]:
    """RK4 on the linear doubled-phase-space flow, sampled at every step.

    The system is linear with constant generator, so classical RK4 is exactly
    repeated multiplication by the degree-4 Taylor polynomial of exp(step*A).
    """
    n_steps = step_count(t_end, step)
    a = doubled_generator(model)
    r = np.eye(4)
    term = np.eye(4)
    for order in range(1, 5):
        term = term @ (step * a) / order
        r = r + term
    flows = [DoubledFlow(np.eye(4))]
    phi = np.eye(4)
    for _ in range(n_steps):
        phi = r @ phi
        flows.append(DoubledFlow(phi))
    return flows
