"""RK4 oracle for quadratic models, and the trajectory type it shares.

Classical fixed-step RK4 on the coupled centre/metric/norm flow: the flows
are smooth, periodic and low-dimensional, so adaptivity buys nothing and
fixed steps keep the convergence-order tests clean.  The right-hand side is
written once, inline in _kernels.metriplectic_rk4, a loop on plain Python
floats that stops at the first non-finite state (a zero determinant
included) without numpy warnings; the tests pin one step and whole runs of
it to the matrix form of the same equations.  Blow-up is detected by
thresholding the largest metric eigenvalue and the centre norm.

The CLI's simulate and sweep run the exact propagator
(gaussian.propagate), which returns the same Trajectory on the same grid;
integrate stays as its independent oracle for validate and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .closed_form import Metric, RealState
from .model import QuadraticHamiltonian

__all__ = [
    "BLOWUP_THRESHOLD",
    "MetriplecticState",
    "Trajectory",
    "step_count",
    "integrate",
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
    def final(self) -> MetriplecticState:
        row = self.values[-1].tolist()
        return MetriplecticState(Z=RealState(row[0], row[1]), G=Metric(row[2], row[3], row[4]), n=row[5])


def step_count(t_end: float, step: float) -> int:
    """Steps of the uniform grid 0, step, ..., n_steps * step with n_steps = max(1, round(t_end / step))."""
    if step <= 0:
        raise ValueError("step must be positive")
    return max(1, int(round(t_end / step)))


def integrate(model: QuadraticHamiltonian, init: MetriplecticState, t_end: float, step: float) -> Trajectory:
    """RK4 integration of the coupled system from t = 0 to n_steps * step.

    n_steps = round(t_end / step); pass a commensurate step for exact spans.
    The metric determinant is renormalized to one after every step.  On
    blow-up the trajectory is truncated and divergence_time is set to the
    first offending time.  ValueError if the initial metric has det <= 0.
    """
    if not init.G.det > 0:
        raise ValueError(f"initial metric must be positive definite, got det = {init.G.det!r} <= 0")
    n_steps = step_count(t_end, step)
    y0 = np.array([init.Z.P, init.Z.Q, init.G.g_pp, init.G.g_pq, init.G.g_qq, init.n])
    out = np.empty((n_steps + 1, 6))
    stop, drift = _kernels.metriplectic_rk4(
        model.hess_h, model.hess_gamma, model.const_gamma, y0, step, n_steps, BLOWUP_THRESHOLD, out
    )
    return Trajectory.from_samples(out, stop, step, det_drift=drift)

