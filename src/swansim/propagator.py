"""The exact propagator of the coupled flow, and the run protocol both engines speak.

The classical coupled flow of centre, metric and survival probability of a
quadratic model is solved exactly by the closed-form complex symplectic flow
S(t) (Graefe & Schubert, PRA 83, 060101 (2011)): the metric is that of the
Möbius image b = (S_pp b0 + S_pq)/(S_qp b0 + S_qq) of the initial
uncertainty parameter, the centre is the projection of S(t) z0, and the
survival probability is n0 times the squared norm of the Gaussian.  propagate
evaluates it on a uniform time grid; simulate and sweep run it block by
block (_propagate_blocks), and the CLI imports this module and closed_form
for them, never the oracles.

Both engines, this one and the RK4 oracle (ode._rk4_blocks), speak one run
protocol: they yield a run BLOCK_ROWS rows at a time as (k0, rows, stop,
drift) blocks on the grid of step_count, with the same row layout and
truncation, and Trajectory.from_blocks collects the blocks into a whole run.
Each engine reads BLOCK_ROWS here when a run starts, so one setting sizes
the blocks of both.  gaussian's wave-packet routes take their flow, metric
map, centre, phase and norm from here.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .closed_form import Metric, RealState, metric_eigen
from .errors import NonNormalizableError
from .model import MIN_FREQUENCY, QuadraticHamiltonian, _Value

__all__ = [
    "BLOWUP_THRESHOLD",
    "MetriplecticState",
    "Trajectory",
    "step_count",
    "is_normalizable",
    "metric_from_b",
    "b_from_metric",
    "propagate",
]

# metric eigenvalue / centre norm beyond which a trajectory counts as divergent
BLOWUP_THRESHOLD = 1e8

# rows per block of both engines, read when a run starts: what the CLI holds of a run at once, whatever its length
BLOCK_ROWS = 2048

# Möbius denominators below this (relative) size count as a pole
POLE_TOL = 1e-12


class MetriplecticState(_Value):
    """Joint state of the coupled flow: centre Z, metric G, survival probability n."""

    Z: RealState
    G: Metric
    n: float

    def __init__(self, Z: RealState, G: Metric, n: float):
        super().__init__(Z, G, n)
        if not (math.isfinite(self.n) and self.n > 0):
            raise ValueError("survival probability must be positive and finite")


class Trajectory(_Value, frozen=False):
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
    def from_blocks(cls, blocks, n_rows: int, step: float) -> "Trajectory":
        """The run of n_rows rows at times step * k from an engine's (k0, rows, stop, drift) blocks; the
        last block's stop >= 0 truncates it and sets the divergence time, and its drift is det_drift."""
        out = np.empty((n_rows, 6))
        for k0, rows, stop, drift in blocks:
            out[k0 : k0 + len(rows)] = rows
        if stop < 0:
            return cls(times=step * np.arange(n_rows), values=out, det_drift=drift)
        return cls(times=step * np.arange(stop), values=out[:stop], divergence_time=stop * step, det_drift=drift)

    @property
    def final(self) -> MetriplecticState:
        row = self.values[-1].tolist()
        return MetriplecticState(Z=RealState(row[0], row[1]), G=Metric(row[2], row[3], row[4]), n=row[5])


def step_count(t_end: float, step: float) -> int:
    """Steps of the uniform grid 0, step, ..., n_steps * step with n_steps = max(1, round(t_end / step))."""
    if step <= 0:
        raise ValueError("step must be positive")
    return max(1, int(round(t_end / step)))


def is_normalizable(b: complex) -> bool:
    return b.imag > 0.0


def _at_pole(den, b0):
    """Whether the Möbius denominator den of the flow of b0 counts as a pole; scalars or arrays."""
    return abs(den) <= POLE_TOL * np.maximum(1.0, abs(b0))


def _metric_entries(b):
    """(g_pp, g_pq, g_qq) of the metric of b; scalars or arrays."""
    im = b.imag
    re = b.real
    # 0.0 - re rather than -re: a real part of +0 gives g_pq = +0, not -0
    return 1.0 / im, (0.0 - re) / im, (re * re + im * im) / im


def metric_from_b(b: complex) -> Metric:
    """Unit-determinant covariance metric of a normalizable Gaussian."""
    if not is_normalizable(b):
        raise NonNormalizableError(f"Im(b) must be positive, got {b.imag}")
    return Metric(*_metric_entries(b))


def b_from_metric(g: Metric) -> complex:
    """Inverse of metric_from_b; exact round trip on the upper half-plane."""
    return complex(-g.g_pq, 1.0) / g.g_pp


def _hessian_coeffs(model: QuadraticHamiltonian) -> tuple[complex, complex, complex]:
    hc = model.hess_complex
    return complex(hc[0, 0]), complex(hc[0, 1]), complex(hc[1, 1])


def _flow_entries(model: QuadraticHamiltonian, t):
    """Entries of exp(t * Omega H'') for scalar or array t.

    Omega H'' = [[-cpq, -cqq], [cpp, cpq]] is traceless, so with
    mu^2 = det(Omega H'') = cpp cqq - cpq^2 the exponential is
    cos(mu t) I + sin(mu t)/mu * Omega H''.  Built from scalar entries: a 2x2
    matrix product would start the BLAS library for nothing.
    """
    cpp, cpq, cqq = _hessian_coeffs(model)
    mu = cmath.sqrt(cpp * cqq - cpq * cpq)
    t = np.asarray(t)
    arg = mu * t
    c = np.cos(arg)
    if abs(mu) < MIN_FREQUENCY:
        s = t.astype(complex)
    else:
        s = np.sin(arg) / mu
    return c - s * cpq, -s * cqq, s * cpp, c + s * cpq


def _centre(p, q, g_pp, g_pq, g_qq):
    """Real expectation values Re z - Omega G Im z of a complex centre z = (p, q); scalars or arrays."""
    return p.real + g_pq * p.imag + g_qq * q.imag, q.real - g_pp * p.imag - g_pq * q.imag


def _sampled_flow(model: QuadraticHamiltonian, z0, b0: complex, times: np.ndarray):
    """Centre (p, q), uncertainty b and Möbius denominator S_qp b0 + S_qq on a time grid; no chart checks."""
    spp, spq, sqp, sqq = _flow_entries(model, times)
    den = sqp * b0 + sqq
    return spp * z0[0] + spq * z0[1], sqp * z0[0] + sqq * z0[1], (spp * b0 + spq) / den, den


def _phase_change(pq_change, log_im_ratio, log_den, const, t):
    """Closed-form gamma(t) - gamma(0) from its ingredients; scalars or arrays (see gaussian.evolve_state).

    pq_change = p q - p0 q0, log_im_ratio = ln(Im b / Im b0), and log_den is
    Log den on its continuous branch; its real part ln|den| alone gives the
    right Im gamma.
    """
    return 0.5 * pq_change + 0.25j * log_im_ratio + 0.5j * log_den - const * t


def _norm_exponent(p, q, b, gamma):
    """Logarithm of the squared norm of the packet (p, q, b, gamma); scalars or arrays."""
    qi, pi = q.imag, p.imag
    return -2.0 * gamma.imag + 2.0 * p.real * qi + b.imag * qi * qi + (pi - b.real * qi) ** 2 / b.imag


def _sampled_rows(model: QuadraticHamiltonian, init: MetriplecticState, times: np.ndarray):
    """propagate's rows at the given times, and which of them are divergent.

    Every row depends on its own time alone, so a row is the same bytes
    whichever grid it is evaluated on.  numpy's error state is suppressed
    inside and restored on return.
    """
    b0 = b_from_metric(init.G.normalized())
    p0, q0 = init.Z.P, init.Z.Q
    const = model.const_h - 1j * model.const_gamma
    rows = np.empty((len(times), 6))
    with np.errstate(all="ignore"):
        p, q, b, den = _sampled_flow(model, (p0, q0), b0, times)
        # only Im gamma reaches a row (through n), and it takes Re Log den = ln|den|:
        # the branch of arg den is not needed
        gamma = _phase_change(p * q - p0 * q0, np.log(b.imag / b0.imag), np.log(np.abs(den)), const, times)
        g_pp, g_pq, g_qq = _metric_entries(b)
        rows[:, 0], rows[:, 1] = _centre(p, q, g_pp, g_pq, g_qq)
        rows[:, 2] = g_pp
        rows[:, 3] = g_pq
        rows[:, 4] = g_qq
        rows[:, 5] = init.n * np.exp(_norm_exponent(p, q, b, gamma))
        bad = (
            (b.imag <= 0.0)
            | _at_pole(den, b0)
            | ~np.isfinite(rows).all(axis=1)
            | (metric_eigen(g_pp, g_pq, g_qq)[0] > BLOWUP_THRESHOLD)
            | (np.hypot(rows[:, 0], rows[:, 1]) > BLOWUP_THRESHOLD)
        )
    return rows, bad


def _propagate_blocks(model: QuadraticHamiltonian, init: MetriplecticState, t_end: float, step: float):
    """propagate's rows, BLOCK_ROWS at a time: yields (k0, rows, stop, drift) for each block.

    The run protocol of ode._rk4_blocks: rows is a fresh (m, 6) array of the
    rows k0 .. k0 + m - 1.  stop is -1, except on the last block of a run
    that diverged: that block is cut just before the first divergent sample,
    stop is that sample's index, and m may be 0.  drift is 0.0: the closed
    forms renormalize nothing.  numpy's error state is suppressed only while
    a block is computed, so the consumer runs under its own.
    """
    n_rows, block = step_count(t_end, step) + 1, BLOCK_ROWS
    for k0 in range(0, n_rows, block):
        rows, bad = _sampled_rows(model, init, step * np.arange(k0, min(k0 + block, n_rows)))
        if k0 == 0:
            bad[0] = False
        if bad.any():
            cut = int(np.argmax(bad))
            yield k0, rows[:cut], k0 + cut, 0.0
            return
        yield k0, rows, -1, 0.0


def propagate(model: QuadraticHamiltonian, init: MetriplecticState, t_end: float, step: float) -> Trajectory:
    """Exact coupled flow of centre, metric and survival probability on a uniform grid.

    Same grid, row layout (P, Q, g_pp, g_pq, g_qq, n) and truncation as
    ode.integrate, but every row is the closed-form Gaussian solution for the
    packet with b0 = b_from_metric(G0 / sqrt(det G0)) and a real centre: the metric of the
    Möbius image of b0, the expectation values of the complex centre S(t) z0,
    and n0 times the squared norm.  Rows are evaluated BLOCK_ROWS at a
    time (_propagate_blocks), and the run stops at the first divergent
    sample.  Divergent means, as in the RK4 kernel: a non-finite entry, Im b <= 0, a
    Möbius pole, or the largest metric eigenvalue or the centre norm above
    BLOWUP_THRESHOLD.  The initial row is the given state and is never a
    stop.  An initial metric with det <= 0 is refused with ValueError.
    The whole run is held in memory (Trajectory.from_blocks); simulate
    and sweep consume the blocks instead, one at a time.
    """
    return Trajectory.from_blocks(_propagate_blocks(model, init, t_end, step), step_count(t_end, step) + 1, step)
