"""Exact Gaussian wave-packet propagation for complex quadratic Hamiltonians.

A Gaussian stays Gaussian under any quadratic model; the wave function is
parameterized by a complex centre z = (p, q), a complex uncertainty parameter
b (normalizable iff Im b > 0), and a complex phase gamma:

    psi(x) = (Im b / pi)^(1/4) * exp(i*gamma) * exp(i*[p (x-q) + b (x-q)^2 / 2])

The centre follows the complexified Hamiltonian flow z(t) = S(t) z(0); the
uncertainty parameter follows the Möbius action of the same complex
symplectic matrix S(t) (equivalently a scalar Riccati flow); the phase has a
closed form in the same flow (Heller, J. Chem. Phys. 62, 1544 (1975)), whose
only sampled ingredient is the continuous branch of a complex logarithm.

The same closed forms, evaluated on a time grid, solve the classical coupled
flow of centre, metric and survival probability exactly (Graefe & Schubert,
PRA 83, 060101 (2011)): propagate returns it as an ode.Trajectory, and
metric_closed gives the Swanson metric from any initial metric at one time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .closed_form import ComplexState, Metric, RealState, metric_eigen
from .errors import DivergenceError, MobiusPoleError, NonNormalizableError
from .model import MIN_FREQUENCY, QuadraticHamiltonian, SwansonParams, spectral_data, swanson_hamiltonian
from .ode import BLOWUP_THRESHOLD, MetriplecticState, Trajectory, step_count

__all__ = [
    "GaussianState",
    "is_normalizable",
    "metric_from_b",
    "b_from_metric",
    "complex_symplectic_flow",
    "evolve_b",
    "metric_closed",
    "riccati_direct",
    "project_expectations",
    "evolve_state",
    "gaussian_norm",
    "propagate",
    "eta_action",
    "fourier_action",
    "mapped_dynamics",
    "evaluate_wavefunction",
    "blowup_detected",
]

# Möbius denominators below this (relative) size count as a pole
POLE_TOL = 1e-12

# samples per block of propagate; bounds its working memory
PROPAGATE_BLOCK = 2048

# uniform times from 0 to t_end at which blowup_detected samples the Möbius flow
BLOWUP_SAMPLES = 4001


def is_normalizable(b: complex) -> bool:
    return b.imag > 0.0


@dataclass(frozen=True)
class GaussianState:
    """Gaussian wave packet (z, b, gamma); survival probability comes from gaussian_norm."""

    z: ComplexState
    b: complex
    gamma: complex = 0j

    @classmethod
    def coherent(cls, Z: RealState) -> "GaussianState":
        """Standard coherent state (b = i, unit metric) centred at a real point."""
        return cls(z=ComplexState(Z.P + 0j, Z.Q + 0j), b=1j)

    @property
    def normalizable(self) -> bool:
        return is_normalizable(self.b)


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


def complex_symplectic_flow(model: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Flow matrix S(t) of the complexified Hamiltonian equations, S(0) = I, as a complex 2x2 array."""
    spp, spq, sqp, sqq = _flow_entries(model, float(t))
    return np.array([[spp, spq], [sqp, sqq]], dtype=complex)


def evolve_b(model: QuadraticHamiltonian, b0: complex, t: float) -> complex:
    """Uncertainty parameter at time t via the Möbius action of S(t); MobiusPoleError at a pole."""
    spp, spq, sqp, sqq = _flow_entries(model, float(t))
    den = sqp * b0 + sqq
    if abs(den) <= POLE_TOL * max(1.0, abs(b0)):
        raise MobiusPoleError("Möbius denominator vanished")
    return (spp * b0 + spq) / den


def metric_closed(params: SwansonParams, g0: Metric, t: float) -> Metric:
    """Metric at time t for an arbitrary unit-determinant initial metric.

    The metric of the Möbius image of b0 = b_from_metric(g0) (Graefe &
    Schubert, PRA 83, 060101 (2011)).  Raises DivergenceError with .time = t
    at a blow-up time and in the windows between them, where the image is a
    pole or has left the upper half-plane.
    """
    try:
        return metric_from_b(evolve_b(swanson_hamiltonian(params), b_from_metric(g0), t))
    except (MobiusPoleError, NonNormalizableError) as exc:
        raise DivergenceError(f"metric flow diverged: {exc}", time=t) from exc


def riccati_direct(model: QuadraticHamiltonian, b0: complex, t_end: float, step: float) -> np.ndarray:
    """Direct RK4 on the Riccati flow of b, sampled at every step.

    Independent of the Möbius route; used as its cross-check.  Raises
    MobiusPoleError with a step bracket if the solution leaves the chart.
    """
    cpp, cpq, cqq = _hessian_coeffs(model)
    n_steps = step_count(t_end, step)
    out = np.empty(n_steps + 1, dtype=complex)
    stop = _kernels.riccati_rk4(cpp, cpq, cqq, complex(b0), step, n_steps, out)
    if stop >= 0:
        raise MobiusPoleError(
            "Riccati solution left the chart",
            bracket=((stop - 1) * step, stop * step),
        )
    return out


def _centre(p, q, g_pp, g_pq, g_qq):
    """Real expectation values Re z - Omega G Im z of a complex centre z = (p, q); scalars or arrays."""
    return p.real + g_pq * p.imag + g_qq * q.imag, q.real - g_pp * p.imag - g_pq * q.imag


def project_expectations(z: ComplexState, b: complex) -> RealState:
    """Real expectation values of a complex-centred normalizable Gaussian."""
    g = metric_from_b(b)
    return RealState(*_centre(z.p, z.q, g.g_pp, g.g_pq, g.g_qq))


def _sampled_flow(model: QuadraticHamiltonian, z0, b0: complex, times: np.ndarray):
    """Centre (p, q), uncertainty b and Möbius denominator S_qp b0 + S_qq on a time grid; no chart checks."""
    spp, spq, sqp, sqq = _flow_entries(model, times)
    den = sqp * b0 + sqq
    return spp * z0[0] + spq * z0[1], sqp * z0[0] + sqq * z0[1], (spp * b0 + spq) / den, den


def _unwrapped_angle(den: np.ndarray) -> np.ndarray:
    """Arguments of den sampled along a path from t = 0, continuous from the argument 0 of den(0) = 1."""
    return np.unwrap(np.concatenate(([0.0], np.angle(den))))[1:]


def _phase_change(pq_change, log_im_ratio, log_den, const, t):
    """Closed-form gamma(t) - gamma(0) from its ingredients; scalars or arrays (see evolve_state).

    pq_change = p q - p0 q0, log_im_ratio = ln(Im b / Im b0), and log_den is
    Log den on its continuous branch; its real part ln|den| alone gives the
    right Im gamma.
    """
    return 0.5 * pq_change + 0.25j * log_im_ratio + 0.5j * log_den - const * t


def _norm_exponent(p, q, b, gamma):
    """Logarithm of the squared norm of the packet (p, q, b, gamma); scalars or arrays."""
    qi, pi = q.imag, p.imag
    return -2.0 * gamma.imag + 2.0 * p.real * qi + b.imag * qi * qi + (pi - b.real * qi) ** 2 / b.imag


def evolve_state(
    model: QuadraticHamiltonian,
    state: GaussianState,
    t: float,
    num_nodes: int = 2001,
) -> GaussianState:
    """Propagate a full Gaussian state (centre, uncertainty, phase) to time t.

    All three evolve in closed form.  For a homogeneous quadratic H,
    p qdot - H = d(pq)/dt / 2, and with den = S_qp b0 + S_qq and (cpp, cpq)
    the first row of the complex Hessian, cpp b + cpq = d ln(den)/dt.  So

        gamma(t) - gamma(0) = [p q]/2 + (i/4) ln(Im b / Im b0) + (i/2) Log den - c t

    with c = const_h - i const_gamma.  num_nodes sets the uniform grid on
    [0, t] on which the path is checked to stay normalizable and clear of
    Möbius poles, and along which Log den is kept on its continuous branch;
    it must resolve every half-turn of den.
    """
    if t == 0.0:
        return state
    if num_nodes < 2:
        raise ValueError("num_nodes must be at least 2")
    times = np.linspace(0.0, t, num_nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        ps, qs, bs, den = _sampled_flow(model, (state.z.p, state.z.q), state.b, times)
    small = np.abs(den) <= POLE_TOL * max(1.0, abs(state.b))
    if small.any():
        k = int(np.argmax(small))
        lo = times[max(k - 1, 0)]
        hi = times[min(k + 1, len(times) - 1)]
        raise MobiusPoleError("Möbius pole crossed during evolution", bracket=(lo, hi))
    if bs.imag.min() <= 0.0:
        k = int(np.argmax(bs.imag <= 0.0))
        raise NonNormalizableError(f"state left the normalizable family near t = {times[k]:.6g}")
    p, q = complex(ps[-1]), complex(qs[-1])
    b = complex(bs[-1])
    log_den = complex(math.log(abs(den[-1])), _unwrapped_angle(den)[-1])
    const = model.const_h - 1j * model.const_gamma
    dgamma = _phase_change(p * q - state.z.p * state.z.q, math.log(b.imag / state.b.imag), log_den, const, t)
    return GaussianState(z=ComplexState(p, q), b=b, gamma=state.gamma + dgamma)


def gaussian_norm(state: GaussianState) -> float:
    """Squared norm of the wave packet from the closed Gaussian integral.

    Includes the damping factor exp(-2 Im gamma) and the cross terms a
    complex centre produces; reduces to 1 for a real centre with gamma = 0.
    """
    if not state.normalizable:
        raise NonNormalizableError(f"Im(b) must be positive, got {state.b.imag}")
    return math.exp(_norm_exponent(state.z.p, state.z.q, state.b, state.gamma))


def propagate(model: QuadraticHamiltonian, init: MetriplecticState, t_end: float, step: float) -> Trajectory:
    """Exact coupled flow of centre, metric and survival probability on a uniform grid.

    Same grid, row layout (P, Q, g_pp, g_pq, g_qq, n) and truncation as
    ode.integrate, but every row is the closed-form Gaussian solution for the
    packet with b0 = b_from_metric(G0 / sqrt(det G0)) and a real centre: the metric of the
    Möbius image of b0, the expectation values of the complex centre S(t) z0,
    and n0 times the squared norm.  Rows are evaluated PROPAGATE_BLOCK at a
    time, and the run stops at the first block holding a divergent sample.
    Divergent means, as in the RK4 kernel: a non-finite entry, Im b <= 0, a
    Möbius pole, or the largest metric eigenvalue or the centre norm above
    BLOWUP_THRESHOLD.  The initial row is the given state and is never a
    stop.  An initial metric with det <= 0 is refused with ValueError.
    """
    b0 = b_from_metric(init.G.normalized())
    n_steps = step_count(t_end, step)
    out = np.empty((n_steps + 1, 6))
    p0, q0 = init.Z.P, init.Z.Q
    pole_tol = POLE_TOL * max(1.0, abs(b0))
    const = model.const_h - 1j * model.const_gamma
    with np.errstate(all="ignore"):
        for k0 in range(0, n_steps + 1, PROPAGATE_BLOCK):
            times = step * np.arange(k0, min(k0 + PROPAGATE_BLOCK, n_steps + 1))
            p, q, b, den = _sampled_flow(model, (p0, q0), b0, times)
            abs_den = np.abs(den)
            # only Im gamma reaches a row (through n), and it takes Re Log den = ln|den|:
            # the branch of arg den is not needed
            gamma = _phase_change(p * q - p0 * q0, np.log(b.imag / b0.imag), np.log(abs_den), const, times)
            g_pp, g_pq, g_qq = _metric_entries(b)
            rows = out[k0 : k0 + len(times)]
            rows[:, 0], rows[:, 1] = _centre(p, q, g_pp, g_pq, g_qq)
            rows[:, 2] = g_pp
            rows[:, 3] = g_pq
            rows[:, 4] = g_qq
            rows[:, 5] = init.n * np.exp(_norm_exponent(p, q, b, gamma))
            bad = (
                (b.imag <= 0.0)
                | (abs_den <= pole_tol)
                | ~np.isfinite(rows).all(axis=1)
                | (metric_eigen(g_pp, g_pq, g_qq)[0] > BLOWUP_THRESHOLD)
                | (np.hypot(rows[:, 0], rows[:, 1]) > BLOWUP_THRESHOLD)
            )
            if k0 == 0:
                bad[0] = False
            if bad.any():
                return Trajectory.from_samples(out, k0 + int(np.argmax(bad)), step)
    return Trajectory.from_samples(out, -1, step)


def _generator_model(m_pp: complex, m_qq: complex, m_pq: complex) -> QuadraticHamiltonian:
    """Quadratic model whose unit-time evolution realizes exp(-i/2 (m_pp p^2 + m_qq q^2 + m_pq (pq+qp)))."""
    mat = np.array([[m_pp, m_pq], [m_pq, m_qq]], dtype=complex)
    return QuadraticHamiltonian(hess_h=mat.real, hess_gamma=-mat.imag)


def eta_action(
    m_pp: complex,
    m_qq: complex,
    m_pq: complex,
    state: GaussianState,
) -> GaussianState:
    """Apply the similarity map generated by the quadratic exponent (m_pp, m_qq, m_pq).

    Interpreted as evolution under the corresponding complex quadratic model
    from time zero to time one: Möbius action on b, linear action on the
    centre, closed form for the phase.
    """
    return evolve_state(_generator_model(m_pp, m_qq, m_pq), state, 1.0)


def fourier_action(state: GaussianState) -> GaussianState:
    """Quarter rotation (p, q) -> (-q, p); sends b to -1/b."""
    return eta_action(0.5 * math.pi, 0.5 * math.pi, 0.0, state)


def mapped_dynamics(
    params: SwansonParams,
    state: GaussianState,
    t: float,
) -> GaussianState:
    """Evolve by conjugating a Hermitian rotation with the similarity map.

    Composition (map) o (rotation by omega*t) o (inverse map); equals the
    direct evolution wherever every stage stays inside the chart, and is
    periodic with the Hermitian period regardless of divergences in between.
    """
    theta = spectral_data(params).theta
    hermitian = QuadraticHamiltonian(
        hess_h=params.omega * np.eye(2),
        hess_gamma=np.zeros((2, 2)),
    )
    unmapped = eta_action(1j * theta, -1j * theta, 0.0, state)
    rotated = evolve_state(hermitian, unmapped, t)
    return eta_action(-1j * theta, 1j * theta, 0.0, rotated)


def evaluate_wavefunction(state: GaussianState, x) -> np.ndarray:
    """Wave function on a position grid; principal branch of the quarter power.

    Non-normalizable states are evaluable pointwise (the prefactor is then
    genuinely complex), which is what divergence studies need.
    """
    x = np.asarray(x, dtype=float)
    pref = np.power(complex(state.b.imag) / math.pi, 0.25)
    u = x - state.z.q
    return pref * np.exp(1j * state.gamma) * np.exp(1j * (state.z.p * u + 0.5 * state.b * u * u))


def blowup_detected(model: QuadraticHamiltonian, b0, t_end: float) -> np.ndarray | bool:
    """Dynamical divergence probe: does the uncertainty flow leave the chart?

    Samples the Möbius flow of b0 (scalar or array) on BLOWUP_SAMPLES uniform times and
    flags any path whose Im(b) reaches zero, whose magnitude explodes, or
    whose Möbius denominator vanishes.  Purely observational: no analytic
    classification enters, so this can serve as the oracle for one.
    """
    b0 = np.asarray(b0, dtype=complex)
    times = np.linspace(0.0, t_end, BLOWUP_SAMPLES)
    spp, spq, sqp, sqq = _flow_entries(model, times)
    den = np.multiply.outer(sqp, b0) + sqq.reshape(sqq.shape + (1,) * b0.ndim)
    num = np.multiply.outer(spp, b0) + spq.reshape(spq.shape + (1,) * b0.ndim)
    with np.errstate(all="ignore"):
        bs = num / den
        bad = (bs.imag <= 0.0) | ~np.isfinite(bs.real) | ~np.isfinite(bs.imag) | (np.abs(bs) > 1e8)
        bad |= np.abs(den) <= POLE_TOL * np.maximum(1.0, np.abs(b0))
    hit = bad.any(axis=0)
    return bool(hit) if hit.ndim == 0 else hit
