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

The flow S(t), the metric of b, the centre's projection, the phase and the
norm are propagator's, which evaluates them on a time grid as the exact
solution of the classical coupled flow (propagator.propagate).  This module
keeps the routes of the wave packet itself, which only validate and the
tests run: the Möbius map of b at one time (evolve_b, and metric_closed, the
Swanson metric from any initial metric at one time), the Riccati RK4 oracle,
the state at t (evolve_state), the η maps and the conjugated route, and the
sampled divergence probe blowup_detected.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_form import ComplexState, Metric, RealState
from .errors import DivergenceError, MobiusPoleError, NonNormalizableError
from .model import QuadraticHamiltonian, SwansonParams, _Value, swanson_hamiltonian
from .propagator import (
    _at_pole,
    _centre,
    _flow_entries,
    _hessian_coeffs,
    _norm_exponent,
    _phase_change,
    _sampled_flow,
    b_from_metric,
    is_normalizable,
    metric_from_b,
    step_count,
)

__all__ = [
    "GaussianState",
    "evolve_b",
    "metric_closed",
    "riccati_direct",
    "project_expectations",
    "evolve_state",
    "gaussian_norm",
    "eta_action",
    "mapped_dynamics",
    "evaluate_wavefunction",
    "blowup_detected",
]

# uniform times from 0 to t_end at which blowup_detected samples the Möbius flow
BLOWUP_SAMPLES = 4001


class GaussianState(_Value):
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


def evolve_b(model: QuadraticHamiltonian, b0: complex, t: float) -> complex:
    """Uncertainty parameter at time t via the Möbius action of S(t); MobiusPoleError at a pole."""
    spp, spq, sqp, sqq = _flow_entries(model, float(t))
    den = sqp * b0 + sqq
    if _at_pole(den, b0):
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


def _riccati_steps(model: QuadraticHamiltonian, b0: complex, t_end: float, step: float):
    """Direct RK4 on the Riccati flow b' = -(cpp b^2 + 2 cpq b + cqq), one step at a time.

    Yields the solution, a Python complex, at steps 0 .. step_count(t_end,
    step), with step 0 = b0.  The loop runs on Python complex numbers held
    in locals.  A Python loop yields steps, and blocks exist only where
    numpy takes them whole; validate keeps one step in a hundred of this
    one.  Raises MobiusPoleError when the solution first leaves the chart
    (|b| > 1e12 or non-finite), at step k, with the bracket ((k - 2) step,
    k step), cut at 0: fixed-step RK4 lags the pole, so step k alone can
    begin just after it.
    """
    cpp, cpq, cqq = _hessian_coeffs(model)
    # (2.0 * cpq) * b is 2.0 * cpq * b, since products group left to right
    cpq2, half, sixth = 2.0 * cpq, 0.5 * step, step / 6.0
    b = complex(b0)
    yield b
    for k in range(1, step_count(t_end, step) + 1):
        k1 = -(cpp * b * b + cpq2 * b + cqq)
        b2 = b + half * k1
        k2 = -(cpp * b2 * b2 + cpq2 * b2 + cqq)
        b3 = b + half * k2
        k3 = -(cpp * b3 * b3 + cpq2 * b3 + cqq)
        b4 = b + step * k3
        k4 = -(cpp * b4 * b4 + cpq2 * b4 + cqq)
        b = b + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not abs(b) <= 1e12:  # a NaN fails the comparison, and abs(b) is inf when a part is
            raise MobiusPoleError("Riccati solution left the chart", bracket=(max(k - 2, 0) * step, k * step))
        yield b


def riccati_direct(model: QuadraticHamiltonian, b0: complex, t_end: float, step: float) -> np.ndarray:
    """Direct RK4 on the Riccati flow b' = -(cpp b^2 + 2 cpq b + cqq), sampled at every step.

    Independent of the Möbius route; used as its cross-check.  The steps of
    _riccati_steps, collected into one array; MobiusPoleError, with its
    bracket, when the solution leaves the chart.  The whole run is held in
    memory; validate takes only its strided steps from the stream instead.
    """
    return np.fromiter(_riccati_steps(model, b0, t_end, step), complex)


def project_expectations(z: ComplexState, b: complex) -> RealState:
    """Real expectation values of a complex-centred normalizable Gaussian."""
    g = metric_from_b(b)
    return RealState(*_centre(z.p, z.q, g.g_pp, g.g_pq, g.g_qq))


def _unwrapped_angle(den: np.ndarray) -> np.ndarray:
    """Arguments of den sampled along a path from t = 0, continuous from the argument 0 of den(0) = 1."""
    return np.unwrap(np.concatenate(([0.0], np.angle(den))))[1:]


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
    small = _at_pole(den, state.b)
    if small.any():
        k = int(np.argmax(small))
        lo = float(times[max(k - 1, 0)])
        hi = float(times[min(k + 1, len(times) - 1)])
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


def _generator_model(m_pp: complex, m_qq: complex) -> QuadraticHamiltonian:
    """Quadratic model whose unit-time evolution realizes exp(-i/2 (m_pp p^2 + m_qq q^2))."""
    mat = np.array([[m_pp, 0.0], [0.0, m_qq]], dtype=complex)
    return QuadraticHamiltonian(hess_h=mat.real, hess_gamma=-mat.imag)


def eta_action(m_pp: complex, m_qq: complex, state: GaussianState) -> GaussianState:
    """Apply the similarity map generated by the quadratic exponent (m_pp, m_qq).

    Interpreted as evolution under the complex quadratic model
    (m_pp p^2 + m_qq q^2)/2 from time zero to time one: Möbius action on b,
    linear action on the centre, closed form for the phase.  m_pp = m_qq =
    pi/2 is the quarter rotation (p, q) -> (-q, p), which sends b to -1/b.
    """
    return evolve_state(_generator_model(m_pp, m_qq), state, 1.0)


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
    theta = params.theta
    hermitian = QuadraticHamiltonian(
        hess_h=params.omega * np.eye(2),
        hess_gamma=np.zeros((2, 2)),
    )
    unmapped = eta_action(1j * theta, -1j * theta, state)
    rotated = evolve_state(hermitian, unmapped, t)
    return eta_action(-1j * theta, 1j * theta, rotated)


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
    # one time per leading index, broadcast against b0
    spp, spq, sqp, sqq = _flow_entries(model, times.reshape(times.shape + (1,) * b0.ndim))
    den = sqp * b0 + sqq
    num = spp * b0 + spq
    with np.errstate(all="ignore"):
        bs = num / den
        bad = (bs.imag <= 0.0) | ~np.isfinite(bs.real) | ~np.isfinite(bs.imag) | (np.abs(bs) > 1e8)
        bad |= _at_pole(den, b0)
    hit = bad.any(axis=0)
    return bool(hit) if hit.ndim == 0 else hit
