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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .closed_form import ComplexState, Metric, RealState
from .errors import MobiusPoleError, NonNormalizableError
from .model import OMEGA, QuadraticHamiltonian, SwansonParams, spectral_data, swanson_hamiltonian

__all__ = [
    "GaussianState",
    "ComplexSymplectic",
    "is_normalizable",
    "metric_from_b",
    "b_from_metric",
    "complex_symplectic_flow",
    "evolve_b",
    "riccati_direct",
    "project_expectations",
    "evolve_state",
    "gaussian_norm",
    "eta_action",
    "fourier_action",
    "mapped_dynamics",
    "evaluate_wavefunction",
    "blowup_detected",
]

# Möbius denominators below this (relative) size count as a pole
POLE_TOL = 1e-12


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


@dataclass(frozen=True)
class ComplexSymplectic:
    """Complex 2x2 symplectic matrix S, S^T Omega S = Omega."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("symplectic matrix must be 2x2")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def symplectic_defect(self) -> float:
        m = self.matrix
        return float(np.abs(m.T @ OMEGA @ m - OMEGA).max())

    def mobius(self, b: complex) -> complex:
        """Fractional-linear action on the uncertainty parameter."""
        m = self.matrix
        den = m[1, 0] * b + m[1, 1]
        if abs(den) <= POLE_TOL * max(1.0, abs(b)):
            raise MobiusPoleError("Möbius denominator vanished")
        return (m[0, 0] * b + m[0, 1]) / den

    def __matmul__(self, other: "ComplexSymplectic") -> "ComplexSymplectic":
        return ComplexSymplectic(self.matrix @ other.matrix)


def metric_from_b(b: complex) -> Metric:
    """Unit-determinant covariance metric of a normalizable Gaussian."""
    if not is_normalizable(b):
        raise NonNormalizableError(f"Im(b) must be positive, got {b.imag}")
    im = b.imag
    re = b.real
    return Metric(g_pp=1.0 / im, g_pq=-re / im, g_qq=(re * re + im * im) / im)


def b_from_metric(g: Metric) -> complex:
    """Inverse of metric_from_b; exact round trip on the upper half-plane."""
    return complex(-g.g_pq, 1.0) / g.g_pp


def _hessian_coeffs(model: QuadraticHamiltonian) -> tuple[complex, complex, complex]:
    hc = model.hess_complex
    return complex(hc[0, 0]), complex(hc[0, 1]), complex(hc[1, 1])


def _require_no_linear_terms(model: QuadraticHamiltonian):
    if np.any(model.lin_h != 0.0) or np.any(model.lin_gamma != 0.0):
        raise NotImplementedError("Gaussian flows support purely quadratic models (no linear terms)")


def _flow_entries(model: QuadraticHamiltonian, t):
    """Entries of exp(t * Omega H'') for scalar or array t.

    Omega H'' is traceless, so with mu^2 = det(Omega H'') the exponential is
    cos(mu t) I + sin(mu t)/mu * Omega H''.
    """
    a = OMEGA @ model.hess_complex
    mu = cmath.sqrt(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    t = np.asarray(t)
    arg = mu * t
    c = np.cos(arg)
    if abs(mu) < 1e-150:
        s = t.astype(complex)
    else:
        s = np.sin(arg) / mu
    return c + s * a[0, 0], s * a[0, 1], s * a[1, 0], c + s * a[1, 1]


def complex_symplectic_flow(model: QuadraticHamiltonian, t: float) -> ComplexSymplectic:
    """Flow matrix S(t) of the complexified Hamiltonian equations, S(0) = I."""
    spp, spq, sqp, sqq = _flow_entries(model, float(t))
    return ComplexSymplectic(np.array([[spp, spq], [sqp, sqq]]))


def evolve_b(model: QuadraticHamiltonian, b0: complex, t: float) -> complex:
    """Uncertainty parameter at time t via the Möbius action of S(t)."""
    return complex_symplectic_flow(model, t).mobius(b0)


def riccati_direct(model: QuadraticHamiltonian, b0: complex, t_end: float, step: float) -> np.ndarray:
    """Direct RK4 on the Riccati flow of b, sampled at every step.

    Independent of the Möbius route; used as its cross-check.  Raises
    MobiusPoleError with a step bracket if the solution leaves the chart.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    cpp, cpq, cqq = _hessian_coeffs(model)
    n_steps = max(1, int(round(t_end / step)))
    out = np.empty(n_steps + 1, dtype=complex)
    stop = _kernels.riccati_rk4(cpp, cpq, cqq, complex(b0), step, n_steps, out)
    if stop >= 0:
        raise MobiusPoleError(
            "Riccati solution left the chart",
            bracket=((stop - 1) * step, stop * step),
        )
    return out


def project_expectations(z: ComplexState, b: complex) -> RealState:
    """Real expectation values of a complex-centred normalizable Gaussian."""
    g = metric_from_b(b)
    zv = z.array
    out = zv.real - OMEGA @ g.matrix @ zv.imag
    return RealState(out[0], out[1])


def _sampled_flow(model: QuadraticHamiltonian, z0: np.ndarray, b0: complex, times: np.ndarray):
    """Centre, uncertainty and Möbius denominator on a time grid, with chart checks."""
    spp, spq, sqp, sqq = _flow_entries(model, times)
    den = sqp * b0 + sqq
    small = np.abs(den) <= POLE_TOL * max(1.0, abs(b0))
    if small.any():
        k = int(np.argmax(small))
        lo = times[max(k - 1, 0)]
        hi = times[min(k + 1, len(times) - 1)]
        raise MobiusPoleError("Möbius pole crossed during evolution", bracket=(lo, hi))
    bs = (spp * b0 + spq) / den
    zs = np.empty(times.shape + (2,), dtype=complex)
    zs[..., 0] = spp * z0[0] + spq * z0[1]
    zs[..., 1] = sqp * z0[0] + sqq * z0[1]
    return zs, bs, den


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
    _require_no_linear_terms(model)
    if t == 0.0:
        return state
    if num_nodes < 2:
        raise ValueError("num_nodes must be at least 2")
    times = np.linspace(0.0, t, num_nodes)
    zs, bs, den = _sampled_flow(model, state.z.array, state.b, times)
    if bs.imag.min() <= 0.0:
        k = int(np.argmax(bs.imag <= 0.0))
        raise NonNormalizableError(f"state left the normalizable family near t = {times[k]:.6g}")
    p, q = complex(zs[-1, 0]), complex(zs[-1, 1])
    b = complex(bs[-1])
    log_den = complex(math.log(abs(den[-1])), np.unwrap(np.angle(den))[-1])
    const = model.const_h - 1j * model.const_gamma
    dgamma = (
        0.5 * (p * q - state.z.p * state.z.q)
        + 0.25j * math.log(b.imag / state.b.imag)
        + 0.5j * log_den
        - const * t
    )
    return GaussianState(z=ComplexState(p, q), b=b, gamma=state.gamma + dgamma)


def gaussian_norm(state: GaussianState) -> float:
    """Squared norm of the wave packet from the closed Gaussian integral.

    Includes the damping factor exp(-2 Im gamma) and the cross terms a
    complex centre produces; reduces to 1 for a real centre with gamma = 0.
    """
    b = state.b
    if not is_normalizable(b):
        raise NonNormalizableError(f"Im(b) must be positive, got {b.imag}")
    p, q = state.z.p, state.z.q
    qi, pi = q.imag, p.imag
    expo = (
        -2.0 * state.gamma.imag
        + 2.0 * p.real * qi
        + b.imag * qi * qi
        + (pi - b.real * qi) ** 2 / b.imag
    )
    return math.exp(expo)


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


def blowup_detected(
    model: QuadraticHamiltonian,
    b0,
    t_end: float,
    num_samples: int = 4001,
) -> np.ndarray | bool:
    """Dynamical divergence probe: does the uncertainty flow leave the chart?

    Samples the Möbius flow of b0 (scalar or array) on a uniform grid and
    flags any path whose Im(b) reaches zero, whose magnitude explodes, or
    whose Möbius denominator vanishes.  Purely observational: no analytic
    classification enters, so this can serve as the oracle for one.
    """
    b0 = np.asarray(b0, dtype=complex)
    times = np.linspace(0.0, t_end, num_samples)
    spp, spq, sqp, sqq = _flow_entries(model, times)
    den = np.multiply.outer(sqp, b0) + sqq.reshape(sqq.shape + (1,) * b0.ndim)
    num = np.multiply.outer(spp, b0) + spq.reshape(spq.shape + (1,) * b0.ndim)
    with np.errstate(all="ignore"):
        bs = num / den
        bad = (bs.imag <= 0.0) | ~np.isfinite(bs.real) | ~np.isfinite(bs.imag) | (np.abs(bs) > 1e8)
        bad |= np.abs(den) <= POLE_TOL * np.maximum(1.0, np.abs(b0))
    hit = bad.any(axis=0)
    return bool(hit) if hit.ndim == 0 else hit
