"""Quadratic Hamiltonian data model and Swanson-oscillator spectral quantities.

The model family is H - i*Gamma with H and Gamma real quadratic forms on the
phase-space point (p, q), momentum first.  The Swanson oscillator is the
special case H = omega0*(p^2 + q^2)/2, Gamma = delta*p*q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OMEGA",
    "SwansonParams",
    "QuadraticHamiltonian",
    "SpectralData",
    "swanson_hamiltonian",
    "normalize_swanson",
    "spectral_data",
    "eigenvalue",
    "doubled_generator",
]

# standard symplectic unit on (p, q)
OMEGA = np.array([[0.0, -1.0], [1.0, 0.0]])
OMEGA.setflags(write=False)

# smallest flow frequency taken as nonzero: below it exp(t * Omega H'') is the
# free-particle flow, and a Swanson model's squared frequencies underflow
MIN_FREQUENCY = 1e-150


@dataclass(frozen=True)
class SwansonParams:
    """Model parameters: oscillator frequency omega0 > 0 and gain-loss coupling delta."""

    omega0: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.omega0) and math.isfinite(self.delta)):
            raise ValueError("parameters must be finite")
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        # the flow's mu^2 is omega^2; past omega ~ 1.3e154 it is inf and every sample turns to NaN
        if not math.isfinite(self.omega * self.omega):
            raise ValueError(
                f"omega0 {self.omega0:g} with delta {self.delta:g} gives a period of {self.period:.3g}, "
                "too short for its squared frequency to be a finite double"
            )
        if not self.omega >= MIN_FREQUENCY:
            raise ValueError(
                f"omega0 {self.omega0:g} with delta {self.delta:g} gives a frequency of {self.omega:.3g}, "
                f"below the smallest supported frequency {MIN_FREQUENCY:g}"
            )

    @property
    def omega(self) -> float:
        """Oscillation frequency sqrt(omega0^2 + delta^2) of all bounded dynamics."""
        return math.hypot(self.omega0, self.delta)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega


def _as_symmetric(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"{name} must be a 2x2 matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    if abs(a[0, 1] - a[1, 0]) > 1e-12 * max(1.0, np.abs(a).max()):
        raise ValueError(f"{name} must be symmetric (Weyl symmetrization)")
    a = 0.5 * (a + a.T)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """General complex quadratic Hamiltonian H - i*Gamma without linear terms.

    hess_h / hess_gamma are the (symmetric) Hessians of the Hermitian and
    anti-Hermitian parts in (p, q) ordering; const_* are the constant offsets.
    """

    hess_h: np.ndarray
    hess_gamma: np.ndarray
    const_h: float = 0.0
    const_gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hess_h", _as_symmetric(self.hess_h, "hess_h"))
        object.__setattr__(self, "hess_gamma", _as_symmetric(self.hess_gamma, "hess_gamma"))

    @property
    def hess_complex(self) -> np.ndarray:
        """Hessian of the full complex Hamiltonian, hess_h - i*hess_gamma."""
        return self.hess_h - 1j * self.hess_gamma

    def complex_value(self, z) -> complex:
        """Evaluate H - i*Gamma at a (possibly complex) phase-space point."""
        z = np.asarray(z)
        c = self.const_h - 1j * self.const_gamma
        return complex(0.5 * z @ self.hess_complex @ z + c)


@dataclass(frozen=True)
class SpectralData:
    """Static quantities derived from Swanson parameters.

    omega: eigenfrequency; theta: rotation parameter of the similarity map to
    the Hermitian oscillator (principal branch, |theta| < pi/4); ground_b:
    uncertainty parameter of the ground state; davies_deformation: the unit
    modulus deformation relating the model to the complex-frequency oscillator
    p^2/2 + xi^4 q^2/2; delta_crit: coupling above which identity-seeded
    dynamics diverges.
    """

    omega: float
    theta: float
    delta_crit: float
    ground_b: complex
    davies_deformation: complex


def swanson_hamiltonian(params: SwansonParams) -> QuadraticHamiltonian:
    """Quadratic model with hess_h = omega0*I and hess_gamma = delta off-diagonal."""
    w0, d = params.omega0, params.delta
    return QuadraticHamiltonian(
        hess_h=np.array([[w0, 0.0], [0.0, w0]]),
        hess_gamma=np.array([[0.0, d], [d, 0.0]]),
    )


def normalize_swanson(a: float, b: float, delta: float) -> SwansonParams:
    """Reduce the two-coefficient oscillator a*p^2/2 + b*q^2/2 - i*delta*p*q to standard form.

    Valid only for sgn(a) == sgn(b); the equivalent frequency is
    sgn(a)*sqrt(a*b), which must come out positive.
    """
    if a == 0.0 or b == 0.0 or math.copysign(1.0, a) != math.copysign(1.0, b):
        raise ValueError("normalization requires sgn(a) == sgn(b) with a, b nonzero")
    omega0 = math.copysign(math.sqrt(a * b), a)
    if omega0 <= 0:
        raise ValueError("normalized omega0 must be positive; negative-sign pairs are unsupported")
    return SwansonParams(omega0=omega0, delta=delta)


def spectral_data(params: SwansonParams) -> SpectralData:
    w0, d = params.omega0, params.delta
    omega = params.omega
    # principal branch: tan(2*theta) = -delta/omega0 with theta in (-pi/4, pi/4)
    theta = -0.5 * math.atan(d / w0)
    ground_b = 1j * w0 / (omega - d)
    xi4 = (omega + 1j * d) / (omega - 1j * d)
    return SpectralData(
        omega=omega,
        theta=theta,
        delta_crit=w0,
        ground_b=ground_b,
        davies_deformation=xi4,
    )


def eigenvalue(params: SwansonParams, n: int) -> float:
    """Real eigenvalue omega*(n + 1/2) of the n-th level."""
    if n < 0 or int(n) != n:
        raise ValueError("level index must be a nonnegative integer")
    return params.omega * (n + 0.5)


def doubled_generator(model: QuadraticHamiltonian) -> np.ndarray:
    """4x4 generator of the doubled-phase-space flow driving the metric evolution."""
    hh = model.hess_h
    gg = model.hess_gamma
    gg_om = OMEGA.T @ gg @ OMEGA
    k = np.block([[gg_om, OMEGA @ hh], [-hh @ OMEGA, -gg]])
    om4 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    return om4 @ k
