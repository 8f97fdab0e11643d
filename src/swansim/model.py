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
    "spectral_data",
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


@dataclass(frozen=True)
class SpectralData:
    """Static quantities derived from Swanson parameters.

    theta: rotation parameter of the similarity map to the Hermitian
    oscillator (principal branch, |theta| < pi/4), read by
    gaussian.mapped_dynamics; ground_b: uncertainty parameter of the ground
    state.  The eigenfrequency is SwansonParams.omega.
    """

    theta: float
    ground_b: complex


def swanson_hamiltonian(params: SwansonParams) -> QuadraticHamiltonian:
    """Quadratic model with hess_h = omega0*I and hess_gamma = delta off-diagonal."""
    w0, d = params.omega0, params.delta
    return QuadraticHamiltonian(
        hess_h=np.array([[w0, 0.0], [0.0, w0]]),
        hess_gamma=np.array([[0.0, d], [d, 0.0]]),
    )


def spectral_data(params: SwansonParams) -> SpectralData:
    w0, d = params.omega0, params.delta
    # principal branch: tan(2*theta) = -delta/omega0 with theta in (-pi/4, pi/4)
    return SpectralData(theta=-0.5 * math.atan(d / w0), ground_b=1j * w0 / (params.omega - d))


def doubled_generator(model: QuadraticHamiltonian) -> np.ndarray:
    """4x4 generator of the doubled-phase-space flow driving the metric evolution."""
    hh = model.hess_h
    gg = model.hess_gamma
    gg_om = OMEGA.T @ gg @ OMEGA
    k = np.block([[gg_om, OMEGA @ hh], [-hh @ OMEGA, -gg]])
    om4 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    return om4 @ k
