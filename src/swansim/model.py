"""Quadratic Hamiltonian data model and the Swanson oscillator's parameters.

The model family is H - i*Gamma with H and Gamma real quadratic forms on the
phase-space point (p, q), momentum first.  The Swanson oscillator is the
special case H = omega0*(p^2 + q^2)/2, Gamma = delta*p*q, similar to a Hermitian
oscillator of frequency omega; SwansonParams carries omega, theta and ground_b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OMEGA",
    "SwansonParams",
    "QuadraticHamiltonian",
    "swanson_hamiltonian",
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

    @property
    def theta(self) -> float:
        """Similarity-map angle to the Hermitian oscillator: tan(2*theta) = -delta/omega0, |theta| < pi/4."""
        return -0.5 * math.atan(self.delta / self.omega0)

    @property
    def ground_b(self) -> complex:
        """Uncertainty b of the ground state, the stationary root of the width equation; ValueError past the doubles."""
        w0, d = self.omega0, self.delta
        # (omega - delta)(omega + delta) = omega0^2; past delta = omega0 the difference cancels, the sum does not
        im = (self.omega + d) / w0 if d > w0 else w0 / (self.omega - d)
        if not 0.0 < im < math.inf:
            raise ValueError(f"omega0 {w0:g} with delta {d:g} gives a ground state Im b of {im:g}, not normalizable")
        return 1j * im


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


def swanson_hamiltonian(params: SwansonParams) -> QuadraticHamiltonian:
    """Quadratic model with hess_h = omega0*I and hess_gamma = delta off-diagonal."""
    w0, d = params.omega0, params.delta
    return QuadraticHamiltonian(
        hess_h=np.array([[w0, 0.0], [0.0, w0]]),
        hess_gamma=np.array([[0.0, d], [d, 0.0]]),
    )


def doubled_generator(model: QuadraticHamiltonian) -> np.ndarray:
    """4x4 generator of the doubled-phase-space flow driving the metric evolution."""
    hh = model.hess_h
    gg = model.hess_gamma
    gg_om = OMEGA.T @ gg @ OMEGA
    k = np.block([[gg_om, OMEGA @ hh], [-hh @ OMEGA, -gg]])
    om4 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    return om4 @ k
