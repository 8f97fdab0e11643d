"""Quadratic Hamiltonian data model and the Swanson oscillator's parameters.

The model family is H - i*Gamma with H and Gamma real quadratic forms on the
phase-space point (p, q), momentum first.  The Swanson oscillator is the
special case H = omega0*(p^2 + q^2)/2, Gamma = delta*p*q, similar to a Hermitian
oscillator of frequency omega; SwansonParams carries omega, theta and ground_b.
"""

from __future__ import annotations

import math

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

# half-width of the classifiers' undecided band, in their comparison variable: the default of
# geometry's classifiers and of the CLI's --band, which the CLI reads without importing geometry
DEFAULT_BAND = 0.02

# smallest flow frequency taken as nonzero: below it exp(t * Omega H'') is the
# free-particle flow, and a Swanson model's squared frequencies underflow
MIN_FREQUENCY = 1e-150


class _Value:
    """Value semantics for a class that declares its fields as annotations, in order, as a dataclass does.

    The constructor takes the fields by position or by name, and one left out takes its class-level
    default.  Instances compare equal when their types and fields are, their repr is the dataclass
    form, and a frozen type (the default; `class C(_Value, frozen=False)` makes a mutable one) hashes
    its tuple of fields and refuses assignment.  A subclass with checks makes them in its own
    __init__.  Nothing is generated when a class is created: the methods below serve every subclass.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments but {len(args)} were given")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in cls._fields:
            if name not in values and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, values[name] if name in values else getattr(cls, name))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SwansonParams(_Value):
    """Model parameters: oscillator frequency omega0 > 0 and gain-loss coupling delta."""

    omega0: float
    delta: float

    def __init__(self, omega0: float, delta: float):
        super().__init__(omega0, delta)
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


class QuadraticHamiltonian(_Value):
    """General complex quadratic Hamiltonian H - i*Gamma without linear terms.

    hess_h / hess_gamma are the (symmetric) Hessians of the Hermitian and
    anti-Hermitian parts in (p, q) ordering; const_* are the constant offsets.
    """

    hess_h: np.ndarray
    hess_gamma: np.ndarray
    const_h: float
    const_gamma: float

    def __init__(self, hess_h, hess_gamma, const_h: float = 0.0, const_gamma: float = 0.0):
        super().__init__(_as_symmetric(hess_h, "hess_h"), _as_symmetric(hess_gamma, "hess_gamma"), const_h, const_gamma)

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
