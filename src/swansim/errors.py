"""Exception types shared across the package."""

__all__ = [
    "SwansimError",
    "DivergenceError",
    "MobiusPoleError",
    "NonNormalizableError",
]


class SwansimError(Exception):
    """Base class for all swansim errors."""


class DivergenceError(SwansimError):
    """A phase-space quantity blew up in finite time."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class MobiusPoleError(SwansimError):
    """The Möbius denominator vanished: the state left the uncertainty chart."""

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        # time interval bracketing the pole, when detected on a grid; a fixed-step
        # integrator lags the pole, so its bracket reaches one step further back
        self.bracket = bracket


class NonNormalizableError(SwansimError):
    """Operation requires Im(b) > 0 but the state is not normalizable."""
