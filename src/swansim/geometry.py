"""Hyperboloid picture of the metric flow and divergence classification.

A unit-determinant metric maps to a point (x, y, z) on the upper sheet of the
hyperboloid z^2 - x^2 - y^2 = 1; the metric flow stays on a plane through
that point: an ellipse (bounded) when the plane's slope is below one, a
hyperbola (divergent) above.  One rule labels, the margin of b (_b_margin):
classify_b, region_grid, and classify_metric by the b of its metric.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonNormalizableError
from .model import DEFAULT_BAND, SwansonParams, _Value

if TYPE_CHECKING:
    from .closed_form import Metric

__all__ = [
    "DEFAULT_BAND",
    "HyperboloidPoint",
    "RegionLabel",
    "xyz_from_metric",
    "xyz_rhs",
    "plane_slope",
    "classify_metric",
    "classify_b",
    "grid_axes",
    "region_grid",
]

# grid rows whose codes _grid_blocks computes at once: at the largest grid the CLI accepts (3162
# columns) a block's float64 temporaries take 101 KB, under glibc malloc's 128 KB mmap threshold,
# where 8 rows map and unmap each one (31 000 page faults at 3162^2 where 4 rows take 4 800)
_GRID_BLOCK_ROWS = 4


class RegionLabel(Enum):
    BOUNDED = "bounded"
    DIVERGENT = "divergent"
    BOUNDARY = "boundary"


class HyperboloidPoint(_Value):
    """Point on z^2 - x^2 - y^2 = 1 with z > 0, representing a metric."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float):
        super().__init__(x, y, z)
        if self.z <= 0:
            raise ValueError("hyperboloid point must lie on the upper sheet (z > 0)")


def xyz_from_metric(g: Metric) -> HyperboloidPoint:
    return HyperboloidPoint(
        x=0.5 * (g.g_qq - g.g_pp),
        y=g.g_pq,
        z=0.5 * (g.g_pp + g.g_qq),
    )


def xyz_rhs(params: SwansonParams, pt: HyperboloidPoint) -> np.ndarray:
    """Velocity of the metric flow in hyperboloid coordinates; tangent to the sheet."""
    w0, d = params.omega0, params.delta
    return np.array(
        [
            2.0 * pt.y * (w0 + d * pt.x),
            -2.0 * w0 * pt.x + 2.0 * d * (1.0 + pt.y * pt.y),
            2.0 * d * pt.y * pt.z,
        ]
    )


def plane_slope(params: SwansonParams, pt0: HyperboloidPoint) -> float:
    """Slope of the conserved plane through the initial point.

    |slope| < 1 cuts the hyperboloid in an ellipse (bounded flow), > 1 in a
    hyperbola (finite-time divergence).  A vertical plane has slope inf: it
    too cuts a hyperbola.
    """
    den = params.omega0 + params.delta * pt0.x
    if abs(den) <= 1e-12 * max(1.0, abs(params.delta * pt0.x)):
        return math.inf
    return params.delta * pt0.z / den


def _require_band(band: float):
    if not (math.isfinite(band) and band > 0):
        raise ValueError(f"band must be finite and positive, got {band}")


def _label_codes(margin, band: float) -> np.ndarray:
    """Codes into list(RegionLabel): bounded above band, divergent below -band, boundary otherwise (NaN included).

    A scalar margin gives a 0-d array, which indexes list(RegionLabel) to a single label.
    """
    codes = np.full(np.shape(margin), 2, dtype=np.int8)
    codes[margin > band] = 0
    codes[margin < -band] = 1
    return codes


def _b_margin(params: SwansonParams, re, im):
    """How far b = re + i*im lies inside the bounded region (negative outside); scalars or arrays.

    delta > 0: im - delta/omega0, the half-plane Im b > delta/omega0;
    delta < 0: radius - |b - i*radius| with radius = omega0/(2|delta|), the
    disk tangent to the real axis at 0; delta = 0: inf, bounded everywhere.
    The result broadcasts against re and im but need not have their full shape.
    """
    d = params.delta
    if d == 0.0:
        return math.inf
    if d > 0.0:
        return im - d / params.omega0
    # radius - |b - i*radius| = (2*radius*im - |b|^2) / (radius + |b - i*radius|)
    # without the cancellation of a large radius; numerator and denominator are
    # divided by max(1, radius), so neither overflows when radius or 1/radius does
    a = min(1.0, 2.0 * abs(d) / params.omega0)
    c = min(1.0, params.omega0 / (2.0 * abs(d)))
    # np.hypot on scalars too, so that classify_b and region_grid round alike
    # (math.hypot is not the C hypot); |b|^2 may overflow far outside the disk,
    # where -inf is the right margin
    with np.errstate(over="ignore", invalid="ignore"):
        return (2.0 * c * im - a * (re * re + im * im)) / (c + np.hypot(a * re, c - a * im))


def classify_metric(params: SwansonParams, g0: Metric, band: float = DEFAULT_BAND) -> RegionLabel:
    """classify_b's label of the uncertainty parameter of g0, rescaled to unit determinant."""
    # imported here, so that classify, which imports this module, does not compile the propagator
    from .propagator import b_from_metric

    return classify_b(params, b_from_metric(g0.normalized()), band)


def classify_b(params: SwansonParams, b0: complex, band: float = DEFAULT_BAND) -> RegionLabel:
    """Bounded/divergent/boundary for an initial Gaussian uncertainty parameter.

    For positive coupling the bounded region is the half-plane
    Im(b) > delta/omega0; for negative coupling it is the interior of the
    circle |b + i*omega0/(2*delta)| = omega0/(2|delta|); everything is
    bounded in the Hermitian limit.  classify_metric and region_grid label by
    the same margin (_b_margin).
    """
    # imported here, so that classify, which imports this module, does not compile the propagator
    from .propagator import is_normalizable

    _require_band(band)
    if not is_normalizable(b0):
        raise NonNormalizableError(f"Im(b) must be positive, got {b0.imag}")
    return list(RegionLabel)[_label_codes(_b_margin(params, b0.real, b0.imag), band)]


def grid_axes(re_range: tuple[float, float], im_range: tuple[float, float], resolution: int):
    """Sample axes for a rectangular classification grid; read by _grid_blocks and perfbench's classify oracle."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    re_lo, re_hi = re_range
    im_lo, im_hi = im_range
    # a non-finite width would fill the axes with inf and NaN
    if not (im_lo > 0.0 and im_hi > im_lo and math.isfinite(im_hi - im_lo)):
        raise ValueError("im_range must be finite, lie in the upper half-plane and be increasing")
    if not (re_hi > re_lo and math.isfinite(re_hi - re_lo)):
        raise ValueError("re_range must be finite and increasing")
    return np.linspace(re_lo, re_hi, resolution), np.linspace(im_lo, im_hi, resolution)


def _grid_blocks(
    params: SwansonParams,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    resolution: int,
    band: float = DEFAULT_BAND,
):
    """region_grid's codes, _GRID_BLOCK_ROWS rows at a time from the lowest Im(b); ValueError, raised
    at the call, for a band or axes region_grid refuses."""
    _require_band(band)
    re_vals, im_vals = grid_axes(re_range, im_range, resolution)
    # the margin of delta < 0 is a block of float64 temporaries; a block of rows bounds them
    rows = (im_vals[lo : lo + _GRID_BLOCK_ROWS, None] for lo in range(0, resolution, _GRID_BLOCK_ROWS))
    return (_label_codes(np.broadcast_to(_b_margin(params, re_vals, im), (len(im), resolution)), band) for im in rows)


def region_grid(
    params: SwansonParams,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    resolution: int,
    band: float = DEFAULT_BAND,
) -> np.ndarray:
    """Classification codes on a rectangular grid of initial b values.

    Returns an int8 array with shape (resolution, resolution); code k stands
    for list(RegionLabel)[k] (0 bounded, 1 divergent, 2 boundary).  Rows run
    over ascending Im(b), columns over ascending Re(b).  The code of every
    point is that of classify_b's label, from array evaluations of the same
    margin.  The codes are collected from _grid_blocks, which the classify
    command consumes instead, one block of _GRID_BLOCK_ROWS rows at a time.
    """
    blocks = _grid_blocks(params, re_range, im_range, resolution, band)
    codes = np.empty((resolution, resolution), dtype=np.int8)
    lo = 0
    for block in blocks:
        codes[lo : lo + len(block)] = block
        lo += len(block)
    return codes
