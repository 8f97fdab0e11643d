"""The exact engine's metric against a 45-digit decimal evaluation of the same Swanson flow.

The oracle needs only the standard library: the decimal module's documented pi, cos and sin
recipes, and the Möbius image b = (S_pp b0 + S_pq) / (S_qp b0 + S_qq) of the Swanson flow

    S_pp = cos wt + i delta sin(wt)/w,   S_pq = -omega0 sin(wt)/w,
    S_qp = omega0 sin(wt)/w,             S_qq = cos wt - i delta sin(wt)/w,

w = hypot(omega0, delta).  With num = S_pp b0 + S_pq and den = S_qp b0 + S_qq, each metric entry
is a ratio over the law's Im b |den|^2 = Im(num conj(den)):

    g_pp = |den|^2 / Im b|den|^2,  g_pq = -Re(num conj(den)) / Im b|den|^2,  g_qq = |num|^2 / Im b|den|^2.

Near the law's boundary alpha = R that denominator cancels: at its minimum it is alpha - R, while
the terms it is made of are of size A = (1 + |b0|^2) / 2.  So the engine's metric is sound to about
u * 2A / (alpha - R) of its size, u = 2.2e-16, and 2A / (alpha - R) is _stops.stop_bounds' bound on
g_plus.  The oracle loses as many of its 45 digits, and keeps more than 30.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

from swansim import (
    MetriplecticState,
    RealState,
    SwansonParams,
    metric_eigen,
    metric_from_b,
    propagate,
    swanson_hamiltonian,
)
from swansim.closed_form import divergence_law
from swansim.propagator import b_from_metric

DIGITS = 45
U = float(np.finfo(float).eps)
# the engine's metric entries lie within C * U * 2A / (alpha - R) * g_plus of the oracle's, g_plus
# the oracle metric's largest eigenvalue.  The largest ratio found was 1.57 over 581 packets drawn
# as below from ten other seeds (0.38 over the 281 of them with 2A / (alpha - R) > 10^3, where the
# cancellation dominates, and a few ulps on packets far from the boundary); C = 4 leaves a factor
# of about 2.5 above it
C = 4.0
PACKETS = 40
STEPS = 4000


def _pi() -> Decimal:
    """pi to the current precision (the decimal module's recipe)."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _series(x: Decimal, i: int, s: Decimal) -> Decimal:
    """The decimal module's cos (i = 0, s = 1) and sin (i = 1, s = x) recipes: the Taylor series of x."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, fact, num, sign = 0, 1, s, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
    return +s


def oracle_metric(omega0: float, delta: float, b0: complex, t: float) -> tuple[float, float, float]:
    """(g_pp, g_pq, g_qq) of the Swanson flow of b0 at t, from the exact values of the doubles, to DIGITS digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        w0, d, x, y, t = map(Decimal, (omega0, delta, b0.real, b0.imag, t))
        w = (w0 * w0 + d * d).sqrt()
        # the argument reduced to [-pi, pi], where the series converge quickly
        two_pi = 2 * _pi()
        arg = w * t
        arg -= two_pi * (arg / two_pi).to_integral_value()
        c, s = _series(arg, 0, Decimal(1)), _series(arg, 1, arg) / w
        nr, ni = c * x - d * s * y - w0 * s, c * y + d * s * x
        dr, di = w0 * s * x + c, w0 * s * y - d * s
        law = ni * dr - nr * di
        return float((dr * dr + di * di) / law), float(-(nr * dr + ni * di) / law), float((nr * nr + ni * ni) / law)


def test_oracle_recipes_at_known_values():
    with localcontext() as ctx:
        ctx.prec = DIGITS
        assert abs(_pi() - Decimal("3.14159265358979323846264338327950288419716939937510")) < Decimal("1e-43")
        third = _pi() / 3
        assert abs(_series(third, 0, Decimal(1)) - Decimal("0.5")) < Decimal("1e-43")
        assert abs(_series(third, 1, third) ** 2 - Decimal("0.75")) < Decimal("1e-43")
    # at t = 0 the flow is the identity, so the metric is that of b0
    assert oracle_metric(1.1, -0.4, 0.5 + 2j, 0.0) == (0.5, -0.25, 2.125)


def bounded_packets(rng: np.random.Generator, count: int):
    """(omega0, delta, b0) of bounded packets, both signs of delta; every other one within 10^-9 to
    10^-4 of the law's boundary, relative, and the rest well inside it.

    delta > 0 is bounded above the line Im b = delta / omega0, delta < 0 inside the circle
    |b - i r| = r, r = omega0 / (2 |delta|) (geometry._b_margin).
    """
    for k in range(count):
        omega0 = rng.uniform(0.8, 1.25)
        delta = (1.0 if k % 4 < 2 else -1.0) * rng.uniform(0.1, 2.0) * omega0
        near = k % 2 == 0
        gap = 10 ** rng.uniform(-9, -4)
        if delta > 0:
            edge = delta / omega0
            b0 = complex(rng.uniform(-2, 2), edge * (1 + gap) if near else edge + rng.uniform(0.3, 2.0))
        else:
            r = omega0 / (2 * abs(delta))
            offset = r * (1 - gap) if near else r * rng.uniform(0.0, 0.5)
            angle = rng.uniform(-0.4 * math.pi, 1.4 * math.pi)
            b0 = complex(offset * math.cos(angle), r + offset * math.sin(angle))
        yield omega0, delta, b0


def test_engine_metric_is_sound_to_its_conditioning():
    # every 250th row of a period, and the rows around each minimum of the law, where Im b is
    # smallest; a run the engine stops (g_plus above BLOWUP_THRESHOLD) is compared up to its stop
    near = 0
    for omega0, delta, b0 in bounded_packets(np.random.default_rng(2), PACKETS):
        params = SwansonParams(omega0, delta)
        init = MetriplecticState(Z=RealState(0.0, 0.0), G=metric_from_b(b0), n=1.0)
        # the engine's own b0, read back from the metric it was given
        b0 = b_from_metric(init.G.normalized())
        alpha, beta, gamma, r = divergence_law(params, b0)
        assert alpha > r
        bound = (1.0 + abs(b0) ** 2) / (alpha - r)
        near += bound > 1e3
        step = params.period / STEPS
        traj = propagate(swanson_hamiltonian(params), init, params.period, step)
        first = (math.atan2(gamma, beta) + math.pi) / (2 * params.omega)
        rows = set(range(0, STEPS + 1, 250))
        for t_min in (first - params.period / 2, first, first + params.period / 2):
            k = round(t_min / step)
            rows.update(range(k - 1, k + 2))
        for k in sorted(j for j in rows if 0 <= j < len(traj.times)):
            expected = oracle_metric(omega0, delta, b0, traj.times[k])
            g_plus = metric_eigen(*expected)[0]
            error = np.abs(traj.values[k, 2:5] - expected).max()
            assert error <= C * U * bound * g_plus, (omega0, delta, b0, k, error / (U * bound * g_plus))
    # half the packets are near the boundary, and their cancellation is what the bound is about
    assert near == PACKETS // 2
