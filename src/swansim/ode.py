"""RK4 oracle for quadratic models.

Classical fixed-step RK4 on the coupled centre/metric/norm flow: the flows
are smooth, periodic and low-dimensional, so adaptivity buys nothing and
fixed steps keep the convergence-order tests clean.  The right-hand side is
written once, inline in _rk4_blocks, a loop on plain Python floats held
in locals (indexing numpy elements would cost several times the arithmetic)
that stops at the first non-finite state (a zero determinant included)
without numpy warnings; the tests pin one step and whole runs of it to the
matrix form of the same equations.  Blow-up is detected by thresholding the
largest metric eigenvalue and the centre norm.

The CLI's simulate and sweep run the exact engine
(propagator._propagate_blocks), and never import this module; RK4 stays as
its independent oracle, which validate and the tests run.  It speaks the
propagator's run protocol: it yields a run propagator.BLOCK_ROWS rows at a
time, read when the run starts, as (k0, rows, stop, drift) blocks on the same
grid, with the same row layout and truncation, and integrate collects them
with propagator.Trajectory.from_blocks.  A Python loop yields steps, and
blocks exist only where numpy takes them whole: here closed_series compares
each RK4 block at once, while the Riccati oracle (gaussian._riccati_steps),
whose consumer keeps single steps, yields steps.
"""

from __future__ import annotations

import math

import numpy as np

from . import propagator
from .model import QuadraticHamiltonian
from .propagator import BLOWUP_THRESHOLD, MetriplecticState, Trajectory, step_count

__all__ = ["integrate"]


def _rk4_blocks(model: QuadraticHamiltonian, y0, step: float, n_steps: int):
    """Fixed-step RK4 on the coupled centre/metric/norm system of model, propagator.BLOCK_ROWS rows at a time.

    State layout: y = (P, Q, g_pp, g_pq, g_qq, n), y0 any six numbers.  After
    every step the metric determinant is renormalized to one (the flow
    preserves it exactly but RK4 does not); symmetry of the metric is
    structural in this packing.

    Yields (k0, rows, stop, drift) for each block.  rows is a fresh (m, 6)
    array of the rows k0 .. k0 + m - 1 of the n_steps + 1, with row 0 = y0.
    stop is -1, except on the last block of a run that diverged: that block
    ends just before the first divergent step, stop is that step's index,
    and m may be 0.  Divergent means non-finite, not positive definite, or a
    metric eigenvalue or centre norm over BLOWUP_THRESHOLD.  drift is the
    largest |det - 1| seen before renormalization up to the block's end.
    The state carries from block to block.  The arithmetic runs on Python
    floats held in locals; a stage that divides by a zero determinant would
    leave a non-finite state, so its ZeroDivisionError stops the run at that
    step.
    """
    (a00, a01), (_, a11) = model.hess_h.tolist()
    (b00, b01), (_, b11) = model.hess_gamma.tolist()
    two_a00, two_a01, two_a11, two_c = 2.0 * a00, 2.0 * a01, 2.0 * a11, 2.0 * float(model.const_gamma)
    step = float(step)
    half, sixth = 0.5 * step, step / 6.0
    isfinite, sqrt = math.isfinite, math.sqrt

    def rate(P, Q, gpp, gpq, gqq, nn):
        hp = a00 * P + a01 * Q
        hq = a01 * P + a11 * Q
        gp = b00 * P + b01 * Q
        gq = b01 * P + b11 * Q
        det = gpp * gqq - gpq * gpq
        # w = G . (Omega^T hess_g Omega) = G . adj(hess_g)
        w00 = gpp * b11 - gpq * b01
        w01 = gpq * b00 - gpp * b01
        w10 = gpq * b11 - gqq * b01
        w11 = gqq * b00 - gpq * b01
        # the commutator part is m + m^T, m = hess_h . Omega . G = [[a01 gpp - a00 gpq, a01 gpq - a00 gqq],
        # [a11 gpp - a01 gpq, a11 gpq - a01 gqq]], and in m01 + m10 the a01 gpq terms cancel; the norm decays
        # at 2 Gamma(Z) + tr(adj(hess_g) G) / 2 = P gp + Q gq + 2 const_gamma + (w00 + w11) / 2
        return (
            -hq - (gqq * gp - gpq * gq) / det,
            hp + (gpq * gp - gpp * gq) / det,
            two_a01 * gpp - two_a00 * gpq + b00 - (w00 * gpp + w01 * gpq),
            a11 * gpp - a00 * gqq + b01 - (w00 * gpq + w01 * gqq),
            two_a11 * gpq - two_a01 * gqq + b11 - (w10 * gpq + w11 * gqq),
            -(P * gp + Q * gq + two_c + 0.5 * (w00 + w11)) * nn,
        )

    n_rows, block = n_steps + 1, propagator.BLOCK_ROWS
    z0, z1, z2, z3, z4, z5 = map(float, y0)
    drift = 0.0
    for k0 in range(0, n_rows, block):
        out = np.empty((min(block, n_rows - k0), 6))
        if k0 == 0:
            out[0] = y0
        # row j of the block is step k0 + j
        for j in range(1 if k0 == 0 else 0, len(out)):
            try:
                p1, q1, a1, b1, c1, n1 = rate(z0, z1, z2, z3, z4, z5)
                p2, q2, a2, b2, c2, n2 = rate(
                    z0 + half * p1, z1 + half * q1, z2 + half * a1, z3 + half * b1, z4 + half * c1, z5 + half * n1
                )
                p3, q3, a3, b3, c3, n3 = rate(
                    z0 + half * p2, z1 + half * q2, z2 + half * a2, z3 + half * b2, z4 + half * c2, z5 + half * n2
                )
                p4, q4, a4, b4, c4, n4 = rate(
                    z0 + step * p3, z1 + step * q3, z2 + step * a3, z3 + step * b3, z4 + step * c3, z5 + step * n3
                )
            except ZeroDivisionError:
                break
            z0 = z0 + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            z1 = z1 + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
            z2 = z2 + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            z3 = z3 + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            z4 = z4 + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            z5 = z5 + sixth * (n1 + 2.0 * n2 + 2.0 * n3 + n4)

            if not (isfinite(z0) and isfinite(z1) and isfinite(z2) and isfinite(z3) and isfinite(z4) and isfinite(z5)):
                break
            if z2 <= 0.0 or z4 <= 0.0:
                break
            det = z2 * z4 - z3 * z3
            tr = z2 + z4
            # The computed det is authoritative only at moderate amplitude; for
            # large metrics it is cancellation noise, and renormalizing by it (or
            # rejecting on its sign) corrupts an otherwise accurate solution on
            # approach to a blow-up.
            if tr < 1e3:
                if det <= 0.0:
                    break
                d1 = abs(det - 1.0)
                if d1 > drift:
                    drift = d1
                scale = 1.0 / sqrt(det)
                z2 *= scale
                z3 *= scale
                z4 *= scale
                det = 1.0
                tr = z2 + z4
            disc = tr * tr - 4.0 * det
            if disc < 0.0:
                disc = 0.0
            if 0.5 * (tr + sqrt(disc)) > BLOWUP_THRESHOLD or math.hypot(z0, z1) > BLOWUP_THRESHOLD:
                break
            out[j] = (z0, z1, z2, z3, z4, z5)
        else:
            yield k0, out, -1, drift
            continue
        # step k0 + j is the first divergent one
        yield k0, out[:j], k0 + j, drift
        return


def _integrate_blocks(model: QuadraticHamiltonian, init: MetriplecticState, t_end: float, step: float):
    """integrate's rows as _rk4_blocks yields them; ValueError, raised at the call, if det G0 <= 0."""
    if not init.G.det > 0:
        raise ValueError(f"initial metric must be positive definite, got det = {init.G.det!r} <= 0")
    y0 = (init.Z.P, init.Z.Q, init.G.g_pp, init.G.g_pq, init.G.g_qq, init.n)
    return _rk4_blocks(model, y0, step, step_count(t_end, step))


def integrate(model: QuadraticHamiltonian, init: MetriplecticState, t_end: float, step: float) -> Trajectory:
    """RK4 integration of the coupled system from t = 0 to n_steps * step.

    n_steps = round(t_end / step); pass a commensurate step for exact spans.
    The metric determinant is renormalized to one after every step.  On
    blow-up the trajectory is truncated and divergence_time is set to the
    first offending time.  ValueError if the initial metric has det <= 0.
    The whole run is held in memory (Trajectory.from_blocks); validate
    consumes the blocks (_integrate_blocks) instead, one at a time.
    """
    return Trajectory.from_blocks(_integrate_blocks(model, init, t_end, step), step_count(t_end, step) + 1, step)

