"""Hot inner loops of the RK4 oracles: scalar loops on Python floats and
complex numbers held in locals (indexing numpy elements costs several times
the arithmetic), each writing one row of a caller-owned array per step."""

from __future__ import annotations

import math

__all__ = [
    "NUMBA_ENABLED",
    "metriplectic_rk4",
    "riccati_rk4",
]

# No kernel is compiled.  The name stays because perfbench/run.py reports it
# in the environment block of every benchmark run.
NUMBA_ENABLED = False


def metriplectic_rk4(hess_h, hess_g, const_g, y0, step, n_steps, blow_threshold, out):
    """Fixed-step RK4 on the coupled centre/metric/norm system.

    State layout: y = (P, Q, g_pp, g_pq, g_qq, n).  After every step the
    metric determinant is renormalized to one (the flow preserves it exactly
    but RK4 does not); symmetry of the metric is structural in this packing.

    Fills out[k] for k = 0..n_steps and returns (stop, drift): stop == -1 on
    a completed run, otherwise the first step index whose state is divergent
    (rows out[:stop] are valid); drift is the largest |det - 1| seen before
    renormalization.  The arithmetic runs on Python floats held in locals; a
    stage that divides by a zero determinant would leave a non-finite state,
    so its ZeroDivisionError stops the run at that step.
    """
    a00, a01, a11 = float(hess_h[0, 0]), float(hess_h[0, 1]), float(hess_h[1, 1])
    b00, b01, b11 = float(hess_g[0, 0]), float(hess_g[0, 1]), float(hess_g[1, 1])
    const_g = float(const_g)
    step = float(step)
    half, sixth = 0.5 * step, step / 6.0
    isfinite, sqrt = math.isfinite, math.sqrt

    def rate(P, Q, gpp, gpq, gqq, nn):
        hp = a00 * P + a01 * Q
        hq = a01 * P + a11 * Q
        gp = b00 * P + b01 * Q
        gq = b01 * P + b11 * Q
        det = gpp * gqq - gpq * gpq
        # m = hess_h . Omega . G gives the commutator part as m + m^T
        m00 = a01 * gpp - a00 * gpq
        m01 = a01 * gpq - a00 * gqq
        m10 = a11 * gpp - a01 * gpq
        m11 = a11 * gpq - a01 * gqq
        # w = G . (Omega^T hess_g Omega) = G . adj(hess_g)
        w00 = gpp * b11 - gpq * b01
        w01 = -gpp * b01 + gpq * b00
        w10 = gpq * b11 - gqq * b01
        w11 = -gpq * b01 + gqq * b00
        gam = 0.5 * (b00 * P * P + b11 * Q * Q) + b01 * P * Q + const_g
        return (
            -hq - (gqq * gp - gpq * gq) / det,
            hp + (gpq * gp - gpp * gq) / det,
            2.0 * m00 + b00 - (w00 * gpp + w01 * gpq),
            m01 + m10 + b01 - (w00 * gpq + w01 * gqq),
            2.0 * m11 + b11 - (w10 * gpq + w11 * gqq),
            -(2.0 * gam + 0.5 * (b11 * gpp - 2.0 * b01 * gpq + b00 * gqq)) * nn,
        )

    out[0] = y0
    z0, z1, z2, z3, z4, z5 = y0.tolist()
    drift = 0.0
    for k in range(1, n_steps + 1):
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
            return k, drift
        z0 = z0 + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
        z1 = z1 + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        z2 = z2 + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        z3 = z3 + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        z4 = z4 + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        z5 = z5 + sixth * (n1 + 2.0 * n2 + 2.0 * n3 + n4)

        if not (isfinite(z0) and isfinite(z1) and isfinite(z2) and isfinite(z3) and isfinite(z4) and isfinite(z5)):
            return k, drift
        if z2 <= 0.0 or z4 <= 0.0:
            return k, drift
        det = z2 * z4 - z3 * z3
        tr = z2 + z4
        # The computed det is authoritative only at moderate amplitude; for
        # large metrics it is cancellation noise, and renormalizing by it (or
        # rejecting on its sign) corrupts an otherwise accurate solution on
        # approach to a blow-up.
        if tr < 1e3:
            if det <= 0.0 or not isfinite(det):
                return k, drift
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
        if 0.5 * (tr + sqrt(disc)) > blow_threshold or math.hypot(z0, z1) > blow_threshold:
            return k, drift
        out[k] = (z0, z1, z2, z3, z4, z5)
    return -1, drift


def riccati_rk4(cpp, cpq, cqq, b0, step, n_steps, out):
    """Fixed-step RK4 on the scalar complex Riccati flow b' = -(cpp b^2 + 2 cpq b + cqq).

    Fills out[k] for k = 0..n_steps; returns -1 on completion, else the first
    step index at which the solution left the chart (|b| > 1e12 or non-finite).
    """
    # (2.0 * cpq) * b is 2.0 * cpq * b, since products group left to right
    cpq2, half, sixth, isfinite = 2.0 * cpq, 0.5 * step, step / 6.0, math.isfinite
    b = b0
    out[0] = b
    for k in range(1, n_steps + 1):
        k1 = -(cpp * b * b + cpq2 * b + cqq)
        b2 = b + half * k1
        k2 = -(cpp * b2 * b2 + cpq2 * b2 + cqq)
        b3 = b + half * k2
        k3 = -(cpp * b3 * b3 + cpq2 * b3 + cqq)
        b4 = b + step * k3
        k4 = -(cpp * b4 * b4 + cpq2 * b4 + cqq)
        b = b + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (isfinite(b.real) and isfinite(b.imag)) or abs(b) > 1e12:
            return k
        out[k] = b
    return -1

