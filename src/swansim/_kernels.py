"""Hot inner loops of the RK4 oracles: scalar loops in plain Python that
fill caller-owned output arrays."""

from __future__ import annotations

import math

import numpy as np

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
    renormalization.
    """
    a00 = hess_h[0, 0]
    a01 = hess_h[0, 1]
    a11 = hess_h[1, 1]
    b00 = hess_g[0, 0]
    b01 = hess_g[0, 1]
    b11 = hess_g[1, 1]

    y = y0.copy()
    yw = np.empty(6)
    ks = np.empty((4, 6))
    out[0] = y
    drift = 0.0
    for k in range(1, n_steps + 1):
        for s in range(4):
            if s == 0:
                for j in range(6):
                    yw[j] = y[j]
            elif s == 3:
                for j in range(6):
                    yw[j] = y[j] + step * ks[2, j]
            else:
                for j in range(6):
                    yw[j] = y[j] + 0.5 * step * ks[s - 1, j]
            P = yw[0]
            Q = yw[1]
            gpp = yw[2]
            gpq = yw[3]
            gqq = yw[4]
            nn = yw[5]
            hp = a00 * P + a01 * Q
            hq = a01 * P + a11 * Q
            gp = b00 * P + b01 * Q
            gq = b01 * P + b11 * Q
            det = gpp * gqq - gpq * gpq
            ks[s, 0] = -hq - (gqq * gp - gpq * gq) / det
            ks[s, 1] = hp + (gpq * gp - gpp * gq) / det
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
            ks[s, 2] = 2.0 * m00 + b00 - (w00 * gpp + w01 * gpq)
            ks[s, 3] = m01 + m10 + b01 - (w00 * gpq + w01 * gqq)
            ks[s, 4] = 2.0 * m11 + b11 - (w10 * gpq + w11 * gqq)
            gam = 0.5 * (b00 * P * P + b11 * Q * Q) + b01 * P * Q + const_g
            ks[s, 5] = -(2.0 * gam + 0.5 * (b11 * gpp - 2.0 * b01 * gpq + b00 * gqq)) * nn
        for j in range(6):
            y[j] = y[j] + (step / 6.0) * (ks[0, j] + 2.0 * ks[1, j] + 2.0 * ks[2, j] + ks[3, j])

        ok = True
        for j in range(6):
            if not math.isfinite(y[j]):
                ok = False
        if ok and (y[2] <= 0.0 or y[4] <= 0.0):
            ok = False
        if ok:
            det = y[2] * y[4] - y[3] * y[3]
            tr = y[2] + y[4]
            # The computed det is authoritative only at moderate amplitude;
            # for large metrics it is cancellation noise, and renormalizing
            # by it (or rejecting on its sign) corrupts an otherwise accurate
            # solution on approach to a blow-up.
            if tr < 1e3:
                if det <= 0.0 or not math.isfinite(det):
                    ok = False
                else:
                    d1 = abs(det - 1.0)
                    if d1 > drift:
                        drift = d1
                    scale = 1.0 / math.sqrt(det)
                    y[2] *= scale
                    y[3] *= scale
                    y[4] *= scale
                    det = 1.0
                    tr = y[2] + y[4]
            if ok:
                disc = tr * tr - 4.0 * det
                if disc < 0.0:
                    disc = 0.0
                g_plus = 0.5 * (tr + math.sqrt(disc))
                if g_plus > blow_threshold or math.hypot(y[0], y[1]) > blow_threshold:
                    ok = False
        if not ok:
            return k, drift
        out[k] = y
    return -1, drift


def riccati_rk4(cpp, cpq, cqq, b0, step, n_steps, out):
    """Fixed-step RK4 on the scalar complex Riccati flow b' = -(cpp b^2 + 2 cpq b + cqq).

    Fills out[k] for k = 0..n_steps; returns -1 on completion, else the first
    step index at which the solution left the chart (|b| > 1e12 or non-finite).
    """
    b = b0
    out[0] = b
    for k in range(1, n_steps + 1):
        k1 = -(cpp * b * b + 2.0 * cpq * b + cqq)
        b2 = b + 0.5 * step * k1
        k2 = -(cpp * b2 * b2 + 2.0 * cpq * b2 + cqq)
        b3 = b + 0.5 * step * k2
        k3 = -(cpp * b3 * b3 + 2.0 * cpq * b3 + cqq)
        b4 = b + step * k3
        k4 = -(cpp * b4 * b4 + 2.0 * cpq * b4 + cqq)
        b = b + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)) or abs(b) > 1e12:
            return k
        out[k] = b
    return -1

