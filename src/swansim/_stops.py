"""Where the exact engine's run stops: proved from the closed forms where no sample can stop.

For the Swanson model the flow S(t) = exp(t Omega H'') is unitary at every
real t, because Omega H'' = [[i delta, -omega0], [omega0, -i delta]] is
anti-Hermitian.  Take b0 = x + iy, den = S_qp b0 + S_qq, num = S_pp b0 + S_pq
(so b = num / den) and z = (1 + |b|^2) / (2 Im b), half the trace of the
metric of b.  Then at every t:

- Im b |den|^2 = alpha + beta cos 2wt + gamma sin 2wt (closed_form.divergence_law),
  which is at least alpha - R with R = hypot(beta, gamma);
- z Im b |den|^2 = (|num|^2 + |den|^2) / 2 = A + B cos 2wt + C sin 2wt with
  A = (1 + |b0|^2) / 2 and B = C = 0, by unitarity;
- the complex centre (p, q) = S(t) (p0, q0) keeps |p|^2 + |q|^2 = p0^2 + q0^2.

So once alpha > R, at every t (stop_bounds):

- Im b > 0, and g_plus <= 2z <= 2A / (alpha - R);
- the Möbius pole stays away: |den|^2 = Im b |den|^2 / Im b >= (alpha - R) / g_plus;
- the centre Re z - Omega G Im z has norm at most r0 (1 + g_plus), r0 = hypot(p0, q0);
- ln(n / n0), which is Re p Im q - Im p Re q + Im z^T G Im z minus half of
  ln(Im b |den|^2 / y) (propagator._norm_exponent with _sampled_rows' phase), is
  at most r0^2 (1/2 + g_plus) + ln(y / (alpha - R)) / 2.

The law is closed_form's; this module keeps only the bounds that follow from
it.  Imported only by sweep, and by a simulate whose reader left early, so
other runs do not compile it.
"""

from __future__ import annotations

import math
import sys

from .closed_form import divergence_law
from .model import SwansonParams, swanson_hamiltonian
from .propagator import BLOWUP_THRESHOLD, MetriplecticState, _propagate_blocks, b_from_metric

__all__ = ["stop_bounds"]

# a bound proves "no stop" only this far inside its limit: far wider than the rounding of the
# bounds and of the engine's rows, so a run near any limit takes the block scan
MARGIN = 1e-3
# largest bound on ln n a proved run may have: half the exponent at which exp overflows
LOG_N_CAP = 0.5 * math.log(sys.float_info.max)


def stop_bounds(init: MetriplecticState, b0: complex, gap: float) -> tuple[float, float, float]:
    """Upper bounds over every t of the engine's g_plus, centre norm and ln(n / n0) from init.

    b0 is the uncertainty parameter of init's metric and gap > 0 the law's
    minimum alpha - R over t (see the module docstring).
    """
    g_plus = (1.0 + b0.real * b0.real + b0.imag * b0.imag) / gap
    r0 = math.hypot(init.Z.P, init.Z.Q)
    return g_plus, r0 * (1.0 + g_plus), r0 * r0 * (0.5 + g_plus) + 0.5 * math.log(b0.imag / gap)


def _proved_bounded(params: SwansonParams, init: MetriplecticState) -> bool:
    """True only if no sample of the run from init can stop, each bound MARGIN inside its limit."""
    b0 = b_from_metric(init.G.normalized())
    alpha, _, _, r = divergence_law(params, b0)
    # a NaN from an extreme b0 fails every comparison, so such a run takes the scan
    if not alpha - r > MARGIN * (abs(alpha) + r):
        return False
    g_plus, centre, log_n = stop_bounds(init, b0, alpha - r)
    limit = MARGIN * BLOWUP_THRESHOLD
    # the row holds n0 exp(ln(n / n0)), so both the exponential and the product must stay finite;
    # the centre's own bound is implied by the other two at these limits, but not in general
    return g_plus <= limit and centre <= limit and log_n + max(0.0, math.log(init.n)) <= LOG_N_CAP


def _stop_index(params: SwansonParams, init: MetriplecticState, t_end: float, step: float) -> int:
    """propagator._propagate_blocks' stop for the run of params' model from init to t_end at step; -1 if none.

    -1 without evaluating any row where the closed forms prove that no sample
    can stop; otherwise the block scan's own stop.
    """
    if _proved_bounded(params, init):
        return -1
    for _, _, stop, _ in _propagate_blocks(swanson_hamiltonian(params), init, t_end, step):
        pass
    return stop
