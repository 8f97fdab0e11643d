"""_stops: the engine's stop index from the closed forms, pinned to the block scan it replaces.

_stop_index must equal propagator._propagate_blocks' stop on every input; the
bounds it proves a run with must hold on dense samples; and a run near any
of its margins must take the block scan.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swansim import (
    MetriplecticState,
    Metric,
    RealState,
    SwansonParams,
    metric_from_b,
    swanson_hamiltonian,
)
from swansim import propagator
from swansim._stops import LOG_N_CAP, MARGIN, _stop_index, stop_bounds
from swansim.closed_form import divergence_law
from swansim.cli import main
from swansim.propagator import BLOWUP_THRESHOLD, _flow_entries, _propagate_blocks, _sampled_rows, b_from_metric


def scan_stop(params: SwansonParams, init: MetriplecticState, t_end: float, step: float) -> int:
    """The block scan's stop, -1 if the run never stops."""
    stop = -1
    for _, _, stop, _ in _propagate_blocks(swanson_hamiltonian(params), init, t_end, step):
        pass
    return stop


def first_crossing(params: SwansonParams, b0: complex) -> float | None:
    """First t > 0 with alpha + R cos(2wt - phi) = 0, phi = atan2(gamma, beta); None if alpha > R."""
    alpha, beta, gamma, radius = divergence_law(params, b0)
    if alpha > radius:
        return None
    phi, theta = math.atan2(gamma, beta), math.acos(max(-1.0, min(1.0, -alpha / radius)))
    angles = [phi + s * theta + 2.0 * math.pi * k for s in (-1.0, 1.0) for k in range(3)]
    return min(a for a in angles if a > 0.0) / (2.0 * params.omega)


@st.composite
def runs(draw):
    """(params, init, t_end, step): a coupling with delta/omega0 in [-2, 2] or at 0 or +-1, an
    initial b0 near the law's boundary on either side, far from it or far from the origin, a centre
    of size up to 1e8, n0 from 1e-10 to 1e300, and a step that may put the first crossing on a sample."""
    omega0 = draw(st.floats(min_value=0.25, max_value=4.0))
    ratio = draw(st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(min_value=-2.0, max_value=2.0)))
    params = SwansonParams(omega0, ratio * omega0)
    kind = draw(st.sampled_from(["near", "far", "any"]))
    eps = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(min_value=-12.0, max_value=-1.0))
    x = draw(st.floats(min_value=-3.0, max_value=3.0))
    if kind == "near" and ratio >= 0.01:
        # the bounded half-plane Im b > delta / omega0
        b0 = complex(x, ratio * (1.0 + eps))
    elif kind == "near" and ratio <= -0.01:
        # the bounded disk |b - i rho| < rho, rho = omega0 / (2 |delta|)
        rho = 0.5 / abs(ratio)
        angle = draw(st.floats(min_value=-1.0, max_value=math.pi + 1.0))
        b0 = complex(0.0, rho) + (rho + eps * rho) * complex(math.cos(angle), math.sin(angle))
    elif kind == "far":
        b0 = complex(x * 10.0 ** draw(st.floats(0.0, 4.0)), 10.0 ** draw(st.floats(-4.0, 4.0)))
    else:
        b0 = complex(x, draw(st.floats(min_value=0.01, max_value=4.0)))
    # half the draws at sizes a proof can cover, half over the whole range
    radius = 10.0 ** draw(st.one_of(st.floats(min_value=-3.0, max_value=1.0), st.floats(min_value=-3.0, max_value=8.0)))
    phase = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    n0 = 10.0 ** draw(st.one_of(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=-10.0, max_value=300.0)))
    g0 = metric_from_b(b0)
    if not abs(g0.det - 1.0) <= 1e-6:
        # b0 so far from the imaginary axis that its metric has lost its determinant, which the
        # CLI refuses
        g0 = Metric.identity()
    init = MetriplecticState(RealState(radius * math.cos(phase), radius * math.sin(phase)), g0, n0)
    t_end = draw(st.floats(min_value=0.1, max_value=3.0)) * params.period
    crossing = first_crossing(params, b_from_metric(g0.normalized()))
    if crossing is not None and crossing < t_end and draw(st.booleans()):
        step = crossing / draw(st.integers(min_value=3, max_value=20_000))
    else:
        step = params.period / draw(st.integers(min_value=20, max_value=20_000))
    return params, init, t_end, step


@settings(max_examples=300, deadline=None)
@given(run=runs())
def test_stop_index_equals_the_block_scan(run):
    params, init, t_end, step = run
    assert _stop_index(params, init, t_end, step) == scan_stop(params, init, t_end, step)


def bounded_inits():
    """Bounded runs at delta / omega0 = 0.5, 0 and -0.7 from other metrics, and at 0.9 from the identity."""
    return [
        (SwansonParams(1.0, 0.5), MetriplecticState(RealState(0.6, 0.8), metric_from_b(0.3 + 1.2j), 1.0)),
        (SwansonParams(2.0, 0.0), MetriplecticState(RealState(-3.0, 1.0), metric_from_b(-1.5 + 0.4j), 2.5)),
        (SwansonParams(0.5, -0.35), MetriplecticState(RealState(0.0, 2.0), metric_from_b(0.2 + 0.5j), 1e-3)),
        (SwansonParams(1.0, 0.9), MetriplecticState(RealState(1.0, 0.0), Metric.identity(), 1.0)),
    ]


@pytest.mark.parametrize("params, init", bounded_inits())
def test_bounded_runs_evaluate_no_row(monkeypatch, params, init):
    calls = []
    monkeypatch.setattr(propagator, "_sampled_rows", lambda *args: calls.append(args) or _sampled_rows(*args))
    assert _stop_index(params, init, 50.0 * params.period, params.period / 10_000) == -1
    assert calls == []


# each run lies inside the law but outside one margin; with that margin dropped it would be proved
NEAR_MARGIN = {
    # the law's minimum alpha - R is 1e-4 of |alpha| + R, below MARGIN; the other bounds hold
    "law": (SwansonParams(1.0, 1.0 - 1e-4), MetriplecticState(RealState(0.0, 0.0), Metric.identity(), 1.0)),
    # g_plus up to 2 A / (alpha - R) = 1e6 + 2, between MARGIN * BLOWUP_THRESHOLD and the threshold
    "g_plus": (SwansonParams(1.0, 0.0), MetriplecticState(RealState(0.0, 0.0), metric_from_b(1e3 + 1j), 1.0)),
    # ln n0 = 690.8 is above LOG_N_CAP but below exp's overflow at 709.8
    "n0": (SwansonParams(1.0, 0.5), MetriplecticState(RealState(0.6, 0.8), Metric.identity(), 1e300)),
    # the tangent case: alpha = R exactly for the identity seed at delta = +-omega0
    "tangent": (SwansonParams(1.0, 1.0), MetriplecticState(RealState(1.0, 0.0), Metric.identity(), 1.0)),
    "tangent_negative": (SwansonParams(1.0, -1.0), MetriplecticState(RealState(1.0, 0.0), Metric.identity(), 1.0)),
    # a centre of 1e8 is at the threshold itself
    "centre": (SwansonParams(1.0, 0.5), MetriplecticState(RealState(1e8, 0.0), Metric.identity(), 1.0)),
    # an extreme metric: b0 = 1e9 i
    "g0": (SwansonParams(1.0, 0.5), MetriplecticState(RealState(1.0, 0.0), Metric(1e-9, 0.0, 1e9), 1.0)),
}


@pytest.mark.parametrize("name", NEAR_MARGIN)
def test_runs_near_a_margin_take_the_scan(monkeypatch, name):
    params, init = NEAR_MARGIN[name]
    t_end, step = 2.0 * params.period, params.period / 1000
    expected = scan_stop(params, init, t_end, step)
    calls = []
    monkeypatch.setattr(propagator, "_sampled_rows", lambda *args: calls.append(args) or _sampled_rows(*args))
    assert _stop_index(params, init, t_end, step) == expected
    assert calls, "a run near a margin must be scanned"


def test_near_margin_runs_are_near_only_one_margin():
    # the "law", "g_plus" and "n0" runs fail only their own margin, so each pins that margin alone
    limit = MARGIN * BLOWUP_THRESHOLD
    for name, fails in [("law", "law"), ("g_plus", "g_plus"), ("n0", "n")]:
        params, init = NEAR_MARGIN[name]
        b0 = b_from_metric(init.G.normalized())
        alpha, _, _, r = divergence_law(params, b0)
        assert alpha - r > 0.0
        g_plus, centre, log_n = stop_bounds(init, b0, alpha - r)
        margins = {
            "law": alpha - r > MARGIN * (abs(alpha) + r),
            "g_plus": g_plus <= limit,
            "centre": centre <= limit,
            "n": log_n + max(0.0, math.log(init.n)) <= LOG_N_CAP,
        }
        assert [key for key, ok in margins.items() if not ok] == [fails], name
        assert scan_stop(params, init, 2.0 * params.period, params.period / 1000) == -1, name


@settings(max_examples=150, deadline=None)
@given(
    omega0=st.floats(min_value=0.25, max_value=4.0),
    ratio=st.floats(min_value=-3.0, max_value=3.0),
    x=st.floats(min_value=-3.0, max_value=3.0),
    y=st.floats(min_value=0.02, max_value=4.0),
    centre=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2.0 * math.pi)),
)
def test_bounds_hold_on_dense_samples(omega0, ratio, x, y, centre):
    params = SwansonParams(omega0, ratio * omega0)
    b0 = complex(x, y)
    alpha, beta, gamma, r = divergence_law(params, b0)
    model = swanson_hamiltonian(params)
    # half a period is one period of the law, plus the time of its minimum alpha - R
    t_min = ((math.atan2(gamma, beta) + math.pi) % (2.0 * math.pi)) / (2.0 * params.omega)
    times = np.append(np.linspace(0.0, 0.5 * params.period, 20_001), t_min)
    spp, spq, sqp, sqq = _flow_entries(model, times)
    num, den = spp * b0 + spq, sqp * b0 + sqq
    # (|num|^2 + |den|^2) / 2 = A + B cos 2wt + C sin 2wt has A = (1 + |b0|^2) / 2 and B = C = 0
    np.testing.assert_allclose(0.5 * (np.abs(num) ** 2 + np.abs(den) ** 2), 0.5 * (1.0 + abs(b0) ** 2), rtol=1e-13)
    radius, phase = centre
    init = MetriplecticState(RealState(radius * math.cos(phase), radius * math.sin(phase)), metric_from_b(b0), 1.0)
    if not alpha - r > 1e-6 * (abs(alpha) + r):
        return
    g_plus, centre_bound, log_n = stop_bounds(init, b0, alpha - r)
    if not (g_plus <= BLOWUP_THRESHOLD and log_n <= LOG_N_CAP):
        return  # the bounds allow a stop, so no sample has to stay finite
    rows, _ = _sampled_rows(model, init, times)
    assert np.isfinite(rows).all()
    # g_plus <= the trace 2z <= 2A / (alpha - R), which the trace reaches at the law's minimum
    trace = rows[:, 2] + rows[:, 4]
    assert trace.max() <= g_plus * (1.0 + 1e-9)
    assert trace[-1] >= g_plus * (1.0 - 1e-9)
    assert np.hypot(rows[:, 0], rows[:, 1]).max() <= centre_bound * (1.0 + 1e-12)
    assert np.log(rows[:, 5]).max() <= log_n + 1e-9 * (1.0 + abs(log_n))


# delta = 0, +-omega0, |delta| >> omega0 (up to where omega^2 nears overflow), and b0 = i, far
# (1e4 + i, 1e-8 + 1e-8 i) and extreme (1e300 i)
EDGE_PARAMS = [(1.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1.0, 1e6), (1e-3, -1e3), (1.0, 1e150)]
EDGE_G0 = ["1,0,1", "1,-10000,100000001", "100000000,-1,2e-8", "1e-300,0,1e300"]


@pytest.mark.parametrize("omega0, delta", EDGE_PARAMS)
def test_closed_forms_raise_no_warning_at_the_edges(tmp_path, capsys, omega0, delta):
    params = SwansonParams(omega0, delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in EDGE_G0:
            g0 = Metric(*map(float, text.split(",")))
            for p0, q0 in ((1.0, 0.0), (1e300, -1e300)):
                init = MetriplecticState(RealState(p0, q0), g0, 1.0)
                divergence_law(params, b_from_metric(g0))
                _stop_index(params, init, params.period, params.period / 50)
                argv = [f"--omega0={omega0}", f"--delta-min={delta}", f"--delta-max={delta}", f"--g0={text}"]
                assert main(["sweep", *argv, f"--p0={p0}", f"--q0={q0}", f"--out={tmp_path / 'sweep.csv'}"]) == 0
    assert capsys.readouterr() == ("", "")
