"""Output checks: every CLI output against the library's closed-form oracles.

Each check returns a Verdict.  `deviation` is the largest relative deviation
|x - ref| / max(1, |ref|) of the output from its oracle; it feeds the
accuracy_digits metric.  `known_failure` marks the one documented defect the
benchmark keeps visible (validate at 0.95 <= |delta|/omega0 < 1, see NOTES.md).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from swansim import (
    ComplexState,
    GaussianState,
    Metric,
    RealState,
    SwansonParams,
    blowup_detected,
    classify_metric,
    closed_series,
    doubled_generator,
    evolve_state,
    gaussian_norm,
    metric_from_b,
    project_expectations,
    swanson_hamiltonian,
)
from swansim.errors import DivergenceError
from swansim.geometry import DEFAULT_BAND, grid_axes
from swansim.ode import BLOWUP_THRESHOLD

from workloads import SWEEP_POINTS, Invocation

CSV_HEADER = "t,t_per_T,P,Q,g_pp,g_pq,g_qq,g_plus,g_minus,phi,n,divergent"
STEPS_PER_PERIOD = 10_000
# documented validate thresholds; also the tolerance for CSV rows
TOL = {"Z": 1e-6, "G": 1e-6, "n": 1e-6, "B": 1e-8, "mapped": 1e-8}
ORDER_RANGE = (3.7, 4.3)
# exact times and ratios are reproduced to rounding
TIME_TOL = 1e-12
# supercritical rows are compared where the exact metric eigenvalue is at most
# this; closer to the pole fixed-step RK4 lags by design and only the
# divergence time is checked
ROW_CHECK_MAX_G_PLUS = 10.0
# divergence index may differ from the closed-form crossing by this many steps
DIVERGENCE_STEPS_TOL = 2
# G0 != I runs: centre and norm are checked on every this-many-th row through
# the Gaussian route, whose phase quadrature is made fine enough to be exact
GAUSSIAN_ROW_STRIDE = 500
GAUSSIAN_NODES = 20_001
# grid points per region map compared with the dynamical probe
REGION_SAMPLES = 1000
# near-critical validate reports may fail only on these checks
NEAR_CRITICAL_FAILURE_KEYS = ("B error", "convergence order")


class CheckFailure(Exception):
    pass


@dataclass
class Verdict:
    ok: bool
    message: str = ""
    deviation: float | None = None
    known_failure: bool = False


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailure(message)


def _rel_dev(x, ref) -> float:
    x = np.asarray(x, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if x.size == 0:
        return 0.0
    dev = np.abs(x - ref) / np.maximum(1.0, np.abs(ref))
    # a NaN anywhere is a deviation no tolerance accepts
    return math.inf if np.isnan(dev).any() else float(dev.max())


def _g_plus(g_pp, g_qq):
    """Larger eigenvalue of a unit-determinant metric from its trace."""
    tr = np.asarray(g_pp) + np.asarray(g_qq)
    return 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0, 0.0)))


def divergence_window(params: SwansonParams, z0: RealState, step: float, n_steps: int):
    """Grid indices between which an identity-seeded run must stop, from the closed form.

    The upper index is the first grid time at which the closed form crosses
    BLOWUP_THRESHOLD (metric eigenvalue or centre norm), or lies in a blow-up
    window; None if it never does.  The lower index is the first grid time at
    which the exact state is no longer finite (the survival probability
    overflows first), since the integrator also stops on a non-finite state.
    Returns (lower, upper, closed-form rows before upper).
    """
    times = step * np.arange(n_steps + 1)
    k_window = None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ref = closed_series(params, z0, times)
        except DivergenceError as exc:
            k_window = int(np.searchsorted(times, exc.time))
            ref = closed_series(params, z0, times[:k_window])
    over = (_g_plus(ref[:, 2], ref[:, 4]) > BLOWUP_THRESHOLD) | (np.hypot(ref[:, 0], ref[:, 1]) > BLOWUP_THRESHOLD)
    upper = int(np.argmax(over)) if over.any() else k_window
    if upper is None:
        return None, None, ref
    ref = ref[:upper]
    bad = ~np.isfinite(ref).all(axis=1)
    lower = int(np.argmax(bad)) if bad.any() else upper
    return lower, upper, ref


def _check_divergence_time(t_div: float, window: tuple, step: float):
    lower, upper = window
    _require(upper is not None, f"run diverged at t = {t_div:.6g} but the closed form stays below threshold")
    k = t_div / step
    _require(lower - DIVERGENCE_STEPS_TOL <= k <= upper + DIVERGENCE_STEPS_TOL,
             f"divergence at step {k:.2f}, closed form leaves the finite range at step {lower} "
             f"and crosses the threshold at step {upper}")


def _read_simulate_csv(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        _require(header == CSV_HEADER, f"unexpected CSV header {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _check_eigen_columns(rows: np.ndarray, g_ref: np.ndarray):
    """g_plus, g_minus and phi against the oracle metric rows (g_pp, g_pq, g_qq).

    Checked at the row tolerance but kept out of accuracy_digits: near the
    isotropic metric the CLI's eigenvalue formula loses digits to cancellation
    in tr^2 - 4, so the deviation there depends on how close a seed's grid
    times come to isotropy rather than on the engine.
    """
    g_pp, g_pq, g_qq = g_ref.T
    # well-conditioned split |g_plus - g_minus| = sqrt((g_pp - g_qq)^2 + 4 g_pq^2)
    gp_ref = 0.5 * (g_pp + g_qq + np.hypot(g_pp - g_qq, 2.0 * g_pq))
    gp, gm, phi = rows[:, 7], rows[:, 8], rows[:, 9]
    c, s = np.cos(phi), np.sin(phi)
    # phi alone is ill-conditioned near the isotropic metric; check the metric it rebuilds
    rebuilt = np.stack([gp * c * c + gm * s * s, (gp - gm) * s * c, gp * s * s + gm * c * c], axis=1)
    dev = max(_rel_dev(gp, gp_ref), _rel_dev(gm, 1.0 / gp_ref), _rel_dev(rebuilt, g_ref))
    _require(dev <= TOL["G"], f"eigen columns deviate by {dev:.3e} from the closed-form metric")


def metric_series(params: SwansonParams, g0: Metric, times: np.ndarray) -> np.ndarray:
    """Closed-form metric rows (g_pp, g_pq, g_qq) for any initial metric, on an array of times.

    Vectorized form of closed_form.metric_closed: the doubled flow
    exp(A t) = cos(wt) I + sin(wt)/w A acts on G0 by (pp G0 + pq)(qp G0 + qq)^-1.
    """
    a = doubled_generator(swanson_hamiltonian(params))
    wt = params.omega * np.asarray(times, dtype=float)
    flow = np.cos(wt)[:, None, None] * np.eye(4) + (np.sin(wt) / params.omega)[:, None, None] * a
    m0 = g0.matrix
    g = (flow[:, :2, :2] @ m0 + flow[:, :2, 2:]) @ np.linalg.inv(flow[:, 2:, :2] @ m0 + flow[:, 2:, 2:])
    return np.stack([g[:, 0, 0], 0.5 * (g[:, 0, 1] + g[:, 1, 0]), g[:, 1, 1]], axis=1)


def check_simulate(inv: Invocation, path: str, exit_code: int) -> Verdict:
    x = inv.inputs
    params = SwansonParams(x["omega0"], x["delta"])
    z0 = RealState(x["p0"], x["q0"])
    step = params.period / STEPS_PER_PERIOD
    n_steps = int(round(x["periods"] * params.period / step))
    _require(exit_code == inv.expected_exit, f"exit {exit_code}, expected {inv.expected_exit}")
    data = _read_simulate_csv(path)
    flags = data[:, 11]
    if inv.expected_exit == 3:
        _require(flags[-1] == 1.0 and not flags[:-1].any(), "divergence row missing or misplaced")
        rows = data[:-1]
    else:
        _require(not flags.any() and len(data) == n_steps + 1, f"{len(data)} rows, expected {n_steps + 1}")
        rows = data
    t = rows[:, 0]
    _require(_rel_dev(t, step * np.arange(len(rows))) <= TIME_TOL, "time column off the step grid")
    _require(_rel_dev(rows[:, 1], t / params.period) <= TIME_TOL, "t_per_T column wrong")

    if x["b0"] is None:
        lower, upper, ref = divergence_window(params, z0, step, n_steps)
        if inv.expected_exit == 0:
            _require(upper is None, "closed form crosses the threshold in a bounded run")
        else:
            _check_divergence_time(data[-1, 0], (lower, upper), step)
            m = min(len(rows), len(ref))
            sel = (_g_plus(ref[:m, 2], ref[:m, 4]) <= ROW_CHECK_MAX_G_PLUS) & np.isfinite(ref[:m]).all(axis=1)
            rows, ref = rows[:m][sel], ref[:m][sel]
        dev = _rel_dev(rows[:, [2, 3, 4, 5, 6, 10]], ref)
        _check_eigen_columns(rows, ref[:, 2:5])
    else:
        b0 = complex(x["b0"])
        g_ref = metric_series(params, metric_from_b(b0), t)
        dev = _rel_dev(rows[:, 4:7], g_ref)
        _check_eigen_columns(rows, g_ref)
        # centre and norm through the exact Gaussian route, on a stride of rows
        model = swanson_hamiltonian(params)
        state0 = GaussianState(z=ComplexState(complex(z0.P), complex(z0.Q)), b=b0)
        for k in range(0, len(rows), GAUSSIAN_ROW_STRIDE):
            st = evolve_state(model, state0, float(t[k]), num_nodes=GAUSSIAN_NODES)
            zr = project_expectations(st.z, st.b)
            dev = max(dev, _rel_dev(rows[k, [2, 3, 10]], [zr.P, zr.Q, gaussian_norm(st)]))
    _require(dev <= TOL["Z"], f"largest deviation from the closed form {dev:.3e} exceeds {TOL['Z']:.0e}")
    # rows near a pole measure how fixed-step RK4 approaches it, not the engine's accuracy
    return Verdict(True, deviation=dev if inv.expected_exit == 0 else None)


def check_sweep(inv: Invocation, path: str, exit_code: int) -> Verdict:
    x = inv.inputs
    _require(exit_code == 0, f"exit {exit_code}, expected 0")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(lines[0] == "delta,label,diverged,divergence_time,max_g_plus", "unexpected sweep header")
    _require(len(lines) == SWEEP_POINTS + 1, f"{len(lines) - 1} sweep rows, expected {SWEEP_POINTS}")
    z0 = RealState(x["p0"], x["q0"])
    dev = 0.0
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        delta = float(cells[0])
        _require(abs(delta - (x["delta_min"] + k * x["delta_step"])) <= TIME_TOL, f"row {k}: delta {delta}")
        params = SwansonParams(x["omega0"], delta)
        expected = classify_metric(params, Metric.identity(), band=DEFAULT_BAND).value
        _require(cells[1] == expected, f"delta {delta}: label {cells[1]}, classify_metric gives {expected}")
        step = params.period / STEPS_PER_PERIOD
        lower, upper, ref = divergence_window(params, z0, step, STEPS_PER_PERIOD)
        diverged = cells[2] == "1"
        _require(not (cells[1] == "bounded" and diverged), f"delta {delta}: bounded label but diverged")
        _require(not (cells[1] == "divergent" and not diverged), f"delta {delta}: divergent label but bounded run")
        max_g_plus = float(cells[4])
        _require(math.isfinite(max_g_plus) and max_g_plus >= 1.0, f"delta {delta}: max_g_plus {cells[4]}")
        if diverged:
            _check_divergence_time(float(cells[3]), (lower, upper), step)
        else:
            _require(upper is None, f"delta {delta}: closed form diverges but the run did not")
            # the CLI takes g_plus on every (len // 200)-th row
            sampled = ref[:: max(1, len(ref) // 200)]
            dev = max(dev, _rel_dev(max_g_plus, _g_plus(sampled[:, 2], sampled[:, 4]).max()))
    _require(dev <= TOL["G"], f"max_g_plus deviation {dev:.3e} exceeds {TOL['G']:.0e}")
    return Verdict(True, deviation=dev)


def check_classify(inv: Invocation, path: str, exit_code: int) -> Verdict:
    x = inv.inputs
    _require(exit_code == 0, f"exit {exit_code}, expected 0")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    res = x["resolution"]
    _require(doc["resolution"] == res and doc["band"] == DEFAULT_BAND, "grid settings not echoed")
    re_range, im_range = (x["re_min"], x["re_max"]), (x["im_min"], x["im_max"])
    _require(doc["re_range"] == list(re_range) and doc["im_range"] == list(im_range), "ranges not echoed")
    labels = np.array(doc["labels"])
    _require(labels.shape == (res * res,), f"{labels.size} labels, expected {res * res}")
    _require(set(np.unique(labels)) <= {"bounded", "divergent", "boundary"}, "unknown label")
    # a seeded sample of grid points outside the band, against the dynamical probe
    params = SwansonParams(x["omega0"], x["delta"])
    re_vals, im_vals = grid_axes(re_range, im_range, res)
    rng = random.Random(" ".join(inv.argv))
    idx = np.array(rng.sample(range(res * res), REGION_SAMPLES))
    idx = idx[labels[idx] != "boundary"]
    b = re_vals[idx % res] + 1j * im_vals[idx // res]
    model = swanson_hamiltonian(params)
    hits = np.concatenate([blowup_detected(model, chunk, params.period) for chunk in np.array_split(b, 4)])
    mismatches = int((hits != (labels[idx] == "divergent")).sum())
    _require(mismatches == 0, f"{mismatches} of {len(idx)} sampled labels disagree with the blow-up probe")
    # resolution-limited: no mismatch among n points bounds the error share by 1/n
    return Verdict(True, deviation=1.0 / len(idx))


def _pole_time(params: SwansonParams) -> float:
    """Analytic first blow-up time of the identity-seeded flow, |delta| >= omega0."""
    w, d = params.omega, params.delta
    return math.acos(max(-1.0, 1.0 - w * w / (d * d))) / (2.0 * w)


def check_validate(inv: Invocation, path: str, exit_code: int) -> Verdict:
    x = inv.inputs
    params = SwansonParams(x["omega0"], x["delta"])
    step = params.period / STEPS_PER_PERIOD
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    _require(rep["params"] == {"omega0": x["omega0"], "delta": x["delta"]}, "params not echoed")
    _require(rep["pass"] == (not rep["failures"]) and exit_code == (0 if rep["pass"] else 4),
             f"exit {exit_code} inconsistent with pass={rep['pass']}")
    if abs(params.delta) >= params.omega0:
        _require(rep["pass"], f"supercritical validate failed: {rep['failures']}")
        div = rep["divergence"]
        pole = _pole_time(params)
        _require(abs(div["closed_form_time"] - pole) <= TIME_TOL * pole, "closed-form pole time wrong")
        lower, upper, _ = divergence_window(params, RealState(1.0, 0.0), step, STEPS_PER_PERIOD)
        _check_divergence_time(div["ode_time"], (lower, upper), step)
        return Verdict(True)
    errors = rep["max_errors"]
    dev = max(errors.values())
    order = rep["convergence_order"]
    if not rep["pass"] and inv.name == "near_critical":
        _require(all(f.startswith(NEAR_CRITICAL_FAILURE_KEYS) for f in rep["failures"]),
                 f"near-critical validate failed outside its documented mode: {rep['failures']}")
        return Verdict(True, message="; ".join(rep["failures"]), deviation=dev, known_failure=True)
    _require(rep["pass"], f"validate failed: {rep['failures']}")
    for key, tol in TOL.items():
        _require(errors[key] <= tol, f"{key} error {errors[key]:.3e} exceeds {tol:.0e}")
    _require(ORDER_RANGE[0] <= order <= ORDER_RANGE[1], f"convergence order {order:.3f}")
    return Verdict(True, deviation=dev)


CHECKS = {
    "simulate": check_simulate,
    "sweep": check_sweep,
    "classify": check_classify,
    "validate": check_validate,
}


def check(inv: Invocation, path: str, exit_code: int) -> Verdict:
    """Check one invocation's exit code and output file; never raises on bad output."""
    try:
        return CHECKS[inv.argv[0]](inv, path, exit_code)
    except CheckFailure as exc:
        return Verdict(False, f"{inv.name}: {exc}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(False, f"{inv.name}: unreadable output ({type(exc).__name__}: {exc})")
