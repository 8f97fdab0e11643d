"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one PASS/FAIL line (run pytest -s to see them inline).
"""

import math
import time

import numpy as np

from swansim import (
    ComplexState,
    GaussianState,
    Metric,
    MetriplecticState,
    RealState,
    RegionLabel,
    SwansonParams,
    blowup_detected,
    classify_b,
    closed_series,
    doubled_generator,
    evaluate_wavefunction,
    evolve_b,
    evolve_state,
    gaussian_norm,
    integrate,
    metric_closed,
    riccati_direct,
    spectral_data,
    survival_closed,
    swanson_hamiltonian,
)
from swansim.geometry import grid_axes

PARAMS = SwansonParams(1.0, 0.5)
MODEL = swanson_hamiltonian(PARAMS)
Z0 = RealState(1.0, 0.0)
UNIT_INIT = MetriplecticState(Z=Z0, G=Metric.identity(), n=1.0)


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {number:2d}: {status}  ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_closed_vs_ode():
    step = PARAMS.period / 10_000
    start = time.perf_counter()
    traj = integrate(MODEL, UNIT_INIT, PARAMS.period, step)
    ref = closed_series(PARAMS, Z0, traj.times)
    diff = np.abs(traj.values - ref)
    elapsed = time.perf_counter() - start
    err_z = diff[:, :2].max()
    err_g = diff[:, 2:5].max()
    err_n = diff[:, 5].max()
    ok = err_z < 1e-6 and err_g < 1e-6 and err_n < 1e-6 and elapsed < 1.0
    report(1, ok, f"errZ={err_z:.2e} errG={err_g:.2e} errn={err_n:.2e} runtime={elapsed:.3f}s")


def test_criterion_2_periodicity():
    step = PARAMS.period / 10_000
    traj = integrate(MODEL, UNIT_INIT, PARAMS.period, step)
    final = traj.values[-1]
    ode_z = math.hypot(final[0] - 1.0, final[1] - 0.0)
    ode_n = abs(final[5] - 1.0)
    closed = closed_series(PARAMS, Z0, np.array([PARAMS.period]))[0]
    cl_z = math.hypot(closed[0] - 1.0, closed[1] - 0.0)
    cl_n = abs(closed[5] - 1.0)
    ok = ode_z < 1e-6 and ode_n < 1e-6 and cl_z < 1e-6 and cl_n < 1e-6
    report(2, ok, f"|dZ| ode={ode_z:.2e} closed={cl_z:.2e}; |n-1| ode={ode_n:.2e} closed={cl_n:.2e}")


def test_criterion_3_quarter_period_metric():
    t_quarter = math.pi / (2.0 * PARAMS.omega)
    g = metric_closed(PARAMS, Metric.identity(), t_quarter)
    err_closed = max(abs(g.g_pp - 1.0 / 3.0), abs(g.g_pq), abs(g.g_qq - 3.0))
    step = PARAMS.period / 10_000
    traj = integrate(MODEL, UNIT_INIT, PARAMS.period, step)
    k = int(round(t_quarter / step))
    row = traj.values[k]
    err_ode = max(abs(row[2] - 1.0 / 3.0), abs(row[3]), abs(row[4] - 3.0))
    ok = err_closed < 1e-8 and err_ode < 1e-8
    report(3, ok, f"closed err={err_closed:.2e}, rk4 err={err_ode:.2e}")


def test_criterion_4_generator_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        params = SwansonParams(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
        a = doubled_generator(swanson_hamiltonian(params))
        worst = max(worst, np.abs(a @ a + params.omega**2 * np.eye(4)).max())
    ok = worst < 1e-12
    report(4, ok, f"max |(A)^2 + w^2 I| = {worst:.2e} over 20 random parameter sets")


def test_criterion_5_critical_divergence():
    params = SwansonParams(1.0, 1.0)
    step = params.period / 10_000
    traj = integrate(swanson_hamiltonian(params), UNIT_INIT, params.period, step)
    expected = math.pi / (2.0 * params.omega)
    ok = traj.divergence_time is not None and abs(traj.divergence_time - expected) <= 2.0 * step
    detail = f"t_div={traj.divergence_time}, pole={expected:.6f}, tol={2.0 * step:.2e}"
    report(5, ok, detail)


def test_criterion_6_ground_state_fixed_point():
    b_ground = spectral_data(PARAMS).ground_b
    worst = max(
        abs(evolve_b(MODEL, b_ground, float(t)) - b_ground)
        for t in np.linspace(0.0, PARAMS.period, 101)
    )
    ok = worst < 1e-9
    report(6, ok, f"max |b(t) - b_ground| = {worst:.2e} over one period")


def _grid_margins(params, re_vals, im_vals):
    grid_b = (re_vals[None, :] + 1j * im_vals[:, None]).ravel()
    if params.delta > 0:
        margin = grid_b.imag - params.delta / params.omega0
    else:
        radius = params.omega0 / (2.0 * abs(params.delta))
        margin = radius - np.abs(grid_b - 1j * radius)
    return grid_b, margin


def test_criterion_7_region_reproduction():
    start = time.perf_counter()
    re_vals, im_vals = grid_axes((-2.0, 2.0), (0.05, 2.0), 41)
    total_checked = 0
    disagreements = 0
    for delta in (0.5, -0.5):
        params = SwansonParams(1.0, delta)
        model = swanson_hamiltonian(params)
        grid_b, margin = _grid_margins(params, re_vals, im_vals)
        off_band = np.abs(margin) > 0.02
        analytic = np.array(
            [classify_b(params, complex(b)) is RegionLabel.DIVERGENT for b in grid_b]
        )
        dynamic = blowup_detected(model, grid_b, params.period)
        total_checked += int(off_band.sum())
        disagreements += int((analytic[off_band] != dynamic[off_band]).sum())
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 30.0
    report(7, ok, f"{disagreements} disagreements over {total_checked} off-band points, runtime={elapsed:.2f}s")


def test_criterion_8_mobius_riccati_equivalence():
    rng = np.random.default_rng(8)
    step = PARAMS.period / 40_000
    worst = 0.0
    for _ in range(20):
        b0 = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.55, 2.5))
        direct = riccati_direct(MODEL, b0, PARAMS.period, step)
        for k in range(0, 40_001, 2_000):
            worst = max(worst, abs(evolve_b(MODEL, b0, k * step) - direct[k]))
    ok = worst < 1e-8
    report(8, ok, f"max |b_mobius - b_riccati| = {worst:.2e} for 20 random widths")


def test_criterion_9_geometric_invariants():
    worst_h = worst_p = 0.0
    for delta, g0 in ((0.5, Metric.identity()), (0.5, Metric(1.5, 0.4, (1 + 0.4**2) / 1.5)), (0.9, Metric.identity())):
        params = SwansonParams(1.0, delta)
        x0 = 0.5 * (g0.g_qq - g0.g_pp)
        z0 = 0.5 * (g0.g_pp + g0.g_qq)
        scale = z0 / (params.omega0 + params.delta * x0)
        for t in np.linspace(0.0, params.period, 257):
            g = metric_closed(params, g0, float(t))
            x = 0.5 * (g.g_qq - g.g_pp)
            y = g.g_pq
            z = 0.5 * (g.g_pp + g.g_qq)
            worst_h = max(worst_h, abs(z * z - x * x - y * y - 1.0))
            worst_p = max(worst_p, abs(z - scale * (params.omega0 + params.delta * x)))
    ok = worst_h < 1e-9 and worst_p < 1e-9
    report(9, ok, f"hyperboloid drift={worst_h:.2e}, plane drift={worst_p:.2e}")


def test_criterion_10_norm_consistency():
    state = GaussianState.coherent(Z0)
    worst_route = 0.0
    for frac in np.linspace(0.05, 1.0, 20):
        t = float(frac) * PARAMS.period
        out = evolve_state(MODEL, state, t, num_nodes=2001)
        worst_route = max(worst_route, abs(gaussian_norm(out) - survival_closed(PARAMS, Z0, t)))

    rng = np.random.default_rng(10)
    x = np.linspace(-40.0, 40.0, 100_001)
    worst_quad = 0.0
    for _ in range(20):
        # moderate imaginary parts keep the norm O(1), where an absolute
        # 1e-8 comparison against grid quadrature is meaningful
        rand_state = GaussianState(
            z=ComplexState(*(rng.uniform(-2.0, 2.0, size=2) + 1j * rng.uniform(-0.5, 0.5, size=2))),
            b=complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.0)),
            gamma=complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)),
        )
        psi = evaluate_wavefunction(rand_state, x)
        worst_quad = max(worst_quad, abs(gaussian_norm(rand_state) - np.trapezoid(np.abs(psi) ** 2, x)))
    ok = worst_route < 1e-6 and worst_quad < 1e-8
    report(10, ok, f"phase-route err={worst_route:.2e}, quadrature err={worst_quad:.2e}")


def test_criterion_11_rk4_convergence_order():
    errors = []
    steps = []
    for n in (100, 200, 400, 800, 1600, 3200, 10_000):
        step = PARAMS.period / n
        traj = integrate(MODEL, UNIT_INIT, PARAMS.period, step)
        ref = closed_series(PARAMS, Z0, traj.times)
        errors.append(np.abs(traj.values - ref).max())
        steps.append(step)
    order = np.polyfit(np.log(np.array(steps)), np.log(np.array(errors)), 1)[0]
    ok = 3.7 <= order <= 4.3
    report(11, ok, f"fitted order = {order:.3f} over steps T/100 .. T/10^4")


def test_criterion_12_fourier_duality():
    re_vals, im_vals = grid_axes((-2.0, 2.0), (0.05, 2.0), 41)
    params_pos = SwansonParams(1.0, 0.5)
    params_neg = SwansonParams(1.0, -0.5)
    checked = mismatches = 0
    for im in im_vals:
        for re in re_vals:
            b = complex(re, im)
            lab1 = classify_b(params_pos, b)
            lab2 = classify_b(params_neg, -1.0 / b)
            if RegionLabel.BOUNDARY in (lab1, lab2):
                continue
            checked += 1
            mismatches += lab1 is not lab2
    ok = mismatches == 0 and checked > 1000
    report(12, ok, f"{mismatches} label mismatches over {checked} off-band points")
