import math
import warnings

import numpy as np
import pytest

from swansim import _kernels
from swansim import (
    Metric,
    MetriplecticState,
    QuadraticHamiltonian,
    RealState,
    SwansonParams,
    closed_series,
    integrate,
    swanson_hamiltonian,
)
from swansim.model import OMEGA
from swansim.ode import BLOWUP_THRESHOLD

PARAMS = SwansonParams(1.0, 0.5)
MODEL = swanson_hamiltonian(PARAMS)
UNIT_INIT = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)


def random_model(rng) -> QuadraticHamiltonian:
    def sym():
        m = rng.normal(size=(2, 2))
        return 0.5 * (m + m.T)

    return QuadraticHamiltonian(
        hess_h=sym(),
        hess_gamma=sym(),
        const_h=rng.normal(),
        const_gamma=rng.normal(),
    )


# The coupled flow in matrix form: the reference for the RK4 kernel's inline
# right-hand side, written independently of it.


def rhs_state(model: QuadraticHamiltonian, z: RealState, g: Metric) -> np.ndarray:
    """Centre velocity: symplectic gradient of H minus metric gradient of Gamma."""
    zv = z.array
    return OMEGA @ model.hess_h @ zv - np.linalg.inv(g.matrix) @ model.hess_gamma @ zv


def rhs_metric(model: QuadraticHamiltonian, g: Metric) -> np.ndarray:
    """Metric velocity; symmetric, and trace(G^-1 Gdot) = 0 so det G is conserved."""
    gm = g.matrix
    m = model.hess_h @ OMEGA @ gm
    return m + m.T + model.hess_gamma - gm @ OMEGA.T @ model.hess_gamma @ OMEGA @ gm


def rhs_norm(model: QuadraticHamiltonian, z: RealState, g: Metric, n: float) -> float:
    """Survival-probability rate -(2 Gamma(Z) + tr(Omega^T Gamma'' Omega G)/2) n."""
    zv = z.array
    gamma = 0.5 * zv @ model.hess_gamma @ zv + model.const_gamma
    return -(2.0 * gamma + 0.5 * np.trace(OMEGA.T @ model.hess_gamma @ OMEGA @ g.matrix)) * n


def rk4_step(model: QuadraticHamiltonian, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of the matrix-form flow on y = (P, Q, g_pp, g_pq, g_qq, n)."""

    def rate(y):
        z, g = RealState(y[0], y[1]), Metric(y[2], y[3], y[4])
        gdot = rhs_metric(model, g)
        return np.array([*rhs_state(model, z, g), gdot[0, 0], gdot[0, 1], gdot[1, 1], rhs_norm(model, z, g, y[5])])

    k1 = rate(y)
    k2 = rate(y + 0.5 * h * k1)
    k3 = rate(y + 0.5 * h * k2)
    k4 = rate(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_run(model: QuadraticHamiltonian, y0: np.ndarray, h: float, n_steps: int) -> tuple[np.ndarray, int]:
    """Matrix-form RK4 with integrate's contract: (rows, stop), stop = -1 or the first divergent step.

    After each step det G -> 1 while tr G < 1e3; a step is divergent if it is
    non-finite, loses positive-definiteness, or has a metric eigenvalue or
    centre norm over BLOWUP_THRESHOLD.
    """
    rows = [y0]
    for k in range(1, n_steps + 1):
        try:
            y = rk4_step(model, rows[-1], h)
        except np.linalg.LinAlgError:  # a stage met a singular metric
            return np.array(rows), k
        if not np.isfinite(y).all() or y[2] <= 0.0 or y[4] <= 0.0:
            return np.array(rows), k
        if y[2] + y[4] < 1e3:
            det = y[2] * y[4] - y[3] * y[3]
            if det <= 0.0:
                return np.array(rows), k
            y[2:5] /= math.sqrt(det)
        g_plus = np.linalg.eigvalsh(Metric(y[2], y[3], y[4]).matrix).max()
        if max(g_plus, math.hypot(y[0], y[1])) > BLOWUP_THRESHOLD:
            return np.array(rows), k
        rows.append(y)
    return np.array(rows), -1


# bounded runs for the whole-run pin: (model, G0, period)
BOUNDED_RUNS = {
    "swanson-0.5": (MODEL, Metric.identity(), PARAMS.period),
    "swanson-minus-0.9-g0": (
        swanson_hamiltonian(SwansonParams(1.0, -0.9)), Metric(2.0, 0.6, 0.68), SwansonParams(1.0, -0.9).period
    ),
    # positive-definite H'' and Gamma'', with a constant rate: damped; the period is that of H alone
    "general-damped": (
        QuadraticHamiltonian(hess_h=[[1.2, 0.3], [0.3, 0.8]], hess_gamma=[[0.2, 0.05], [0.05, 0.1]], const_gamma=-0.3),
        Metric.identity(),
        2.0 * math.pi / math.sqrt(1.2 * 0.8 - 0.3 * 0.3),
    ),
}


class TestRightHandSides:
    def test_state_hamiltonian_flow(self):
        model = QuadraticHamiltonian(hess_h=np.eye(2), hess_gamma=np.zeros((2, 2)))
        zdot = rhs_state(model, RealState(1.0, 0.0), Metric.identity())
        assert zdot == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_state_swanson_value(self):
        zdot = rhs_state(MODEL, RealState(1.0, 0.0), Metric.identity())
        assert zdot == pytest.approx([0.0, 0.5], abs=1e-15)

    def test_state_finite_difference_of_closed_form(self):
        eps = 1e-6
        rows = closed_series(PARAMS, RealState(1.0, 0.0), np.array([0.0, eps]))
        fd = (rows[1, :2] - rows[0, :2]) / eps
        zdot = rhs_state(MODEL, RealState(1.0, 0.0), Metric.identity())
        assert zdot == pytest.approx(fd, abs=1e-5)

    def test_state_origin_fixed_point(self):
        assert rhs_state(MODEL, RealState(0.0, 0.0), Metric.identity()) == pytest.approx([0.0, 0.0])

    def test_metric_hermitian_identity_fixed_point(self):
        model = swanson_hamiltonian(SwansonParams(1.0, 0.0))
        assert np.allclose(rhs_metric(model, Metric.identity()), 0.0, atol=1e-15)

    def test_metric_swanson_initial_rate(self):
        gdot = rhs_metric(MODEL, Metric.identity())
        assert np.allclose(gdot, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_metric_finite_difference_of_closed_form(self):
        eps = 1e-6
        rows = closed_series(PARAMS, RealState(1.0, 0.0), np.array([0.0, eps]))
        fd = (rows[1, 2:5] - rows[0, 2:5]) / eps
        gdot = rhs_metric(MODEL, Metric.identity())
        assert [gdot[0, 0], gdot[0, 1], gdot[1, 1]] == pytest.approx(fd, abs=1e-5)

    def test_metric_preserves_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_model(rng)
            g_pp = rng.uniform(0.3, 3.0)
            g_pq = rng.uniform(-1.5, 1.5)
            g = Metric(g_pp, g_pq, (1.0 + g_pq**2) / g_pp)
            gdot = rhs_metric(model, g)
            g_inv = np.linalg.inv(g.matrix)
            assert abs(np.trace(g_inv @ gdot)) < 1e-10

    def test_norm_hermitian_limit(self):
        model = swanson_hamiltonian(SwansonParams(1.0, 0.0))
        assert rhs_norm(model, RealState(1.0, 1.0), Metric.identity(), 1.0) == 0.0

    def test_norm_diagonal_initial_point(self):
        assert rhs_norm(MODEL, RealState(1.0, 1.0), Metric.identity(), 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_norm_vanishes_on_axis_with_isotropic_metric(self):
        assert rhs_norm(MODEL, RealState(1.0, 0.0), Metric.identity(), 1.0) == 0.0

    def test_norm_swanson_reduction(self):
        # the general trace formula must reduce to delta*(-2 P Q + g_pq) n
        rng = np.random.default_rng(5)
        for _ in range(30):
            P, Q = rng.normal(size=2)
            g_pp = rng.uniform(0.3, 3.0)
            g_pq = rng.uniform(-1.5, 1.5)
            g = Metric(g_pp, g_pq, (1.0 + g_pq**2) / g_pp)
            n = rng.uniform(0.2, 3.0)
            got = rhs_norm(MODEL, RealState(P, Q), g, n)
            assert got == pytest.approx(PARAMS.delta * (-2.0 * P * Q + g_pq) * n, rel=1e-12, abs=1e-12)

    def test_norm_finite_difference_of_closed_form(self):
        # oracle: centred difference of the closed-form survival probability
        z0 = RealState(1.0, 0.7)
        eps = 1e-6
        for t in (0.3, 1.1, 2.9):
            rows = closed_series(PARAMS, z0, np.array([t - eps, t, t + eps]))
            fd = (rows[2, 5] - rows[0, 5]) / (2.0 * eps)
            got = rhs_norm(
                MODEL,
                RealState(rows[1, 0], rows[1, 1]),
                Metric(rows[1, 2], rows[1, 3], rows[1, 4]),
                rows[1, 5],
            )
            assert got == pytest.approx(fd, rel=1e-7, abs=1e-7)


class TestIntegrate:
    def test_one_period_matches_closed_form(self):
        step = PARAMS.period / 10_000
        traj = integrate(MODEL, UNIT_INIT, PARAMS.period, step)
        assert traj.divergence_time is None
        ref = closed_series(PARAMS, RealState(1.0, 0.0), traj.times)
        assert np.abs(traj.values - ref).max() < 1e-6
        final = traj.final
        assert abs(final.Z.P - 1.0) < 1e-6 and abs(final.Z.Q) < 1e-6
        assert abs(final.n - 1.0) < 1e-6

    def test_hermitian_constants_over_ten_periods(self):
        params = SwansonParams(1.0, 0.0)
        model = swanson_hamiltonian(params)
        traj = integrate(model, UNIT_INIT, 10.0 * params.period, params.period / 10_000)
        assert np.abs(traj.values[:, 2:5] - [1.0, 0.0, 1.0]).max() < 1e-8
        assert np.abs(traj.values[:, 5] - 1.0).max() < 1e-8

    def test_critical_divergence_time(self):
        params = SwansonParams(1.0, 1.0)
        step = params.period / 10_000
        traj = integrate(swanson_hamiltonian(params), UNIT_INIT, params.period, step)
        assert traj.divergence_time is not None
        assert abs(traj.divergence_time - math.pi / (2.0 * params.omega)) <= 2.0 * step
        # retained states stop at the divergence time
        assert traj.times[-1] < traj.divergence_time
        assert np.isfinite(traj.values).all()

    def test_det_drift_is_recorded_and_small(self):
        step = PARAMS.period / 10_000
        traj = integrate(MODEL, UNIT_INIT, PARAMS.period, step)
        assert 0.0 < traj.det_drift < 1e-7

    def test_renormalization_keeps_unit_determinant(self):
        traj = integrate(MODEL, UNIT_INIT, PARAMS.period, PARAMS.period / 2_000)
        det = traj.values[:, 2] * traj.values[:, 4] - traj.values[:, 3] ** 2
        assert np.abs(det - 1.0).max() < 1e-12

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            integrate(MODEL, UNIT_INIT, 1.0, 0.0)

    @pytest.mark.parametrize("steps_coarse", [100, 200, 400, 800])
    def test_fourth_order_convergence(self, steps_coarse):
        # halving the step must cut the error by about 2^4
        err = {}
        for n in (steps_coarse, 2 * steps_coarse):
            step = PARAMS.period / n
            traj = integrate(MODEL, UNIT_INIT, PARAMS.period, step)
            ref = closed_series(PARAMS, RealState(1.0, 0.0), traj.times)
            err[n] = np.abs(traj.values - ref).max()
        ratio = err[steps_coarse] / err[2 * steps_coarse]
        assert 11.0 < ratio < 23.0

    def test_one_step_matches_matrix_form_rk4(self):
        # the kernel's inline right-hand side against the matrix form, on random models
        rng = np.random.default_rng(41)
        for _ in range(20):
            model = random_model(rng)
            g_pp, g_pq = rng.uniform(0.3, 3.0), rng.uniform(-1.5, 1.5)
            y0 = np.array([*rng.uniform(-1.0, 1.0, size=2), g_pp, g_pq, (1.0 + g_pq**2) / g_pp, rng.uniform(0.2, 3.0)])
            init = MetriplecticState(Z=RealState(y0[0], y0[1]), G=Metric(*y0[2:5]), n=y0[5])
            h = rng.uniform(0.01, 0.1)
            traj = integrate(model, init, h, h)
            assert traj.divergence_time is None and len(traj.values) == 2
            rows, stop = rk4_run(model, y0, h, 1)
            assert stop == -1
            ref = rows[1]
            assert np.abs(traj.values[1] - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name", BOUNDED_RUNS)
    def test_run_matches_matrix_form_rk4(self, name):
        # a whole period at T/1000: renormalization and row writes of every step, not only the first
        model, g0, period = BOUNDED_RUNS[name]
        init = MetriplecticState(Z=RealState(1.0, 0.3), G=g0, n=1.0)
        traj = integrate(model, init, period, period / 1000)
        rows, stop = rk4_run(model, np.array([1.0, 0.3, g0.g_pp, g0.g_pq, g0.g_qq, 1.0]), period / 1000, 1000)
        assert stop == -1 and traj.divergence_time is None and traj.values.shape == rows.shape
        assert (np.abs(traj.values - rows) <= 1e-10 * np.maximum(1.0, np.abs(rows))).all()

    @pytest.mark.parametrize("delta", [1.2, -1.1])
    def test_supercritical_stop_matches_matrix_form_rk4(self, delta):
        params = SwansonParams(1.0, delta)
        step = params.period / 1000
        traj = integrate(swanson_hamiltonian(params), UNIT_INIT, params.period, step)
        rows, stop = rk4_run(swanson_hamiltonian(params), np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0]), step, 1000)
        assert stop > 0 and traj.divergence_time == stop * step and len(traj.values) == stop
        # past tr G = 1e3 the metric is ill-conditioned and rounding differences grow (measured 1e-9)
        moderate = rows[:, 2] + rows[:, 4] < 1e3
        assert (np.abs(traj.values - rows)[moderate] <= 1e-10 * np.maximum(1.0, np.abs(rows[moderate]))).all()

    def test_zero_determinant_stops_at_step_one(self):
        # stage 1 divides by det G = 0; numpy would give inf or nan, the float kernel stops without a warning
        y0 = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 1.0])
        out = np.full((4, 6), 7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _kernels.metriplectic_rk4(np.eye(2), np.zeros((2, 2)), 0.0, y0, 0.1, 3, BLOWUP_THRESHOLD, out) == (1, 0.0)
        assert np.array_equal(out[0], y0)


def test_integrate_refuses_indefinite_initial_metric():
    # Metric checks only the diagonal; a det <= 0 start would otherwise stop at step 1 as a fake divergence
    for g in (Metric(1.0, 2.0, 1.0), Metric(1.0, 1.0, 1.0)):
        init = MetriplecticState(Z=RealState(1.0, 0.0), G=g, n=1.0)
        with pytest.raises(ValueError, match="det = .* <= 0"):
            integrate(MODEL, init, 1.0, 0.1)
