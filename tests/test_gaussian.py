import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from swansim import (
    ComplexState,
    GaussianState,
    Metric,
    MetriplecticState,
    MobiusPoleError,
    NonNormalizableError,
    QuadraticHamiltonian,
    RealState,
    RegionLabel,
    SwansonParams,
    b_from_metric,
    blowup_detected,
    classify_b,
    closed_series,
    complex_trajectory,
    eta_action,
    evaluate_wavefunction,
    evolve_b,
    evolve_state,
    gaussian_norm,
    integrate,
    mapped_dynamics,
    metric_from_b,
    project_expectations,
    propagate,
    riccati_direct,
    survival_closed,
    swanson_hamiltonian,
)
from swansim.errors import DivergenceError
from swansim.gaussian import POLE_TOL, _flow_entries, _propagate_blocks, _sampled_flow
from swansim.model import OMEGA
from swansim.ode import BLOWUP_THRESHOLD

PARAMS = SwansonParams(1.0, 0.5)
MODEL = swanson_hamiltonian(PARAMS)
# Im B_POLE = delta / omega0: the Möbius denominator of B_POLE is real and first vanishes at T_POLE
B_POLE = 0.3 + 0.5j
T_POLE = (math.pi - math.atan(PARAMS.omega / B_POLE.real)) / PARAMS.omega

upper_half_b = st.builds(
    complex,
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.05, max_value=4.0),
)


def complex_symplectic_flow(model: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Flow matrix S(t) of the complexified Hamiltonian equations, S(0) = I, from the engine's entries."""
    spp, spq, sqp, sqq = _flow_entries(model, t)
    return np.array([[spp, spq], [sqp, sqq]], dtype=complex)


def random_hessian_model(rng) -> QuadraticHamiltonian:
    def sym():
        m = rng.normal(size=(2, 2))
        return 0.5 * (m + m.T)

    return QuadraticHamiltonian(hess_h=sym(), hess_gamma=sym())


def fft_moments(x, psi):
    """Position/momentum moments of a wave function by grid quadrature and FFT."""
    dx = x[1] - x[0]
    norm = np.trapezoid(np.abs(psi) ** 2, x)
    q_mean = np.trapezoid(x * np.abs(psi) ** 2, x) / norm
    q_var = np.trapezoid((x - q_mean) ** 2 * np.abs(psi) ** 2, x) / norm
    k = 2.0 * np.pi * np.fft.fftfreq(len(x), dx)
    psi_k = np.fft.fft(psi) * dx / math.sqrt(2.0 * math.pi)
    w = np.abs(psi_k) ** 2
    p_mean = np.sum(k * w) / np.sum(w)
    p_var = np.sum((k - p_mean) ** 2 * w) / np.sum(w)
    # symmetrized cross moment <(qp+pq)/2> - <q><p> via a spectral derivative
    dpsi = np.fft.ifft(1j * k * np.fft.fft(psi))
    qp = np.trapezoid(np.conj(psi) * x * (-1j) * dpsi, x) / norm
    cov = qp.real - q_mean * p_mean
    return q_mean, p_mean, q_var, p_var, cov


class TestMetricFromB:
    def test_coherent_state(self):
        assert np.allclose(metric_from_b(1j).matrix, np.eye(2), atol=1e-15)

    def test_squeezed_state(self):
        assert np.allclose(metric_from_b(2j).matrix, [[0.5, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_tilted_state(self):
        assert np.allclose(metric_from_b(1 + 1j).matrix, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-15)

    def test_covariances_match_wavefunction_moments(self):
        # oracle: moments of |psi|^2 and of its Fourier transform
        b = 1 + 1j
        x = np.linspace(-25.0, 25.0, 1 << 14)
        psi = evaluate_wavefunction(GaussianState(ComplexState(0.0, 0.0), b), x)
        _, _, q_var, p_var, cov = fft_moments(x, psi)
        g = metric_from_b(b)
        assert q_var == pytest.approx(g.g_pp / 2.0, abs=1e-8)
        assert p_var == pytest.approx(g.g_qq / 2.0, abs=1e-8)
        assert cov == pytest.approx(-g.g_pq / 2.0, abs=1e-8)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(NonNormalizableError):
            metric_from_b(1 - 0.2j)

    def test_rejects_the_real_axis(self):
        # Im b = 0 is not normalizable either, and is refused before a division by it
        with pytest.raises(NonNormalizableError):
            metric_from_b(1 + 0j)

    @given(b=upper_half_b)
    def test_unit_determinant(self, b):
        assert metric_from_b(b).det == pytest.approx(1.0, abs=1e-12)


class TestBFromMetric:
    def test_identity(self):
        assert b_from_metric(Metric.identity()) == 1j

    def test_diagonal(self):
        assert b_from_metric(Metric(1.0 / 3.0, 0.0, 3.0)) == pytest.approx(3j, abs=1e-12)

    @given(b=upper_half_b)
    def test_round_trip(self, b):
        assert b_from_metric(metric_from_b(b)) == pytest.approx(b, abs=1e-12)


class TestComplexSymplecticFlow:
    def test_identity_at_zero(self):
        s = complex_symplectic_flow(MODEL, 0.0)
        assert np.allclose(s, np.eye(2), atol=1e-15)

    def test_swanson_closed_form(self):
        w0, d, w = PARAMS.omega0, PARAMS.delta, PARAMS.omega
        for t in (0.3, 1.7):
            c, s = math.cos(w * t), math.sin(w * t) / w
            expected = np.array([[c + 1j * d * s, -w0 * s], [w0 * s, c - 1j * d * s]])
            assert np.abs(complex_symplectic_flow(MODEL, t) - expected).max() < 1e-13

    def test_reproduces_complex_trajectory(self):
        z0 = ComplexState(0.4 - 0.2j, 1.1 + 0.5j)
        for t in (0.0, 0.9, 3.3):
            s = complex_symplectic_flow(MODEL, t)
            z_lin = s @ z0.array
            z_ref = complex_trajectory(PARAMS, z0, t)
            assert np.abs(z_lin - z_ref.array).max() < 1e-12

    def test_symplectic_property_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_hessian_model(rng)
            for t in (0.1, 0.7, 1.3):
                s = complex_symplectic_flow(model, t)
                assert np.abs(s.T @ OMEGA @ s - OMEGA).max() < 1e-10

    def test_against_rk4_oracle(self):
        rng = np.random.default_rng(23)
        model = random_hessian_model(rng)
        a = OMEGA @ model.hess_complex
        s = np.eye(2, dtype=complex)
        t_end, n = 1.3, 20_000
        h = t_end / n
        for _ in range(n):
            k1 = a @ s
            k2 = a @ (s + 0.5 * h * k1)
            k3 = a @ (s + 0.5 * h * k2)
            k4 = a @ (s + h * k3)
            s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.abs(complex_symplectic_flow(model, t_end) - s).max() < 1e-10


class TestEvolveB:
    def test_zero_time_identity(self):
        assert evolve_b(MODEL, 0.7 + 1.3j, 0.0) == pytest.approx(0.7 + 1.3j, abs=1e-15)

    def test_ground_state_fixed_point(self):
        b_ground = PARAMS.ground_b
        for t in np.linspace(0.0, PARAMS.period, 50):
            assert abs(evolve_b(MODEL, b_ground, float(t)) - b_ground) < 1e-9

    def test_divergent_initial_width_leaves_chart(self):
        # Im(b) = 0.4 < delta/omega0 = 0.5 must leave the normalizable family
        ts = np.linspace(0.0, PARAMS.period, 2001)
        ims = np.array([evolve_b(MODEL, 0.4j, float(t)).imag for t in ts])
        assert ims.min() < 0.0
        assert bool(blowup_detected(MODEL, 0.4j, PARAMS.period))
        assert not bool(blowup_detected(MODEL, 0.6j, PARAMS.period))

    def test_mobius_matches_direct_riccati(self):
        rng = np.random.default_rng(29)
        step = PARAMS.period / 40_000
        n_steps = 40_000
        for _ in range(20):
            b0 = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.6, 2.5))
            direct = riccati_direct(MODEL, b0, PARAMS.period, step)
            for k in range(0, n_steps + 1, 4_000):
                assert abs(evolve_b(MODEL, b0, k * step) - direct[k]) < 1e-8

    def test_riccati_pole_raises_with_the_step_that_left_the_chart(self):
        # RK4 lags the pole: at T_POLE / 10 000 the step in which |b| passes 1e12 begins one ulp
        # after it, so the bracket reaches back one step more
        for divisor in (1000, 4000, 10_000):
            step = T_POLE / divisor
            with pytest.raises(MobiusPoleError) as info:
                riccati_direct(MODEL, B_POLE, 2.0 * T_POLE, step)
            lo, hi = info.value.bracket
            assert type(lo) is float and type(hi) is float
            assert hi == pytest.approx(lo + 2 * step, rel=1e-12), divisor
            assert lo <= T_POLE <= hi, divisor

    @pytest.mark.parametrize("b0", [complex(math.nan, 1.0), complex(math.inf, 1.0)])
    def test_non_finite_riccati_state_leaves_the_chart(self, b0):
        # a NaN state must not flow on: validate's running max(worst, nan) keeps worst and would drop it
        with pytest.raises(MobiusPoleError) as info:
            riccati_direct(MODEL, b0, 1.0, 0.1)
        assert info.value.bracket == (0.0, 0.1)

    def test_metric_route_consistency(self):
        # width flow must reproduce the metric ODE route
        step = PARAMS.period / 10_000
        init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
        traj = integrate(MODEL, init, PARAMS.period, step)
        for k in range(0, len(traj.times), 1_000):
            g = metric_from_b(evolve_b(MODEL, 1j, float(traj.times[k])))
            assert np.abs(
                [g.g_pp - traj.values[k, 2], g.g_pq - traj.values[k, 3], g.g_qq - traj.values[k, 4]]
            ).max() < 1e-6


class TestProjectExpectations:
    def test_real_centre_passthrough(self):
        z = project_expectations(ComplexState(0.3 + 0j, -0.8 + 0j), 0.5 + 2j)
        assert (z.P, z.Q) == pytest.approx((0.3, -0.8), abs=1e-15)

    def test_imaginary_momentum_coherent(self):
        z = project_expectations(ComplexState(1j, 0.0), 1j)
        assert (z.P, z.Q) == pytest.approx((0.0, -1.0), abs=1e-15)

    def test_against_wavefunction_moments(self):
        z = ComplexState(0.2 + 0.3j, -0.4 + 0.1j)
        b = 0.7 + 1.3j
        x = np.linspace(-25.0, 25.0, 1 << 14)
        psi = evaluate_wavefunction(GaussianState(z, b), x)
        q_mean, p_mean, _, _, _ = fft_moments(x, psi)
        expected = project_expectations(z, b)
        assert q_mean == pytest.approx(expected.Q, abs=1e-8)
        assert p_mean == pytest.approx(expected.P, abs=1e-8)

    def test_composition_reproduces_real_trajectory(self):
        z0 = ComplexState(1.0 + 0j, 0.0 + 0j)
        for t in np.linspace(0.0, PARAMS.period, 29):
            z_c = complex_trajectory(PARAMS, z0, float(t))
            b_t = evolve_b(MODEL, 1j, float(t))
            proj = project_expectations(z_c, b_t)
            row = closed_series(PARAMS, RealState(1.0, 0.0), np.array([t]))[0]
            assert proj.P == pytest.approx(row[0], abs=1e-9)
            assert proj.Q == pytest.approx(row[1], abs=1e-9)

    def test_invariance_along_equivalence_directions(self):
        # shifting the complex centre by (Omega G v, v) leaves the projection fixed
        rng = np.random.default_rng(31)
        b = 0.7 + 1.3j
        g = metric_from_b(b).matrix
        for _ in range(20):
            z = ComplexState(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            v = rng.normal(size=2)
            shift = OMEGA @ g @ v + 1j * v
            z_shifted = ComplexState(z.p + shift[0], z.q + shift[1])
            a = project_expectations(z, b)
            c = project_expectations(z_shifted, b)
            assert abs(a.P - c.P) < 1e-10 and abs(a.Q - c.Q) < 1e-10

    def test_rejects_non_normalizable(self):
        with pytest.raises(NonNormalizableError):
            project_expectations(ComplexState(0j, 0j), 1.0 - 0.5j)


class TestPhaseAndNorm:
    def test_zero_model_keeps_phase(self):
        model = QuadraticHamiltonian(hess_h=np.zeros((2, 2)), hess_gamma=np.zeros((2, 2)))
        state = GaussianState(ComplexState(0.4 + 0j, -0.2 + 0j), 0.3 + 1.1j, gamma=0.25 + 0.1j)
        out = evolve_state(model, state, 1.0)
        assert out.gamma == pytest.approx(state.gamma, abs=1e-12)
        assert out.b == pytest.approx(state.b, abs=1e-12)

    def test_hermitian_evolution_preserves_norm(self):
        model = swanson_hamiltonian(SwansonParams(1.0, 0.0))
        state = GaussianState.coherent(RealState(1.0, 0.7))
        for frac in (0.2, 0.7, 1.0):
            out = evolve_state(model, state, frac * 2.0 * math.pi)
            assert abs(out.gamma.imag) < 1e-12
            assert gaussian_norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_ground_state_phase(self):
        # coherent state at the origin picks up exactly the ground-state phase;
        # past t = pi a principal-branch logarithm would be off by pi
        model = swanson_hamiltonian(SwansonParams(1.0, 0.0))
        for t in (1.0, 4.0, 5.0 * math.pi):
            out = evolve_state(model, GaussianState.coherent(RealState(0.0, 0.0)), t)
            assert out.gamma == pytest.approx(-0.5 * t + 0j, abs=1e-12)

    def test_closed_form_phase_matches_quadrature(self):
        # reference: quadrature of the phase velocity that keeps the
        # (Im b / pi)^(1/4) prefactor consistent as the width evolves
        rng = np.random.default_rng(2024)
        for _ in range(10):
            h = rng.normal(size=(2, 2))
            g = 0.4 * rng.normal(size=(2, 2))
            # a positive-definite H and a positive-semidefinite Gamma keep
            # the flow bounded and the packet normalizable
            model = QuadraticHamiltonian(
                hess_h=h @ h.T + 0.2 * np.eye(2),
                hess_gamma=g @ g.T,
                const_h=rng.normal(),
                const_gamma=abs(rng.normal()),
            )
            state = GaussianState(
                z=ComplexState(*(rng.uniform(-1.0, 1.0, size=2) + 1j * rng.uniform(-0.3, 0.3, size=2))),
                b=complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)),
                gamma=complex(rng.normal(), 0.1 * rng.normal()),
            )
            t_end = rng.uniform(0.5, 4.0)
            cpp, cpq, cqq = model.hess_complex[0, 0], model.hess_complex[0, 1], model.hess_complex[1, 1]

            def rate(t):
                p, q = complex_symplectic_flow(model, t) @ state.z.array
                b = evolve_b(model, state.b, t)
                qdot = cpp * p + cpq * q
                bdot = -(cpp * b * b + 2.0 * cpq * b + cqq)
                return (
                    p * qdot
                    + 0.25j * bdot.imag / b.imag
                    + 0.5j * (cpp * b + cpq)
                    # H - i*Gamma at (p, q)
                    - (0.5 * (cpp * p * p + 2.0 * cpq * p * q + cqq * q * q) + model.const_h - 1j * model.const_gamma)
                )

            opts = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
            ref = complex(quad(lambda t: rate(t).real, 0.0, t_end, **opts)[0], quad(lambda t: rate(t).imag, 0.0, t_end, **opts)[0])
            out = evolve_state(model, state, t_end)
            assert abs(out.gamma - state.gamma - ref) <= 1e-10

    def test_norm_route_matches_closed_survival(self):
        z0 = RealState(1.0, 0.0)
        state = GaussianState.coherent(z0)
        for frac in np.linspace(0.04, 1.0, 25):
            t = float(frac) * PARAMS.period
            out = evolve_state(MODEL, state, t, num_nodes=2001)
            assert gaussian_norm(out) == pytest.approx(survival_closed(PARAMS, z0, t), abs=1e-6)

    def test_pole_on_a_grid_node_raises_with_its_bracket(self):
        # 2 * T_POLE puts node 1000 of the default 2001 on the pole of the real Möbius denominator
        with pytest.raises(MobiusPoleError) as info:
            evolve_state(MODEL, GaussianState(ComplexState(1 + 0j, 0j), B_POLE), 2.0 * T_POLE)
        lo, hi = info.value.bracket
        assert type(lo) is float and type(hi) is float
        assert lo < T_POLE < hi

    def test_pole_tolerance_grows_with_b0(self):
        # at |b0| = 1e6 the pole's node has |den| of rounding size, about 3e-10: above
        # POLE_TOL / |b0| = 1e-18, so only the tolerance POLE_TOL * |b0| = 1e-6 sees the pole
        b0 = complex(1e6, B_POLE.imag)
        t_pole = (math.pi - math.atan(PARAMS.omega / b0.real)) / PARAMS.omega
        z0 = ComplexState(1 + 0j, 0j)
        den = _sampled_flow(MODEL, (z0.p, z0.q), b0, np.linspace(0.0, 2.0 * t_pole, 2001))[3]
        assert POLE_TOL / abs(b0) < abs(den[1000]) <= POLE_TOL * abs(b0)
        with pytest.raises(MobiusPoleError) as info:
            evolve_state(MODEL, GaussianState(z0, b0), 2.0 * t_pole)
        lo, hi = info.value.bracket
        assert lo < t_pole < hi

    def test_gaussian_norm_real_centre(self):
        assert gaussian_norm(GaussianState(ComplexState(0.3 + 0j, 1.2 + 0j), 0.5 + 0.8j)) == pytest.approx(1.0)

    def test_gaussian_norm_damping_factor(self):
        state = GaussianState(ComplexState(0.3 + 0j, 1.2 + 0j), 1j, gamma=0.25j)
        assert gaussian_norm(state) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_gaussian_norm_against_quadrature(self):
        # moderate imaginary parts keep norms O(1) so an absolute comparison
        # against grid quadrature is meaningful
        rng = np.random.default_rng(37)
        x = np.linspace(-40.0, 40.0, 100_001)
        for _ in range(20):
            state = GaussianState(
                z=ComplexState(*(rng.uniform(-2.0, 2.0, size=2) + 1j * rng.uniform(-0.5, 0.5, size=2))),
                b=complex(rng.uniform(-1.5, 1.5), rng.uniform(0.4, 2.0)),
                gamma=complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)),
            )
            psi = evaluate_wavefunction(state, x)
            assert gaussian_norm(state) == pytest.approx(np.trapezoid(np.abs(psi) ** 2, x), abs=1e-8)

    def test_gaussian_norm_rejects_non_normalizable(self):
        with pytest.raises(NonNormalizableError):
            gaussian_norm(GaussianState(ComplexState(0j, 0j), -1j))


class TestEtaAction:
    def test_zero_generator_is_identity(self):
        state = GaussianState(ComplexState(0.4 + 0.1j, -0.2 + 0.3j), 0.3 + 1.1j, gamma=0.2 + 0.05j)
        out = eta_action(0.0, 0.0, state)
        assert out.b == pytest.approx(state.b, abs=1e-13)
        assert out.gamma == pytest.approx(state.gamma, abs=1e-13)

    def test_maps_coherent_state_to_ground_state(self):
        theta = PARAMS.theta
        out = eta_action(-1j * theta, 1j * theta, GaussianState.coherent(RealState(0.0, 0.0)))
        assert out.b == pytest.approx(PARAMS.ground_b, abs=1e-12)
        assert abs(out.z.p) < 1e-12 and abs(out.z.q) < 1e-12

    def test_fourier_action_inverts_b(self):
        # the quarter rotation (p, q) -> (-q, p)
        for b in (0.7 + 1.3j, -0.5 + 0.4j, 2j):
            out = eta_action(0.5 * math.pi, 0.5 * math.pi, GaussianState(ComplexState(0j, 0j), b))
            assert out.b == pytest.approx(-1.0 / b, abs=1e-10)


class TestMappedDynamics:
    def test_periodicity(self):
        state = GaussianState.coherent(RealState(1.0, 0.0))
        mapped = mapped_dynamics(PARAMS, state, PARAMS.period)
        assert mapped.b == pytest.approx(state.b, abs=1e-9)
        assert mapped.z.p == pytest.approx(state.z.p, abs=1e-9)
        assert mapped.z.q == pytest.approx(state.z.q, abs=1e-9)
        assert gaussian_norm(mapped) == pytest.approx(1.0, abs=1e-9)

    def test_hermitian_limit_is_pure_rotation(self):
        params = SwansonParams(1.0, 0.0)
        state = GaussianState.coherent(RealState(1.0, 0.0))
        t = 0.7
        mapped = mapped_dynamics(params, state, t)
        assert mapped.b == pytest.approx(1j, abs=1e-12)
        assert mapped.z.p == pytest.approx(math.cos(t) + 0j, abs=1e-12)
        assert mapped.z.q == pytest.approx(math.sin(t) + 0j, abs=1e-12)

    def test_matches_direct_route_pointwise(self):
        state = GaussianState.coherent(RealState(1.0, 0.0))
        for frac in np.linspace(0.1, 1.0, 10):
            t = float(frac) * PARAMS.period
            direct = evolve_state(MODEL, state, t)
            mapped = mapped_dynamics(PARAMS, state, t)
            assert abs(direct.b - mapped.b) < 1e-8
            zd = project_expectations(direct.z, direct.b)
            zm = project_expectations(mapped.z, mapped.b)
            assert abs(zd.P - zm.P) < 1e-8 and abs(zd.Q - zm.Q) < 1e-8
            assert abs(gaussian_norm(direct) - gaussian_norm(mapped)) < 1e-8

    def test_divergent_state_flags_pole(self):
        state = GaussianState(ComplexState(0j, 0j), 0.4j)
        with pytest.raises((MobiusPoleError, NonNormalizableError)):
            for frac in np.linspace(0.05, 1.0, 20):
                mapped_dynamics(PARAMS, state, float(frac) * PARAMS.period)


class TestEvaluateWavefunction:
    def test_ground_state_shape(self):
        state = GaussianState(ComplexState(0j, 0j), PARAMS.ground_b)
        x = np.linspace(-3.0, 3.0, 7)
        psi = evaluate_wavefunction(state, x)
        width = PARAMS.omega0 / (PARAMS.omega - PARAMS.delta)
        expected = (width / math.pi) ** 0.25 * np.exp(-0.5 * width * x**2)
        assert np.abs(psi - expected).max() < 1e-12

    def test_coherent_peak_value(self):
        psi = evaluate_wavefunction(GaussianState(ComplexState(0j, 0j), 1j), np.array([0.0]))
        assert psi[0] == pytest.approx((1.0 / math.pi) ** 0.25, abs=1e-14)

    def test_norm_against_trapezoid(self):
        state = GaussianState(ComplexState(0.5 + 0.2j, -0.3 + 0.4j), 0.6 + 0.9j, gamma=0.1 + 0.2j)
        x = np.linspace(-30.0, 30.0, 60_001)
        psi = evaluate_wavefunction(state, x)
        assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(gaussian_norm(state), abs=1e-6)

    def test_non_normalizable_states_evaluable(self):
        psi = evaluate_wavefunction(GaussianState(ComplexState(0j, 0j), 0.5 - 0.1j), np.array([0.0, 1.0]))
        assert np.isfinite(psi).all()


def rotated_swanson(params: SwansonParams, angle: float, const_gamma: float = 0.0):
    """Swanson model in phase-space coordinates rotated by angle (a real symplectic map)."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    base = swanson_hamiltonian(params)
    model = QuadraticHamiltonian(
        hess_h=rot.T @ base.hess_h @ rot,
        hess_gamma=rot.T @ base.hess_gamma @ rot,
        const_gamma=const_gamma,
    )
    return model, rot


def bounded_b0(params: SwansonParams, re_frac: float, im_frac: float) -> complex:
    """Initial uncertainty of moderate size well inside the bounded region of the unrotated model.

    For delta < 0 that region is the disk |b - i R| < R, R = omega0 / (2 |delta|); the
    disk of radius min(R, 2) tangent at the same point lies inside it.
    """
    w0, d = params.omega0, params.delta
    if d >= 0.0:
        return complex(re_frac - 0.5, d / w0 + 0.3 + 0.5 * im_frac)
    radius = min(w0 / (2.0 * abs(d)), 2.0)
    angle = 2.0 * math.pi * re_frac
    offset = 0.5 * im_frac * radius
    return complex(offset * math.cos(angle), radius + offset * math.sin(angle))


def closed_form_stops(params: SwansonParams, z0: RealState, times: np.ndarray) -> tuple[int, int]:
    """(first non-finite sample, first sample over BLOWUP_THRESHOLD or in a blow-up window) of closed_series."""
    k_window = len(times)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            ref = closed_series(params, z0, times)
        except DivergenceError as exc:
            k_window = int(np.searchsorted(times, exc.time))
            ref = closed_series(params, z0, times[:k_window])
        tr = ref[:, 2] + ref[:, 4]
        g_plus = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0, 0.0)))
        over = (g_plus > BLOWUP_THRESHOLD) | (np.hypot(ref[:, 0], ref[:, 1]) > BLOWUP_THRESHOLD)
    bad = ~np.isfinite(ref).all(axis=1)
    upper = int(np.argmax(over)) if over.any() else k_window
    lower = int(np.argmax(bad)) if bad.any() else k_window
    return lower, upper


class TestPropagate:
    @settings(max_examples=12, deadline=None)
    @given(
        omega0=st.floats(min_value=0.5, max_value=2.0),
        ratio=st.floats(min_value=-0.8, max_value=0.8),
        angle=st.floats(min_value=0.0, max_value=math.pi),
        const_gamma=st.floats(min_value=-0.3, max_value=0.3),
        centre=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)),
        b_fracs=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
    )
    def test_matches_rk4_on_bounded_models(self, omega0, ratio, angle, const_gamma, centre, b_fracs):
        # centres in the unit disk: farther out n grows enough that RK4's own error nears 1e-10
        params = SwansonParams(omega0, ratio * omega0)
        model, rot = rotated_swanson(params, angle, const_gamma)
        g0 = np.eye(2) if b_fracs is None else metric_from_b(bounded_b0(params, *b_fracs)).matrix
        radius, phase = centre
        z0 = rot.T @ (radius * np.array([math.cos(phase), math.sin(phase)]))
        g = rot.T @ g0 @ rot
        init = MetriplecticState(
            Z=RealState(float(z0[0]), float(z0[1])),
            G=Metric(g[0, 0], g[0, 1], g[1, 1]),
            n=1.5,
        )
        step = params.period / 10_000
        exact = propagate(model, init, params.period, step)
        ref = integrate(model, init, params.period, step)
        assert exact.divergence_time is None and ref.divergence_time is None
        np.testing.assert_array_equal(exact.times, ref.times)
        dev = np.abs(exact.values - ref.values) / np.maximum(1.0, np.abs(ref.values))
        assert dev.max() <= 1e-10

    @pytest.mark.parametrize("ratio", [1.0, 1.05, 1.1, 1.2, -1.1])
    def test_divergence_index(self, ratio):
        params = SwansonParams(1.0, ratio)
        model = swanson_hamiltonian(params)
        z0 = RealState(0.6, 0.8)
        init = MetriplecticState(Z=z0, G=Metric.identity(), n=1.0)
        step = params.period / 10_000
        exact = propagate(model, init, params.period, step)
        rk4 = integrate(model, init, params.period, step)
        lower, upper = closed_form_stops(params, z0, step * np.arange(10_001))
        stop = round(exact.divergence_time / step)
        assert stop == len(exact.values) == min(lower, upper)
        # RK4 lags the exact overflow of n, but not past the threshold crossing
        assert stop <= round(rk4.divergence_time / step) <= upper + 2
        # a coarse grid steps over the threshold crossing into the blow-up window
        coarse = propagate(model, init, params.period, params.period / 50)
        assert len(coarse.values) == min(closed_form_stops(params, z0, params.period / 50 * np.arange(51)))

    def test_matches_evolve_state_across_blocks(self):
        params = SwansonParams(1.3, -0.6)
        model = swanson_hamiltonian(params)
        b0 = bounded_b0(params, 0.2, 0.7)
        z0 = RealState(-0.4, 1.1)
        init = MetriplecticState(Z=z0, G=metric_from_b(b0), n=1.0)
        step = params.period / 10_000
        traj = propagate(model, init, 5.0 * params.period, step)
        assert traj.divergence_time is None and len(traj.values) == 50_001
        state0 = GaussianState(ComplexState(complex(z0.P), complex(z0.Q)), b0)
        for k in np.linspace(0, 50_000, 10).astype(int):
            ref = gaussian_norm(evolve_state(model, state0, traj.times[k], num_nodes=4001))
            assert traj.values[k, 5] == pytest.approx(ref, rel=1e-10)

    def test_same_grid_and_truncation_as_integrate(self):
        params = SwansonParams(1.0, 0.5)
        model = swanson_hamiltonian(params)
        init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
        for t_end, step in ((1.0, 0.3), (0.01, 0.3), (params.period, params.period / 7)):
            exact = propagate(model, init, t_end, step)
            np.testing.assert_array_equal(exact.times, integrate(model, init, t_end, step).times)
        np.testing.assert_array_equal(exact.values[0], [1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        # G0 enters normalized to unit determinant
        scaled = MetriplecticState(Z=init.Z, G=Metric(1.0 + 1e-7, 0.0, 1.0 + 1e-7), n=1.0)
        np.testing.assert_allclose(
            propagate(model, scaled, 1.0, 0.1).values[1:], propagate(model, init, 1.0, 0.1).values[1:], rtol=1e-13
        )

    def test_metric_threshold_just_before_pole(self):
        # a sample 1e-9 short of the first pole: g_plus is about 2e9 while the centre stays at
        # the origin and n is finite, so only the eigenvalue threshold stops the run
        params = SwansonParams(1.0, 1.2)
        w, d = params.omega, params.delta
        pole = math.acos(1.0 - w * w / (d * d)) / (2.0 * w)
        step = pole * (1.0 - 1e-9) / 1000
        model = swanson_hamiltonian(params)
        init = MetriplecticState(Z=RealState(0.0, 0.0), G=Metric.identity(), n=1.0)
        assert len(propagate(model, init, 1.1 * pole, step).values) == 1000
        assert 1000 <= len(integrate(model, init, 1.1 * pole, step).values) <= 1002

    def test_centre_threshold_keeps_initial_row(self):
        # like RK4, the initial row is kept even when it is over the threshold; the next one stops the run
        model = swanson_hamiltonian(SwansonParams(1.0, 0.0))
        init = MetriplecticState(Z=RealState(2e8, 0.0), G=Metric.identity(), n=1.0)
        for run in (propagate, integrate):
            traj = run(model, init, 1.0, 0.1)
            assert len(traj.values) == 1 and traj.divergence_time == 0.1

    @pytest.mark.parametrize("omega0, delta", [(1e-149, 0.0), (1e-149, 5e-150), (2e-149, -1e-149)])
    def test_matches_closed_form_at_the_smallest_frequencies(self, omega0, delta):
        # just above MIN_FREQUENCY the flow keeps its oscillating branch
        params = SwansonParams(omega0, delta)
        init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
        traj = propagate(swanson_hamiltonian(params), init, params.period, params.period / 1000)
        assert traj.divergence_time is None
        ref = closed_series(params, RealState(1.0, 0.0), traj.times)
        np.testing.assert_allclose(traj.values, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("delta", [0.5, 1.1])
    def test_blocks_leave_numpy_error_state_to_the_consumer(self, delta):
        # past the pole at delta = 1.1 a block takes the log of a negative Im b: computed
        # under errstate(all="raise") it would raise
        params = SwansonParams(1.0, delta)
        init = MetriplecticState(Z=RealState(1.0, 0.0), G=Metric.identity(), n=1.0)
        blocks = _propagate_blocks(swanson_hamiltonian(params), init, 2.0 * params.period, params.period / 10_000)
        with np.errstate(all="raise", under="warn"):
            outside = np.geterr()
            inside = [np.geterr() for _ in blocks]
        # 20 001 rows in 10 blocks; the divergent run stops in its first block
        assert len(inside) == (10 if delta < 1.0 else 1)
        assert all(state == outside for state in inside)
        assert outside != np.geterr()

    def test_rejects_indefinite_initial_metric(self):
        model = swanson_hamiltonian(SwansonParams(1.0, 0.5))
        for g in (Metric(1.0, 2.0, 1.0), Metric(1.0, 1.0, 1.0)):
            init = MetriplecticState(Z=RealState(1.0, 0.0), G=g, n=1.0)
            with pytest.raises(ValueError, match="det = .* <= 0"):
                propagate(model, init, 1.0, 0.1)


def quarter_turn(state: GaussianState) -> GaussianState:
    """The rotation (p, q) -> (-q, p) of a Gaussian, phase included: b goes to -1/b."""
    return eta_action(math.pi / 2, math.pi / 2, state)


def rotated_rows(values: np.ndarray) -> np.ndarray:
    """Rows (P, Q, g_pp, g_pq, g_qq, n) under (p, q) -> (-q, p): the metric's diagonal swaps, g_pq changes sign."""
    p, q, g_pp, g_pq, g_qq, n = values.T
    return np.column_stack((-q, p, g_qq, -g_pq, g_pp, n))


def relative_deviation(values, ref) -> float:
    return float((np.abs(np.asarray(values) - ref) / np.maximum(1.0, np.abs(ref))).max())


rotation_draws = dict(
    omega0=st.floats(min_value=0.5, max_value=2.0),
    ratio=st.floats(min_value=-2.0, max_value=2.0),
    b0=upper_half_b,
    # centres in the unit square: at delta = 1.9 omega0 and a centre of 2, RK4's n reaches 3e279
    centre=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)


class TestRotation:
    """(p, q) -> (-q, p) sends the Swanson model at delta to the one at -delta: an oracle with no reference.

    omega0 I is invariant under the rotation and the off-diagonal delta changes sign, so at -delta
    the flow entries are those at delta, permuted, to the last bit.  What stays is rounding: the
    two sides round the same quantities in different operations.  Draws are bounded beyond band
    0.1, so that no run stops and every row is compared.  The measured worst deviations are those
    of 1 000 random draws and of the corners of the drawn ranges.
    """

    @settings(max_examples=100, deadline=None)
    @given(**rotation_draws, n0=st.floats(min_value=0.5, max_value=2.0))
    def test_engines_rotate_with_the_model(self, omega0, ratio, b0, centre, n0):
        params = SwansonParams(omega0, ratio * omega0)
        assume(classify_b(params, b0, band=0.1) is RegionLabel.BOUNDED)
        g = metric_from_b(b0)
        p0, q0 = centre
        init = MetriplecticState(RealState(p0, q0), g, n0)
        rotated = MetriplecticState(RealState(-q0, p0), Metric(g.g_qq, -g.g_pq, g.g_pp), n0)
        model, mirror = swanson_hamiltonian(params), swanson_hamiltonian(SwansonParams(omega0, -params.delta))
        step = params.period / 500
        # propagate: the rotated start b0 = (g_pq + i) / g_qq is -1/b0 only to rounding, and n = n0 exp(...)
        # turns the rounding of its exponent into a relative one (measured worst 2.1e-13, where n reaches 1.8e14).
        # integrate: each RK4 step rounds P and Q, and g_pp and g_qq, in swapped operations, and the
        # determinant renormalization rounds again, over 1000 steps (measured worst 7.7e-12)
        for run, bound in ((propagate, 1e-12), (integrate, 1e-10)):
            ref = run(model, init, 2.0 * params.period, step)
            out = run(mirror, rotated, 2.0 * params.period, step)
            assert ref.divergence_time is None and out.divergence_time is None
            assert relative_deviation(out.values, rotated_rows(ref.values)) <= bound

    @settings(max_examples=100, deadline=None)
    @given(
        **rotation_draws,
        imag_centre=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        gamma=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        periods=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_evolve_state_rotates_with_the_model(self, omega0, ratio, b0, centre, imag_centre, gamma, periods):
        params = SwansonParams(omega0, ratio * omega0)
        assume(classify_b(params, b0, band=0.1) is RegionLabel.BOUNDED)
        z = ComplexState(complex(centre[0], imag_centre[0]), complex(centre[1], imag_centre[1]))
        state = GaussianState(z, b0, gamma)
        t = periods * params.period
        ref = quarter_turn(evolve_state(swanson_hamiltonian(params), state, t))
        out = evolve_state(swanson_hamiltonian(SwansonParams(omega0, -params.delta)), quarter_turn(state), t)
        # the quarter turn is itself an evolution (to t = 1 under its generator), so each side rounds
        # through a different chain of two evolutions: measured worst 7.1e-16 in b, 3.1e-16 in z and
        # 2.4e-15 in exp(i gamma), which compares the phase modulo 2 pi and Im gamma through |exp(i gamma)|
        assert relative_deviation(out.b, ref.b) <= 1e-13
        assert relative_deviation([out.z.p, out.z.q], np.array([ref.z.p, ref.z.q])) <= 1e-13
        assert relative_deviation(cmath.exp(1j * out.gamma), cmath.exp(1j * ref.gamma)) <= 1e-13


class TestPeriod:
    """The Swanson flow repeats after T = 2 pi / omega: an oracle with no reference.

    S(T) = I, so on a bounded model every row of propagate at t + T is the row at t.  What stays
    is rounding: the sample time (k + n) step is not k step + T to the last bit, T itself is 2 pi
    / omega rounded, the cosine and sine of an argument larger by 2 pi round differently, and n =
    n0 exp(...) turns the rounding of its exponent into a relative one.  Draws are bounded beyond
    band 0.1, so that no run stops and every row is compared.
    """

    @settings(max_examples=100, deadline=None)
    @given(**rotation_draws, n0=st.floats(min_value=0.5, max_value=2.0))
    def test_propagate_rows_repeat_after_a_period(self, omega0, ratio, b0, centre, n0):
        params = SwansonParams(omega0, ratio * omega0)
        assume(classify_b(params, b0, band=0.1) is RegionLabel.BOUNDED)
        init = MetriplecticState(RealState(*centre), metric_from_b(b0), n0)
        n = 500
        traj = propagate(swanson_hamiltonian(params), init, 2.0 * params.period, params.period / n)
        assert traj.divergence_time is None and len(traj.values) == 2 * n + 1
        # measured worst 2.0e-13 over 1 258 bounded draws of 3 000 and the corners of the drawn ranges
        assert relative_deviation(traj.values[n:], traj.values[: n + 1]) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(**rotation_draws, gamma=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    def test_half_period_is_minus_i_times_parity(self, omega0, ratio, b0, centre, gamma):
        """U(T/2) = -i P, the real spectrum omega (n + 1/2): at k T/2 the state is (p, q, b, gamma)
        -> ((-1)^k p, (-1)^k q, b, exp(i gamma) (-i)^k).

        S(T/2) = -I, so den = (-1)^k and only the continuous branch of its argument sets the phase:
        the principal angle, or its sign flipped, is off by 2.0.  The pq term and the ln Im b term
        vanish at k T/2, so this cannot see them.
        """
        params = SwansonParams(omega0, ratio * omega0)
        assume(classify_b(params, b0, band=0.1) is RegionLabel.BOUNDED)
        state = GaussianState(ComplexState(complex(centre[0]), complex(centre[1])), b0, gamma)
        for k in range(1, 5):
            out = evolve_state(swanson_hamiltonian(params), state, k * params.period / 2)
            sign = (-1) ** k
            # measured worst 1.4e-14 over 300 bounded draws
            assert relative_deviation([out.z.p, out.z.q], np.array([sign * state.z.p, sign * state.z.q])) <= 1e-12
            assert relative_deviation(out.b, b0) <= 1e-12
            assert relative_deviation(cmath.exp(1j * out.gamma), cmath.exp(1j * gamma) * (-1j) ** k) <= 1e-12
