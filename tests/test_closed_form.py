import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.spatial import cKDTree

from swansim import (
    ComplexState,
    DivergenceError,
    Metric,
    RealState,
    SwansonParams,
    closed_series,
    complex_trajectory,
    doubled_generator,
    first_pole_time,
    metric_closed,
    metric_eigen,
    survival_closed,
    swanson_hamiltonian,
)
from swansim.closed_form import divergence_law

PARAMS = SwansonParams(1.0, 0.5)


def random_bounded_metric(rng, params=PARAMS) -> Metric:
    # rejection-sample initial metrics whose flow stays bounded (subcritical
    # conserved-plane slope), since the invariants below only hold there
    while True:
        g_pp = rng.uniform(0.3, 3.0)
        g_pq = rng.uniform(-1.5, 1.5)
        g_qq = (1.0 + g_pq**2) / g_pp
        x0, z0 = 0.5 * (g_qq - g_pp), 0.5 * (g_pp + g_qq)
        slope = params.delta * z0 / (params.omega0 + params.delta * x0)
        if abs(slope) < 0.9:
            return Metric(g_pp, g_pq, g_qq)


def stretch(params: SwansonParams, t: float) -> float:
    """The identity-seeded stretch factor, read off a closed_series row as z = (g_pp + g_qq)/2."""
    row = closed_series(params, RealState(1.0, 0.0), [t])[0]
    return 0.5 * (row[2] + row[4])


def real_trajectory(params: SwansonParams, z0: RealState, t: float) -> np.ndarray:
    """Expectation values (P, Q) at one time from closed_series."""
    return closed_series(params, z0, [t])[0, :2]


def doubled_flow(params: SwansonParams, t: float) -> np.ndarray:
    """Doubled (4x4) flow exp(A t) = cos(wt) I + sin(wt)/w A, since A = doubled_generator has A^2 = -w^2 I."""
    w = params.omega
    a = doubled_generator(swanson_hamiltonian(params))
    return math.cos(w * t) * np.eye(4) + (math.sin(w * t) / w) * a


def doubled_metric(params: SwansonParams, g0: Metric, t: float) -> np.ndarray:
    """The doubled flow's fractional-linear action G(t) = (pp G0 + pq)(qp G0 + qq)^-1: the oracle of metric_closed."""
    phi = doubled_flow(params, t)
    m0 = g0.matrix
    return (phi[:2, :2] @ m0 + phi[:2, 2:]) @ np.linalg.inv(phi[2:, :2] @ m0 + phi[2:, 2:])


class TestDoubledFlow:
    def test_identity_at_zero(self):
        assert np.allclose(doubled_flow(PARAMS, 0.0), np.eye(4), atol=1e-15)

    def test_half_period_is_minus_identity(self):
        t = math.pi / PARAMS.omega
        assert np.allclose(doubled_flow(PARAMS, t), -np.eye(4), atol=1e-12)

    def test_block_structure(self):
        phi = doubled_flow(PARAMS, 0.37)
        assert np.allclose(phi[:2, :2], phi[2:, 2:], atol=1e-15)
        assert np.allclose(phi[:2, 2:], -phi[2:, :2], atol=1e-15)

    @given(
        t1=st.floats(min_value=-10.0, max_value=10.0),
        t2=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_one_parameter_group(self, t1, t2):
        lhs = doubled_flow(PARAMS, t1 + t2)
        rhs = doubled_flow(PARAMS, t1) @ doubled_flow(PARAMS, t2)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestMetricClosed:
    def test_hermitian_limit_is_constant(self):
        params = SwansonParams(1.0, 0.0)
        for t in (0.0, 0.3, 2.0, 11.0):
            g = metric_closed(params, Metric.identity(), t)
            assert np.allclose(g.matrix, np.eye(2), atol=1e-12)

    def test_quarter_period_value(self):
        # frozen from the RK4 oracle (see test_ode route comparison)
        t = math.pi / (2.0 * PARAMS.omega)
        g = metric_closed(PARAMS, Metric.identity(), t)
        assert g.g_pp == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert g.g_qq == pytest.approx(3.0, abs=1e-12)
        assert g.g_pq == pytest.approx(0.0, abs=1e-12)

    def test_critical_coupling_diverges(self):
        params = SwansonParams(1.0, 1.0)
        with pytest.raises(DivergenceError):
            metric_closed(params, Metric.identity(), math.pi / (2.0 * params.omega))

    def test_unit_determinant_along_flow(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g0 = random_bounded_metric(rng)
            for t in np.linspace(0.0, PARAMS.period, 37):
                g = metric_closed(PARAMS, g0, float(t))
                assert abs(g.det - 1.0) < 1e-9

    def test_half_period_of_trajectory_is_full_period_of_metric(self):
        rng = np.random.default_rng(11)
        half = math.pi / PARAMS.omega
        for _ in range(5):
            g0 = random_bounded_metric(rng)
            for t in (0.1, 0.9, 2.3):
                a = metric_closed(PARAMS, g0, t)
                b = metric_closed(PARAMS, g0, t + half)
                assert np.allclose(a.matrix, b.matrix, atol=1e-10)

    @pytest.mark.parametrize("delta", [0.5, -0.5, 0.9, -0.9])
    def test_matches_doubled_flow(self, delta):
        params = SwansonParams(1.0, delta)
        rng = np.random.default_rng(13)
        for _ in range(5):
            g0 = random_bounded_metric(rng, params)
            assert not np.allclose(g0.matrix, np.eye(2), atol=1e-2)
            for t in np.linspace(0.0, 2.0 * params.period, 41):
                ref = doubled_metric(params, g0, float(t))
                got = metric_closed(params, g0, float(t)).matrix
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_supercritical_window_raises_with_its_time(self):
        # between the first pole and its mirror image the flow is outside the chart
        params = SwansonParams(1.0, 1.2)
        pole = first_pole_time(params)
        for frac in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6):
            t = pole + frac * (0.5 * params.period - 2.0 * pole)
            with pytest.raises(DivergenceError) as info:
                metric_closed(params, Metric.identity(), t)
            assert info.value.time == t


class TestStretchFactor:
    def test_initial_value(self):
        assert stretch(PARAMS, 0.0) == 1.0

    def test_quarter_period_value(self):
        t = math.pi / (2.0 * PARAMS.omega)
        assert stretch(PARAMS, t) == pytest.approx(5.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("delta", [1.0, 1.2, 2.0])
    def test_supercritical_flag(self, delta):
        params = SwansonParams(1.0, delta)
        with pytest.raises(DivergenceError):
            stretch(params, math.pi / (2.0 * params.omega))


class TestFirstPoleTime:
    @pytest.mark.parametrize("ratio", [0.0, 0.5, -0.999])
    def test_none_when_bounded(self, ratio):
        assert first_pole_time(SwansonParams(1.0, ratio)) is None

    def test_critical_value(self):
        params = SwansonParams(1.0, 1.0)
        assert first_pole_time(params) == pytest.approx(math.pi / (2.0 * params.omega), rel=1e-15)

    @pytest.mark.parametrize("ratio", [1.0001, 1.05, 1.2, 2.0, 5.0, -1.1])
    def test_stretch_factor_blows_up_there(self, ratio):
        params = SwansonParams(1.3, 1.3 * ratio)
        t = first_pole_time(params)
        for before in (0.0, 0.5 * t, t * (1.0 - 1e-6)):
            assert math.isfinite(stretch(params, before))
        with pytest.raises(DivergenceError) as info:
            stretch(params, t)
        assert info.value.time == t

    @settings(max_examples=500, deadline=None)
    @given(
        omega0=st.floats(min_value=0.25, max_value=4.0),
        ratio=st.one_of(
            st.sampled_from([1.0, -1.0]),
            st.floats(min_value=-10.0, max_value=10.0),
            # near the tangent case |delta| = omega0, on either side
            st.builds(lambda sign, e: sign * (1.0 + 10.0**e), st.sampled_from([-1.0, 1.0]), st.floats(-15.0, -1.0)),
            st.builds(lambda sign, e: sign * (1.0 - 10.0**e), st.sampled_from([-1.0, 1.0]), st.floats(-15.0, -1.0)),
        ),
    )
    # delta^2 normal, but (delta/4)^2 subnormal: a law scaled down by omega = 3 rounded beta two subnormal ulps off
    @example(omega0=3.0, ratio=6.790485682658801e-155)
    # just past the tangent case on either side of it, where a moved threshold decides wrongly
    @example(omega0=1.3, ratio=1.0 + 1e-11)
    @example(omega0=1.3, ratio=-(1.0 + 1e-11))
    @example(omega0=1.3, ratio=1.0 - 1e-11)
    def test_is_the_identity_case_of_the_law(self, omega0, ratio):
        # the identity seed is b0 = i: alpha = omega0^2 / omega^2, beta = R = delta^2 / omega^2 and gamma = 0,
        # bit for bit wherever delta^2 is a normal double, so closed_series' stretch 1 / (1 - beta (1 - cos 2wt))
        # is the law's
        params = SwansonParams(omega0, ratio * omega0)
        w0, d, w = params.omega0, params.delta, params.omega
        identity = (w0 * w0 / (w * w), d * d / (w * w), 0.0, d * d / (w * w))
        if d == 0.0 or d * d >= sys.float_info.min:
            assert divergence_law(params, 1j) == identity
        else:
            # a subnormal delta^2 rounds apart from the law's, whose delta is scaled by a power of two
            assert divergence_law(params, 1j) == pytest.approx(identity, rel=0.0, abs=1e-300)
        # so the first pole is the first root of cos 2wt = 1 - omega^2 / delta^2, and there is none
        # when |delta| < omega0
        pole = first_pole_time(params)
        if abs(d * d - w0 * w0) > 1e-12 * (d * d + w0 * w0):
            assert (pole is None) == (d * d < w0 * w0)
        if pole is not None:
            assert abs(math.cos(2.0 * w * pole) - (1.0 - w * w / (d * d))) <= 1e-13
            assert 0.0 < pole <= math.pi / (2.0 * w)


class TestDivergenceLaw:
    @pytest.mark.parametrize("b0", [1j, 0.6 + 0.8j, -0.3 + 0.5j, 2j, -1.5 + 3j, 1e100j])
    @pytest.mark.parametrize("omega0, delta", [(1.0, 1.3e154), (1.0, -1.3e154), (1.3e154, 1.0), (0.9e154, 0.9e154)])
    def test_finite_at_the_top_of_the_accepted_range(self, omega0, delta, b0):
        # omega^2 is a finite double up to omega = 1.34e154; a model past it is refused (tests/test_model.py).
        # Seeds off the unit circle multiply omega0 and delta by |b0|^2 - 1 and Im b0 before the law divides.
        alpha, beta, gamma, radius = divergence_law(SwansonParams(omega0, delta), b0)
        assert all(math.isfinite(v) for v in (alpha, beta, gamma, radius))
        assert abs(alpha + beta - b0.imag) <= 1e-15 * (abs(alpha) + abs(beta))


class TestComplexTrajectory:
    def test_initial_condition(self):
        z0 = ComplexState(0.3 + 0.1j, -0.7 + 0.2j)
        z = complex_trajectory(PARAMS, z0, 0.0)
        assert z.p == z0.p and z.q == z0.q

    def test_hermitian_rotation(self):
        params = SwansonParams(1.0, 0.0)
        z = complex_trajectory(params, ComplexState(1.0, 0.0), math.pi / 2.0)
        assert abs(z.p) < 1e-12
        assert z.q == pytest.approx(1.0, abs=1e-12)

    def test_quarter_period_value(self):
        w = PARAMS.omega
        z = complex_trajectory(PARAMS, ComplexState(1.0, 0.0), math.pi / (2.0 * w))
        assert z.p == pytest.approx(0.5j / w, abs=1e-12)
        assert z.q == pytest.approx(1.0 / w, abs=1e-12)

    def test_always_finite_even_supercritical(self):
        params = SwansonParams(1.0, 1.5)
        for t in np.linspace(0.0, params.period, 101):
            z = complex_trajectory(params, ComplexState(1.0, 0.5), float(t))
            assert np.isfinite([z.p.real, z.p.imag, z.q.real, z.q.imag]).all()


class TestRealTrajectory:
    def test_initial_condition(self):
        assert list(real_trajectory(PARAMS, RealState(1.0, 0.0), 0.0)) == [1.0, 0.0]

    def test_quarter_period_value(self):
        w = PARAMS.omega
        P, Q = real_trajectory(PARAMS, RealState(1.0, 0.0), math.pi / (2.0 * w))
        assert P == pytest.approx(0.0, abs=1e-12)
        assert Q == pytest.approx((5.0 / 3.0) * 0.5 / w, abs=1e-12)

    def test_full_period_return(self):
        z0 = RealState(1.0, 0.3)
        P, Q = real_trajectory(PARAMS, z0, PARAMS.period)
        assert P == pytest.approx(z0.P, abs=1e-9)
        assert Q == pytest.approx(z0.Q, abs=1e-9)

    def test_divergence_flag(self):
        params = SwansonParams(1.0, 1.0)
        with pytest.raises(DivergenceError):
            real_trajectory(params, RealState(1.0, 0.0), math.pi / (2.0 * params.omega))

    def test_orbit_point_reflection_symmetry(self):
        ts = np.linspace(0.0, PARAMS.period, 10_000, endpoint=False)
        orbit = closed_series(PARAMS, RealState(1.0, 0.0), ts)[:, :2]
        tree = cKDTree(orbit)
        d_forward, _ = tree.query(-orbit)
        assert d_forward.max() < 1e-6


class TestSurvivalClosed:
    def test_initial_value(self):
        assert survival_closed(PARAMS, RealState(1.0, 0.0), 0.0) == 1.0

    def test_hermitian_limit(self):
        params = SwansonParams(1.0, 0.0)
        for t in (0.1, 1.0, 4.0):
            assert survival_closed(params, RealState(1.0, 0.7), t) == pytest.approx(1.0, abs=1e-12)

    def test_full_period_return(self):
        assert survival_closed(PARAMS, RealState(1.0, 0.7), PARAMS.period) == pytest.approx(1.0, abs=1e-9)

    def test_supercritical_flag(self):
        params = SwansonParams(1.0, 1.0)
        assert math.isinf(survival_closed(params, RealState(1.0, 0.0), math.pi / (2.0 * params.omega)))

    def test_finite_again_after_the_window(self):
        # n is inf only inside each blow-up window: at delta = 1.2 the first closes before T/2
        params = SwansonParams(1.0, 1.2)
        z0 = RealState(1.0, 0.7)
        assert math.isinf(survival_closed(params, z0, 0.2 * params.period))
        assert survival_closed(params, z0, 0.5 * params.period) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "omega0, delta, fractions",
        [(1.0, 1.2e154, (0.01, 0.02, 0.48)), (1.2e154, 5e153, (0.01, 0.02, 0.37, 0.48, 0.9))],
    )
    def test_scales_exactly_at_the_top_of_the_accepted_range(self, omega0, delta, fractions):
        # 2 omega^2 is inf past omega = 9.5e153 while SwansonParams accepts up to 1.34e154: there the rows are
        # those of the model scaled by 2^-10 at times scaled by 2^10, to the last bit in all six columns.
        # The supercritical model's times lie outside its windows.
        params = SwansonParams(omega0, delta)
        slow = SwansonParams(math.ldexp(omega0, -10), math.ldexp(delta, -10))
        z0 = RealState(1.0, 0.7)
        times = np.array(fractions) * params.period
        slow_times = np.ldexp(times, 10)
        rows = closed_series(params, z0, times)
        assert np.isfinite(rows).all()
        assert rows.tobytes() == closed_series(slow, z0, slow_times).tobytes()
        for t, slow_t in zip(times, slow_times):
            assert survival_closed(params, z0, float(t)) == survival_closed(slow, z0, float(slow_t))

    @pytest.mark.parametrize("z0", [RealState(1.0, 0.0), RealState(1.0, 0.7), RealState(-0.4, 1.2)])
    def test_against_quadrature_of_rate(self, z0):
        # independent oracle: n(t) = exp(int delta*(-2 P Q + g_pq) ds) with the
        # integrand taken from the closed-form centre and metric
        delta = PARAMS.delta

        def rate(s):
            row = closed_series(PARAMS, z0, np.array([s]))[0]
            return delta * (-2.0 * row[0] * row[1] + row[3])

        t = 0.37 * PARAMS.period
        integral, err = quad(rate, 0.0, t, limit=200, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        assert survival_closed(PARAMS, z0, t) == pytest.approx(math.exp(integral), abs=1e-9)


class TestMetricEigen:
    def test_isotropic_convention(self):
        assert metric_eigen(1.0, 0.0, 1.0) == (1.0, 1.0, 0.0)

    def test_diagonal_metric(self):
        g_plus, g_minus, phi = metric_eigen(1.0 / 3.0, 0.0, 3.0)
        assert g_plus == pytest.approx(3.0, abs=1e-12)
        assert g_minus == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(phi) == pytest.approx(math.pi / 2.0, abs=1e-12)

    @given(
        g_pp=st.floats(min_value=0.2, max_value=5.0),
        g_pq=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_against_eigendecomposition(self, g_pp, g_pq):
        g = Metric(g_pp, g_pq, (1.0 + g_pq**2) / g_pp)
        g_plus, g_minus, phi = metric_eigen(g.g_pp, g.g_pq, g.g_qq)
        ev = np.linalg.eigvalsh(g.matrix)
        assert g_minus == pytest.approx(ev[0], rel=1e-10, abs=1e-10)
        assert g_plus == pytest.approx(ev[1], rel=1e-10, abs=1e-10)
        assert g_plus * g_minus == pytest.approx(1.0, abs=1e-10)
        # the rotated frame diagonalizes the metric
        c, s = math.cos(phi), math.sin(phi)
        r = np.array([[c, -s], [s, c]])
        d = r.T @ g.matrix @ r
        assert abs(d[0, 1]) < 1e-9


    def test_arrays_match_scalars(self):
        # isotropic entries, g_pq = -0.0 included, keep phi = +0 inside an array too
        rng = np.random.default_rng(3)
        g_pp = np.concatenate(([1.0, 1.0], rng.uniform(0.2, 5.0, 20)))
        g_pq = np.concatenate(([0.0, -0.0], rng.uniform(-2.0, 2.0, 20)))
        g_qq = (1.0 + g_pq**2) / g_pp
        columns = metric_eigen(g_pp, g_pq, g_qq)
        for k in range(len(g_pp)):
            assert [col[k] for col in columns] == list(metric_eigen(g_pp[k], g_pq[k], g_qq[k]))
        assert math.copysign(1.0, columns[2][1]) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_near_isotropic_against_high_precision(self, seed):
        # within 1e-6 of the identity sqrt(tr^2 - 4) keeps about half the digits;
        # the reference eigenvalues of the same float entries come from 50-digit arithmetic
        rng = np.random.default_rng(seed)
        mpmath.mp.dps = 50
        for scale in (1e-6, 1e-8, 1e-11):
            g_pp = 1.0 + scale * rng.uniform(-1.0, 1.0)
            g_pq = scale * rng.uniform(-1.0, 1.0)
            g = Metric(g_pp, g_pq, (1.0 + g_pq**2) / g_pp)
            a, b, c = (mpmath.mpf(v) for v in (g.g_pp, g.g_pq, g.g_qq))
            split = mpmath.sqrt((a - c) ** 2 + 4 * b * b)
            ref_plus = (a + c + split) / 2
            ref_minus = (a * c - b * b) / ref_plus
            g_plus, g_minus, _ = metric_eigen(g.g_pp, g.g_pq, g.g_qq)
            assert abs(g_plus - ref_plus) <= 4e-16 * ref_plus
            assert abs(g_minus - ref_minus) <= 4e-16 * ref_minus


class TestMetricNormalized:
    def test_unit_determinant(self):
        g = Metric(2.0, 1.0, 3.0).normalized()
        assert g.det == pytest.approx(1.0, abs=1e-15)

    def test_refuses_indefinite_metric(self):
        with pytest.raises(ValueError, match="det = -3"):
            Metric(1.0, 2.0, 1.0).normalized()
        with pytest.raises(ValueError, match="det = 0.0"):
            Metric(1.0, 1.0, 1.0).normalized()


class TestClosedSeries:
    def test_matches_single_time_operations(self):
        z0 = RealState(1.0, 0.7)
        times = np.linspace(0.0, PARAMS.period, 17)
        rows = closed_series(PARAMS, z0, times)
        for t, row in zip(times, rows):
            z = real_trajectory(PARAMS, z0, float(t))
            g = metric_closed(PARAMS, Metric.identity(), float(t))
            n = survival_closed(PARAMS, z0, float(t))
            assert row[:2] == pytest.approx(z, abs=1e-12)
            assert row[2:5] == pytest.approx([g.g_pp, g.g_pq, g.g_qq], abs=1e-12)
            assert row[5] == pytest.approx(n, abs=1e-12)

    def test_raises_on_blowup_window(self):
        params = SwansonParams(1.0, 1.0)
        with pytest.raises(DivergenceError):
            closed_series(params, RealState(1.0, 0.0), np.linspace(0.0, params.period, 101))
