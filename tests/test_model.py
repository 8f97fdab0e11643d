import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swansim import (
    SwansonParams,
    doubled_generator,
    swanson_hamiltonian,
)
from swansim.model import MIN_FREQUENCY

finite_deltas = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
positive_omegas = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def test_params_reject_nonpositive_omega0():
    with pytest.raises(ValueError):
        SwansonParams(0.0, 0.5)
    with pytest.raises(ValueError):
        SwansonParams(-1.0, 0.5)


@pytest.mark.parametrize("omega0, delta", [(1.35e154, 0.0), (1.0, -1.35e154), (1e154, 1e154), (1e300, 0.5)])
def test_params_reject_overflowing_squared_frequency(omega0, delta):
    # omega^2 past the largest double would turn every sample of the flow into NaN
    with pytest.raises(ValueError, match="too short for its squared frequency to be a finite double"):
        SwansonParams(omega0, delta)


def test_params_accept_large_finite_squared_frequency():
    params = SwansonParams(1e150, 0.5)
    assert math.isfinite(params.omega**2) and params.period == pytest.approx(2.0 * math.pi * 1e-150)


@pytest.mark.parametrize("omega0, delta", [(2e-151, 1e-151), (1e-300, 0.0)])
def test_params_reject_frequency_below_min(omega0, delta):
    # below MIN_FREQUENCY the flow would take its free-particle branch and the squares underflow
    assert math.hypot(omega0, delta) < MIN_FREQUENCY
    with pytest.raises(ValueError, match="below the smallest supported frequency 1e-150"):
        SwansonParams(omega0, delta)


def test_params_accept_small_frequency():
    params = SwansonParams(1e-149, 0.0)
    assert params.omega == 1e-149 and params.period == pytest.approx(2.0 * math.pi * 1e149)


def test_hamiltonian_hermitian_limit():
    model = swanson_hamiltonian(SwansonParams(1.0, 0.0))
    assert np.array_equal(model.hess_gamma, np.zeros((2, 2)))


def test_hamiltonian_hessians():
    model = swanson_hamiltonian(SwansonParams(1.0, 0.5))
    assert np.array_equal(model.hess_h, np.eye(2))
    assert np.array_equal(model.hess_gamma, [[0.0, 0.5], [0.5, 0.0]])
    assert model.const_h == 0.0 and model.const_gamma == 0.0


def test_hamiltonian_sign_linearity():
    model = swanson_hamiltonian(SwansonParams(2.0, -1.0))
    assert np.array_equal(model.hess_gamma, [[0.0, -1.0], [-1.0, 0.0]])


def test_hamiltonian_rejects_asymmetric_hessian():
    from swansim import QuadraticHamiltonian

    with pytest.raises(ValueError):
        QuadraticHamiltonian(hess_h=[[1.0, 0.2], [0.1, 1.0]], hess_gamma=np.zeros((2, 2)))


def test_spectral_hermitian_limit():
    params = SwansonParams(1.0, 0.0)
    assert params.theta == 0.0
    assert params.ground_b == 1j


def test_spectral_reference_point():
    params = SwansonParams(1.0, 0.5)
    assert params.omega == pytest.approx(1.1180339887498949, abs=1e-12)
    assert params.theta == pytest.approx(-0.2318238045004031, abs=1e-12)
    assert params.ground_b == pytest.approx(1.6180339887498949j, abs=1e-12)


def test_ground_b_is_riccati_fixed_point():
    # the ground uncertainty must be the upper-half-plane root of the
    # stationary width equation b' = -(c_pp b^2 + 2 c_pq b + c_qq) = 0
    params = SwansonParams(1.0, 0.5)
    model = swanson_hamiltonian(params)
    b = params.ground_b
    hc = model.hess_complex
    residual = hc[0, 0] * b * b + 2.0 * hc[0, 1] * b + hc[1, 1]
    assert abs(residual) < 1e-12
    assert b.imag > 0


def test_ground_b_is_the_fixed_point_at_strong_coupling():
    # |delta| / omega0 log-uniform in [1e-3, 1e150], both signs.  i omega0 / (omega - delta) alone cancels
    # as omega - delta -> 0: on these draws its worst residual is 0.33 and 9 255 of them raise
    # ZeroDivisionError.  Measured worst 3.1e-16, relative to the sizes of the residual's three terms
    rng = np.random.default_rng(0)
    omega0s = rng.uniform(0.05, 5.0, 20_000)
    ratios = 10.0 ** rng.uniform(-3.0, 150.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)
    # and delta = +-omega0, where the two formulas meet
    for omega0, ratio in [*zip(omega0s.tolist(), ratios.tolist()), (0.05, 1.0), (5.0, 1.0), (1.0, -1.0)]:
        delta = ratio * omega0
        b = SwansonParams(omega0, delta).ground_b
        # cpp = cqq = omega0 and cpq = -i delta: the residual cpp b^2 + 2 cpq b + cqq
        residual = omega0 * b * b - 2j * delta * b + omega0
        assert abs(residual) <= 1e-14 * (omega0 * abs(b) ** 2 + 2.0 * abs(delta * b) + omega0)
        assert b.imag > 0


@pytest.mark.parametrize("omega0, delta", [(1e-300, 1e10), (1e-300, 1e150), (1e-300, -1e150), (1e-200, -1e150)])
def test_ground_b_past_the_doubles_is_refused(omega0, delta):
    # Im b = (omega + delta) / omega0 overflows to inf for delta > 0 and omega0 / (omega - delta)
    # underflows to 0 for delta < 0: neither b is normalizable
    params = SwansonParams(omega0, delta)
    with pytest.raises(ValueError, match="not normalizable"):
        params.ground_b


def test_ground_state_energy():
    assert SwansonParams(1.0, 0.5).omega / 2.0 == pytest.approx(0.5590169943749475, abs=1e-12)


@given(omega0=positive_omegas, delta=finite_deltas)
def test_spectral_invariants(omega0, delta):
    params = SwansonParams(omega0, delta)
    assert params.omega**2 == pytest.approx(omega0**2 + delta**2, rel=1e-13)
    assert math.tan(2.0 * params.theta) + delta / omega0 == pytest.approx(0.0, abs=1e-12 * max(1.0, abs(delta / omega0)))
    assert abs(params.theta) < math.pi / 4
    assert params.ground_b.imag > 0


def test_doubled_generator_swanson_blocks():
    a = doubled_generator(swanson_hamiltonian(SwansonParams(1.0, 0.5)))
    expected = np.array(
        [
            [0.0, -1.0, 0.0, 0.5],
            [1.0, 0.0, 0.5, 0.0],
            [0.0, -0.5, 0.0, -1.0],
            [-0.5, 0.0, 1.0, 0.0],
        ]
    )
    assert np.allclose(a, expected, atol=1e-15)


@given(omega0=positive_omegas, delta=finite_deltas)
def test_doubled_generator_squares_to_minus_omega_sq(omega0, delta):
    params = SwansonParams(omega0, delta)
    a = doubled_generator(swanson_hamiltonian(params))
    assert np.abs(a @ a + params.omega**2 * np.eye(4)).max() < 1e-12 * max(1.0, params.omega**2)
