import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swansim import (
    SwansonParams,
    doubled_generator,
    eigenvalue,
    normalize_swanson,
    spectral_data,
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


def test_normalize_identity():
    assert normalize_swanson(1.0, 1.0, 0.3).omega0 == pytest.approx(1.0, abs=1e-15)


def test_normalize_geometric_mean():
    # oracle: direct evaluation of sqrt(a*b)
    assert normalize_swanson(2.0, 0.5, 0.3).omega0 == pytest.approx(math.sqrt(2.0 * 0.5), abs=1e-15)


def test_normalize_rejects_mixed_signs():
    with pytest.raises(ValueError):
        normalize_swanson(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        normalize_swanson(-2.0, -0.5, 0.0)  # would give omega0 < 0
    with pytest.raises(ValueError):
        normalize_swanson(0.0, 1.0, 0.0)


@given(
    a=st.floats(min_value=0.1, max_value=10.0),
    b=st.floats(min_value=0.1, max_value=10.0),
    lam=st.floats(min_value=0.1, max_value=10.0),
)
def test_normalize_scaling_symmetry(a, b, lam):
    w1 = normalize_swanson(a, b, 0.2).omega0
    w2 = normalize_swanson(lam * a, b / lam, 0.2).omega0
    assert w1 == pytest.approx(w2, rel=1e-12)


def test_spectral_hermitian_limit():
    sd = spectral_data(SwansonParams(1.0, 0.0))
    assert sd.omega == 1.0
    assert sd.theta == 0.0
    assert sd.ground_b == 1j
    assert sd.davies_deformation == 1.0 + 0j


def test_spectral_reference_point():
    sd = spectral_data(SwansonParams(1.0, 0.5))
    assert sd.omega == pytest.approx(1.1180339887498949, abs=1e-12)
    assert sd.theta == pytest.approx(-0.2318238045004031, abs=1e-12)
    assert sd.ground_b == pytest.approx(1.6180339887498949j, abs=1e-12)
    assert sd.delta_crit == 1.0


def test_ground_b_is_riccati_fixed_point():
    # the ground uncertainty must be the upper-half-plane root of the
    # stationary width equation b' = -(c_pp b^2 + 2 c_pq b + c_qq) = 0
    params = SwansonParams(1.0, 0.5)
    model = swanson_hamiltonian(params)
    b = spectral_data(params).ground_b
    hc = model.hess_complex
    residual = hc[0, 0] * b * b + 2.0 * hc[0, 1] * b + hc[1, 1]
    assert abs(residual) < 1e-12
    assert b.imag > 0


def test_ground_state_energy():
    sd = spectral_data(SwansonParams(1.0, 0.5))
    assert sd.omega / 2.0 == pytest.approx(0.5590169943749475, abs=1e-12)


def test_eigenvalue_values():
    assert eigenvalue(SwansonParams(1.0, 0.0), 0) == pytest.approx(0.5, abs=1e-15)
    params = SwansonParams(1.0, 0.5)
    assert eigenvalue(params, 1) == pytest.approx(1.5 * params.omega, abs=1e-12)
    assert eigenvalue(params, 1) == pytest.approx(1.6770509831248424, abs=1e-12)


def test_eigenvalue_harmonic_spacing():
    params = SwansonParams(1.3, -0.7)
    gaps = [eigenvalue(params, n + 1) - eigenvalue(params, n) for n in range(6)]
    assert gaps == pytest.approx([params.omega] * 6, rel=1e-12)


def test_eigenvalue_rejects_bad_levels():
    with pytest.raises(ValueError):
        eigenvalue(SwansonParams(1.0, 0.0), -1)
    with pytest.raises(ValueError):
        eigenvalue(SwansonParams(1.0, 0.0), 1.5)


@given(omega0=positive_omegas, delta=finite_deltas)
def test_spectral_invariants(omega0, delta):
    params = SwansonParams(omega0, delta)
    sd = spectral_data(params)
    assert sd.omega**2 == pytest.approx(omega0**2 + delta**2, rel=1e-13)
    assert math.tan(2.0 * sd.theta) + delta / omega0 == pytest.approx(0.0, abs=1e-12 * max(1.0, abs(delta / omega0)))
    assert abs(sd.theta) < math.pi / 4
    assert abs(sd.davies_deformation) == pytest.approx(1.0, abs=1e-12)
    assert sd.ground_b.imag > 0


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
