"""The value types: construction by position and by name, the checks each constructor makes, and
their value semantics (==, hash, the repr text, and no assignment to a frozen one)."""

import math
import re

import numpy as np
import pytest

from swansim import (
    ComplexState,
    GaussianState,
    HyperboloidPoint,
    Metric,
    MetriplecticState,
    QuadraticHamiltonian,
    RealState,
    SwansonParams,
    Trajectory,
)
from swansim.cli import RunConfig

# one instance of each frozen type, equal values built twice, and its repr text
FROZEN = {
    "SwansonParams": (lambda: SwansonParams(1.0, 0.5), "SwansonParams(omega0=1.0, delta=0.5)"),
    "RealState": (lambda: RealState(1.0, -2.0), "RealState(P=1.0, Q=-2.0)"),
    "ComplexState": (lambda: ComplexState(1 + 2j, -1j), "ComplexState(p=(1+2j), q=(-0-1j))"),
    "Metric": (lambda: Metric(2.0, 0.5, 0.625), "Metric(g_pp=2.0, g_pq=0.5, g_qq=0.625)"),
    "MetriplecticState": (
        lambda: MetriplecticState(RealState(1.0, 0.0), Metric(1.0, 0.0, 1.0), 0.5),
        "MetriplecticState(Z=RealState(P=1.0, Q=0.0), G=Metric(g_pp=1.0, g_pq=0.0, g_qq=1.0), n=0.5)",
    ),
    "GaussianState": (
        lambda: GaussianState(ComplexState(1j, 0j), 2j),
        "GaussianState(z=ComplexState(p=1j, q=0j), b=2j, gamma=0j)",
    ),
    "HyperboloidPoint": (lambda: HyperboloidPoint(0.0, 0.0, 1.0), "HyperboloidPoint(x=0.0, y=0.0, z=1.0)"),
}


# --- construction ---------------------------------------------------------------------------------


def test_swanson_params_by_position_and_name():
    assert SwansonParams(2.0, -0.5) == SwansonParams(delta=-0.5, omega0=2.0)
    params = SwansonParams(2.0, delta=-0.5)
    assert (params.omega0, params.delta) == (2.0, -0.5)


def test_quadratic_hamiltonian_by_position_and_name_with_defaults():
    hess_h, hess_gamma = [[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.5], [0.5, 0.0]]
    model = QuadraticHamiltonian(hess_h, hess_gamma)
    assert (model.const_h, model.const_gamma) == (0.0, 0.0)
    named = QuadraticHamiltonian(hess_gamma=hess_gamma, hess_h=hess_h, const_gamma=0.25)
    assert (named.const_h, named.const_gamma) == (0.0, 0.25)
    full = QuadraticHamiltonian(hess_h, hess_gamma, 1.5, -0.5)
    assert (full.const_h, full.const_gamma) == (1.5, -0.5)
    for m in (model, named, full):
        assert np.array_equal(m.hess_h, hess_h) and np.array_equal(m.hess_gamma, hess_gamma)
        # the Hessians are stored as read-only float arrays
        assert m.hess_h.dtype == float and not m.hess_h.flags.writeable and not m.hess_gamma.flags.writeable


def test_quadratic_hamiltonian_symmetrizes_within_tolerance():
    # an asymmetry below 1e-12 of the largest entry is roundoff: accepted, and averaged away
    model = QuadraticHamiltonian([[1e6, 3.0], [3.0 + 1e-7, 2e6]], np.zeros((2, 2)))
    assert model.hess_h[0, 1] == model.hess_h[1, 0] == 0.5 * (3.0 + (3.0 + 1e-7))


@pytest.mark.parametrize(
    "kind, args, fields",
    [
        (RealState, (1.0, 2.0), {"P": 1.0, "Q": 2.0}),
        (ComplexState, (1j, 2.0), {"p": 1j, "q": 2.0}),
        (Metric, (2.0, 0.5, 0.625), {"g_pp": 2.0, "g_pq": 0.5, "g_qq": 0.625}),
        (HyperboloidPoint, (0.5, -0.5, 1.5), {"x": 0.5, "y": -0.5, "z": 1.5}),
    ],
)
def test_states_by_position_and_name(kind, args, fields):
    assert kind(*args) == kind(**fields) == kind(*args[:1], **dict(list(fields.items())[1:]))
    assert {name: getattr(kind(*args), name) for name in fields} == fields


def test_metriplectic_state_by_position_and_name():
    state = MetriplecticState(RealState(1.0, 0.0), Metric(1.0, 0.0, 1.0), 0.5)
    assert state == MetriplecticState(n=0.5, G=Metric(1.0, 0.0, 1.0), Z=RealState(1.0, 0.0))
    assert (state.Z, state.G, state.n) == (RealState(1.0, 0.0), Metric.identity(), 0.5)


def test_gaussian_state_by_position_and_name_with_default():
    state = GaussianState(ComplexState(1j, 0j), 2j)
    assert state.gamma == 0j
    assert state == GaussianState(b=2j, z=ComplexState(1j, 0j)) == GaussianState(ComplexState(1j, 0j), 2j, 0j)
    assert GaussianState(ComplexState(1j, 0j), 2j, gamma=0.5).gamma == 0.5


def test_trajectory_by_position_and_name_with_defaults():
    times, values = np.arange(3.0), np.ones((3, 6))
    traj = Trajectory(times, values)
    assert traj.times is times and traj.values is values
    assert (traj.divergence_time, traj.det_drift) == (None, 0.0)
    named = Trajectory(values=values, times=times, det_drift=1e-9)
    assert (named.times, named.values, named.divergence_time, named.det_drift) == (times, values, None, 1e-9)
    full = Trajectory(times, values, 2.5, 1e-9)
    assert (full.divergence_time, full.det_drift) == (2.5, 1e-9)


def test_run_config_defaults_position_and_name():
    cfg = RunConfig()
    assert (cfg.omega0, cfg.delta, cfg.g0, cfg.b0, cfg.step, cfg.out) == (1.0, 0.5, (1.0, 0.0, 1.0), None, None, None)
    assert (cfg.resolution, cfg.band, cfg.delta_step, cfg.allow_divergence) == (41, 0.02, 0.1, False)
    assert RunConfig(2.0, 0.25) == RunConfig(omega0=2.0, delta=0.25) == RunConfig(2.0, delta=0.25)
    assert RunConfig(2.0, 0.25).p0 == 1.0
    last = RunConfig(*[getattr(cfg, name) for name in RunConfig.__annotations__][:-1], 0.3)
    assert last.delta_step == 0.3 and last == RunConfig(delta_step=0.3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SwansonParams(1.0),
        lambda: SwansonParams(1.0, 0.5, 0.0),
        lambda: SwansonParams(1.0, omega0=1.0),
        lambda: SwansonParams(1.0, gamma=0.5),
        lambda: QuadraticHamiltonian(np.eye(2)),
        lambda: QuadraticHamiltonian(np.eye(2), np.zeros((2, 2)), 0.0, 0.0, 0.0),
        lambda: RealState(1.0),
        lambda: ComplexState(1.0, 2.0, 3.0),
        lambda: Metric(1.0, 0.0),
        lambda: Metric(1.0, 0.0, 1.0, g_pp=1.0),
        lambda: MetriplecticState(RealState(1.0, 0.0), Metric.identity()),
        lambda: GaussianState(ComplexState(0j, 0j)),
        lambda: GaussianState(ComplexState(0j, 0j), 1j, 0j, 0j),
        lambda: HyperboloidPoint(0.0, 0.0),
        lambda: Trajectory(np.zeros(1)),
        lambda: Trajectory(np.zeros(1), np.zeros((1, 6)), None, 0.0, 0.0),
        lambda: RunConfig(*range(21)),
        lambda: RunConfig(1.0, omega0=1.0),
        lambda: RunConfig(omega=1.0),
    ],
)
def test_wrong_arguments_are_type_errors(build):
    # a missing, surplus, repeated or unknown argument, as for any Python call
    with pytest.raises(TypeError):
        build()


# --- validation -----------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "omega0, delta, message",
    [
        (math.nan, 0.5, "parameters must be finite"),
        (1.0, math.inf, "parameters must be finite"),
        (0.0, 0.5, "omega0 must be positive, got 0.0"),
        (-1.0, 0.5, "omega0 must be positive, got -1.0"),
        (1e300, 0.5, "omega0 1e+300 with delta 0.5 gives a period of 6.28e-300, too short for its squared frequency"),
        (1e-300, 0.0, "omega0 1e-300 with delta 0 gives a frequency of 1e-300, below the smallest supported"),
    ],
)
def test_swanson_params_checks(omega0, delta, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SwansonParams(omega0, delta)


@pytest.mark.parametrize(
    "hess_h, hess_gamma, message",
    [
        (np.eye(3), np.zeros((2, 2)), "hess_h must be a 2x2 matrix"),
        (np.eye(2), [0.0, 1.0], "hess_gamma must be a 2x2 matrix"),
        ([[1.0, math.nan], [math.nan, 1.0]], np.zeros((2, 2)), "hess_h must be finite"),
        (np.eye(2), [[0.0, math.inf], [0.0, 0.0]], "hess_gamma must be finite"),
        ([[1.0, 0.0], [1e-11, 1.0]], np.zeros((2, 2)), r"hess_h must be symmetric \(Weyl symmetrization\)"),
        # the tolerance scales with the largest entry: 2e-5 at 1e7 is refused, 1e-7 at 1e6 is not
        ([[1e7, 0.0], [2e-5, 1.0]], np.zeros((2, 2)), r"hess_h must be symmetric"),
        (np.eye(2), [[0.0, 1.0], [1.001, 0.0]], r"hess_gamma must be symmetric"),
    ],
)
def test_quadratic_hamiltonian_checks(hess_h, hess_gamma, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        QuadraticHamiltonian(hess_h, hess_gamma)


@pytest.mark.parametrize("P, Q", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_real_state_checks(P, Q):
    with pytest.raises(ValueError, match="^phase-space point must be finite$"):
        RealState(P, Q)


@pytest.mark.parametrize(
    "entries, message",
    [
        ((math.nan, 0.0, 1.0), "metric entries must be finite"),
        ((1.0, math.inf, 1.0), "metric entries must be finite"),
        ((1.0, 0.0, -math.inf), "metric entries must be finite"),
        ((0.0, 0.0, 1.0), "metric must be positive definite"),
        ((1.0, 0.0, 0.0), "metric must be positive definite"),
        ((-1.0, 0.0, -1.0), "metric must be positive definite"),
    ],
)
def test_metric_checks(entries, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Metric(*entries)


@pytest.mark.parametrize("n", [0.0, -1.0, math.inf, math.nan])
def test_metriplectic_state_checks(n):
    with pytest.raises(ValueError, match="^survival probability must be positive and finite$"):
        MetriplecticState(RealState(1.0, 0.0), Metric.identity(), n)


@pytest.mark.parametrize("z", [0.0, -1.0])
def test_hyperboloid_point_checks(z):
    with pytest.raises(ValueError, match=r"^hyperboloid point must lie on the upper sheet \(z > 0\)$"):
        HyperboloidPoint(0.0, 0.0, z)


def test_smallest_accepted_values():
    # each check's boundary: the least value it lets through
    assert Metric(5e-324, 0.0, 5e-324).g_pp == 5e-324
    assert MetriplecticState(RealState(0.0, 0.0), Metric.identity(), 5e-324).n == 5e-324
    assert HyperboloidPoint(0.0, 0.0, 5e-324).z == 5e-324
    assert SwansonParams(5e-324, 1.0).omega0 == 5e-324


# --- value semantics ------------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_types_compare_and_hash_by_value(name):
    build, _ = FROZEN[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    # the hash is that of the tuple of fields
    fields = tuple(vars(a).values())
    assert hash(a) == hash(fields)
    # a tuple of the same fields, or another type, is not equal
    assert a != fields
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_repr_is_the_dataclass_form(name):
    build, text = FROZEN[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_types_refuse_assignment(name):
    value = FROZEN[name][0]()
    field = next(iter(vars(value)))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, 0.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        value.other = 0.0
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)


def test_unequal_values():
    assert Metric(1.0, 0.0, 1.0) != Metric(1.0, 0.0, 2.0)
    assert SwansonParams(1.0, 0.5) != SwansonParams(1.0, -0.5)
    # equal fields in another type are another value
    assert RealState(1.0, 0.0) != ComplexState(1.0, 0.0)
    assert GaussianState(ComplexState(0j, 0j), 1j) != GaussianState(ComplexState(0j, 0j), 1j, 0.5)


def test_quadratic_hamiltonian_semantics():
    model = QuadraticHamiltonian(np.eye(2), np.zeros((2, 2)))
    assert model == model
    # it holds arrays, so it has no hash
    with pytest.raises(TypeError):
        hash(model)
    assert repr(model) == (
        f"QuadraticHamiltonian(hess_h={model.hess_h!r}, hess_gamma={model.hess_gamma!r}, const_h=0.0, const_gamma=0.0)"
    )
    with pytest.raises(AttributeError, match="cannot assign to field 'const_h'"):
        model.const_h = 1.0


def test_trajectory_is_mutable_and_unhashable():
    traj = Trajectory(np.arange(2.0), np.ones((2, 6)))
    assert traj == traj
    traj.divergence_time = 1.0
    assert traj.divergence_time == 1.0
    with pytest.raises(TypeError):
        hash(traj)
    assert repr(traj) == f"Trajectory(times={traj.times!r}, values={traj.values!r}, divergence_time=1.0, det_drift=0.0)"


def test_run_config_is_mutable_and_unhashable():
    cfg = RunConfig()
    cfg.delta = 0.75
    assert cfg.delta == 0.75 and cfg != RunConfig() and RunConfig().delta == 0.5
    cfg.delta = 0.5
    assert cfg == RunConfig()
    with pytest.raises(TypeError):
        hash(cfg)
    assert repr(RunConfig(out="x.csv")) == (
        "RunConfig(omega0=1.0, delta=0.5, p0=1.0, q0=0.0, g0=(1.0, 0.0, 1.0), b0=None, n0=1.0, step=None, "
        "periods=1.0, out='x.csv', allow_divergence=False, re_min=-2.0, re_max=2.0, im_min=0.05, im_max=2.0, "
        "resolution=41, band=0.02, delta_min=0.0, delta_max=1.2, delta_step=0.1)"
    )


def test_run_config_fields_are_annotated_with_class_defaults():
    assert list(RunConfig.__annotations__)[:3] == ["omega0", "delta", "p0"]
    assert len(RunConfig.__annotations__) == 20
    assert RunConfig.__annotations__["b0"] == "complex | None"
    assert {name: getattr(RunConfig, name) for name in ("omega0", "resolution", "out")} == {
        "omega0": 1.0,
        "resolution": 41,
        "out": None,
    }
