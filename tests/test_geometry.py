import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swansim import (
    DegeneratePlaneError,
    HyperboloidPoint,
    Metric,
    NonNormalizableError,
    RealState,
    RegionLabel,
    SwansonParams,
    blowup_detected,
    classify_b,
    classify_metric,
    closed_series,
    metric_closed,
    metric_eigen,
    metric_from_b,
    plane_slope,
    region_grid,
    swanson_hamiltonian,
    xyz_from_metric,
    xyz_rhs,
)
from swansim.geometry import grid_axes

PARAMS = SwansonParams(1.0, 0.5)


def grid_labels(*args, **kwargs) -> np.ndarray:
    """region_grid's int8 codes as RegionLabel objects: code k is list(RegionLabel)[k]."""
    return np.array(list(RegionLabel), dtype=object)[region_grid(*args, **kwargs)]


upper_half_b = st.builds(
    complex,
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.05, max_value=4.0),
)


class TestXyzFromMetric:
    def test_identity(self):
        pt = xyz_from_metric(Metric.identity())
        assert (pt.x, pt.y, pt.z) == (0.0, 0.0, 1.0)

    def test_diagonal(self):
        pt = xyz_from_metric(Metric(1.0 / 3.0, 0.0, 3.0))
        assert pt.x == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert pt.y == 0.0
        assert pt.z == pytest.approx(5.0 / 3.0, abs=1e-14)
        assert pt.constraint_defect == pytest.approx(0.0, abs=1e-12)

    def test_from_uncertainty_parameter(self):
        pt = xyz_from_metric(metric_from_b(0.4j))
        assert pt.x == pytest.approx(-1.05, abs=1e-14)
        assert pt.y == pytest.approx(0.0, abs=1e-14)
        assert pt.z == pytest.approx(1.45, abs=1e-14)

    @given(b=upper_half_b)
    def test_hyperboloid_constraint(self, b):
        assert xyz_from_metric(metric_from_b(b)).constraint_defect == pytest.approx(0.0, abs=1e-10)


class TestXyzRhs:
    def test_hermitian_identity_fixed_point(self):
        params = SwansonParams(1.0, 0.0)
        assert np.allclose(xyz_rhs(params, HyperboloidPoint(0.0, 0.0, 1.0)), 0.0)

    def test_identity_initial_rate(self):
        assert xyz_rhs(PARAMS, HyperboloidPoint(0.0, 0.0, 1.0)) == pytest.approx([0.0, 1.0, 0.0])

    def test_finite_difference_of_closed_flow(self):
        # oracle: centred difference of xyz along the closed-form metric flow
        eps = 1e-6
        for t in (0.0, 0.4, 1.9):
            pts = []
            for s in (t - eps, t + eps):
                g = metric_closed(PARAMS, Metric.identity(), s)
                pts.append(xyz_from_metric(g))
            fd = (np.array([pts[1].x, pts[1].y, pts[1].z]) - [pts[0].x, pts[0].y, pts[0].z]) / (2 * eps)
            g_mid = metric_closed(PARAMS, Metric.identity(), t)
            assert xyz_rhs(PARAMS, xyz_from_metric(g_mid)) == pytest.approx(fd, abs=1e-6)

    @given(
        x=st.floats(min_value=-2.0, max_value=2.0),
        y=st.floats(min_value=-2.0, max_value=2.0),
        delta=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_velocity_tangent_to_hyperboloid(self, x, y, delta):
        z = math.sqrt(1.0 + x * x + y * y)
        params = SwansonParams(1.0, delta)
        vx, vy, vz = xyz_rhs(params, HyperboloidPoint(x, y, z))
        # d/dt (z^2 - x^2 - y^2) = 0
        assert 2.0 * (z * vz - x * vx - y * vy) == pytest.approx(0.0, abs=1e-10)


class TestPlaneSlope:
    def test_hermitian_horizontal_plane(self):
        assert plane_slope(SwansonParams(1.0, 0.0), HyperboloidPoint(0.0, 0.0, 1.0)) == 0.0

    def test_identity_metric_slope(self):
        assert plane_slope(PARAMS, HyperboloidPoint(0.0, 0.0, 1.0)) == pytest.approx(0.5)

    def test_critical_slope(self):
        assert plane_slope(SwansonParams(1.0, 1.0), HyperboloidPoint(0.0, 0.0, 1.0)) == pytest.approx(1.0)

    def test_degenerate_plane(self):
        with pytest.raises(DegeneratePlaneError):
            plane_slope(PARAMS, HyperboloidPoint(-2.0, 0.0, math.sqrt(5.0)))


class TestClassify:
    def test_hermitian_always_bounded(self):
        params = SwansonParams(1.0, 0.0)
        rng = np.random.default_rng(2)
        for _ in range(10):
            g_pp = rng.uniform(0.2, 5.0)
            g_pq = rng.uniform(-2.0, 2.0)
            g = Metric(g_pp, g_pq, (1.0 + g_pq**2) / g_pp)
            assert classify_metric(params, g) is RegionLabel.BOUNDED

    def test_identity_metric_labels(self):
        assert classify_metric(PARAMS, Metric.identity()) is RegionLabel.BOUNDED
        assert classify_metric(SwansonParams(1.0, 1.2), Metric.identity()) is RegionLabel.DIVERGENT
        assert classify_metric(SwansonParams(1.0, 1.0), Metric.identity()) is RegionLabel.BOUNDARY

    def test_classify_b_reference_points(self):
        assert classify_b(PARAMS, 0.4j) is RegionLabel.DIVERGENT
        assert classify_b(SwansonParams(1.0, -0.5), 1j) is RegionLabel.BOUNDED
        assert classify_b(SwansonParams(1.0, 0.0), 0.2 + 3j) is RegionLabel.BOUNDED

    def test_margin_equal_to_band_is_boundary(self):
        # margins Im b - delta/omega0 of exactly +-band (all values exact in binary)
        for b0 in (0.75j, 0.25j):
            assert classify_b(PARAMS, b0, band=0.25) is RegionLabel.BOUNDARY
        labels = grid_labels(PARAMS, (-1.0, 1.0), (0.25, 0.75), 3, band=0.25)
        assert set(labels.ravel()) == {RegionLabel.BOUNDARY}
        assert classify_metric(PARAMS, Metric.identity(), band=0.5) is RegionLabel.BOUNDARY

    @pytest.mark.parametrize("delta", [-1e-17, -1e-320])
    def test_vanishing_negative_coupling_is_bounded(self, delta):
        # the disk of radius omega0/(2|delta|) fills the upper half-plane and the
        # margin tends to Im b, also where radius - |b - i*radius| cancels (-1e-17)
        # or the radius overflows (-1e-320)
        params = SwansonParams(1.0, delta)
        assert classify_b(params, 0.3 + 1j, band=0.99) is RegionLabel.BOUNDED
        assert set(grid_labels(params, (-2.0, 2.0), (0.05, 2.0), 5).ravel()) == {RegionLabel.BOUNDED}
        assert not blowup_detected(swanson_hamiltonian(params), 0.3 + 1j, params.period)

    def test_shrinking_disk_is_divergent(self):
        # radius 5e-311 is subnormal and 1/radius overflows; the margin tends to -|b|
        params = SwansonParams(1e-300, -1e10)
        assert classify_b(params, 0.3 + 1j, band=1.04) is RegionLabel.DIVERGENT
        assert set(grid_labels(params, (-2.0, 2.0), (0.05, 2.0), 5).ravel()) == {RegionLabel.DIVERGENT}

    def test_classify_b_rejects_lower_half_plane(self):
        with pytest.raises(NonNormalizableError):
            classify_b(PARAMS, 0.4 - 0.1j)

    @given(b=upper_half_b, delta=st.floats(min_value=-1.5, max_value=1.5))
    def test_classify_b_agrees_with_metric_route(self, b, delta):
        params = SwansonParams(1.0, delta)
        lab_b = classify_b(params, b, band=1e-9)
        try:
            lab_g = classify_metric(params, metric_from_b(b), band=1e-9)
        except DegeneratePlaneError:
            # vertical conserved plane: a measure-zero configuration the
            # slope criterion cannot express; the width criterion still works
            return
        if RegionLabel.BOUNDARY in (lab_b, lab_g):
            return
        assert lab_b is lab_g

    def test_divergent_class_matches_dynamics_samples(self):
        model = swanson_hamiltonian(PARAMS)
        for b0, expected in ((0.4j, True), (0.3 + 0.45j, True), (0.8j, False), (-1.0 + 1.5j, False)):
            assert bool(blowup_detected(model, b0, PARAMS.period)) is expected
            label = classify_b(PARAMS, b0)
            assert (label is RegionLabel.DIVERGENT) is expected


class TestRegionGrid:
    def test_returns_int8_codes_into_region_label(self):
        codes = region_grid(PARAMS, (-2.0, 2.0), (0.05, 2.0), 41)
        assert codes.dtype == np.int8 and codes.shape == (41, 41)
        assert set(np.unique(codes).tolist()) == {0, 1, 2}
        assert [label.value for label in RegionLabel] == ["bounded", "divergent", "boundary"]

    def test_hermitian_all_bounded(self):
        labels = grid_labels(SwansonParams(1.0, 0.0), (-2.0, 2.0), (0.1, 2.0), 11)
        assert all(lab is RegionLabel.BOUNDED for lab in labels.ravel())

    def test_positive_coupling_horizontal_boundary(self):
        labels = grid_labels(PARAMS, (-2.0, 2.0), (0.05, 2.0), 41)
        _, im_vals = grid_axes((-2.0, 2.0), (0.05, 2.0), 41)
        for i, im in enumerate(im_vals):
            row = set(labels[i, :])
            if im < 0.5 - 0.02:
                assert row == {RegionLabel.DIVERGENT}
            elif im > 0.5 + 0.02:
                assert row == {RegionLabel.BOUNDED}
            else:
                assert row == {RegionLabel.BOUNDARY}

    def test_negative_coupling_disk(self):
        params = SwansonParams(1.0, -1.0)
        labels = grid_labels(params, (-1.5, 1.5), (0.05, 1.5), 41)
        re_vals, im_vals = grid_axes((-1.5, 1.5), (0.05, 1.5), 41)
        for i, im in enumerate(im_vals):
            for j, re in enumerate(re_vals):
                margin = 0.5 - abs(complex(re, im) - 0.5j)
                if margin > 0.02:
                    assert labels[i, j] is RegionLabel.BOUNDED
                elif margin < -0.02:
                    assert labels[i, j] is RegionLabel.DIVERGENT

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            region_grid(PARAMS, (-2.0, 2.0), (-0.1, 2.0), 5)
        with pytest.raises(ValueError):
            region_grid(PARAMS, (-2.0, 2.0), (0.1, 2.0), 1)

    @pytest.mark.parametrize(
        "re_range, im_range",
        [
            ((-2.0, math.inf), (0.1, 2.0)),
            ((-math.inf, 2.0), (0.1, 2.0)),
            ((-1e308, 1e308), (0.1, 2.0)),
            ((-2.0, 2.0), (0.1, math.inf)),
            ((-2.0, 2.0), (math.nan, 2.0)),
            ((math.nan, 2.0), (0.1, 2.0)),
        ],
    )
    def test_rejects_non_finite_ranges(self, re_range, im_range):
        with pytest.raises(ValueError, match="finite"):
            region_grid(PARAMS, re_range, im_range, 5)

    @given(
        delta=st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)),
        re_lo=st.floats(min_value=-5.0, max_value=5.0),
        re_width=st.floats(min_value=1e-3, max_value=10.0),
        im_lo=st.floats(min_value=1e-3, max_value=3.0),
        im_width=st.floats(min_value=1e-3, max_value=5.0),
        band=st.floats(min_value=1e-9, max_value=0.5),
        resolution=st.integers(min_value=2, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_classify_b_pointwise(self, delta, re_lo, re_width, im_lo, im_width, band, resolution):
        params = SwansonParams(1.0, delta)
        re_range, im_range = (re_lo, re_lo + re_width), (im_lo, im_lo + im_width)
        labels = grid_labels(params, re_range, im_range, resolution, band=band)
        assert labels.shape == (resolution, resolution)
        re_vals, im_vals = grid_axes(re_range, im_range, resolution)
        expected = [[classify_b(params, complex(re, im), band=band) for re in re_vals] for im in im_vals]
        assert labels.tolist() == expected


@pytest.mark.parametrize("band", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_band_must_be_finite_and_positive(band):
    with pytest.raises(ValueError, match="band must be finite and positive"):
        classify_b(PARAMS, 1j, band=band)
    with pytest.raises(ValueError, match="band must be finite and positive"):
        classify_metric(PARAMS, Metric.identity(), band=band)
    with pytest.raises(ValueError, match="band must be finite and positive"):
        region_grid(PARAMS, (-2.0, 2.0), (0.1, 2.0), 3, band=band)


class TestConservationLaws:
    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
    def test_hyperboloid_conservation_along_flow(self, delta):
        params = SwansonParams(1.0, delta)
        for t in np.linspace(0.0, params.period, 200):
            pt = xyz_from_metric(metric_closed(params, Metric.identity(), float(t)))
            assert abs(pt.constraint_defect) < 1e-9

    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.9])
    def test_plane_conservation_along_flow(self, delta):
        params = SwansonParams(1.0, delta)
        pt0 = xyz_from_metric(Metric.identity())
        scale = pt0.z / (params.omega0 + params.delta * pt0.x)
        for t in np.linspace(0.0, params.period, 200):
            pt = xyz_from_metric(metric_closed(params, Metric.identity(), float(t)))
            assert abs(pt.z - scale * (params.omega0 + params.delta * pt.x)) < 1e-9

    def test_eigenvalues_from_z_coordinate(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g_pp = rng.uniform(0.3, 3.0)
            g_pq = rng.uniform(-1.5, 1.5)
            g = Metric(g_pp, g_pq, (1.0 + g_pq**2) / g_pp)
            z = xyz_from_metric(g).z
            g_plus, g_minus, _ = metric_eigen(g.g_pp, g.g_pq, g.g_qq)
            assert g_plus == pytest.approx(z + math.sqrt(z * z - 1.0), abs=1e-10)
            assert g_minus == pytest.approx(z - math.sqrt(z * z - 1.0), abs=1e-10)

    def test_fourier_duality_of_labels(self):
        params_pos = SwansonParams(1.0, 0.5)
        params_neg = SwansonParams(1.0, -0.5)
        re_vals, im_vals = grid_axes((-2.0, 2.0), (0.05, 2.0), 21)
        for im in im_vals:
            for re in re_vals:
                b = complex(re, im)
                lab1 = classify_b(params_pos, b)
                lab2 = classify_b(params_neg, -1.0 / b)
                if RegionLabel.BOUNDARY in (lab1, lab2):
                    continue
                assert lab1 is lab2
