import numpy as np
import pytest

from tofir import IrIntrinsics, ThermalFrame
from tofir.camera import project_points
from tofir.thermal import (
    sample_temperature_grid,
    thermal_frames_from_container,
    thermal_frames_to_container,
)


def sample_temperature(frame, x, y) -> float:
    """Temperature at one in-field position, through the grid sampler."""
    values, in_field = sample_temperature_grid(frame, np.array([x]), np.array([y]))
    assert in_field.tolist() == [True]
    return float(values[0])


def _unit_projection_intrinsics():
    # cx = cy = 0 with unit pitch: (r, s) is exactly (f X / Z, f Y / Z)
    return IrIntrinsics(focal_length=2.0, width=10, height=10, pixel_pitch=1.0, cx=0.0, cy=0.0)


def _project(point, intr):
    pixels, in_front = project_points(np.asarray([point], dtype=np.float64), intr)
    return tuple(pixels[0]), bool(in_front[0])


class TestProjection:
    def test_on_axis_point_hits_principal_point(self, ir_intr):
        for z in (0.1, 1.0, 42.0):
            assert _project((0.0, 0.0, z), ir_intr) == ((ir_intr.cx, ir_intr.cy), True)

    def test_similar_triangles_example(self):
        (r, s), _ = _project((1.0, 2.0, 4.0), _unit_projection_intrinsics())
        assert (r, s) == pytest.approx((0.5, 1.0), rel=1e-15)

    def test_scale_invariance(self, ir_intr):
        rng = np.random.default_rng(2)
        points = np.column_stack(
            [rng.normal(size=50), rng.normal(size=50), rng.uniform(0.2, 5.0, size=50)]
        )
        lam = rng.uniform(0.01, 100.0, size=(50, 1))
        pix0, _ = project_points(points, ir_intr)
        pix1, _ = project_points(lam * points, ir_intr)
        assert pix1 == pytest.approx(pix0, rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_behind_camera_flagged(self, ir_intr, z):
        (r, s), in_front = _project((0.5, 0.5, z), ir_intr)
        assert not in_front
        assert np.isnan(r) and np.isnan(s)

    def test_vectorized_projection_flags_instead_of_raising(self, ir_intr):
        points = np.array([[0.0, 0.0, 2.0], [1.0, 1.0, -1.0]])
        pixels, in_front = project_points(points, ir_intr)
        assert in_front.tolist() == [True, False]
        assert pixels[0] == pytest.approx([ir_intr.cx, ir_intr.cy])
        assert np.isnan(pixels[1]).all()


class TestBilinearSampling:
    def test_constant_field(self):
        frame = ThermalFrame(np.full((4, 4), 300.0))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(0.5, 3.5)
            y = rng.uniform(0.5, 3.5)
            assert sample_temperature(frame, x, y) == pytest.approx(300.0, rel=1e-15)

    def test_cell_midpoint_is_mean_of_corners(self):
        temps = np.array([[290.0, 310.0], [300.0, 340.0]])
        frame = ThermalFrame(temps)
        assert sample_temperature(frame, 1.0, 1.0) == pytest.approx(temps.mean(), rel=1e-15)

    @pytest.mark.parametrize("fy", [0.0, 0.25, 0.5, 0.99])
    def test_row_gradient_example(self, fy):
        # corners T(x0,*) = 1, T(x1,*) = 2 shifted to stay positive; at
        # fx = 0.25 the value is 1.25 whatever fy is
        temps = np.array([[1.0, 2.0], [1.0, 2.0]])
        frame = ThermalFrame(temps)
        value = sample_temperature(frame, 0.5 + 0.25, 0.5 + fy)
        assert value == pytest.approx(1.25, rel=1e-14)

    def test_pixel_center_returns_stored_value(self):
        rng = np.random.default_rng(4)
        temps = rng.uniform(250, 350, size=(6, 9))
        frame = ThermalFrame(temps)
        for j in range(6):
            for i in range(9):
                assert sample_temperature(frame, i + 0.5, j + 0.5) == temps[j, i]

    def test_interpolation_stays_within_corner_range(self):
        rng = np.random.default_rng(5)
        temps = rng.uniform(250, 350, size=(8, 8))
        frame = ThermalFrame(temps)
        xs = rng.uniform(0.5, 7.5, size=2000)
        ys = rng.uniform(0.5, 7.5, size=2000)
        values, ok = sample_temperature_grid(frame, xs, ys)
        assert ok.all()
        i0 = np.clip((xs - 0.5).astype(int), 0, 6)
        j0 = np.clip((ys - 0.5).astype(int), 0, 6)
        corners = np.stack(
            [temps[j0, i0], temps[j0, i0 + 1], temps[j0 + 1, i0], temps[j0 + 1, i0 + 1]]
        )
        assert np.all(values >= corners.min(axis=0) - 1e-12)
        assert np.all(values <= corners.max(axis=0) + 1e-12)

    def test_separately_linear_along_each_axis(self):
        rng = np.random.default_rng(6)
        temps = rng.uniform(250, 350, size=(5, 5))
        frame = ThermalFrame(temps)
        # three collinear samples along x inside one interpolation cell:
        # the midpoint equals the mean of the ends
        y = 2.3
        v0, _ = sample_temperature_grid(frame, np.array([1.55]), np.array([y]))
        v1, _ = sample_temperature_grid(frame, np.array([1.80]), np.array([y]))
        v2, _ = sample_temperature_grid(frame, np.array([2.05]), np.array([y]))
        assert v1[0] == pytest.approx((v0[0] + v2[0]) / 2, rel=1e-12)
        x = 3.4
        w0, _ = sample_temperature_grid(frame, np.array([x]), np.array([2.55]))
        w1, _ = sample_temperature_grid(frame, np.array([x]), np.array([2.80]))
        w2, _ = sample_temperature_grid(frame, np.array([x]), np.array([3.05]))
        assert w1[0] == pytest.approx((w0[0] + w2[0]) / 2, rel=1e-12)

    @pytest.mark.parametrize("pos", [(0.49, 2.0), (3.51, 2.0), (2.0, 0.4), (2.0, 3.6), (-1.0, -1.0)])
    def test_out_of_field_raises(self, pos):
        # an out-of-field position is flagged and reads 0
        frame = ThermalFrame(np.full((4, 4), 300.0))
        values, in_field = sample_temperature_grid(frame, np.array([pos[0]]), np.array([pos[1]]))
        assert in_field.tolist() == [False]
        assert values.tolist() == [0.0]

    def test_domain_boundary_is_inclusive(self):
        frame = ThermalFrame(np.arange(1, 17, dtype=float).reshape(4, 4))
        assert sample_temperature(frame, 3.5, 3.5) == 16.0
        assert sample_temperature(frame, 0.5, 0.5) == 1.0

    def test_nan_coordinates_flagged_out_of_field(self):
        frame = ThermalFrame(np.full((4, 4), 300.0))
        values, ok = sample_temperature_grid(frame, np.array([np.nan]), np.array([1.0]))
        assert not ok[0] and values[0] == 0.0


class TestTypes:
    def test_temperatures_must_be_positive(self):
        with pytest.raises(ValueError):
            ThermalFrame(np.array([[300.0, -1.0]]))
        with pytest.raises(ValueError):
            ThermalFrame(np.array([[300.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_temperatures_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ThermalFrame(np.array([[300.0, bad]]))

    def test_json_round_trip(self, ir_intr):
        doc = ir_intr.to_json_dict()
        assert set(doc) == {"f", "width", "height", "pixel_pitch", "cx", "cy"}
        assert IrIntrinsics.from_json_dict(doc) == ir_intr

    def test_json_reserved_distortion_keys_ignored(self):
        doc = {"f": 4.8e-3, "width": 160, "height": 120, "pixel_pitch": 25e-6,
               "k1": 0.1, "k2": 0.2}
        intr = IrIntrinsics.from_json_dict(doc)
        assert intr.width == 160  # loads fine, distortion keys have no effect

    def test_container_round_trip(self):
        rng = np.random.default_rng(8)
        frame = ThermalFrame(rng.uniform(250, 350, size=(6, 7)))
        back = thermal_frames_from_container(thermal_frames_to_container([frame]))[0]
        assert np.allclose(back.temperatures, frame.temperatures, rtol=1e-6)
