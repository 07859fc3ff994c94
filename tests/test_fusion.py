import io

import numpy as np
import pytest

from conftest import rotation_about

from tofir import (
    DimensionMismatchError,
    Extrinsics,
    FuseReason,
    IrIntrinsics,
    NoiseConfig,
    RangeFrame,
    ThermalFrame,
    backproject,
    demodulate,
    fuse,
    render_ir,
    render_tof,
    transform_points,
)
from tofir.fusion import (
    fuse_summary,
    thermogram_to_text,
    thermograms_from_container,
    thermograms_to_container,
)


def _full_frame(distance):
    shape = distance.shape
    return RangeFrame(distance, np.ones(shape), np.ones(shape), np.ones(shape, bool))


class TestExtrinsics:
    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="orthonormal"):
            Extrinsics(bad, np.zeros(3))

    def test_rejects_reflection(self):
        mirror = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            Extrinsics(mirror, np.zeros(3))

    def test_inverse_composes_to_identity(self):
        ext = Extrinsics(rotation_about([1, 2, 3], 25.0), np.array([0.1, -0.2, 0.3]))
        rng = np.random.default_rng(1)
        points = rng.normal(size=(100, 3))
        back = ext.inverse().apply(ext.apply(points))
        assert np.allclose(back, points, rtol=0, atol=1e-12)

    def test_json_round_trip(self):
        ext = Extrinsics(rotation_about([0, 1, 0], 10.0), np.array([0.05, 0.0, 0.01]))
        doc = ext.to_json_dict()
        assert len(doc["rotation"]) == 9 and len(doc["translation"]) == 3
        again = Extrinsics.from_json_dict(doc)
        assert np.allclose(again.rotation, ext.rotation, atol=1e-15)
        assert np.allclose(again.translation, ext.translation, atol=1e-15)

    def test_json_rotation_may_be_nested_rows(self):
        ext = Extrinsics(rotation_about([1, 2, 3], 25.0), np.array([0.05, 0.0, 0.01]))
        doc = ext.to_json_dict()
        nested = dict(doc, rotation=ext.rotation.tolist())
        flat = Extrinsics.from_json_dict(doc)
        assert np.array_equal(Extrinsics.from_json_dict(nested).rotation, flat.rotation)
        assert np.array_equal(flat.rotation, ext.rotation)
        assert np.array_equal(flat.translation, ext.translation)

    @pytest.mark.parametrize("key, value", [
        ("rotation", ["1", "0", "0", "0", "1", "0", "0", "0", "1"]),
        ("rotation", [[True, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("rotation", [1, 0, 0, 0, 1, 0, 0, 0]),
        ("rotation", [[1, 0, 0], [0, 1, 0]]),
        ("rotation", "identity"),
        ("translation", [True, 0, 0]),
        ("translation", ["0.05", 0, 0]),
        ("translation", [0.05, 0]),
    ])
    def test_json_entries_must_be_numbers(self, key, value):
        doc = dict(Extrinsics.identity().to_json_dict(), **{key: value})
        with pytest.raises(ValueError, match=f"extrinsics field '{key}'"):
            Extrinsics.from_json_dict(doc)

    @pytest.mark.parametrize("key", ["rotation", "translation"])
    def test_json_missing_key_is_named(self, key):
        doc = Extrinsics.identity().to_json_dict()
        del doc[key]
        with pytest.raises(KeyError, match=key):
            Extrinsics.from_json_dict(doc)


class TestTransformPoints:
    def test_identity(self, tof_intr):
        frame = _full_frame(np.full((50, 64), 2.0))
        cloud = backproject(frame, tof_intr)
        moved = transform_points(cloud, Extrinsics.identity())
        assert np.array_equal(moved.points, cloud.points)
        assert np.array_equal(moved.valid, cloud.valid)

    def test_pure_translation(self, tof_intr):
        frame = _full_frame(np.full((50, 64), 2.0))
        cloud = backproject(frame, tof_intr)
        ext = Extrinsics(np.eye(3), np.array([0.1, 0.0, 0.0]))
        moved = transform_points(cloud, ext)
        assert np.allclose(moved.points - cloud.points, [0.1, 0.0, 0.0], atol=1e-15)

    def test_quarter_turn_about_z(self):
        ext = Extrinsics(rotation_about([0, 0, 1], 90.0), np.array([0.0, 0.0, 0.5]))
        from tofir import PointCloud

        cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), np.array([0]), np.array([True]), 1, 1)
        moved = transform_points(cloud, ext)
        assert moved.points[0] == pytest.approx([0.0, 1.0, 0.5], abs=1e-12)

    def test_isometry(self, tof_intr):
        rng = np.random.default_rng(3)
        frame = _full_frame(rng.uniform(1.0, 5.0, size=(50, 64)))
        cloud = backproject(frame, tof_intr)
        ext = Extrinsics(rotation_about(rng.normal(size=3), 35.0), rng.normal(size=3))
        moved = transform_points(cloud, ext)
        take = rng.choice(len(cloud), size=200)
        d0 = np.linalg.norm(cloud.points[take] - cloud.points[take[::-1]], axis=1)
        d1 = np.linalg.norm(moved.points[take] - moved.points[take[::-1]], axis=1)
        assert np.allclose(d0, d1, rtol=1e-9, atol=1e-12)


class TestFuse:
    def test_uniform_temperature_identity_rig(self, tof_intr):
        # TOF and IR sharing one pose over a constant 300 K field
        ir = IrIntrinsics(4.8e-3, 160, 120, 25e-6)
        thermal = ThermalFrame(np.full((120, 160), 300.0))
        frame = _full_frame(np.full((50, 64), 3.0))
        tg = fuse(frame, thermal, tof_intr, ir, Extrinsics.identity())
        assert tg.valid.all()
        assert np.allclose(tg.temperature, 300.0, rtol=1e-12)

    def test_grid_complete_regardless_of_validity(self, tof_intr, ir_intr, baseline_ext):
        rng = np.random.default_rng(4)
        distance = rng.uniform(1.0, 5.0, size=(50, 64))
        valid = rng.uniform(size=(50, 64)) > 0.4
        frame = RangeFrame(distance, np.ones_like(distance), np.ones_like(distance), valid)
        thermal = ThermalFrame(np.full((120, 160), 300.0))
        tg = fuse(frame, thermal, tof_intr, ir_intr, baseline_ext)
        assert tg.points.shape == (50, 64, 3)
        assert tg.temperature.shape == (50, 64)
        assert np.array_equal(tg.reason == FuseReason.INVALID_RANGE, ~valid)
        # valid entries carry a finite position and a physical temperature
        assert np.all(np.isfinite(tg.points[tg.valid]))
        assert np.all(tg.temperature[tg.valid] > 0)

    def test_out_of_field_keeps_position(self, tof_intr, baseline_ext):
        # a tiny IR sensor that cannot see the TOF periphery
        ir_small = IrIntrinsics(4.8e-3, 20, 16, 25e-6)
        thermal = ThermalFrame(np.full((16, 20), 300.0))
        frame = _full_frame(np.full((50, 64), 3.0))
        tg = fuse(frame, thermal, tof_intr, ir_small, baseline_ext)
        out = tg.reason == FuseReason.OUT_OF_IR_FIELD
        assert out.any() and tg.valid.any()
        assert np.all(np.linalg.norm(tg.points[out], axis=-1) > 0)

    def test_behind_ir_camera_flagged(self, tof_intr):
        # turn the IR camera right around
        ir = IrIntrinsics(4.8e-3, 160, 120, 25e-6)
        ext = Extrinsics(rotation_about([0, 1, 0], 180.0), np.zeros(3))
        thermal = ThermalFrame(np.full((120, 160), 300.0))
        frame = _full_frame(np.full((50, 64), 3.0))
        tg = fuse(frame, thermal, tof_intr, ir, ext)
        assert np.all(tg.reason[frame.valid] == FuseReason.BEHIND_IR_CAMERA)

    def test_monotone_degradation_when_sensor_shrinks(self, tof_intr, baseline_ext):
        rng = np.random.default_rng(5)
        temps = rng.uniform(280, 320, size=(120, 160))
        frame = _full_frame(np.full((50, 64), 3.0))
        big = IrIntrinsics(4.8e-3, 160, 120, 25e-6)
        tg_big = fuse(frame, ThermalFrame(temps), tof_intr, big, baseline_ext)
        # crop right/bottom; same principal point so projections are unchanged
        small = IrIntrinsics(4.8e-3, 140, 100, 25e-6, cx=big.cx, cy=big.cy)
        tg_small = fuse(frame, ThermalFrame(temps[:100, :140]), tof_intr, small, baseline_ext)
        became_out = tg_big.valid & ~tg_small.valid
        assert np.all(tg_small.reason[became_out] == FuseReason.OUT_OF_IR_FIELD)
        still = tg_big.valid & tg_small.valid
        assert np.array_equal(tg_big.temperature[still], tg_small.temperature[still])

    def test_dimension_mismatch(self, tof_intr, ir_intr, baseline_ext):
        frame = _full_frame(np.full((50, 64), 3.0))
        with pytest.raises(DimensionMismatchError):
            fuse(frame, ThermalFrame(np.full((10, 10), 300.0)), tof_intr, ir_intr, baseline_ext)

    def test_simulated_scene_against_ground_truth(self, tof_intr, ir_intr, baseline_ext,
                                                  blob_scene):
        raw, truth = render_tof(blob_scene, tof_intr, noise=NoiseConfig.quiet())
        thermal = render_ir(blob_scene, ir_intr, baseline_ext.inverse())
        tg = fuse(demodulate(raw, tof_intr), thermal, tof_intr, ir_intr, baseline_ext)
        valid = tg.valid
        assert valid.any()
        adjacent = max(
            np.abs(np.diff(thermal.temperatures, axis=0)).max(),
            np.abs(np.diff(thermal.temperatures, axis=1)).max(),
        )
        err = np.abs(tg.temperature[valid] - truth.temperature[valid])
        assert err.max() <= adjacent + 1e-9
        # positions stay in the range-camera frame
        assert np.allclose(tg.points[valid], truth.points[valid], rtol=1e-9, atol=1e-12)


class TestExports:
    def _thermogram(self, tof_intr, ir_intr, baseline_ext):
        frame = _full_frame(np.full((50, 64), 3.0))
        thermal = ThermalFrame(np.full((120, 160), 300.0))
        return fuse(frame, thermal, tof_intr, ir_intr, baseline_ext)

    def test_container_round_trip(self, tof_intr, ir_intr, baseline_ext):
        tg = self._thermogram(tof_intr, ir_intr, baseline_ext)
        back = thermograms_from_container(thermograms_to_container([tg]))[0]
        assert np.array_equal(back.reason, tg.reason)
        assert np.allclose(back.temperature, tg.temperature, rtol=1e-6)

    def test_text_export_shape(self, tof_intr, ir_intr, baseline_ext):
        tg = self._thermogram(tof_intr, ir_intr, baseline_ext)
        file = io.StringIO()
        thermogram_to_text(tg, file)
        lines = [l for l in file.getvalue().splitlines() if not l.startswith("#")]
        assert len(lines) == 64 * 50
        assert len(lines[0].split()) == 5

    def test_summary_fractions_sum_to_one(self, tof_intr, ir_intr, baseline_ext):
        tg = self._thermogram(tof_intr, ir_intr, baseline_ext)
        stats = fuse_summary(tg)
        assert sum(stats.values()) == pytest.approx(1.0)
        assert stats["valid"] == pytest.approx(1.0)
