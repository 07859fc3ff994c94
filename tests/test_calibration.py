import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import geodesic_degrees, projection_error, rotation_about

from tofir import (
    CalibrationTarget,
    DegenerateGeometryError,
    Extrinsics,
    InsufficientDataError,
    IrIntrinsics,
    TargetObservation,
    estimate_rotation,
    make_calibration_set,
)
from tofir import calibration
from tofir.calibration import (
    axis_angle_matrix,
    format_report,
    load_observations,
    orthonormalize_rotation,
    rotation_angle_between,
    save_observations,
)
from tofir.camera import lift


def _targets(rng, count, spread=0.7):
    out = []
    while len(out) < count:
        out.append(
            CalibrationTarget(
                (rng.uniform(-spread, spread), rng.uniform(-spread * 0.7, spread * 0.7),
                 rng.uniform(1.5, 5.0))
            )
        )
    return out


def _observation_set(tof_intr, ir_intr, rotation, translation, count=20, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    ext = Extrinsics(rotation, translation)
    obs = []
    attempts = 0
    while len(obs) < count and attempts < 20:
        obs += make_calibration_set(
            _targets(rng, count), ext, tof_intr, ir_intr, noise, seed=seed + attempts
        )
        attempts += 1
    assert len(obs) >= count
    return obs[:count]


class TestRotationUtilities:
    def test_axis_angle_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rotvec = rng.normal(size=3) * rng.uniform(0, math.pi)
            mine = axis_angle_matrix(rotvec)
            reference = Rotation.from_rotvec(rotvec).as_matrix()
            assert np.allclose(mine, reference, atol=1e-13)

    def test_tiny_angles_stay_finite(self):
        r = axis_angle_matrix([1e-15, 0.0, 0.0])
        assert np.allclose(r, np.eye(3), atol=1e-14)
        assert axis_angle_matrix([0.0, 0.0, 0.0]).tolist() == np.eye(3).tolist()

    def test_orthonormalize_restores_rotation(self):
        noisy = rotation_about([1, 1, 0], 30.0) + 1e-6 * np.random.default_rng(1).normal(size=(3, 3))
        fixed = orthonormalize_rotation(noisy)
        assert np.allclose(fixed.T @ fixed, np.eye(3), atol=1e-12)
        assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)

    def test_geodesic_angle(self):
        r = rotation_about([0, 1, 0], 10.0)
        assert rotation_angle_between(np.eye(3), r) == pytest.approx(np.deg2rad(10.0), rel=1e-9)


class TestProjectionError:
    def test_zero_for_consistent_observation(self, tof_intr, ir_intr, baseline_ext):
        obs = _observation_set(tof_intr, ir_intr, rotation_about([0, 1, 0], 7.0),
                               baseline_ext.translation, count=5)
        r_true = rotation_about([0, 1, 0], 7.0)
        for o in obs:
            assert projection_error(o, r_true, baseline_ext.translation, tof_intr, ir_intr) \
                == pytest.approx(0.0, abs=1e-9)

    def test_unit_shift_gives_unit_error(self, tof_intr, ir_intr, baseline_ext):
        r_true = rotation_about([1, 0, 0], 3.0)
        (obs,) = _observation_set(tof_intr, ir_intr, r_true, baseline_ext.translation, count=1)
        shifted = TargetObservation(obs.u, obs.v, obs.distance, obs.ir_x + 1.0, obs.ir_y)
        assert projection_error(shifted, r_true, baseline_ext.translation, tof_intr, ir_intr) \
            == pytest.approx(1.0, rel=1e-9)

    def test_parallax_against_independent_scalar_computation(self, tof_intr, ir_intr):
        # everything below is recomputed with plain floats, no library calls
        translation = np.array([0.05, 0.0, 0.0])
        r_true = rotation_about([0, 1, 0], 5.0)
        ext = Extrinsics(r_true, translation)
        target = CalibrationTarget((0.3, -0.2, 2.5))
        (obs,) = make_calibration_set([target], ext, tof_intr, ir_intr)

        error = projection_error(obs, np.eye(3), translation, tof_intr, ir_intr)

        un = (obs.u - tof_intr.cx) * tof_intr.pixel_pitch / tof_intr.focal_length
        vn = (obs.v - tof_intr.cy) * tof_intr.pixel_pitch / tof_intr.focal_length
        d = math.sqrt(1.0 + un * un + vn * vn)
        px = obs.distance / d * un
        py = obs.distance / d * vn
        pz = obs.distance / d
        qx, qy, qz = px + translation[0], py + translation[1], pz + translation[2]
        rp = ir_intr.cx + ir_intr.focal_length * qx / (qz * ir_intr.pixel_pitch)
        sp = ir_intr.cy + ir_intr.focal_length * qy / (qz * ir_intr.pixel_pitch)
        expected = math.hypot(rp - obs.ir_x, sp - obs.ir_y)

        assert error == pytest.approx(expected, rel=1e-12)
        assert error > 1.0  # a 5 degree rotation moves the image by many pixels

    def test_behind_camera_penalty(self, tof_intr, ir_intr):
        obs = TargetObservation(32.0, 25.0, 2.0, 80.0, 60.0)
        flip = rotation_about([1, 0, 0], 180.0)
        err = projection_error(obs, flip, np.zeros(3), tof_intr, ir_intr)
        assert err == pytest.approx(1e6)


class TestEstimateRotation:
    def test_noise_free_recovery_within_microradians(self, tof_intr, ir_intr):
        rng = np.random.default_rng(11)
        axis = rng.normal(size=3)
        r_true = rotation_about(axis, 10.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0], count=20)
        result = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr)
        assert result.converged
        assert rotation_angle_between(result.rotation, r_true) <= 1e-6
        assert result.total_error == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("robust", [False, True])
    def test_target_points_built_once_per_solve(self, tof_intr, ir_intr, monkeypatch, robust):
        r_true = rotation_about([0, 1, 0], 3.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0], count=10)
        calls = []

        def counted_lift(*args):
            calls.append(args)
            return lift(*args)

        monkeypatch.setattr(calibration, "lift", counted_lift)
        result = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr, robust=robust)
        assert result.iterations > 0
        assert len(calls) == 1

    def test_perfect_initial_guess_needs_no_iterations(self, tof_intr, ir_intr):
        r_true = rotation_about([0, 0, 1], 4.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0], count=10)
        result = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr, r_true)
        assert result.iterations == 0
        assert result.converged and result.stop_reason == "step_tolerance"
        assert result.total_error == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_translation_rejected(self, tof_intr, ir_intr, bad):
        obs = _observation_set(tof_intr, ir_intr, np.eye(3), [0.05, 0.0, 0.0], count=10)
        with pytest.raises(ValueError, match="translation must be finite"):
            estimate_rotation(obs, [0.05, bad, 0.0], tof_intr, ir_intr)

    def test_non_finite_initial_rotation_rejected(self, tof_intr, ir_intr):
        obs = _observation_set(tof_intr, ir_intr, np.eye(3), [0.05, 0.0, 0.0], count=10)
        initial = np.eye(3)
        initial[1, 2] = math.nan
        with pytest.raises(ValueError, match="initial_rotation must be finite"):
            estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr, initial)

    def test_noisy_observations_single_seed(self, tof_intr, ir_intr):
        r_true = rotation_about([1, 2, 0.5], 8.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0],
                               count=20, noise=0.1, seed=3)
        result = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr)
        assert result.converged
        assert geodesic_degrees(result.rotation, r_true) < 0.5
        rms = float(np.sqrt(np.mean(result.residuals**2)))
        assert 0.05 <= rms <= 0.2

    def test_result_invariants(self, tof_intr, ir_intr):
        r_true = rotation_about([1, 0, 1], 6.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0],
                               count=15, noise=0.2, seed=9)
        result = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr)
        assert np.all(result.residuals >= 0)
        assert result.total_error == pytest.approx(result.residuals.sum(), rel=1e-12)
        r = result.rotation
        assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9
        assert abs(np.linalg.det(r) - 1.0) <= 1e-9

    def test_insufficient_observations(self, tof_intr, ir_intr):
        obs = [TargetObservation(10.0, 10.0, 2.0, 40.0, 40.0),
               TargetObservation(40.0, 30.0, 3.0, 100.0, 70.0)]
        with pytest.raises(InsufficientDataError):
            estimate_rotation(obs, [0.05, 0, 0], tof_intr, ir_intr)

    def test_collinear_observations_rejected_with_diagnostic(self, tof_intr, ir_intr):
        obs = [TargetObservation(10.0 + 5 * i, 25.0, 2.0 + 0.2 * i, 40.0 + 10 * i, 60.0)
               for i in range(6)]
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            estimate_rotation(obs, [0.05, 0, 0], tof_intr, ir_intr)

    @pytest.mark.parametrize("u, v", [(-1e-9, 25.0), (64.0 + 1e-9, 25.0), (30.0, 50.5),
                                      (1e308, 25.0)])
    def test_range_pixel_off_the_sensor_rejected_before_the_geometry(self, tof_intr, ir_intr,
                                                                      u, v):
        # the rest are collinear: the off-sensor pixel is named first
        obs = [TargetObservation(10.0 + 5 * i, 25.0, 2.0, 40.0 + 10 * i, 60.0)
               for i in range(4)]
        obs[2] = TargetObservation(u, v, 2.0, 60.0, 60.0)
        with pytest.raises(ValueError, match=r"observation 2: range pixel .* outside the 64x50"):
            estimate_rotation(obs, [0.05, 0, 0], tof_intr, ir_intr)

    def test_range_pixel_on_the_sensor_edge_accepted(self, tof_intr, ir_intr):
        edges = [(0.0, 0.0), (64.0, 0.0), (0.0, 50.0), (64.0, 50.0)]
        obs = [TargetObservation(u, v, 2.0, 80.0, 60.0) for u, v in edges]
        result = estimate_rotation(obs, [0.05, 0, 0], tof_intr, ir_intr)
        assert result.residuals.shape == (4,)

    def test_duplicate_observation_does_not_move_minimizer(self, tof_intr, ir_intr):
        r_true = rotation_about([0, 1, 0], 9.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0], count=12)
        base = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr)
        doubled = estimate_rotation(obs + [obs[0]], [0.05, 0.0, 0.0], tof_intr, ir_intr)
        assert rotation_angle_between(base.rotation, doubled.rotation) < 1e-8

    def test_residuals_invariant_under_permutation(self, tof_intr, ir_intr):
        r_true = rotation_about([2, 1, 1], 7.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0],
                               count=10, noise=0.3, seed=5)
        perm = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]
        base = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr)
        shuffled = estimate_rotation([obs[i] for i in perm], [0.05, 0.0, 0.0],
                                     tof_intr, ir_intr)
        assert rotation_angle_between(base.rotation, shuffled.rotation) < 1e-9
        assert np.allclose(shuffled.residuals, base.residuals[perm], rtol=1e-9, atol=1e-12)

    def test_minimizer_invariant_under_ir_pixel_rescaling(self, tof_intr, ir_intr):
        r_true = rotation_about([1, 1, 1], 6.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0],
                               count=15, noise=0.2, seed=13)
        lam = 2.5
        scaled_intr = IrIntrinsics(
            ir_intr.focal_length * lam,
            int(ir_intr.width * lam),
            int(ir_intr.height * lam),
            ir_intr.pixel_pitch,
            cx=ir_intr.cx * lam,
            cy=ir_intr.cy * lam,
        )
        scaled_obs = [
            TargetObservation(o.u, o.v, o.distance, o.ir_x * lam, o.ir_y * lam) for o in obs
        ]
        base = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr)
        scaled = estimate_rotation(scaled_obs, [0.05, 0.0, 0.0], tof_intr, scaled_intr)
        # the cost scales by lam, the argmin does not
        assert rotation_angle_between(base.rotation, scaled.rotation) < 1e-7
        assert scaled.total_error == pytest.approx(lam * base.total_error, rel=1e-3)

    def test_robust_mode_shrugs_off_an_outlier(self, tof_intr, ir_intr):
        r_true = rotation_about([0, 1, 0], 8.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0], count=20)
        bad = obs[0]
        obs[0] = TargetObservation(bad.u, bad.v, bad.distance, bad.ir_x + 30.0, bad.ir_y - 20.0)
        squared = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr)
        robust = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr, robust=True)
        err_squared = geodesic_degrees(squared.rotation, r_true)
        err_robust = geodesic_degrees(robust.rotation, r_true)
        assert err_robust < err_squared


class TestObservationIO:
    def test_file_round_trip(self, tmp_path):
        obs = [
            TargetObservation(10.25, 20.5, 2.125, 80.75, 60.5),
            TargetObservation(30.0, 40.0, 3.5, 90.0, 61.0),
            TargetObservation(50.5, 10.0, 1.75, 100.25, 59.0),
        ]
        path = tmp_path / "observations.txt"
        save_observations(path, obs)
        loaded = load_observations(path)
        assert loaded == obs

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_rejected(self, field, bad):
        values = [10.0, 20.0, 2.0, 80.0, 60.0]
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            TargetObservation(*values)

    def test_nan_cell_in_file_rejected(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("10 20 2 80 60\n30 40 3 nan 61\n")
        # the message prints plain floats, not numpy scalar reprs
        with pytest.raises(ValueError, match=r"finite, got \(30\.0, 40\.0, 3\.0, nan, 61\.0\)$"):
            load_observations(path)

    def test_empty_file_gives_no_observations_and_no_warning(self, tmp_path):
        # the suite turns warnings into errors, so numpy's "no data" warning fails here
        path = tmp_path / "obs.txt"
        path.write_text("")
        assert load_observations(path) == []

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match="columns"):
            load_observations(path)

    def test_report_contents(self, tof_intr, ir_intr):
        r_true = rotation_about([0, 1, 0], 5.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0], count=5)
        result = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr)
        report = format_report(result)
        assert "converged: True" in report
        assert "iterations:" in report
        assert "stop_reason:" in report
        assert report.count("\n  ") == len(obs)
