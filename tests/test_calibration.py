import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import geodesic_degrees, rotation_about

from tofir import (
    CalibrationTarget,
    DegenerateGeometryError,
    Extrinsics,
    InsufficientDataError,
    IrIntrinsics,
    TargetObservation,
    estimate_rotation,
    locate_peak,
    make_calibration_set,
    projection_error,
)
from tofir.calibration import (
    axis_angle_matrix,
    format_report,
    load_observations,
    orthonormalize_rotation,
    rotation_angle_between,
    save_observations,
)


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


class TestLocatePeak:
    def test_symmetric_peak_returns_seed_center(self):
        image = np.zeros((7, 7))
        image[2:5, 2:5] = [[1, 2, 1], [2, 5, 2], [1, 2, 1]]
        est = locate_peak(image, (3, 3))
        assert (est.x, est.y) == (3.5, 3.5)
        assert est.refined

    def test_three_point_parabola_offset(self):
        # separable peak: x-profile (1, 3, 2), symmetric y-profile; the x
        # vertex sits at (1 - 2) / (2 * (1 - 2*3 + 2)) = +1/6 of a pixel
        image = np.zeros((5, 5))
        image[1:4, 1:4] = np.outer([1.0, 2.0, 1.0], [1.0, 3.0, 2.0])
        est = locate_peak(image, (2, 2))
        assert est.refined
        assert est.x == pytest.approx(2.5 + 1.0 / 6.0, rel=1e-12)
        assert est.y == pytest.approx(2.5, abs=1e-12)

    def test_flat_axis_violates_strict_maximum_and_falls_back(self):
        # identical rows: the seed ties with its vertical neighbors, the
        # y-parabola degenerates, and the whole fit is rejected
        image = np.zeros((5, 5))
        image[1:4, 1:4] = np.array([[1.0, 3.0, 2.0]] * 3)
        est = locate_peak(image, (2, 2))
        assert (est.x, est.y) == (2.5, 2.5)
        assert not est.refined

    @pytest.mark.parametrize("seed", [(0, 2), (4, 2), (2, 0), (2, 4)])
    def test_border_seed_rejected(self, seed):
        image = np.zeros((5, 5))
        with pytest.raises(ValueError, match="border"):
            locate_peak(image, seed)

    def test_non_concave_fit_falls_back_flagged(self):
        image = np.zeros((5, 5))
        image[1:4, 1:4] = [[0, 1, 4], [1, 2, 7], [2, 5, 9]]  # rising ramp, no interior max
        est = locate_peak(image, (2, 2))
        assert (est.x, est.y) == (2.5, 2.5)
        assert not est.refined

    def test_gaussian_spot_recovery(self):
        # sampled Gaussian spots with sub-pixel centers; cross-checked with a
        # brute-force intensity centroid, which is exact for a symmetric spot
        rng = np.random.default_rng(4)
        xs = np.arange(21) + 0.5
        ys = np.arange(17) + 0.5
        xx, yy = np.meshgrid(xs, ys)
        for _ in range(25):
            cx = 10.5 + rng.uniform(-0.4, 0.4)
            cy = 8.5 + rng.uniform(-0.4, 0.4)
            spot = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 1.5**2))
            seed = np.unravel_index(np.argmax(spot), spot.shape)
            est = locate_peak(spot, (seed[1], seed[0]))
            assert est.refined
            assert abs(est.x - cx) < 0.05
            assert abs(est.y - cy) < 0.05
            centroid_x = float((spot * xx).sum() / spot.sum())
            centroid_y = float((spot * yy).sum() / spot.sum())
            assert abs(centroid_x - cx) < 0.02
            assert abs(centroid_y - cy) < 0.02
            assert abs(est.x - centroid_x) < 0.06
            assert abs(est.y - centroid_y) < 0.06

    def test_applies_to_temperature_images_identically(self):
        # same grid shifted into kelvin: offsets cancel in the parabola fit
        image = np.zeros((5, 5))
        image[1:4, 1:4] = np.array([[1.0, 3.0, 2.0]] * 3)
        kelvin = image + 293.0
        a = locate_peak(image, (2, 2))
        b = locate_peak(kelvin, (2, 2))
        assert a.x == pytest.approx(b.x, rel=1e-12)
        assert a.y == pytest.approx(b.y, rel=1e-12)


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

    def test_perfect_initial_guess_needs_no_iterations(self, tof_intr, ir_intr):
        r_true = rotation_about([0, 0, 1], 4.0)
        obs = _observation_set(tof_intr, ir_intr, r_true, [0.05, 0.0, 0.0], count=10)
        result = estimate_rotation(obs, [0.05, 0.0, 0.0], tof_intr, ir_intr, r_true)
        assert result.iterations == 0
        assert result.converged and result.stop_reason == "step_tolerance"
        assert result.total_error == pytest.approx(0.0, abs=1e-6)

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
        with pytest.raises(ValueError, match="finite"):
            load_observations(path)

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
