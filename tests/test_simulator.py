import cmath
import logging
import math

import numpy as np
import pytest
from dataclasses import replace

from tofir import (
    CalibrationTarget,
    Extrinsics,
    MultipathConfig,
    NoiseConfig,
    Plane,
    ScatteringConfig,
    Scene,
    Sphere,
    TofIntrinsics,
    demodulate,
    make_calibration_set,
    projection_error,
    render_ir,
    render_tof,
    render_tof_sequence,
    unambiguous_range,
)
from tofir.simulator import (
    DEFAULT_AMPLITUDE_REF,
    DEFAULT_OFFSET_REF,
    SATURATION_LEVEL,
    _scatter_kernel,
    noise_from_json,
    scene_from_json,
)
from tofir.tof import SPEED_OF_LIGHT


class TestSceneValidation:
    def test_needs_a_primitive(self):
        with pytest.raises(ValueError):
            Scene(())

    def test_reflectivity_range(self):
        with pytest.raises(ValueError):
            Plane("z", 3.0, 0.0, 300.0)
        with pytest.raises(ValueError):
            Sphere((0, 0, 1), 0.3, 1.5, 300.0)

    def test_temperatures_positive(self):
        with pytest.raises(ValueError):
            Plane("z", 3.0, 1.0, -5.0)

    def test_plane_axis_names(self):
        with pytest.raises(ValueError):
            Plane("w", 3.0, 1.0, 300.0)


class TestRenderTof:
    def test_oracle_identity_wall(self, tof_intr, wall_scene, quiet_noise):
        raw, truth = render_tof(wall_scene, tof_intr, noise=quiet_noise)
        frame = demodulate(raw, tof_intr)
        assert frame.valid.all()
        rel = np.abs(frame.distance - truth.range) / truth.range
        assert rel.max() <= 1e-9

    def test_ground_truth_geometry(self, tof_intr, wall_scene, quiet_noise):
        _, truth = render_tof(wall_scene, tof_intr, noise=quiet_noise)
        # wall at z = 3: every truth point has z = 3 and norm = range
        assert np.allclose(truth.points[:, :, 2], 3.0, rtol=1e-12)
        norms = np.linalg.norm(truth.points, axis=-1)
        assert np.allclose(norms, truth.range, rtol=1e-12)
        assert np.all(truth.temperature == 300.0)

    def test_sphere_occludes_wall(self, blob_scene, quiet_noise):
        # odd dimensions put pixel [25, 32] exactly on the optical axis
        intr = TofIntrinsics(4e-3, 65, 51, 45e-6, f_mod=21e6)
        _, truth = render_tof(blob_scene, intr, noise=quiet_noise)
        center = truth.range[25, 32]
        assert center == pytest.approx(0.8, rel=1e-9)  # sphere front face at 1.0 - 0.2
        assert truth.temperature[25, 32] == 310.0
        assert truth.temperature[0, 0] == 300.0

    def test_miss_falls_back_to_background_plane(self, tof_intr, quiet_noise):
        scene = Scene((Sphere((0, 0, 1.0), 0.05, 1.0, 310.0),), background_distance=5.5,
                      ambient_temperature=290.0)
        _, truth = render_tof(scene, tof_intr, noise=quiet_noise)
        # the corner ray misses the tiny sphere and lands on the z = 5.5 wall
        assert truth.points[0, 0, 2] == pytest.approx(5.5, rel=1e-12)
        assert truth.range[0, 0] > 5.5  # oblique ray, radial distance exceeds depth
        assert truth.temperature[0, 0] == 290.0

    def test_amplitude_follows_inverse_square(self, quiet_noise):
        intr = TofIntrinsics(4e-3, 65, 51, 45e-6, f_mod=21e6)  # true boresight pixel
        near = Scene((Plane("z", 1.5, 0.8, 300.0),))
        far = Scene((Plane("z", 3.0, 0.8, 300.0),))
        f_near = demodulate(render_tof(near, intr, noise=quiet_noise)[0], intr)
        f_far = demodulate(render_tof(far, intr, noise=quiet_noise)[0], intr)
        assert f_near.amplitude[25, 32] == pytest.approx(4.0 * f_far.amplitude[25, 32], rel=1e-9)
        assert f_far.amplitude[25, 32] == pytest.approx(0.8 * DEFAULT_AMPLITUDE_REF / 9.0, rel=1e-9)
        assert f_far.offset[25, 32] == pytest.approx(
            DEFAULT_OFFSET_REF + 0.8 * DEFAULT_AMPLITUDE_REF / 9.0, rel=1e-9
        )

    def test_camera_pose_moves_scene(self, wall_scene, quiet_noise):
        intr = TofIntrinsics(4e-3, 65, 51, 45e-6, f_mod=21e6)  # true boresight pixel
        pose = Extrinsics(np.eye(3), np.array([0.0, 0.0, 1.0]))  # one meter forward
        _, truth = render_tof(wall_scene, intr, pose, quiet_noise)
        assert truth.range[25, 32] == pytest.approx(2.0, rel=1e-9)

    def test_determinism_same_seed(self, tof_intr, wall_scene):
        noise = NoiseConfig(seed=9, bucket_noise_sigma=0.3, saturation_fraction=0.02)
        a, ta = render_tof(wall_scene, tof_intr, noise=noise)
        b, tb = render_tof(wall_scene, tof_intr, noise=noise)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(ta.outlier_mask, tb.outlier_mask)

    def test_different_seeds_and_frames_differ(self, tof_intr, wall_scene):
        a, _ = render_tof(wall_scene, tof_intr, noise=NoiseConfig(seed=1))
        b, _ = render_tof(wall_scene, tof_intr, noise=NoiseConfig(seed=2))
        c, _ = render_tof(wall_scene, tof_intr, noise=NoiseConfig(seed=1), frame_index=1)
        assert not np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_sequence_frame_matches_standalone_render(self, tof_intr, wall_scene):
        noise = NoiseConfig(seed=31, bucket_noise_sigma=0.1)
        seq = render_tof_sequence(wall_scene, tof_intr, None, noise, 3)
        solo, _ = render_tof(wall_scene, tof_intr, noise=noise, frame_index=2)
        assert np.array_equal(seq[2][0].samples, solo.samples)

    def test_phase_noise_sigma_matches_injected(self, tof_intr, wall_scene):
        noise = NoiseConfig(seed=17)
        seq = render_tof_sequence(wall_scene, tof_intr, None, noise, 600)
        frames = np.stack([demodulate(r, tof_intr).distance for r, _ in seq])
        truth = seq[0][1].range
        measured_sigma = frames.std(axis=0, ddof=1)
        amplitude = DEFAULT_AMPLITUDE_REF / truth**2
        predicted = (SPEED_OF_LIGHT / (4 * math.pi * 21e6)) * noise.phase_noise_scale / amplitude
        ratio = measured_sigma / predicted
        assert abs(np.median(ratio) - 1.0) < 0.1

    def test_default_noise_is_one_percent_at_three_meters(self):
        # boresight pixel of a 3 m wall: sigma_D ~ 0.03 m
        predicted = (SPEED_OF_LIGHT / (4 * math.pi * 21e6)) * NoiseConfig().phase_noise_scale \
            / (DEFAULT_AMPLITUDE_REF / 9.0)
        assert predicted == pytest.approx(0.03, rel=0.02)

    def test_saturated_pixels_hit_level_and_mask(self, tof_intr, wall_scene):
        noise = NoiseConfig(seed=3, phase_noise_scale=0.0, saturation_fraction=0.1)
        raw, truth = render_tof(wall_scene, tof_intr, noise=noise)
        n_expected = round(0.1 * 64 * 50)
        assert truth.outlier_mask.sum() == n_expected
        assert np.all(raw.samples[truth.outlier_mask] == SATURATION_LEVEL)
        frame = demodulate(raw, tof_intr)
        assert np.array_equal(~frame.valid, truth.outlier_mask)

    def test_unknown_amplitude_law_rejected(self, tof_intr, wall_scene, quiet_noise):
        with pytest.raises(ValueError, match="amplitude law"):
            render_tof(wall_scene, tof_intr, noise=quiet_noise, amplitude_law="cubic")


class TestMultipath:
    def test_phase_lies_between_path_phases(self, tof_intr, quiet_noise):
        scene = Scene((Plane("z", 3.0, 1.0, 300.0),))
        noise = replace(quiet_noise,
                        multipath=MultipathConfig(enabled=True, extra_distance=1.0,
                                                  relative_amplitude=0.2))
        raw, truth = render_tof(scene, tof_intr, noise=noise)
        frame = demodulate(raw, tof_intr)
        direct = truth.range
        assert np.all(frame.distance > direct)
        assert np.all(frame.distance < direct + 1.0)

    def test_phasor_sum_against_independent_complex_arithmetic(self, tof_intr, quiet_noise):
        scene = Scene((Plane("z", 3.0, 1.0, 300.0),))
        extra, rel = 1.3, 0.25
        noise = replace(quiet_noise,
                        multipath=MultipathConfig(enabled=True, extra_distance=extra,
                                                  relative_amplitude=rel))
        raw, truth = render_tof(scene, tof_intr, noise=noise)
        frame = demodulate(raw, tof_intr)
        # scalar recomputation at one off-axis pixel with cmath only
        j, i = 10, 20
        d = float(truth.range[j, i])
        a = 1.0 * DEFAULT_AMPLITUDE_REF / d**2
        k = 4.0 * math.pi * 21e6 / SPEED_OF_LIGHT
        z = a * cmath.exp(1j * k * d) + rel * a * cmath.exp(1j * k * (d + extra))
        expected_distance = cmath.phase(z) % (2 * math.pi) / k
        expected_amplitude = abs(z)
        assert frame.distance[j, i] == pytest.approx(expected_distance, rel=1e-9)
        assert frame.amplitude[j, i] == pytest.approx(expected_amplitude, rel=1e-9)
        assert frame.offset[j, i] == pytest.approx(DEFAULT_OFFSET_REF + a + rel * a, rel=1e-9)

    def test_zero_relative_amplitude_is_bit_identical_to_disabled(self, tof_intr, wall_scene):
        noise_off = NoiseConfig(seed=4)
        noise_zero = replace(noise_off,
                             multipath=MultipathConfig(enabled=True, relative_amplitude=0.0))
        a, _ = render_tof(wall_scene, tof_intr, noise=noise_off)
        b, _ = render_tof(wall_scene, tof_intr, noise=noise_zero)
        assert np.array_equal(a.samples, b.samples)

    def test_wrap_survives_multipath(self, tof_intr, quiet_noise):
        period = unambiguous_range(21e6)
        d = 3.0
        assert float(np.fmod(d + period, period)) == d  # exact pair precondition
        mp = MultipathConfig(enabled=True, extra_distance=0.5, relative_amplitude=0.3)
        noise = replace(quiet_noise, multipath=mp)
        near = Scene((Sphere((0, 0, 0), d, 1.0, 300.0),))
        far = Scene((Sphere((0, 0, 0), d + period, 1.0, 300.0),))
        a, _ = render_tof(near, tof_intr, noise=noise, amplitude_law="constant")
        b, _ = render_tof(far, tof_intr, noise=noise, amplitude_law="constant")
        assert np.array_equal(a.samples, b.samples)


class TestScattering:
    def test_kernel_is_normalized(self):
        kernel = _scatter_kernel(ScatteringConfig(enabled=True, kernel_radius=4,
                                                  energy_fraction=0.1))
        assert kernel.sum() == pytest.approx(1.0, rel=1e-12)
        assert kernel[4, 4] > 0.89  # direct fraction stays in place

    def test_total_phasor_energy_conserved(self, tof_intr, blob_scene, quiet_noise):
        noise = replace(quiet_noise,
                        scattering=ScatteringConfig(enabled=True, kernel_radius=4,
                                                    energy_fraction=0.3))
        raw_plain, _ = render_tof(blob_scene, tof_intr, noise=quiet_noise)
        raw_scat, _ = render_tof(blob_scene, tof_intr, noise=noise)
        # the bucket differences encode the phasor components; wrap-around
        # convolution with a unit-sum kernel preserves their image-wide sums
        for pair in ((0, 2), (1, 3)):
            comp_plain = raw_plain.samples[..., pair[0]] - raw_plain.samples[..., pair[1]]
            comp_scat = raw_scat.samples[..., pair[0]] - raw_scat.samples[..., pair[1]]
            assert comp_scat.sum() == pytest.approx(comp_plain.sum(), rel=1e-9)

    def test_scattering_bleeds_bright_object_outward(self, tof_intr, blob_scene, quiet_noise):
        noise = replace(quiet_noise,
                        scattering=ScatteringConfig(enabled=True, kernel_radius=4,
                                                    energy_fraction=0.2))
        plain = demodulate(render_tof(blob_scene, tof_intr, noise=quiet_noise)[0], tof_intr)
        scat = demodulate(render_tof(blob_scene, tof_intr, noise=noise)[0], tof_intr)
        _, truth = render_tof(blob_scene, tof_intr, noise=quiet_noise)
        wall = truth.range > 2.9
        # wall pixels near the bright blob get dragged toward it
        assert np.abs(scat.distance[wall] - plain.distance[wall]).max() > 0.01

    def test_zero_fraction_keeps_buckets(self, tof_intr, wall_scene, quiet_noise):
        noise = replace(quiet_noise,
                        scattering=ScatteringConfig(enabled=True, kernel_radius=3,
                                                    energy_fraction=0.0))
        a, _ = render_tof(wall_scene, tof_intr, noise=quiet_noise)
        b, _ = render_tof(wall_scene, tof_intr, noise=noise)
        assert np.allclose(a.samples, b.samples, atol=1e-12)


class TestRenderIr:
    def test_sphere_on_ambient(self, ir_intr):
        scene = Scene((Sphere((0, 0, 2.0), 0.3, 1.0, 310.0),), ambient_temperature=290.0)
        frame = render_ir(scene, ir_intr)
        assert set(np.unique(frame.temperatures)) == {290.0, 310.0}

    def test_zero_blur_is_identity(self, ir_intr, blob_scene):
        a = render_ir(blob_scene, ir_intr)
        b = render_ir(blob_scene, ir_intr, blur_sigma=0.0)
        assert np.array_equal(a.temperatures, b.temperatures)

    def test_blur_matches_direct_convolution(self, ir_intr):
        scene = Scene((Plane("z", 3.0, 1.0, 300.0), Sphere((0, 0, 1.5), 0.3, 1.0, 320.0)))
        sigma = 1.2
        blurred = render_ir(scene, ir_intr, blur_sigma=sigma).temperatures
        sharp = render_ir(scene, ir_intr).temperatures
        # independent separable convolution: truncated Gaussian taps, radius
        # 4 sigma, symmetric padding
        radius = int(4.0 * sigma + 0.5)
        x = np.arange(-radius, radius + 1, dtype=np.float64)
        taps = np.exp(-0.5 * (x / sigma) ** 2)
        taps /= taps.sum()
        padded = np.pad(sharp, radius, mode="symmetric")
        rows = np.zeros_like(padded)
        for k, w in enumerate(taps):
            rows += w * np.roll(padded, radius - k, axis=1)
        full = np.zeros_like(padded)
        for k, w in enumerate(taps):
            full += w * np.roll(rows, radius - k, axis=0)
        expected = full[radius:-radius, radius:-radius]
        assert np.abs(blurred - expected).max() <= 1e-6

    def test_pose_shifts_view(self, ir_intr):
        scene = Scene((Sphere((0, 0, 2.0), 0.3, 1.0, 330.0),), ambient_temperature=290.0)
        straight = render_ir(scene, ir_intr)
        shifted = render_ir(scene, ir_intr, Extrinsics(np.eye(3), np.array([0.5, 0.0, 0.0])))
        com_a = np.argwhere(straight.temperatures > 300).mean(axis=0)
        com_b = np.argwhere(shifted.temperatures > 300).mean(axis=0)
        assert com_b[1] < com_a[1]  # camera moved right, sphere image moved left

    def test_negative_blur_rejected(self, ir_intr, wall_scene):
        with pytest.raises(ValueError):
            render_ir(wall_scene, ir_intr, blur_sigma=-1.0)


class TestMakeCalibrationSet:
    def test_zero_noise_observations_are_exact(self, tof_intr, ir_intr, baseline_ext):
        targets = [CalibrationTarget((x, y, z))
                   for x in (-0.4, 0.0, 0.4) for y in (-0.3, 0.3) for z in (2.0, 3.5)]
        obs = make_calibration_set(targets, baseline_ext, tof_intr, ir_intr)
        assert len(obs) == len(targets)
        for o in obs:
            err = projection_error(o, baseline_ext.rotation, baseline_ext.translation,
                                   tof_intr, ir_intr)
            assert err == pytest.approx(0.0, abs=1e-9)

    def test_distance_is_point_norm(self, tof_intr, ir_intr, baseline_ext):
        target = CalibrationTarget((0.3, -0.2, 2.5))
        (obs,) = make_calibration_set([target], baseline_ext, tof_intr, ir_intr)
        assert obs.distance == pytest.approx(np.linalg.norm(target.position), rel=1e-12)

    def test_behind_camera_targets_dropped_with_warning(self, tof_intr, ir_intr, baseline_ext,
                                                        caplog):
        targets = [CalibrationTarget((0.0, 0.0, 2.0)), CalibrationTarget((0.0, 0.0, -2.0))]
        with caplog.at_level(logging.WARNING):
            obs = make_calibration_set(targets, baseline_ext, tof_intr, ir_intr)
        assert len(obs) == 1
        assert "dropped 1" in caplog.text

    def test_off_sensor_targets_dropped(self, tof_intr, ir_intr, baseline_ext):
        # far off-axis: in front, but projects outside the range sensor
        targets = [CalibrationTarget((5.0, 0.0, 2.0))]
        assert make_calibration_set(targets, baseline_ext, tof_intr, ir_intr) == []

    def test_noise_perturbs_ir_measurements_only_by_default(self, tof_intr, ir_intr,
                                                            baseline_ext):
        targets = [CalibrationTarget((0.1, 0.1, 2.0))]
        clean = make_calibration_set(targets, baseline_ext, tof_intr, ir_intr, 0.0)[0]
        noisy = make_calibration_set(targets, baseline_ext, tof_intr, ir_intr, 0.5, seed=8)[0]
        assert (noisy.u, noisy.v, noisy.distance) == (clean.u, clean.v, clean.distance)
        assert (noisy.ir_x, noisy.ir_y) != (clean.ir_x, clean.ir_y)

    def test_distorted_range_camera_round_trips(self, ir_intr, baseline_ext):
        distorted = TofIntrinsics(4e-3, 64, 50, 45e-6, k1=0.15, k2=0.02, f_mod=21e6)
        targets = [CalibrationTarget((0.4, 0.25, 2.0))]
        (obs,) = make_calibration_set(targets, baseline_ext, distorted, ir_intr)
        err = projection_error(obs, baseline_ext.rotation, baseline_ext.translation,
                               distorted, ir_intr)
        assert err == pytest.approx(0.0, abs=1e-8)


class TestJsonDocuments:
    def test_scene_from_literal_document(self, blob_scene):
        doc = {
            "primitives": [
                {"type": "plane", "axis": "z", "offset": 3.0, "reflectivity": 1.0,
                 "temperature": 300.0},
                {"type": "sphere", "center": [0.0, 0.0, 1.0], "radius": 0.2,
                 "reflectivity": 1.0, "temperature": 310.0},
            ],
        }
        assert scene_from_json(doc) == blob_scene
        doc.update(ambient_temperature=280.0, background_distance=9.0,
                   background_reflectivity=0.25)
        assert scene_from_json(doc) == Scene(blob_scene.primitives, 280.0, 9.0, 0.25)

    def test_scene_errors_name_the_field(self):
        with pytest.raises(ValueError, match="primitives"):
            scene_from_json({})
        with pytest.raises(ValueError, match="primitive 0"):
            scene_from_json({"primitives": [{"type": "plane", "axis": "z"}]})
        with pytest.raises(ValueError, match="unknown type"):
            scene_from_json({"primitives": [{"type": "cone"}]})

    def test_noise_from_literal_document(self):
        doc = {"seed": 5, "phase_noise_scale": 0.1, "bucket_noise_sigma": 0.2,
               "saturation_fraction": 0.01,
               "multipath": {"enabled": True, "extra_distance": 1.5, "relative_amplitude": 0.3},
               "scattering": {"enabled": True, "kernel_radius": 3, "energy_fraction": 0.2}}
        noise = NoiseConfig(seed=5, phase_noise_scale=0.1, bucket_noise_sigma=0.2,
                            saturation_fraction=0.01,
                            multipath=MultipathConfig(True, 1.5, 0.3),
                            scattering=ScatteringConfig(True, 3, 0.2))
        assert noise_from_json(doc) == noise
        assert noise_from_json({}) == NoiseConfig()

    def test_noise_seed_is_kept_exactly(self):
        # seeds are drawn below 2**62; a detour through float rounds this one up to 2**62
        assert noise_from_json({"seed": 2**62 - 1}).seed == 2**62 - 1

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(saturation_fraction=1.5)
        with pytest.raises(ValueError):
            MultipathConfig(relative_amplitude=1.0)
        with pytest.raises(ValueError):
            ScatteringConfig(kernel_radius=0)
