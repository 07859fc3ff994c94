import cmath
import logging
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from dataclasses import fields, replace

from conftest import projection_error, rotation_about
from tofir import (
    CalibrationTarget,
    Extrinsics,
    IrIntrinsics,
    MultipathConfig,
    NoiseConfig,
    Plane,
    ScatteringConfig,
    Scene,
    Sphere,
    TofIntrinsics,
    demodulate,
    make_calibration_set,
    render_ir,
    render_tof,
    render_tof_sequence,
    simulator,
    synthesize_buckets,
    unambiguous_range,
)
from tofir.camera import pixel_rays
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

    @pytest.mark.parametrize("entry", ["render_tof", "render_tof_sequence"])
    def test_unknown_amplitude_law_rejected_before_tracing(self, tof_intr, wall_scene,
                                                          quiet_noise, monkeypatch, entry):
        def untraceable(*args):
            raise AssertionError("the scene was traced before the amplitude law was checked")

        monkeypatch.setattr(simulator, "_trace", untraceable)
        with pytest.raises(ValueError, match="amplitude law"):
            if entry == "render_tof":
                render_tof(wall_scene, tof_intr, noise=quiet_noise, amplitude_law="cubic")
            else:
                render_tof_sequence(wall_scene, tof_intr, None, quiet_noise, 2,
                                    amplitude_law="cubic")

    def test_ground_truth_holds_the_shared_trace_read_only(self, tof_intr, blob_scene):
        noise = NoiseConfig(seed=5, bucket_noise_sigma=0.2)
        (_, first), (raw, second) = render_tof_sequence(blob_scene, tof_intr, None, noise, 2)
        for name in ("range", "temperature"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(first, name)[:] = 1.0
        # every frame's truth is the one traced array, not a copy
        assert np.shares_memory(first.range, second.range)
        assert np.shares_memory(first.temperature, second.temperature)
        alone, _ = render_tof(blob_scene, tof_intr, noise=noise, frame_index=1)
        assert np.array_equal(raw.samples, alone.samples)


class TestRenderArguments:
    """Frame counts, frame indices and seeds are whole numbers in range,
    checked before the scene is traced."""

    @pytest.fixture
    def untraced(self, monkeypatch):
        def untraceable(*args):
            raise AssertionError("the scene was traced before the arguments were checked")

        monkeypatch.setattr(simulator, "_trace", untraceable)

    @pytest.mark.parametrize("frame_index", [-1, 1.5, True, "1", None])
    def test_frame_index_is_a_whole_number_from_zero(self, untraced, tof_intr, wall_scene,
                                                      frame_index):
        with pytest.raises(ValueError, match="frame_index"):
            render_tof(wall_scene, tof_intr, frame_index=frame_index)

    @pytest.mark.parametrize("entry", [render_tof_sequence])
    @pytest.mark.parametrize("n_frames", [0, -2, 2.5, True])
    def test_n_frames_is_a_whole_number_from_one(self, untraced, tof_intr, wall_scene, entry,
                                                 n_frames):
        with pytest.raises(ValueError, match="n_frames"):
            entry(wall_scene, tof_intr, None, NoiseConfig(), n_frames)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_is_a_whole_number_from_zero(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseConfig(seed=seed)

    def test_whole_numbers_of_any_type_render_alike(self, tof_intr, wall_scene):
        assert NoiseConfig(seed=np.int64(3)) == NoiseConfig(seed=3.0) == NoiseConfig(seed=3)
        assert type(NoiseConfig(seed=np.uint8(3)).seed) is int
        noise = NoiseConfig(seed=3, bucket_noise_sigma=0.2)
        expected = render_tof(wall_scene, tof_intr, noise=noise, frame_index=2)[0].samples
        for index in (2.0, np.int64(2), np.uint8(2)):
            raw, _ = render_tof(wall_scene, tof_intr, noise=noise, frame_index=index)
            assert raw.samples.tobytes() == expected.tobytes()
        frames = render_tof_sequence(wall_scene, tof_intr, None, noise, np.int64(3))
        assert frames[2][0].samples.tobytes() == expected.tobytes()


def _frame_bytes(rendered) -> list[bytes]:
    raw, truth = rendered
    return [raw.samples.tobytes()] + [getattr(truth, name).tobytes()
                                      for name in ("range", "points", "temperature", "outlier_mask")]


_MEMO_NOISE = NoiseConfig(seed=7, bucket_noise_sigma=0.2, saturation_fraction=0.02,
                          multipath=MultipathConfig(True), scattering=ScatteringConfig(True, 3, 0.1))


def _memo_render(scene, intr, pose=None, noise=_MEMO_NOISE, **kwargs):
    return render_tof(scene, intr, pose, noise, **kwargs)


def _builds() -> int:
    """Frame bases built since the cache was last cleared."""
    return simulator._frame_base.cache_info().misses


class TestFrameBaseMemo:
    """A range render takes the frame base the last render kept when the
    scene, intrinsics, pose, multipath, scattering and amplitude law are
    equal; otherwise it builds its own and keeps that one instead."""

    MISSES = {
        "scene": {"scene": Scene((Plane("z", 3.5, 1.0, 300.0),))},
        "intrinsics": {"intr": TofIntrinsics(4e-3, 64, 50, 45e-6, f_mod=30e6)},
        "pose": {"pose": Extrinsics(np.eye(3), np.array([0.0, 0.0, 0.5]))},
        "multipath": {"noise": replace(_MEMO_NOISE, multipath=MultipathConfig(True, 0.5))},
        "scattering": {"noise": replace(_MEMO_NOISE, scattering=ScatteringConfig(False))},
        "amplitude_law": {"amplitude_law": "constant"},
    }

    @pytest.mark.parametrize("part", list(MISSES))
    def test_each_key_part_forces_a_miss(self, tof_intr, blob_scene, part):
        args = {"scene": blob_scene, "intr": tof_intr, **self.MISSES[part]}
        _memo_render(blob_scene, tof_intr)
        got = _frame_bytes(_memo_render(**args))
        assert _builds() == 2
        simulator._frame_base.cache_clear()
        assert got == _frame_bytes(_memo_render(**args))

    @pytest.mark.parametrize("array", ["rotation", "translation"])
    def test_a_keyed_pose_cannot_change_in_place(self, tof_intr, blob_scene, array):
        given = {"rotation": np.eye(3), "translation": np.zeros(3)}
        pose = Extrinsics(**given)
        first = _frame_bytes(_memo_render(blob_scene, tof_intr, pose))
        moved = {"rotation": rotation_about([0, 1, 0], 5.0),
                 "translation": np.array([0.1, 0.0, 0.2])}[array]
        with pytest.raises(ValueError, match="read-only"):
            getattr(pose, array)[:] = moved
        given[array][:] = moved  # the caller's own array is not the pose's
        np.testing.assert_array_equal(pose.rotation, np.eye(3))
        np.testing.assert_array_equal(pose.translation, np.zeros(3))
        assert _frame_bytes(_memo_render(blob_scene, tof_intr, pose)) == first
        assert _builds() == 1

    HITS = {
        "seed": {"noise": replace(_MEMO_NOISE, seed=8)},
        "noise levels": {"noise": replace(_MEMO_NOISE, phase_noise_scale=0.5,
                                          bucket_noise_sigma=0.0, saturation_fraction=0.1)},
        "frame_index": {"frame_index": 3},
        "extrinsics": {"extrinsics": Extrinsics(np.eye(3), np.array([0.05, 0.0, 0.0]))},
    }

    @pytest.mark.parametrize("part", list(HITS))
    def test_seed_noise_levels_frame_and_extrinsics_hit(self, tof_intr, blob_scene, part):
        _memo_render(blob_scene, tof_intr)
        got = _frame_bytes(_memo_render(blob_scene, tof_intr, **self.HITS[part]))
        assert _builds() == 1
        simulator._frame_base.cache_clear()
        assert got == _frame_bytes(_memo_render(blob_scene, tof_intr, **self.HITS[part]))

    def test_sequences_and_single_frames_share_the_base(self, tof_intr, blob_scene):
        single = _frame_bytes(_memo_render(blob_scene, tof_intr, frame_index=2))
        sequence = render_tof_sequence(blob_scene, tof_intr, None, _MEMO_NOISE, 3)
        assert _frame_bytes(sequence[2]) == single
        assert _builds() == 1

    EQUAL = {
        "signed zero": (
            {"scene": Scene((Plane("x", 0.0, 1.0, 300.0), Sphere((0.0, 0.0, 1.0), 0.2, 1.0, 310.0)))},
            {"scene": Scene((Plane("x", -0.0, 1.0, 300.0),
                             Sphere((-0.0, 0.0, 1.0), 0.2, 1.0, 310.0)))},
        ),
        "int and float": (
            {"scene": Scene((Plane("z", 3, 1, 300), Sphere((0, 0, 1), 0.2, 1, 310)), 293, 6, 0.5),
             "noise": replace(_MEMO_NOISE, multipath=MultipathConfig(True, 1, 0.2))},
            {"scene": Scene((Plane("z", 3.0, 1.0, 300.0), Sphere((0.0, 0.0, 1.0), 0.2, 1.0, 310.0)),
                            293.0, 6.0, 0.5),
             "noise": replace(_MEMO_NOISE, multipath=MultipathConfig(True, 1.0, 0.2))},
        ),
        "numpy scalars": (
            {"scene": Scene((Plane("z", np.float64(3.0), np.float64(1.0), np.int64(300)),)),
             "intr": TofIntrinsics(np.float64(4e-3), np.int64(64), 50.0, np.float64(45e-6),
                                   f_mod=np.float64(21e6)),
             "noise": replace(_MEMO_NOISE, scattering=ScatteringConfig(True, np.int64(3),
                                                                       np.float64(0.1)))},
            {"scene": Scene((Plane("z", 3.0, 1.0, 300.0),)),
             "intr": TofIntrinsics(4e-3, 64, 50, 45e-6, f_mod=21e6)},
        ),
    }

    @pytest.mark.parametrize("pair", list(EQUAL))
    def test_equal_keys_of_other_forms_render_the_same_bytes(self, tof_intr, pair):
        first, second = ({"intr": tof_intr, **args} for args in self.EQUAL[pair])
        expected = _frame_bytes(_memo_render(**second))
        simulator._frame_base.cache_clear()
        _memo_render(**first)
        assert _frame_bytes(_memo_render(**second)) == expected
        assert _builds() == 1  # the second form took the first one's base

    def test_settings_keep_no_array_given_as_a_field(self):
        # a kept base is found by the settings' values: an array given as a
        # field and then changed in place must not change them
        values = [np.array(v) for v in (3.0, 0.2, 0.9, 310.0, 293.0, 1.0, 0.1)]
        plane = Plane("z", values[0], values[2], values[3])
        sphere = Sphere((0, 0, 1), values[1], values[2], values[3])
        settings = [plane, sphere, Scene((plane, sphere), values[4], values[0], values[2]),
                    MultipathConfig(True, values[5], values[1]),
                    ScatteringConfig(True, 4, values[6])]
        shown = repr(settings)
        for value in values:
            value *= 0.5
        assert repr(settings) == shown

    def test_the_direct_phasor_is_kept_as_returned(self, tof_intr, wall_scene, quiet_noise,
                                                   monkeypatch):
        # a phasor rebuilt as re + 1j * im loses the sign of a -0.0 imaginary
        # part, and its angle turns from -pi to pi
        def direct(dist, reflectivity, *args):
            return np.full(dist.shape, complex(-2.0, -0.0)), np.full(dist.shape, 2.0)

        monkeypatch.setattr(simulator, "_direct_return", direct)
        raw, _ = render_tof(wall_scene, tof_intr, noise=quiet_noise)
        expected = synthesize_buckets(np.full((50, 64), -math.pi), 2.0, 2.0)
        assert raw.samples.tobytes() == expected.tobytes()

    def test_one_read_only_base_is_kept(self, tof_intr, blob_scene, wall_scene):
        raw, truth = _memo_render(blob_scene, tof_intr)
        base = simulator._frame_base(blob_scene, tof_intr, None, _MEMO_NOISE.multipath,
                                     _MEMO_NOISE.scattering, "inverse_square")
        assert simulator._frame_base.cache_info()[:2] == (1, 1)  # the render's base
        for f in fields(base):
            assert not getattr(base, f.name).flags.writeable, f.name
        for name in ("range", "points", "temperature"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(truth, name)[:] = 1.0
        assert raw.samples.flags.writeable and truth.outlier_mask.flags.writeable
        first = weakref.ref(base)
        del base
        _memo_render(wall_scene, tof_intr)
        assert first() is None  # the first base went when the second was kept
        _memo_render(wall_scene, tof_intr)
        assert simulator._frame_base.cache_info()[:2] == (2, 2)  # the second base is kept

    def test_threads_rendering_two_scenes_get_their_cold_bytes(self, tof_intr, blob_scene,
                                                               wall_scene):
        # four threads on two cores, two per scene, switching often: each
        # render takes or replaces the kept base while the others do
        scenes = (blob_scene, wall_scene)
        seeds = range(3)
        expected = []
        for scene in scenes:
            simulator._frame_base.cache_clear()
            expected.append([_frame_bytes(_memo_render(scene, tof_intr,
                                                       noise=replace(_MEMO_NOISE, seed=seed)))
                             for seed in seeds])
        simulator._frame_base.cache_clear()
        n_threads = 4
        start = threading.Barrier(n_threads)
        results = [None] * n_threads

        def work(i):
            start.wait()
            results[i] = [_frame_bytes(_memo_render(scenes[i % 2], tof_intr,
                                                    noise=replace(_MEMO_NOISE, seed=seed)))
                          for _ in range(5) for seed in seeds]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, got in enumerate(results):
            assert got == expected[i % 2] * 5


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

    def test_radius_is_bounded_by_the_larger_side(self, wall_scene, quiet_noise):
        intr = TofIntrinsics(4e-3, 6, 8, 45e-6)
        for radius, enabled in ((8, True), (9, False)):
            noise = replace(quiet_noise, scattering=ScatteringConfig(enabled, radius, 0.1))
            assert render_tof(wall_scene, intr, noise=noise)[0].samples.shape == (8, 6, 4)
        noise = replace(quiet_noise, scattering=ScatteringConfig(True, 9, 0.1))
        with pytest.raises(ValueError, match="kernel_radius 9: .* larger side, 8"):
            render_tof(wall_scene, intr, noise=noise)
        with pytest.raises(ValueError, match="kernel_radius 9"):
            render_tof_sequence(wall_scene, intr, None, noise, 2)

    @pytest.mark.parametrize("radius", [2.5, 4.7, True, np.bool_(True), "4", None])
    def test_non_whole_radius_rejected_at_construction(self, radius):
        with pytest.raises(ValueError, match="kernel_radius"):
            ScatteringConfig(True, radius, 0.1)

    @pytest.mark.parametrize("radius", [4.0, np.int64(4), np.uint8(4), np.float64(4.0)])
    def test_integral_float_radius_renders_as_its_int(self, tof_intr, blob_scene, quiet_noise,
                                                      radius):
        config = ScatteringConfig(True, radius, 0.1)
        assert type(config.kernel_radius) is int and config.kernel_radius == 4
        a, _ = render_tof(blob_scene, tof_intr, noise=replace(quiet_noise, scattering=config))
        b, _ = render_tof(blob_scene, tof_intr,
                          noise=replace(quiet_noise, scattering=ScatteringConfig(True, 4, 0.1)))
        assert np.array_equal(a.samples, b.samples)


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

    def test_blur_radius_is_bounded_by_the_larger_side(self, wall_scene):
        # radius 4 sigma + 0.5: 8.0 is the 8x6 image's larger side, then past
        # it, then an overflow to inf, which is checked before any int()
        intr = IrIntrinsics(focal_length=4e-3, width=8, height=6, pixel_pitch=45e-6)
        assert render_ir(wall_scene, intr, blur_sigma=1.875).temperatures.shape == (6, 8)
        for sigma in (1.876, np.float64(1e308)):
            with pytest.raises(ValueError, match="larger side, 8"):
                render_ir(wall_scene, intr, blur_sigma=sigma)


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

    def test_targets_past_the_invertible_radius_dropped(self, tof_intr, ir_intr,
                                                         baseline_ext, caplog):
        # with k1 = -1 no distorted radius reaches an undistorted one past
        # 0.385, and 25 Newton steps stop on a pixel whose ray misses the
        # target: of the 71 targets seen on both sensors, 2 land on such
        # pixels, which lift up to 0.52 m off
        barrel = replace(tof_intr, k1=-1.0)
        rng = np.random.default_rng(0)
        z = rng.uniform(1.0, 5.0, 2000)
        half_width = math.tan(math.radians(56.0))
        x = rng.uniform(-1.0, 1.0, 2000) * half_width * z
        y = rng.uniform(-1.0, 1.0, 2000) * half_width * z
        positions = np.column_stack([x, y, z])
        targets = [CalibrationTarget(p) for p in positions]
        with caplog.at_level(logging.WARNING):
            obs = make_calibration_set(targets, baseline_ext, barrel, ir_intr)
        assert len(obs) == 69
        assert "dropped 1931 of 2000" in caplog.text and "invertible radius" in caplog.text
        distances = np.linalg.norm(positions, axis=1)  # each observation's, to the bit
        for o in obs:
            (i,) = np.flatnonzero(distances == o.distance)
            uu, vu, length = pixel_rays(barrel, o.u, o.v)
            lifted = o.distance / length * np.array([uu, vu, 1.0])
            assert np.linalg.norm(lifted - positions[i]) <= 1e-9 * o.distance


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
