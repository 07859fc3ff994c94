import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tofir
from tofir import camera, tof
from tofir import (
    DimensionMismatchError,
    FuseReason,
    IrIntrinsics,
    RangeFrame,
    RawTofFrame,
    SPEED_OF_LIGHT,
    TofIntrinsics,
    backproject,
    build_background,
    demodulate,
    fuse,
    phase_for_distance,
    render_ir,
    synthesize_buckets,
    unambiguous_range,
    undistort_pixel,
)
from tofir.tof import (
    raw_frames_from_container,
    raw_frames_to_container,
    unit_rays,
)


def _uniform_raw(width, height, buckets):
    return RawTofFrame(np.tile(np.asarray(buckets, dtype=np.float64), (height, width, 1)))


class TestDemodulate:
    def test_quarter_turn_example(self, tof_intr):
        # (2, 1, 0, 1): atan2(2, 0) = pi/2, amplitude 1, offset 1
        frame = demodulate(_uniform_raw(64, 50, (2.0, 1.0, 0.0, 1.0)), tof_intr)
        assert frame.amplitude[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert frame.offset[0, 0] == pytest.approx(1.0, rel=1e-12)
        expected = SPEED_OF_LIGHT / (8.0 * 21e6)  # c * (pi/2) / (4 pi f_mod)
        assert expected == pytest.approx(1.7844789, abs=1e-7)
        assert frame.distance[0, 0] == pytest.approx(expected, rel=1e-12)
        assert frame.valid.all()

    def test_zero_phase_example(self, tof_intr):
        frame = demodulate(_uniform_raw(64, 50, (1.0, 2.0, 1.0, 0.0)), tof_intr)
        assert frame.distance[0, 0] == 0.0
        assert frame.amplitude[0, 0] == pytest.approx(1.0)
        assert frame.offset[0, 0] == pytest.approx(1.0)

    def test_zero_amplitude_marks_invalid_without_raising(self, tof_intr):
        frame = demodulate(_uniform_raw(64, 50, (5.0, 5.0, 5.0, 5.0)), tof_intr)
        assert not frame.valid.any()
        assert frame.offset[0, 0] == pytest.approx(5.0)

    def test_dimension_mismatch(self, tof_intr):
        with pytest.raises(DimensionMismatchError):
            demodulate(_uniform_raw(10, 10, (2.0, 1.0, 0.0, 1.0)), tof_intr)

    def test_exposure_thresholds_apply(self, tof_intr):
        raw = _uniform_raw(64, 50, (2.0, 1.0, 0.0, 1.0))
        frame = demodulate(raw, tof_intr, a_min=2.0, a_max=10.0)
        assert not frame.valid.any()  # amplitude 1 underexposed against a_min=2

    def test_tiny_negative_angle_wraps_to_zero_distance(self, tof_intr):
        # A1 - A3 infinitesimally negative used to round the phase up to 2*pi
        buckets = np.tile(np.array([1.0, 3.0, 1.0 + 1e-300, 1.0]), (50, 64, 1))
        frame = demodulate(RawTofFrame(buckets), tof_intr)
        assert np.all(frame.distance < unambiguous_range(tof_intr.f_mod))

    def test_round_trip_with_vectorized_batch(self, tof_intr):
        rng = np.random.default_rng(42)
        n = 2000
        phase = rng.uniform(0.0, 2.0 * math.pi, size=n)
        amplitude = 10.0 ** rng.uniform(-3, 3, size=n)
        offset = amplitude * (1.0 + 10.0 ** rng.uniform(0, 4, size=n))
        buckets = synthesize_buckets(phase, amplitude, offset).reshape(40, 50, 4)
        intr = TofIntrinsics(4e-3, 50, 40, 45e-6, f_mod=21e6)
        frame = demodulate(RawTofFrame(buckets), intr)
        assert np.allclose(frame.amplitude.ravel(), amplitude, rtol=1e-9, atol=0)
        assert np.allclose(frame.offset.ravel(), offset, rtol=1e-9, atol=0)
        dphi = np.abs(frame.distance.ravel() * 4 * math.pi * 21e6 / SPEED_OF_LIGHT - phase)
        dphi = np.minimum(dphi, 2.0 * math.pi - dphi)
        assert dphi.max() <= 1e-9 * 2.0 * math.pi


class TestNonFiniteBuckets:
    """A NaN or inf bucket makes its pixel invalid, silently, in every stage."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("bucket", range(4))
    def test_pixel_invalid_in_demodulate_fuse_and_background(
        self, tof_intr, ir_intr, baseline_ext, blob_scene, bucket, bad
    ):
        frames = []
        for k in range(3):
            buckets = np.tile(np.array([2.0, 1.0 + 0.1 * k, 0.0, 1.0]), (50, 64, 1))
            buckets[10, 20, bucket] = bad
            frames.append(demodulate(RawTofFrame(buckets), tof_intr))
        frame = frames[0]
        assert not frame.valid[10, 20]
        assert np.count_nonzero(~frame.valid) == 1

        thermal = render_ir(blob_scene, ir_intr, baseline_ext.inverse())
        tg = fuse(frame, thermal, tof_intr, ir_intr, baseline_ext)
        assert tg.reason[10, 20] == FuseReason.INVALID_RANGE
        assert tg.temperature[10, 20] == 0.0
        assert np.all(tg.points[10, 20] == 0.0)

        model = build_background(frames)
        assert model.count[10, 20] == 0
        assert np.count_nonzero(model.count == 3) == 64 * 50 - 1


@given(
    phase=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    amplitude=st.floats(1e-3, 1e3),
    rel_offset=st.floats(0.0, 1e4),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_property(phase, amplitude, rel_offset):
    """Synthesize buckets from (phase, amplitude, offset) and demodulate them back.

    The offset/amplitude ratio is capped at ~1e4: the bucket differences lose
    float64 digits as the common offset grows, and 1e-9 relative recovery is
    representable only below a ratio of roughly 4e6.
    """
    offset = amplitude * (1.0 + rel_offset)
    buckets = synthesize_buckets(phase, amplitude, offset).reshape(1, 1, 4)
    intr = TofIntrinsics(4e-3, 1, 1, 45e-6, f_mod=21e6)
    frame = demodulate(RawTofFrame(buckets), intr)
    assert frame.amplitude[0, 0] == pytest.approx(amplitude, rel=1e-9)
    assert frame.offset[0, 0] == pytest.approx(offset, rel=1e-9)
    recovered_phase = frame.distance[0, 0] * 4 * math.pi * 21e6 / SPEED_OF_LIGHT
    dphi = abs(recovered_phase - phase)
    assert min(dphi, 2.0 * math.pi - dphi) <= 1e-9 * 2.0 * math.pi


class TestBucketInvariances:
    def test_common_bucket_shift_moves_offset_not_amplitude(self, tof_intr):
        base = _uniform_raw(64, 50, (4.0, 3.0, 1.0, 2.0))
        shifted = RawTofFrame(base.samples + 7.5)
        f0 = demodulate(base, tof_intr)
        f1 = demodulate(shifted, tof_intr)
        assert np.array_equal(f0.amplitude, f1.amplitude)
        assert np.allclose(f1.offset - f0.offset, 7.5, rtol=0, atol=1e-12)
        assert not np.allclose(f1.offset, f0.offset)  # offset really does shift

    def test_wrap_around_produces_identical_buckets(self):
        period = unambiguous_range(21e6)
        # pick distances whose sum with the period is exactly representable
        candidates = 3.0 + np.arange(64) * 2.0**-20
        exact = np.fmod(candidates + period, period) == candidates
        assert exact.any()
        d = candidates[exact]
        b0 = synthesize_buckets(phase_for_distance(d, 21e6), 2.0, 5.0)
        b1 = synthesize_buckets(phase_for_distance(d + period, 21e6), 2.0, 5.0)
        assert np.array_equal(b0, b1)


class TestUnambiguousRange:
    def test_operating_point(self):
        assert unambiguous_range(21e6) == pytest.approx(7.137915666666667, rel=1e-15)

    def test_halving_frequency_doubles_range_exactly(self):
        assert unambiguous_range(10.5e6) == 2.0 * unambiguous_range(21e6)

    def test_monotone_in_frequency(self):
        freqs = 10.0 ** np.linspace(6, 9, 30)
        ranges = [unambiguous_range(f) for f in freqs]
        assert all(a > b for a, b in zip(ranges, ranges[1:]))

    @pytest.mark.parametrize("bad", [0.0, -21e6])
    def test_rejects_non_positive_frequency(self, bad):
        with pytest.raises(ValueError):
            unambiguous_range(bad)


class TestUndistort:
    def test_one_definition_in_the_camera_module(self):
        assert tofir.undistort_pixel is tof.undistort_pixel is camera.undistort_pixel

    def test_identity_when_coefficients_vanish(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 1000))
        uu, vu = undistort_pixel(u, v, 0.0, 0.0)
        assert np.array_equal(uu, u) and np.array_equal(vu, v)

    def test_center_is_fixed_point(self):
        assert undistort_pixel(0.0, 0.0, 0.3, -0.2) == (0.0, 0.0)

    def test_cubic_term_example(self):
        uu, vu = undistort_pixel(1.0, 0.0, 0.1, 0.0)
        assert uu == pytest.approx(1.1, rel=1e-15)
        assert vu == 0.0

    def test_radially_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v = rng.normal(size=2)
            angle = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(angle), math.sin(angle)
            # rotate then undistort
            ur, vr = undistort_pixel(c * u - s * v, s * u + c * v, 0.05, 0.01)
            # undistort then rotate
            uu, vu = undistort_pixel(u, v, 0.05, 0.01)
            assert ur == pytest.approx(c * uu - s * vu, rel=1e-12, abs=1e-12)
            assert vr == pytest.approx(s * uu + c * vu, rel=1e-12, abs=1e-12)


class TestBackproject:
    def test_on_axis_pixel(self):
        intr = TofIntrinsics(4e-3, 3, 3, 45e-6)  # center pixel sits on the axis
        distance = np.full((3, 3), 3.0)
        frame = RangeFrame(distance, np.ones((3, 3)), np.ones((3, 3)), np.ones((3, 3), bool))
        cloud = backproject(frame, intr)
        center = cloud.points.reshape(3, 3, 3)[1, 1]
        assert center == pytest.approx([0.0, 0.0, 3.0], abs=1e-15)

    def test_point_norm_equals_distance(self, tof_intr):
        rng = np.random.default_rng(7)
        distance = rng.uniform(0.5, 6.0, size=(50, 64))
        frame = RangeFrame(distance, np.ones_like(distance), np.ones_like(distance),
                           np.ones_like(distance, dtype=bool))
        cloud = backproject(frame, tof_intr)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert np.allclose(norms, distance.ravel(), rtol=1e-9, atol=0)

    def test_forty_five_degree_ray(self):
        # pixel whose metric u equals f: direction (1, 0, 1)/sqrt(2)
        intr = TofIntrinsics(4e-4, 11, 1, 1e-4, cx=0.5, cy=0.5)
        distance = np.full((1, 11), math.sqrt(2.0))
        frame = RangeFrame(distance, np.ones((1, 11)), np.ones((1, 11)), np.ones((1, 11), bool))
        cloud = backproject(frame, intr)
        # column 4: u = (4 + 0.5 - 0.5) * 1e-4 = f
        assert cloud.points[4] == pytest.approx([1.0, 0.0, 1.0], rel=1e-12)

    def test_invalid_pixels_keep_grid_with_placeholder(self, tof_intr):
        distance = np.full((50, 64), 2.0)
        valid = np.ones((50, 64), bool)
        valid[10, 20] = False
        frame = RangeFrame(distance, np.ones_like(distance), np.ones_like(distance), valid)
        cloud = backproject(frame, tof_intr)
        assert len(cloud) == 64 * 50
        assert np.array_equal(cloud.points[10 * 64 + 20], [0.0, 0.0, 0.0])
        assert not cloud.valid[10 * 64 + 20]

    def test_dimension_mismatch(self, tof_intr):
        frame = RangeFrame(np.ones((5, 5)), np.ones((5, 5)), np.ones((5, 5)),
                           np.ones((5, 5), bool))
        with pytest.raises(DimensionMismatchError):
            backproject(frame, tof_intr)

    def test_distortion_changes_off_axis_rays_only(self, tof_intr):
        distorted = TofIntrinsics(4e-3, 64, 50, 45e-6, k1=0.2, k2=0.05, f_mod=21e6)
        rays_plain = unit_rays(tof_intr)
        rays_dist = unit_rays(distorted)
        # the ray closest to the axis barely moves, corners move outward
        assert np.linalg.norm(rays_plain[25, 32] - rays_dist[25, 32]) < 1e-4
        assert np.linalg.norm(rays_plain[0, 0] - rays_dist[0, 0]) > 1e-3
        assert np.allclose(np.linalg.norm(rays_dist.reshape(-1, 3), axis=1), 1.0, atol=1e-12)


class TestIntrinsicsJson:
    def test_round_trip(self, tof_intr):
        doc = tof_intr.to_json_dict()
        assert set(doc) == {"f", "width", "height", "pixel_pitch", "cx", "cy", "k1", "k2", "f_mod"}
        assert TofIntrinsics.from_json_dict(doc) == tof_intr

    def test_default_principal_point_is_center(self):
        intr = TofIntrinsics(4e-3, 64, 50, 45e-6)
        assert (intr.cx, intr.cy) == (32.0, 25.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"focal_length": -1.0},
            {"pixel_pitch": 0.0},
            {"f_mod": -5.0},
            {"cx": 300.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(focal_length=4e-3, width=64, height=50, pixel_pitch=45e-6)
        base.update(kwargs)
        with pytest.raises(ValueError):
            TofIntrinsics(**base)

    @pytest.mark.parametrize("cls", [TofIntrinsics, IrIntrinsics])
    @pytest.mark.parametrize("key", ["width", "height"])
    def test_non_integral_sensor_size_rejected(self, cls, key):
        doc = {"f": 4e-3, "width": 64, "height": 50, "pixel_pitch": 45e-6, key: 64.7}
        with pytest.raises(ValueError, match="whole pixel"):
            cls.from_json_dict(doc)

    @pytest.mark.parametrize("cls", [TofIntrinsics, IrIntrinsics])
    @pytest.mark.parametrize("width", [64, 64.0])
    def test_integral_sensor_size_loads_as_int(self, cls, width):
        intr = cls.from_json_dict({"f": 4e-3, "width": width, "height": 50.0,
                                   "pixel_pitch": 45e-6})
        assert (intr.width, intr.height) == (64, 50)
        assert type(intr.width) is int and type(intr.height) is int

    @pytest.mark.parametrize("cls", [TofIntrinsics, IrIntrinsics])
    @pytest.mark.parametrize("key", ["width", "height"])
    @pytest.mark.parametrize("bad", [64.5, True, "64"])
    def test_library_rejects_a_size_that_is_not_whole(self, cls, key, bad):
        base = dict(focal_length=4e-3, width=64, height=50, pixel_pitch=45e-6)
        base[key] = bad
        with pytest.raises(ValueError, match=f"{key}: expected a whole number"):
            cls(**base)

    @pytest.mark.parametrize("cls", [TofIntrinsics, IrIntrinsics])
    @pytest.mark.parametrize("size", [np.int64(64), np.uint16(64), 64.0])
    def test_library_stores_a_whole_size_as_int(self, cls, size):
        intr = cls(4e-3, size, size, 45e-6)
        assert (intr.width, intr.height) == (64, 64)
        assert type(intr.width) is int and type(intr.height) is int
        assert unit_rays(intr).shape == (64, 64, 3)


class TestContainers:
    def test_raw_round_trip(self):
        rng = np.random.default_rng(5)
        frames = [RawTofFrame(rng.uniform(0, 10, size=(6, 8, 4))) for _ in range(3)]
        cont = raw_frames_to_container(frames)
        back = raw_frames_from_container(cont)
        assert len(back) == 3
        for orig, loaded in zip(frames, back):
            assert np.allclose(orig.samples, loaded.samples, rtol=1e-6)
