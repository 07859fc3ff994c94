"""The per-frame kernels against the straightforward formulas they replaced.

Demodulation, ray building, projection, bilinear sampling, fusion and frame
stacking are written to avoid temporaries, and the background model updates
in place through masks. The reference functions below are the plain array
expressions those kernels started from; every test demands the same bytes,
so a rewrite that reorders a floating-point operation fails here before it
changes a CLI artifact. The same holds for the hand-written per-record
container adapters that the channel schemas replaced, and for the
``np.savetxt`` thermogram table.
"""

import io
import math

import numpy as np
import pytest

from tofir import (
    BackgroundModel,
    Extrinsics,
    ForegroundMask,
    FrameContainer,
    GroundTruth,
    IrIntrinsics,
    RangeFrame,
    RawTofFrame,
    ThermalFrame,
    Thermogram,
    TofIntrinsics,
    backproject,
    demodulate,
    fuse,
    render_ir,
)
from tofir import fusion, segmentation, simulator, thermal, tof
from tofir.camera import pixel_rays, project_points, unit_rays
from tofir.errors import ContainerFormatError
from tofir.fusion import FuseReason
from tofir.thermal import sample_temperature_grid
from tofir.tof import SPEED_OF_LIGHT, exposure_outliers

_TWO_PI = 2.0 * math.pi


# --- reference formulas ---------------------------------------------------------

def ref_unit_rays(intr):
    x = np.arange(intr.width, dtype=np.float64)[None, :] + 0.5
    y = np.arange(intr.height, dtype=np.float64)[:, None] + 0.5
    uu, vu, norm = pixel_rays(intr, x, y)
    return np.stack([uu / norm, vu / norm, 1.0 / norm], axis=-1)


def ref_demodulate(samples, intr, a_min=0.0, a_max=math.inf, b_max=math.inf):
    s = np.asarray(samples, dtype=np.float64)
    d13 = s[..., 0] - s[..., 2]
    d24 = s[..., 1] - s[..., 3]
    phase = np.mod(np.arctan2(d13, d24), _TWO_PI)
    phase[phase >= _TWO_PI] = 0.0
    amplitude = np.hypot(d13, d24) / 2.0
    offset = s.sum(axis=-1) / 4.0
    distance = SPEED_OF_LIGHT * phase / (4.0 * math.pi * intr.f_mod)
    valid = amplitude > 0.0
    valid &= ~exposure_outliers(amplitude, offset, a_min, a_max, b_max)
    return distance, amplitude, offset, valid


def ref_project_points(points, intr):
    points = np.asarray(points, dtype=np.float64)
    z = points[:, 2]
    in_front = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = intr.cx + intr.focal_length * points[:, 0] / (z * intr.pixel_pitch)
        s = intr.cy + intr.focal_length * points[:, 1] / (z * intr.pixel_pitch)
    pixels = np.stack([r, s], axis=-1)
    pixels[~in_front] = np.nan
    return pixels, in_front


def ref_sample(temps, xs, ys):
    height, width = temps.shape
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        in_field = (xs >= 0.5) & (xs <= width - 0.5) & (ys >= 0.5) & (ys <= height - 0.5)
    xc = np.clip(np.nan_to_num(xs, nan=0.5), 0.5, width - 0.5) - 0.5
    yc = np.clip(np.nan_to_num(ys, nan=0.5), 0.5, height - 0.5) - 0.5
    i0 = np.minimum(xc.astype(np.int64), width - 2) if width > 1 else np.zeros_like(xc, np.int64)
    j0 = np.minimum(yc.astype(np.int64), height - 2) if height > 1 else np.zeros_like(yc, np.int64)
    fx = xc - i0
    fy = yc - j0
    i1 = np.minimum(i0 + 1, width - 1)
    j1 = np.minimum(j0 + 1, height - 1)
    values = (
        (1.0 - fx) * (1.0 - fy) * temps[j0, i0]
        + fx * (1.0 - fy) * temps[j0, i1]
        + (1.0 - fx) * fy * temps[j1, i0]
        + fx * fy * temps[j1, i1]
    )
    return np.where(in_field, values, 0.0), in_field


def ref_fuse(range_frame, thermal, tof_intr, ir_intr, ext):
    points = (range_frame.distance[..., None] * ref_unit_rays(tof_intr)).reshape(-1, 3)
    valid = range_frame.valid.ravel()
    points[~valid] = 0.0
    pts_ir = points @ ext.rotation.T + ext.translation
    reason = np.full(valid.size, int(FuseReason.VALID), dtype=np.uint8)
    reason[~valid] = FuseReason.INVALID_RANGE
    in_front = pts_ir[:, 2] > 0
    reason[valid & ~in_front] = FuseReason.BEHIND_IR_CAMERA
    pixels, _ = ref_project_points(pts_ir, ir_intr)
    temps, in_field = ref_sample(thermal.temperatures, pixels[:, 0], pixels[:, 1])
    reason[valid & in_front & ~in_field] = FuseReason.OUT_OF_IR_FIELD
    temperature = np.where(reason == FuseReason.VALID, temps, 0.0)
    return points, temperature, reason


def assert_same_bytes(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# --- rays -------------------------------------------------------------------------

class TestUnitRays:
    def test_matches_reference_with_distortion(self):
        intr = TofIntrinsics(focal_length=4e-3, width=64, height=50, pixel_pitch=45e-6,
                             k1=0.05, k2=-0.01, cx=30.25, cy=26.0)
        assert_same_bytes(unit_rays(intr), ref_unit_rays(intr))

    def test_one_read_only_grid_for_equal_intrinsics(self):
        doc = {"f": 4e-3, "width": 64, "height": 50, "pixel_pitch": 45e-6}
        first = unit_rays(TofIntrinsics.from_json_dict(doc))
        second = unit_rays(TofIntrinsics.from_json_dict(dict(doc)))
        assert second is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0, 0] = 1.0

    def test_different_intrinsics_get_their_own_grid(self):
        tof_intr = TofIntrinsics(focal_length=4e-3, width=64, height=50, pixel_pitch=45e-6)
        ir_intr = IrIntrinsics(focal_length=4e-3, width=64, height=50, pixel_pitch=45e-6)
        tof_rays = unit_rays(tof_intr)
        ir_rays = unit_rays(ir_intr)
        assert_same_bytes(ir_rays, ref_unit_rays(ir_intr))
        assert_same_bytes(unit_rays(tof_intr), tof_rays)


# --- demodulation ------------------------------------------------------------------

def _signed_zero_and_tiny_angle_buckets():
    """Buckets whose arctan2 is +0.0, -0.0, +-pi or a tiny negative angle."""
    eps = 2.0**-52
    rows = [
        (0.0, 5.0, 0.0, 1.0),  # atan2(+0, +) = +0
        (-0.0, 5.0, 0.0, 1.0),  # atan2(-0, +) = -0
        (0.0, 1.0, 0.0, 5.0),  # atan2(+0, -) = +pi
        (-0.0, 1.0, 0.0, 5.0),  # atan2(-0, -) = -pi
        (1.0, 1e3, 1.0 + eps, 0.0),  # tiny negative angle, rounds up to 2*pi
        (1.0, 1.0, 1.0 + eps, 0.0),  # small negative angle that survives
        (1e-300, 1.0, 2e-300, 0.0),
        (0.0, 0.0, 5e-324, 0.0),  # atan2(-min subnormal, 0) = -pi/2
        (3.0, 3.0, 3.0, 3.0),  # zero amplitude
        (0.0, 0.0, 0.0, 0.0),
    ]
    return np.array(rows, dtype=np.float64).reshape(1, len(rows), 4)


class TestDemodulate:
    def _check(self, samples, **limits):
        samples = np.asarray(samples, dtype=np.float64)
        intr = TofIntrinsics(focal_length=4e-3, width=samples.shape[1],
                             height=samples.shape[0], pixel_pitch=45e-6, f_mod=21e6)
        frame = demodulate(RawTofFrame(samples), intr, **limits)
        expected = ref_demodulate(samples, intr, **limits)
        for actual, wanted in zip((frame.distance, frame.amplitude, frame.offset, frame.valid),
                                  expected):
            assert_same_bytes(actual, wanted)
        return frame

    def test_signed_zeros_and_tiny_negative_angles(self):
        frame = self._check(_signed_zero_and_tiny_angle_buckets())
        assert not np.signbit(frame.distance).any()
        assert frame.distance[0, 4] == 0.0  # 2*pi wrapped back to 0

    def test_random_buckets(self):
        rng = np.random.default_rng(7)
        samples = rng.random((37, 41, 4)) * rng.choice([1e-3, 1.0, 1e4], size=(37, 41, 1))
        samples[::5, ::3, 2] = samples[::5, ::3, 0]  # d13 = +0
        self._check(samples)
        self._check(samples, a_min=0.05, a_max=2e3, b_max=3e3)

    def test_float32_rounded_buckets(self):
        rng = np.random.default_rng(8)
        samples = (rng.random((20, 30, 4)) * 500.0).astype(np.float32)
        self._check(samples)


# --- projection and sampling ---------------------------------------------------------

IR = IrIntrinsics(focal_length=4.8e-3, width=160, height=120, pixel_pitch=25e-6)


@pytest.mark.filterwarnings("error")
def test_project_points_matches_reference():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(2000, 3))
    points[:8, 2] = [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324]
    pixels, in_front = project_points(points, IR)
    ref_pixels, ref_front = ref_project_points(points, IR)
    assert_same_bytes(pixels, ref_pixels)
    assert_same_bytes(in_front, ref_front)


def _sample_coordinates(rng, height, width, n=3000):
    xs = rng.uniform(-2.0, width + 2.0, n)
    ys = rng.uniform(-2.0, height + 2.0, n)
    edges_x = [0.5, width - 0.5, 0.5, width - 0.5, np.nan, np.inf, -np.inf, 0.5,
               np.nextafter(0.5, 0.0), np.nextafter(width - 0.5, np.inf), width / 2.0, 1.0]
    edges_y = [0.5, height - 0.5, height - 0.5, 0.5, 0.5, 0.5, 0.5, np.nan,
               0.5, height - 0.5, np.inf, -np.inf]
    return np.concatenate([xs, edges_x]), np.concatenate([ys, edges_y])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("height,width", [(1, 1), (1, 9), (7, 1), (2, 2), (120, 160)])
def test_sample_temperature_grid_matches_reference(height, width):
    rng = np.random.default_rng(height * 1000 + width)
    frame = ThermalFrame(rng.uniform(280.0, 320.0, (height, width)))
    xs, ys = _sample_coordinates(rng, height, width)
    values, in_field = sample_temperature_grid(frame, xs, ys)
    ref_values, ref_in_field = ref_sample(frame.temperatures, xs, ys)
    assert_same_bytes(values, ref_values)
    assert_same_bytes(in_field, ref_in_field)
    assert in_field.any()


def test_sample_temperature_grid_keeps_input_shapes():
    rng = np.random.default_rng(4)
    frame = ThermalFrame(rng.uniform(280.0, 320.0, (12, 16)))
    # strided 1-d views, as fusion passes them
    pixels = rng.uniform(0.0, 16.0, (50, 2))
    for xs, ys in (
        (pixels[:, 0], pixels[:, 1]),
        (rng.uniform(0, 16, (5, 6)), rng.uniform(0, 12, (5, 6))),  # 2-d
        (rng.uniform(0, 16, (5, 1)), rng.uniform(0, 12, (1, 6))),  # broadcast
        (np.array(3.25), np.array(7.5)),  # 0-d
    ):
        values, in_field = sample_temperature_grid(frame, xs, ys)
        ref_values, ref_in_field = ref_sample(frame.temperatures, xs, ys)
        assert_same_bytes(values, ref_values)
        assert_same_bytes(in_field, ref_in_field)


# --- backprojection and fusion ---------------------------------------------------------

def test_backproject_matches_reference_including_signed_zeros():
    intr = TofIntrinsics(focal_length=4e-3, width=24, height=18, pixel_pitch=45e-6, k1=0.02)
    rng = np.random.default_rng(5)
    distance = rng.uniform(0.5, 6.0, (18, 24))
    distance[0, :4] = [0.0, -0.0, np.nan, np.inf]
    valid = rng.random((18, 24)) > 0.2
    valid[0, :4] = [True, False, False, False]
    frame = RangeFrame(distance, np.ones_like(distance), np.ones_like(distance), valid)
    cloud = backproject(frame, intr)
    expected = (distance[..., None] * ref_unit_rays(intr)).reshape(-1, 3)
    expected[~valid.ravel()] = 0.0
    assert_same_bytes(cloud.points, expected)
    # the zeroed rows are +0.0, never the -0.0 a zero distance times a negative ray gives
    assert not np.signbit(cloud.points[~cloud.valid]).any()


def test_fuse_matches_reference(tof_intr, ir_intr, blob_scene):
    ext = Extrinsics(
        np.array([[math.cos(0.1), 0.0, math.sin(0.1)], [0.0, 1.0, 0.0],
                  [-math.sin(0.1), 0.0, math.cos(0.1)]]),
        np.array([0.3, 0.02, -0.1]),
    )
    thermal = render_ir(blob_scene, ir_intr, ext.inverse())
    rng = np.random.default_rng(6)
    shape = (tof_intr.height, tof_intr.width)
    distance = rng.uniform(0.05, 5.0, shape)
    distance[:5] = rng.uniform(0.0, 0.2, (5, tof_intr.width))  # some end up behind the IR camera
    valid = rng.random(shape) > 0.1
    frame = RangeFrame(distance, np.ones(shape), np.ones(shape), valid)
    tg = fuse(frame, thermal, tof_intr, ir_intr, ext)
    points, temperature, reason = ref_fuse(frame, thermal, tof_intr, ir_intr, ext)
    assert_same_bytes(tg.points.reshape(-1, 3), points)
    assert_same_bytes(tg.temperature.ravel(), temperature)
    assert_same_bytes(tg.reason.ravel(), reason)
    assert set(np.unique(tg.reason)) == set(int(r) for r in FuseReason)


# --- background model ---------------------------------------------------------------

def ref_build_background(frames, median_step):
    mean = m2 = median = count = seen = None
    for frame in frames:
        if mean is None:
            shape = frame.distance.shape
            mean = np.zeros(shape)
            m2 = np.zeros(shape)
            median = np.zeros(shape)
            count = np.zeros(shape, dtype=np.int64)
            seen = np.zeros(shape, dtype=bool)
        v = frame.valid
        d = frame.distance
        count = count + v
        with np.errstate(invalid="ignore", divide="ignore"):
            delta = d - mean
            mean = np.where(v, mean + delta / np.maximum(count, 1), mean)
            m2 = np.where(v, m2 + delta * (d - mean), m2)
        median = np.where(v & ~seen, d, median)
        stepped = median + median_step * np.sign(d - median)
        median = np.where(v & seen, stepped, median)
        seen |= v
    with np.errstate(invalid="ignore", divide="ignore"):
        var = np.where(count >= 2, m2 / np.maximum(count - 1, 1), 0.0)
    return mean, np.sqrt(np.maximum(var, 0.0)), median, count


@pytest.mark.parametrize("case", range(50))
def test_build_background_matches_reference(case):
    rng = np.random.default_rng(100 + case)
    shape = tuple(rng.integers(1, 12, 2))
    frames = []
    for _ in range(rng.integers(2, 8)):
        # coarse distances make equal samples, where the median step is zero
        distance = np.round(rng.uniform(0.5, 6.0, shape), int(rng.integers(0, 3)))
        valid = rng.random(shape) > rng.uniform(0.0, 0.8)
        distance[~valid & (rng.random(shape) > 0.5)] = np.nan
        frames.append(RangeFrame(distance, np.ones(shape), np.ones(shape), valid))
    step = float(rng.choice([0.01, 0.25]))
    model = segmentation.build_background(frames, median_step=step)
    for actual, expected in zip((model.mean, model.std, model.median, model.count),
                                ref_build_background(frames, step)):
        assert_same_bytes(actual, expected)


def test_extrinsics_apply_matches_reference():
    rng = np.random.default_rng(9)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(rotation) < 0:
        rotation[:, 0] = -rotation[:, 0]
    ext = Extrinsics(rotation, rng.normal(size=3))
    for points in (rng.normal(size=(500, 3)), rng.normal(size=(4, 5, 3)), rng.normal(size=3)):
        assert_same_bytes(ext.apply(points), points @ ext.rotation.T + ext.translation)


# --- frame stacking -----------------------------------------------------------------------

class TestStack:
    def test_matches_float64_stack_then_cast(self):
        rng = np.random.default_rng(10)
        grid = rng.normal(scale=1e3, size=(3, 9, 11, 3))
        frames = [
            {
                "a": grid[k, :, :, 0],  # strided float64 view
                "b": grid[k, :, :, 1].astype(np.float32),
                "c": grid[k, :, :, 2] > 0,  # bool
                "d": np.full((9, 11), k, dtype=np.uint8),
                "e": rng.integers(-2**20, 2**20, (9, 11)),
            }
            for k in range(3)
        ]
        cont = FrameContainer.stack(frames)
        expected = np.stack(
            [np.stack([np.asarray(f[n]) for n in "abcde"], axis=-1) for f in frames]
        ).astype("<f4")
        assert_same_bytes(cont.data, expected)
        assert cont.channel_names == tuple("abcde")

    def test_list_planes_are_accepted(self):
        cont = FrameContainer.stack([{"t": [[1.0, 2.0], [3.0, 4.0]]}])
        assert_same_bytes(cont.data, np.array([[[[1], [2]], [[3], [4]]]], dtype="<f4"))

    @pytest.mark.parametrize("bad", [
        np.zeros((4, 6)),  # other shape
        np.zeros((1, 5)),  # broadcasts to (4, 5)
        np.zeros((4, 1)),
        np.float64(2.0),  # scalar broadcasts too
        np.zeros((4, 5, 1)),
    ])
    def test_plane_shape_mismatch_raises(self, bad):
        good = np.zeros((4, 5))
        with pytest.raises(ContainerFormatError):
            FrameContainer.stack([{"a": good, "b": good}, {"a": good, "b": bad}])
        with pytest.raises(ContainerFormatError):
            FrameContainer.stack([{"a": good, "b": bad}])

    def test_non_2d_first_plane_raises(self):
        with pytest.raises(ContainerFormatError):
            FrameContainer.stack([{"a": np.zeros((2, 3, 4))}])
        with pytest.raises(ContainerFormatError):
            FrameContainer.stack([{"a": np.zeros(5)}])

    def test_frame_without_channels_raises(self):
        with pytest.raises(ContainerFormatError):
            FrameContainer.stack([{}])


# --- record containers ------------------------------------------------------------------
# the per-record adapters and the simulate command's ground-truth dict, as
# they were written before the channel schemas

def ref_raw_to_container(frames):
    return FrameContainer.stack(
        [{name: f.samples[:, :, k] for k, name in enumerate(("a1", "a2", "a3", "a4"))}
         for f in frames]
    )


def ref_raw_from_container(cont):
    return [RawTofFrame(cont.data[k].astype(np.float64)) for k in range(cont.frames)]


def ref_thermal_to_container(frames):
    return FrameContainer.stack([{"temperature": f.temperatures} for f in frames])


def ref_thermal_from_container(cont):
    return [ThermalFrame(cont.channel("temperature", k).astype(np.float64))
            for k in range(cont.frames)]


def ref_thermograms_to_container(thermograms):
    return FrameContainer.stack(
        [
            {
                "x": t.points[:, :, 0],
                "y": t.points[:, :, 1],
                "z": t.points[:, :, 2],
                "temperature": t.temperature,
                "validity": t.reason.astype(np.float32),
            }
            for t in thermograms
        ]
    )


def ref_thermograms_from_container(cont):
    out = []
    for k in range(cont.frames):
        points = np.stack(
            [cont.channel(c, k).astype(np.float64) for c in ("x", "y", "z")], axis=-1
        )
        out.append(
            Thermogram(
                points,
                cont.channel("temperature", k).astype(np.float64),
                np.rint(cont.channel("validity", k)).astype(np.uint8),
            )
        )
    return out


def ref_background_to_container(model):
    return FrameContainer.stack(
        [{
            "mean": model.mean,
            "std": model.std,
            "median": model.median,
            "count": model.count.astype(np.float32),
        }]
    )


def ref_background_from_container(cont):
    return BackgroundModel(
        cont.channel("mean").astype(np.float64),
        cont.channel("std").astype(np.float64),
        cont.channel("median").astype(np.float64),
        np.rint(cont.channel("count")).astype(np.int64),
    )


def ref_masks_to_container(masks):
    return FrameContainer.stack(
        [
            {
                "foreground": m.foreground.astype(np.float32),
                "score": m.score,
                "valid": m.valid.astype(np.float32),
            }
            for m in masks
        ]
    )


def ref_truth_to_container(truths):
    return FrameContainer.stack(
        [
            {
                "range": t.range,
                "x": t.points[:, :, 0],
                "y": t.points[:, :, 1],
                "z": t.points[:, :, 2],
                "temperature": t.temperature,
                "outlier": t.outlier_mask.astype(np.float32),
            }
            for t in truths
        ]
    )


def _records(kind, rng, shape=(7, 9), n=3):
    def plane(low=-5.0, high=5.0):
        values = rng.uniform(low, high, shape)
        values[0, :3] = [-0.0, 1e-300, 3.3e38]  # signed zero, float32 underflow, near max
        return values

    def flags():
        return rng.random(shape) < 0.5

    if kind == "raw":
        return [RawTofFrame(rng.uniform(0.0, 4095.0, shape + (4,))) for _ in range(n)]
    if kind == "thermal":
        return [ThermalFrame(rng.uniform(250.0, 350.0, shape)) for _ in range(n)]
    if kind == "thermogram":
        return [Thermogram(np.stack([plane(), plane(), plane()], axis=-1), plane(),
                           rng.integers(0, 4, shape)) for _ in range(n)]
    if kind == "background":
        return [BackgroundModel(plane(), rng.uniform(0.0, 1.0, shape), plane(),
                                rng.integers(0, 1000, shape))]
    if kind == "mask":
        return [ForegroundMask(flags(), plane(0.0, 10.0), flags()) for _ in range(n)]
    return [GroundTruth(plane(0.0, 10.0), np.stack([plane(), plane(), plane()], axis=-1),
                        plane(250.0, 350.0), flags()) for _ in range(n)]


_PACKERS = {
    "raw": (tof.raw_frames_to_container, ref_raw_to_container),
    "thermal": (thermal.thermal_frames_to_container, ref_thermal_to_container),
    "thermogram": (fusion.thermograms_to_container, ref_thermograms_to_container),
    "background": (lambda models: segmentation.background_to_container(models[0]),
                   lambda models: ref_background_to_container(models[0])),
    "mask": (segmentation.masks_to_container, ref_masks_to_container),
    "truth": (simulator.TRUTH_SCHEMA.pack, ref_truth_to_container),
}

_UNPACKERS = {
    "raw": (tof.raw_frames_from_container, ref_raw_from_container),
    "thermal": (thermal.thermal_frames_from_container, ref_thermal_from_container),
    "thermogram": (fusion.thermograms_from_container, ref_thermograms_from_container),
    "background": (lambda cont: [segmentation.background_from_container(cont)],
                   lambda cont: [ref_background_from_container(cont)]),
}


@pytest.mark.parametrize("kind", sorted(_PACKERS))
def test_schema_pack_matches_old_adapter(kind):
    records = _records(kind, np.random.default_rng(11))
    pack, ref_pack = _PACKERS[kind]
    assert pack(records).to_bytes() == ref_pack(records).to_bytes()


@pytest.mark.parametrize("kind", sorted(_UNPACKERS))
def test_schema_unpack_matches_old_adapter(kind):
    cont = _PACKERS[kind][1](_records(kind, np.random.default_rng(12)))
    unpack, ref_unpack = _UNPACKERS[kind]
    got, expected = unpack(cont), ref_unpack(cont)
    assert len(got) == len(expected) == cont.frames
    for record, ref_record in zip(got, expected):
        for name in vars(ref_record):
            assert_same_bytes(getattr(record, name), getattr(ref_record, name))


# --- thermogram text table ----------------------------------------------------------------

def ref_thermogram_to_text(thermogram):
    flat = np.column_stack(
        [
            thermogram.points.reshape(-1, 3),
            thermogram.temperature.ravel(),
            thermogram.reason.ravel().astype(np.float64),
        ]
    )
    buf = io.StringIO()
    buf.write("# x y z temperature reason\n")
    np.savetxt(buf, flat, fmt="%.9g")
    return buf.getvalue()


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 64), (70, 65)])
def test_thermogram_text_matches_savetxt(shape):
    rng = np.random.default_rng(13)
    points = rng.normal(scale=3.0, size=shape + (3,))
    temperature = rng.uniform(250.0, 350.0, shape)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308,
               123456789.0, 0.1]
    points.reshape(-1)[: len(special)] = special[: points.size]
    temperature.reshape(-1)[-len(special):] = special[-temperature.size:]
    tg = Thermogram(points, temperature, rng.integers(0, 4, shape))
    assert fusion.thermogram_to_text(tg) == ref_thermogram_to_text(tg)
