"""The per-frame kernels against the straightforward formulas they replaced.

Demodulation, ray building, projection, bilinear sampling, fusion and frame
stacking are written to avoid temporaries, and the background model updates
in place through masks. The reference functions below are the plain array
expressions those kernels started from; every test demands the same bytes,
so a rewrite that reorders a floating-point operation fails here before it
changes a CLI artifact. The same holds for the hand-written per-record
container adapters that the channel schemas replaced, for the
``np.savetxt`` thermogram and observation tables, whose vectorized ``%.9g``
is also held to ``%`` value by value, for the bitmap text as it was written a
pixel at a time, for the ``simulate``, ``fuse`` and ``segment`` commands as
they were before they streamed their frames, for the
range render as it was before it worked in row bands, for the
simulator's two numpy stencils, whose reference is ``scipy.ndimage``, and
for the distorted projection as the simulator wrote it before it moved to
``tofir.camera``.
"""

import dataclasses
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

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
    render_tof,
)
from tofir import (blocks, calibration, cli, container, document, fusion, segmentation, simulator,
                   thermal, tof)
from tofir.camera import distort_radius, pixel_rays, project_distorted, project_points, unit_rays
from tofir.errors import ContainerFormatError
from tofir.fusion import FuseReason
from tofir.thermal import sample_temperature_grid
from tofir.tof import SPEED_OF_LIGHT

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
    with np.errstate(over="ignore"):
        amplitude = np.sqrt(d13 * d13 + d24 * d24) / 2.0
    offset = s.sum(axis=-1) / 4.0
    distance = SPEED_OF_LIGHT * phase / (4.0 * math.pi * intr.f_mod)
    valid = (amplitude > 0.0) & np.isfinite(amplitude)
    valid &= ~((amplitude < a_min) | (amplitude > a_max) | (offset > b_max))
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
        # atan2(-min subnormal, 0) = -pi/2; the square underflows, so the
        # amplitude is zero
        (0.0, 0.0, 5e-324, 0.0),
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


# --- distorted projection ----------------------------------------------------------

def ref_distort_radius(r_undistorted, k1, k2):
    # Newton inversion of r_u = r + k1 r^3 + k2 r^5
    r = np.array(r_undistorted, dtype=np.float64, copy=True)
    for _ in range(25):
        f = r + k1 * r**3 + k2 * r**5 - r_undistorted
        fp = 1.0 + 3.0 * k1 * r * r + 5.0 * k2 * r**4
        r = r - f / fp
    return r


def ref_project_tof(points, intr):
    """Forward projection into the range camera, applying distortion."""
    points = np.asarray(points, dtype=np.float64)
    z = points[:, 2]
    in_front = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        xn = points[:, 0] / z
        yn = points[:, 1] / z
        r_u = np.hypot(xn, yn)
        r_d = ref_distort_radius(r_u, intr.k1, intr.k2)
        scale = np.where(r_u > 0, r_d / np.maximum(r_u, 1e-300), 1.0)
        u = intr.cx + xn * scale * intr.focal_length / intr.pixel_pitch
        v = intr.cy + yn * scale * intr.focal_length / intr.pixel_pitch
    pix = np.stack([u, v], axis=-1)
    pix[~in_front] = np.nan
    return pix, in_front


# barrel (k1 < 0) to pincushion (k1 > 0) lenses
_LENSES = [(-1.0, 0.0), (-0.4, 0.05), (-0.1, -0.02), (0.0, 0.0), (0.15, 0.02), (0.3, 0.1)]


def _distorted_rig(k1, k2):
    return TofIntrinsics(4e-3, 64, 50, 45e-6, cx=31.3, cy=26.1, k1=k1, k2=k2)


@pytest.mark.parametrize("k1, k2", _LENSES)
def test_project_distorted_matches_reference(k1, k2):
    intr = _distorted_rig(k1, k2)
    rng = np.random.default_rng(17)
    # directions out to twice the sensor's half-diagonal, in front and behind
    points = np.empty((3000, 3))
    points[:, :2] = rng.uniform(-0.9, 0.9, size=(3000, 2))
    points[:, 2] = 1.0
    points *= rng.uniform(-4.0, 6.0, size=(3000, 1))
    points[:6] = [[0.0, 0.0, 2.0], [-0.0, 0.0, 1.0], [0.0, -0.0, 3.5],  # on the axis
                  [0.3, 0.2, 0.0], [0.3, 0.2, -0.0], [0.0, 0.0, 0.0]]  # on the lens plane
    pixels, in_front = project_distorted(points, intr)
    ref_pixels, ref_front = ref_project_tof(points, intr)
    assert_same_bytes(pixels, ref_pixels)
    assert_same_bytes(in_front, ref_front)
    assert np.array_equal(pixels[:3], [[31.3, 26.1]] * 3)
    assert in_front.sum() > 1000 and (~in_front).sum() > 1000


@pytest.mark.parametrize("k1, k2", _LENSES)
def test_distort_radius_matches_reference(k1, k2):
    r = np.random.default_rng(5).uniform(0.0, 0.6, 1000)
    r[:2] = [0.0, -0.0]
    assert_same_bytes(distort_radius(r, k1, k2), ref_distort_radius(r, k1, k2))


@pytest.mark.parametrize("k1, k2", _LENSES)
def test_distorted_projection_round_trips_through_pixel_rays(k1, k2):
    intr = _distorted_rig(k1, k2)
    rng = np.random.default_rng(23)
    x = rng.uniform(0.0, intr.width, 2000)
    y = rng.uniform(0.0, intr.height, 2000)
    x[:4], y[:4] = [0.0, 64.0, 0.0, 64.0], [0.0, 0.0, 50.0, 50.0]  # the corners
    uu, vu, norm = pixel_rays(intr, x, y)
    points = np.stack([uu, vu, np.ones_like(uu)], axis=-1)
    points *= (rng.uniform(0.3, 8.0, 2000) / norm)[:, None]
    pixels, in_front = project_distorted(points, intr)
    assert in_front.all()
    # pixel -> ray -> point -> pixel, and the projected pixel's ray is the point's
    assert np.abs(pixels - np.stack([x, y], axis=-1)).max() < 1e-12
    uu, vu, norm = pixel_rays(intr, pixels[:, 0], pixels[:, 1])
    rays = np.stack([uu, vu, np.ones_like(uu)], axis=-1) / norm[:, None]
    directions = points / np.linalg.norm(points, axis=1)[:, None]
    assert np.abs(rays - directions).max() < 1e-14


@pytest.mark.parametrize("k1, k2", _LENSES)
def test_calibration_set_matches_reference_projections(k1, k2):
    tof_intr = _distorted_rig(k1, k2)
    ext = Extrinsics(np.eye(3), np.array([0.05, 0.0, 0.0]))
    rng = np.random.default_rng(29)
    positions = rng.uniform([-2.0, -1.5, -0.5], [2.0, 1.5, 5.0], size=(400, 3))
    observations = simulator.make_calibration_set(
        [simulator.CalibrationTarget(p) for p in positions], ext, tof_intr, IR)
    tof_pix, tof_front = ref_project_tof(positions, tof_intr)
    ir_pix, ir_front = ref_project_points(ext.apply(positions), IR)
    with np.errstate(invalid="ignore"):
        on_tof = ((tof_pix[:, 0] >= 0) & (tof_pix[:, 0] <= tof_intr.width)
                  & (tof_pix[:, 1] >= 0) & (tof_pix[:, 1] <= tof_intr.height))
        on_ir = ((ir_pix[:, 0] >= 0) & (ir_pix[:, 0] <= IR.width)
                 & (ir_pix[:, 1] >= 0) & (ir_pix[:, 1] <= IR.height))
    distances = np.linalg.norm(positions, axis=1)
    # a range pixel whose ray misses its target by more than 1e-9 of the
    # distance (past the radius the k1 = -1 lens can invert) is dropped
    with np.errstate(invalid="ignore"):
        un = (tof_pix - (tof_intr.cx, tof_intr.cy)) * tof_intr.pixel_pitch / tof_intr.focal_length
        r_sq = (un * un).sum(axis=1, keepdims=True)
        rays = np.column_stack([un * (1.0 + k1 * r_sq + k2 * r_sq * r_sq), np.ones(len(un))])
        lifted = rays * (distances / np.linalg.norm(rays, axis=1))[:, None]
        on_ray = np.linalg.norm(lifted - positions, axis=1) <= 1e-9 * distances
    usable = np.flatnonzero(tof_front & ir_front & on_tof & on_ir & on_ray)
    expected = np.column_stack([tof_pix[usable], distances[usable], ir_pix[usable]])
    actual = np.array([dataclasses.astuple(o) for o in observations]).reshape(-1, 5)
    assert_same_bytes(actual, expected)
    assert 20 < len(usable) < 380


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


def _fuse_inputs(tof_intr, ir_intr, scene):
    """A range frame, thermal image and rig between them hitting every
    FuseReason code: random validity, and near points in the first and last
    five rows that end up behind the IR camera."""
    ext = Extrinsics(
        np.array([[math.cos(0.1), 0.0, math.sin(0.1)], [0.0, 1.0, 0.0],
                  [-math.sin(0.1), 0.0, math.cos(0.1)]]),
        np.array([0.3, 0.02, -0.1]),
    )
    thermal = render_ir(scene, ir_intr, ext.inverse())
    rng = np.random.default_rng(6)
    shape = (tof_intr.height, tof_intr.width)
    distance = rng.uniform(0.05, 5.0, shape)
    distance[:5] = rng.uniform(0.0, 0.2, (5, tof_intr.width))
    distance[-5:] = rng.uniform(0.0, 0.2, (5, tof_intr.width))
    valid = rng.random(shape) > 0.1
    return RangeFrame(distance, np.ones(shape), np.ones(shape), valid), thermal, ext


def _assert_fuse_matches_reference(tof_intr, ir_intr, scene):
    frame, thermal, ext = _fuse_inputs(tof_intr, ir_intr, scene)
    tg = fuse(frame, thermal, tof_intr, ir_intr, ext)
    points, temperature, reason = ref_fuse(frame, thermal, tof_intr, ir_intr, ext)
    assert_same_bytes(tg.points.reshape(-1, 3), points)
    assert_same_bytes(tg.temperature.ravel(), temperature)
    assert_same_bytes(tg.reason.ravel(), reason)
    return tg.reason.ravel()


def test_fuse_matches_reference(tof_intr, ir_intr, blob_scene):
    reason = _assert_fuse_matches_reference(tof_intr, ir_intr, blob_scene)
    assert set(np.unique(reason)) == set(int(r) for r in FuseReason)


def test_blocked_fuse_matches_reference_in_every_block(ir_intr, blob_scene):
    tof_intr = TofIntrinsics(focal_length=4e-3, width=200, height=170, pixel_pitch=14.4e-6)
    pixels = tof_intr.width * tof_intr.height
    assert 2 * blocks.BLOCK < pixels < 3 * blocks.BLOCK  # two full, one partial
    reason = _assert_fuse_matches_reference(tof_intr, ir_intr, blob_scene)
    every_code = set(int(r) for r in FuseReason)
    assert set(np.unique(reason[: blocks.BLOCK])) == every_code
    assert set(np.unique(reason[2 * blocks.BLOCK :])) == every_code


def _fuse_temporaries(width, height, ir_intr, scene) -> int:
    """Bytes ``fuse`` allocates at its peak beyond the arrays it returns."""
    # the same field of view as the 64x50 rig at any resolution
    tof_intr = TofIntrinsics(focal_length=4e-3, width=width, height=height,
                             pixel_pitch=45e-6 * 64 / width)
    frame, thermal, ext = _fuse_inputs(tof_intr, ir_intr, scene)
    fuse(frame, thermal, tof_intr, ir_intr, ext)  # the ray grid is cached before tracing
    tracemalloc.start()
    try:
        tg = fuse(frame, thermal, tof_intr, ir_intr, ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - (tg.points.nbytes + tg.temperature.nbytes + tg.reason.nbytes)


def test_fuse_temporaries_stay_bounded_per_pixel(ir_intr, blob_scene):
    # the transform, projection and sampling run a block of points at a time,
    # so only per-pixel flags and indices grow with the frame
    small = _fuse_temporaries(160, 120, ir_intr, blob_scene)
    large = _fuse_temporaries(640, 480, ir_intr, blob_scene)
    per_pixel = (large - small) / (640 * 480 - 160 * 120)
    assert per_pixel <= 16, (small, large)


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
        with np.errstate(all="ignore"):
            delta = d - mean
            mean = np.where(v, mean + delta / np.maximum(count, 1), mean)
            m2 = np.where(v, m2 + delta * (d - mean), m2)
        median = np.where(v & ~seen, d, median)
        with np.errstate(all="ignore"):
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
        # invalid pixels hold what would overflow or turn NaN if they were
        # ever computed; warnings are errors, so that would fail here
        junk = ~valid & (rng.random(shape) > 0.3)
        distance[junk] = rng.choice([np.nan, np.inf, -np.inf, 1e300, -1e300], junk.sum())
        frames.append(RangeFrame(distance, np.ones(shape), np.ones(shape), valid))
    step = float(rng.choice([0.01, 0.25]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = segmentation.build_background(frames, median_step=step)
    for actual, expected in zip((model.mean, model.std, model.median, model.count),
                                ref_build_background(frames, step)):
        assert_same_bytes(actual, expected)


# --- portable bitmap text -----------------------------------------------------------

def ref_mask_to_pbm(mask):
    lines = ["P1", f"{mask.foreground.shape[1]} {mask.foreground.shape[0]}"]
    for row in mask.foreground.astype(np.uint8):
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape, fill", [
    ((1, 1), "random"), ((1, 1), True), ((1, 9), "random"), ((7, 1), "random"),
    ((50, 64), False), ((50, 64), True), ((50, 64), "random"), ((3, 5), "random"),
])
def test_mask_to_pbm_matches_reference(shape, fill):
    rng = np.random.default_rng(sum(shape))
    foreground = rng.random(shape) > 0.5 if fill == "random" else np.full(shape, fill)
    mask = ForegroundMask(foreground, np.zeros(shape), np.ones(shape, bool))
    assert segmentation.mask_to_pbm(mask) == ref_mask_to_pbm(mask)


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
    "background": (segmentation.BACKGROUND_SCHEMA.unpack,
                   lambda cont: [ref_background_from_container(cont)]),
}


@pytest.mark.parametrize("kind", sorted(_PACKERS))
def test_schema_pack_matches_old_adapter(kind):
    records = _records(kind, np.random.default_rng(11))
    pack, ref_pack = _PACKERS[kind]
    got, expected = pack(records), ref_pack(records)
    assert got.channel_names == expected.channel_names
    assert got.data.shape == expected.data.shape
    assert got.data.tobytes() == expected.data.tobytes()


@pytest.mark.parametrize("kind", sorted(_UNPACKERS))
def test_schema_unpack_matches_old_adapter(kind):
    cont = _PACKERS[kind][1](_records(kind, np.random.default_rng(12)))
    unpack, ref_unpack = _UNPACKERS[kind]
    got, expected = unpack(cont), ref_unpack(cont)
    assert len(got) == len(expected) == cont.frames
    for record, ref_record in zip(got, expected):
        for name in vars(ref_record):
            assert_same_bytes(getattr(record, name), getattr(ref_record, name))


# --- simulator stencils -------------------------------------------------------------------
# the simulator's scattering convolution and IR blur were scipy.ndimage calls

def _planes(shape, seed):
    rng = np.random.default_rng(seed)
    planes = [rng.normal(scale=50.0, size=shape) for _ in range(3)]
    planes[0].reshape(-1)[:2] = [-0.0, 0.0]  # 0.0 + (-0.0 * w) is +0.0
    return planes


def _disc(radius, energy_fraction):
    return simulator._scatter_kernel(
        simulator.ScatteringConfig(True, radius, energy_fraction))


def _assert_wrap_matches_ndimage(shape, kernel):
    planes = _planes(shape, kernel.size)
    for plane, result in zip(planes, simulator._convolve_wrap(planes, kernel)):
        assert_same_bytes(result, ndimage.convolve(plane, kernel, mode="wrap"))


def test_convolve_wrap_matches_ndimage_at_vga():
    _assert_wrap_matches_ndimage((480, 640), _disc(4, 0.1))


@pytest.mark.parametrize("shape, radius", [((5, 7), 4), ((3, 3), 6), ((50, 64), 1)])
def test_convolve_wrap_matches_ndimage_for_kernels_past_the_image(shape, radius):
    _assert_wrap_matches_ndimage(shape, _disc(radius, 0.3))


def test_convolve_wrap_flips_an_asymmetric_kernel():
    _assert_wrap_matches_ndimage((40, 70), np.random.default_rng(8).uniform(-1.0, 1.0, (3, 5)))


@pytest.mark.parametrize("energy_fraction", [0.0, 1e-15])
def test_convolve_wrap_skips_the_taps_ndimage_skips(energy_fraction):
    # the disc taps are 0 or below DBL_EPSILON: only the centre tap is summed
    _assert_wrap_matches_ndimage((50, 64), _disc(3, energy_fraction))


@pytest.mark.parametrize("shape", [(120, 160), (480, 640), (7, 9)])
@pytest.mark.parametrize("sigma", [1e-200, 0.1, 0.5, 1, 1.2, 1.7, 3.0])
def test_gaussian_blur_matches_ndimage(shape, sigma):
    # at 7x9 the radius, up to 12 pixels, is larger than the image; below
    # sigma 0.125 it is 0, and sigma * sigma may underflow to 0
    image = np.random.default_rng(5).uniform(280.0, 320.0, shape)
    assert_same_bytes(simulator._gaussian_blur(image, sigma),
                      ndimage.gaussian_filter(image, sigma, mode="reflect"))


def test_renders_match_ndimage_renders(tof_intr, ir_intr, blob_scene, monkeypatch):
    noise = simulator.NoiseConfig(
        seed=3, scattering=simulator.ScatteringConfig(True, 3, 0.2),
        multipath=simulator.MultipathConfig(True))
    raw, _ = render_tof(blob_scene, tof_intr, noise=noise)
    blurred = render_ir(blob_scene, ir_intr, blur_sigma=1.3).temperatures
    sharp = render_ir(blob_scene, ir_intr).temperatures
    monkeypatch.setattr(simulator, "_convolve_wrap", lambda planes, kernel: [
        ndimage.convolve(plane, kernel, mode="wrap") for plane in planes])
    assert_same_bytes(raw.samples, render_tof(blob_scene, tof_intr, noise=noise)[0].samples)
    assert_same_bytes(blurred, ndimage.gaussian_filter(sharp, 1.3, mode="reflect"))


@pytest.mark.parametrize("shape, radius", [((33, 40), 4), ((45, 70), 6), ((65, 9), 1)])
def test_convolve_wrap_matches_ndimage_with_a_partial_last_band(monkeypatch, shape, radius):
    # blocks of 32 rows: 33 rows leave a last block of one row
    monkeypatch.setattr(blocks, "BLOCK", 32 * shape[1])
    assert shape[0] % 32 != 0
    _assert_wrap_matches_ndimage(shape, _disc(radius, 0.3))


# --- range render -------------------------------------------------------------------------
# the renderer traced, phased and bucketed whole frames before it worked in row bands

def ref_trace(scene, rays_camera, pose):
    rays_world = rays_camera @ pose.rotation.T
    origin = pose.translation
    best_t = np.full(rays_world.shape[:-1], simulator._MISS)
    reflectivity = np.full_like(best_t, scene.background_reflectivity)
    temperature = np.full_like(best_t, scene.ambient_temperature)
    for prim in scene.primitives:
        if isinstance(prim, simulator.Plane):
            t = simulator._intersect_plane(origin, rays_world, simulator._AXES[prim.axis],
                                           prim.offset)
        else:
            t = simulator._intersect_sphere(origin, rays_world, prim.center, prim.radius)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        reflectivity = np.where(closer, prim.reflectivity, reflectivity)
        temperature = np.where(closer, prim.temperature, temperature)
    missed = np.isinf(best_t)
    if np.any(missed):
        t_bg = simulator._intersect_plane(origin, rays_world, 2, scene.background_distance)
        t_bg = np.where(np.isinf(t_bg), scene.background_distance, t_bg)
        best_t = np.where(missed, t_bg, best_t)
    return best_t, reflectivity, temperature


def ref_stream(seed, *key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def ref_band_normals(noise, frame_index, shape):
    """Whole-frame phase and bucket normals: band b of ``_NOISE_ROWS`` rows
    draws its phase normals, then its bucket normals, from the stream keyed
    by (seed, frame_index, b); a kind that is off draws nothing."""
    phase, buckets = [], []
    for band, top in enumerate(range(0, shape[0], simulator._NOISE_ROWS)):
        rows = min(simulator._NOISE_ROWS, shape[0] - top)
        rng = ref_stream(noise.seed, frame_index, band)
        if noise.phase_noise_scale > 0:
            phase.append(rng.standard_normal((rows, shape[1])))
        if noise.bucket_noise_sigma > 0:
            buckets.append(rng.standard_normal((rows, shape[1], 4)))
    return (np.concatenate(phase) if phase else None,
            np.concatenate(buckets) if buckets else None)


def ref_saturated_pixels(noise, frame_index, n_pixels):
    """Flat indices of the saturated pixels, from the stream keyed by
    (seed, frame_index)."""
    n_sat = int(round(noise.saturation_fraction * n_pixels))
    if not n_sat:
        return np.array([], dtype=np.int64)
    return ref_stream(noise.seed, frame_index).choice(n_pixels, size=n_sat, replace=False)


def ref_render_tof(scene, intr, pose, noise, frame_index, extrinsics, amplitude_law):
    rays = ref_unit_rays(intr)
    dist, reflectivity, temperature = ref_trace(scene, rays, pose or Extrinsics.identity())
    if amplitude_law == "inverse_square":
        amplitude = reflectivity * simulator.DEFAULT_AMPLITUDE_REF / (dist * dist)
    else:
        amplitude = reflectivity * simulator.DEFAULT_AMPLITUDE_REF * np.ones_like(dist)
    phasor = amplitude * np.exp(1j * tof.phase_for_distance(dist, intr.f_mod))
    offset = simulator.DEFAULT_OFFSET_REF + amplitude

    mp = noise.multipath
    if mp.enabled:
        secondary = mp.relative_amplitude * amplitude
        phasor = phasor + secondary * np.exp(
            1j * tof.phase_for_distance(dist + mp.extra_distance, intr.f_mod)
        )
        offset = offset + secondary

    if noise.scattering.enabled:
        kernel = simulator._scatter_kernel(noise.scattering)
        real, imag, offset = [ndimage.convolve(plane, kernel, mode="wrap")
                              for plane in (phasor.real, phasor.imag, offset)]
        phasor = real + 1j * imag

    final_amplitude = np.abs(phasor)
    final_phase = np.angle(phasor)
    phase_normals, bucket_normals = ref_band_normals(noise, frame_index, dist.shape)
    if noise.phase_noise_scale > 0:
        sigma = noise.phase_noise_scale / np.maximum(final_amplitude, 1e-12)
        final_phase = final_phase + sigma * phase_normals

    buckets = tof.synthesize_buckets(final_phase, final_amplitude, offset)
    if noise.bucket_noise_sigma > 0:
        buckets = buckets + noise.bucket_noise_sigma * bucket_normals
        buckets = np.maximum(buckets, 0.0)

    outliers = np.zeros(dist.shape, dtype=bool)
    chosen = ref_saturated_pixels(noise, frame_index, dist.size)
    buckets.reshape(-1, 4)[chosen] = simulator.SATURATION_LEVEL
    outliers.reshape(-1)[chosen] = True

    truth = GroundTruth(range=dist, points=dist[..., None] * rays, temperature=temperature,
                        outlier_mask=outliers, extrinsics=extrinsics)
    return RawTofFrame(buckets), truth


_ERROR_SOURCES = {
    "phase": {},
    "bucket": {"bucket_noise_sigma": 0.3},
    "saturation": {"saturation_fraction": 0.02},
    "multipath": {"multipath": simulator.MultipathConfig(True, 0.7, 0.3)},
    "scattering": {"scattering": simulator.ScatteringConfig(True, 4, 0.15)},
}
_EVERY_ERROR = {k: v for source in _ERROR_SOURCES.values() for k, v in source.items()}
_ERROR_CASES = {"none": {"phase_noise_scale": 0.0}, **_ERROR_SOURCES, "every": _EVERY_ERROR}
_RENDER_SCENE = simulator.Scene((simulator.Plane("x", 1.0, 0.6, 295.0),
                                 simulator.Sphere((0.0, 0.1, 1.5), 0.4, 0.9, 310.0)))
# turned about two axes and moved: part of the view misses every primitive
_TURNED = Extrinsics(
    np.array([[math.cos(0.2), 0.0, math.sin(0.2)], [0.0, 1.0, 0.0],
              [-math.sin(0.2), 0.0, math.cos(0.2)]])
    @ np.array([[1.0, 0.0, 0.0], [0.0, math.cos(0.1), -math.sin(0.1)],
                [0.0, math.sin(0.1), math.cos(0.1)]]),
    np.array([0.1, -0.05, 0.2]),
)


def _assert_render_matches_reference(width, height, pose, amplitude_law="inverse_square",
                                     **errors):
    # the 64x50 rig's field of view at any resolution
    intr = TofIntrinsics(focal_length=4e-3, width=width, height=height,
                         pixel_pitch=45e-6 * 64 / width, f_mod=21e6)
    noise = simulator.NoiseConfig(seed=11, **errors)
    ext = Extrinsics(np.eye(3), np.array([0.05, 0.0, 0.0]))
    raw, truth = render_tof(_RENDER_SCENE, intr, pose, noise, frame_index=1, extrinsics=ext,
                            amplitude_law=amplitude_law)
    ref_raw, ref_truth = ref_render_tof(_RENDER_SCENE, intr, pose, noise, 1, ext,
                                        amplitude_law)
    assert_same_bytes(raw.samples, ref_raw.samples)
    for name in ("range", "points", "temperature", "outlier_mask"):
        assert_same_bytes(getattr(truth, name), getattr(ref_truth, name))
    assert truth.extrinsics is ext
    return truth


@pytest.mark.parametrize("amplitude_law", ["inverse_square", "constant"])
@pytest.mark.parametrize("errors", list(_ERROR_CASES))
def test_render_matches_reference_per_error_source(amplitude_law, errors):
    _assert_render_matches_reference(64, 50, None, amplitude_law, **_ERROR_CASES[errors])


@pytest.mark.parametrize("radius", [1, 4, 6])
@pytest.mark.parametrize("width, height", [(64, 50), (70, 45)])
def test_render_matches_reference_turned_with_every_error(monkeypatch, width, height, radius):
    monkeypatch.setattr(blocks, "BLOCK", 32 * width)
    assert height % 32 != 0  # the last block of 32 rows is partial
    errors = {**_EVERY_ERROR, "scattering": simulator.ScatteringConfig(True, radius, 0.15)}
    truth = _assert_render_matches_reference(width, height, _TURNED, **errors)
    # the background plane is hit, and so is every primitive
    assert set(np.unique(truth.temperature)) == {293.0, 295.0, 310.0}


@pytest.mark.parametrize("pose", [None, _TURNED])
def test_render_matches_reference_at_vga(pose):
    _assert_render_matches_reference(640, 480, pose, **_EVERY_ERROR)


@pytest.mark.parametrize("band_rows", [1, 7, 16, 100])
def test_render_does_not_depend_on_the_band_height(monkeypatch, band_rows):
    # blocks of band_rows rows; past one row, 45 rows leave a partial last block
    monkeypatch.setattr(blocks, "BLOCK", band_rows * 70)
    assert band_rows == 1 or 45 % band_rows
    _assert_render_matches_reference(70, 45, _TURNED, **_EVERY_ERROR)


def _render_frame_bytes(intr, pose, noise) -> list[bytes]:
    raw, truth = render_tof(_RENDER_SCENE, intr, pose, noise, frame_index=1)
    return [raw.samples.tobytes()] + [getattr(truth, name).tobytes()
                                      for name in ("range", "points", "temperature", "outlier_mask")]


@pytest.mark.parametrize("scattering", [True, False])
@pytest.mark.parametrize("width, height, pose", [(640, 480, None), (70, 45, _TURNED)])
def test_kept_frame_base_renders_the_cold_bytes(width, height, pose, scattering):
    # a render that takes the frame base kept by another seed's render gives
    # the bytes of one that builds its own
    intr = TofIntrinsics(focal_length=4e-3, width=width, height=height,
                         pixel_pitch=45e-6 * 64 / width, f_mod=21e6)
    errors = dict(_EVERY_ERROR)
    if not scattering:
        del errors["scattering"]
    noise = simulator.NoiseConfig(seed=11, **errors)
    cold = _render_frame_bytes(intr, pose, noise)
    simulator._frame_base.cache_clear()
    render_tof(_RENDER_SCENE, intr, pose, dataclasses.replace(noise, seed=12))
    assert _render_frame_bytes(intr, pose, noise) == cold
    assert simulator._frame_base.cache_info()[:2] == (1, 1)  # one hit, one miss


def _render_temporaries(width, height, scene, cold=False) -> int:
    """Bytes ``render_tof`` with every error source allocates at its peak
    beyond the arrays it returns; a ``cold`` render builds its frame base."""
    intr = TofIntrinsics(focal_length=4e-3, width=width, height=height,
                         pixel_pitch=45e-6 * 64 / width)
    noise = simulator.NoiseConfig(seed=4, **_EVERY_ERROR)
    render_tof(scene, intr, noise=noise)  # the ray grid is cached before tracing
    if cold:
        simulator._frame_base.cache_clear()
    tracemalloc.start()
    try:
        raw, truth = render_tof(scene, intr, noise=noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = [raw.samples, truth.range, truth.points, truth.temperature, truth.outlier_mask]
    return peak - sum(a.nbytes for a in outputs)


def test_render_temporaries_stay_bounded_per_pixel(blob_scene):
    # the trace and the buckets are made a band of rows at a time; what grows
    # with the frame beyond the outputs is the traced reflectivity and, at the
    # peak, the scattering planes with their padded copy and convolution
    small = _render_temporaries(160, 120, blob_scene)
    large = _render_temporaries(640, 480, blob_scene)
    per_pixel = (large - small) / (640 * 480 - 160 * 120)
    assert per_pixel <= 40, (small, large)


def test_cold_render_temporaries_stay_bounded_per_pixel(blob_scene):
    # a render that builds its frame base keeps the noise-free return
    # (amplitude, phase, offset), which is not among its outputs; at the peak
    # the traced reflectivity and the scattering planes with their padded
    # copy and convolution grow with the frame too
    small = _render_temporaries(160, 120, blob_scene, cold=True)
    large = _render_temporaries(640, 480, blob_scene, cold=True)
    per_pixel = (large - small) / (640 * 480 - 160 * 120)
    assert per_pixel <= 40, (small, large)


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
    file = io.StringIO()
    fusion.thermogram_to_text(tg, file)
    assert file.getvalue() == ref_thermogram_to_text(tg)


def test_thermogram_text_goes_to_a_file_a_block_of_rows_at_a_time():
    rng = np.random.default_rng(17)
    shape = (120, 160)  # 19200 rows: four full blocks of 4096 and one of 2816
    tg = Thermogram(rng.normal(size=shape + (3,)), rng.uniform(250.0, 350.0, shape),
                    rng.integers(0, 4, shape))

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text.count("\n"))
            return super().write(text)

    writes = []
    file = Recorder()
    fusion.thermogram_to_text(tg, file)
    assert writes == [1, 4096, 4096, 4096, 4096, 2816]
    assert file.getvalue() == ref_thermogram_to_text(tg)


def ref_format_rows(table):
    return "".join(" ".join("%.9g" % value for value in row) + "\n" for row in table.tolist())


# the bit patterns of the doubles from 1e-4 to 1e7, either sign: the span
# format_rows writes without %, which arbitrary patterns hit about 1 in 50
_FIXED_BITS = st.builds(
    int.__or__, st.sampled_from([0, 1 << 63]),
    st.integers(*np.array([1e-4, 1e7]).view(np.uint64).tolist()),
)


@given(bits=st.lists(st.one_of(st.integers(0, 2**64 - 1), _FIXED_BITS), min_size=1, max_size=60),
       cols=st.integers(1, 5))
@settings(max_examples=500, deadline=None)
def test_format_rows_matches_percent_on_any_bit_pattern(bits, cols):
    # NaN payloads, signalling NaNs, infinities, zeros and subnormals among them
    bits += [0] * (-len(bits) % cols)
    table = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, cols)
    assert container.format_rows(table) == ref_format_rows(table)


@pytest.mark.parametrize("value", [
    9.99999999e-05, 9.999999995e-05, 1e-4, 0.5, 12345678.25, 9999999.5, 999999.9995, 1e7,
    -0.0, 5e-324, 1.7976931348623157e308,
    # 9 digits that round up to 8 integer digits
    9999999.996,
    # scaled to 9 integer digits, these products round onto a half that the
    # exact product is not: the correct rounding goes the other way
    56.06394615, 0.09554173255,
])
def test_format_rows_matches_percent_at_bounds_and_ties(value):
    table = np.array([[value, -value, math.nextafter(value, 0.0), math.nextafter(value, math.inf)]])
    assert container.format_rows(table) == ref_format_rows(table)


def test_a_fused_thermogram_takes_no_fallback(monkeypatch, tof_intr, ir_intr, baseline_ext,
                                              blob_scene):
    # points in metres, kelvin and reason codes, zeros where a saturated
    # pixel has no range, as fuse writes them: the table takes the vectorized
    # path throughout, so % formats no value
    noise = simulator.NoiseConfig(seed=3, bucket_noise_sigma=0.2, saturation_fraction=0.01)
    raw, _ = render_tof(blob_scene, tof_intr, noise=noise)
    thermal = render_ir(blob_scene, ir_intr, baseline_ext.inverse())
    tg = fuse(demodulate(raw, tof_intr), thermal, tof_intr, ir_intr, baseline_ext)
    assert 0 < np.count_nonzero(tg.valid) < tg.valid.size
    fallbacks = []
    monkeypatch.setattr(container, "_g9", lambda value: fallbacks.append(value) or "%.9g" % value)
    file = io.StringIO()
    fusion.thermogram_to_text(tg, file)
    assert fallbacks == []
    assert file.getvalue() == ref_thermogram_to_text(tg)


def _text_peak(height, width):
    """tracemalloc peak of writing a height x width thermogram's table to a
    file that keeps nothing."""
    rng = np.random.default_rng(19)
    shape = (height, width)
    tg = Thermogram(rng.uniform(-2.0, 2.0, shape + (3,)), rng.uniform(250.0, 350.0, shape),
                    rng.integers(0, 4, shape))

    class Discard(io.TextIOBase):
        def write(self, text):
            return len(text)

    fusion.thermogram_to_text(tg, Discard())
    tracemalloc.start()
    try:
        fusion.thermogram_to_text(tg, Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_thermogram_text_temporaries_stay_one_block():
    # 19200 and 307200 rows: both tables are formatted in full 4096-row
    # blocks, so the larger may not hold even one more block of float64 values
    small = _text_peak(120, 160)
    large = _text_peak(480, 640)
    assert large - small < 4096 * 5 * 8, (small, large)


@pytest.mark.parametrize("count", [0, 1, 20])
def test_observation_file_matches_savetxt(tmp_path, count):
    rng = np.random.default_rng(23)
    rows = np.column_stack([rng.uniform(0, 64, count), rng.uniform(0, 50, count),
                            rng.uniform(0.5, 4.0, count), rng.uniform(0, 160, count),
                            rng.uniform(0, 120, count)])
    rows[:1, 0] = 5e-07  # exponent notation
    observations = [calibration.TargetObservation(*row) for row in rows.tolist()]
    calibration.save_observations(tmp_path / "observations.txt", observations)
    reference = io.StringIO()
    np.savetxt(reference, np.array([[o.u, o.v, o.distance, o.ir_x, o.ir_y] for o in observations]),
               fmt="%.9g", header="u v distance ir_x ir_y")
    assert (tmp_path / "observations.txt").read_text() == reference.getvalue()


# --- streamed simulate, fuse and segment commands -------------------------------------------
# cmd_simulate, cmd_fuse and cmd_segment as they were before they streamed:
# every frame rendered, or every raw frame unpacked to float64, up front, and
# every rendered frame, range frame, thermogram and mask kept until the
# artifacts are written

def ref_cmd_simulate(args):
    cfg = cli._load_json(args.config)
    base = Path(args.config).parent
    settings = document.read(cfg, "config", frames=document.whole, seed=document.whole,
                             ir_blur_sigma=document.number)
    scene = simulator.scene_from_json(cli._load_json(cli._resolve(cfg, "scene", base)))
    tof_intr = cli._load_document(cfg, base, "tof_intrinsics", TofIntrinsics)
    ir_intr = cli._load_document(cfg, base, "ir_intrinsics", IrIntrinsics)
    noise = simulator.noise_from_json(cfg.get("noise", {}))
    seed = args.seed if args.seed is not None else settings.get("seed")
    if seed is not None:
        noise = dataclasses.replace(noise, seed=seed)
    targets = None
    if "calibration_targets" in cfg:
        targets = document.read(cfg["calibration_targets"], "calibration_targets",
                                points=cli._targets, pixel_noise_sigma=document.number)
        cli._require(targets, "points", "calibration_targets")

    ext = Extrinsics.identity()
    if "extrinsics" in cfg:
        ext = cli._load_document(cfg, base, "extrinsics", Extrinsics)

    rendered = simulator.render_tof_sequence(scene, tof_intr, None, noise,
                                             settings.get("frames", 1), extrinsics=ext)
    blur = {"blur_sigma": settings["ir_blur_sigma"]} if "ir_blur_sigma" in settings else {}
    ir_frame = simulator.render_ir(scene, ir_intr, ext.inverse(), **blur)
    observations = None
    if targets is not None:
        observations = simulator.make_calibration_set(
            targets.pop("points"), ext, tof_intr, ir_intr, seed=noise.seed, **targets
        )

    out = cli._output_dir(args, cfg)
    tof.raw_frames_to_container([r for r, _ in rendered]).write(out / "raw.tirf")
    simulator.TRUTH_SCHEMA.pack([t for _, t in rendered]).write(out / "raw.truth.tirf")
    thermal.thermal_frames_to_container([ir_frame]).write(out / "thermal.tirf")
    cli._write_json(out / "extrinsics.truth.json", ext.to_json_dict())
    if observations is not None:
        calibration.save_observations(out / "observations.txt", observations)
        cli._say(args, f"wrote {len(observations)} calibration observations")

    cli._say(args, f"simulated {len(rendered)} frame(s) at {tof_intr.width}x{tof_intr.height} "
                   f"(seed {noise.seed}) into {out}")
    return cli.EXIT_OK


def ref_cmd_fuse(args):
    cfg = cli._load_json(args.config)
    base = Path(args.config).parent
    limits = cli._limits(cfg)
    raw_cont = FrameContainer.read(cli._resolve(cfg, "raw", base))
    thermal_cont = FrameContainer.read(cli._resolve(cfg, "thermal", base))
    tof_intr = cli._load_document(cfg, base, "tof_intrinsics", TofIntrinsics)
    ir_intr = cli._load_document(cfg, base, "ir_intrinsics", IrIntrinsics)
    ext = cli._load_document(cfg, base, "extrinsics", Extrinsics)

    raws = tof.raw_frames_from_container(raw_cont)
    thermal_frames = thermal.thermal_frames_from_container(thermal_cont)
    thermograms = []
    for k, raw in enumerate(raws):
        range_frame = tof.demodulate(raw, tof_intr, **limits)
        thermal_frame = thermal_frames[k if len(thermal_frames) > 1 else 0]
        tg = fusion.fuse(range_frame, thermal_frame, tof_intr, ir_intr, ext)
        thermograms.append(tg)
        stats = fusion.fuse_summary(tg)
        cli._say(args, f"frame {k}: " + "  ".join(f"{k_}={v:.4f}" for k_, v in stats.items()))

    out = cli._output_dir(args, cfg)
    fusion.thermograms_to_container(thermograms).write(out / "thermogram.tirf")
    (out / "thermogram.txt").write_text(ref_thermogram_to_text(thermograms[0]))
    return cli.EXIT_OK


def ref_cmd_segment(args):
    cfg = cli._load_json(args.config)
    base = Path(args.config).parent
    limits = cli._limits(cfg)
    background_settings = document.read(cfg, "config", median_step=document.number)
    mask_settings = document.read(cfg, "config", k=document.number,
                                  sigma_floor=document.number)
    k = mask_settings.pop("k", 3.0)
    tof_intr = cli._load_document(cfg, base, "tof_intrinsics", TofIntrinsics)

    background_cont = FrameContainer.read(cli._resolve(cfg, "background", base))
    bg_frames = [
        tof.demodulate(r, tof_intr, **limits)
        for r in tof.raw_frames_from_container(background_cont)
    ]
    model = segmentation.build_background(bg_frames, **background_settings)

    if "frames" in cfg:
        test_cont = FrameContainer.read(cli._resolve(cfg, "frames", base))
        test_frames = [
            tof.demodulate(r, tof_intr, **limits)
            for r in tof.raw_frames_from_container(test_cont)
        ]
    else:
        test_frames = bg_frames

    masks = [segmentation.foreground_mask(f, model, k, **mask_settings) for f in test_frames]

    out = cli._output_dir(args, cfg)
    segmentation.background_to_container(model).write(out / "background.tirf")
    segmentation.masks_to_container(masks).write(out / "masks.tirf")
    for i, mask in enumerate(masks):
        (out / f"mask_{i:04d}.pbm").write_text(ref_mask_to_pbm(mask))
        cli._say(args, f"frame {i}: {int(mask.foreground.sum())} foreground pixels")
    return cli.EXIT_OK


_RAW_FRAMES = 4


@pytest.fixture
def cli_inputs(tmp_path, tof_intr, ir_intr, wall_scene, blob_scene):
    """Noisy raw frames of the wall and of the warm sphere, one thermal frame
    and one per raw frame, and the rig documents, for the 64x50 rig."""
    ext = Extrinsics(
        np.array([[math.cos(0.05), 0.0, math.sin(0.05)], [0.0, 1.0, 0.0],
                  [-math.sin(0.05), 0.0, math.cos(0.05)]]),
        np.array([0.05, 0.0, 0.0]),
    )
    for name, scene, seed in (("background", wall_scene, 3), ("raw", blob_scene, 4)):
        rendered = simulator.render_tof_sequence(
            scene, tof_intr, None, simulator.NoiseConfig(seed=seed, bucket_noise_sigma=0.2),
            _RAW_FRAMES, extrinsics=ext)
        tof.raw_frames_to_container([raw for raw, _ in rendered]).write(tmp_path / f"{name}.tirf")
    ir_frame = render_ir(blob_scene, ir_intr, ext.inverse())
    thermal.thermal_frames_to_container([ir_frame]).write(tmp_path / "thermal.tirf")
    thermal.thermal_frames_to_container(
        [ThermalFrame(ir_frame.temperatures + k) for k in range(_RAW_FRAMES)]
    ).write(tmp_path / "thermal_seq.tirf")
    for name, doc in (("tof.json", tof_intr.to_json_dict()), ("ir.json", ir_intr.to_json_dict()),
                      ("ext.json", ext.to_json_dict())):
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


def _run_both(capsys, workspace, command, doc, reference):
    """The command through ``main`` and through its reference: artifacts and
    stdout of each."""
    (workspace / "cmd.json").write_text(json.dumps(doc))
    results = []
    for run, label in ((None, "streamed"), (reference, "reference")):
        argv = [command, "--config", str(workspace / "cmd.json"),
                "--output", str(workspace / label)]
        if run is None:
            assert cli.main(argv) == 0
        else:
            assert run(cli.build_parser().parse_args(argv)) == 0
        files = {p.name: p.read_bytes() for p in sorted((workspace / label).iterdir())}
        results.append((files, capsys.readouterr().out))
    return results


_LIMITS = {"a_min": 1e-3, "a_max": 1e3, "b_max": 1e3}


@pytest.mark.parametrize("thermal_file", ["thermal.tirf", "thermal_seq.tirf"])
def test_fuse_command_matches_eager_reference(cli_inputs, capsys, thermal_file):
    doc = {"raw": "raw.tirf", "thermal": thermal_file, "tof_intrinsics": "tof.json",
           "ir_intrinsics": "ir.json", "extrinsics": "ext.json", "limits": _LIMITS}
    (files, printed), (ref_files, ref_printed) = _run_both(
        capsys, cli_inputs, "fuse", doc, ref_cmd_fuse)
    assert sorted(files) == ["thermogram.tirf", "thermogram.txt"]
    assert files == ref_files
    assert printed == ref_printed and printed.count("valid=") == _RAW_FRAMES


@pytest.mark.parametrize("frames", [1, 5])
def test_simulate_command_matches_eager_reference(cli_inputs, capsys, frames):
    (cli_inputs / "scene.json").write_text(json.dumps({"primitives": [
        {"type": "plane", "axis": "z", "offset": 3.0, "reflectivity": 1.0, "temperature": 300.0},
        {"type": "sphere", "center": [0.0, 0.0, 1.0], "radius": 0.2, "reflectivity": 1.0,
         "temperature": 310.0},
    ]}))
    doc = {"scene": "scene.json", "tof_intrinsics": "tof.json", "ir_intrinsics": "ir.json",
           "extrinsics": "ext.json", "frames": frames, "ir_blur_sigma": 1.2,
           "noise": {"seed": 11, "bucket_noise_sigma": 0.5, "saturation_fraction": 0.02,
                     "multipath": {"enabled": True},
                     "scattering": {"enabled": True, "kernel_radius": 3}},
           "calibration_targets": {"points": [[0.2 * i, -0.1 * i, 1.5 + 0.3 * i]
                                              for i in range(-2, 3)],
                                   "pixel_noise_sigma": 0.1}}
    (files, printed), (ref_files, ref_printed) = _run_both(
        capsys, cli_inputs, "simulate", doc, ref_cmd_simulate)
    assert sorted(files) == ["extrinsics.truth.json", "observations.txt", "raw.tirf",
                             "raw.truth.tirf", "thermal.tirf"]
    assert files == ref_files
    assert printed.replace("streamed", "reference") == ref_printed
    assert f"simulated {frames} frame(s)" in printed
    truth = FrameContainer.read(cli_inputs / "streamed" / "raw.truth.tirf")
    assert truth.frames == frames and truth.channel("outlier", frames - 1).any()


@pytest.mark.parametrize("frames", [{"frames": "raw.tirf"}, {}], ids=["frames", "no-frames"])
def test_segment_command_matches_eager_reference(cli_inputs, capsys, frames):
    doc = {"background": "background.tirf", "tof_intrinsics": "tof.json", "k": 3.0,
           "sigma_floor": 0.002, "median_step": 0.02, "limits": _LIMITS, **frames}
    (files, printed), (ref_files, ref_printed) = _run_both(
        capsys, cli_inputs, "segment", doc, ref_cmd_segment)
    pbms = [f"mask_{i:04d}.pbm" for i in range(_RAW_FRAMES)]
    assert sorted(files) == sorted(["background.tirf", "masks.tirf"] + pbms)
    assert files == ref_files
    assert printed == ref_printed and printed.count("foreground pixels") == _RAW_FRAMES
    if frames:  # the sphere in front of the wall is foreground
        masks = FrameContainer.read(cli_inputs / "streamed" / "masks.tirf")
        assert masks.channel("foreground", 0).any()
