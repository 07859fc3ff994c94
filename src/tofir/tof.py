"""Time-of-flight range camera model.

The sensor emits near-infrared light modulated at ``f_mod`` and samples the
reflected signal four times per modulation period (buckets A1..A4). Phase,
amplitude and offset of the return follow from the buckets:

    phase     = atan2(A1 - A3, A2 - A4), mapped into [0, 2*pi)
    amplitude = sqrt((A1 - A3)^2 + (A2 - A4)^2) / 2
    offset    = (A1 + A2 + A3 + A4) / 4
    distance  = c * phase / (4 * pi * f_mod)

Distances wrap at ``c / (2 * f_mod)``; scenes are assumed to lie inside that
range and out-of-range geometry aliases back in (wrap-around is documented,
not detected).

Pinhole geometry, lens distortion and the package's image conventions live in
:mod:`tofir.camera`.

:func:`demodulate` and :func:`backproject` fill preallocated outputs a block
of about 16384 pixels at a time, the blocks spread over a thread per CPU
(:mod:`tofir.blocks`). Each pixel is computed alone, so the outputs are the
same bytes at any thread count; a frame of one block runs on the calling
thread.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .blocks import run_blocks
from .camera import Pinhole, undistort_pixel, unit_rays
from .container import ChannelSchema
from .document import check

SPEED_OF_LIGHT = 299_792_458.0  # m/s, in air

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TofIntrinsics(Pinhole):
    """Pinhole + radial distortion model of the range camera, modulated at
    ``f_mod``; see :class:`tofir.camera.Pinhole` for the shared parameters."""

    k1: float = 0.0
    k2: float = 0.0
    f_mod: float = 21e6

    def __post_init__(self):
        super().__post_init__()
        check("k1", self.k1)
        check("k2", self.k2)
        check("f_mod", self.f_mod, "positive")

    def undistort(self, u_d, v_d):
        return undistort_pixel(u_d, v_d, self.k1, self.k2)


@dataclass(frozen=True)
class RawTofFrame:
    """Raw sensor output: four intensity buckets per pixel.

    ``samples`` has shape (height, width, 4) holding (A1, A2, A3, A4).
    """

    samples: np.ndarray

    def __post_init__(self):
        RAW_SCHEMA.coerce(self)
        if np.fmin.reduce(self.samples, axis=None) < 0:  # NaN buckets are ignored
            raise ValueError("bucket intensities must be non-negative")

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]


RAW_SCHEMA = ChannelSchema(RawTofFrame, {"samples": ("a1", "a2", "a3", "a4")})
raw_frames_to_container = RAW_SCHEMA.pack
raw_frames_from_container = RAW_SCHEMA.unpack


@dataclass(frozen=True)
class RangeFrame:
    """Demodulated frame: per-pixel distance, amplitude, offset, validity."""

    distance: np.ndarray
    amplitude: np.ndarray
    offset: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        _RANGE_PLANES.coerce(self)

    @property
    def height(self) -> int:
        return self.distance.shape[0]

    @property
    def width(self) -> int:
        return self.distance.shape[1]


# never stored: the schema declares the planes and checks them
_RANGE_PLANES = ChannelSchema(
    RangeFrame,
    {"distance": ("distance",), "amplitude": ("amplitude",), "offset": ("offset",),
     "valid": ("valid",)},
    dtypes={"valid": bool},
)


def unambiguous_range(f_mod: float) -> float:
    """Largest distance measurable before the phase wraps: c / (2 * f_mod)."""
    check("modulation frequency", f_mod, "positive")
    return SPEED_OF_LIGHT / (2.0 * f_mod)


def _check_exposure_limits(a_min: float, a_max: float, b_max: float) -> None:
    if not (a_min >= 0 and a_max >= 0 and b_max >= 0):  # NaN fails too
        raise ValueError("exposure thresholds must be non-negative")
    if not a_min < a_max:
        raise ValueError(f"a_min ({a_min}) must be below a_max ({a_max})")


def demodulate(
    raw: RawTofFrame,
    intr: TofIntrinsics,
    *,
    a_min: float = 0.0,
    a_max: float = math.inf,
    b_max: float = math.inf,
) -> RangeFrame:
    """Recover distance, amplitude and offset from the four buckets.

    The amplitude is ``sqrt((A1 - A3)**2 + (A2 - A4)**2) / 2``, squared and
    summed in float64: bucket differences above ~1e154 overflow it to inf,
    and differences both below ~1e-162 underflow it to zero (below ~1e-154
    the squares are subnormal and lose precision). Buckets read from a
    float32 container reach neither end.

    Pixels with zero amplitude (A1 == A3 and A2 == A4) carry no phase
    information and are marked invalid rather than raising, as are pixels
    with a NaN or infinite bucket or a non-finite amplitude (without a
    RuntimeWarning). The optional exposure thresholds also mark invalid
    every under- or overexposed pixel: amplitude below ``a_min`` or above
    ``a_max``, or offset above ``b_max``.

    The four planes are filled a block of rows at a time, the blocks spread
    over a thread per CPU (:mod:`tofir.blocks`); each pixel gets the same
    bytes at any thread count.
    """
    intr.check_frame("raw frame", raw)
    _check_exposure_limits(a_min, a_max, b_max)
    shape = (raw.height, raw.width)
    frame = RangeFrame(np.empty(shape), np.empty(shape), np.empty(shape),
                       np.empty(shape, dtype=bool))
    limits = (a_min, a_max, b_max)
    run_blocks(raw.height, lambda start, stop: _demodulate_rows(
        raw, intr.f_mod, limits, frame, slice(start, stop)), raw.width)
    return frame


# two inf buckets of one pair make inf - inf NaN, and a bucket difference
# past ~1e154 squares to inf: each such pixel is marked invalid, silently
@np.errstate(over="ignore", invalid="ignore")
def _demodulate_rows(raw: RawTofFrame, f_mod: float, limits, frame: RangeFrame,
                     rows: slice) -> None:
    """Demodulate the ``rows`` of ``raw`` into those of ``frame``."""
    samples = raw.samples[rows]
    s0, s1, s2, s3 = (samples[..., k] for k in range(4))
    # the two differences live in the amplitude and offset planes until
    # those are computed, so a block makes no float temporaries of its own
    d13 = np.subtract(s0, s2, out=frame.amplitude[rows])
    d24 = np.subtract(s1, s3, out=frame.offset[rows])
    phase = np.arctan2(d13, d24, out=frame.distance[rows])
    # np.mod(phase, 2*pi) in place: negative angles gain 2*pi, the rest gain
    # +0.0, which turns -0.0 into +0.0 as np.mod does
    phase += (phase < 0.0) * _TWO_PI
    # adding 2*pi can round a tiny negative angle up to exactly 2*pi
    phase[phase >= _TWO_PI] = 0.0
    # the docstring's sqrt(d13^2 + d24^2) / 2, squared in place: a square
    # that overflows makes the amplitude inf, which the upper test below
    # flags, and squares that both underflow make it zero
    np.multiply(d13, d13, out=d13)
    np.multiply(d24, d24, out=d24)
    d13 += d24
    amplitude = np.sqrt(d13, out=d13)
    amplitude /= 2.0
    offset = np.add(s0, s1, out=d24)
    offset += s2
    offset += s3
    offset /= 4.0
    distance = np.multiply(phase, SPEED_OF_LIGHT, out=phase)
    distance /= 4.0 * math.pi * f_mod
    # valid: an amplitude in (0, float max], a finite offset (buckets are
    # non-negative, so a NaN or inf bucket makes it non-finite) and no
    # exposure flag: amplitude < a_min, amplitude > a_max or offset > b_max.
    # A positive a_min implies the amplitude's lower end, a finite b_max the
    # finite offset, and a_min or b_max at its default flags nothing more
    a_min, a_max, b_max = limits
    valid = frame.valid[rows]
    if a_min > 0.0:
        np.greater_equal(amplitude, a_min, out=valid)
    else:
        np.greater(amplitude, 0.0, out=valid)
    valid &= amplitude <= min(a_max, sys.float_info.max)
    if b_max < math.inf:
        valid &= offset <= b_max
    else:
        valid &= np.isfinite(offset)


def synthesize_buckets(phase, amplitude, offset) -> np.ndarray:
    """Inverse of demodulation: four buckets from (phase, amplitude, offset).

    Convention: A1 = b + a*sin(phi), A2 = b + a*cos(phi), A3 = b - a*sin(phi),
    A4 = b - a*cos(phi), which makes the demodulation formulas exact. Buckets
    are physical (non-negative) whenever offset >= amplitude.
    """
    phase = np.asarray(phase, dtype=np.float64)
    amplitude = np.asarray(amplitude, dtype=np.float64)
    offset = np.asarray(offset, dtype=np.float64)
    return np.stack(list(bucket_planes(phase, amplitude, offset)), axis=-1)


def bucket_planes(phase: np.ndarray, amplitude: np.ndarray, offset: np.ndarray):
    """:func:`synthesize_buckets`' four buckets A1..A4 from float64 arrays,
    yielded one plane at a time, so a caller can consume each before the
    next is made."""
    sin_part = amplitude * np.sin(phase)
    cos_part = amplitude * np.cos(phase)
    yield offset + sin_part
    yield offset + cos_part
    yield offset - sin_part
    yield offset - cos_part


def phase_for_distance(distance, f_mod: float):
    """Modulation phase for a distance, wrapped into [0, 2*pi).

    The wrap uses ``fmod``, which is exact in IEEE arithmetic: two distances
    that differ by exactly the unambiguous range map to bit-identical phases
    and therefore bit-identical buckets.
    """
    period = unambiguous_range(f_mod)
    wrapped = np.fmod(np.asarray(distance, dtype=np.float64), period)
    return _TWO_PI * wrapped / period


def backproject(frame: RangeFrame, intr: TofIntrinsics) -> np.ndarray:
    """Lift a range frame to metric 3D points along the undistorted view rays.

    Returns the float64 (height, width, 3) point grid: each valid pixel
    yields (X, Y, Z) = D / d * (u, v, f) with d = sqrt(f^2 + u^2 + v^2), so
    the point norm equals the measured distance, and each invalid pixel
    yields +0.0 in all three, preserving the grid. The points are filled a
    block at a time, the blocks spread over a thread per CPU
    (:mod:`tofir.blocks`).
    """
    intr.check_frame("range frame", frame)
    rays = unit_rays(intr).reshape(-1, 3)
    distance = frame.distance.reshape(-1)
    valid = frame.valid.reshape(-1)
    points = np.empty(rays.shape)

    def lift(start, stop):
        block = points[start:stop]
        for axis in range(3):  # D * ray, one long loop per axis
            np.multiply(distance[start:stop], rays[start:stop, axis], out=block[:, axis])
        block[~valid[start:stop]] = 0.0

    run_blocks(len(points), lift)
    return points.reshape(frame.height, frame.width, 3)
