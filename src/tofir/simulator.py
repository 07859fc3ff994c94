"""Synthetic scene renderer: raw range-camera buckets and thermal images.

Scenes are built from axis-aligned planes and spheres, each with a
reflectivity and a surface temperature, so every rendered value is
hand-checkable. The range render casts one undistorted ray per pixel, finds
the nearest hit, and inverts the demodulation model: the return is a phasor
``a * exp(i * phase(D))`` with amplitude following an inverse-square law
``a = reflectivity * DEFAULT_AMPLITUDE_REF / D^2``.

Error injection, all off by default except phase noise:

* phase noise: Gaussian, sigma = scale / amplitude, applied to the final
  phasor angle (range noise grows as the return gets weaker);
* bucket noise: additive Gaussian per bucket, clipped at zero;
* saturation: a seeded fraction of pixels has all buckets forced to the
  saturation level (zero amplitude, huge offset), recorded in the outlier
  mask;
* multipath: one secondary return with a configurable extra path length and
  relative amplitude added to the direct phasor;
* scattering: the phasor image is convolved (periodic boundaries) with a
  kernel keeping ``1 - energy_fraction`` of the signal in place and spreading
  the rest over a disc, mimicking in-lens stray light.

Determinism: renders are pure functions of (scene, intrinsics, pose, config).
Each band of ``_NOISE_ROWS`` image rows draws its normals from a
counter-based Philox stream of its own, keyed by (seed, frame index, band)
through ``np.random.SeedSequence``; the saturated pixels are chosen from a
stream keyed by (seed, frame index). So frame k is reproducible in
isolation, and its blocks (:mod:`tofir.blocks`) can run on any thread.

Every random draw comes after in-lens scattering, so all of a range frame
up to its first draw depends on the scene, the intrinsics, the pose, the
multipath and scattering settings and the amplitude law alone: the trace,
the truth points and the noise-free return (amplitude, phase and offset
after multipath and scattering). That part is built once and kept, for the
last such combination only (a one-entry ``functools.lru_cache``), and every
frame of every later call with the same one starts from it. Seeds, noise
levels, frame indices and the extrinsics a ground truth carries do not take
part. The kept arrays are read-only, and each ground truth holds its range,
temperatures and points without a copy.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import document
from .blocks import run_blocks
from .calibration import TargetObservation
from .camera import lift, project_distorted, project_points, unit_rays
from .container import ChannelSchema
from .fusion import Extrinsics
from .thermal import IrIntrinsics, ThermalFrame
from .tof import RawTofFrame, TofIntrinsics, bucket_planes, phase_for_distance

logger = logging.getLogger(__name__)

DEFAULT_AMPLITUDE_REF = 90.0  # bucket units at 1 m for reflectivity 1
DEFAULT_OFFSET_REF = 30.0  # ambient-light floor added to every pixel
SATURATION_LEVEL = 4095.0  # full-scale bucket value for injected outliers

# sigma_phase = scale / amplitude; 0.264 rad gives ~1% range error at 3 m for
# the default amplitude law (amplitude 10 at 3 m, 21 MHz modulation)
DEFAULT_PHASE_NOISE_SCALE = 0.264

_AXES = {"x": 0, "y": 1, "z": 2}
_MISS = np.inf
_MIN_HIT = 1e-9
_DBL_EPSILON = np.finfo(np.float64).eps
_NOISE_ROWS = 32  # image rows per noise band, each drawn from a stream of its own


@dataclass(frozen=True)
class Plane:
    """Infinite axis-aligned wall: the set of points with coordinate
    ``axis`` equal to ``offset``."""

    axis: str
    offset: float
    reflectivity: float
    temperature: float

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"plane axis must be one of {sorted(_AXES)}, got {self.axis!r}")
        document.check("plane offset", self.offset)
        _check_surface(self.reflectivity, self.temperature)
        _store_floats(self, "offset", "reflectivity", "temperature")


@dataclass(frozen=True)
class Sphere:
    center: tuple[float, float, float]
    radius: float
    reflectivity: float
    temperature: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if len(self.center) != 3:
            raise ValueError(f"sphere center must have 3 coordinates, got {self.center}")
        document.check("sphere center", self.center)
        document.check("sphere radius", self.radius, "positive")
        _check_surface(self.reflectivity, self.temperature)
        _store_floats(self, "radius", "reflectivity", "temperature")


def _store_floats(settings, *names) -> None:
    """Store the named fields of a frozen ``settings`` object as floats.

    A rendered frame base is kept while the settings it came from compare
    equal; a numpy array given as a field could change in place and leave
    a stale base behind."""
    for name in names:
        object.__setattr__(settings, name, float(getattr(settings, name)))


def _check_surface(reflectivity, temperature):
    document.check("reflectivity", reflectivity, "in (0, 1]")
    document.check("surface temperature", temperature, "positive")


@dataclass(frozen=True)
class Scene:
    """Primitive list plus the far background every missed ray falls onto.

    The background behaves like a wall at ``background_distance`` along the
    optical axis with the ambient temperature.
    """

    primitives: tuple
    ambient_temperature: float = 293.0
    background_distance: float = 6.0
    background_reflectivity: float = 0.5

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not prims:
            raise ValueError("scene needs at least one primitive")
        for p in prims:
            if not isinstance(p, (Plane, Sphere)):
                raise ValueError(f"unsupported primitive {type(p).__name__}")
        document.check("ambient temperature", self.ambient_temperature, "positive")
        document.check("background distance", self.background_distance, "positive")
        document.check("background reflectivity", self.background_reflectivity, "in (0, 1]")
        object.__setattr__(self, "primitives", prims)
        _store_floats(self, "ambient_temperature", "background_distance",
                      "background_reflectivity")


@dataclass(frozen=True)
class MultipathConfig:
    """One indirect return: same target, ``extra_distance`` longer effective
    path, ``relative_amplitude`` of the direct amplitude."""

    enabled: bool = False
    extra_distance: float = 1.0  # meters of extra effective (half-path) range
    relative_amplitude: float = 0.2

    def __post_init__(self):
        document.check("relative_amplitude", self.relative_amplitude, "in [0, 1)")
        document.check("extra_distance", self.extra_distance, "non-negative")
        _store_floats(self, "extra_distance", "relative_amplitude")


@dataclass(frozen=True)
class ScatteringConfig:
    """In-camera stray light: a disc kernel carrying ``energy_fraction`` of
    each pixel's phasor, the rest staying in place."""

    enabled: bool = False
    kernel_radius: int = 4  # pixels
    energy_fraction: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "kernel_radius",
                           document.count("kernel_radius", self.kernel_radius, 1))
        document.check("energy_fraction", self.energy_fraction, "in [0, 1)")
        _store_floats(self, "energy_fraction")


@dataclass(frozen=True)
class NoiseConfig:
    seed: int = 0
    phase_noise_scale: float = DEFAULT_PHASE_NOISE_SCALE
    bucket_noise_sigma: float = 0.0
    saturation_fraction: float = 0.0
    multipath: MultipathConfig = field(default_factory=MultipathConfig)
    scattering: ScatteringConfig = field(default_factory=ScatteringConfig)

    def __post_init__(self):
        object.__setattr__(self, "seed", document.count("seed", self.seed, 0))
        document.check("phase_noise_scale", self.phase_noise_scale, "non-negative")
        document.check("bucket_noise_sigma", self.bucket_noise_sigma, "non-negative")
        # noise past full scale swamps every bucket, and near float max overflows them
        if self.bucket_noise_sigma > SATURATION_LEVEL:
            raise ValueError(f"bucket_noise_sigma must be at most SATURATION_LEVEL "
                             f"({SATURATION_LEVEL:g}), the full-scale bucket value, "
                             f"got {self.bucket_noise_sigma}")
        document.check("saturation_fraction", self.saturation_fraction, "in [0, 1]")

    @classmethod
    def quiet(cls, seed: int = 0) -> "NoiseConfig":
        """All error sources disabled; the pure model inversion."""
        return cls(seed=seed, phase_noise_scale=0.0)


@dataclass(frozen=True)
class GroundTruth:
    """What the renderer knew: exact ranges, exact surface temperatures per
    range pixel (the reference thermogram), injected outliers, and the
    extrinsics used by the enclosing scenario (when any)."""

    range: np.ndarray  # (height, width) meters
    points: np.ndarray  # (height, width, 3) range-camera frame
    temperature: np.ndarray  # (height, width) kelvin of the hit surface
    outlier_mask: np.ndarray  # (height, width) bool, injected saturation
    extrinsics: Extrinsics | None = None

    def __post_init__(self):
        TRUTH_SCHEMA.coerce(self)


# the extrinsics are not stored; raw.truth.tirf sits beside extrinsics.truth.json
TRUTH_SCHEMA = ChannelSchema(
    GroundTruth,
    {
        "range": ("range",),
        "points": ("x", "y", "z"),
        "temperature": ("temperature",),
        "outlier_mask": ("outlier",),
    },
    integral={"outlier_mask": (0, 1)},
    dtypes={"outlier_mask": bool},
)


@dataclass(frozen=True)
class CalibrationTarget:
    """Point target with a temperature contrast making it visible to both
    cameras (position in the range-camera frame)."""

    position: tuple[float, float, float]
    temperature: float = 330.0

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        if len(self.position) != 3:
            raise ValueError(f"target position must have 3 coordinates, got {self.position}")
        document.check("target position", self.position)
        document.check("target temperature", self.temperature, "positive")


# --- ray casting ----------------------------------------------------------------

def _intersect_plane(origin, rays, axis_index, offset):
    d = rays[..., axis_index]
    o = origin[axis_index]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(np.abs(d) > 1e-15, (offset - o) / d, _MISS)
    return np.where(t > _MIN_HIT, t, _MISS)


def _intersect_sphere(origin, rays, center, radius):
    oc = origin - np.asarray(center, dtype=np.float64)
    b = np.einsum("...k,k->...", rays, oc)
    c = float(oc @ oc) - radius * radius
    disc = b * b - c
    with np.errstate(invalid="ignore"):
        sq = np.sqrt(np.maximum(disc, 0.0))
    near = -b - sq
    far = -b + sq
    t = np.where(near > _MIN_HIT, near, far)
    return np.where((disc >= 0) & (t > _MIN_HIT), t, _MISS)


def _trace(scene: Scene, rays_camera: np.ndarray, pose: Extrinsics):
    """Nearest hit per ray, traced a block of rows at a time
    (:mod:`tofir.blocks`): the distance, reflectivity and temperature planes.

    The planes are returned read-only: the range and the temperatures are
    kept in a frame base, whose ground truths hold them without a copy.
    """
    height, width = rays_camera.shape[:2]
    planes = tuple(np.empty((height, width)) for _ in range(3))

    def trace(first, stop):
        rays_world = rays_camera[first:stop] @ pose.rotation.T
        origin = pose.translation
        best_t = np.full(rays_world.shape[:-1], _MISS)
        reflectivity = np.full_like(best_t, scene.background_reflectivity)
        temperature = np.full_like(best_t, scene.ambient_temperature)
        for prim in scene.primitives:
            if isinstance(prim, Plane):
                t = _intersect_plane(origin, rays_world, _AXES[prim.axis], prim.offset)
            else:
                t = _intersect_sphere(origin, rays_world, prim.center, prim.radius)
            closer = t < best_t
            best_t = np.where(closer, t, best_t)
            reflectivity = np.where(closer, prim.reflectivity, reflectivity)
            temperature = np.where(closer, prim.temperature, temperature)
        missed = np.isinf(best_t)
        if np.any(missed):
            t_bg = _intersect_plane(origin, rays_world, 2, scene.background_distance)
            # rays parallel to the background plane fall back to the radial distance
            t_bg = np.where(np.isinf(t_bg), scene.background_distance, t_bg)
            best_t = np.where(missed, t_bg, best_t)
        for plane, traced in zip(planes, (best_t, reflectivity, temperature)):
            plane[first:stop] = traced

    run_blocks(height, trace, width)
    for plane in planes:
        plane.flags.writeable = False
    return planes


# --- range-camera rendering -----------------------------------------------------

def _scatter_kernel(config: ScatteringConfig) -> np.ndarray:
    r = config.kernel_radius
    axis = np.arange(-r, r + 1)
    dx, dy = np.meshgrid(axis, axis)
    disc = dx * dx + dy * dy <= r * r
    kernel = np.zeros(disc.shape)
    kernel[disc] = config.energy_fraction / disc.sum()
    kernel[r, r] += 1.0 - config.energy_fraction
    return kernel


def _convolve_wrap(planes, kernel: np.ndarray) -> np.ndarray:
    """Each plane convolved with an odd-sized ``kernel`` over periodic
    boundaries, as a (len(planes), H, W) array.

    Bit for bit ``scipy.ndimage.convolve(plane, kernel, mode="wrap")``: the
    flipped kernel's taps are taken in C order, each added as ``plane * w``
    to a sum that starts at 0.0, and a tap with ``|w| <= DBL_EPSILON`` is
    skipped, as ndimage's footprint skips it. ``planes`` may be a (n, H, W)
    array, which is not copied. The planes are padded once; each block of rows
    (:mod:`tofir.blocks`) multiplies them by each distinct weight once, into
    scratch of its own, the same float ``plane * w`` would give, and takes the
    rows flat: tap (u, v) adds the one contiguous window that starts at padded
    row u, column v. Each row of the sum then runs past column W into the next
    padded row; those columns are summed but never copied out, and the last
    row stops at column W, so no window reaches past the product.
    """
    stack = np.asarray(planes)
    n, height, width = stack.shape
    ry, rx = kernel.shape[0] // 2, kernel.shape[1] // 2
    padded = np.pad(stack, ((0, 0), (ry, ry), (rx, rx)), mode="wrap")
    span = width + 2 * rx  # padded row length
    flat = padded.reshape(n, -1)
    taps = [(u, v, w) for (u, v), w in np.ndenumerate(kernel[::-1, ::-1])
            if abs(w) > _DBL_EPSILON]
    weights = list(dict.fromkeys(w for _, _, w in taps))  # the scattering disc has two
    taps = [(u * span + v, weights.index(w)) for u, v, w in taps]
    out = np.empty((n, height, width))

    def convolve(top, stop):
        rows = stop - top
        size = (rows + 2 * ry) * span
        products = np.empty((len(weights), n, size))
        for product, w in zip(products, weights):
            np.multiply(flat[:, top * span:top * span + size], w, out=product)
        total = np.zeros((n, rows * span))
        summed = total[:, :(rows - 1) * span + width]
        length = summed.shape[1]
        for start, i in taps:
            summed += products[i, :, start:start + length]
        out[:, top:stop] = total.reshape(n, rows, span)[:, :, :width]

    run_blocks(height, convolve, width)
    return out


def _direct_return(dist: np.ndarray, reflectivity: np.ndarray, intr: TofIntrinsics,
                   multipath: MultipathConfig, amplitude_law: str):
    """Phasor and offset of a block of rows, before in-lens scattering."""
    # the "constant" law: distance-independent radiometry, for controlled phase experiments
    amplitude = reflectivity * DEFAULT_AMPLITUDE_REF
    if amplitude_law == "inverse_square":
        amplitude = amplitude / (dist * dist)
    phasor = amplitude * np.exp(1j * phase_for_distance(dist, intr.f_mod))
    offset = DEFAULT_OFFSET_REF + amplitude
    if multipath.enabled:
        secondary = multipath.relative_amplitude * amplitude
        phasor = phasor + secondary * np.exp(
            1j * phase_for_distance(dist + multipath.extra_distance, intr.f_mod)
        )
        offset = offset + secondary
    return phasor, offset


@dataclass(frozen=True)
class _FrameBase:
    """What every range frame of one scene, camera, pose and return model
    shares: all a frame computes before its first random draw. Every array
    is read-only."""

    distance: np.ndarray  # (H, W) traced range
    temperature: np.ndarray  # (H, W) temperature of the hit surface
    points: np.ndarray  # (H, W, 3) truth points, distance times unit ray
    amplitude: np.ndarray  # (H, W) noise-free return after multipath and scattering
    phase: np.ndarray  # (H, W) its angle, in [-pi, pi]
    offset: np.ndarray  # (H, W) its offset


@functools.lru_cache(maxsize=1)
def _frame_base(scene: Scene, intr: TofIntrinsics, pose: Extrinsics | None,
                multipath: MultipathConfig, scattering: ScatteringConfig,
                amplitude_law: str) -> _FrameBase:
    """Trace the scene and form its noise-free return, a block of rows at a
    time; the last base built is kept, and a call with equal arguments
    takes it. The pose is equal when its arrays hold the same bytes.

    With scattering, the direct return's planes (real part, imaginary part,
    offset) are convolved whole and then turned, in place, into amplitude,
    phase and offset; without, the phasor is turned at once.
    """
    rays = unit_rays(intr)
    distance, reflectivity, temperature = _trace(scene, rays, pose or Extrinsics.identity())
    height, width = distance.shape
    returns = np.empty((3, height, width))

    def direct(first, stop):
        rows = slice(first, stop)
        phasor, returns[2, rows] = _direct_return(distance[rows], reflectivity[rows], intr,
                                                  multipath, amplitude_law)
        if scattering.enabled:
            returns[0, rows], returns[1, rows] = phasor.real, phasor.imag
        else:
            returns[0, rows], returns[1, rows] = np.abs(phasor), np.angle(phasor)

    def polar(first, stop):
        rows = slice(first, stop)
        phasor = scattered[0, rows] + 1j * scattered[1, rows]
        scattered[0, rows], scattered[1, rows] = np.abs(phasor), np.angle(phasor)

    run_blocks(height, direct, width)
    if scattering.enabled:
        returns = scattered = _convolve_wrap(returns, _scatter_kernel(scattering))
        run_blocks(height, polar, width)
    points = distance[..., None] * rays
    for array in (returns, points):
        array.flags.writeable = False
    return _FrameBase(distance, temperature, points, *returns)


def _noise_stream(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of ``seed`` under ``key``: (frame index, band) for a
    band's normals, (frame index,) for the saturated pixels."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _buckets(base: _FrameBase, noise: NoiseConfig, frame_index: int) -> np.ndarray:
    """A frame's (H, W, 4) buckets before saturation, built from the
    noise-free return a noise band at a time, the bands spread over a thread
    per CPU (:mod:`tofir.blocks`).

    Each band draws its phase normals, then its bucket normals, each in C
    order, from its own stream (:func:`_noise_stream`), so every pixel is
    the same bytes at any thread count and block size."""
    height, width = base.distance.shape
    buckets = np.empty((height, width, 4))

    def bands(first, stop):
        for band in range(first, stop):
            rows = slice(band * _NOISE_ROWS, (band + 1) * _NOISE_ROWS)
            rng = _noise_stream(noise.seed, frame_index, band)
            amplitude = base.amplitude[rows]
            phase = base.phase[rows]
            if noise.phase_noise_scale > 0:
                sigma = noise.phase_noise_scale / np.maximum(amplitude, 1e-12)
                phase = phase + sigma * rng.standard_normal(phase.shape)
            if noise.bucket_noise_sigma > 0:
                rng.standard_normal(out=buckets[rows])  # overwritten by the buckets
            # one bucket plane at a time into the output, so a thread's
            # temporaries stay a few planes of its band
            for k, plane in enumerate(bucket_planes(phase, amplitude, base.offset[rows])):
                out = buckets[rows, :, k]
                if noise.bucket_noise_sigma > 0:  # max(plane + sigma * draw, 0)
                    out *= noise.bucket_noise_sigma
                    out += plane
                    np.maximum(out, 0.0, out=out)
                else:
                    out[...] = plane

    run_blocks(-(-height // _NOISE_ROWS), bands, _NOISE_ROWS * width)
    return buckets


def _render_frame(base: _FrameBase, noise: NoiseConfig, frame_index: int,
                  extrinsics: Extrinsics | None) -> tuple[RawTofFrame, GroundTruth]:
    buckets = _buckets(base, noise, frame_index)
    outliers = np.zeros(base.distance.shape, dtype=bool)
    n_sat = int(round(noise.saturation_fraction * outliers.size))
    if n_sat:
        chosen = _noise_stream(noise.seed, frame_index).choice(outliers.size, size=n_sat,
                                                               replace=False)
        buckets.reshape(-1, 4)[chosen] = SATURATION_LEVEL
        outliers.reshape(-1)[chosen] = True

    truth = GroundTruth(
        range=base.distance,
        points=base.points,
        temperature=base.temperature,
        outlier_mask=outliers,
        extrinsics=extrinsics,
    )
    return RawTofFrame(buckets), truth


def render_tof(
    scene: Scene,
    intr: TofIntrinsics,
    pose: Extrinsics | None = None,
    noise: NoiseConfig | None = None,
    *,
    frame_index: int = 0,
    extrinsics: Extrinsics | None = None,
    amplitude_law: str = "inverse_square",
) -> tuple[RawTofFrame, GroundTruth]:
    """Render one raw range-camera frame plus its ground truth.

    ``pose`` maps camera coordinates to scene coordinates (identity by
    default). ``frame_index``, a whole number >= 0, advances the noise
    stream without touching the seed, so a frame of a sequence can be
    reproduced on its own. ``amplitude_law`` selects the return-strength
    model: "inverse_square" (physical default) or "constant" (return
    strength independent of distance, which makes pure phase effects such
    as wrap-around visible in the buckets without radiometric differences).

    The scene is traced and its noise-free return formed only when the last
    render was of another scene, camera, pose, multipath or scattering
    setting or amplitude law (see the module docstring). The ground truth's
    range, temperatures and points are the kept read-only arrays, shared
    with every frame made from them; its outlier mask is its own.

    An enabled scattering kernel whose radius is more than the larger side
    of the image raises ``ValueError`` (:func:`_check_kernel_radius`).
    """
    noise = noise or NoiseConfig()
    frame_index = document.count("frame_index", frame_index, 0)
    if amplitude_law not in ("inverse_square", "constant"):
        raise ValueError(f"unknown amplitude law {amplitude_law!r}")
    if noise.scattering.enabled:
        radius = noise.scattering.kernel_radius
        _check_kernel_radius(f"kernel_radius {radius}", radius, intr)
    base = _frame_base(scene, intr, pose, noise.multipath, noise.scattering, amplitude_law)
    return _render_frame(base, noise, frame_index, extrinsics)


def render_tof_sequence(
    scene: Scene,
    intr: TofIntrinsics,
    pose: Extrinsics | None,
    noise: NoiseConfig,
    n_frames: int,
    *,
    extrinsics: Extrinsics | None = None,
    amplitude_law: str = "inverse_square",
) -> list[tuple[RawTofFrame, GroundTruth]]:
    """Render ``n_frames`` (a whole number >= 1) with shared geometry and
    per-frame noise streams: frame k is :func:`render_tof` with
    ``frame_index=k``."""
    n_frames = document.count("n_frames", n_frames, 1)
    return [render_tof(scene, intr, pose, noise, frame_index=k, extrinsics=extrinsics,
                       amplitude_law=amplitude_law) for k in range(n_frames)]


def render_ir(
    scene: Scene,
    intr: IrIntrinsics,
    pose: Extrinsics | None = None,
    *,
    blur_sigma: float = 0.0,
) -> ThermalFrame:
    """Render the thermal image: surface temperature of the nearest hit per
    pixel, ambient where every primitive is missed.

    ``blur_sigma`` > 0 applies a truncated Gaussian point-spread (radius
    4 sigma, reflected boundaries). Zero means exactly no blur. A sigma whose
    radius ``4 sigma + 0.5`` is more than the larger side of the image
    raises ``ValueError`` (:func:`_check_kernel_radius`).
    """
    document.check("blur_sigma", blur_sigma, "non-negative")
    _check_kernel_radius(f"blur_sigma {blur_sigma:g}", 4.0 * float(blur_sigma) + 0.5, intr)
    temps = _trace(scene, unit_rays(intr), pose or Extrinsics.identity())[2]
    return ThermalFrame(_gaussian_blur(temps, blur_sigma))


def _check_kernel_radius(what: str, radius: float, intr) -> None:
    """Raise ``ValueError`` unless a kernel ``radius`` in pixels, a float
    that may be inf, is at most the larger side of ``intr``'s image: a wider
    kernel reaches past the whole frame both ways, and its taps, time and
    memory grow with the square of the radius."""
    side = max(intr.width, intr.height)
    if not radius <= side:
        raise ValueError(f"{what}: a kernel radius of {radius:g} pixels is more than the "
                         f"{intr.width}x{intr.height} image's larger side, {side}")


def _gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """``image`` blurred by a Gaussian truncated at radius ``int(4 sigma +
    0.5)``, with reflected boundaries (the edge pixel repeated).

    Bit for bit ``scipy.ndimage.gaussian_filter(image, sigma, mode="reflect")``:
    scipy's weights ``exp(-0.5 / sigma^2 * x^2)``, normalised, one pass per
    axis, axis 0 first, each on a ``np.pad(mode="symmetric")`` copy and summed
    in scipy's symmetric order, ``w_0 a[i]`` and then ``+ (a[i-j] + a[i+j])
    w_j`` for j = r..1.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    if radius == 0:  # a single tap of weight 1, sigma 0 included
        return image
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (weights / weights.sum())[radius:]
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.moveaxis(np.pad(image, pad, mode="symmetric"), axis, 0)
        n = image.shape[axis]
        out = padded[radius:radius + n] * weights[0]
        for j in range(radius, 0, -1):
            pair = padded[radius - j:radius - j + n] + padded[radius + j:radius + j + n]
            out += pair * weights[j]
        image = np.moveaxis(out, 0, axis)
    return image


# --- calibration data generation -------------------------------------------------

def make_calibration_set(
    targets: Sequence[CalibrationTarget],
    true_extrinsics: Extrinsics,
    tof_intr: TofIntrinsics,
    ir_intr: IrIntrinsics,
    pixel_noise_sigma: float = 0.0,
    *,
    seed: int = 0,
) -> list[TargetObservation]:
    """Project targets into both sensors and emit calibration observations.

    The known distance is the exact point norm and the range-camera position
    is exact. ``pixel_noise_sigma`` perturbs the measured IR position (the
    quantity a real pipeline extracts from the image). Targets behind either
    camera or outside either sensor are dropped, and so is a target whose
    range pixel, lifted by :func:`~tofir.camera.lift` to its distance,
    lands more than 1e-9 of that distance off it (a point past the
    radius a barrel lens can invert); the count is logged as a warning.
    """
    document.check("pixel_noise_sigma", pixel_noise_sigma, "non-negative")
    rng = np.random.Generator(np.random.Philox(seed))
    positions = np.array([t.position for t in targets], dtype=np.float64).reshape(-1, 3)
    distances = np.linalg.norm(positions, axis=1)
    tof_pix, tof_front = project_distorted(positions, tof_intr)
    ir_pix, ir_front = project_points(true_extrinsics.apply(positions), ir_intr)
    with np.errstate(invalid="ignore", over="ignore"):
        lifted = lift(tof_intr, tof_pix[:, 0], tof_pix[:, 1], distances)
        on_ray = np.linalg.norm(lifted - positions, axis=1) <= 1e-9 * distances
    usable = (tof_front & ir_front & on_ray & tof_intr.on_sensor(tof_pix)
              & ir_intr.on_sensor(ir_pix))
    dropped = int(np.count_nonzero(~usable))
    if dropped:
        logger.warning("dropped %d of %d calibration targets (behind a camera, off-sensor or "
                       "past the range lens's invertible radius)", dropped, len(targets))

    observations = []
    for i in np.flatnonzero(usable):
        u, v = tof_pix[i]
        r, s = ir_pix[i]
        if pixel_noise_sigma > 0:
            r += pixel_noise_sigma * rng.standard_normal()
            s += pixel_noise_sigma * rng.standard_normal()
        observations.append(TargetObservation(float(u), float(v), float(distances[i]), float(r), float(s)))
    return observations


# --- JSON documents ----------------------------------------------------------------

def scene_from_json(doc: dict) -> Scene:
    """Build a scene from its JSON document, naming the offending field on error."""
    settings = document.read(doc, "scene", ambient_temperature=document.number,
                             background_distance=document.number,
                             background_reflectivity=document.number)
    raw_prims = doc.get("primitives")
    if not isinstance(raw_prims, list) or not raw_prims:
        raise ValueError("scene field 'primitives' must be a non-empty array")
    prims = tuple(_primitive_from_json(p, f"scene primitive {i}") for i, p in enumerate(raw_prims))
    return _build(Scene, "scene", prims, **settings)


_PRIMITIVE_FIELDS = {
    "plane": (Plane, dict(axis=str, offset=document.number, reflectivity=document.number,
                          temperature=document.number)),
    "sphere": (Sphere, dict(center=document.triple, radius=document.number,
                            reflectivity=document.number, temperature=document.number)),
}


def _primitive_from_json(doc, where: str):
    kind = document.read(doc, where, type=str).get("type")
    if kind not in _PRIMITIVE_FIELDS:
        raise ValueError(f"{where}: unknown type {kind!r}")
    cls, convert = _PRIMITIVE_FIELDS[kind]
    return _build(cls, where, **document.read(doc, where, **convert))


def _build(cls, where: str, *args, **kwargs):
    # a missing field or a value the class rejects, reported with its document
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _part(cls, where: str, **convert):
    """Converter for a nested settings object."""
    return lambda doc: _build(cls, where, **document.read(doc, where, **convert))


def noise_from_json(doc: dict) -> NoiseConfig:
    """Build the error model from its JSON document; absent keys keep the
    dataclass defaults."""
    settings = document.read(
        doc, "noise",
        seed=document.whole,
        phase_noise_scale=document.number,
        bucket_noise_sigma=document.number,
        saturation_fraction=document.number,
        multipath=_part(MultipathConfig, "multipath", enabled=document.flag,
                        extra_distance=document.number,
                        relative_amplitude=document.number),
        scattering=_part(ScatteringConfig, "scattering", enabled=document.flag,
                         kernel_radius=document.whole, energy_fraction=document.number),
    )
    return _build(NoiseConfig, "noise", **settings)
