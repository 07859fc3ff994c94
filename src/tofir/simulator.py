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
The bit stream is a counter-based Philox generator keyed by the seed and
jumped per frame index, so frame k is reproducible in isolation.

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
from typing import Iterator, Sequence

import numpy as np

from . import document
from .blocks import run_blocks
from .calibration import TargetObservation
from .camera import project_distorted, project_points, unit_rays
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
_BAND_ROWS = 32  # image rows per band of the trace, the render and the convolution


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


def _count(name: str, value, least: int) -> int:
    """``value`` as an exact ``int`` of at least ``least``; numpy integers and
    integral floats pass, fractions and booleans raise ``ValueError`` naming
    ``name``."""
    try:
        value = document.whole(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _check_surface(reflectivity, temperature):
    if not 0 < reflectivity <= 1:
        raise ValueError(f"reflectivity must be in (0, 1], got {reflectivity}")
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
        if not 0 < self.background_reflectivity <= 1:
            raise ValueError(
                f"background reflectivity must be in (0, 1], got {self.background_reflectivity}"
            )
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
        if not 0 <= self.relative_amplitude < 1:
            raise ValueError(
                f"relative_amplitude must be in [0, 1), got {self.relative_amplitude}"
            )
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
        object.__setattr__(self, "kernel_radius", _count("kernel_radius", self.kernel_radius, 1))
        if not 0 <= self.energy_fraction < 1:
            raise ValueError(f"energy_fraction must be in [0, 1), got {self.energy_fraction}")
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
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        document.check("phase_noise_scale", self.phase_noise_scale, "non-negative")
        document.check("bucket_noise_sigma", self.bucket_noise_sigma, "non-negative")
        if not 0 <= self.saturation_fraction <= 1:
            raise ValueError(
                f"saturation_fraction must be in [0, 1], got {self.saturation_fraction}"
            )

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
        for name in ("range", "points", "temperature"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "outlier_mask", np.asarray(self.outlier_mask, dtype=bool))


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


@dataclass(frozen=True)
class _SceneResponse:
    distance: np.ndarray
    reflectivity: np.ndarray
    temperature: np.ndarray


def _bands(height: int) -> Iterator[slice]:
    for top in range(0, height, _BAND_ROWS):
        yield slice(top, top + _BAND_ROWS)


def _trace(scene: Scene, rays_camera: np.ndarray, pose: Extrinsics) -> _SceneResponse:
    """Nearest hit per ray, traced a band of rows at a time.

    The three per-pixel arrays are returned read-only: the range and the
    temperatures are kept in a frame base, whose ground truths hold them
    without a copy.
    """
    distance = np.empty(rays_camera.shape[:-1])
    reflectivity = np.empty_like(distance)
    temperature = np.empty_like(distance)
    for band in _bands(distance.shape[0]):
        distance[band], reflectivity[band], temperature[band] = _trace_band(
            scene, rays_camera[band], pose)
    for array in (distance, reflectivity, temperature):
        array.flags.writeable = False
    return _SceneResponse(distance, reflectivity, temperature)


def _trace_band(scene: Scene, rays_camera: np.ndarray, pose: Extrinsics):
    rays_world = rays_camera @ pose.rotation.T
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
    return best_t, reflectivity, temperature


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
    array, which is not copied. The planes are padded once and summed a band
    of rows at a time. In a band, each distinct weight multiplies the padded
    rows once, the same float ``plane * w`` would give, and the rows are
    taken flat: tap (u, v) adds the one contiguous window that starts at
    padded row u, column v. Each row of the sum then runs past column W into
    the next padded row; those columns are summed but never copied out, and
    the last row stops at column W, so no window reaches past the product.
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
    products = np.empty((len(weights), n, (_BAND_ROWS + 2 * ry) * span))
    total = np.empty((n, _BAND_ROWS * span))
    for top in range(0, height, _BAND_ROWS):
        rows = min(_BAND_ROWS, height - top)
        size = (rows + 2 * ry) * span
        for product, w in zip(products, weights):
            np.multiply(flat[:, top * span:top * span + size], w, out=product[:, :size])
        summed = total[:, :(rows - 1) * span + width]
        summed.fill(0.0)
        length = summed.shape[1]
        for start, i in taps:
            summed += products[i, :, start:start + length]
        out[:, top:top + rows] = total[:, :rows * span].reshape(n, rows, span)[:, :, :width]
    return out


def _direct_return(resp: _SceneResponse, band: slice, intr: TofIntrinsics,
                   multipath: MultipathConfig, amplitude_law: str):
    """Phasor and offset of a band of rows, before in-lens scattering."""
    dist = resp.distance[band]
    # the "constant" law: distance-independent radiometry, for controlled phase experiments
    amplitude = resp.reflectivity[band] * DEFAULT_AMPLITUDE_REF
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
    """Trace the scene and form its noise-free return, a band of rows at a
    time; the last base built is kept, and a call with equal arguments
    takes it. The pose is equal when its arrays hold the same bytes.

    With scattering, the direct return's planes (real part, imaginary part,
    offset) are convolved whole and then turned, in place, into amplitude,
    phase and offset; without, the phasor is turned at once.
    """
    rays = unit_rays(intr)
    resp = _trace(scene, rays, pose or Extrinsics.identity())
    shape = resp.distance.shape
    returns = np.empty((3,) + shape)
    for band in _bands(shape[0]):
        phasor, returns[2, band] = _direct_return(resp, band, intr, multipath, amplitude_law)
        if scattering.enabled:
            returns[0, band], returns[1, band] = phasor.real, phasor.imag
        else:
            returns[0, band], returns[1, band] = np.abs(phasor), np.angle(phasor)
    if scattering.enabled:
        returns = _convolve_wrap(returns, _scatter_kernel(scattering))
        for band in _bands(shape[0]):
            phasor = returns[0, band] + 1j * returns[1, band]
            returns[0, band], returns[1, band] = np.abs(phasor), np.angle(phasor)
    points = resp.distance[..., None] * rays
    for array in (returns, points):
        array.flags.writeable = False
    return _FrameBase(resp.distance, resp.temperature, points, *returns)


def _buckets(base: _FrameBase, noise: NoiseConfig, rng: np.random.Generator) -> np.ndarray:
    """A frame's (H, W, 4) buckets before saturation, built from the
    noise-free return a block of rows at a time, the blocks spread over a
    thread per CPU (:mod:`tofir.blocks`), each pixel the same bytes at any
    count.

    The noise is drawn on the calling thread in the stream order of
    whole-frame draws: every phase normal, then every bucket normal, each
    in C order. The kind drawn last is drawn a block of rows at a time, as
    the blocks' ``draw``, so worker threads form the drawn blocks' buckets
    while the caller draws the next block; with bucket noise, the phase
    normals are drawn whole first."""
    shape = base.distance.shape
    phase_normals = np.empty(shape) if noise.phase_noise_scale > 0 else None
    buckets = np.empty(shape + (4,))
    drawn = phase_normals  # the normals drawn a block at a time
    if noise.bucket_noise_sigma > 0:
        if phase_normals is not None:
            rng.standard_normal(out=phase_normals)
        drawn = buckets  # each block's draws, overwritten by its buckets

    def draw(start, stop):
        rng.standard_normal(out=drawn[start:stop])

    def block_buckets(start, stop):
        rows = slice(start, stop)
        amplitude = base.amplitude[rows]
        phase = base.phase[rows]
        if phase_normals is not None:
            sigma = noise.phase_noise_scale / np.maximum(amplitude, 1e-12)
            phase = phase + sigma * phase_normals[rows]
        # one bucket plane at a time into the output, so a thread's
        # temporaries stay a few planes of its block
        for k, plane in enumerate(bucket_planes(phase, amplitude, base.offset[rows])):
            out = buckets[rows, :, k]
            if noise.bucket_noise_sigma > 0:  # max(plane + sigma * draw, 0)
                out *= noise.bucket_noise_sigma
                out += plane
                np.maximum(out, 0.0, out=out)
            else:
                out[...] = plane

    run_blocks(shape[0], block_buckets, shape[1], None if drawn is None else draw)
    return buckets


def _render_frame(base: _FrameBase, noise: NoiseConfig, frame_index: int,
                  extrinsics: Extrinsics | None) -> tuple[RawTofFrame, GroundTruth]:
    rng = np.random.Generator(np.random.Philox(noise.seed).jumped(frame_index))
    buckets = _buckets(base, noise, rng)

    outliers = np.zeros(base.distance.shape, dtype=bool)
    if noise.saturation_fraction > 0:
        n_pixels = outliers.size
        n_sat = int(round(noise.saturation_fraction * n_pixels))
        if n_sat:
            chosen = rng.choice(n_pixels, size=n_sat, replace=False)
            flat = buckets.reshape(n_pixels, 4)
            flat[chosen] = SATURATION_LEVEL
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
    """
    noise = noise or NoiseConfig()
    frame_index = _count("frame_index", frame_index, 0)
    if amplitude_law not in ("inverse_square", "constant"):
        raise ValueError(f"unknown amplitude law {amplitude_law!r}")
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
    n_frames = _count("n_frames", n_frames, 1)
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
    4 sigma, reflected boundaries). Zero means exactly no blur.
    """
    document.check("blur_sigma", blur_sigma, "non-negative")
    resp = _trace(scene, unit_rays(intr), pose or Extrinsics.identity())
    temps = resp.temperature
    if blur_sigma > 0:
        temps = _gaussian_blur(temps, blur_sigma)
    return ThermalFrame(temps)


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
    if radius == 0:  # a single tap of weight 1
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

def _on_sensor(pixels, intr) -> np.ndarray:
    """Rows of (n, 2) pixels inside [0, width] x [0, height]; NaN rows are not."""
    with np.errstate(invalid="ignore"):
        return np.all((pixels >= 0) & (pixels <= (intr.width, intr.height)), axis=1)


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
    camera or outside either sensor are dropped; the count is logged as a
    warning.
    """
    document.check("pixel_noise_sigma", pixel_noise_sigma, "non-negative")
    rng = np.random.Generator(np.random.Philox(seed))
    positions = np.array([t.position for t in targets], dtype=np.float64).reshape(-1, 3)
    if positions.shape[0] == 0:
        return []

    tof_pix, tof_front = project_distorted(positions, tof_intr)
    ir_pix, ir_front = project_points(true_extrinsics.apply(positions), ir_intr)
    usable = (tof_front & ir_front & _on_sensor(tof_pix, tof_intr)
              & _on_sensor(ir_pix, ir_intr))
    dropped = int(np.count_nonzero(~usable))
    if dropped:
        logger.warning("dropped %d of %d calibration targets (behind a camera or off-sensor)",
                       dropped, len(targets))

    distances = np.linalg.norm(positions, axis=1)
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
