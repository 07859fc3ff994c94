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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import ndimage

from . import document
from .calibration import TargetObservation
from .camera import project_points, unit_rays
from .container import ChannelSchema
from .fusion import Extrinsics
from .thermal import IrIntrinsics, ThermalFrame
from .tof import RawTofFrame, TofIntrinsics, phase_for_distance, synthesize_buckets

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
        _check_surface(self.reflectivity, self.temperature)


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
        if self.radius <= 0:
            raise ValueError(f"sphere radius must be positive, got {self.radius}")
        _check_surface(self.reflectivity, self.temperature)


def _check_surface(reflectivity, temperature):
    if not 0 < reflectivity <= 1:
        raise ValueError(f"reflectivity must be in (0, 1], got {reflectivity}")
    if temperature <= 0:
        raise ValueError(f"surface temperature must be positive, got {temperature}")


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
        if self.ambient_temperature <= 0:
            raise ValueError(f"ambient temperature must be positive, got {self.ambient_temperature}")
        if self.background_distance <= 0:
            raise ValueError(f"background distance must be positive, got {self.background_distance}")
        if not 0 < self.background_reflectivity <= 1:
            raise ValueError(
                f"background reflectivity must be in (0, 1], got {self.background_reflectivity}"
            )
        object.__setattr__(self, "primitives", prims)


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
        if self.extra_distance < 0:
            raise ValueError(f"extra_distance must be non-negative, got {self.extra_distance}")


@dataclass(frozen=True)
class ScatteringConfig:
    """In-camera stray light: a disc kernel carrying ``energy_fraction`` of
    each pixel's phasor, the rest staying in place."""

    enabled: bool = False
    kernel_radius: int = 4  # pixels
    energy_fraction: float = 0.1

    def __post_init__(self):
        if self.kernel_radius < 1:
            raise ValueError(f"kernel_radius must be >= 1, got {self.kernel_radius}")
        if not 0 <= self.energy_fraction < 1:
            raise ValueError(f"energy_fraction must be in [0, 1), got {self.energy_fraction}")


@dataclass(frozen=True)
class NoiseConfig:
    seed: int = 0
    phase_noise_scale: float = DEFAULT_PHASE_NOISE_SCALE
    bucket_noise_sigma: float = 0.0
    saturation_fraction: float = 0.0
    multipath: MultipathConfig = field(default_factory=MultipathConfig)
    scattering: ScatteringConfig = field(default_factory=ScatteringConfig)

    def __post_init__(self):
        if self.phase_noise_scale < 0:
            raise ValueError(f"phase_noise_scale must be non-negative, got {self.phase_noise_scale}")
        if self.bucket_noise_sigma < 0:
            raise ValueError(f"bucket_noise_sigma must be non-negative, got {self.bucket_noise_sigma}")
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
        if self.temperature <= 0:
            raise ValueError(f"target temperature must be positive, got {self.temperature}")


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
    rays_camera: np.ndarray


def _trace(scene: Scene, rays_camera: np.ndarray, pose: Extrinsics) -> _SceneResponse:
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
    return _SceneResponse(best_t, reflectivity, temperature, rays_camera)


def _trace_tof(scene, intr: TofIntrinsics, pose: Extrinsics | None) -> _SceneResponse:
    return _trace(scene, unit_rays(intr), pose or Extrinsics.identity())


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


def _render_from_response(
    resp: _SceneResponse,
    intr: TofIntrinsics,
    noise: NoiseConfig,
    frame_index: int,
    extrinsics: Extrinsics | None,
    amplitude_law: str,
) -> tuple[RawTofFrame, GroundTruth]:
    dist = resp.distance
    if amplitude_law == "inverse_square":
        amplitude = resp.reflectivity * DEFAULT_AMPLITUDE_REF / (dist * dist)
    elif amplitude_law == "constant":
        # distance-independent radiometry, for controlled phase experiments
        amplitude = resp.reflectivity * DEFAULT_AMPLITUDE_REF * np.ones_like(dist)
    else:
        raise ValueError(f"unknown amplitude law {amplitude_law!r}")
    phasor = amplitude * np.exp(1j * phase_for_distance(dist, intr.f_mod))
    offset = DEFAULT_OFFSET_REF + amplitude

    mp = noise.multipath
    if mp.enabled:
        secondary = mp.relative_amplitude * amplitude
        phasor = phasor + secondary * np.exp(
            1j * phase_for_distance(dist + mp.extra_distance, intr.f_mod)
        )
        offset = offset + secondary

    if noise.scattering.enabled:
        kernel = _scatter_kernel(noise.scattering)
        phasor = (
            ndimage.convolve(phasor.real, kernel, mode="wrap")
            + 1j * ndimage.convolve(phasor.imag, kernel, mode="wrap")
        )
        offset = ndimage.convolve(offset, kernel, mode="wrap")

    rng = np.random.Generator(np.random.Philox(noise.seed).jumped(frame_index))
    final_amplitude = np.abs(phasor)
    final_phase = np.angle(phasor)
    if noise.phase_noise_scale > 0:
        sigma = noise.phase_noise_scale / np.maximum(final_amplitude, 1e-12)
        final_phase = final_phase + sigma * rng.standard_normal(final_phase.shape)

    buckets = synthesize_buckets(final_phase, final_amplitude, offset)
    if noise.bucket_noise_sigma > 0:
        buckets = buckets + noise.bucket_noise_sigma * rng.standard_normal(buckets.shape)
        buckets = np.maximum(buckets, 0.0)

    outliers = np.zeros(dist.shape, dtype=bool)
    if noise.saturation_fraction > 0:
        n_pixels = dist.size
        n_sat = int(round(noise.saturation_fraction * n_pixels))
        if n_sat:
            chosen = rng.choice(n_pixels, size=n_sat, replace=False)
            flat = buckets.reshape(n_pixels, 4)
            flat[chosen] = SATURATION_LEVEL
            outliers.reshape(-1)[chosen] = True

    truth = GroundTruth(
        range=dist,
        points=dist[..., None] * resp.rays_camera,
        temperature=resp.temperature,
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
    default). ``frame_index`` advances the noise stream without touching the
    seed, so a frame of a sequence can be reproduced on its own.
    ``amplitude_law`` selects the return-strength model: "inverse_square"
    (physical default) or "constant" (return strength independent of
    distance, which makes pure phase effects such as wrap-around visible in
    the buckets without radiometric differences).
    """
    noise = noise or NoiseConfig()
    resp = _trace_tof(scene, intr, pose)
    return _render_from_response(resp, intr, noise, frame_index, extrinsics, amplitude_law)


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
    """Render ``n_frames`` with shared geometry and per-frame noise streams."""
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    resp = _trace_tof(scene, intr, pose)
    return [
        _render_from_response(resp, intr, noise, k, extrinsics, amplitude_law)
        for k in range(n_frames)
    ]


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
    if blur_sigma < 0:
        raise ValueError(f"blur_sigma must be non-negative, got {blur_sigma}")
    resp = _trace(scene, unit_rays(intr), pose or Extrinsics.identity())
    temps = resp.temperature
    if blur_sigma > 0:
        temps = ndimage.gaussian_filter(temps, blur_sigma, mode="reflect")
    return ThermalFrame(temps)


# --- calibration data generation -------------------------------------------------

def _distort_radius(r_undistorted, k1, k2):
    # Newton inversion of r_u = r + k1 r^3 + k2 r^5
    r = np.array(r_undistorted, dtype=np.float64, copy=True)
    for _ in range(25):
        f = r + k1 * r**3 + k2 * r**5 - r_undistorted
        fp = 1.0 + 3.0 * k1 * r * r + 5.0 * k2 * r**4
        r = r - f / fp
    return r


def _project_tof(points, intr: TofIntrinsics):
    """Forward projection into the range camera, applying distortion."""
    points = np.asarray(points, dtype=np.float64)
    z = points[:, 2]
    in_front = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        xn = points[:, 0] / z
        yn = points[:, 1] / z
        r_u = np.hypot(xn, yn)
        r_d = _distort_radius(r_u, intr.k1, intr.k2)
        scale = np.where(r_u > 0, r_d / np.maximum(r_u, 1e-300), 1.0)
        u = intr.cx + xn * scale * intr.focal_length / intr.pixel_pitch
        v = intr.cy + yn * scale * intr.focal_length / intr.pixel_pitch
    pix = np.stack([u, v], axis=-1)
    pix[~in_front] = np.nan
    return pix, in_front


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
    if pixel_noise_sigma < 0:
        raise ValueError(f"pixel_noise_sigma must be non-negative, got {pixel_noise_sigma}")
    rng = np.random.Generator(np.random.Philox(seed))
    positions = np.array([t.position for t in targets], dtype=np.float64).reshape(-1, 3)
    if positions.shape[0] == 0:
        return []

    tof_pix, tof_front = _project_tof(positions, tof_intr)
    ir_points = true_extrinsics.apply(positions)
    ir_pix, ir_front = project_points(ir_points, ir_intr)

    with np.errstate(invalid="ignore"):
        on_tof = (
            (tof_pix[:, 0] >= 0) & (tof_pix[:, 0] <= tof_intr.width)
            & (tof_pix[:, 1] >= 0) & (tof_pix[:, 1] <= tof_intr.height)
        )
        on_ir = (
            (ir_pix[:, 0] >= 0) & (ir_pix[:, 0] <= ir_intr.width)
            & (ir_pix[:, 1] >= 0) & (ir_pix[:, 1] <= ir_intr.height)
        )
    usable = tof_front & ir_front & on_tof & on_ir
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
    settings = document.read(doc, "scene", ambient_temperature=float,
                             background_distance=float, background_reflectivity=float)
    raw_prims = doc.get("primitives")
    if not isinstance(raw_prims, list) or not raw_prims:
        raise ValueError("scene field 'primitives' must be a non-empty array")
    prims = tuple(_primitive_from_json(p, f"scene primitive {i}") for i, p in enumerate(raw_prims))
    return _build(Scene, "scene", prims, **settings)


_PRIMITIVE_FIELDS = {
    "plane": (Plane, dict(axis=str, offset=float, reflectivity=float, temperature=float)),
    "sphere": (Sphere, dict(center=tuple, radius=float, reflectivity=float, temperature=float)),
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
        phase_noise_scale=float,
        bucket_noise_sigma=float,
        saturation_fraction=float,
        multipath=_part(MultipathConfig, "multipath", enabled=document.flag,
                        extra_distance=float, relative_amplitude=float),
        scattering=_part(ScatteringConfig, "scattering", enabled=document.flag,
                         kernel_radius=document.whole, energy_fraction=float),
    )
    return _build(NoiseConfig, "noise", **settings)
