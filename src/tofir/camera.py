"""Pinhole camera geometry shared by the range and the infrared camera.

Both sensors are pinholes with the same six parameters; the range camera adds
radial distortion. This module is the only one that knows the camera model:
the distortion polynomial in both directions (:func:`undistort_pixel`,
:func:`distort_radius`), pixel -> view ray (:func:`pixel_rays`,
:func:`unit_rays`), pixel and distance -> point (:func:`lift`), and
camera-frame point -> pixel through a pinhole (:func:`project_points`) or a
distorted lens (:func:`project_distorted`).

Conventions used throughout the package:

* Image arrays are indexed ``[row, col]``; x runs along columns, y along rows.
* Pixel (i, j) has continuous image coordinates (i + 0.5, j + 0.5).
* Sensor-plane coordinates are metric: ``u = (x - cx) * pixel_pitch``, and the
  focal length is expressed in the same metric unit.
* Radial distortion acts on normalized coordinates (u / f, v / f), which keeps
  k1 and k2 scale-independent.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .document import check, count, number, read, whole
from .errors import DimensionMismatchError

_JSON_KEYS = {"focal_length": "f"}  # field name -> JSON key, where they differ


@dataclass(frozen=True)
class Pinhole:
    """Distortion-free pinhole camera.

    ``focal_length`` and ``pixel_pitch`` share one metric unit; the principal
    point (cx, cy) is in pixels and defaults to the image center. JSON
    documents store the focal length under ``"f"``; keys that are not fields
    of the class are ignored when loading. A width or height that is not a
    whole number >= 1 (a fraction, a boolean, 0) raises ``ValueError``, from
    JSON and from the library alike; numpy integers are stored as ``int``.
    """

    focal_length: float
    width: int
    height: int
    pixel_pitch: float
    cx: float | None = None
    cy: float | None = None

    def __post_init__(self):
        for name in ("width", "height"):
            object.__setattr__(self, name, count(name, getattr(self, name), 1))
        if self.cx is None:
            object.__setattr__(self, "cx", self.width / 2.0)
        if self.cy is None:
            object.__setattr__(self, "cy", self.height / 2.0)
        check("focal_length", self.focal_length, "positive")
        check("pixel_pitch", self.pixel_pitch, "positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError(f"principal point ({self.cx}, {self.cy}) outside sensor")

    def undistort(self, u_d, v_d):
        """Undistorted normalized coordinates; the identity for a pinhole."""
        return u_d, v_d

    def check_frame(self, what: str, frame) -> None:
        """Raise ``DimensionMismatchError`` unless ``frame``, anything with a
        ``width`` and a ``height``, is the sensor's size; ``what`` names it."""
        if (frame.height, frame.width) != (self.height, self.width):
            raise DimensionMismatchError(
                f"{what} is {frame.width}x{frame.height}, intrinsics say "
                f"{self.width}x{self.height}"
            )

    def on_sensor(self, pixels) -> np.ndarray:
        """Rows of (n, 2) pixel coordinates inside [0, width] x [0, height];
        NaN rows are not."""
        with np.errstate(invalid="ignore"):
            return np.all((pixels >= 0) & (pixels <= (self.width, self.height)), axis=1)

    def to_json_dict(self) -> dict:
        return {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_json_dict(cls, doc: dict):
        fields = [(f, _JSON_KEYS.get(f.name, f.name)) for f in dataclasses.fields(cls)]
        values = read(doc, "intrinsics (width and height in whole pixel counts)",
                      **{key: whole if f.name in ("width", "height") else number
                         for f, key in fields})
        # a missing required key raises KeyError naming it
        return cls(**{f.name: values[key] for f, key in fields
                      if key in values or f.default is dataclasses.MISSING})


def undistort_pixel(u_d, v_d, k1: float, k2: float):
    """Remove radial distortion from coordinates relative to the principal point.

    r_u = r_d + k1*r_d^3 + k2*r_d^5, applied as a radial scale so the center
    is an exact fixed point. Callers should pass normalized (u/f, v/f)
    coordinates; the polynomial itself is agnostic.
    """
    u_d = np.asarray(u_d, dtype=np.float64)
    v_d = np.asarray(v_d, dtype=np.float64)
    r_sq = u_d * u_d + v_d * v_d
    scale = 1.0 + k1 * r_sq + k2 * r_sq * r_sq
    return u_d * scale, v_d * scale


def distort_radius(r_undistorted, k1, k2):
    """Distorted radius r_d with r_u = r_d + k1*r_d^3 + k2*r_d^5, the inverse
    of :func:`undistort_pixel`'s polynomial, by 25 Newton steps from r_u."""
    r = np.array(r_undistorted, dtype=np.float64, copy=True)
    for _ in range(25):
        f = r + k1 * r**3 + k2 * r**5 - r_undistorted
        fp = 1.0 + 3.0 * k1 * r * r + 5.0 * k2 * r**4
        r = r - f / fp
    return r


def pixel_rays(intr: Pinhole, x, y):
    """View rays through continuous pixel coordinates (x, y).

    Returns the undistorted normalized coordinates ``(uu, vu)`` and the ray
    length ``sqrt(1 + uu^2 + vu^2)``: the ray is ``(uu, vu, 1)``, and a point
    at distance D along it is ``D / length * (uu, vu, 1)``. Inputs broadcast.
    """
    un = (x - intr.cx) * intr.pixel_pitch / intr.focal_length
    vn = (y - intr.cy) * intr.pixel_pitch / intr.focal_length
    uu, vu = intr.undistort(un, vn)
    return uu, vu, np.sqrt(1.0 + uu * uu + vu * vu)


def lift(intr: Pinhole, x, y, distance) -> np.ndarray:
    """Points (..., 3) at ``distance`` along the rays through pixel coordinates
    (x, y): ``(D / length) * (uu, vu, 1)`` of :func:`pixel_rays`, broadcast."""
    uu, vu, length = pixel_rays(intr, x, y)
    scale = distance / length
    return np.stack([scale * uu, scale * vu, scale], axis=-1)


@functools.lru_cache(maxsize=1)
def unit_rays(intr: Pinhole) -> np.ndarray:
    """Unit view ray per pixel in the camera frame, after undistortion.

    Shape (height, width, 3); a pixel at distance D backprojects to
    ``D * unit_rays(intr)[j, i]``. The grid depends only on the (frozen)
    intrinsics, so the last one built is kept and returned read-only.
    """
    x = np.arange(intr.width, dtype=np.float64)[None, :] + 0.5
    y = np.arange(intr.height, dtype=np.float64)[:, None] + 0.5
    uu, vu, norm = pixel_rays(intr, x, y)
    rays = np.stack([uu / norm, vu / norm, 1.0 / norm], axis=-1)
    rays.flags.writeable = False
    return rays


def project_points(points: np.ndarray, intr: Pinhole) -> tuple[np.ndarray, np.ndarray]:
    """Project (n, 3) camera-frame points onto the sensor, in pixel units.

    (r, s) = principal point + (f * X / Z, f * Y / Z) / pixel_pitch; scaling a
    point by any positive factor leaves (r, s) unchanged. Returns (pixels
    (n, 2), in_front (n,)); rows with Z <= 0 are NaN and flagged False instead
    of raising.
    """
    points = np.asarray(points, dtype=np.float64)
    z = points[:, 2]
    in_front = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = z * intr.pixel_pitch
        # c + f * X / depth with in-place steps, rounded as the expression is
        r = points[:, 0] * intr.focal_length
        r /= depth
        r += intr.cx
        s = points[:, 1] * intr.focal_length
        s /= depth
        s += intr.cy
    pixels = np.stack([r, s], axis=-1)
    pixels[~in_front] = np.nan
    return pixels, in_front


def project_distorted(points: np.ndarray, intr) -> tuple[np.ndarray, np.ndarray]:
    """Project (n, 3) camera-frame points through a distorted lens, in pixels.

    ``intr`` carries ``k1`` and ``k2`` (a :class:`tofir.tof.TofIntrinsics`).
    The normalized point (X/Z, Y/Z) is moved to its distorted radius
    (:func:`distort_radius`), so :func:`pixel_rays` maps the pixel back to the
    point's direction. Rounded as ``c + (X/Z) * scale * f / pixel_pitch``, not
    as :func:`project_points`. Returns (pixels (n, 2), in_front (n,)); rows
    with Z <= 0 are NaN and flagged False.
    """
    points = np.asarray(points, dtype=np.float64)
    z = points[:, 2]
    in_front = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        xn = points[:, 0] / z
        yn = points[:, 1] / z
        r_u = np.hypot(xn, yn)
        r_d = distort_radius(r_u, intr.k1, intr.k2)
        scale = np.where(r_u > 0, r_d / np.maximum(r_u, 1e-300), 1.0)
        u = intr.cx + xn * scale * intr.focal_length / intr.pixel_pitch
        v = intr.cy + yn * scale * intr.focal_length / intr.pixel_pitch
    pix = np.stack([u, v], axis=-1)
    pix[~in_front] = np.nan
    return pix, in_front
