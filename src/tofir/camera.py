"""Pinhole camera geometry shared by the range and the infrared camera.

Both sensors are pinholes with the same six parameters; the range camera adds
radial distortion. This module holds the model and the two maps every other
module uses: pixel -> view ray (:func:`pixel_rays`, :func:`unit_rays`) and
camera-frame point -> pixel (:func:`project_points`).

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

from .document import read, whole

_JSON_KEYS = {"focal_length": "f"}  # field name -> JSON key, where they differ


@dataclass(frozen=True)
class Pinhole:
    """Distortion-free pinhole camera.

    ``focal_length`` and ``pixel_pitch`` share one metric unit; the principal
    point (cx, cy) is in pixels and defaults to the image center. JSON
    documents store the focal length under ``"f"``; keys that are not fields
    of the class are ignored when loading, and a width or height that is not
    a whole number raises ``ValueError``.
    """

    focal_length: float
    width: int
    height: int
    pixel_pitch: float
    cx: float | None = None
    cy: float | None = None

    def __post_init__(self):
        if self.cx is None:
            object.__setattr__(self, "cx", self.width / 2.0)
        if self.cy is None:
            object.__setattr__(self, "cy", self.height / 2.0)
        if self.focal_length <= 0:
            raise ValueError(f"focal_length must be positive, got {self.focal_length}")
        if self.pixel_pitch <= 0:
            raise ValueError(f"pixel_pitch must be positive, got {self.pixel_pitch}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"sensor must be non-empty, got {self.width}x{self.height}")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError(f"principal point ({self.cx}, {self.cy}) outside sensor")

    def undistort(self, u_d, v_d):
        """Undistorted normalized coordinates; the identity for a pinhole."""
        return u_d, v_d

    def to_json_dict(self) -> dict:
        return {_JSON_KEYS.get(f.name, f.name): getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_json_dict(cls, doc: dict):
        fields = [(f, _JSON_KEYS.get(f.name, f.name)) for f in dataclasses.fields(cls)]
        values = read(doc, "intrinsics (width and height in whole pixel counts)",
                      **{key: whole if f.name in ("width", "height") else float
                         for f, key in fields})
        # a missing required key raises KeyError naming it
        return cls(**{f.name: values[key] for f, key in fields
                      if key in values or f.default is dataclasses.MISSING})


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
