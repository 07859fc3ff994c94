"""Thermal infrared camera: calibrated temperature images.

The sensor is abstracted as a grid of absolute temperatures (kelvin); raw
detector physics happens upstream. Points project through a distortion-free
pinhole (:func:`tofir.camera.project_points`), and temperatures are read back
with sub-pixel bilinear interpolation between the four nearest pixel centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Pinhole
from .container import ChannelSchema


class IrIntrinsics(Pinhole):
    """Pinhole model of the infrared camera (no distortion term).

    ``k1``/``k2`` keys are accepted and ignored when loading JSON so the
    format stays forward compatible with a distorted variant.
    """


@dataclass(frozen=True)
class ThermalFrame:
    """Calibrated temperature image, kelvin, shape (height, width).

    Every temperature must be finite and positive; a NaN or infinite pixel
    raises ``ValueError`` here, so no later stage can pass it on as a valid
    measurement.
    """

    temperatures: np.ndarray

    def __post_init__(self):
        THERMAL_SCHEMA.coerce(self)
        if not np.all(np.isfinite(self.temperatures)):
            raise ValueError("temperatures must be finite")
        if np.any(self.temperatures <= 0):
            raise ValueError("absolute temperatures must be positive")

    @property
    def height(self) -> int:
        return self.temperatures.shape[0]

    @property
    def width(self) -> int:
        return self.temperatures.shape[1]


THERMAL_SCHEMA = ChannelSchema(ThermalFrame, {"temperatures": ("temperature",)})
thermal_frames_to_container = THERMAL_SCHEMA.pack
thermal_frames_from_container = THERMAL_SCHEMA.unpack


def sample_temperature_grid(
    frame: ThermalFrame, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bilinear sampling; out-of-field entries are flagged, not raised.

    NaN coordinates count as out of field. Returned values are zero wherever
    the flag is False.
    """
    height, width = frame.temperatures.shape
    temps = frame.temperatures.reshape(-1)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        xs, ys = np.broadcast_arrays(xs, ys)
    shape = xs.shape
    xs = xs.reshape(-1)
    ys = ys.reshape(-1)
    in_field = xs >= 0.5
    in_field &= xs <= width - 0.5
    in_field &= ys >= 0.5
    in_field &= ys <= height - 0.5
    # out-of-field entries read pixel 0 and are zeroed at the end
    xc = np.where(in_field, xs, 0.5)
    xc -= 0.5
    yc = np.where(in_field, ys, 0.5)
    yc -= 0.5
    # the lower of the two pixel centers bracketing each coordinate; on a
    # one-pixel axis every in-field coordinate is already 0
    i0 = np.minimum(xc.astype(np.int64), max(width - 2, 0))
    j0 = np.minimum(yc.astype(np.int64), max(height - 2, 0))
    fx = np.subtract(xc, i0, out=xc)
    fy = np.subtract(yc, j0, out=yc)
    # one flat index walks the four neighbours: (i0, j0), (i1, j0), (i1, j1), (i0, j1)
    index = np.multiply(j0, width, out=j0)
    index += i0
    step_x = 1 if width > 1 else 0
    step_y = width if height > 1 else 0
    t00 = temps.take(index)
    index += step_x
    t10 = temps.take(index)
    index += step_y
    t11 = temps.take(index)
    index -= step_x
    t01 = temps.take(index)
    # (1-fx)(1-fy) t00 + fx (1-fy) t10 + (1-fx) fy t01 + fx fy t11, summed left to right
    gx = 1.0 - fx
    gy = 1.0 - fy
    values = gx * gy
    values *= t00
    term = np.multiply(fx, gy, out=gy)
    term *= t10
    values += term
    term = np.multiply(gx, fy, out=term)
    term *= t01
    values += term
    term = np.multiply(fx, fy, out=term)
    term *= t11
    values += term
    values[~in_field] = 0.0
    return values.reshape(shape), in_field.reshape(shape)
