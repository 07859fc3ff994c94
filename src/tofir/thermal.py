"""Thermal infrared camera: calibrated temperature images.

The sensor is abstracted as a grid of absolute temperatures (kelvin); raw
detector physics happens upstream. Points project through a distortion-free
pinhole (:func:`tofir.camera.project_points`), and temperatures are read back
with sub-pixel bilinear interpolation between the four nearest pixel centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import Pinhole
from .container import FrameContainer
from .errors import DimensionMismatchError, OutOfFieldError

THERMAL_CHANNELS = ("temperature",)


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
        temps = np.asarray(self.temperatures, dtype=np.float64)
        if temps.ndim != 2 or temps.shape[0] == 0 or temps.shape[1] == 0:
            raise ValueError(f"temperatures must be a non-empty 2-d grid, got {temps.shape}")
        if not np.all(np.isfinite(temps)):
            raise ValueError("temperatures must be finite")
        if np.any(temps <= 0):
            raise ValueError("absolute temperatures must be positive")
        object.__setattr__(self, "temperatures", temps)

    @property
    def height(self) -> int:
        return self.temperatures.shape[0]

    @property
    def width(self) -> int:
        return self.temperatures.shape[1]


def sample_temperature(frame: ThermalFrame, x: float, y: float) -> float:
    """Temperature at continuous image coordinates (x, y).

    Bilinear interpolation between the four nearest pixel centers; positions
    outside the rectangle spanned by the outermost pixel centers raise
    :class:`OutOfFieldError`.
    """
    values, in_field = sample_temperature_grid(frame, np.array([x]), np.array([y]))
    if not in_field[0]:
        raise OutOfFieldError(
            f"sample ({x}, {y}) outside pixel-center rectangle "
            f"[0.5, {frame.width - 0.5}] x [0.5, {frame.height - 0.5}]"
        )
    return float(values[0])


def sample_temperature_grid(
    frame: ThermalFrame, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized bilinear sampling; out-of-field entries are flagged, not raised.

    NaN coordinates count as out of field. Returned values are zero wherever
    the flag is False.
    """
    temps = frame.temperatures
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
    t00 = temps[j0, i0]
    t10 = temps[j0, i1]
    t01 = temps[j1, i0]
    t11 = temps[j1, i1]
    values = (
        (1.0 - fx) * (1.0 - fy) * t00
        + fx * (1.0 - fy) * t10
        + (1.0 - fx) * fy * t01
        + fx * fy * t11
    )
    return np.where(in_field, values, 0.0), in_field


def thermal_frames_to_container(frames: Sequence[ThermalFrame]) -> FrameContainer:
    return FrameContainer.stack([{"temperature": f.temperatures} for f in frames])


def thermal_frames_from_container(cont: FrameContainer) -> list[ThermalFrame]:
    if tuple(cont.channel_names) != THERMAL_CHANNELS:
        raise DimensionMismatchError(
            f"expected channels {THERMAL_CHANNELS}, got {cont.channel_names}"
        )
    return [ThermalFrame(cont.channel("temperature", k).astype(np.float64)) for k in range(cont.frames)]
