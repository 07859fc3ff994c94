"""Per-pixel background statistics and moving-object segmentation.

A background model carries three per-pixel estimators over a frame sequence:
mean and sample standard deviation of the distance (single-pass Welford
accumulation, valid samples only), plus an approximate median that steps a
fixed increment toward each new sample. Foreground pixels are those whose
distance deviates from the mean by more than k standard deviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .container import ChannelSchema, FrameContainer
from .errors import ContainerFormatError, DimensionMismatchError
from .tof import RangeFrame, exposure_outliers

DEFAULT_MEDIAN_STEP = 0.01  # meters
DEFAULT_SIGMA_FLOOR = 0.001  # meters, keeps scores finite on constant pixels
_MAX_STORED_COUNT = 2**24  # every whole number up to 2**24 is exact in float32


@dataclass(frozen=True)
class BackgroundModel:
    """Per-pixel distance statistics over the frames used to build it.

    Pixels observed valid fewer than twice have no spread estimate and are
    marked invalid.
    """

    mean: np.ndarray
    std: np.ndarray
    median: np.ndarray
    count: np.ndarray  # valid samples per pixel

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        median = np.asarray(self.median, dtype=np.float64)
        count = np.asarray(self.count, dtype=np.int64)
        shapes = {mean.shape, std.shape, median.shape, count.shape}
        if len(shapes) != 1 or mean.ndim != 2:
            raise ValueError(f"all planes must share one 2-d shape, got {shapes}")
        if np.any(std < 0):
            raise ValueError("standard deviation cannot be negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "median", median)
        object.__setattr__(self, "count", count)

    @property
    def valid(self) -> np.ndarray:
        return self.count >= 2

    @property
    def height(self) -> int:
        return self.mean.shape[0]

    @property
    def width(self) -> int:
        return self.mean.shape[1]


BACKGROUND_SCHEMA = ChannelSchema(
    BackgroundModel,
    {"mean": ("mean",), "std": ("std",), "median": ("median",), "count": ("count",)},
    integral={"count": (0, _MAX_STORED_COUNT)},
)


@dataclass(frozen=True)
class ForegroundMask:
    """Segmentation result: boolean flags plus the |D - mean| / sigma score."""

    foreground: np.ndarray
    score: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "foreground", np.asarray(self.foreground, dtype=bool))
        object.__setattr__(self, "score", np.asarray(self.score, dtype=np.float64))
        object.__setattr__(self, "valid", np.asarray(self.valid, dtype=bool))


MASK_SCHEMA = ChannelSchema(
    ForegroundMask,
    {"foreground": ("foreground",), "score": ("score",), "valid": ("valid",)},
    integral={"foreground": (0, 1), "valid": (0, 1)},
)
masks_to_container = MASK_SCHEMA.pack


def build_background(
    frames: Iterable[RangeFrame], *, median_step: float = DEFAULT_MEDIAN_STEP
) -> BackgroundModel:
    """Accumulate per-pixel mean/std/approximate-median over a frame sequence.

    Invalid pixels are excluded from all three estimators; the approximate
    median of each pixel starts at its first valid sample and then follows
    the fixed-step update rule. Requires at least two frames.
    """
    if median_step <= 0:
        raise ValueError(f"median_step must be positive, got {median_step}")
    n_frames = 0
    for frame in frames:
        if n_frames == 0:
            shape = frame.distance.shape
            mean, m2, median = np.zeros(shape), np.zeros(shape), np.zeros(shape)
            count = np.zeros(shape, dtype=np.int64)
        elif frame.distance.shape != shape:
            raise DimensionMismatchError(
                f"frame {n_frames} has shape {frame.distance.shape}, expected {shape}"
            )
        n_frames += 1
        v = frame.valid
        d = frame.distance
        first = v & (count == 0)
        later = v & ~first
        median[first] = d[first]
        median[later] += median_step * np.sign(d[later] - median[later])
        count += v
        delta = d[v] - mean[v]
        mean[v] += delta / count[v]
        m2[v] += delta * (d[v] - mean[v])
    if n_frames < 2:
        raise ValueError(f"need at least 2 frames to model the background, got {n_frames}")
    std = np.zeros(count.shape)
    spread = count >= 2
    std[spread] = np.sqrt(np.maximum(m2[spread] / (count[spread] - 1), 0.0))
    return BackgroundModel(mean, std, median, count)


def foreground_mask(
    frame: RangeFrame,
    model: BackgroundModel,
    k: float,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
) -> ForegroundMask:
    """Flag pixels deviating from the background mean by more than k sigmas.

    The per-pixel sigma is floored so constant background pixels cannot blow
    the score up to infinity. Pixels invalid in either the frame or the model
    are never flagged.
    """
    if k <= 0:
        raise ValueError(f"sigma multiplier k must be positive, got {k}")
    if sigma_floor <= 0:
        raise ValueError(f"sigma_floor must be positive, got {sigma_floor}")
    if frame.distance.shape != model.mean.shape:
        raise DimensionMismatchError(
            f"frame shape {frame.distance.shape} != model shape {model.mean.shape}"
        )
    valid = frame.valid & model.valid
    score = np.abs(frame.distance - model.mean) / np.maximum(model.std, sigma_floor)
    score = np.where(valid, score, 0.0)
    return ForegroundMask(valid & (score > k), score, valid)


def flag_invalid(frame: RangeFrame, a_min: float, a_max: float, b_max: float) -> RangeFrame:
    """Invalidate over/underexposed pixels; everything else is untouched.

    Pixels with amplitude below a_min or above a_max, or offset above b_max,
    are marked invalid. Thresholds must be non-negative with a_min < a_max.
    """
    outliers = exposure_outliers(frame.amplitude, frame.offset, a_min, a_max, b_max)
    return RangeFrame(frame.distance, frame.amplitude, frame.offset, frame.valid & ~outliers)


def mask_to_pbm(mask: ForegroundMask) -> str:
    """Portable-bitmap (P1) text rendering of the foreground flags."""
    lines = ["P1", f"{mask.foreground.shape[1]} {mask.foreground.shape[0]}"]
    for row in mask.foreground.astype(np.uint8):
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def background_to_container(model: BackgroundModel) -> FrameContainer:
    return BACKGROUND_SCHEMA.pack([model])


def background_from_container(cont: FrameContainer) -> BackgroundModel:
    if cont.frames != 1:
        raise ContainerFormatError(f"a background model is one frame, got {cont.frames}")
    return BACKGROUND_SCHEMA.unpack(cont)[0]
