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
from .document import check
from .errors import DimensionMismatchError
from .tof import RangeFrame

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
        BACKGROUND_SCHEMA.coerce(self)
        if np.any(self.std < 0):
            raise ValueError("standard deviation cannot be negative")

    @property
    def valid(self) -> np.ndarray:
        return self.count >= 2


BACKGROUND_SCHEMA = ChannelSchema(
    BackgroundModel,
    {"mean": ("mean",), "std": ("std",), "median": ("median",), "count": ("count",)},
    integral={"count": (0, _MAX_STORED_COUNT)},
    dtypes={"count": np.int64},
)


@dataclass(frozen=True)
class ForegroundMask:
    """Segmentation result: boolean flags plus the |D - mean| / sigma score."""

    foreground: np.ndarray
    score: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        MASK_SCHEMA.coerce(self)


MASK_SCHEMA = ChannelSchema(
    ForegroundMask,
    {"foreground": ("foreground",), "score": ("score",), "valid": ("valid",)},
    integral={"foreground": (0, 1), "valid": (0, 1)},
    dtypes={"foreground": bool, "valid": bool},
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
    check("median_step", median_step, "positive")
    n_frames = 0
    for frame in frames:
        if n_frames == 0:
            shape = frame.distance.shape
            mean, m2, median = np.zeros(shape), np.zeros(shape), np.zeros(shape)
            count = np.zeros(shape, dtype=np.int64)
            # scratch planes, read only where they were written this frame
            delta, step = np.empty(shape), np.empty(shape)
            first, later = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        elif frame.distance.shape != shape:
            raise DimensionMismatchError(
                f"frame {n_frames} has shape {frame.distance.shape}, expected {shape}"
            )
        n_frames += 1
        v = frame.valid
        d = frame.distance
        # every update runs only where its mask holds, so an invalid pixel's
        # distance (NaN, inf or anything else) is never read
        np.equal(count, 0, out=first)
        np.logical_and(first, v, out=first)
        np.logical_xor(first, v, out=later)  # valid and seen before
        np.copyto(median, d, where=first)
        np.subtract(d, median, out=delta, where=later)
        # not in place: an in-place np.sign timed about 3x slower at 64x50
        np.sign(delta, out=step, where=later)
        np.multiply(median_step, step, out=delta, where=later)
        np.add(median, delta, out=median, where=later)
        count += v
        np.subtract(d, mean, out=delta, where=v)
        np.divide(delta, count, out=step, where=v)
        np.add(mean, step, out=mean, where=v)
        np.subtract(d, mean, out=step, where=v)
        np.multiply(delta, step, out=step, where=v)
        np.add(m2, step, out=m2, where=v)
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
    check("sigma multiplier k", k, "positive")
    check("sigma_floor", sigma_floor, "positive")
    if frame.distance.shape != model.mean.shape:
        raise DimensionMismatchError(
            f"frame shape {frame.distance.shape} != model shape {model.mean.shape}"
        )
    valid = frame.valid & model.valid
    score = np.abs(frame.distance - model.mean) / np.maximum(model.std, sigma_floor)
    score = np.where(valid, score, 0.0)
    return ForegroundMask(valid & (score > k), score, valid)


def mask_to_pbm(mask: ForegroundMask) -> str:
    """Portable-bitmap (P1) text rendering of the foreground flags.

    The line ``P1``, the line ``W H`` (width, then height), then one line per
    image row, top row first, of W space-separated digits, ``1`` for a
    foreground pixel and ``0`` for any other, and a final newline after the
    last row.
    """
    height, width = mask.foreground.shape
    # one byte per character: a digit in each even column, a space in each
    # odd one, and the row's newline in place of its last space
    grid = np.full((height, 2 * width), ord(" "), dtype=np.uint8)
    np.add(mask.foreground, np.uint8(ord("0")), out=grid[:, ::2])
    grid[:, -1] = ord("\n")
    return f"P1\n{width} {height}\n" + grid.tobytes().decode("ascii")


def background_to_container(model: BackgroundModel) -> FrameContainer:
    return BACKGROUND_SCHEMA.pack([model])
