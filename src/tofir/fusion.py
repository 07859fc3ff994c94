"""Fusing range and thermal data into 3D thermograms.

Pipeline per range pixel: backproject to a metric point, move it into the IR
camera frame with the rigid extrinsic transform, project onto the IR sensor,
and sample the temperature there. Points keep their range-camera coordinates
in the output so thermograms stay index-aligned with segmentation masks.

Occlusion is ignored: a range point hidden from the IR viewpoint still samples
the IR image. With the small baselines this rig targets the error is confined
to thin silhouette bands; treat it as a documented limitation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .camera import project_points
from .container import FrameContainer
from .errors import DimensionMismatchError
from .thermal import IrIntrinsics, ThermalFrame, sample_temperature_grid
from .tof import PointCloud, RangeFrame, TofIntrinsics, backproject

THERMOGRAM_CHANNELS = ("x", "y", "z", "temperature", "validity")

_ORTHONORMALITY_TOL = 1e-9


class FuseReason(IntEnum):
    """Why a thermogram entry is or is not usable."""

    VALID = 0
    INVALID_RANGE = 1
    BEHIND_IR_CAMERA = 2
    OUT_OF_IR_FIELD = 3


@dataclass(frozen=True)
class Extrinsics:
    """Rigid transform between the range and IR camera frames.

    Maps range-frame points into the IR frame: p_ir = R @ p_tof + T.
    Orthonormality is checked at construction so per-point code can assume a
    proper rotation.
    """

    rotation: np.ndarray  # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,), meters

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=np.float64)
        translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
        defect = np.linalg.norm(rotation.T @ rotation - np.eye(3))
        if defect > _ORTHONORMALITY_TOL:
            raise ValueError(f"rotation is not orthonormal (defect {defect:.3e})")
        det = np.linalg.det(rotation)
        if abs(det - 1.0) > _ORTHONORMALITY_TOL:
            raise ValueError(f"rotation must have determinant +1, got {det!r}")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def identity(cls) -> "Extrinsics":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform (..., 3) points."""
        moved = np.asarray(points, dtype=np.float64) @ self.rotation.T
        for axis in range(3):  # one long loop per axis, not n loops of length 3
            moved[..., axis] += self.translation[axis]
        return moved

    def inverse(self) -> "Extrinsics":
        rt = self.rotation.T
        return Extrinsics(rt, -rt @ self.translation)

    def to_json_dict(self) -> dict:
        return {
            "rotation": [float(v) for v in self.rotation.ravel()],  # row-major
            "translation": [float(v) for v in self.translation],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Extrinsics":
        rotation = np.asarray(doc["rotation"], dtype=np.float64).reshape(3, 3)
        translation = np.asarray(doc["translation"], dtype=np.float64)
        return cls(rotation, translation)


@dataclass(frozen=True)
class Thermogram:
    """Grid of 3D points with temperatures, in the range-camera frame.

    ``reason`` holds a :class:`FuseReason` code per entry; the grid always has
    exactly height * width entries regardless of validity.
    """

    points: np.ndarray  # (height, width, 3)
    temperature: np.ndarray  # (height, width), kelvin, 0 where not valid
    reason: np.ndarray  # (height, width), uint8 FuseReason codes

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        temperature = np.asarray(self.temperature, dtype=np.float64)
        reason = np.asarray(self.reason, dtype=np.uint8)
        if points.ndim != 3 or points.shape[2] != 3:
            raise ValueError(f"points must be (height, width, 3), got {points.shape}")
        if temperature.shape != points.shape[:2] or reason.shape != points.shape[:2]:
            raise ValueError("temperature and reason must match the point grid")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "temperature", temperature)
        object.__setattr__(self, "reason", reason)

    @property
    def height(self) -> int:
        return self.points.shape[0]

    @property
    def width(self) -> int:
        return self.points.shape[1]

    @property
    def valid(self) -> np.ndarray:
        return self.reason == FuseReason.VALID


def transform_points(cloud: PointCloud, ext: Extrinsics) -> PointCloud:
    """Map every cloud point through the rigid transform, keeping flags."""
    return PointCloud(
        ext.apply(cloud.points),
        cloud.pixel_indices,
        cloud.valid,
        cloud.width,
        cloud.height,
    )


def fuse(
    range_frame: RangeFrame,
    thermal: ThermalFrame,
    tof_intr: TofIntrinsics,
    ir_intr: IrIntrinsics,
    ext: Extrinsics,
) -> Thermogram:
    """Assign a temperature to every range measurement.

    Every failure stage is recorded per entry: invalid range pixel, point
    behind the IR camera after the transform, or projection outside the IR
    interpolation field. Positions are populated for every pixel with a valid
    range, even when the temperature lookup fails.
    """
    if (thermal.height, thermal.width) != (ir_intr.height, ir_intr.width):
        raise DimensionMismatchError(
            f"thermal frame is {thermal.width}x{thermal.height}, IR intrinsics say "
            f"{ir_intr.width}x{ir_intr.height}"
        )
    cloud = backproject(range_frame, tof_intr)  # also checks TOF dimensions
    pts_ir = ext.apply(cloud.points)
    pixels, in_front = project_points(pts_ir, ir_intr)
    temps, in_field = sample_temperature_grid(thermal, pixels[:, 0], pixels[:, 1])

    # later stages overwrite earlier ones: a point behind the camera projects
    # to NaN and is never in the field, and an invalid range trumps both
    reason = np.full(len(cloud), int(FuseReason.OUT_OF_IR_FIELD), dtype=np.uint8)
    reason[in_field] = FuseReason.VALID
    reason[~in_front] = FuseReason.BEHIND_IR_CAMERA
    invalid = ~cloud.valid
    reason[invalid] = FuseReason.INVALID_RANGE
    temps[invalid] = 0.0  # sampling already zeroed every entry outside the field

    shape = (range_frame.height, range_frame.width)
    return Thermogram(
        cloud.points.reshape(shape + (3,)), temps.reshape(shape), reason.reshape(shape)
    )


def fuse_summary(thermogram: Thermogram) -> dict[str, float]:
    """Fraction of entries per reason code."""
    total = thermogram.reason.size
    return {
        reason.name.lower(): float(np.count_nonzero(thermogram.reason == reason)) / total
        for reason in FuseReason
    }


def thermograms_to_container(thermograms) -> FrameContainer:
    return FrameContainer.stack(
        [
            {
                "x": t.points[:, :, 0],
                "y": t.points[:, :, 1],
                "z": t.points[:, :, 2],
                "temperature": t.temperature,
                "validity": t.reason.astype(np.float32),
            }
            for t in thermograms
        ]
    )


def thermograms_from_container(cont: FrameContainer) -> list[Thermogram]:
    if tuple(cont.channel_names) != THERMOGRAM_CHANNELS:
        raise DimensionMismatchError(
            f"expected channels {THERMOGRAM_CHANNELS}, got {cont.channel_names}"
        )
    out = []
    for k in range(cont.frames):
        points = np.stack(
            [cont.channel(c, k).astype(np.float64) for c in ("x", "y", "z")], axis=-1
        )
        out.append(
            Thermogram(
                points,
                cont.channel("temperature", k).astype(np.float64),
                np.rint(cont.channel("validity", k)).astype(np.uint8),
            )
        )
    return out


def thermogram_to_text(thermogram: Thermogram) -> str:
    """Whitespace-delimited table (x y z temperature reason), one row per pixel."""
    flat = np.column_stack(
        [
            thermogram.points.reshape(-1, 3),
            thermogram.temperature.ravel(),
            thermogram.reason.ravel().astype(np.float64),
        ]
    )
    buf = io.StringIO()
    buf.write("# x y z temperature reason\n")
    np.savetxt(buf, flat, fmt="%.9g")
    return buf.getvalue()
