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

from dataclasses import dataclass
from enum import IntEnum
from typing import TextIO

import numpy as np

from .blocks import run_blocks
from .camera import project_points
from .container import ChannelSchema, format_rows
from .document import check, number, read, triple
from .thermal import IrIntrinsics, ThermalFrame, sample_temperature_grid
from .tof import RangeFrame, TofIntrinsics, backproject

_ORTHONORMALITY_TOL = 1e-9

_TEXT_BLOCK_ROWS = 4096  # rows formatted and written at a time


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
    Finiteness and orthonormality are checked at construction so per-point
    code can assume a proper rotation. Both arrays are read-only copies of
    the ones given, so a pose cannot change after it is checked. Two poses
    are equal, and hash alike, when their arrays hold the same bytes, so
    ``-0.0`` and ``0.0`` entries differ.
    """

    rotation: np.ndarray  # (3, 3), orthonormal, det +1
    translation: np.ndarray  # (3,), meters

    def __post_init__(self):
        # own read-only copies: a caller's later write cannot move the pose
        rotation = np.array(self.rotation, dtype=np.float64, copy=True)
        translation = np.array(self.translation, dtype=np.float64, copy=True).reshape(3)
        if rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
        check("rotation", rotation.ravel().tolist())
        check("translation", translation.tolist())
        # huge finite entries overflow to inf or NaN, which the tests reject
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.linalg.norm(rotation.T @ rotation - np.eye(3))
            det = np.linalg.det(rotation)
        if not defect <= _ORTHONORMALITY_TOL:
            raise ValueError(f"rotation is not orthonormal (defect {defect:.3e})")
        if not abs(det - 1.0) <= _ORTHONORMALITY_TOL:
            raise ValueError(f"rotation must have determinant +1, got {det!r}")
        for name, array in (("rotation", rotation), ("translation", translation)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def _bytes(self) -> tuple[bytes, bytes]:
        return self.rotation.tobytes(), self.translation.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Extrinsics):
            return NotImplemented
        return self._bytes() == other._bytes()

    def __hash__(self):
        return hash(self._bytes())

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
        """Load ``to_json_dict``'s document; the rotation may also be nested
        as three rows of three. Entries must be JSON numbers: a string or a
        boolean raises ``ValueError`` naming the key, and a missing key
        raises ``KeyError``."""
        values = read(doc, "extrinsics", rotation=_rotation_entries, translation=triple)
        return cls(np.reshape(values["rotation"], (3, 3)), values["translation"])


def _rotation_entries(value) -> list[float]:
    """Nine finite numbers, row-major: flat or three rows of three."""
    if isinstance(value, (list, tuple)) and len(value) == 3:
        return [x for row in value for x in triple(row)]
    if isinstance(value, (list, tuple)) and len(value) == 9:
        return [number(x) for x in value]
    raise ValueError(f"expected 9 numbers or 3 rows of 3, got {value!r}")


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
        THERMOGRAM_SCHEMA.coerce(self)

    @property
    def valid(self) -> np.ndarray:
        return self.reason == FuseReason.VALID


THERMOGRAM_SCHEMA = ChannelSchema(
    Thermogram,
    {"points": ("x", "y", "z"), "temperature": ("temperature",), "reason": ("validity",)},
    integral={"reason": (int(min(FuseReason)), int(max(FuseReason)))},
    dtypes={"reason": np.uint8},
)
thermograms_to_container = THERMOGRAM_SCHEMA.pack
thermograms_from_container = THERMOGRAM_SCHEMA.unpack


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

    Points are transformed, projected, sampled and given their reason codes
    a block of :data:`tofir.blocks.BLOCK` points at a time, the blocks spread
    over a thread per CPU (:mod:`tofir.blocks`); every entry gets the same
    bytes at any thread count.
    """
    ir_intr.check_frame("thermal frame", thermal)
    grid = backproject(range_frame, tof_intr)  # also checks TOF dimensions
    points = grid.reshape(-1, 3)
    valid = range_frame.valid.reshape(-1)
    temps = np.empty(len(points))
    reason = np.empty(len(points), dtype=np.uint8)

    def fuse_block(start, stop):
        rows = slice(start, stop)
        pixels, in_front = project_points(ext.apply(points[rows]), ir_intr)
        temps[rows], in_field = sample_temperature_grid(thermal, pixels[:, 0], pixels[:, 1])
        # later stages overwrite earlier ones: a point behind the camera
        # projects to NaN and is never in the field, and an invalid range
        # trumps both
        block = reason[rows]
        block.fill(int(FuseReason.OUT_OF_IR_FIELD))
        block[in_field] = FuseReason.VALID
        block[~in_front] = FuseReason.BEHIND_IR_CAMERA
        invalid = ~valid[rows]
        block[invalid] = FuseReason.INVALID_RANGE
        temps[rows][invalid] = 0.0  # sampling already zeroed every entry outside the field

    # a block of points at a time, so the float64 temporaries stay a few
    # blocks in size whatever the resolution, spread over a thread per CPU
    run_blocks(len(points), fuse_block)

    shape = grid.shape[:2]
    return Thermogram(grid, temps.reshape(shape), reason.reshape(shape))


def fuse_summary(thermogram: Thermogram) -> dict[str, float]:
    """Fraction of entries per reason code."""
    total = thermogram.reason.size
    return {
        reason.name.lower(): float(np.count_nonzero(thermogram.reason == reason)) / total
        for reason in FuseReason
    }


def thermogram_to_text(thermogram: Thermogram, file: TextIO) -> None:
    """Whitespace-delimited table (x y z temperature reason), one row per
    pixel, written to the open text ``file`` a block of rows at a time.

    Each value is formatted with ``%.9g``; the bytes equal those of
    ``np.savetxt(fmt="%.9g")``. A block is formatted by
    :func:`tofir.container.format_rows`: values whose 9-digit rounding it
    can prove (finite, fixed notation with at most 7 integer digits, not
    within 1e-6 of a rounding tie) are turned into digits by integer array
    arithmetic, and every other value goes through ``%`` on its own.
    """
    points = thermogram.points.reshape(-1, 3)
    temperature = thermogram.temperature.ravel()
    reason = thermogram.reason.ravel()
    file.write("# x y z temperature reason\n")
    for start in range(0, len(points), _TEXT_BLOCK_ROWS):
        rows = slice(start, start + _TEXT_BLOCK_ROWS)
        block = np.column_stack(
            [points[rows], temperature[rows], reason[rows].astype(np.float64)]
        )
        file.write(format_rows(block))
