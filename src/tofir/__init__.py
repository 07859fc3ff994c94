"""Range camera + thermal infrared camera toolkit.

Models a phase-measuring time-of-flight range camera and a thermal infrared
camera, fuses their frames into 3D thermograms, estimates the unknown
inter-sensor rotation from target observations, and segments moving objects
against a per-pixel background model. A built-in synthetic-scene renderer
provides ground truth for all of it.
"""

from .calibration import CalibrationResult, TargetObservation, estimate_rotation
from .camera import undistort_pixel
from .container import FrameContainer
from .errors import (
    ContainerFormatError,
    DegenerateGeometryError,
    DimensionMismatchError,
    InsufficientDataError,
)
from .fusion import Extrinsics, FuseReason, Thermogram, fuse
from .segmentation import (
    BackgroundModel,
    ForegroundMask,
    build_background,
    foreground_mask,
)
from .simulator import (
    CalibrationTarget,
    GroundTruth,
    MultipathConfig,
    NoiseConfig,
    Plane,
    ScatteringConfig,
    Scene,
    Sphere,
    make_calibration_set,
    render_ir,
    render_tof,
    render_tof_sequence,
)
from .thermal import IrIntrinsics, ThermalFrame
from .tof import (
    RangeFrame,
    RawTofFrame,
    SPEED_OF_LIGHT,
    TofIntrinsics,
    backproject,
    demodulate,
    phase_for_distance,
    synthesize_buckets,
    unambiguous_range,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundModel",
    "CalibrationResult",
    "CalibrationTarget",
    "ContainerFormatError",
    "DegenerateGeometryError",
    "DimensionMismatchError",
    "Extrinsics",
    "ForegroundMask",
    "FrameContainer",
    "FuseReason",
    "GroundTruth",
    "InsufficientDataError",
    "IrIntrinsics",
    "MultipathConfig",
    "NoiseConfig",
    "Plane",
    "RangeFrame",
    "RawTofFrame",
    "SPEED_OF_LIGHT",
    "ScatteringConfig",
    "Scene",
    "Sphere",
    "TargetObservation",
    "Thermogram",
    "ThermalFrame",
    "TofIntrinsics",
    "backproject",
    "build_background",
    "demodulate",
    "estimate_rotation",
    "foreground_mask",
    "fuse",
    "make_calibration_set",
    "phase_for_distance",
    "render_ir",
    "render_tof",
    "render_tof_sequence",
    "synthesize_buckets",
    "unambiguous_range",
    "undistort_pixel",
]
