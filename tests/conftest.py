import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from tofir import (
    Extrinsics,
    IrIntrinsics,
    NoiseConfig,
    Plane,
    Scene,
    Sphere,
    TofIntrinsics,
)
from tofir import simulator
from tofir.calibration import _residual_matrix, _table
from tofir.camera import lift


@pytest.fixture(autouse=True)
def _no_kept_frame_base():
    """Each test starts with no range frame base kept, so a render it compares
    against is made in the test, not taken from an earlier one."""
    simulator._frame_base.cache_clear()


@pytest.fixture
def tof_intr() -> TofIntrinsics:
    # 64x50 sensor, ~40 x 31 degree field of view
    return TofIntrinsics(focal_length=4e-3, width=64, height=50, pixel_pitch=45e-6, f_mod=21e6)


@pytest.fixture
def ir_intr() -> IrIntrinsics:
    # 160x120 sensor, ~45 x 34 degree field of view
    return IrIntrinsics(focal_length=4.8e-3, width=160, height=120, pixel_pitch=25e-6)


@pytest.fixture
def baseline_ext() -> Extrinsics:
    return Extrinsics(np.eye(3), np.array([0.05, 0.0, 0.0]))


@pytest.fixture
def wall_scene() -> Scene:
    return Scene((Plane("z", 3.0, 1.0, 300.0),))


@pytest.fixture
def blob_scene() -> Scene:
    # person-sized warm sphere 1 m in front of a 3 m wall
    return Scene(
        (
            Plane("z", 3.0, 1.0, 300.0),
            Sphere((0.0, 0.0, 1.0), 0.2, 1.0, 310.0),
        )
    )


@pytest.fixture
def quiet_noise() -> NoiseConfig:
    return NoiseConfig.quiet()


def rotation_about(axis, degrees: float) -> np.ndarray:
    """Reference rotation matrix from an independent implementation (scipy)."""
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    return Rotation.from_rotvec(axis * np.deg2rad(degrees)).as_matrix()


def geodesic_degrees(r_a: np.ndarray, r_b: np.ndarray) -> float:
    cos = (np.trace(r_a.T @ r_b) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))


def projection_error(obs, rotation, translation, tof_intr, ir_intr) -> float:
    """Pixel distance between one observation's measured and projected IR
    position, through the solver's residual function."""
    table = _table([obs])
    points = lift(tof_intr, table[:, 0], table[:, 1], table[:, 2])
    res = _residual_matrix(rotation, translation, points, table[:, 3:], ir_intr)
    return float(np.hypot(res[0, 0], res[0, 1]))
