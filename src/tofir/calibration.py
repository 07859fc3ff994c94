"""Estimating the unknown inter-camera rotation from target observations.

Each observation pairs a target seen by the range camera (sub-pixel position
plus independently known distance, so range-measurement noise never enters)
with its measured sub-pixel position in the IR image. The virtual point is
reconstructed, moved by the candidate rotation and the known translation,
projected into the IR image, and compared against the measurement; the
rotation minimizing the summed projection error is the calibration result.

Solver notes: the sum of squared pixel distances is minimized with a damped
Gauss-Newton iteration over 3 axis-angle increment parameters composed onto
the current rotation. Squaring gives smooth derivatives and the same
zero-residual minimizer as the plain distance sum; ``robust=True`` switches to
iteratively reweighted steps that approximate the unsquared sum for noisy or
outlier-laden data. Jacobians come from central finite differences: with only
three parameters the cost is negligible and there is no derivation to get
wrong. An analytic Jacobian can replace `_jacobian` behind the same interface.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import lift, project_points
from .container import format_rows, replacing
from .document import check
from .errors import DegenerateGeometryError, InsufficientDataError
from .thermal import IrIntrinsics
from .tof import TofIntrinsics

BEHIND_CAMERA_PENALTY = 1e6  # pixels; repels the solver instead of aborting

_FD_STEP = 1e-6  # rad, central-difference step
_STEP_TOL = 1e-10  # rad
_COST_TOL = 1e-12  # relative cost decrease
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class TargetObservation:
    """One calibration target: range-camera pixel + known distance + IR pixel.

    Every field must be finite and the distance positive: a NaN or infinite
    value raises ``ValueError`` here instead of reaching the solver, which
    could not converge on it.
    """

    u: float  # range-camera x, pixels
    v: float  # range-camera y, pixels
    distance: float  # meters, known independently of the range measurement
    ir_x: float  # measured IR x, pixels
    ir_y: float  # measured IR y, pixels

    def __post_init__(self):
        check("observation values", (self.u, self.v, self.distance, self.ir_x, self.ir_y))
        check("target distance", self.distance, "positive")


@dataclass(frozen=True)
class CalibrationResult:
    rotation: np.ndarray  # (3, 3), re-orthonormalized
    residuals: np.ndarray  # (n,) pixel distances at the final rotation
    total_error: float  # sum of residuals
    iterations: int  # accepted update steps
    converged: bool
    stop_reason: str  # "step_tolerance" | "cost_tolerance" | "max_iterations" | "stalled"


def axis_angle_matrix(rotvec) -> np.ndarray:
    """Rotation matrix for an axis-angle vector (Rodrigues formula)."""
    v = np.asarray(rotvec, dtype=np.float64).reshape(3)
    theta = float(np.linalg.norm(v))
    skew = np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )
    if theta < 1e-12:
        return np.eye(3) + skew
    k = skew / theta
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def orthonormalize_rotation(matrix) -> np.ndarray:
    """Nearest proper rotation in the Frobenius sense (via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(matrix, dtype=np.float64))
    if np.linalg.det(u @ vt) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
    return u @ vt


def rotation_angle_between(r_a, r_b) -> float:
    """Geodesic distance between two rotations, radians."""
    trace = np.trace(np.asarray(r_a).T @ np.asarray(r_b))
    return float(np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0)))


# --- projection error -----------------------------------------------------------

def _observation_arrays(observations: Sequence[TargetObservation], tof_intr: TofIntrinsics):
    """Range-camera target points (no rotation moves them) and measured IR pixels."""
    u = np.array([o.u for o in observations])
    v = np.array([o.v for o in observations])
    dist = np.array([o.distance for o in observations])
    points = lift(tof_intr, u, v, dist)
    measured = np.array([[o.ir_x, o.ir_y] for o in observations])
    return points, measured


def _residual_matrix(rotation, translation, points, measured, ir_intr):
    """Projected minus measured IR pixels, (n, 2), for a candidate rotation.

    Points landing behind the IR camera get the large constant penalty
    instead of raising, so line searches can step through bad poses.
    """
    q = points @ np.asarray(rotation, dtype=np.float64).T + np.asarray(translation, dtype=np.float64)
    predicted, in_front = project_points(q, ir_intr)
    res = predicted - measured
    res[~in_front] = (BEHIND_CAMERA_PENALTY, 0.0)
    return res


# --- rotation estimation --------------------------------------------------------

def _check_geometry(observations):
    if len(observations) < 3:
        raise InsufficientDataError(
            f"need at least 3 observations, got {len(observations)}"
        )
    pix = np.array([[o.u, o.v] for o in observations], dtype=np.float64)
    centered = pix - pix.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[1] <= max(1e-9 * sv[0], 1e-12):
        raise DegenerateGeometryError(
            "observations are collinear in the range image "
            f"(singular values {sv[0]:.3e}, {sv[1]:.3e})"
        )


def estimate_rotation(
    observations: Sequence[TargetObservation],
    translation,
    tof_intr: TofIntrinsics,
    ir_intr: IrIntrinsics,
    initial_rotation=None,
    *,
    robust: bool = False,
) -> CalibrationResult:
    """Find the rotation minimizing the summed IR projection error.

    Starts from ``initial_rotation`` (identity by default, the nominal
    parallel-mounted configuration) and iterates damped Gauss-Newton steps on
    axis-angle increments until the step norm drops below 1e-10 rad, the
    relative cost decrease drops below 1e-12, or 200 iterations are done.
    The returned rotation is re-orthonormalized. A NaN or infinite entry in
    ``translation`` or ``initial_rotation`` raises ``ValueError``.
    """
    translation = np.asarray(translation, dtype=np.float64).reshape(3)
    check("translation", translation.tolist())
    if initial_rotation is not None:
        check("initial_rotation", np.asarray(initial_rotation, dtype=np.float64).ravel().tolist())
    _check_geometry(observations)
    points, measured = _observation_arrays(observations, tof_intr)

    rotation = np.eye(3) if initial_rotation is None else orthonormalize_rotation(initial_rotation)

    def residuals(rot):
        return _residual_matrix(rot, translation, points, measured, ir_intr)

    def weights_for(res):
        if not robust:
            return np.ones(res.shape[0])
        # reweighting that turns the squared objective into ~sum of distances
        norms = np.hypot(res[:, 0], res[:, 1])
        return 1.0 / np.sqrt(np.maximum(norms, 1e-9))

    res = residuals(rotation)
    weights = weights_for(res)
    cost = float(np.sum((weights[:, None] * res) ** 2))

    lam = 1e-3
    iterations = 0
    stop_reason = "max_iterations"
    converged = False

    for _ in range(_MAX_ITERATIONS):
        jac = _jacobian(residuals, rotation, weights)
        flat = (weights[:, None] * res).ravel()
        gradient = jac.T @ flat
        hessian = jac.T @ jac

        accepted = False
        for _ in range(30):
            try:
                delta = np.linalg.solve(hessian + lam * np.eye(3), -gradient)
            except np.linalg.LinAlgError:
                delta, *_ = np.linalg.lstsq(hessian + lam * np.eye(3), -gradient, rcond=None)
            if np.linalg.norm(delta) < _STEP_TOL:
                stop_reason = "step_tolerance"
                converged = True
                break
            trial_rotation = axis_angle_matrix(delta) @ rotation
            trial_res = residuals(trial_rotation)
            trial_cost = float(np.sum((weights[:, None] * trial_res) ** 2))
            if trial_cost < cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            if not converged:
                stop_reason = "stalled"
            break

        iterations += 1
        lam = max(lam / 3.0, 1e-15)
        decrease = (cost - trial_cost) / max(cost, 1e-300)
        rotation = trial_rotation
        res = trial_res
        weights = weights_for(res)
        cost = float(np.sum((weights[:, None] * res) ** 2))
        if decrease < _COST_TOL:
            stop_reason = "cost_tolerance"
            converged = True
            break

    rotation = orthonormalize_rotation(rotation)
    final = residuals(rotation)
    per_obs = np.hypot(final[:, 0], final[:, 1])
    return CalibrationResult(
        rotation=rotation,
        residuals=per_obs,
        total_error=float(per_obs.sum()),
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
    )


def _jacobian(residuals, rotation, weights):
    n = weights.shape[0]
    jac = np.empty((2 * n, 3))
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = _FD_STEP
        plus = weights[:, None] * residuals(axis_angle_matrix(step) @ rotation)
        minus = weights[:, None] * residuals(axis_angle_matrix(-step) @ rotation)
        jac[:, axis] = ((plus - minus) / (2.0 * _FD_STEP)).ravel()
    return jac


# --- observation files and reports ----------------------------------------------

def load_observations(path) -> list[TargetObservation]:
    """Read observations from delimited text: u v distance ir_x ir_y per line."""
    table = np.loadtxt(path, ndmin=2)
    if table.size == 0:
        return []
    if table.shape[1] != 5:
        raise ValueError(f"expected 5 columns (u v distance ir_x ir_y), got {table.shape[1]}")
    return [TargetObservation(*row) for row in table]


def save_observations(path, observations: Sequence[TargetObservation]) -> None:
    """Write the observation table to ``path``, whole or not at all: a
    ``#`` header line, then ``u v distance ir_x ir_y`` per observation,
    each value as ``%.9g``."""
    table = np.array(
        [[o.u, o.v, o.distance, o.ir_x, o.ir_y] for o in observations], dtype=np.float64
    ).reshape(-1, 5)
    with replacing(path, text=True) as fh:
        fh.write("# u v distance ir_x ir_y\n")
        fh.write(format_rows(table))


def format_report(result: CalibrationResult) -> str:
    buf = io.StringIO()
    buf.write(f"converged: {result.converged}\n")
    buf.write(f"stop_reason: {result.stop_reason}\n")
    buf.write(f"iterations: {result.iterations}\n")
    buf.write(f"total_error_px: {result.total_error:.9g}\n")
    rms = float(np.sqrt(np.mean(result.residuals**2))) if len(result.residuals) else 0.0
    buf.write(f"residual_rms_px: {rms:.9g}\n")
    buf.write("residuals_px:\n")
    for i, r in enumerate(result.residuals):
        buf.write(f"  {i}: {r:.9g}\n")
    return buf.getvalue()
