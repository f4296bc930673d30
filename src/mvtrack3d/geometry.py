"""Calibrated pinhole camera geometry.

World convention: a camera maps a world point X to camera coordinates
x_cam = R @ (X - o), then to the image through K. Depth is the camera-z
component and must be strictly positive for a point to project.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateBaseline, SingularProjection, ValidationError

MIN_BASELINE = 1e-9


def _as_matrix(value, rows, cols, name):
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if arr.shape != (rows, cols):
        raise ValidationError(f"{name} must have shape ({rows}, {cols}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass
class CameraCalibration:
    """One calibrated camera: intrinsics K, rotation R, center o, image size, fps."""

    cam_id: int
    K: np.ndarray
    R: np.ndarray
    o: np.ndarray
    width: int
    height: int
    fps: float

    def __post_init__(self):
        self.K = _as_matrix(self.K, 3, 3, "K")
        self.R = _as_matrix(self.R, 3, 3, "R")
        self.o = np.ascontiguousarray(self.o, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(self.o)):
            raise ValidationError("o contains non-finite entries")
        if self.K[0, 0] <= 0 or self.K[1, 1] <= 0:
            raise ValidationError("focal lengths must be positive")
        if abs(self.K[2, 2] - 1.0) > 1e-9 or np.any(np.abs(self.K[2, :2]) > 1e-9):
            raise ValidationError("K must be an upper-triangular projective intrinsic matrix")
        if not np.allclose(self.R @ self.R.T, np.eye(3), atol=1e-6):
            raise ValidationError("R must be orthonormal")
        if np.linalg.det(self.R) < 0:
            raise ValidationError("rotation determinant must be +1, got a reflection")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("image size must be positive")
        if not 0 < self.fps < np.inf:  # NaN fails both tests
            raise ValidationError(f"fps must be positive and finite, got "
                                  f"{self.fps!r}")

    @cached_property
    def krinv(self) -> np.ndarray:
        """(K R)^-1, which maps a homogeneous pixel to its ray direction.
        Raises SingularProjection when K R is numerically singular."""
        kr = self.K @ self.R
        if abs(np.linalg.det(kr)) < 1e-12:
            raise SingularProjection(f"K*R of camera {self.cam_id} is singular")
        return np.ascontiguousarray(np.linalg.inv(kr))

    @property
    def projection_matrix(self) -> np.ndarray:
        """3x4 matrix mapping homogeneous world points to homogeneous pixels."""
        p = np.empty((3, 4))
        p[:, :3] = self.K @ self.R
        p[:, 3] = -self.K @ self.R @ self.o
        return p


def fundamental_matrix(cam_src: CameraCalibration, cam_dst: CameraCalibration) -> np.ndarray:
    """Matrix F with x_dst^T F x_src = 0 for corresponding pixels."""
    baseline = cam_dst.o - cam_src.o
    if np.linalg.norm(baseline) < MIN_BASELINE:
        raise DegenerateBaseline(
            f"cameras {cam_src.cam_id} and {cam_dst.cam_id} share a center"
        )
    r_rel = cam_dst.R @ cam_src.R.T
    t = cam_dst.R @ (cam_src.o - cam_dst.o)
    tx = np.array([
        [0.0, -t[2], t[1]],
        [t[2], 0.0, -t[0]],
        [-t[1], t[0], 0.0],
    ])
    f = np.linalg.inv(cam_dst.K).T @ tx @ r_rel @ np.linalg.inv(cam_src.K)
    return np.ascontiguousarray(f)


class CameraRig:
    """A fixed set of calibrated cameras with precomputed pairwise geometry.

    Exposes the stacked arrays the kernels consume: fundamental matrices
    between every ordered camera pair, each camera's 3x4 projection
    matrix (p_table), which both projects and triangulates, and its
    inverted K*R and center.
    """

    def __init__(self, cameras):
        if not cameras:
            raise ValidationError("a rig needs at least one camera")
        ids = [c.cam_id for c in cameras]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate camera ids in rig")
        self.cameras = list(cameras)
        n = len(self.cameras)
        self.f_table = np.zeros((n, n, 3, 3))
        for i, ci in enumerate(self.cameras):
            for j, cj in enumerate(self.cameras):
                if i != j:
                    self.f_table[i, j] = fundamental_matrix(ci, cj)
        self.origins = np.ascontiguousarray(np.stack([c.o for c in self.cameras]))
        self.p_table = np.stack([c.projection_matrix for c in self.cameras])
        self.krinv_table = np.stack([c.krinv for c in self.cameras])
        fps = {c.fps for c in self.cameras}
        if len(fps) != 1:
            raise ValidationError("rig cameras must share one frame rate")
        self.fps = fps.pop()

    def __len__(self):
        return len(self.cameras)
