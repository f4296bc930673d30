"""Calibrated pinhole camera geometry.

World convention: a camera maps a world point X to camera coordinates
x_cam = R @ (X - o), then to the image through K. Depth is the camera-z
component and must be strictly positive for a point to project.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import (
    DegenerateBaseline,
    DegenerateGeometry,
    DepthNonPositive,
    InsufficientObservations,
    SingularProjection,
    ValidationError,
)

MIN_DEPTH = 1e-9
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
        if self.fps <= 0:
            raise ValidationError("fps must be positive")

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

    def conditioned_projection(self) -> np.ndarray:
        """Projection matrix premultiplied so pixels land in [-1, 1]."""
        t = np.array([
            [2.0 / self.width, 0.0, -1.0],
            [0.0, 2.0 / self.height, -1.0],
            [0.0, 0.0, 1.0],
        ])
        return np.ascontiguousarray(t @ self.projection_matrix)


@dataclass(frozen=True)
class Ray3D:
    """Half-line from origin along a unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64).reshape(3))
        d = np.asarray(self.direction, dtype=np.float64).reshape(3)
        n = np.linalg.norm(d)
        if not np.isfinite(n) or n < 1e-12:
            raise ValidationError("ray direction must be non-zero")
        object.__setattr__(self, "direction", d / n)

    def point_at(self, t: float) -> np.ndarray:
        return self.origin + t * self.direction


def project(point, camera: CameraCalibration) -> np.ndarray:
    """Pixel of a world point, raises DepthNonPositive behind the camera."""
    pts = np.ascontiguousarray(point, dtype=np.float64).reshape(1, 3)
    uv, depth = kernels.project_points(pts, camera.K, camera.R, camera.o)
    if depth[0] <= MIN_DEPTH:
        raise DepthNonPositive(
            f"point depth {depth[0]:.3g} is not in front of camera {camera.cam_id}"
        )
    return uv[0]


def back_project_ray(pixel, camera: CameraCalibration) -> Ray3D:
    """Ray through the camera center and a pixel."""
    u, v = float(pixel[0]), float(pixel[1])
    direction = kernels.back_project_dir(u, v, camera.krinv)
    return Ray3D(origin=camera.o.copy(), direction=direction)


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


def point_ray_distance_3d(point, ray: Ray3D) -> float:
    """Distance from a world point to the infinite line carrying the ray."""
    p = np.ascontiguousarray(point, dtype=np.float64).reshape(3)
    return kernels.point_ray_distance(p, ray.origin, ray.direction)


def triangulate(pixels, cameras, weights=None) -> np.ndarray:
    """Weighted linear triangulation of one 3D point from two or more views.

    pixels (M,2) pairs with cameras (length M). Weights default to 1 and
    only their ratios matter. Raises InsufficientObservations for M < 2
    and DegenerateGeometry when the views do not pin down a finite point.
    """
    uv = np.ascontiguousarray(pixels, dtype=np.float64).reshape(-1, 2)
    m = uv.shape[0]
    if m != len(cameras):
        raise ValidationError(f"{m} pixels but {len(cameras)} cameras")
    if m < 2:
        raise InsufficientObservations("triangulation needs at least two views")
    if weights is None:
        w = np.ones(m)
    else:
        w = np.ascontiguousarray(weights, dtype=np.float64).reshape(m)
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be positive and finite")
    uvn = np.empty((m, 2))
    pmats = np.empty((m, 3, 4))
    for i, cam in enumerate(cameras):
        uvn[i, 0] = uv[i, 0] * (2.0 / cam.width) - 1.0
        uvn[i, 1] = uv[i, 1] * (2.0 / cam.height) - 1.0
        pmats[i] = cam.conditioned_projection()
    xyz, status = kernels.triangulate_batch(uvn[None], pmats[None], w[None],
                                            np.ones((1, m), np.bool_))
    if status[0] != 0:
        raise DegenerateGeometry("observation rays do not define a unique finite point")
    return xyz[0]


class CameraRig:
    """A fixed set of calibrated cameras with precomputed pairwise geometry.

    Exposes the stacked arrays the kernels consume: fundamental matrices
    between every ordered camera pair, K, R and inverted K*R per camera,
    camera centers, conditioned projection matrices, and pixel scale
    factors.
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
        self.k_table = np.stack([c.K for c in self.cameras])
        self.r_table = np.stack([c.R for c in self.cameras])
        self.krinv_table = np.stack([c.krinv for c in self.cameras])
        self.pn_table = np.ascontiguousarray(
            np.stack([c.conditioned_projection() for c in self.cameras])
        )
        self.su = np.array([2.0 / c.width for c in self.cameras])
        self.sv = np.array([2.0 / c.height for c in self.cameras])
        fps = {c.fps for c in self.cameras}
        if len(fps) != 1:
            raise ValidationError("rig cameras must share one frame rate")
        self.fps = fps.pop()

    def __len__(self):
        return len(self.cameras)
