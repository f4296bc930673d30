"""2D-3D and 2D-2D pose affinities.

Two families of scores: time-scaled image-distance affinity between a
tracked 3D skeleton's projection and a detected 2D pose, and symmetric
epipolar affinity between 2D poses seen from different cameras.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import geometry, kernels
from .errors import ConfigError, InvalidInterval, NoValidJoints
from .geometry import CameraCalibration

_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class AffinityConfig:
    """Matching thresholds.

    alpha_2d: tolerated image motion in px per second of staleness.
    alpha_epi: epipolar distance in px at which 2D-2D affinity hits zero.
    tau: reconstruction window length in frames.
    epsilon: minimum count of positive joint affinities for a valid match.
    lambda_a: staleness decay rate per second.
    conf_floor: detection confidence below which a joint is invalid.
    image_margin: px outside the image bounds a valid joint may lie.
    max_dt: optional clamp in seconds on the staleness entering the score.
    """

    alpha_2d: float = 60.0
    alpha_epi: float = 30.0
    tau: int = 3
    epsilon: int = 10
    lambda_a: float = 3.0
    conf_floor: float = 0.1
    image_margin: float = 10.0
    max_dt: float | None = None

    def __post_init__(self):
        numeric = (int, float, np.integer, np.floating)
        for name in ("alpha_2d", "alpha_epi", "tau", "epsilon", "lambda_a",
                     "conf_floor", "image_margin"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numeric):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if self.max_dt is not None and not isinstance(self.max_dt, numeric):
            raise ConfigError(f"max_dt must be a number or null, got {self.max_dt!r}")
        if self.alpha_2d <= 0 or self.alpha_epi <= 0:
            raise ConfigError("alpha_2d and alpha_epi must be positive")
        if self.tau < 1 or int(self.tau) != self.tau:
            raise ConfigError("tau must be a positive integer frame count")
        if self.epsilon < 0 or int(self.epsilon) != self.epsilon:
            raise ConfigError("epsilon must be a non-negative integer")
        if self.lambda_a < 0:
            raise ConfigError("lambda_a must be non-negative")
        if not 0.0 <= self.conf_floor < 1.0:
            raise ConfigError("conf_floor must lie in [0, 1)")
        if self.max_dt is not None and self.max_dt <= 0:
            raise ConfigError("max_dt must be positive when set")

    def with_overrides(self, **kwargs) -> "AffinityConfig":
        known = {f.name for f in fields(self)}
        for key in kwargs:
            if key not in known:
                raise ConfigError(f"unknown affinity parameter {key!r}")
        return replace(self, **kwargs)


PRESETS = {
    "campus": AffinityConfig(alpha_2d=30.0, alpha_epi=15.0, tau=3, epsilon=14, lambda_a=3.0),
    "shelf": AffinityConfig(alpha_2d=70.0, alpha_epi=60.0, tau=3, epsilon=10, lambda_a=3.0),
    "panoptic": AffinityConfig(alpha_2d=60.0, alpha_epi=30.0, tau=3, epsilon=10, lambda_a=3.0),
}


def preset(name: str) -> AffinityConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}, expected one of {sorted(PRESETS)}"
        ) from None


@dataclass
class Pose2D:
    """One detected 2D pose: pixel coordinates, confidences, validity mask."""

    cam_id: int
    time_s: float
    uv: np.ndarray
    conf: np.ndarray
    valid: np.ndarray
    frame: int = -1

    @classmethod
    def from_detection(cls, cam_id: int, time_s: float, joints,
                       config: AffinityConfig,
                       camera: CameraCalibration | None = None,
                       frame: int = -1) -> "Pose2D":
        """Build a pose from an (N,3) array of (u, v, confidence) rows.

        Joints below the confidence floor, with non-finite coordinates, or
        farther than image_margin outside the image are marked invalid.
        """
        arr = np.asarray(joints, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError(f"expected (N,3) joint array, got {arr.shape}")
        return cls.from_detections(cam_id, time_s, arr[None], config,
                                   camera=camera, frame=frame)[0]

    @classmethod
    def from_detections(cls, cam_id: int, time_s: float, joints: np.ndarray,
                        config: AffinityConfig,
                        camera: CameraCalibration | None = None,
                        frame: int = -1) -> list["Pose2D"]:
        """Build one pose per row of a float64 (P,N,3) array of
        (u, v, confidence) detections seen by one camera at one time.

        The caller checks the shape. Validity is decided for all P*N
        joints at once, by the rule from_detection documents; each pose
        holds C-contiguous row slices of the batch arrays.
        """
        # One test for every column: a joint is valid when u, v and conf
        # all lie in [lo, hi]. The finite range stands for "finite" (NaN
        # fails every comparison), the floor bounds conf from below, and
        # a camera narrows u and v to the image plus its margin.
        lo = [-_FLOAT_MAX, -_FLOAT_MAX, config.conf_floor]
        hi = [_FLOAT_MAX, _FLOAT_MAX, _FLOAT_MAX]
        if camera is not None:
            m = config.image_margin
            lo[0] = lo[1] = max(-m, -_FLOAT_MAX)
            hi[0] = min(camera.width + m, _FLOAT_MAX)
            hi[1] = min(camera.height + m, _FLOAT_MAX)
        valid = ((joints >= lo) & (joints <= hi)).all(axis=2)
        uv = np.ascontiguousarray(joints[:, :, :2])
        conf = np.ascontiguousarray(joints[:, :, 2])
        time_s = float(time_s)
        frame = int(frame)
        return [cls(cam_id, time_s, uv[p], conf[p], valid[p], frame)
                for p in range(joints.shape[0])]

    @property
    def n_joints(self) -> int:
        return self.uv.shape[0]


def _effective_dt(dt: float, config: AffinityConfig) -> float:
    if config.max_dt is not None:
        return min(dt, config.max_dt)
    return dt


def joint_affinity(x, x_proj, dt: float, config: AffinityConfig) -> float:
    """Affinity of one detected joint to one projected skeleton joint.

    Linear in image distance, reaching zero at alpha_2d * dt px, decayed
    by exp(-lambda_a * dt). dt must be positive.
    """
    if dt <= 0:
        raise InvalidInterval(f"dt must be positive, got {dt}")
    dt = _effective_dt(dt, config)
    d = float(np.hypot(x[0] - x_proj[0], x[1] - x_proj[1]))
    return (1.0 - d / (config.alpha_2d * dt)) * float(np.exp(-config.lambda_a * dt))


def _score_single(pose: Pose2D, skeleton, camera: CameraCalibration,
                  config: AffinityConfig, part_aware: bool) -> float:
    dt = pose.time_s - skeleton.time_s
    min_dt = (1.0 / camera.fps) * (1.0 - 1e-9)
    if dt < min_dt:
        raise InvalidInterval(
            f"pose at {pose.time_s} is not later than skeleton at {skeleton.time_s} "
            f"by at least one frame interval"
        )
    if not pose.valid.any():
        raise NoValidJoints("pose has no joints above the confidence floor")
    track_pts = np.ascontiguousarray(skeleton.joints.reshape(1, -1, 3))
    track_valid = np.ascontiguousarray(
        (skeleton.flags != kernels.FLAG_MISSING).reshape(1, -1)
    )
    dts = np.array([_effective_dt(dt, config)])
    scores = kernels.score_pose_pairs(
        track_pts, track_valid, dts, camera.K, camera.R, camera.o,
        np.ascontiguousarray(pose.uv.reshape(1, -1, 2)),
        np.ascontiguousarray(pose.valid.reshape(1, -1)),
        config.alpha_2d, config.lambda_a, config.epsilon, part_aware,
    )
    return float(scores[0, 0])


def pose_track_affinity(pose: Pose2D, skeleton, camera: CameraCalibration,
                        config: AffinityConfig) -> float:
    """Part-aware affinity between a 2D pose and a tracked skeleton.

    Mean of the strictly positive joint affinities against the skeleton's
    projection into the pose's camera; zero when fewer than epsilon
    joints score positive.
    """
    return _score_single(pose, skeleton, camera, config, part_aware=True)


def body_aware_affinity(pose: Pose2D, skeleton, camera: CameraCalibration,
                        config: AffinityConfig) -> float:
    """Whole-body baseline score: plain mean over all comparable joints."""
    return _score_single(pose, skeleton, camera, config, part_aware=False)


def epipolar_joint_affinity(x_i, x_j, cam_i: CameraCalibration,
                            cam_j: CameraCalibration,
                            config: AffinityConfig) -> float:
    """Symmetric epipolar affinity of two pixels in different cameras."""
    f_ij = geometry.fundamental_matrix(cam_i, cam_j)
    f_ji = geometry.fundamental_matrix(cam_j, cam_i)
    return float(kernels.epipolar_pair_affinities(
        float(x_i[0]), float(x_i[1]), float(x_j[0]), float(x_j[1]),
        f_ij, f_ji, config.alpha_epi,
    ))


def epipolar_pose_affinity(pose_i: Pose2D, pose_j: Pose2D,
                           cam_i: CameraCalibration, cam_j: CameraCalibration,
                           config: AffinityConfig) -> float:
    """Summed per-joint epipolar affinity over mutually valid joints."""
    if pose_i.n_joints != pose_j.n_joints:
        raise ValueError("poses have different joint counts")
    f_ij = geometry.fundamental_matrix(cam_i, cam_j)
    f_ji = geometry.fundamental_matrix(cam_j, cam_i)
    return float(kernels.epipolar_pose_score(
        pose_i.uv, pose_i.valid, pose_j.uv, pose_j.valid,
        f_ij, f_ji, config.alpha_epi,
    ))
