"""Association settings and detected 2D poses.

The thresholds and presets here feed the two families of scores, which
kernels computes over whole frames: time-scaled image-distance affinity
between a tracked 3D skeleton's projection and a detected 2D pose
(score_pose_pairs), and symmetric epipolar affinity between 2D poses
seen from different cameras (epipolar_pose_score).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
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
    except (KeyError, TypeError):
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
