"""Association settings and the validity of detected 2D joints.

The thresholds and presets here feed the two families of scores, which
kernels computes over whole frames: time-scaled image-distance affinity
between a tracked 3D skeleton's projection and a detected 2D pose
(score_pose_pairs), and symmetric epipolar affinity between 2D poses
seen from different cameras (epipolar_pose_score).

A camera's detections at one frame are one float64 (P,N,3) array, one
row of N (u, v, confidence) joints per pose; valid_joints decides which
of those P*N joints the scores and the triangulation may use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError
from .geometry import CameraCalibration
from .schema import check_field_types, check_finite, check_known_keys

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
        check_field_types(self)
        check_finite(self)
        if self.alpha_2d <= 0 or self.alpha_epi <= 0:
            raise ConfigError("alpha_2d and alpha_epi must be positive")
        if self.tau < 1:
            raise ConfigError("tau must be a positive integer frame count")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be a non-negative integer")
        if self.lambda_a < 0:
            raise ConfigError("lambda_a must be non-negative")
        if not 0.0 <= self.conf_floor < 1.0:
            raise ConfigError("conf_floor must lie in [0, 1)")
        if self.max_dt is not None and self.max_dt <= 0:
            raise ConfigError("max_dt must be positive when set")

    def with_overrides(self, **kwargs) -> "AffinityConfig":
        check_known_keys(kwargs, affinity={f.name for f in fields(self)})
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


def valid_joints(joints: np.ndarray, config: AffinityConfig,
                 camera: CameraCalibration | None = None) -> np.ndarray:
    """Validity (P,N) of a float64 (P,N,3) array of (u, v, confidence)
    detections seen by one camera.

    A joint is invalid below the confidence floor, with a non-finite
    coordinate or confidence, or, when the camera is given, farther than
    image_margin outside its image. The caller checks the shape.
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
    return ((joints >= lo) & (joints <= hi)).all(axis=2)
