"""Online reconstruction and tracking of multiple 3D human skeletons
from calibrated multi-camera 2D pose detections.

The top level holds the library entry points and the error types; the
rest is reached through the submodules (geometry, kernels, tracker,
fileio, evaluation, synth, ...).
"""

from .errors import (
    ConfigError,
    DegenerateBaseline,
    DegenerateGeometry,
    DepthNonPositive,
    InsufficientObservations,
    MvTrackError,
    NonMonotonicFrames,
    NonMonotonicTime,
    ParseError,
    SchemaMismatch,
    SingularProjection,
    ValidationError,
)
from .geometry import CameraCalibration, CameraRig
from .affinity import AffinityConfig, preset
from .tracker import PoseTracker, TrackerConfig
from .synth import SceneConfig, generate
from .evaluation import pcp_evaluate
from .fileio import TrackWriter, load_calibration, load_detections

__version__ = "0.1.0"

__all__ = [
    "CameraCalibration",
    "CameraRig",
    "AffinityConfig",
    "preset",
    "TrackerConfig",
    "PoseTracker",
    "SceneConfig",
    "generate",
    "pcp_evaluate",
    "load_detections",
    "load_calibration",
    "TrackWriter",
    "MvTrackError",
    "ConfigError",
    "ValidationError",
    "ParseError",
    "SchemaMismatch",
    "DepthNonPositive",
    "SingularProjection",
    "DegenerateBaseline",
    "DegenerateGeometry",
    "InsufficientObservations",
    "NonMonotonicFrames",
    "NonMonotonicTime",
]
