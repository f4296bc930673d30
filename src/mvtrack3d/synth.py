"""Synthetic multi-camera scenes with known 3D ground truth.

Actors walk smooth ellipses around parallel lanes, swinging limbs,
watched by a ring of cameras. Detections are exact pinhole projections of the
ground-truth joints, then corrupted: Gaussian pixel noise on every joint,
per-joint outliers displaced by an exact magnitude in a uniform random
direction, per-pose occlusion of one contiguous limb group (confidence
dropped below the validity floor), and whole-pose dropouts. Every emitted
joint gets exactly one class label in a sidecar record.

Outliers can optionally arrive in bursts: each (camera, actor) pair
carries a two-state Markov chain, and inside a burst one contiguous half
of the body (both arms or both legs, picked when the burst starts) is
displaced at rate outlier_burst while the quiet rate off-burst is scaled
down so the long-run marginal per-joint rate still equals outlier_rate
exactly. Bursts model a detector latching onto a wrong target in one
view for a stretch of frames, which corrupts the same limbs every frame.

Randomness comes from numpy's PCG64 generator seeded from the config, so
equal configs give byte-identical exports. Draws happen in a fixed order:
for each frame, for each camera in rig order, for each actor in id order:
burst transition then group pick on entry (only in burst mode), dropout,
noise, per-joint outlier flips then direction retries in joint order,
occlusion flip then group pick, confidences, occluded-joint confidences;
finally one detection-order permutation per camera.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Iterator

import numpy as np

from . import fileio
from .affinity import AffinityConfig, valid_joints
from .errors import ConfigError
from .geometry import CameraCalibration
from .schema import (
    SYNTH14,
    check_field_types,
    check_finite,
    check_known_keys,
    get_schema,
)
from .tracker import FrameBundle

CLASS_CLEAN = 0
CLASS_NOISY = 1
CLASS_OUTLIER = 2
CLASS_OCCLUDED = 3

CLASS_NAMES = {
    CLASS_CLEAN: "clean",
    CLASS_NOISY: "noisy",
    CLASS_OUTLIER: "outlier",
    CLASS_OCCLUDED: "occluded",
}
CLASS_CODES = {v: k for k, v in CLASS_NAMES.items()}

# Standing pose, meters, columns (lateral, forward, up). Limb lengths are
# human-plausible constants: head 0.20, torso ~0.59, upper arm 0.27,
# forearm 0.26, thigh 0.45, shin 0.42.
_TEMPLATE = np.array([
    [0.00, 0.02, 1.72],   # head top
    [0.00, 0.00, 1.52],   # neck
    [0.20, 0.00, 1.45],   # right shoulder
    [0.23, 0.00, 1.18],   # right elbow
    [0.24, 0.02, 0.92],   # right wrist
    [-0.20, 0.00, 1.45],  # left shoulder
    [-0.23, 0.00, 1.18],  # left elbow
    [-0.24, 0.02, 0.92],  # left wrist
    [0.12, 0.00, 0.95],   # right hip
    [0.13, 0.00, 0.50],   # right knee
    [0.13, 0.00, 0.08],   # right ankle
    [-0.12, 0.00, 0.95],  # left hip
    [-0.13, 0.00, 0.50],  # left knee
    [-0.13, 0.00, 0.08],  # left ankle
], dtype=np.float64)

# Contiguous limb groups a single occluder can hide.
OCCLUSION_GROUPS = (
    (2, 3, 4),     # right arm
    (5, 6, 7),     # left arm
    (8, 9, 10),    # right leg
    (11, 12, 13),  # left leg
)

# Joint groups an outlier burst latches onto: both arms or both legs.
BURST_GROUPS = (
    (2, 3, 4, 5, 6, 7),
    (8, 9, 10, 11, 12, 13),
)

_OUTLIER_RETRIES = 32

# generate holds every joint view of a scene in memory, about 350 bytes
# each (its pixels and validity, its corruption record and its class
# label), so this many take about 1.7 GB; the largest scene in the
# benchmark or the acceptance tests has 252,000.
MAX_JOINT_VIEWS = 5_000_000
# Image sizes allocate nothing, but an exported scene must load back,
# and past 2**64 - 1 the calibration file's width does not read back as
# an int. No sensor in use is wider than about 20,000 px.
MAX_IMAGE_PX = 1 << 16


@dataclass(frozen=True)
class SceneConfig:
    """Everything that determines a synthetic scene, RNG seed included."""

    seed: int = 0
    n_cameras: int = 5
    n_actors: int = 4
    n_frames: int = 500
    fps: float = 25.0
    width: int = 800
    height: int = 600
    focal_px: float = 700.0
    ring_radius: float = 8.0
    camera_height: float = 4.0
    look_at_height: float = 1.0
    arena_half: float = 2.2
    lane_spacing: float = 1.2
    walk_speed: float = 0.5
    swing_amp: float = 0.10
    swing_hz: float = 0.7
    bob_amp: float = 0.015
    noise_px: float = 0.0
    outlier_rate: float = 0.0
    outlier_px: float = 80.0
    outlier_burst: float = 0.0
    outlier_burst_frames: float = 10.0
    occlusion_rate: float = 0.0
    dropout_rate: float = 0.0
    schema_name: str = "synth14"

    def __post_init__(self):
        check_field_types(self)
        # bursts that never end take outlier_burst_frames=inf
        check_finite(self, allow_inf=("outlier_burst_frames",))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("outlier_rate", "occlusion_rate", "dropout_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.noise_px < 0:
            raise ConfigError(f"noise_px must be >= 0, got {self.noise_px}")
        if self.outlier_px < 0:
            raise ConfigError(f"outlier_px must be >= 0, got {self.outlier_px}")
        if self.outlier_burst:
            if not 0.0 < self.outlier_burst <= 1.0:
                raise ConfigError(f"outlier_burst must be in (0, 1], "
                                  f"got {self.outlier_burst}")
            if self.outlier_burst_frames < 1.0:
                raise ConfigError("outlier_burst_frames must be >= 1")
            if self.outlier_rate > 0.0:
                occupancy = self._burst_occupancy()
                if not 0.0 < occupancy <= 0.6:
                    raise ConfigError(
                        "outlier_burst too low for outlier_rate: burst "
                        f"occupancy would be {occupancy:.2f}, needs (0, 0.6]")
        if self.n_cameras < 2:
            raise ConfigError(f"need at least 2 cameras, got {self.n_cameras}")
        if self.n_actors < 1 or self.n_frames < 1:
            raise ConfigError("need at least one actor and one frame")
        for name in ("fps", "focal_px", "ring_radius", "arena_half",
                     "walk_speed", "swing_hz"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("image size must be positive")
        if max(self.width, self.height) > MAX_IMAGE_PX:
            raise ConfigError(f"width and height must be at most "
                              f"{MAX_IMAGE_PX} px, got {self.width}x"
                              f"{self.height}")
        views = (self.n_frames * self.n_cameras * self.n_actors
                 * get_schema(self.schema_name).n_joints)
        if views > MAX_JOINT_VIEWS:
            raise ConfigError(f"n_frames * n_cameras * n_actors * n_joints is "
                              f"{views}, past {MAX_JOINT_VIEWS} joint views")

    def with_overrides(self, **kwargs) -> "SceneConfig":
        check_known_keys(kwargs, scene={f.name for f in fields(self)})
        return replace(self, **kwargs)

    def _burst_occupancy(self) -> float:
        """Stationary share of frames inside a burst that makes the
        long-run per-joint outlier rate equal outlier_rate; inf when
        outlier_burst is not above the quiet rate."""
        share = len(BURST_GROUPS[0]) / get_schema(self.schema_name).n_joints
        quiet = 0.1 * self.outlier_rate
        excess = share * (self.outlier_burst - quiet)
        return (self.outlier_rate - quiet) / excess if excess > 0 else np.inf

    def burst_chain(self) -> tuple[float, float, float] | None:
        """Markov parameters (p_enter, p_exit, quiet_rate) for outlier
        bursts, or None when bursts are off.

        Inside a burst the joints of one burst group are outliers at rate
        outlier_burst; everything else runs at the quiet rate. The
        stationary burst occupancy is chosen so the long-run marginal
        per-joint rate equals outlier_rate exactly.
        """
        if self.outlier_burst <= 0.0 or self.outlier_rate <= 0.0:
            return None
        occupancy = self._burst_occupancy()
        p_exit = 1.0 / self.outlier_burst_frames
        p_enter = occupancy * p_exit / (1.0 - occupancy)
        return p_enter, p_exit, 0.1 * self.outlier_rate


def ring_cameras(cfg: SceneConfig) -> list[CameraCalibration]:
    """Evenly spaced cameras on a circle, all aimed at the arena center."""
    target = np.array([0.0, 0.0, cfg.look_at_height])
    up = np.array([0.0, 0.0, 1.0])
    cameras = []
    for i in range(cfg.n_cameras):
        angle = 2.0 * np.pi * i / cfg.n_cameras + 0.15
        o = np.array([
            cfg.ring_radius * np.cos(angle),
            cfg.ring_radius * np.sin(angle),
            cfg.camera_height,
        ])
        fwd = target - o
        fwd = fwd / np.linalg.norm(fwd)
        right = np.cross(fwd, up)
        right = right / np.linalg.norm(right)
        down = np.cross(fwd, right)
        R = np.stack([right, down, fwd])
        K = np.array([
            [cfg.focal_px, 0.0, cfg.width / 2.0],
            [0.0, cfg.focal_px, cfg.height / 2.0],
            [0.0, 0.0, 1.0],
        ])
        cameras.append(CameraCalibration(
            cam_id=i, K=K, R=R, o=o,
            width=cfg.width, height=cfg.height, fps=cfg.fps,
        ))
    return cameras


def actor_joints(cfg: SceneConfig, actor: int, t: float) -> np.ndarray:
    """Ground-truth world joints (N,3) of one actor at time t seconds.

    Each actor walks an ellipse around its own lane so position and
    heading stay smooth; peak ground speed equals walk_speed. An abrupt
    heading reversal would teleport the lateral joints by half a meter
    between frames, which no detector-noise model should produce.
    """
    lane = cfg.lane_spacing * (actor - (cfg.n_actors - 1) / 2.0)
    a = max(cfg.arena_half - 0.5, 0.5)
    b = 0.25 * cfg.lane_spacing
    omega = cfg.walk_speed / a
    u = omega * t + 2.399 * actor
    x = a * np.cos(u)
    y = lane + b * np.sin(u)
    heading = np.arctan2(b * np.cos(u), -a * np.sin(u))

    scale = 1.0 + 0.06 * ((actor % 3) - 1)
    local = _TEMPLATE * scale
    phase = 2.0 * np.pi * cfg.swing_hz * t + 2.1 * actor
    s = cfg.swing_amp * scale * np.sin(phase)
    arm = 0.8 * s
    local[9, 1] += 0.5 * s
    local[10, 1] += s
    local[12, 1] -= 0.5 * s
    local[13, 1] -= s
    local[3, 1] -= 0.5 * arm
    local[4, 1] -= arm
    local[6, 1] += 0.5 * arm
    local[7, 1] += arm
    local[:, 2] += cfg.bob_amp * np.sin(2.0 * phase)

    forward = np.array([np.cos(heading), np.sin(heading), 0.0])
    lateral = np.array([np.sin(heading), -np.cos(heading), 0.0])
    root = np.array([x, y, 0.0])
    return (root
            + np.outer(local[:, 0], lateral)
            + np.outer(local[:, 1], forward)
            + np.outer(local[:, 2], np.array([0.0, 0.0, 1.0])))


def project_exact(camera: CameraCalibration, joints: np.ndarray) -> np.ndarray:
    """Pinhole projection via the homogeneous 3x4 matrix, (N,2) pixels."""
    P = camera.K @ np.hstack([camera.R, -camera.R @ camera.o[:, None]])
    h = P @ np.vstack([joints.T, np.ones(joints.shape[0])])
    return (h[:2] / h[2]).T


def corrupt_pose(uv: np.ndarray, cfg: SceneConfig, rng: np.random.Generator,
                 camera: CameraCalibration | None = None,
                 outlier_rates: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, list[dict]]:
    """Apply noise, outliers, and occlusion to one pose's pixels uv (N,2).

    Returns the corrupted pose as (N,3) rows of (u, v, confidence) plus
    one {"joint", "class"} record per joint. Gaussian noise goes on every
    joint; each joint independently becomes an outlier, displaced from
    its noisy position by exactly cfg.outlier_px in a uniform random
    direction (directions are redrawn up to 32 times until the target
    lands inside the image); with occlusion probability one contiguous
    limb group has its confidence dropped below the validity floor.
    Occluded beats outlier beats noisy.

    outlier_rates overrides cfg.outlier_rate per joint; the burst
    machinery in generate() uses it to target one body half.
    """
    n = uv.shape[0]
    uv = uv + rng.normal(0.0, cfg.noise_px, size=(n, 2))
    classes = np.full(
        n, CLASS_NOISY if cfg.noise_px > 0 else CLASS_CLEAN, dtype=np.uint8
    )

    width = camera.width if camera is not None else cfg.width
    height = camera.height if camera is not None else cfg.height
    if outlier_rates is None:
        outlier_rates = np.full(n, cfg.outlier_rate)
    hits = rng.random(n) < outlier_rates
    for j in range(n):
        if not hits[j]:
            continue
        classes[j] = CLASS_OUTLIER
        for _ in range(_OUTLIER_RETRIES):
            ang = rng.random() * 2.0 * np.pi
            cand = uv[j] + cfg.outlier_px * np.array([np.cos(ang), np.sin(ang)])
            if 0.0 <= cand[0] <= width and 0.0 <= cand[1] <= height:
                break
        uv[j] = cand

    conf = rng.uniform(0.5, 1.0, size=n)
    if rng.random() < cfg.occlusion_rate:
        group = OCCLUSION_GROUPS[rng.integers(len(OCCLUSION_GROUPS))]
        for j in group:
            classes[j] = CLASS_OCCLUDED
        conf[list(group)] = rng.uniform(0.02, 0.07, size=len(group))

    records = [{"joint": j, "class": CLASS_NAMES[int(classes[j])]}
               for j in range(n)]
    return np.column_stack([uv, conf]), records


@dataclass
class SyntheticScene:
    """A generated scene: cameras, corrupted detections, ground truth."""

    config: SceneConfig
    cameras: list[CameraCalibration]
    bundles: list[FrameBundle]
    gt: np.ndarray                    # (frames, actors, joints, 3)
    times: np.ndarray                 # (frames,)
    corruption: list[dict] = field(default_factory=list)
    actor_of: dict = field(default_factory=dict)   # (frame, cam, pose) -> actor
    class_of: dict = field(default_factory=dict)   # (frame, cam, pose) -> (N,) codes

    @property
    def schema(self):
        return get_schema(self.config.schema_name)

    def ground_truth_frames(self) -> list[fileio.GroundTruthFrame]:
        return [
            fileio.GroundTruthFrame(
                frame=f,
                actors={a: self.gt[f, a] for a in range(self.gt.shape[1])},
            )
            for f in range(self.gt.shape[0])
        ]

    def detection_records(self) -> Iterator[tuple[int, float, int, np.ndarray]]:
        n_joints = self.schema.n_joints
        for bundle in self.bundles:
            for cam_id, poses in bundle.poses.items():
                yield (bundle.frame, bundle.time_s, cam_id,
                       np.reshape(poses, (-1, n_joints, 3)))

    def export(self, out_dir: str) -> dict[str, str]:
        """Write calibration, detections, ground truth, and the corruption
        sidecar into out_dir; returns the path of each file."""
        os.makedirs(out_dir, exist_ok=True)
        schema = self.schema
        paths = {
            "calibration": os.path.join(out_dir, "calibration.jsonl"),
            "detections": os.path.join(out_dir, "detections.jsonl"),
            "ground_truth": os.path.join(out_dir, "ground_truth.jsonl"),
            "corruption": os.path.join(out_dir, "corruption.jsonl"),
        }
        fileio.save_calibration(self.cameras, paths["calibration"])
        fileio.write_detections(self.detection_records(), paths["detections"],
                                schema.name, schema.n_joints)
        fileio.save_ground_truth(self.ground_truth_frames(),
                                 paths["ground_truth"],
                                 schema.name, schema.n_joints)
        fileio.write_corruption(self.corruption, paths["corruption"],
                                schema.name)
        return paths


def generate(cfg: SceneConfig) -> SyntheticScene:
    """Build the whole scene; deterministic given cfg (seed included)."""
    schema = get_schema(cfg.schema_name)
    if schema is not SYNTH14:
        raise ConfigError(f"scene generation only knows schema "
                          f"{SYNTH14.name!r}, got {cfg.schema_name!r}")
    cameras = ring_cameras(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n_joints = schema.n_joints

    times = np.array([f / cfg.fps for f in range(cfg.n_frames)])
    gt = np.empty((cfg.n_frames, cfg.n_actors, n_joints, 3))
    for f in range(cfg.n_frames):
        for a in range(cfg.n_actors):
            gt[f, a] = actor_joints(cfg, a, times[f])

    bundles: list[FrameBundle] = []
    corruption: list[dict] = []
    actor_of: dict = {}
    class_of: dict = {}
    chain = cfg.burst_chain()
    validity = AffinityConfig()
    in_burst = np.zeros((cfg.n_cameras, cfg.n_actors), dtype=bool)
    burst_group = np.zeros((cfg.n_cameras, cfg.n_actors), dtype=np.int64)
    for f in range(cfg.n_frames):
        t = float(times[f])
        bundle = FrameBundle(f, t, {}, {}, {})
        for ci, cam in enumerate(cameras):
            kept: list[tuple[int, np.ndarray, list[dict]]] = []
            for a in range(cfg.n_actors):
                rates = None
                if chain is not None:
                    p_enter, p_exit, quiet = chain
                    u = rng.random()
                    was = in_burst[ci, a]
                    if f == 0:
                        # Frame 0 samples the stationary occupancy so the
                        # marginal rate is exact with no burn-in.
                        occupancy = p_enter / (p_enter + p_exit)
                        in_burst[ci, a] = u < occupancy
                    elif was:
                        in_burst[ci, a] = u >= p_exit
                    else:
                        in_burst[ci, a] = u < p_enter
                    rates = np.full(n_joints, quiet)
                    if in_burst[ci, a]:
                        if not was or f == 0:
                            burst_group[ci, a] = rng.integers(len(BURST_GROUPS))
                        rates[list(BURST_GROUPS[burst_group[ci, a]])] = \
                            cfg.outlier_burst
                if rng.random() < cfg.dropout_rate:
                    continue
                pose, records = corrupt_pose(project_exact(cam, gt[f, a]),
                                             cfg, rng, camera=cam,
                                             outlier_rates=rates)
                kept.append((a, pose, records))
            order = rng.permutation(len(kept)) if kept else []
            for pose_idx, src in enumerate(order):
                a, _, records = kept[src]
                actor_of[(f, cam.cam_id, pose_idx)] = a
                codes = np.empty(n_joints, dtype=np.uint8)
                for rec in records:
                    codes[rec["joint"]] = CLASS_CODES[rec["class"]]
                    corruption.append({
                        "frame": f,
                        "camera": cam.cam_id,
                        "pose": pose_idx,
                        "joint": rec["joint"],
                        "class": rec["class"],
                        "actor": a,
                    })
                class_of[(f, cam.cam_id, pose_idx)] = codes
            poses = np.reshape([kept[src][1] for src in order],
                               (-1, n_joints, 3))
            bundle.poses[cam.cam_id] = poses
            bundle.valid[cam.cam_id] = valid_joints(poses, validity, cam)
            bundle.times[cam.cam_id] = t
        bundles.append(bundle)

    return SyntheticScene(
        config=cfg, cameras=cameras, bundles=bundles, gt=gt, times=times,
        corruption=corruption, actor_of=actor_of, class_of=class_of,
    )


def corrupted_benchmark_config(**overrides) -> SceneConfig:
    """The stock corrupted benchmark: 10% outliers (arriving in bursts
    that latch onto one body half per camera) plus 15% limb occlusion on
    a minimal two camera rig, where losing either view for a stretch is
    expensive. Keyword overrides as SceneConfig."""
    base = dict(
        seed=7,
        n_cameras=2,
        n_actors=4,
        n_frames=1200,
        noise_px=1.5,
        outlier_rate=0.10,
        outlier_px=120.0,
        outlier_burst=0.9,
        outlier_burst_frames=20.0,
        occlusion_rate=0.15,
        dropout_rate=0.05,
        walk_speed=0.4,
        swing_amp=0.13,
        swing_hz=0.9,
    )
    base.update(overrides)
    return SceneConfig(**base)
