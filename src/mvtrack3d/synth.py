"""Synthetic multi-camera scenes with known 3D ground truth.

Actors walk smooth ellipses around parallel lanes, swinging limbs,
watched by a ring of cameras. Detections are exact pinhole projections of the
ground-truth joints, then corrupted: Gaussian pixel noise on every joint,
per-joint outliers displaced by an exact magnitude in a uniform random
direction, per-pose occlusion of one contiguous limb group (confidence
dropped below the validity floor), and whole-pose dropouts. Every emitted
joint gets exactly one class label: the scene keeps one (N,) array of
class codes and one actor id per pose, and export turns them into the
sidecar's per-joint records as it writes them.

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
finally one detection-order permutation per camera. The test
test_synth.py::test_generate_makes_the_reference_draws pins this order
bit for bit against a one-pose-at-a-time reference generator. Joint
validity draws nothing: it is computed once per camera over the whole
scene, and each frame's bundle holds its slice.
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
from .schema import SYNTH14, bounded, check_fields, check_known_keys
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

# generate holds every joint view of a scene in memory, about 60 bytes
# each (its pixels and validity, and its share of its pose's class codes,
# actor id and ground truth), so this many take about 300 MB; the largest
# scene in the benchmark or the acceptance tests has 252,000.
MAX_JOINT_VIEWS = 5_000_000
# Image sizes allocate nothing, but an exported scene must load back,
# and past 2**64 - 1 the calibration file's width does not read back as
# an int. No sensor in use is wider than about 20,000 px.
MAX_IMAGE_PX = 1 << 16


@dataclass(frozen=True)
class SceneConfig:
    """Everything that determines a synthetic scene, RNG seed included.
    Each field's range sits beside its default (see schema.bounded);
    __post_init__ checks only what spans fields."""

    seed: int = bounded(0, at_least=0)
    n_cameras: int = bounded(5, at_least=2)
    n_actors: int = bounded(4, at_least=1)
    n_frames: int = bounded(500, at_least=1)
    fps: float = bounded(25.0, above=0)
    width: int = bounded(800, at_least=1, at_most=MAX_IMAGE_PX)
    height: int = bounded(600, at_least=1, at_most=MAX_IMAGE_PX)
    focal_px: float = bounded(700.0, above=0)
    ring_radius: float = bounded(8.0, above=0)
    camera_height: float = 4.0
    look_at_height: float = 1.0
    arena_half: float = bounded(2.2, above=0)
    lane_spacing: float = 1.2
    walk_speed: float = bounded(0.5, above=0)
    swing_amp: float = 0.10
    swing_hz: float = bounded(0.7, above=0)
    bob_amp: float = 0.015
    noise_px: float = bounded(0.0, at_least=0)
    outlier_rate: float = bounded(0.0, at_least=0, at_most=1)
    outlier_px: float = bounded(80.0, at_least=0)
    outlier_burst: float = bounded(0.0, at_least=0, at_most=1)
    # bursts that never end take outlier_burst_frames=inf
    outlier_burst_frames: float = bounded(10.0, allow_inf=True)
    occlusion_rate: float = bounded(0.0, at_least=0, at_most=1)
    dropout_rate: float = bounded(0.0, at_least=0, at_most=1)

    def __post_init__(self):
        check_fields(self)
        if self.outlier_burst:
            if self.outlier_burst_frames < 1.0:
                raise ConfigError("outlier_burst_frames must be >= 1 while "
                                  "outlier_burst is on")
            if self.outlier_rate > 0.0:
                occupancy = self._burst_occupancy()
                if not 0.0 < occupancy <= 0.6:
                    raise ConfigError(
                        "outlier_burst too low for outlier_rate: burst "
                        f"occupancy would be {occupancy:.2f}, needs (0, 0.6]")
        views = (self.n_frames * self.n_cameras * self.n_actors
                 * SYNTH14.n_joints)
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
        share = len(BURST_GROUPS[0]) / SYNTH14.n_joints
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


def actor_joints(cfg: SceneConfig, actor, t) -> np.ndarray:
    """Ground-truth world joints (..., N, 3) of actors at times t seconds.

    actor and t broadcast against each other: scalars give one actor's
    (N,3) pose, and a (1, A) row of actors against an (F, 1) column of
    times gives the whole (F, A, N, 3) scene.

    Each actor walks an ellipse around its own lane so position and
    heading stay smooth; peak ground speed equals walk_speed. An abrupt
    heading reversal would teleport the lateral joints by half a meter
    between frames, which no detector-noise model should produce.
    """
    actor = np.asarray(actor)
    lane = cfg.lane_spacing * (actor - (cfg.n_actors - 1) / 2.0)
    a = max(cfg.arena_half - 0.5, 0.5)
    b = 0.25 * cfg.lane_spacing
    omega = cfg.walk_speed / a
    u = omega * t + 2.399 * actor
    x = a * np.cos(u)
    y = lane + b * np.sin(u)
    heading = np.arctan2(b * np.cos(u), -a * np.sin(u))

    scale = 1.0 + 0.06 * ((actor % 3) - 1)
    local = _TEMPLATE * np.broadcast_to(scale, u.shape)[..., None, None]
    phase = 2.0 * np.pi * cfg.swing_hz * t + 2.1 * actor
    s = cfg.swing_amp * scale * np.sin(phase)
    arm = 0.8 * s
    local[..., 9, 1] += 0.5 * s
    local[..., 10, 1] += s
    local[..., 12, 1] -= 0.5 * s
    local[..., 13, 1] -= s
    local[..., 3, 1] -= 0.5 * arm
    local[..., 4, 1] -= arm
    local[..., 6, 1] += 0.5 * arm
    local[..., 7, 1] += arm
    local[..., 2] += cfg.bob_amp * np.sin(2.0 * phase)[..., None]

    # Each (x, y, z) row below is one pose's axis, against its N joints.
    zero = np.zeros_like(heading)
    forward = np.stack([np.cos(heading), np.sin(heading), zero], axis=-1)
    lateral = np.stack([np.sin(heading), -np.cos(heading), zero], axis=-1)
    root = np.stack([x, y, zero], axis=-1)
    return (root[..., None, :]
            + local[..., 0, None] * lateral[..., None, :]
            + local[..., 1, None] * forward[..., None, :]
            + local[..., 2, None] * np.array([0.0, 0.0, 1.0]))


def project_exact(camera: CameraCalibration, joints: np.ndarray) -> np.ndarray:
    """Pinhole projection via the homogeneous 3x4 matrix: world points
    (..., 3) to pixels (..., 2), all in one matrix product."""
    P = camera.K @ np.hstack([camera.R, -camera.R @ camera.o[:, None]])
    flat = joints.reshape(-1, 3)
    h = P @ np.vstack([flat.T, np.ones(flat.shape[0])])
    return (h[:2] / h[2]).T.reshape(joints.shape[:-1] + (2,))


def corrupt_pose(uv: np.ndarray, cfg: SceneConfig, rng: np.random.Generator,
                 camera: CameraCalibration | None = None,
                 outlier_rates: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Apply noise, outliers, and occlusion to one pose's pixels uv (N,2).

    Returns the corrupted pose as (N,3) rows of (u, v, confidence) plus
    its (N,) class codes, CLASS_CLEAN to CLASS_OCCLUDED. Gaussian noise
    goes on every joint; each joint independently becomes an outlier,
    displaced from its noisy position by exactly cfg.outlier_px in a
    uniform random direction (directions are redrawn up to 32 times until
    the target lands inside the image); with occlusion probability one
    contiguous limb group has its confidence dropped below the validity
    floor.
    Occluded beats outlier beats noisy.

    outlier_rates overrides cfg.outlier_rate per joint; the burst
    machinery in generate() uses it to target one body half.
    """
    n = uv.shape[0]
    out = np.empty((n, 3))
    out[:, :2] = uv + rng.normal(0.0, cfg.noise_px, size=(n, 2))
    classes = np.full(
        n, CLASS_NOISY if cfg.noise_px > 0 else CLASS_CLEAN, dtype=np.uint8
    )

    width = camera.width if camera is not None else cfg.width
    height = camera.height if camera is not None else cfg.height
    rates = cfg.outlier_rate if outlier_rates is None else outlier_rates
    hits = (rng.random(n) < rates).nonzero()[0]
    if hits.size:
        classes[hits] = CLASS_OUTLIER
    for j in hits.tolist():
        u, v = out[j, :2].tolist()
        for _ in range(_OUTLIER_RETRIES):
            ang = rng.random() * 2.0 * np.pi
            cu = u + cfg.outlier_px * np.cos(ang)
            cv = v + cfg.outlier_px * np.sin(ang)
            if 0.0 <= cu <= width and 0.0 <= cv <= height:
                break
        out[j, :2] = cu, cv

    out[:, 2] = rng.uniform(0.5, 1.0, size=n)
    if rng.random() < cfg.occlusion_rate:
        group = list(OCCLUSION_GROUPS[rng.integers(len(OCCLUSION_GROUPS))])
        classes[group] = CLASS_OCCLUDED
        out[group, 2] = rng.uniform(0.02, 0.07, size=len(group))
    return out, classes


@dataclass
class SyntheticScene:
    """A generated scene: cameras, corrupted detections, ground truth."""

    config: SceneConfig
    cameras: list[CameraCalibration]
    bundles: list[FrameBundle]
    gt: np.ndarray                    # (frames, actors, joints, 3)
    times: np.ndarray                 # (frames,)
    actor_of: dict = field(default_factory=dict)   # (frame, cam, pose) -> actor
    class_of: dict = field(default_factory=dict)   # (frame, cam, pose) -> (N,) codes

    schema = SYNTH14

    def _pose_labels(self) -> Iterator[tuple[int, int, int, int, np.ndarray]]:
        """(frame, camera id, pose index, actor, (N,) class codes) of each
        pose the bundles hold, in detection-file order."""
        for bundle in self.bundles:
            for camera, poses in bundle.poses.items():
                for pose in range(len(poses)):
                    key = (bundle.frame, camera, pose)
                    yield (*key, self.actor_of[key], self.class_of[key])

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
        sidecar, which labels each pose the detections hold, into out_dir;
        returns the path of each file."""
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
        fileio.write_corruption(self._pose_labels(), paths["corruption"],
                                schema.name, schema.n_joints, CLASS_NAMES)
        return paths


def generate(cfg: SceneConfig) -> SyntheticScene:
    """Build the whole scene; deterministic given cfg (seed included)."""
    cameras = ring_cameras(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n_joints = SYNTH14.n_joints

    times = np.arange(cfg.n_frames) / cfg.fps
    gt = actor_joints(cfg, np.arange(cfg.n_actors)[None, :], times[:, None])
    exact = [project_exact(cam, gt) for cam in cameras]  # (F, A, N, 2) each

    actor_of: dict = {}
    class_of: dict = {}
    chain = cfg.burst_chain()
    if chain is not None:
        p_enter, p_exit, quiet = chain
        # frame 0 samples the stationary occupancy, so the marginal rate is
        # exact with no burn-in; bursts that never end (p_exit = 0) keep
        # that state on every later frame
        occupancy = cfg._burst_occupancy()
        quiet_rates = np.full(n_joints, quiet)
        group_rates = [quiet_rates.copy() for _ in BURST_GROUPS]
        for rates, group in zip(group_rates, BURST_GROUPS):
            rates[list(group)] = cfg.outlier_burst
        # burst group of each (camera, actor), or None off-burst
        burst = [[None] * cfg.n_actors for _ in cameras]
    # each camera's poses of the whole scene, with room for every actor on
    # every frame, and how many each frame holds
    blocks = [np.zeros((cfg.n_frames * cfg.n_actors, n_joints, 3))
              for _ in cameras]
    counts = [[0] * cfg.n_frames for _ in cameras]
    for f in range(cfg.n_frames):
        for ci, cam in enumerate(cameras):
            kept: list[tuple[int, np.ndarray, np.ndarray]] = []
            for a in range(cfg.n_actors):
                rates = None
                if chain is not None:
                    u = rng.random()
                    group = burst[ci][a]
                    if group is None:
                        if u < (occupancy if f == 0 else p_enter):
                            group = int(rng.integers(len(BURST_GROUPS)))
                    elif u < p_exit:
                        group = None
                    burst[ci][a] = group
                    rates = quiet_rates if group is None else group_rates[group]
                if rng.random() < cfg.dropout_rate:
                    continue
                pose, codes = corrupt_pose(exact[ci][f, a], cfg, rng,
                                           camera=cam, outlier_rates=rates)
                kept.append((a, pose, codes))
            if not kept:
                continue
            order = rng.permutation(len(kept)).tolist()
            row = f * cfg.n_actors
            for pose_idx, src in enumerate(order):
                key = (f, cam.cam_id, pose_idx)
                actor_of[key], blocks[ci][row + pose_idx], class_of[key] = \
                    kept[src]
            counts[ci][f] = len(kept)

    # One validity pass per camera over its whole scene; each bundle holds
    # its frame's slice of the camera's poses and validity.
    bundles = [FrameBundle(f, float(times[f]), {}, {}, {})
               for f in range(cfg.n_frames)]
    validity = AffinityConfig()
    for ci, cam in enumerate(cameras):
        valid = valid_joints(blocks[ci], validity, cam)
        for bundle, start, count in zip(
                bundles, range(0, len(valid), cfg.n_actors), counts[ci]):
            bundle.poses[cam.cam_id] = blocks[ci][start:start + count]
            bundle.valid[cam.cam_id] = valid[start:start + count]
            bundle.times[cam.cam_id] = bundle.time_s

    return SyntheticScene(
        config=cfg, cameras=cameras, bundles=bundles, gt=gt, times=times,
        actor_of=actor_of, class_of=class_of,
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
