"""Online multi-person 3D skeleton tracking across calibrated cameras.

Each frame: match every camera's detections to live tracks with the
part-aware affinity, rebuild each matched track from its freshest pose
per camera (filtered, time-weighted triangulation), then cluster the
leftover detections across cameras to spawn new tracks.

Staleness entering the affinity tolerance and the triangulation weights
is measured in frame intervals, so alpha_2d and lambda_a act per frame
of staleness here. At 25 fps the preset tolerances would otherwise be
smaller than detector noise and nothing could ever match.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, fields, replace
from enum import IntEnum

import numpy as np

from . import assignment, kernels
from .affinity import AffinityConfig, Pose2D
from .errors import (
    ConfigError,
    NonMonotonicTime,
    NoRecentObservations,
    ValidationError,
)
from .geometry import CameraRig


class JointFlag(IntEnum):
    TRIANGULATED = kernels.FLAG_TRIANGULATED
    PREDICTED = kernels.FLAG_PREDICTED
    MISSING = kernels.FLAG_MISSING


FLAG_CHARS = {
    int(JointFlag.TRIANGULATED): "T",
    int(JointFlag.PREDICTED): "P",
    int(JointFlag.MISSING): "M",
}
CHAR_FLAGS = {v: k for k, v in FLAG_CHARS.items()}


@dataclass
class Skeleton3D:
    """A 3D skeleton at one instant: (N,3) joints and per-joint flags."""

    time_s: float
    joints: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        self.joints = np.ascontiguousarray(self.joints, dtype=np.float64)
        self.flags = np.ascontiguousarray(self.flags, dtype=np.uint8)
        if self.joints.ndim != 2 or self.joints.shape[1] != 3:
            raise ValidationError(f"joints must be (N,3), got {self.joints.shape}")
        if self.flags.shape != (self.joints.shape[0],):
            raise ValidationError("flags must align with joints")

    @property
    def n_joints(self) -> int:
        return self.joints.shape[0]

    def copy(self) -> "Skeleton3D":
        return Skeleton3D(self.time_s, self.joints.copy(), self.flags.copy())


@dataclass
class FrameBundle:
    """All detections of one frame, grouped per camera id."""

    frame: int
    time_s: float
    poses: dict

    def all_poses(self):
        for cam_id in self.poses:
            for pose in self.poses[cam_id]:
                yield cam_id, pose


@dataclass(frozen=True)
class TrackerConfig:
    """Tracker behavior knobs on top of the affinity thresholds.

    miss_limit defaults to twice the reconstruction window: a track is
    retired after that many consecutive frames without a new 2D match.
    """

    affinity: AffinityConfig = field(default_factory=AffinityConfig)
    part_aware: bool = True
    joints_filter: bool = True
    smoothing: bool = True
    smooth_window: int = 5
    smooth_sigma: float = 1.0
    miss_limit: int | None = None
    project_predicted: bool = False

    def __post_init__(self):
        if self.smooth_window < 1:
            raise ConfigError("smooth_window must be at least 1")
        if self.smooth_sigma <= 0:
            raise ConfigError("smooth_sigma must be positive")
        if self.miss_limit is not None and self.miss_limit < 0:
            raise ConfigError("miss_limit must be non-negative")

    @property
    def effective_miss_limit(self) -> int:
        if self.miss_limit is not None:
            return self.miss_limit
        return 2 * self.affinity.tau

    def with_overrides(self, **kwargs) -> "TrackerConfig":
        own = {f.name for f in fields(self) if f.name != "affinity"}
        tracker_kwargs = {k: v for k, v in kwargs.items() if k in own}
        affinity_kwargs = {k: v for k, v in kwargs.items() if k not in own}
        cfg = replace(self, **tracker_kwargs) if tracker_kwargs else self
        if affinity_kwargs:
            cfg = replace(cfg, affinity=cfg.affinity.with_overrides(**affinity_kwargs))
        return cfg


class Track:
    """State of one tracked person."""

    def __init__(self, track_id: int, skeleton: Skeleton3D, poses: dict,
                 frame: int, window: int):
        self.track_id = track_id
        self.skeleton = skeleton
        self.velocity = np.zeros_like(skeleton.joints)
        self.last_poses = dict(poses)
        self.misses = 0
        self.created_frame = frame
        # the last `window` raw skeletons, right-aligned behind time -inf
        self.history_times = np.full(window, -np.inf)
        self.history_times[-1] = skeleton.time_s
        self.history_joints = np.zeros((window,) + skeleton.joints.shape)
        self.history_joints[-1] = skeleton.joints

    def predict(self, t: float) -> np.ndarray:
        """Constant-velocity extrapolation of the smoothed joints to time t."""
        return self.skeleton.joints + self.velocity * (t - self.skeleton.time_s)

    def predicted_skeleton(self, t: float) -> Skeleton3D:
        flags = np.full(self.skeleton.n_joints, JointFlag.PREDICTED, dtype=np.uint8)
        return Skeleton3D(t, self.predict(t), flags)

    @staticmethod
    def advance(tracks: list, t: float, joints: np.ndarray, flags: np.ndarray,
                config: TrackerConfig, fps: float) -> list:
        """Fold freshly reconstructed skeletons at time t, joints (T,N,3)
        and flags (T,N), into the state of each of the T tracks, smoothing
        all of them in one call. Returns the new skeletons in order."""
        if config.smoothing and tracks[0].history_times.size > 1:
            # the history is read only here, so only smoothing keeps it
            times = np.array([tr.history_times for tr in tracks])
            history = np.array([tr.history_joints for tr in tracks])
            times = np.concatenate((times[:, 1:], np.full((len(tracks), 1), t)),
                                   axis=1)
            history = np.concatenate((history[:, 1:], joints[:, None]), axis=1)
            smoothed = kernels.causal_gaussian_smooth(
                times, history, config.smooth_sigma, fps, t
            )
            for track, row_t, row_j in zip(tracks, times, history):
                track.history_times = row_t
                track.history_joints = row_j
        else:
            smoothed = joints.copy()
        for track, row, row_flags in zip(tracks, smoothed, flags):
            dt = t - track.skeleton.time_s
            if dt > 0:
                track.velocity = (row - track.skeleton.joints) / dt
            track.skeleton = Skeleton3D(t, row, row_flags)
        return [track.skeleton for track in tracks]


class PoseTracker:
    """Stateful frame-by-frame tracker over one calibrated rig."""

    def __init__(self, rig, config: TrackerConfig | None = None):
        self.rig = rig if isinstance(rig, CameraRig) else CameraRig(rig)
        self.config = config or TrackerConfig()
        self.tracks: list[Track] = []
        self._next_id = 1
        self._last_time = -np.inf
        self._last_frame: int | None = None
        self.frames_processed = 0
        self.stage_seconds = {"associate": 0.0, "reconstruct": 0.0, "initialize": 0.0}

    # -- association -------------------------------------------------

    def _associate(self, bundle: FrameBundle):
        """Per-camera bipartite matching of detections to live tracks.

        Every camera with detections is scored in one batch, its poses
        padded with invalid joints to the largest count, and then matched
        on its own columns. Updates each matched track's freshest pose
        for that camera and returns ({cam_id: unmatched poses}, {track
        ids matched this frame}).
        """
        cfg = self.config
        aff = cfg.affinity
        rig = self.rig
        tracks = self.tracks
        seen = [(ci, cam.cam_id, bundle.poses[cam.cam_id])
                for ci, cam in enumerate(rig.cameras)
                if bundle.poses.get(cam.cam_id)]
        if not tracks or not seen:
            return {cam_id: list(poses) for _, cam_id, poses in seen}, set()
        cam_idx = np.array([ci for ci, _, _ in seen])
        cam_t = np.array([poses[0].time_s for _, _, poses in seen])
        track_t = np.array([tr.skeleton.time_s for tr in tracks])
        elapsed = cam_t[:, None] - track_t[None, :]
        # staleness in frame intervals, never below one frame
        dts = np.maximum(elapsed * rig.fps, 1.0)
        if aff.max_dt is not None:
            dts = np.minimum(dts, aff.max_dt * rig.fps)
        pts = np.array([tr.skeleton.joints for tr in tracks])
        if cfg.project_predicted:
            velocity = np.array([tr.velocity for tr in tracks])
            pts = pts + velocity * elapsed[..., None, None]
        track_valid = (np.array([tr.skeleton.flags for tr in tracks])
                       != JointFlag.MISSING)
        width = max(len(poses) for _, _, poses in seen)
        n_joints = tracks[0].skeleton.n_joints
        pose_uv = np.zeros((len(seen), width, n_joints, 2))
        pose_valid = np.zeros((len(seen), width, n_joints), dtype=bool)
        for k, (_, _, poses) in enumerate(seen):
            pose_uv[k, :len(poses)] = np.array([p.uv for p in poses])
            pose_valid[k, :len(poses)] = np.array([p.valid for p in poses])
        scores = kernels.score_pose_pairs(
            pts, track_valid, dts, rig.k_table[cam_idx], rig.r_table[cam_idx],
            rig.origins[cam_idx], pose_uv, pose_valid,
            aff.alpha_2d, aff.lambda_a, aff.epsilon, cfg.part_aware,
        )
        unmatched = {}
        matched_ids = set()
        for k, (_, cam_id, poses) in enumerate(seen):
            match = assignment.solve(scores[k, :, :len(poses)], 0.0)
            for ti, pi in match.pairs:
                tracks[ti].last_poses[cam_id] = poses[pi]
                matched_ids.add(tracks[ti].track_id)
            unmatched[cam_id] = [poses[pi] for pi in match.unmatched_cols]
        return unmatched, matched_ids

    # -- reconstruction ----------------------------------------------

    def _recent_poses(self, track: Track, bundle: FrameBundle):
        """Freshest matched pose per camera still inside the window."""
        tau = self.config.affinity.tau
        recent = {}
        for cam_id, pose in track.last_poses.items():
            if pose.frame >= 0:
                age = bundle.frame - pose.frame
                if 0 <= age < tau:
                    recent[cam_id] = pose
            else:
                age_s = bundle.time_s - pose.time_s
                if 0 <= age_s < tau / self.rig.fps:
                    recent[cam_id] = pose
        return recent

    def reconstruct(self, observed, bundle: FrameBundle) -> list:
        """Triangulate tracks from their recent poses and advance their states.

        observed is a list of (track, recent poses per camera id) pairs;
        all tracks go through the kernels as one batch. Returns the new
        skeletons in the same order.
        """
        cfg = self.config
        t = bundle.time_s
        rig = self.rig
        n_tracks = len(observed)
        n_joints = observed[0][0].skeleton.n_joints
        obs_uv = np.zeros((n_tracks, n_joints, len(rig), 2))
        obs_valid = np.zeros((n_tracks, n_joints, len(rig)), dtype=bool)
        slots = []   # (track row, camera index, pose) per recent pose
        for k, (track, recent) in enumerate(observed):
            if not recent:
                raise NoRecentObservations(
                    f"track {track.track_id} has no pose within the window"
                )
            slots.extend((k, rig.index_of[cam_id], pose)
                         for cam_id, pose in recent.items())
        ks, cis, poses = zip(*slots)
        obs_uv[ks, :, cis] = np.array([pose.uv for pose in poses])
        obs_valid[ks, :, cis] = np.array([pose.valid for pose in poses])
        age_frames = np.maximum(t - np.array([pose.time_s for pose in poses]),
                                0.0) * rig.fps
        weights = np.zeros((n_tracks, len(rig)))
        weights[ks, cis] = np.exp(-cfg.affinity.lambda_a * age_frames)
        tracks = [track for track, _ in observed]
        pred = np.array([track.predict(t) for track in tracks])
        joints, flags = kernels.reconstruct_joints(
            obs_uv, obs_valid, weights, pred,
            rig.f_table, rig.origins, rig.krinv_table, rig.pn_table,
            rig.su, rig.sv, cfg.affinity.alpha_epi, cfg.joints_filter,
        )
        return Track.advance(tracks, t, joints, flags, cfg, rig.fps)

    # -- initialization ----------------------------------------------

    def _cluster_unmatched(self, unmatched: dict):
        """Greedy cross-view clustering of unmatched poses, camera by camera."""
        aff = self.config.affinity
        rig = self.rig
        clusters: list[list] = []
        for ci, cam in enumerate(rig.cameras):
            cands = unmatched.get(cam.cam_id) or []
            if not cands:
                continue
            if not clusters:
                clusters = [[(ci, p)] for p in cands]
                continue
            # score every (cluster member, candidate) pair, then keep each
            # cluster's best member
            members = [m for cluster in clusters for m in cluster]
            cj = np.array([c for c, _ in members])
            pair_scores = kernels.epipolar_pose_score(
                np.array([p.uv for _, p in members])[:, None],
                np.array([p.valid for _, p in members])[:, None],
                np.array([p.uv for p in cands]),
                np.array([p.valid for p in cands]),
                rig.f_table[cj, ci][:, None], rig.f_table[ci, cj][:, None],
                aff.alpha_epi,
            )
            starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
            scores = np.maximum.reduceat(pair_scores, starts, axis=0)
            match = assignment.solve(scores, 0.0)
            for k, l in match.pairs:
                clusters[k].append((ci, cands[l]))
            for l in match.unmatched_cols:
                clusters.append([(ci, cands[l])])
        return clusters

    def _init_skeleton(self, cluster, t: float) -> Skeleton3D | None:
        """Triangulate a cross-view cluster into a first skeleton.

        Joints with fewer than two consistent views are placed on a
        single view's ray at the skeleton centroid depth, or at the
        centroid itself, and flagged predicted. Returns None when not a
        single joint triangulates.
        """
        cfg = self.config
        rig = self.rig
        cam_idx = np.array([ci for ci, _ in cluster], dtype=np.int64)
        uv = np.stack([pose.uv for _, pose in cluster], axis=1)
        keep = np.stack([pose.valid for _, pose in cluster], axis=1)
        if cfg.joints_filter:
            keep = kernels.filter_init_mask(uv, keep, cam_idx, rig.f_table,
                                            cfg.affinity.alpha_epi)
        uvn = np.stack((uv[..., 0] * rig.su[cam_idx] - 1.0,
                        uv[..., 1] * rig.sv[cam_idx] - 1.0), axis=-1)
        xyz, status = kernels.triangulate_batch(
            uvn, rig.pn_table[cam_idx], np.ones(len(cluster)), keep
        )
        tri = status == 0
        if not tri.any():
            return None
        joints = np.where(tri[:, None], xyz, 0.0)
        flags = np.where(tri, JointFlag.TRIANGULATED, JointFlag.PREDICTED)
        centroid = joints[tri].mean(axis=0)
        first_valid = cluster[0][1].valid
        for n in np.flatnonzero(~tri):
            kept = np.flatnonzero(keep[n])
            if kept.size:
                slot = kept[0]
            elif first_valid[n]:
                slot = 0
            else:
                joints[n] = centroid
                continue
            ci = cam_idx[slot]
            direction = kernels.back_project_dir(uv[n, slot, 0], uv[n, slot, 1],
                                                 rig.krinv_table[ci])
            depth = float(np.dot(centroid - rig.origins[ci], direction))
            if depth <= 0:
                joints[n] = centroid
            else:
                joints[n] = rig.origins[ci] + depth * direction
        return Skeleton3D(t, joints, flags)

    def initialize(self, unmatched: dict, bundle: FrameBundle) -> list:
        """Spawn tracks from cross-view clusters of unmatched poses."""
        new_tracks = []
        for cluster in self._cluster_unmatched(unmatched):
            if len(cluster) < 2:
                continue
            skeleton = self._init_skeleton(cluster, bundle.time_s)
            if skeleton is None:
                continue
            poses = {self.rig.cameras[ci].cam_id: pose for ci, pose in cluster}
            track = Track(self._next_id, skeleton, poses, bundle.frame,
                          self.config.smooth_window)
            self._next_id += 1
            new_tracks.append(track)
        return new_tracks

    # -- main loop ---------------------------------------------------

    def step(self, bundle: FrameBundle):
        """Process one frame, returns [(track_id, Skeleton3D)] for live tracks."""
        if bundle.time_s <= self._last_time:
            raise NonMonotonicTime(
                f"bundle at {bundle.time_s} is not after {self._last_time}"
            )
        if self._last_frame is not None and bundle.frame <= self._last_frame:
            raise NonMonotonicTime(
                f"frame {bundle.frame} is not after {self._last_frame}"
            )
        t0 = _time.perf_counter()
        unmatched, matched_ids = self._associate(bundle)
        t1 = _time.perf_counter()
        emissions = {}
        observed = []
        for track in self.tracks:
            recent = self._recent_poses(track, bundle)
            if recent:
                observed.append((track, recent))
            else:
                emissions[track.track_id] = track.predicted_skeleton(bundle.time_s)
            if track.track_id in matched_ids:
                track.misses = 0
            else:
                track.misses += 1
        if observed:
            skeletons = self.reconstruct(observed, bundle)
            for (track, _), skeleton in zip(observed, skeletons):
                emissions[track.track_id] = skeleton
        t2 = _time.perf_counter()
        new_tracks = self.initialize(unmatched, bundle)
        t3 = _time.perf_counter()
        limit = self.config.effective_miss_limit
        self.tracks = [tr for tr in self.tracks if tr.misses <= limit]
        self.tracks.extend(new_tracks)
        for track in new_tracks:
            emissions[track.track_id] = track.skeleton
        self.stage_seconds["associate"] += t1 - t0
        self.stage_seconds["reconstruct"] += t2 - t1
        self.stage_seconds["initialize"] += t3 - t2
        self.frames_processed += 1
        self._last_time = bundle.time_s
        self._last_frame = bundle.frame
        return [(tr.track_id, emissions[tr.track_id]) for tr in self.tracks]

    @property
    def stage_means_ms(self) -> dict:
        n = max(self.frames_processed, 1)
        return {k: 1e3 * v / n for k, v in self.stage_seconds.items()}
