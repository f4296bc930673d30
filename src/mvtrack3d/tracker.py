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
from .affinity import AffinityConfig
from .errors import (
    ConfigError,
    NonMonotonicTime,
    NoRecentObservations,
    ValidationError,
)
from .geometry import CameraRig
from .schema import check_field_types, check_known_keys


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
    """All detections of one frame: per camera id, poses is the float64
    (P,N,3) array of its P poses' (u, v, confidence) rows as read, valid
    their (P,N) joint validity (affinity.valid_joints) and times its
    record's time in seconds. time_s is the latest of those times; a
    camera with no poses is left out or holds an empty array."""

    frame: int
    time_s: float
    poses: dict
    valid: dict
    times: dict


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

    def __post_init__(self):
        check_field_types(self)
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
        shared = {f.name for f in fields(self.affinity)}
        check_known_keys(kwargs, tracker=own, affinity=shared)
        tracker_kwargs = {k: v for k, v in kwargs.items() if k in own}
        affinity_kwargs = {k: v for k, v in kwargs.items() if k not in own}
        cfg = replace(self, **tracker_kwargs) if tracker_kwargs else self
        if affinity_kwargs:
            cfg = replace(cfg, affinity=cfg.affinity.with_overrides(**affinity_kwargs))
        return cfg


class Track:
    """State of one tracked person, with its freshest matched view from
    each of the rig's C cameras: the frame (-inf until a match) and time
    of that view (C,), its pixels view_uv (N,C,2) and validity (N,C)."""

    def __init__(self, track_id: int, skeleton: Skeleton3D, n_cams: int,
                 window: int):
        self.track_id = track_id
        self.skeleton = skeleton
        self.velocity = np.zeros_like(skeleton.joints)
        self.view_frame = np.full(n_cams, -np.inf)
        self.view_time = np.zeros(n_cams)
        self.view_uv = np.zeros((skeleton.n_joints, n_cams, 2))
        self.view_valid = np.zeros((skeleton.n_joints, n_cams), dtype=bool)
        self.misses = 0
        # the last `window` raw skeletons, right-aligned behind time -inf
        self.history_times = np.full(window, -np.inf)
        self.history_times[-1] = skeleton.time_s
        self.history_joints = np.zeros((window,) + skeleton.joints.shape)
        self.history_joints[-1] = skeleton.joints

    def see(self, ci, frame: int, time_s, uv: np.ndarray, valid: np.ndarray):
        """Make the pose uv (N,2), valid (N,) seen at frame and time_s the
        view from camera index ci, or M such poses (N,M,...) from M indices."""
        self.view_frame[ci] = frame
        self.view_time[ci] = time_s
        self.view_uv[:, ci] = uv
        self.view_valid[:, ci] = valid

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
        on its own columns. Each matched pose becomes its track's view
        from that camera. Returns ({camera index: unmatched pose rows},
        {track ids matched this frame}).
        """
        cfg = self.config
        aff = cfg.affinity
        rig = self.rig
        tracks = self.tracks
        seen = [(ci, cam.cam_id) for ci, cam in enumerate(rig.cameras)
                if len(bundle.poses.get(cam.cam_id, ()))]
        if not tracks or not seen:
            return {ci: range(len(bundle.poses[cam_id]))
                    for ci, cam_id in seen}, set()
        cam_idx = np.array([ci for ci, _ in seen])
        cam_t = np.array([bundle.times[cam_id] for _, cam_id in seen])
        track_t = np.array([tr.skeleton.time_s for tr in tracks])
        elapsed = cam_t[:, None] - track_t[None, :]
        # staleness in frame intervals, never below one frame
        dts = np.maximum(elapsed * rig.fps, 1.0)
        if aff.max_dt is not None:
            dts = np.minimum(dts, aff.max_dt * rig.fps)
        pts = np.array([tr.skeleton.joints for tr in tracks])
        track_valid = (np.array([tr.skeleton.flags for tr in tracks])
                       != JointFlag.MISSING)
        counts = [len(bundle.poses[cam_id]) for _, cam_id in seen]
        n_joints = tracks[0].skeleton.n_joints
        pose_uv = np.zeros((len(seen), max(counts), n_joints, 2))
        pose_valid = np.zeros((len(seen), max(counts), n_joints), dtype=bool)
        for k, ((_, cam_id), p) in enumerate(zip(seen, counts)):
            pose_uv[k, :p] = bundle.poses[cam_id][..., :2]
            pose_valid[k, :p] = bundle.valid[cam_id]
        scores = kernels.score_pose_pairs(
            pts, track_valid, dts, rig.k_table[cam_idx], rig.r_table[cam_idx],
            rig.origins[cam_idx], pose_uv, pose_valid,
            aff.alpha_2d, aff.lambda_a, aff.epsilon, cfg.part_aware,
        )
        unmatched = {}
        matched_ids = set()
        for k, ((ci, _), p, t) in enumerate(zip(seen, counts, cam_t.tolist())):
            match = assignment.solve(scores[k, :, :p], 0.0)
            for ti, pi in match.pairs:
                tracks[ti].see(ci, bundle.frame, t, pose_uv[k, pi],
                               pose_valid[k, pi])
                matched_ids.add(tracks[ti].track_id)
            unmatched[ci] = match.unmatched_cols
        return unmatched, matched_ids

    # -- reconstruction ----------------------------------------------

    def reconstruct(self, tracks: list, recent: np.ndarray,
                    bundle: FrameBundle) -> list:
        """Triangulate tracks from their recent views and advance their states.

        recent (T,C) marks the cameras whose view of each of the T tracks
        lies inside the window; all tracks go through the kernels as one
        batch. Returns the new skeletons in the same order.
        """
        cfg = self.config
        t = bundle.time_s
        rig = self.rig
        blind = np.flatnonzero(~recent.any(axis=1))
        if blind.size:
            raise NoRecentObservations(f"track {tracks[blind[0]].track_id} "
                                       f"has no pose within the window")
        obs_uv = np.array([track.view_uv for track in tracks])
        obs_valid = (np.array([track.view_valid for track in tracks])
                     & recent[:, None, :])
        view_time = np.array([track.view_time for track in tracks])
        age_frames = np.maximum(t - view_time[recent], 0.0) * rig.fps
        weights = np.zeros(recent.shape)
        weights[recent] = np.exp(-cfg.affinity.lambda_a * age_frames)
        pred = np.array([track.predict(t) for track in tracks])
        joints, flags = kernels.reconstruct_joints(
            obs_uv, obs_valid, weights, pred,
            rig.f_table, rig.origins, rig.krinv_table, rig.pn_table,
            rig.su, rig.sv, cfg.affinity.alpha_epi, cfg.joints_filter,
        )
        return Track.advance(tracks, t, joints, flags, cfg, rig.fps)

    # -- initialization ----------------------------------------------

    def _cluster_unmatched(self, views: dict):
        """Greedy cross-view clustering of unmatched poses, camera by camera.

        views maps a camera index to its pixels (P,N,2), validity (P,N)
        and unmatched pose rows; each cluster is a list of (camera index,
        row), one per camera.
        """
        aff = self.config.affinity
        rig = self.rig
        clusters: list[list] = []
        for ci, (uv, valid, rows) in sorted(views.items()):
            if not clusters:
                clusters = [[(ci, r)] for r in rows]
                continue
            # score every (cluster member, candidate) pair, then keep each
            # cluster's best member
            members = [m for cluster in clusters for m in cluster]
            cj = np.array([c for c, _ in members])
            member_uv = np.array([views[c][0][r] for c, r in members])
            member_valid = np.array([views[c][1][r] for c, r in members])
            pair_scores = kernels.epipolar_pose_score(
                member_uv[:, None], member_valid[:, None],
                uv[list(rows)], valid[list(rows)],
                rig.f_table[cj, ci][:, None], rig.f_table[ci, cj][:, None],
                aff.alpha_epi,
            )
            starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
            scores = np.maximum.reduceat(pair_scores, starts, axis=0)
            match = assignment.solve(scores, 0.0)
            for k, l in match.pairs:
                clusters[k].append((ci, rows[l]))
            for l in match.unmatched_cols:
                clusters.append([(ci, rows[l])])
        return clusters

    def _init_skeleton(self, uv: np.ndarray, valid: np.ndarray,
                       cam_idx: np.ndarray, t: float) -> Skeleton3D | None:
        """Triangulate a cross-view cluster into a first skeleton.

        uv (N,M,2) and valid (N,M) hold the cluster's M poses, seen by
        the cameras cam_idx (M,). Joints with fewer than two consistent
        views are placed on a single view's ray at the skeleton centroid
        depth, or at the centroid itself, and flagged predicted. Returns
        None when not a single joint triangulates.
        """
        cfg = self.config
        rig = self.rig
        keep = valid
        if cfg.joints_filter:
            keep = kernels.filter_init_mask(uv, keep, cam_idx, rig.f_table,
                                            cfg.affinity.alpha_epi)
        uvn = np.stack((uv[..., 0] * rig.su[cam_idx] - 1.0,
                        uv[..., 1] * rig.sv[cam_idx] - 1.0), axis=-1)
        xyz, status = kernels.triangulate_batch(
            uvn, rig.pn_table[cam_idx], np.ones(len(cam_idx)), keep
        )
        tri = status == 0
        if not tri.any():
            return None
        joints = np.where(tri[:, None], xyz, 0.0)
        flags = np.where(tri, JointFlag.TRIANGULATED, JointFlag.PREDICTED)
        centroid = joints[tri].mean(axis=0)
        for n in np.flatnonzero(~tri):
            kept = np.flatnonzero(keep[n])
            if kept.size:
                slot = kept[0]
            elif valid[n, 0]:
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
        ids = [cam.cam_id for cam in self.rig.cameras]
        views = {ci: (bundle.poses[ids[ci]][..., :2], bundle.valid[ids[ci]], rows)
                 for ci, rows in unmatched.items() if len(rows)}
        new_tracks = []
        for cluster in self._cluster_unmatched(views):
            if len(cluster) < 2:
                continue
            cam_idx = np.array([ci for ci, _ in cluster], dtype=np.int64)
            uv = np.stack([views[ci][0][r] for ci, r in cluster], axis=1)
            valid = np.stack([views[ci][1][r] for ci, r in cluster], axis=1)
            times = [bundle.times[ids[ci]] for ci, _ in cluster]
            skeleton = self._init_skeleton(uv, valid, cam_idx, bundle.time_s)
            if skeleton is None:
                continue
            track = Track(self._next_id, skeleton, len(self.rig),
                          self.config.smooth_window)
            track.see(cam_idx, bundle.frame, times, uv, valid)
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
        tracks = self.tracks
        if tracks:
            recent = (bundle.frame - np.array([tr.view_frame for tr in tracks])
                      < self.config.affinity.tau)
            observed = recent.any(axis=1)
            for track, seen in zip(tracks, observed.tolist()):
                if not seen:
                    emissions[track.track_id] = track.predicted_skeleton(
                        bundle.time_s)
                if track.track_id in matched_ids:
                    track.misses = 0
                else:
                    track.misses += 1
            if observed.any():
                active = [tr for tr, seen in zip(tracks, observed) if seen]
                skeletons = self.reconstruct(active, recent[observed], bundle)
                for track, skeleton in zip(active, skeletons):
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
