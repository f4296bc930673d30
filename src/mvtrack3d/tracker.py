"""Online multi-person 3D skeleton tracking across calibrated cameras.

Each frame: match every camera's detections to live tracks with the
part-aware affinity, rebuild each matched track from its freshest pose
per camera (filtered, time-weighted triangulation), then cluster the
leftover detections across cameras to spawn new tracks. Each stage
hands its kernels the whole frame: one scoring call and one assignment
call for association, one filter and triangulation call for the live
tracks, and, for initialization, one cross-view scoring call and one
filter and triangulation call for every new track. Only the greedy
clustering of initialization stays sequential, one assignment per
camera.

All track state is one TrackTable, whose columns each stage reads and
writes whole: ids, time, misses (T,); joints, velocity (T,N,3); flags
(T,N); view_frame, view_time (T,C); view_uv (T,N,C,2); view_valid
(T,N,C); history_times (T,W); history_joints (T,W,N,3).

Staleness entering the affinity tolerance and the triangulation weights
is measured in frame intervals, so alpha_2d and lambda_a act per frame
of staleness here. At 25 fps the preset tolerances would otherwise be
smaller than detector noise and nothing could ever match.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, fields, replace
from enum import IntEnum
from itertools import chain

import numpy as np

from . import assignment, kernels
from .affinity import AffinityConfig
from .errors import (
    ConfigError,
    NonMonotonicTime,
    ValidationError,
)
from .geometry import CameraRig
from .schema import check_field_types, check_finite, check_known_keys


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


# Each track keeps its last smooth_window skeletons, 42 float64 apiece at
# 14 joints, and every frame copies the windows of all live tracks; this
# many frames, 40 s at 25 fps, is 0.34 MB a track.
MAX_SMOOTH_WINDOW = 1000


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
        check_finite(self)
        if not 1 <= self.smooth_window <= MAX_SMOOTH_WINDOW:
            raise ConfigError(f"smooth_window must lie in [1, "
                              f"{MAX_SMOOTH_WINDOW}], got {self.smooth_window}")
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


class TrackTable:
    """The state of every live track, one row per track and one column
    per attribute, for T tracks, N joints and C rig cameras: ids (T,), in
    birth order; time (T,) of each track's last skeleton, its joints and
    velocity (T,N,3) and its JointFlag per joint, flags (T,N); misses (T,),
    frames since the last 2D match; view_frame (-inf until a match) and
    view_time (T,C) of the freshest matched view from each camera, its
    pixels view_uv (T,N,C,2) and joint validity view_valid (T,N,C); and
    the last W raw skeletons, history_times (T,W) and history_joints
    (T,W,N,3), right-aligned behind time -inf. W is the smoothing window,
    and 0 when smoothing, the history's only reader, is off.
    """

    def __init__(self, n_cams: int, config: TrackerConfig, ids=(),
                 time_s: float = 0.0, joints=np.zeros((0, 0, 3)),
                 flags=np.zeros((0, 0))):
        """Rows for the tracks ids (T,), born at time_s with the skeletons
        joints (T,N,3) and flags (T,N) and no view yet; none by default."""
        count, n_joints = np.shape(flags)
        window = config.smooth_window if config.smoothing else 0
        self.ids = np.array(ids, dtype=np.int64)
        self.time = np.full(count, time_s, dtype=np.float64)
        self.misses = np.zeros(count, dtype=np.int64)
        self.joints = np.array(joints, dtype=np.float64)
        self.velocity = np.zeros_like(self.joints)
        self.flags = np.array(flags, dtype=np.uint8)
        self.view_frame = np.full((count, n_cams), -np.inf)
        self.view_time = np.zeros((count, n_cams))
        self.view_uv = np.zeros((count, n_joints, n_cams, 2))
        self.view_valid = np.zeros((count, n_joints, n_cams), dtype=bool)
        self.history_times = np.full((count, window), -np.inf)
        self.history_joints = np.zeros((count, window, n_joints, 3))
        if window:
            self.history_times[:, -1] = time_s
            self.history_joints[:, -1] = self.joints

    def __len__(self) -> int:
        return self.ids.size

    def take(self, keep: np.ndarray) -> None:
        """Keep only the rows that the boolean mask keep (T,) marks."""
        vars(self).update({k: col[keep] for k, col in vars(self).items()})

    def extend(self, other: "TrackTable") -> None:
        """Append copies of other's rows."""
        mine = vars(self) if len(self) else {}
        vars(self).update({k: np.concatenate((mine[k], col)) if mine
                           else col.copy() for k, col in vars(other).items()})

    def predict(self, t: float) -> np.ndarray:
        """Constant-velocity extrapolation of the joints to time t."""
        return self.joints + self.velocity * (t - self.time)[:, None, None]

    def advance(self, rows: np.ndarray, t: float, joints: np.ndarray,
                flags: np.ndarray, sigma: float, fps: float) -> np.ndarray:
        """Fold freshly reconstructed skeletons at time t, joints (R,N,3)
        and flags (R,N), into the rows (R,), smoothing all of them in one
        call. Returns the new joints (R,N,3), which the table copies."""
        if self.history_times.shape[1] > 1:
            times = np.concatenate((self.history_times[rows, 1:],
                                    np.full((rows.size, 1), t)), axis=1)
            history = np.concatenate((self.history_joints[rows, 1:],
                                      joints[:, None]), axis=1)
            joints = kernels.causal_gaussian_smooth(times, history, sigma,
                                                    fps, t)
            self.history_times[rows] = times
            self.history_joints[rows] = history
        dt = t - self.time[rows]
        pos = dt > 0
        self.velocity[rows[pos]] = ((joints[pos] - self.joints[rows[pos]])
                                    / dt[pos, None, None])
        self.joints[rows] = joints
        self.flags[rows] = flags
        self.time[rows] = t
        return joints


# bench/spans.py wraps Track.advance by this name.
Track = TrackTable


class PoseTracker:
    """Stateful frame-by-frame tracker over one calibrated rig."""

    def __init__(self, rig, config: TrackerConfig | None = None):
        self.rig = rig if isinstance(rig, CameraRig) else CameraRig(rig)
        self.config = config or TrackerConfig()
        self.tracks = TrackTable(len(self.rig), self.config)
        # what initialize returns when it spawns nothing; nothing writes it
        self._no_births = TrackTable(len(self.rig), self.config)
        self._next_id = 1
        self._last_time = -np.inf
        self._last_frame: int | None = None
        self.frames_processed = 0
        self.stage_seconds = {"associate": 0.0, "reconstruct": 0.0, "initialize": 0.0}

    # -- association -------------------------------------------------

    def _associate(self, bundle: FrameBundle):
        """Per-camera bipartite matching of detections to live tracks.

        Every camera with detections is scored in one batch, its poses
        padded with invalid joints to the largest count, and the whole
        stack is matched in one call, each camera on its own columns.
        Each matched pose becomes its track's view from that camera, all
        in one write. Returns ({camera index: unmatched pose rows}, the
        (T,) mask of the tracks matched this frame).
        """
        cfg = self.config
        aff = cfg.affinity
        rig = self.rig
        table = self.tracks
        seen = [(ci, cam.cam_id) for ci, cam in enumerate(rig.cameras)
                if len(bundle.poses.get(cam.cam_id, ()))]
        matched = np.zeros(len(table), dtype=bool)
        if not len(table) or not seen:
            return {ci: range(len(bundle.poses[cam_id]))
                    for ci, cam_id in seen}, matched
        cam_idx = np.array([ci for ci, _ in seen])
        cam_t = np.array([bundle.times[cam_id] for _, cam_id in seen])
        elapsed = cam_t[:, None] - table.time[None, :]
        # staleness in frame intervals, never below one frame
        dts = np.maximum(elapsed * rig.fps, 1.0)
        if aff.max_dt is not None:
            dts = np.minimum(dts, aff.max_dt * rig.fps)
        counts = [len(bundle.poses[cam_id]) for _, cam_id in seen]
        n_joints = table.joints.shape[1]
        pose_uv = np.zeros((len(seen), max(counts), n_joints, 2))
        pose_valid = np.zeros((len(seen), max(counts), n_joints), dtype=bool)
        for k, ((_, cam_id), p) in enumerate(zip(seen, counts)):
            pose_uv[k, :p] = bundle.poses[cam_id][..., :2]
            pose_valid[k, :p] = bundle.valid[cam_id]
        scores = kernels.score_pose_pairs(
            table.joints, table.flags != JointFlag.MISSING, dts,
            rig.k_table[cam_idx], rig.r_table[cam_idx], rig.origins[cam_idx],
            pose_uv, pose_valid,
            aff.alpha_2d, aff.lambda_a, aff.epsilon, cfg.part_aware,
        )
        matches = assignment.solve(scores, 0.0, counts)
        pairs = chain.from_iterable(m.pairs for m in matches)
        ti, pi = np.fromiter(chain.from_iterable(pairs),
                             np.int64).reshape(-1, 2).T
        k = np.repeat(np.arange(len(seen)), [len(m.pairs) for m in matches])
        # a camera matches each track at most once: no cell is written twice
        ci = cam_idx[k]
        table.view_frame[ti, ci] = bundle.frame
        table.view_time[ti, ci] = cam_t[k]
        table.view_uv[ti, :, ci] = pose_uv[k, pi]
        table.view_valid[ti, :, ci] = pose_valid[k, pi]
        matched[ti] = True
        return ({ci: m.unmatched_cols for (ci, _), m in zip(seen, matches)},
                matched)

    # -- reconstruction ----------------------------------------------

    def reconstruct(self, recent: np.ndarray, bundle: FrameBundle) -> tuple:
        """Rebuild every track that has a view inside the window from those
        views and advance its state; a track with none coasts on its
        prediction.

        recent (T,C) marks the cameras whose view of each track lies
        inside the window; the rebuilt tracks go through the kernels as
        one batch. Returns the frame's joints (T,N,3) and flags (T,N), in
        arrays of their own that no later frame writes.
        """
        cfg = self.config
        t = bundle.time_s
        rig = self.rig
        table = self.tracks
        joints = table.predict(t)
        flags = np.full(table.flags.shape, JointFlag.PREDICTED, dtype=np.uint8)
        rows = np.flatnonzero(recent.any(axis=1))
        if not rows.size:
            return joints, flags
        recent = recent[rows]
        obs_valid = table.view_valid[rows] & recent[:, None, :]
        ages = np.maximum(t - table.view_time[rows][recent], 0.0) * rig.fps
        weights = np.zeros(recent.shape)
        # an extreme lambda_a overflows the exponent to -inf: a weight of 0
        with np.errstate(over="ignore"):
            weights[recent] = np.exp(-cfg.affinity.lambda_a * ages)
        rebuilt, rebuilt_flags = kernels.reconstruct_joints(
            table.view_uv[rows], obs_valid, weights, joints[rows],
            rig.f_table, rig.origins, rig.krinv_table, rig.pn_table,
            rig.su, rig.sv, cfg.affinity.alpha_epi, cfg.joints_filter,
        )
        joints[rows] = table.advance(rows, t, rebuilt, rebuilt_flags,
                                     cfg.smooth_sigma, rig.fps)
        flags[rows] = rebuilt_flags
        return joints, flags

    # -- initialization ----------------------------------------------

    def _cluster_unmatched(self, cams: np.ndarray, uv: np.ndarray,
                           valid: np.ndarray, counts: list) -> list:
        """Greedy cross-view clustering of unmatched poses, camera by camera.

        uv (K,P,N,2) and valid (K,P,N) hold the unmatched poses of the K
        rig cameras cams, in rig order, padded with invalid poses to the
        largest count; camera k has counts[k]. Every (earlier, later)
        camera pair is scored in one call. Each camera's poses then join
        the clusters built so far, every earlier pose being a member of
        one: a cluster scores a pose by its best member, and one
        assignment per camera settles the joins. Each cluster is a list
        of (k, pose), one per camera in camera order.
        """
        f_table = self.rig.f_table
        first, later = np.triu_indices(len(cams), 1)
        pair_scores = kernels.epipolar_pose_score(
            uv[first, :, None], valid[first, :, None],
            uv[later, None], valid[later, None],
            f_table[cams[first], cams[later]][:, None, None],
            f_table[cams[later], cams[first]][:, None, None],
            self.config.affinity.alpha_epi,
        )
        pair_of = np.zeros((len(cams), len(cams)), np.int64)
        pair_of[first, later] = np.arange(first.size)
        clusters = [[(0, p)] for p in range(counts[0])]
        for k in range(1, len(cams)):
            member_k, member_p = np.array(
                [m for cluster in clusters for m in cluster]).T
            starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
            scores = np.maximum.reduceat(
                pair_scores[pair_of[member_k, k], member_p, :counts[k]],
                starts, axis=0)
            match = assignment.solve(scores, 0.0)
            for c, p in match.pairs:
                clusters[c].append((k, p))
            for p in match.unmatched_cols:
                clusters.append([(k, p)])
        return clusters

    def initialize(self, unmatched: dict, bundle: FrameBundle) -> TrackTable:
        """Spawn tracks, returned as new rows, from cross-view clusters of
        unmatched poses.

        Every cluster of two or more poses is filtered and triangulated
        in one batch, laid out as in reconstruct: slot c holds the pose
        from rig camera c, and cameras outside the cluster are dead
        slots. Joints with fewer than two consistent views are placed on
        a single view's ray at the skeleton centroid depth, or at the
        centroid itself, and flagged predicted. A cluster in which not a
        single joint triangulates spawns no track. A new track's views are
        its cluster's poses.
        """
        seen = [ci for ci in sorted(unmatched) if len(unmatched[ci])]
        if len(seen) < 2:
            return self._no_births
        cfg = self.config
        rig = self.rig
        ids = [cam.cam_id for cam in rig.cameras]
        rows = [list(unmatched[ci]) for ci in seen]
        counts = [len(r) for r in rows]
        n_joints = bundle.poses[ids[seen[0]]].shape[1]
        uv = np.zeros((len(seen), max(counts), n_joints, 2))
        valid = np.zeros(uv.shape[:-1], dtype=bool)
        for k, (ci, r) in enumerate(zip(seen, rows)):
            uv[k, :len(r)] = bundle.poses[ids[ci]][r, :, :2]
            valid[k, :len(r)] = bundle.valid[ids[ci]][r]
        cams = np.array(seen)
        clusters = [c for c in self._cluster_unmatched(cams, uv, valid, counts)
                    if len(c) >= 2]
        if not clusters:
            return self._no_births
        n_cams = len(rig)
        owner = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
        member_k, member_p = np.array([m for c in clusters for m in c]).T
        seed_uv = np.zeros((len(clusters), n_joints, n_cams, 2))
        seed_valid = np.zeros(seed_uv.shape[:-1], dtype=bool)
        seed_uv[owner, :, cams[member_k]] = uv[member_k, member_p]
        seed_valid[owner, :, cams[member_k]] = valid[member_k, member_p]
        flat_uv = seed_uv.reshape(-1, n_cams, 2)
        keep = seed_valid.reshape(-1, n_cams)
        if cfg.joints_filter:
            keep = kernels.filter_init_mask(flat_uv, keep, np.arange(n_cams),
                                            rig.f_table, cfg.affinity.alpha_epi)
        uvn = np.stack((flat_uv[..., 0] * rig.su - 1.0,
                        flat_uv[..., 1] * rig.sv - 1.0), axis=-1)
        xyz, status = kernels.triangulate_batch(uvn, rig.pn_table,
                                                np.ones(n_cams), keep)
        ok = (status == 0).reshape(len(clusters), n_joints)
        joints = np.where(ok[..., None],
                          xyz.reshape(len(clusters), n_joints, 3), 0.0)
        flags = np.where(ok, JointFlag.TRIANGULATED, JointFlag.PREDICTED)
        keep = keep.reshape(seed_valid.shape)
        born = ok.any(axis=1)
        for i in np.flatnonzero(born).tolist():
            tri = ok[i]
            first = cams[clusters[i][0][0]]
            centroid = joints[i][tri].mean(axis=0)
            for n in np.flatnonzero(~tri):
                kept = np.flatnonzero(keep[i, n])
                if kept.size:
                    ci = kept[0]
                elif seed_valid[i, n, first]:
                    ci = first
                else:
                    joints[i, n] = centroid
                    continue
                direction = kernels.back_project_dir(
                    seed_uv[i, n, ci, 0], seed_uv[i, n, ci, 1],
                    rig.krinv_table[ci])
                depth = float(np.dot(centroid - rig.origins[ci], direction))
                if depth <= 0:
                    joints[i, n] = centroid
                else:
                    joints[i, n] = rig.origins[ci] + depth * direction
        # the born clusters' ids count up from _next_id; take drops the rest
        new = TrackTable(n_cams, cfg, self._next_id - 1 + np.cumsum(born),
                         bundle.time_s, joints, flags)
        new.view_frame[owner, cams[member_k]] = bundle.frame
        new.view_time[owner, cams[member_k]] = np.array(
            [bundle.times[ids[ci]] for ci in seen])[member_k]
        new.view_uv, new.view_valid = seed_uv, seed_valid
        new.take(born)
        self._next_id += len(new)
        return new

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
        t = bundle.time_s
        table = self.tracks
        t0 = _time.perf_counter()
        unmatched, matched = self._associate(bundle)
        t1 = _time.perf_counter()
        table.misses = np.where(matched, 0, table.misses + 1)
        joints, flags = self.reconstruct(
            bundle.frame - table.view_frame < self.config.affinity.tau, bundle)
        t2 = _time.perf_counter()
        new = self.initialize(unmatched, bundle)
        t3 = _time.perf_counter()
        keep = table.misses <= self.config.effective_miss_limit
        if not keep.all():
            table.take(keep)
            joints, flags = joints[keep], flags[keep]
        if len(new):
            table.extend(new)
        self.stage_seconds["associate"] += t1 - t0
        self.stage_seconds["reconstruct"] += t2 - t1
        self.stage_seconds["initialize"] += t3 - t2
        self.frames_processed += 1
        self._last_time = t
        self._last_frame = bundle.frame
        return [(i, Skeleton3D(t, j, f)) for i, j, f in zip(
            table.ids.tolist(), chain(joints, new.joints),
            chain(flags, new.flags))]

    @property
    def stage_means_ms(self) -> dict:
        n = max(self.frames_processed, 1)
        return {k: 1e3 * v / n for k, v in self.stage_seconds.items()}
