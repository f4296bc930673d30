"""Online multi-person 3D skeleton tracking across calibrated cameras.

Each frame: stack every camera's detections once, match them to live
tracks with the part-aware affinity, rebuild each matched track from its
freshest pose per camera (filtered, time-weighted triangulation), then
cluster the detections left free across cameras to spawn new tracks.
Each stage hands its kernels the whole frame: one scoring call and one
assignment call for association, one filter and triangulation call for
the live tracks, and, for initialization, one cross-view scoring call,
one filter call on the per-joint affinities it returns, one
triangulation call for every new track and one back-projection for
every joint of theirs that did not triangulate. Initialization runs
one loop in Python, the greedy clustering: one assignment per camera.
The new rows are built from the born clusters alone.

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
from .errors import NonMonotonicTime, ValidationError
from .geometry import CameraRig
from .schema import bounded, check_fields, check_known_keys


# array code uses kernels' plain ints: numpy converts a member slowly
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
    """Tracker behavior knobs on top of the affinity thresholds, each
    with its range beside its default (see schema.bounded).

    miss_limit defaults to twice the reconstruction window: a track is
    retired after that many consecutive frames without a new 2D match.
    """

    affinity: AffinityConfig = field(default_factory=AffinityConfig)
    part_aware: bool = True
    joints_filter: bool = True
    smoothing: bool = True
    smooth_window: int = bounded(5, at_least=1, at_most=MAX_SMOOTH_WINDOW)
    smooth_sigma: float = bounded(1.0, above=0)
    miss_limit: int | None = bounded(None, at_least=0)

    def __post_init__(self):
        check_fields(self)

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

    def __init__(self, rig: CameraRig, config: TrackerConfig | None = None):
        self.rig = rig
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

    def _stack(self, bundle: FrameBundle) -> tuple | None:
        """The frame's poses, stacked once: the rig cameras cams (K,) that
        saw poses, in rig order, their record times (K,) and pose counts
        (K,), and the poses' pixels uv (K,P,N,2) and joint validity valid
        (K,P,N), padded with invalid poses to the largest count. None
        when no camera saw anyone."""
        seen = [(ci, cam.cam_id) for ci, cam in enumerate(self.rig.cameras)
                if len(bundle.poses.get(cam.cam_id, ()))]
        if not seen:
            return None
        counts = [len(bundle.poses[c]) for _, c in seen]
        n_joints = bundle.poses[seen[0][1]].shape[1]
        uv = np.zeros((len(seen), max(counts), n_joints, 2))
        valid = np.zeros(uv.shape[:-1], dtype=bool)
        for k, ((_, c), p) in enumerate(zip(seen, counts)):
            uv[k, :p] = bundle.poses[c][..., :2]
            valid[k, :p] = bundle.valid[c]
        return (np.array([ci for ci, _ in seen], np.int64),
                np.array([bundle.times[c] for _, c in seen]),
                np.array(counts, np.int64), uv, valid)

    def _associate(self, stack: tuple | None, bundle: FrameBundle):
        """Per-camera bipartite matching of the frame's poses to live tracks.

        The pose stack (see _stack) is scored in one batch and matched in
        one call, each camera on its own columns; each matched pose
        becomes its track's view from that camera, all in one write.
        Returns the (K,P) mask free of the poses left unmatched (None
        without a stack) and the (T,) mask of the tracks matched this
        frame.
        """
        cfg, rig, table = self.config, self.rig, self.tracks
        matched = np.zeros(len(table), dtype=bool)
        if stack is None:
            return None, matched
        aff = cfg.affinity
        cams, times, counts, uv, valid = stack
        free = np.arange(uv.shape[1]) < counts[:, None]
        if not len(table):
            return free, matched
        elapsed = times[:, None] - table.time[None, :]
        # staleness in frame intervals, never below one frame
        dts = np.maximum(elapsed * rig.fps, 1.0)
        scores = kernels.score_pose_pairs(
            table.joints, table.flags != kernels.FLAG_MISSING, dts,
            rig.p_table[cams], uv, valid,
            aff.alpha_2d, aff.lambda_a, aff.epsilon, cfg.part_aware,
        )
        chosen = assignment.solve(scores, 0.0)
        k, ti = np.nonzero(chosen >= 0)
        pi = chosen[k, ti]
        # a camera matches each track at most once: no cell is written twice
        ci = cams[k]
        table.view_frame[ti, ci] = bundle.frame
        table.view_time[ti, ci] = times[k]
        table.view_uv[ti, :, ci] = uv[k, pi]
        table.view_valid[ti, :, ci] = valid[k, pi]
        matched[ti] = True
        free[k, pi] = False
        return free, matched

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
        flags = np.full(table.flags.shape, kernels.FLAG_PREDICTED, np.uint8)
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
                           valid: np.ndarray, counts: list) -> tuple:
        """Greedy cross-view clustering of free poses, camera by camera.

        uv (K,P,N,2) and valid (K,P,N) hold the K rig cameras cams, in rig
        order, each camera's counts[k] free poses first, invalid after.
        One call scores every camera pair q of kernels._slot_pairs(K).
        Each camera's poses then join the clusters built so far: a cluster
        scores a pose by its best member, and one assignment per camera
        settles the joins. Returns the L clusters in the order they were
        started, as their pose (L,K) from each camera, -1 where they have
        none, and the per-joint affinities (Q,P,P,N) of each pair q's
        poses, the earlier camera's first.
        """
        f_table = self.rig.f_table
        first, later = kernels._slot_pairs(len(cams))
        pair_scores, affinities = kernels.epipolar_pose_score(
            uv[first, :, None], valid[first, :, None],
            uv[later, None], valid[later, None],
            f_table[cams[first], cams[later]][:, None, None],
            f_table[cams[later], cams[first]][:, None, None],
            self.config.affinity.alpha_epi,
        )
        pair_of = np.zeros((len(cams), len(cams)), np.int64)
        pair_of[first, later] = np.arange(first.size)
        clusters = np.full((sum(counts), len(cams)), -1)
        clusters[:counts[0], 0] = np.arange(counts[0])
        size = counts[0]
        for k in range(1, len(cams)):
            member = clusters[:size, :k]
            scores = np.where(
                member[..., None] >= 0,
                pair_scores[pair_of[:k, k], member, :counts[k]],
                -np.inf).max(axis=1)
            chosen = assignment.solve(scores, 0.0)
            # an unmatched row keeps -1, no pose from this camera
            clusters[:size, k] = chosen
            # slot counts[k] takes the -1 of every unmatched row
            taken = np.zeros(counts[k] + 1, dtype=bool)
            taken[chosen] = True
            started = np.flatnonzero(~taken[:-1])
            clusters[size:size + started.size, k] = started
            size += started.size
        return clusters[:size], affinities

    def initialize(self, stack: tuple | None, free: np.ndarray | None,
                   bundle: FrameBundle) -> TrackTable:
        """Spawn tracks, returned as new rows, from cross-view clusters of
        the poses that association left free.

        Of the pose stack (see _stack), only the poses that free (K,P)
        marks are clustered, gathered to the front of their camera's row
        in pose order. Every cluster of two or more poses is filtered, on
        the affinities the clustering scored, and triangulated in one
        batch, in the clustering's slots: slot k holds its pose from
        cams[k], dead where it has none. Joints with fewer than two
        consistent views are placed, in one pass, on a single view's ray
        at the skeleton centroid depth, or at the centroid itself, and
        flagged predicted. A cluster in which not a single joint
        triangulates spawns no track. A new track's views are its
        cluster's poses, in their rig slots. No stack, no new track.
        """
        if stack is None:
            return self._no_births
        cams, times, _, uv, valid = stack
        rows = np.flatnonzero(free.any(axis=1))
        if rows.size < 2:
            return self._no_births
        cfg, rig = self.config, self.rig
        cams, times, free = cams[rows], times[rows], free[rows]
        counts = free.sum(axis=1)
        # a stable sort moves each camera's free poses, in order, to the front
        order = np.argsort(~free, axis=1, kind="stable")[:, :counts.max()]
        uv = uv[rows[:, None], order]
        valid = (valid[rows[:, None], order]
                 & (np.arange(order.shape[1]) < counts[:, None])[..., None])
        clusters, affinities = self._cluster_unmatched(cams, uv, valid,
                                                       counts.tolist())
        clusters = clusters[(clusters >= 0).sum(axis=1) >= 2]
        if not len(clusters):
            return self._no_births
        member = clusters >= 0
        slot = np.arange(len(cams))
        # (L,N,K) seeds in the clustering's slots; member masks what -1 reads
        seed_uv = np.where(member[..., None, None], uv[slot, clusters],
                           0.0).swapaxes(1, 2)
        keep = seed_valid = (valid[slot, clusters]
                             & member[..., None]).swapaxes(1, 2)
        if cfg.joints_filter:
            first, later = kernels._slot_pairs(len(cams))
            pair_e = affinities[np.arange(first.size), clusters[:, first],
                                clusters[:, later]].swapaxes(1, 2)
            keep = kernels.filter_init_mask(
                pair_e.reshape(-1, first.size), keep.reshape(-1, len(cams))
            ).reshape(keep.shape)
        uvn = np.stack((seed_uv[..., 0] * rig.su[cams] - 1.0,
                        seed_uv[..., 1] * rig.sv[cams] - 1.0), axis=-1)
        xyz, status = kernels.triangulate_batch(uvn, rig.pn_table[cams],
                                                np.ones(len(cams)), keep)
        ok = status == 0
        born = np.flatnonzero(ok.any(axis=1))
        ok = ok[born]
        # C order, so that the centroid sums each skeleton joint by joint
        joints = np.ascontiguousarray(np.where(ok[..., None], xyz[born], 0.0))
        member = member[born]
        seed_uv, seed_valid = seed_uv[born], seed_valid[born]
        b, n = np.nonzero(~ok)
        if b.size:
            centroid = (joints.sum(axis=1) / ok.sum(axis=1)[:, None])[b]
            kept = keep[born[b], n]
            k = np.where(kept.any(axis=1), kept.argmax(axis=1),
                         member.argmax(axis=1)[b])
            # the filter only drops views: a kept view is a valid one
            on_ray = seed_valid[b, n, k]
            joints[b, n] = centroid
            b, n, k, centroid = (x[on_ray] for x in (b, n, k, centroid))
            ci = cams[k]
            direction = kernels.back_project_dir(
                seed_uv[b, n, k, 0], seed_uv[b, n, k, 1], rig.krinv_table[ci])
            # np.matmul takes np.dot's path for each joint's depth
            depth = np.matmul((centroid - rig.origins[ci])[:, None],
                              direction[..., None])[:, 0]
            joints[b, n] = np.where(depth <= 0, centroid,
                                    rig.origins[ci] + depth * direction)
        new = TrackTable(len(rig), cfg, self._next_id + np.arange(born.size),
                         bundle.time_s, joints,
                         np.where(ok, kernels.FLAG_TRIANGULATED,
                                  kernels.FLAG_PREDICTED))
        new.view_frame[:, cams] = np.where(member, bundle.frame, -np.inf)
        new.view_time[:, cams] = np.where(member, times, 0.0)
        new.view_uv[:, :, cams] = seed_uv
        new.view_valid[:, :, cams] = seed_valid
        self._next_id += born.size
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
        stack = self._stack(bundle)
        free, matched = self._associate(stack, bundle)
        t1 = _time.perf_counter()
        table.misses = np.where(matched, 0, table.misses + 1)
        joints, flags = self.reconstruct(
            bundle.frame - table.view_frame < self.config.affinity.tau, bundle)
        t2 = _time.perf_counter()
        new = self.initialize(stack, free, bundle)
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
