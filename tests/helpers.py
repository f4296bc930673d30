"""Shared test utilities.

Everything here is implemented independently of the library internals it
is used to check: camera construction, an exhaustive assignment search,
a from-scratch pose scorer, image lines and epipolar lines, a weighted
linear triangulator, a one-joint greedy epipolar filter, the batched
initialization filter as it stood on pixels, a limb-correctness scorer,
a one-joint-at-a-time detections reader, a per-entry ground-truth
reader, the per-float file writers, a one-record-per-joint corruption
sidecar writer and the records it writes for a synthetic scene, the
scene generator as it stood one pose at a time, the gated assignment
with its one-pass test written out on its own, a track initializer that
seeds one cluster at a time with the same kernels and that pixel filter,
triangulation by one SVD of each joint's kept rows, a row-by-row
comparison of two runs' tracks and a staggered leave-and-return
schedule with the count of frames in which a track id changes actor.
Tests compare library output against these, and build the frames they
feed the tracker with make_bundle. The exception is the per-point
geometry (project, back_project_ray, point_ray_distance_3d,
triangulate) and the one-frame scoring (match_actors, score_actor):
thin forms of the batched kernels that build inputs and read results
one point or one frame at a time. The hypothesis strategies at the end
draw floats and JSON values for the codec tests and the input fuzzers.

The scalar references (epipolar pair affinity and pose score, the
initialization filter, smoothing, the greedy actor matcher, per-limb
correctness) spell out, one element at a time and in the same order of
operations, what the batched kernels compute, so the kernels must match
them bit for bit.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from mvtrack3d import assignment, fileio, kernels, synth
from mvtrack3d.affinity import AffinityConfig, valid_joints
from mvtrack3d.errors import NonMonotonicFrames, ParseError
from mvtrack3d.evaluation import (_joint_masks, _limbs_correct, _stack_joints,
                                  match_run)
from mvtrack3d.fileio import TrackFrame
from mvtrack3d.geometry import CameraCalibration, CameraRig
from mvtrack3d.synth import CLASS_NAMES
from mvtrack3d.tracker import (
    CHAR_FLAGS,
    FrameBundle,
    JointFlag,
    PoseTracker,
    Skeleton3D,
    TrackTable,
)


def look_at_camera(cam_id, position, target, focal=700.0, width=800,
                   height=600, fps=25.0):
    """Pinhole camera at `position` aimed at `target`, +v pointing down."""
    pos = np.asarray(position, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - pos
    fwd = fwd / np.linalg.norm(fwd)
    up = np.array([0.0, 0.0, 1.0])
    if abs(fwd @ up) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(fwd, up)
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd])
    intr = np.array([
        [focal, 0.0, width / 2.0],
        [0.0, focal, height / 2.0],
        [0.0, 0.0, 1.0],
    ])
    return CameraCalibration(cam_id, intr, rot, pos, width, height, fps)


def random_ring_rig(rng, n_cams=3, fps=25.0):
    """Cameras spread around a randomized ring, all aimed near the origin."""
    base = rng.uniform(0.0, 2.0 * np.pi)
    radius = rng.uniform(4.0, 9.0)
    cams = []
    for i in range(n_cams):
        ang = base + 2.0 * np.pi * i / n_cams + rng.normal(0.0, 0.1)
        pos = np.array([radius * np.cos(ang), radius * np.sin(ang),
                        rng.uniform(2.0, 5.0)])
        target = np.array([0.0, 0.0, 1.0]) + rng.normal(0.0, 0.2, size=3)
        cams.append(look_at_camera(i, pos, target,
                                   focal=rng.uniform(500.0, 900.0), fps=fps))
    return cams


def points_near_origin(rng, count):
    """World points inside the volume every ring camera faces."""
    return rng.uniform([-1.5, -1.5, 0.2], [1.5, 1.5, 1.9], size=(count, 3))


def homogeneous_project(camera, points):
    """Projection through the raw 3x4 matrix; returns (uv (N,2), depth (N,))."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cam_pts = (camera.R @ (pts - camera.o).T).T
    depth = cam_pts[:, 2]
    hom = (camera.K @ cam_pts.T).T
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = hom[:, :2] / hom[:, 2:3]
    return uv, depth


# Per-point and per-frame forms of the batched kernels. They call the
# kernels themselves, so they are input builders, not references.

MIN_DEPTH = 1e-9


@dataclass(frozen=True)
class Ray3D:
    """Half-line from origin along a unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin",
                           np.asarray(self.origin, dtype=np.float64).reshape(3))
        d = np.asarray(self.direction, dtype=np.float64).reshape(3)
        n = np.linalg.norm(d)
        if not np.isfinite(n) or n < 1e-12:
            raise ValueError("ray direction must be non-zero")
        object.__setattr__(self, "direction", d / n)

    def point_at(self, t):
        return self.origin + t * self.direction


def project(point, camera):
    """Pixel of one world point by kernels.project_points; ValueError
    unless its depth exceeds MIN_DEPTH."""
    pts = np.ascontiguousarray(point, dtype=np.float64).reshape(1, 3)
    uv, depth = kernels.project_points(pts, camera.projection_matrix)
    if depth[0] <= MIN_DEPTH:
        raise ValueError(f"point depth {depth[0]:.3g} is not in front of "
                         f"camera {camera.cam_id}")
    return uv[0]


def back_project_ray(pixel, camera):
    """Ray through the camera center and a pixel, by
    kernels.back_project_dir."""
    direction = kernels.back_project_dir(float(pixel[0]), float(pixel[1]),
                                         camera.krinv)
    return Ray3D(origin=camera.o.copy(), direction=direction)


def point_ray_distance_3d(point, ray):
    """Distance from a world point to the line carrying the ray, by
    kernels.point_ray_distance."""
    p = np.ascontiguousarray(point, dtype=np.float64).reshape(3)
    return kernels.point_ray_distance(p, ray.origin, ray.direction)


def triangulate(pixels, cameras, weights=None):
    """One point from pixels (M,2) of M cameras by kernels.triangulate_batch,
    weights 1 when None; ValueError unless its status is 0."""
    uv = np.ascontiguousarray(pixels, dtype=np.float64).reshape(-1, 2)
    m = len(cameras)
    w = np.ones(m) if weights is None else np.asarray(weights, np.float64)
    pmats = np.stack([c.projection_matrix for c in cameras])
    xyz, status = kernels.triangulate_batch(uv[None], pmats[None], w[None],
                                            np.ones((1, m), np.bool_))
    if status[0] != 0:
        raise ValueError(f"triangulation status {status[0]}")
    return xyz[0]


def match_actors(pred_actors, gt_actors, schema, gt_masks=None):
    """evaluation.match_run on one frame: {gt actor id: prediction id} of
    the greedy pairs of {id: (N,3) joints} predictions and ground truth,
    gt_masks {gt actor id: (N,) joints to average over}."""
    pred_ids, gt_ids = sorted(pred_actors), sorted(gt_actors)
    preds = _stack_joints([pred_actors[p] for p in pred_ids], schema,
                          "predicted")
    gts = _stack_joints([gt_actors[g] for g in gt_ids], schema,
                        "ground-truth")
    gt_masks = gt_masks or {}
    masks = {i: gt_masks[g] for i, g in enumerate(gt_ids) if g in gt_masks}
    table = match_run(preds, [len(preds)], gts, [len(gts)],
                      _joint_masks(masks, len(gts), schema.n_joints))
    return {gt_ids[g]: pred_ids[p] for _, g, p in table.tolist()}


def score_actor(pred, gt, schema, mask=None):
    """evaluation._limbs_correct on one pair: [(part, correct)] of every
    limb whose endpoints mask keeps (all when None)."""
    ok = _limbs_correct(_stack_joints([pred], schema, "predicted"),
                        _stack_joints([gt], schema, "ground-truth"),
                        schema)[0].tolist()
    return [(part, c) for (part, a, b), c in zip(schema.limbs, ok)
            if mask is None or (mask[a] and mask[b])]


def exhaustive_assignment_total(values, gate=0.0):
    """Best achievable total over every partial injective assignment that
    uses only entries strictly above the gate. Dynamic program over column
    subsets; equivalent to enumerating all permutation sub-selections."""
    arr = np.asarray(values, dtype=np.float64)
    rows, cols = arr.shape
    size = 1 << cols
    neg = float("-inf")
    dp = [neg] * size
    dp[0] = 0.0
    for r in range(rows):
        row = arr[r].tolist()
        new = dp[:]
        for mask in range(size):
            base = dp[mask]
            if base == neg:
                continue
            for c in range(cols):
                bit = 1 << c
                if mask & bit or row[c] <= gate:
                    continue
                total = base + row[c]
                if total > new[mask | bit]:
                    new[mask | bit] = total
        dp = new
    return max(dp)


def exhaustive_assignment_lex(values, gate=0.0):
    """Lexicographically smallest maximum-total partial assignment over
    entries strictly above the gate, found by enumerating every partial
    assignment. Pairs are (row, col) in row order and compare as Python
    tuples, so a proper prefix is smaller than its extensions."""
    arr = np.asarray(values, dtype=np.float64)
    rows, cols = arr.shape
    found = []

    def extend(r, used, pairs, total):
        if r == rows:
            found.append((total, tuple(pairs)))
            return
        extend(r + 1, used, pairs, total)
        for c in range(cols):
            if c not in used and arr[r, c] > gate:
                extend(r + 1, used | {c}, pairs + [(r, c)],
                       total + float(arr[r, c]))

    extend(0, frozenset(), [], 0.0)
    best = max(total for total, _ in found)
    return min(pairs for total, pairs in found if total >= best - 1e-9)


def reference_solve(values, min_affinity=0.0):
    """assignment.solve with the one-pass test of the obvious matrices as
    a function of its own, its tie scale summed over the permitted cells
    alone. The solve must return equal chosen columns and raise
    ValueError in the same cases."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"affinity matrix must be 2D or a 3D stack, got "
                         f"shape {arr.shape}")
    stack = arr if arr.ndim == 3 else arr[None]
    if not (stack < np.inf).all():
        raise ValueError("affinity matrix contains NaN or +inf entries")
    allowed = stack > min_affinity
    chosen, unique = _reference_unique_best(stack, allowed)
    for i in np.flatnonzero(~unique).tolist():
        chosen[i] = assignment.assignment_lex(stack[i], allowed[i])
    return chosen if arr.ndim == 3 else chosen[0]


def _reference_unique_best(stack, allowed):
    """Chosen column per row, -1 where unmatched, and the mask of the
    matrices whose matching is unique by the margin 4(n+1)·tol, where
    tol = 1e-9·(1 + Σ|v| over the permitted cells)."""
    k, n, m = stack.shape
    options = np.full((k, n, m + 2), -np.inf)
    np.copyto(options[..., :m], stack, where=allowed)
    options[..., m] = 0.0
    pick = options.argmax(axis=-1)
    top = np.sort(options, axis=-1)
    best = top[..., -1]
    scale = 1.0 + np.where(allowed, np.abs(stack), 0.0).sum(axis=(1, 2))
    margin = 4e-9 * (n + 1) * scale
    unique = (best - top[..., -2] > margin[:, None]).all(axis=1)
    ids = np.sort(np.where(pick < m, pick, -1 - np.arange(n)), axis=-1)
    unique &= (ids[:, 1:] != ids[:, :-1]).all(axis=1)
    return np.where(pick < m, pick, -1), unique


def reference_pose_score(camera, skel_joints, skel_valid, dt, pose_uv,
                         pose_valid, alpha_2d, lam, eps_count, part_aware):
    """From-scratch pose-to-skeleton score with the same contract as the
    library: joints count only when valid on both sides and in front of
    the camera; part-aware averages the strictly positive affinities and
    needs at least eps_count of them, the baseline averages everything."""
    uv, depth = homogeneous_project(camera, skel_joints)
    ok = np.asarray(skel_valid, bool) & np.asarray(pose_valid, bool) & (depth > 0.0)
    if not ok.any():
        return 0.0
    d = np.linalg.norm(np.asarray(pose_uv, float) - uv, axis=1)
    aff = (1.0 - d / (alpha_2d * dt)) * np.exp(-lam * dt)
    if part_aware:
        pos = ok & (aff > 0.0)
        if pos.sum() >= max(eps_count, 1):
            return float(aff[pos].mean())
        return 0.0
    return float(aff[ok].mean())


def _dlt_rows(cameras, uvs, weights):
    """The (2M,4) homogeneous system of M weighted views, from the pixels
    as measured: w·(u·P₃ − P₁) and w·(v·P₃ − P₂) per view."""
    rows = []
    for cam, uv, w in zip(cameras, uvs, weights):
        p = cam.projection_matrix
        rows.append(w * (uv[0] * p[2] - p[0]))
        rows.append(w * (uv[1] * p[2] - p[1]))
    return np.stack(rows)


def weighted_dlt(cameras, uvs, weights):
    """Independent homogeneous least-squares triangulation from the pixels
    as measured."""
    _, _, vt = np.linalg.svd(_dlt_rows(cameras, uvs, weights))
    x = vt[-1]
    return x[:3] / x[3]


def weighted_dlt_status(cameras, uvs, weights):
    """weighted_dlt by the SVD of the system itself, with the kernels'
    status codes (_dlt_status), 1 below two views. Returns (xyz,
    status), xyz zero unless status is 0."""
    if len(cameras) < 2:
        return np.zeros(3), 1
    _, sigma, vt = np.linalg.svd(_dlt_rows(cameras, uvs, weights))
    return _dlt_status(sigma, vt[-1])


def _dlt_status(sigma, x):
    """(xyz, status) of a system with singular values sigma and null
    vector x: 2 when sigma1 <= 0 or sigma3 <= 1e-7 sigma1, 3 when the
    null vector's |w| <= 1e-12 |xyz|, else 0 and the point."""
    if sigma[0] <= 0.0 or sigma[2] <= 1e-7 * sigma[0]:
        return np.zeros(3), 2
    if abs(x[3]) <= 1e-12 * np.linalg.norm(x[:3]):
        return np.zeros(3), 3
    return x[:3] / x[3], 0


def reference_dlt_rows(uv, pmats, weights, keep):
    """The rows A (...,M,2,4) of triangulate_batch's weighted systems,
    one pair per view, unused views zero rows."""
    w = weights[..., None]
    p = pmats
    with np.errstate(over="ignore", invalid="ignore"):
        rows_u = w * (uv[..., 0, None] * p[..., 2, :] - p[..., 0, :])
        rows_v = w * (uv[..., 1, None] * p[..., 2, :] - p[..., 1, :])
        return np.where(keep[..., None, None],
                        np.stack((rows_u, rows_v), axis=-2), 0.0)


def reference_normal_matrices(uv, pmats, weights, keep):
    """The normal matrices AᵀA (...,4,4) of triangulate_batch's weighted
    systems, one pair of rows per view, unused views zero rows."""
    a = reference_dlt_rows(uv, pmats, weights, keep)
    a = a.reshape(a.shape[:-3] + (-1, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(a.swapaxes(-1, -2), a)


def reference_triangulate_svd(uv, pmats, weights, keep):
    """triangulate_batch joint by joint, from one np.linalg.svd of each
    joint's kept rows in slot order (reference_dlt_rows), with the
    status codes of weighted_dlt_status; 2 also where AᵀA is not
    finite. Returns (xyz, status), xyz zero unless status is 0."""
    a = reference_dlt_rows(uv, pmats, weights, keep)
    finite = np.isfinite(reference_normal_matrices(uv, pmats, weights, keep)
                         ).all(axis=(-2, -1)).ravel()
    shape = a.shape[:-3]
    keep = np.broadcast_to(keep, a.shape[:-2]).reshape(-1, a.shape[-3])
    a = a.reshape(keep.shape + (2, 4))
    count = keep.sum(axis=1)
    xyz = np.zeros((len(keep), 3))
    status = np.where(count < 2, 1, 2)
    for b in np.flatnonzero((count >= 2) & finite).tolist():
        _, sigma, vt = np.linalg.svd(a[b][keep[b]].reshape(-1, 4),
                                     full_matrices=False)
        xyz[b], status[b] = _dlt_status(sigma, vt[-1])
    return xyz.reshape(shape + (3,)), status.reshape(shape)


@dataclass(frozen=True)
class Line2D:
    """Image line a*u + b*v + c = 0, normalized so a^2 + b^2 = 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = np.hypot(self.a, self.b)
        if not np.isfinite(n) or n < 1e-12:
            raise ValueError("line normal must be non-zero")
        object.__setattr__(self, "a", self.a / n)
        object.__setattr__(self, "b", self.b / n)
        object.__setattr__(self, "c", self.c / n)


def _ray_images(cam_a, uv_a, cam_b):
    """Homogeneous images in cam_b of two points on the ray through pixel
    uv_a of cam_a: cam_a's center and the point one unit beyond it."""
    direction = np.linalg.solve(cam_a.K @ cam_a.R, [uv_a[0], uv_a[1], 1.0])
    h1 = cam_b.K @ cam_b.R @ (cam_a.o - cam_b.o)
    h2 = cam_b.K @ cam_b.R @ (cam_a.o + direction - cam_b.o)
    return h1, h2


def epipolar_line(pixel, cam_src, cam_dst):
    """Line in cam_dst on which the match of a cam_src pixel must lie,
    through the images of two points of the pixel's ray."""
    return Line2D(*np.cross(*_ray_images(cam_src, pixel, cam_dst)))


def point_line_distance_2d(pixel, line):
    """Perpendicular pixel-to-line distance."""
    return abs(line.a * float(pixel[0]) + line.b * float(pixel[1]) + line.c)


def _epipolar_line_distance(cam_a, uv_a, cam_b, uv_b):
    """Pixel distance of uv_b from the image in cam_b of the ray through uv_a,
    None when that image degenerates to a point (uv_b sits on the epipole)."""
    h1, h2 = _ray_images(cam_a, uv_a, cam_b)
    line = np.cross(h1, h2)
    norm = np.hypot(line[0], line[1])
    if norm < 1e-12 * max(np.linalg.norm(h1) * np.linalg.norm(h2), 1.0):
        return None
    return abs(line @ [uv_b[0], uv_b[1], 1.0]) / norm


def reference_tracked_filter(cameras, uvs, pred, alpha):
    """From-scratch greedy epipolar filter over one joint's views.

    While some surviving pair's symmetric epipolar affinity is negative,
    the first most negative pair in (i, j) order loses the view whose ray
    passes farther from pred, the earlier view on a tie. A pair involving
    an epipole scores 0. Returns the keep mask.
    """
    m = len(cameras)
    score = {}
    for i in range(m):
        for j in range(i + 1, m):
            d_ij = _epipolar_line_distance(cameras[i], uvs[i], cameras[j], uvs[j])
            d_ji = _epipolar_line_distance(cameras[j], uvs[j], cameras[i], uvs[i])
            if d_ij is None or d_ji is None:
                score[i, j] = 0.0
            else:
                score[i, j] = 1.0 - (d_ij + d_ji) / (2.0 * alpha)
    dist = []
    for cam, uv in zip(cameras, uvs):
        direction = np.linalg.solve(cam.K @ cam.R, [uv[0], uv[1], 1.0])
        direction = direction / np.linalg.norm(direction)
        dist.append(np.linalg.norm(np.cross(pred - cam.o, direction)))
    alive = [True] * m
    while True:
        worst, pair = 0.0, None
        for (i, j), s in score.items():
            if alive[i] and alive[j] and s < worst:
                worst, pair = s, (i, j)
        if pair is None:
            return np.array(alive, dtype=bool)
        i, j = pair
        alive[i if dist[i] >= dist[j] else j] = False


def reference_epipolar_pair_affinity(ua, va, ub, vb, f_ab, f_ba, alpha):
    """Scalar symmetric epipolar affinity of one pixel pair, 0 on an epipole."""
    la = f_ab[0, 0] * ua + f_ab[0, 1] * va + f_ab[0, 2]
    lb = f_ab[1, 0] * ua + f_ab[1, 1] * va + f_ab[1, 2]
    lc = f_ab[2, 0] * ua + f_ab[2, 1] * va + f_ab[2, 2]
    n1 = math.sqrt(la * la + lb * lb)
    ma = f_ba[0, 0] * ub + f_ba[0, 1] * vb + f_ba[0, 2]
    mb = f_ba[1, 0] * ub + f_ba[1, 1] * vb + f_ba[1, 2]
    mc = f_ba[2, 0] * ub + f_ba[2, 1] * vb + f_ba[2, 2]
    n2 = math.sqrt(ma * ma + mb * mb)
    if n1 < 1e-12 or n2 < 1e-12:
        return 0.0
    d1 = abs(la * ub + lb * vb + lc) / n1
    d2 = abs(ma * ua + mb * va + mc) / n2
    return 1.0 - (d1 + d2) / (2.0 * alpha)


def reference_epipolar_pose_score(uv_a, valid_a, uv_b, valid_b, f_ab, f_ba,
                                  alpha):
    """Scalar sum of pair affinities over the mutually valid joints."""
    total = 0.0
    for n in range(uv_a.shape[0]):
        if valid_a[n] and valid_b[n]:
            total += reference_epipolar_pair_affinity(
                uv_a[n, 0], uv_a[n, 1], uv_b[n, 0], uv_b[n, 1], f_ab, f_ba,
                alpha)
    return total


def reference_init_filter(uvs, cam_idx, f_table, alpha):
    """Scalar initialization filter over one joint's observations (M,2).

    While a surviving pair scores negative: with three or more alive, the
    first observation with the smallest affinity row sum is dropped; an
    inconsistent final pair is dropped entirely. Returns the keep mask.
    """
    m = uvs.shape[0]
    e = np.ones((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            e[i, j] = e[j, i] = reference_epipolar_pair_affinity(
                uvs[i, 0], uvs[i, 1], uvs[j, 0], uvs[j, 1],
                f_table[cam_idx[i], cam_idx[j]],
                f_table[cam_idx[j], cam_idx[i]], alpha)
    alive = [True] * m
    while sum(alive) >= 2:
        if not any(alive[i] and alive[j] and e[i, j] < 0.0
                   for i in range(m) for j in range(i + 1, m)):
            break
        if sum(alive) == 2:
            alive = [False] * m
            break
        worst_sum, worst_i = np.inf, -1
        for i in range(m):
            if not alive[i]:
                continue
            s = 0.0
            for j in range(m):
                if alive[j] and j != i:
                    s += e[i, j]
            if s < worst_sum:
                worst_sum, worst_i = s, i
        alive[worst_i] = False
    return np.array(alive, dtype=bool)


def slot_pair_affinities(uv, cam_idx, f_table, alpha):
    """Epipolar affinity (B,P) of every slot pair i < j of a batch uv
    (B,M,2) whose slot m is seen by camera cam_idx[m], in
    kernels._slot_pairs(M) order, as kernels.filter_init_mask reads it."""
    pi, pj = kernels._slot_pairs(uv.shape[1])
    ci, cj = cam_idx[pi], cam_idx[pj]
    return kernels.epipolar_pair_affinities(
        uv[:, pi, 0], uv[:, pi, 1], uv[:, pj, 0], uv[:, pj, 1],
        f_table[ci, cj], f_table[cj, ci], alpha)


def reference_filter_init_mask(uv, alive, cam_idx, f_table, alpha):
    """The batched initialization filter as it stood when it scored the
    pixels uv (B,M,2) itself, slot m seen by camera cam_idx[m], alive
    (B,M) marking the observations present. Returns the keep mask (B,M).
    """
    m = uv.shape[1]
    pi, pj = kernels._slot_pairs(m)
    pair_e = slot_pair_affinities(uv, cam_idx, f_table, alpha)
    e = np.zeros((uv.shape[0], m, m))
    e[:, pi, pj] = e[:, pj, pi] = pair_e
    alive = alive.copy()
    for _ in range(m - 1):
        count = alive.sum(axis=1)
        active = (alive[:, pi] & alive[:, pj] & (pair_e < 0.0)).any(axis=1)
        if not active.any():
            break
        alive[active & (count == 2)] = False
        rows = np.flatnonzero(active & (count > 2))
        # e's diagonal is 0, so this sums each row over the other survivors
        sums = kernels._sequential_sum(
            np.where(alive[rows, None, :], e[rows], 0.0))
        alive[rows, np.where(alive[rows], sums, np.inf).argmin(axis=1)] = False
    return alive


def reference_smooth(times, joints, sigma_frames, fps, t_now):
    """Scalar Gaussian-weighted mean of a history of skeletons (B,N,3)."""
    n = joints.shape[1]
    out = np.zeros((n, 3))
    wsum = 0.0
    for i in range(times.shape[0]):
        z = (t_now - times[i]) * fps / sigma_frames
        w = math.exp(-0.5 * z * z)
        wsum += w
        for k in range(n):
            for c in range(3):
                out[k, c] += w * joints[i, k, c]
    if wsum > 0.0:
        for k in range(n):
            for c in range(3):
                out[k, c] /= wsum
    return out


def reference_match_distance(pred, gt, mask=None):
    """Mean joint distance of one prediction to one ground-truth actor
    over the joints mask keeps (all when None): one np.linalg.norm per
    joint, then one mean of the kept distances."""
    d = np.linalg.norm(np.asarray(pred, np.float64)
                       - np.asarray(gt, np.float64), axis=1)
    return d[np.asarray(mask, bool)].mean() if mask is not None else d.mean()


def reference_match_actors(pred_actors, gt_actors, masks=None):
    """Scalar form of evaluation.match_run on one frame: mean joint
    distance of every (ground-truth actor, prediction) pair, one pair at
    a time, then repeatedly the first free pair in row-major order unless
    a later free pair is strictly closer (a NaN distance only wins in
    first place)."""
    gids = sorted(gt_actors)
    pids = sorted(pred_actors)
    dist = {(g, p): reference_match_distance(
        pred_actors[p], gt_actors[g], masks[g] if masks and g in masks
        else None) for g in gids for p in pids}
    match = {}
    for _ in range(min(len(gids), len(pids))):
        best = None
        for g in gids:
            for p in pids:
                if g in match or p in match.values():
                    continue
                if best is None or dist[g, p] < dist[best]:
                    best = (g, p)
        match[best[0]] = best[1]
    return match


def reference_score_actor(pred, gt, schema, mask=None):
    """Scalar form of evaluation._limbs_correct: three np.linalg.norm calls
    per limb, so limb ties round as the norm of one vector rounds."""
    out = []
    for part, a, b in schema.limbs:
        if mask is not None and not (mask[a] and mask[b]):
            continue
        length = np.linalg.norm(gt[a] - gt[b])
        da = np.linalg.norm(pred[a] - gt[a])
        db = np.linalg.norm(pred[b] - gt[b])
        out.append((part, 0.5 * (da + db) <= 0.5 * length))
    return out


def reference_pcp_counts(pred_frames, gt_frames, schema):
    """Recompute per-(actor, part) limb correctness counts from scratch.

    Matching mirrors the documented rule through reference_match_actors:
    greedily pair the globally closest (ground-truth actor, prediction)
    by mean joint distance, ties to the smaller ids, and a NaN distance
    only as the first free pair. (A sort of the pairs cannot order NaN
    distances, which a NaN joint or an all-False mask gives.)
    """
    preds = {f.frame: f for f in pred_frames}
    counts = {}

    def bump(actor, part, ok):
        c, t = counts.setdefault(actor, {}).setdefault(part, (0, 0))
        counts[actor][part] = (c + int(ok), t + 1)

    for gtf in gt_frames:
        pf = preds.get(gtf.frame)
        actors = pf.actors if pf is not None else {}
        masks = getattr(gtf, "masks", None) or {}
        match = reference_match_actors(actors, gtf.actors, masks)
        for g in sorted(gtf.actors):
            gt_j = np.asarray(gtf.actors[g], dtype=np.float64)
            mask = masks.get(g)
            pred_j = None
            if g in match:
                pred_j = np.asarray(actors[match[g]], dtype=np.float64)
            for part, a, b in schema.limbs:
                if mask is not None and not (mask[a] and mask[b]):
                    continue
                if pred_j is None:
                    bump(g, part, False)
                    continue
                length = np.linalg.norm(gt_j[a] - gt_j[b])
                da = np.linalg.norm(pred_j[a] - gt_j[a])
                db = np.linalg.norm(pred_j[b] - gt_j[b])
                bump(g, part, 0.5 * (da + db) <= 0.5 * length)
    return counts


def run_tracker(scene, tracker_config, max_frames=None):
    """Drive a tracker over a synthetic scene, collecting output frames."""
    tracker = PoseTracker(CameraRig(scene.cameras), tracker_config)
    frames = []
    for bundle in scene.bundles:
        if max_frames is not None and bundle.frame >= max_frames:
            break
        out = tracker.step(bundle)
        frames.append(TrackFrame(
            frame=bundle.frame,
            time_s=bundle.time_s,
            actors={tid: sk.joints.copy() for tid, sk in out},
            flags={tid: sk.flags.copy() for tid, sk in out},
        ))
    return frames, tracker


def count_identity_switches(pred_frames, gt_frames, schema):
    """Times any ground-truth actor's matched track id changes between
    consecutive frames where it is matched at all."""
    preds = {f.frame: f for f in pred_frames}
    last = {}
    switches = 0
    for gtf in gt_frames:
        pf = preds.get(gtf.frame)
        if pf is None:
            continue
        matches = match_actors(pf.actors, gtf.actors, schema)
        for actor, tid in matches.items():
            if actor in last and last[actor] != tid:
                switches += 1
            last[actor] = tid
    return switches


# The staggered schedule: each actor leaves every camera for STAGGER_AWAY
# frames of every STAGGER_PERIOD, actor a's absence starting 5a frames
# before actor 0's, so some actor leaves or returns every 5 frames.
STAGGER_PERIOD = 40
STAGGER_AWAY = 10


def staggered_away(frame, actor):
    """Whether actor is away from every camera at frame."""
    return (frame + 5 * actor) % STAGGER_PERIOD >= STAGGER_PERIOD - STAGGER_AWAY


def staggered_scene(seed=1):
    """An 8-actor, 5-camera, 300-frame clean scene on a 12 m ring whose
    actors follow the staggered schedule: every pose of an actor who is
    away, and its validity row, is dropped from the bundles. Returns
    (scene, ground-truth frames of the actors present)."""
    scene = synth.generate(synth.SceneConfig(
        seed=seed, n_cameras=5, n_actors=8, n_frames=300, noise_px=1.0,
        ring_radius=12.0, camera_height=6.0))
    for bundle in scene.bundles:
        for cam_id, poses in bundle.poses.items():
            here = [p for p in range(len(poses)) if not staggered_away(
                bundle.frame, scene.actor_of[(bundle.frame, cam_id, p)])]
            bundle.poses[cam_id] = poses[here]
            bundle.valid[cam_id] = bundle.valid[cam_id][here]
    gt_frames = scene.ground_truth_frames()
    for gt in gt_frames:
        gt.actors = {a: j for a, j in gt.actors.items()
                     if not staggered_away(gt.frame, a)}
    return scene, gt_frames


def count_id_moves(pred_frames, gt_frames, schema):
    """Frames in which some track id is matched to another actor than
    the one it was last matched to."""
    preds = {f.frame: f for f in pred_frames}
    owner = {}
    moves = 0
    for gtf in gt_frames:
        pf = preds.get(gtf.frame)
        if pf is None:
            continue
        matches = match_actors(pf.actors, gtf.actors, schema)
        moves += any(owner.get(tid, actor) != actor
                     for actor, tid in matches.items())
        owner.update({tid: actor for actor, tid in matches.items()})
    return moves


def mean_triangulated_error(pred_frames, gt_frames, schema, flag_value=0):
    """Mean 3D distance between triangulated joints of matched tracks and
    the ground truth they track."""
    preds = {f.frame: f for f in pred_frames}
    total = 0.0
    count = 0
    for gtf in gt_frames:
        pf = preds.get(gtf.frame)
        if pf is None:
            continue
        matches = match_actors(pf.actors, gtf.actors, schema)
        for actor, tid in matches.items():
            sel = pf.flags[tid] == flag_value
            if not sel.any():
                continue
            d = np.linalg.norm(pf.actors[tid][sel] - gtf.actors[actor][sel],
                               axis=1)
            total += float(d.sum())
            count += int(sel.sum())
    return total / count if count else float("nan")


@dataclass
class TrackComparison:
    """What compare_tracks finds between two runs' frames."""

    rows_only_a: list      # (frame, id) rows that only run a emitted
    rows_only_b: list
    flips: int             # joints triangulated in one run, not the other
    max_move: float        # largest joint distance over shared rows
    max_move_near: float   # the same over joints within 100 m of the origin


def compare_tracks(a, b):
    """Compare two runs' TrackFrame lists row by row: the (frame, id)
    rows only one run emitted, the joints whose flag differs between
    triangulated and not (T<->P flips) and the largest joint move, over
    all joints of the shared rows and over those within 100 m of the
    origin in both runs."""
    def rows(frames):
        return {(f.frame, tid): (f.actors[tid], f.flags[tid])
                for f in frames for tid in f.actors}

    ra, rb = rows(a), rows(b)
    flips = 0
    max_move = max_move_near = 0.0
    for key in ra.keys() & rb.keys():
        (ja, fa), (jb, fb) = ra[key], rb[key]
        flips += int(np.count_nonzero((fa == 0) != (fb == 0)))
        move = np.linalg.norm(ja - jb, axis=1)
        near = ((np.linalg.norm(ja, axis=1) < 100.0)
                & (np.linalg.norm(jb, axis=1) < 100.0))
        max_move = max(max_move, float(move.max()))
        if near.any():
            max_move_near = max(max_move_near, float(move[near].max()))
    return TrackComparison(sorted(ra.keys() - rb.keys()),
                           sorted(rb.keys() - ra.keys()), flips, max_move,
                           max_move_near)


def make_bundle(frame, time_s, poses, config=None, cameras=()):
    """FrameBundle of poses, {camera id: (P,N,3) (u, v, conf) rows}, every
    camera seen at time_s. Validity comes from affinity.valid_joints with
    config (AffinityConfig() when None) and the camera of that id among
    cameras, if there is one."""
    cfg = config or AffinityConfig()
    cam_by_id = {c.cam_id: c for c in cameras}
    arrays = {c: np.asarray(p, dtype=np.float64) for c, p in poses.items()}
    return FrameBundle(
        frame, time_s, arrays,
        {c: valid_joints(a, cfg, cam_by_id.get(c)) for c, a in arrays.items()},
        {c: time_s for c in arrays})


def reference_load_tracks(path):
    """Row-by-row form of fileio.load_tracks, without its checks of frame
    order and repeated ids: each [X,Y,Z,flag] row unpacked in Python,
    each flag looked up alone, then one _numbers call per record."""
    header, records = fileio._open(path, fileio.TRACKS_FORMAT)
    n_joints = header["n_joints"]
    frames = []
    for lineno, rec in records:
        frame = fileio._field(rec, "frame", "int", lineno, path)
        time_s = fileio._time(rec, lineno, path)
        entries = fileio._field(rec, "tracks", "list[dict]", lineno, path)
        ids = [fileio._field(entry, "id", "int", lineno, path)
               for entry in entries]
        rows = [fileio._field(entry, "joints", None, lineno, path)
                for entry in entries]
        try:
            xyz = [[(x, y, z) for x, y, z, _ in joints] for joints in rows]
            codes = [[CHAR_FLAGS[row[3]] for row in joints] for joints in rows]
        except (TypeError, ValueError, KeyError):
            raise ParseError(
                f"{path}:{lineno}: joint row must be [X,Y,Z,flag]"
            ) from None
        joints = fileio._numbers(xyz, (None, n_joints, 3), lineno, path,
                                 "track joints")
        actors = dict(zip(ids, joints))
        flags = dict(zip(ids, np.array(codes, dtype=np.uint8)))
        frames.append(TrackFrame(frame, time_s, actors, flags))
    return fileio.TrackFile(header["schema"], n_joints, frames)


def reference_load_ground_truth(path):
    """fileio.load_ground_truth as it read each record entry by entry:
    one _field call for each actor's id and joints, then one _numbers
    call on the nested joint lists of the record."""
    header, records = fileio._open(path, fileio.GROUND_TRUTH_FORMAT)
    n_joints = header["n_joints"]
    frames = []
    last = None
    for lineno, rec in records:
        frame = fileio._field(rec, "frame", "int", lineno, path)
        if last is not None and frame <= last:
            raise NonMonotonicFrames(
                f"{path}:{lineno}: frame {frame} after frame {last}")
        last = frame
        entries = fileio._field(rec, "actors", "list[dict]", lineno, path)
        ids = [fileio._field(entry, "id", "int", lineno, path)
               for entry in entries]
        value = [fileio._field(entry, "joints", None, lineno, path)
                 for entry in entries]
        joints = fileio._numbers(value, (None, n_joints, 3), lineno, path,
                                 "actor joints")
        fileio._unique_ids(ids, "actor", lineno, path)
        actors = dict(zip(ids, joints))
        masks = {aid: np.array(fileio._field(entry, "mask", "list[bool]",
                                             lineno, path))
                 for aid, entry in zip(ids, entries) if "mask" in entry}
        if any(mask.shape != (n_joints,) for mask in masks.values()):
            raise ParseError(f"{path}:{lineno}: mask must be a list of "
                             f"{n_joints} booleans")
        frames.append(fileio.GroundTruthFrame(frame, actors, masks))
    return fileio.GroundTruthFile(header["schema"], n_joints, frames)


def reference_read_detections(records, n_joints, conf_floor, image_margin,
                              cameras=()):
    """What a detections file of these (frame, time_s, camera id, poses)
    records, one per camera and frame, parses to, deciding validity one
    joint at a time: a list of (frame, time_s, {camera id: (poses
    (P,N,3), valid (P,N), time_s)}).

    A joint is valid when u, v and its confidence are finite, the
    confidence is at or above the floor and, for a camera in `cameras`,
    the pixel lies no farther than image_margin outside the image.
    """
    cam_by_id = {c.cam_id: c for c in cameras}
    bundles = []
    for frame, time_s, cam_id, poses in records:
        if not bundles or bundles[-1][0] != frame:
            bundles.append([frame, time_s, {}])
        bundle = bundles[-1]
        bundle[1] = max(bundle[1], time_s)
        cam = cam_by_id.get(cam_id)
        arr = np.empty((len(poses), n_joints, 3))
        valid = np.empty((len(poses), n_joints), dtype=bool)
        for p, pose in enumerate(poses):
            for j, (u, v, c) in enumerate(pose):
                arr[p, j, 0], arr[p, j, 1], arr[p, j, 2] = u, v, c
                ok = (math.isfinite(u) and math.isfinite(v)
                      and math.isfinite(c) and c >= conf_floor)
                if ok and cam is not None:
                    m = image_margin
                    ok = (-m <= u <= cam.width + m
                          and -m <= v <= cam.height + m)
                valid[p, j] = ok
        bundle[2][cam_id] = (arr, valid, time_s)
    return [tuple(b) for b in bundles]


def _reference_dumps(obj):
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _reference_header(fmt, schema_name, n_joints):
    return _reference_dumps({"format": fmt, "format_version": 1,
                             "schema": schema_name,
                             "n_joints": int(n_joints)}) + "\n"


def reference_tracks_text(frames, schema_name, n_joints):
    """A tracks file of (frame, time_s, [(id, Skeleton3D)]) frames, built
    one float at a time."""
    flag_chars = {0: "T", 1: "P", 2: "M"}
    text = _reference_header("mvtrack3d/tracks", schema_name, n_joints)
    for frame, time_s, skeletons in frames:
        tracks = []
        for track_id, skel in skeletons:
            joints = []
            for j in range(skel.joints.shape[0]):
                x, y, z = skel.joints[j]
                joints.append([float(x), float(y), float(z),
                               flag_chars[int(skel.flags[j])]])
            tracks.append({"id": int(track_id), "joints": joints})
        text += _reference_dumps({"frame": int(frame),
                                  "time_s": float(time_s),
                                  "tracks": tracks}) + "\n"
    return text


def reference_detections_text(records, schema_name, n_joints):
    """A detections file of (frame, time_s, camera id, (P,N,3) poses)
    records, built one float at a time."""
    text = _reference_header("mvtrack3d/detections", schema_name, n_joints)
    for frame, time_s, cam_id, poses in records:
        arr = np.asarray(poses, dtype=np.float64)
        text += _reference_dumps({
            "frame": int(frame),
            "camera": int(cam_id),
            "time_s": float(time_s),
            "poses": [[[float(v) for v in joint] for joint in pose]
                      for pose in arr],
        }) + "\n"
    return text


def reference_ground_truth_text(frames, schema_name, n_joints):
    """A ground-truth file of GroundTruthFrames, built one float at a
    time."""
    text = _reference_header("mvtrack3d/ground_truth", schema_name,
                             n_joints)
    for gt in frames:
        actors = []
        for aid in gt.actors:
            entry = {"id": int(aid),
                     "joints": [[float(v) for v in row]
                                for row in np.asarray(gt.actors[aid])]}
            if aid in gt.masks:
                entry["mask"] = [bool(v) for v in gt.masks[aid]]
            actors.append(entry)
        text += _reference_dumps({"frame": int(gt.frame),
                                  "actors": actors}) + "\n"
    return text


def reference_corruption_text(entries, schema_name, class_names):
    """A corruption sidecar of (frame, camera id, pose index, actor, (N,)
    class codes) entries, built one record per joint."""
    text = _reference_dumps({"format": "mvtrack3d/corruption",
                             "format_version": 1,
                             "schema": schema_name}) + "\n"
    for frame, cam_id, pose, actor, codes in entries:
        for joint, code in enumerate(codes):
            text += json.dumps({"frame": frame, "camera": cam_id,
                                "pose": pose, "joint": joint,
                                "class": class_names[int(code)],
                                "actor": actor},
                               separators=(",", ":")) + "\n"
    return text


def corruption_records(scene):
    """The corruption sidecar's per-joint records of a synthetic scene,
    one per joint of each pose its bundles hold, in detection-file order,
    each labelled from scene.class_of and scene.actor_of."""
    records = []
    for bundle in scene.bundles:
        for cam_id, poses in bundle.poses.items():
            for pose in range(len(poses)):
                key = (bundle.frame, cam_id, pose)
                for joint, code in enumerate(scene.class_of[key].tolist()):
                    records.append({"frame": bundle.frame, "camera": cam_id,
                                    "pose": pose, "joint": joint,
                                    "class": CLASS_NAMES[code],
                                    "actor": scene.actor_of[key]})
    return records


def _reference_corrupt_pose(uv, cfg, rng, camera, outlier_rates):
    """One pose's corruption as synth.corrupt_pose drew it when each pose
    built its own rate vector, tested its joints one numpy bool at a time
    and joined its columns with column_stack."""
    n = uv.shape[0]
    uv = uv + rng.normal(0.0, cfg.noise_px, size=(n, 2))
    classes = np.full(n, synth.CLASS_NOISY if cfg.noise_px > 0
                      else synth.CLASS_CLEAN, dtype=np.uint8)
    if outlier_rates is None:
        outlier_rates = np.full(n, cfg.outlier_rate)
    hits = rng.random(n) < outlier_rates
    for j in range(n):
        if not hits[j]:
            continue
        classes[j] = synth.CLASS_OUTLIER
        for _ in range(synth._OUTLIER_RETRIES):
            ang = rng.random() * 2.0 * np.pi
            cand = uv[j] + cfg.outlier_px * np.array([np.cos(ang), np.sin(ang)])
            if (0.0 <= cand[0] <= camera.width
                    and 0.0 <= cand[1] <= camera.height):
                break
        uv[j] = cand

    conf = rng.uniform(0.5, 1.0, size=n)
    if rng.random() < cfg.occlusion_rate:
        group = synth.OCCLUSION_GROUPS[
            rng.integers(len(synth.OCCLUSION_GROUPS))]
        for j in group:
            classes[j] = synth.CLASS_OCCLUDED
        conf[list(group)] = rng.uniform(0.02, 0.07, size=len(group))
    return np.column_stack([uv, conf]), classes


def reference_generate(cfg):
    """synth.generate written one pose at a time: the burst state in
    arrays, a fresh rate vector per pose and one validity call per camera
    and frame. It makes the random draws in the order the synth module
    docstring states, so the library must match it bit for bit."""
    cameras = synth.ring_cameras(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n_joints = synth.SYNTH14.n_joints

    times = np.arange(cfg.n_frames) / cfg.fps
    gt = synth.actor_joints(cfg, np.arange(cfg.n_actors)[None, :],
                            times[:, None])
    exact = [synth.project_exact(cam, gt) for cam in cameras]

    bundles = []
    actor_of = {}
    class_of = {}
    chain = cfg.burst_chain()
    validity = AffinityConfig()
    in_burst = np.zeros((cfg.n_cameras, cfg.n_actors), dtype=bool)
    burst_group = np.zeros((cfg.n_cameras, cfg.n_actors), dtype=np.int64)
    for f in range(cfg.n_frames):
        t = float(times[f])
        bundle = FrameBundle(f, t, {}, {}, {})
        for ci, cam in enumerate(cameras):
            kept = []
            for a in range(cfg.n_actors):
                rates = None
                if chain is not None:
                    p_enter, p_exit, quiet = chain
                    u = rng.random()
                    was = in_burst[ci, a]
                    if f == 0:
                        in_burst[ci, a] = u < cfg._burst_occupancy()
                    elif was:
                        in_burst[ci, a] = u >= p_exit
                    else:
                        in_burst[ci, a] = u < p_enter
                    rates = np.full(n_joints, quiet)
                    if in_burst[ci, a]:
                        if not was or f == 0:
                            burst_group[ci, a] = rng.integers(
                                len(synth.BURST_GROUPS))
                        rates[list(synth.BURST_GROUPS[burst_group[ci, a]])] = \
                            cfg.outlier_burst
                if rng.random() < cfg.dropout_rate:
                    continue
                pose, codes = _reference_corrupt_pose(
                    exact[ci][f, a], cfg, rng, cam, rates)
                kept.append((a, pose, codes))
            order = rng.permutation(len(kept)) if kept else []
            for pose_idx, src in enumerate(order):
                key = (f, cam.cam_id, pose_idx)
                actor_of[key], _, class_of[key] = kept[src]
            poses = np.reshape([kept[src][1] for src in order],
                               (-1, n_joints, 3))
            bundle.poses[cam.cam_id] = poses
            bundle.valid[cam.cam_id] = valid_joints(poses, validity, cam)
            bundle.times[cam.cam_id] = t
        bundles.append(bundle)

    return synth.SyntheticScene(
        config=cfg, cameras=cameras, bundles=bundles, gt=gt, times=times,
        actor_of=actor_of, class_of=class_of)


def _reference_clusters(tracker, views):
    """Greedy cross-view clustering of unmatched poses, one scoring call
    per camera step over a freshly stacked list of the members so far.

    views maps a camera index to its pixels (P,N,2), validity (P,N) and
    unmatched pose rows; each cluster is a list of (camera index, row),
    one per camera.
    """
    aff = tracker.config.affinity
    rig = tracker.rig
    clusters = []
    for ci, (uv, valid, rows) in sorted(views.items()):
        if not clusters:
            clusters = [[(ci, r)] for r in rows]
            continue
        members = [m for cluster in clusters for m in cluster]
        cj = np.array([c for c, _ in members])
        member_uv = np.array([views[c][0][r] for c, r in members])
        member_valid = np.array([views[c][1][r] for c, r in members])
        pair_scores = kernels.epipolar_pose_score(
            member_uv[:, None], member_valid[:, None],
            uv[list(rows)], valid[list(rows)],
            rig.f_table[cj, ci][:, None], rig.f_table[ci, cj][:, None],
            aff.alpha_epi)[0]
        starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
        scores = np.maximum.reduceat(pair_scores, starts, axis=0)
        chosen = assignment.solve(scores, 0.0).tolist()
        for k, col in enumerate(chosen):
            if col >= 0:
                clusters[k].append((ci, rows[col]))
        for col in range(len(rows)):
            if col not in chosen:
                clusters.append([(ci, rows[col])])
    return clusters


def _reference_seed(tracker, uv, valid, cam_idx, t):
    """A cluster's first skeleton, filtered and triangulated on its own:
    uv (N,M,2) and valid (N,M) hold its M poses, seen by the cameras
    cam_idx (M,), in M slots. None when no joint triangulates."""
    cfg = tracker.config
    rig = tracker.rig
    keep = valid
    if cfg.joints_filter:
        keep = reference_filter_init_mask(uv, keep, cam_idx, rig.f_table,
                                          cfg.affinity.alpha_epi)
    xyz, status = kernels.triangulate_batch(
        uv, rig.p_table[cam_idx], np.ones(len(cam_idx)), keep)
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


def reference_initialize(tracker, unmatched, bundle):
    """PoseTracker.initialize one cluster at a time: the clustering
    scores each camera step on its own, and each cluster of two or more
    poses is filtered and triangulated alone, in as many slots as it has
    poses. Takes the next track ids from tracker and returns the new
    tracks' rows."""
    ids = [cam.cam_id for cam in tracker.rig.cameras]
    views = {ci: (bundle.poses[ids[ci]][..., :2], bundle.valid[ids[ci]], rows)
             for ci, rows in unmatched.items() if len(rows)}
    new_tracks = TrackTable(len(tracker.rig), tracker.config)
    for cluster in _reference_clusters(tracker, views):
        if len(cluster) < 2:
            continue
        cam_idx = np.array([ci for ci, _ in cluster], dtype=np.int64)
        uv = np.stack([views[ci][0][r] for ci, r in cluster], axis=1)
        valid = np.stack([views[ci][1][r] for ci, r in cluster], axis=1)
        times = [bundle.times[ids[ci]] for ci, _ in cluster]
        skeleton = _reference_seed(tracker, uv, valid, cam_idx, bundle.time_s)
        if skeleton is None:
            continue
        track = TrackTable(len(tracker.rig), tracker.config,
                           [tracker._next_id], skeleton.time_s,
                           skeleton.joints[None], skeleton.flags[None])
        track.view_frame[0, cam_idx] = bundle.frame
        track.view_time[0, cam_idx] = times
        track.view_uv[0][:, cam_idx] = uv
        track.view_valid[0][:, cam_idx] = valid
        tracker._next_id += 1
        new_tracks.extend(track)
    return new_tracks


# -- hypothesis strategies ---------------------------------------------------


NON_FINITE = [math.nan, math.inf, -math.inf]

# Floats on both sides of the range where orjson prints repr's text, and
# the values the range rule must send to json: subnormals, -0.0, NaN, inf.
_EDGE_FLOATS = [1e-4, 1e16, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308]
_EDGE_FLOATS = [x for v in _EDGE_FLOATS for x in (
    v, -v, math.nextafter(v, 0.0), math.nextafter(v, math.inf))]
CODEC_FLOATS = st.one_of(st.floats(), st.floats(-1e3, 1e3),
                         st.sampled_from(_EDGE_FLOATS + NON_FINITE))

# Text with lone surrogates too, which json reads from their \\u escapes
# and orjson refuses.
JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 63, 2 ** 64 - 1)
    | CODEC_FLOATS | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20)

