"""Shared test utilities.

Everything here is implemented independently of the library internals it
is used to check: camera construction, an exhaustive assignment search, a
from-scratch pose scorer, image lines and epipolar lines, a weighted
linear triangulator, a one-joint greedy epipolar filter, a
limb-correctness scorer, a one-joint-at-a-time detections reader, the
per-float file writers, the gated assignment as it stood with a mask of
its real columns, a track initializer that seeds one cluster at a
time with the same kernels, triangulation by one stacked LAPACK
eigensolve and a row-by-row comparison of two runs' tracks. Tests
compare library output against these,
and build the frames they feed the tracker with make_bundle. The
hypothesis strategies at the end draw floats and JSON values for the
codec tests and the input fuzzers.

The scalar references (epipolar pair affinity and pose score, the
initialization filter, smoothing, the greedy actor matcher, per-limb
correctness) spell out,
one element at a time and in the same order of operations, what the
batched kernels compute, so the kernels must match them bit for bit.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from mvtrack3d import assignment, fileio, kernels
from mvtrack3d.affinity import AffinityConfig, valid_joints
from mvtrack3d.errors import ParseError
from mvtrack3d.evaluation import match_actors
from mvtrack3d.fileio import TrackFrame
from mvtrack3d.geometry import CameraCalibration, CameraRig
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


def reference_solve(values, min_affinity=0.0, counts=None):
    """assignment.solve as it stood before its padding became -inf cells:
    a mask of the real columns gates every pass, and the one-pass test of
    the obvious matrices is a function of its own. The new solve must
    return equal Matchings and raise ValueError in the same cases."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ValueError(f"affinity matrix must be 2D or a 3D stack, got "
                         f"shape {arr.shape}")
    stack = arr if arr.ndim == 3 else arr[None]
    k, n, m = stack.shape
    counts = [m] * k if counts is None else [int(p) for p in counts]
    real = np.arange(m) < np.array(counts, dtype=np.int64)[:, None, None]
    if not ((stack < np.inf) | ~real).all():
        raise ValueError("affinity matrix contains NaN or +inf entries")
    allowed = (stack > min_affinity) & real
    chosen, picked, unique = _reference_unique_best(
        stack, allowed, real & (stack > -np.inf))
    for i in np.flatnonzero(~unique).tolist():
        p = counts[i]
        chosen[i] = kernels.assignment_lex(
            np.ascontiguousarray(stack[i, :, :p]),
            np.ascontiguousarray(allowed[i, :, :p]))
        picked[i] = np.where(chosen[i] >= 0,
                             stack[i, np.arange(n), chosen[i]], 0.0)
    matchings = []
    for row, vals, p in zip(chosen.tolist(), picked.tolist(), counts):
        used = set(row)
        matchings.append(assignment.Matching(
            pairs=tuple([(r, c) for r, c in enumerate(row) if c >= 0]),
            unmatched_rows=tuple([r for r, c in enumerate(row) if c < 0]),
            unmatched_cols=tuple([c for c in range(p) if c not in used]),
            total=float(sum(vals))))
    return matchings if arr.ndim == 3 else matchings[0]


def _reference_unique_best(stack, allowed, finite):
    """Chosen column per row, the values there and the mask of the
    matrices whose matching is unique by the margin 4(n+1)·tol."""
    k, n, m = stack.shape
    options = np.full((k, n, m + 2), -np.inf)
    np.copyto(options[..., :m], stack, where=allowed)
    options[..., m] = 0.0
    pick = options.argmax(axis=-1)
    top = np.sort(options, axis=-1)
    best = top[..., -1]
    scale = 1.0 + np.abs(stack).sum(axis=(1, 2), where=finite)
    margin = 4e-9 * (n + 1) * scale
    unique = (best - top[..., -2] > margin[:, None]).all(axis=1)
    ids = np.sort(np.where(pick < m, pick, -1 - np.arange(n)), axis=-1)
    unique &= (ids[:, 1:] != ids[:, :-1]).all(axis=1)
    return np.where(pick < m, pick, -1), best, unique


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
    """The conditioned (2M,4) homogeneous system of M weighted views."""
    rows = []
    for cam, uv, w in zip(cameras, uvs, weights):
        cond = np.array([
            [2.0 / cam.width, 0.0, -1.0],
            [0.0, 2.0 / cam.height, -1.0],
            [0.0, 0.0, 1.0],
        ])
        pn = cond @ cam.projection_matrix
        un = uv[0] * (2.0 / cam.width) - 1.0
        vn = uv[1] * (2.0 / cam.height) - 1.0
        rows.append(w * (un * pn[2] - pn[0]))
        rows.append(w * (vn * pn[2] - pn[1]))
    return np.stack(rows)


def weighted_dlt(cameras, uvs, weights):
    """Independent conditioned homogeneous least-squares triangulation."""
    _, _, vt = np.linalg.svd(_dlt_rows(cameras, uvs, weights))
    x = vt[-1]
    return x[:3] / x[3]


def weighted_dlt_status(cameras, uvs, weights):
    """weighted_dlt by the SVD of the system itself, with the kernels'
    status codes: 1 below two views, 2 when the singular values have
    sigma3 <= 1e-7 sigma1, 3 when the null vector's w <= 1e-12 |xyz|.
    Returns (xyz, status), xyz zero unless status is 0."""
    if len(cameras) < 2:
        return np.zeros(3), 1
    _, sigma, vt = np.linalg.svd(_dlt_rows(cameras, uvs, weights))
    x = vt[-1]
    if sigma[0] <= 0.0 or sigma[2] <= 1e-7 * sigma[0]:
        return np.zeros(3), 2
    if abs(x[3]) <= 1e-12 * np.linalg.norm(x[:3]):
        return np.zeros(3), 3
    return x[:3] / x[3], 0


def reference_normal_matrices(uvn, pmats, weights, keep):
    """The normal matrices AᵀA (...,4,4) of triangulate_batch's weighted
    systems, one pair of rows per view, unused views zero rows."""
    w = weights[..., None]
    p = pmats
    with np.errstate(over="ignore", invalid="ignore"):
        rows_u = w * (uvn[..., 0, None] * p[..., 2, :] - p[..., 0, :])
        rows_v = w * (uvn[..., 1, None] * p[..., 2, :] - p[..., 1, :])
        a = np.where(keep[..., None, None],
                     np.stack((rows_u, rows_v), axis=-2), 0.0)
        a = a.reshape(a.shape[:-3] + (-1, 4))
        return np.matmul(a.swapaxes(-1, -2), a)


def reference_triangulate_eigh(uvn, pmats, weights, keep):
    """triangulate_batch as one stacked np.linalg.eigh of every normal
    matrix, the kernel's solver before adjugate inverse iteration, with
    the same status codes: 1 below two views, 2 when rank deficient
    (λ1 <= 1e-14·λ3 on the eigenvalues of AᵀA) or non-finite, 3 when
    the null vector's |x₄| <= 1e-12·‖x₁:₃‖. Returns (xyz, status), xyz
    zero unless status is 0."""
    m = reference_normal_matrices(uvn, pmats, weights, keep)
    # eigh raises on a non-finite matrix, which a huge finite pixel can give
    finite = np.isfinite(m).all(axis=(-2, -1))
    m[~finite] = 0.0
    lam, vec = np.linalg.eigh(m)
    x = vec[..., :, 0]
    n = np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
                + x[..., 2] * x[..., 2])
    status = np.where(np.abs(x[..., 3]) <= 1e-12 * n, 3, 0)
    rank_deficient = (lam[..., 3] <= 0.0) | (lam[..., 1] <= 1e-14 * lam[..., 3])
    status = np.where(rank_deficient | ~finite, 2, status)
    status = np.where(keep.sum(axis=-1) < 2, 1, status)
    with np.errstate(divide="ignore", invalid="ignore"):
        xyz = np.where((status == 0)[..., None], x[..., :3] / x[..., 3, None],
                       0.0)
    return xyz, status


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
    """Scalar form of evaluation.match_actors: mean joint distance of every
    (ground-truth actor, prediction) pair, one pair at a time, then
    repeatedly the first free pair in row-major order unless a later free
    pair is strictly closer (a NaN distance only wins in first place)."""
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
    """Scalar form of evaluation.score_actor: three np.linalg.norm calls
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
            aff.alpha_epi)
        starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
        scores = np.maximum.reduceat(pair_scores, starts, axis=0)
        match = assignment.solve(scores, 0.0)
        for k, col in match.pairs:
            clusters[k].append((ci, rows[col]))
        for col in match.unmatched_cols:
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
        keep = kernels.filter_init_mask(uv, keep, cam_idx, rig.f_table,
                                        cfg.affinity.alpha_epi)
    uvn = np.stack((uv[..., 0] * rig.su[cam_idx] - 1.0,
                    uv[..., 1] * rig.sv[cam_idx] - 1.0), axis=-1)
    xyz, status = kernels.triangulate_batch(
        uvn, rig.pn_table[cam_idx], np.ones(len(cam_idx)), keep)
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

