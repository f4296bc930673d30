"""Numeric kernels, numpy array code over a whole frame at once.

Projection, pose scoring, both epipolar filters and the cross-view pose
score work on stacked arrays; triangulation is one batched LAPACK SVD.
Loops remain only over camera pairs, greedy removal steps and the
smoothing window, and in the assignment: one scalar Hungarian solve per
call, over Python lists, whose duals settle the tie-break without
solving again.

Elementwise expressions follow the scalar order of operations and sums
run left to right, so each element's result does not depend on the
batch it is computed in.

Status codes returned by triangulate_batch and triangulate_normalized:
  0 ok, 1 too few rows, 2 rank deficient, 3 point at infinity.
"""

import math

import numpy as np

FLAG_TRIANGULATED = 0
FLAG_PREDICTED = 1
FLAG_MISSING = 2


def project_points(pts, K, R, o):
    """Project world points (...,3) through one camera, returns (uv (...,2), depth (...))."""
    d = pts - o
    xc = R[:, 0] * d[..., 0, None] + R[:, 1] * d[..., 1, None] + R[:, 2] * d[..., 2, None]
    h = K[:, 0] * xc[..., 0, None] + K[:, 1] * xc[..., 1, None] + K[:, 2] * xc[..., 2, None]
    depth = xc[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = h[..., :2] / h[..., 2, None]
    uv[(depth <= 0.0) | (h[..., 2] == 0.0)] = np.nan
    return uv, depth


def back_project_dir(u, v, krinv):
    """Unit direction (...,3) of the ray through pixel (u, v), krinv = (K R)^-1 (...,3,3)."""
    u = np.asarray(u)[..., None]
    v = np.asarray(v)[..., None]
    d = krinv[..., 0] * u + krinv[..., 1] * v + krinv[..., 2]
    sq = d * d
    return d / np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])[..., None]


def point_ray_distance(p, origin, direction):
    """Distance from 3D points (...,3) to the rays origin + t*direction, t >= 0 not enforced."""
    w = p - origin
    wd = w * direction
    t = wd[..., 0] + wd[..., 1] + wd[..., 2]
    r = w - t[..., None] * direction
    rr = r * r
    return np.sqrt(rr[..., 0] + rr[..., 1] + rr[..., 2])


def epipolar_pair_affinities(ua, va, ub, vb, f_ab, f_ba, alpha):
    """Symmetric epipolar affinity of pixels (ua, va) in camera a and
    (ub, vb) in camera b, f_ab / f_ba (...,3,3) broadcast against them.

    1 at perfect correspondence, 0 when the mean point-to-line distance
    equals alpha, negative beyond. Pixels sitting exactly on an epipole
    produce no line and score a neutral 0.
    """
    la = f_ab[..., 0, 0] * ua + f_ab[..., 0, 1] * va + f_ab[..., 0, 2]
    lb = f_ab[..., 1, 0] * ua + f_ab[..., 1, 1] * va + f_ab[..., 1, 2]
    lc = f_ab[..., 2, 0] * ua + f_ab[..., 2, 1] * va + f_ab[..., 2, 2]
    n1 = np.sqrt(la * la + lb * lb)
    ma = f_ba[..., 0, 0] * ub + f_ba[..., 0, 1] * vb + f_ba[..., 0, 2]
    mb = f_ba[..., 1, 0] * ub + f_ba[..., 1, 1] * vb + f_ba[..., 1, 2]
    mc = f_ba[..., 2, 0] * ub + f_ba[..., 2, 1] * vb + f_ba[..., 2, 2]
    n2 = np.sqrt(ma * ma + mb * mb)
    on_epipole = (n1 < 1e-12) | (n2 < 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = np.abs(la * ub + lb * vb + lc) / n1
        d2 = np.abs(ma * ua + mb * va + mc) / n2
    return np.where(on_epipole, 0.0, 1.0 - (d1 + d2) / (2.0 * alpha))


def epipolar_pose_score(uv_a, valid_a, uv_b, valid_b, f_ab, f_ba, alpha):
    """Sum of per-joint epipolar affinities over mutually valid joints.

    uv (...,N,2) and valid (...,N) of the two poses and f_ab / f_ba
    (...,3,3) broadcast over the leading axes; returns (...).
    """
    a = epipolar_pair_affinities(uv_a[..., 0], uv_a[..., 1], uv_b[..., 0],
                                 uv_b[..., 1], f_ab[..., None, :, :],
                                 f_ba[..., None, :, :], alpha)
    return _sequential_sum(np.where(valid_a & valid_b, a, 0.0))


def _sequential_sum(x):
    """Left-to-right sum over the last axis starting from 0.0, the rounding
    of a scalar accumulation loop (np.sum sums pairwise)."""
    zero = np.zeros(x.shape[:-1] + (1,))
    return np.cumsum(np.concatenate((zero, x), axis=-1), axis=-1)[..., -1]


def score_pose_pairs(track_pts, track_valid, dts, K, R, o, poses_uv, poses_valid,
                     alpha_2d, lam, eps_count, part_aware):
    """Affinity matrix between tracked skeletons and one camera's 2D poses.

    track_pts: (T,N,3), dts: (T,) time since each track's last update,
    poses_uv: (P,N,2). Per-joint affinity decays with distance scaled by
    alpha_2d*dt and with exp(-lam*dt). part_aware True keeps the mean of
    strictly positive joints and zeroes the score when fewer than
    eps_count are positive; False means over all participating joints.
    Joints take part when valid on both sides and in front of the camera.
    """
    uv, depth = project_points(track_pts, K, R, o)
    tol = (alpha_2d * dts)[:, None, None]
    # math.exp per track: np.exp may round differently from the C library
    decay = np.array([math.exp(-lam * dt) for dt in dts])[:, None, None]
    du = poses_uv[None, :, :, 0] - uv[:, None, :, 0]
    dv = poses_uv[None, :, :, 1] - uv[:, None, :, 1]
    a = (1.0 - np.sqrt(du * du + dv * dv) / tol) * decay
    use = track_valid[:, None, :] & poses_valid[None, :, :] & (depth > 0.0)[:, None, :]
    if part_aware:
        use &= a > 0.0
    total = _sequential_sum(np.where(use, a, 0.0))
    count = use.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = total / count
    if part_aware:
        return np.where((count >= eps_count) & (count > 0), mean, 0.0)
    return np.where(count > 0, mean, 0.0)


def _slot_pair_affinities(uv, cam_idx, f_table, alpha):
    """Epipolar affinity of every slot pair i < j of a batch uv (B,M,2)
    whose slot m is seen by camera cam_idx[m]; returns (i, j, e (B,P))."""
    pi, pj = np.triu_indices(uv.shape[1], 1)
    ci, cj = cam_idx[pi], cam_idx[pj]
    e = epipolar_pair_affinities(uv[:, pi, 0], uv[:, pi, 1], uv[:, pj, 0],
                                 uv[:, pj, 1], f_table[ci, cj], f_table[cj, ci],
                                 alpha)
    return pi, pj, e


def filter_tracked_batch(uv, alive, cam_idx, f_table, alpha, pred, origins,
                         krinv_table):
    """Greedy removal of epipolar-inconsistent observations, for a batch of joints.

    uv (B,M,2) holds each joint's observation in slot m, seen by camera
    cam_idx[m]; alive (B,M) marks the observations present; pred (B,3)
    is each joint's predicted 3D point. Per joint, while any surviving
    pair scores negative, the first worst pair in (i, j) slot order
    loses the member whose back-projected ray lies farther from the
    prediction (i on a tie). Returns the keep mask (B,M).
    """
    m = uv.shape[1]
    pi, pj, e = _slot_pair_affinities(uv, cam_idx, f_table, alpha)
    rays = back_project_dir(uv[..., 0], uv[..., 1], krinv_table[cam_idx])
    dist = point_ray_distance(pred[:, None, :], origins[cam_idx], rays)
    alive = alive.copy()
    rows = np.arange(uv.shape[0])
    for _ in range(m - 1):
        negative = alive[:, pi] & alive[:, pj] & (e < 0.0)
        worst = np.where(negative, e, 0.0).argmin(axis=1)
        hit = negative[rows, worst]
        if not hit.any():
            break
        wi, wj = pi[worst], pj[worst]
        drop = np.where(dist[rows, wi] >= dist[rows, wj], wi, wj)
        alive[rows[hit], drop[hit]] = False
    return alive


def filter_tracked_mask(uvs, cam_idx, f_table, alpha, pred, origins, krinv_table):
    """filter_tracked_batch for the observations uvs (M,2) of a single joint."""
    alive = np.ones((1, uvs.shape[0]), np.bool_)
    return filter_tracked_batch(uvs[None], alive, cam_idx, f_table, alpha,
                                pred[None], origins, krinv_table)[0]


def filter_init_mask(uv, alive, cam_idx, f_table, alpha):
    """Epipolar consistency filter used when no 3D prediction exists yet.

    uv (B,M,2) holds each joint's observation in slot m, seen by camera
    cam_idx[m], and alive (B,M) marks the observations present. Per
    joint, while two or more are alive and a surviving pair scores
    negative: with three or more alive, the first observation in slot
    order with the smallest affinity sum over the other survivors is
    dropped; an inconsistent final pair is dropped entirely. Returns the
    keep mask (B,M).
    """
    m = uv.shape[1]
    pi, pj, pair_e = _slot_pair_affinities(uv, cam_idx, f_table, alpha)
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
        sums = _sequential_sum(np.where(alive[rows, None, :], e[rows], 0.0))
        alive[rows, np.where(alive[rows], sums, np.inf).argmin(axis=1)] = False
    return alive


def triangulate_batch(uvn, pmats, weights, keep):
    """Weighted linear triangulation of a batch of points.

    uvn (...,M,2) are pixels mapped into [-1,1], pmats (...,M,3,4) the
    matching conditioned projection matrices, weights (...,M) and keep
    (...,M) the per-view weights and the views to use. Each point is
    solved by its own SVD of a (2M,4) system whose unused rows are zero.
    Returns (xyz (...,3), status (...)).
    """
    w = weights[..., None]
    p = pmats
    rows_u = w * (uvn[..., 0, None] * p[..., 2, :] - p[..., 0, :])
    rows_v = w * (uvn[..., 1, None] * p[..., 2, :] - p[..., 1, :])
    a = np.where(keep[..., None, None], np.stack((rows_u, rows_v), axis=-2), 0.0)
    a = a.reshape(a.shape[:-3] + (-1, 4))
    finite = np.isfinite(a).all(axis=(-2, -1))
    a[~finite] = 0.0
    _, sigma, vh = np.linalg.svd(a, full_matrices=False)
    x = vh[..., 3, :]
    n = np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] + x[..., 2] * x[..., 2])
    status = np.where(np.abs(x[..., 3]) <= 1e-12 * n, 3, 0)
    rank_deficient = (sigma[..., 0] <= 0.0) | (sigma[..., 2] <= 1e-10 * sigma[..., 0])
    status = np.where(rank_deficient | ~finite, 2, status)
    status = np.where(keep.sum(axis=-1) < 2, 1, status)
    with np.errstate(divide="ignore", invalid="ignore"):
        xyz = np.where((status == 0)[..., None], x[..., :3] / x[..., 3, None], 0.0)
    return xyz, status


def triangulate_normalized(uvn, pmats, weights):
    """triangulate_batch for one point seen in every view of uvn (M,2), returns (xyz, status)."""
    keep = np.ones((1, uvn.shape[0]), np.bool_)
    xyz, status = triangulate_batch(uvn[None], pmats[None], weights[None], keep)
    return xyz[0], int(status[0])


def reconstruct_joints(obs_uv, obs_valid, weights, pred, f_table, origins,
                       krinv_table, pn_table, su, sv, alpha_epi, use_filter):
    """Filtered triangulation of every joint of a batch of tracks.

    obs_uv (T,N,C,2) holds the matched pose of each track in each camera,
    obs_valid (T,N,C) marks usable joints (absent cameras all False),
    weights (T,C) the per-camera staleness weights and pred (T,N,3) the
    predicted joints. Joints with fewer than two surviving views fall
    back to the prediction. Returns (joints (T,N,3), flags (T,N)).
    """
    t_count, n_joints, n_cams = obs_valid.shape
    uv = obs_uv.reshape(-1, n_cams, 2)
    keep = obs_valid.reshape(-1, n_cams)
    if use_filter:
        keep = filter_tracked_batch(uv, keep, np.arange(n_cams), f_table,
                                    alpha_epi, pred.reshape(-1, 3), origins,
                                    krinv_table)
    uvn = np.stack((uv[..., 0] * su - 1.0, uv[..., 1] * sv - 1.0), axis=-1)
    w = np.repeat(weights, n_joints, axis=0)
    xyz, status = triangulate_batch(uvn, pn_table, w, keep)
    ok = (status == 0).reshape(t_count, n_joints)
    joints = np.where(ok[..., None], xyz.reshape(t_count, n_joints, 3), pred)
    flags = np.where(ok, FLAG_TRIANGULATED, FLAG_PREDICTED).astype(np.uint8)
    return joints, flags


def hungarian_min(cost):
    """Exact minimum-cost square assignment with its dual certificate.

    Returns (col, u, v): the column of each row, and row and column duals
    with cost[i, j] - u[i] - v[j] >= 0 everywhere and == 0 on each
    assigned cell, up to rounding. Scalar loops over Python lists, which
    beat numpy row operations at the sizes the tracker solves.
    """
    a = cost.tolist()
    n = len(a)
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row = a[i0 - 1]
            ui = u[i0]
            delta = math.inf
            j1 = 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    # p[j] is the 1-based row on column j, so sorting inverts it
    return np.argsort(p[1:]), np.array(u[1:]), np.array(v[1:])


def _give_column(tight, col_of, row_of, free_row, r, c):
    """Move row r onto column c along an alternating path of tight cells
    through free rows: the row on c moves to another tight column, that
    column's row moves on, and so on until a row takes r's column.
    Updates col_of and row_of and returns True if such a path exists."""
    goal = col_of[r]
    came_from = {c: row_of[c]}
    queue = [row_of[c]]
    for x in queue:
        for j in tight[x]:
            if j in came_from:
                continue
            came_from[j] = x
            if j == goal:
                while j != c:
                    x = came_from[j]
                    prev = col_of[x]
                    col_of[x], row_of[j] = j, x
                    j = prev
                col_of[r], row_of[c] = c, r
                return True
            if free_row[row_of[j]]:
                queue.append(row_of[j])
    return False


def assignment_lex(values, allowed):
    """Maximum-total partial matching over permitted cells, ties broken
    toward the lexicographically smallest (row, col) pair sequence.

    Returns chosen column per row, -1 for unmatched. One Hungarian solve
    of the square cost padded with a dummy column per row and a dummy row
    per column (row i on column m+i or column j on row n+j stays
    unmatched) gives an optimal matching and its duals. Every optimal
    matching uses only tight cells, where cost - u - v <= tol, so rows
    are fixed in order: each takes the first permitted tight column that
    an alternating path of tight cells through unfixed rows can free, or
    stays unmatched, until the fixed pairs reach the optimal total. The
    tolerance is scale-relative, so value gaps far below 1e-9 of the
    matrix magnitude may tie.
    """
    n = values.shape[0]
    m = values.shape[1]
    chosen = np.full(n, -1, np.int64)
    if n == 0 or m == 0:
        return chosen
    magnitudes = np.abs(values[np.isfinite(values)])
    scale = float(_sequential_sum(np.concatenate(([1.0], magnitudes))))
    tol = 1e-9 * scale
    size = n + m
    cost = np.full((size, size), scale)
    cost[:n, :m] = np.where(allowed, -values, scale)
    cost[np.arange(n), m + np.arange(n)] = 0.0
    cost[n + np.arange(m), np.arange(m)] = 0.0
    cost[n:, m:] = 0.0
    cols, u, v = hungarian_min(cost)
    tight = [np.flatnonzero(row).tolist()
             for row in cost - u[:, None] - v[None, :] <= tol]
    col_of = cols.tolist()
    row_of = np.argsort(cols).tolist()
    target = 0.0
    for i in range(n):
        if col_of[i] < m:
            target += values[i, col_of[i]]
    free_row = [True] * size
    chosen_sum = 0.0
    for r in range(n):
        if abs(chosen_sum - target) <= tol:
            break
        limit = min(col_of[r], m)
        for c in tight[r]:
            if c >= limit:
                break
            if (allowed[r, c] and free_row[row_of[c]]
                    and _give_column(tight, col_of, row_of, free_row, r, c)):
                break
        free_row[r] = False
        if col_of[r] < m:
            chosen[r] = col_of[r]
            chosen_sum += values[r, col_of[r]]
    return chosen


def causal_gaussian_smooth(times, joints, sigma_frames, fps, t_now):
    """Weighted mean of a trailing window of skeletons.

    times (B,), joints (B,N,3) ordered oldest to newest. Gaussian weights
    over the age in frames, renormalized over whatever history exists.
    """
    out = np.zeros(joints.shape[1:])
    wsum = 0.0
    for t, skeleton in zip(times, joints):
        z = (t_now - t) * fps / sigma_frames
        # math.exp: np.exp may round differently from the C library
        w = math.exp(-0.5 * z * z)
        wsum += w
        out += w * skeleton
    if wsum > 0.0:
        out /= wsum
    return out


def warm_up():
    """Nothing to prepare, every kernel is plain numpy. The benchmark
    (bench/run.py) calls it during set-up."""
