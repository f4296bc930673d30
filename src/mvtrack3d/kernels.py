"""Numeric kernels, numpy array code over a whole frame at once.

Projection, pose scoring (every camera of a frame at once), both
epipolar filters and the cross-view pose score work on stacked arrays;
triangulation is one batched LAPACK eigensolve of every joint's 4×4
normal matrix AᵀA. Track initialization calls the cross-view pose score
once per frame, over every pair of cameras, and the initialization
filter and triangulation once, over every new track. Loops remain only
over greedy removal steps, the smoothing window and the cameras of the
tracker's greedy clustering, which joins one camera's poses at a time,
and in the assignment: one scalar rectangular Hungarian solve per call
of assignment_lex, over Python lists, whose duals settle the tie-break
without solving again. assignment.solve calls it only for a matrix
whose rows contest a column or whose best matching is nearly tied; a
single numpy pass over a frame's stack of matrices settles every matrix
with a unique best matching.

Elementwise expressions follow the scalar order of operations and sums
run left to right, so each element's result does not depend on the
batch it is computed in. A dead slot, one whose observation is not
alive, adds exact zeros to the filters' sums and zero rows to AᵀA, so
a joint gets the same bits whether absent cameras sit as dead slots
between its live ones or are left out.

Status codes returned by triangulate_batch:
  0 ok, 1 too few rows, 2 rank deficient, 3 point at infinity.
Rank deficient means σ3 <= 1e-7·σ1 for the singular values of A. The
eigenvalues of AᵀA carry an error of about eps·σ1², so σ3/σ1 cannot be
resolved below about 1e-8, and an exactly rank-2 system reads near it.
"""

import functools
import math

import numpy as np

FLAG_TRIANGULATED = 0
FLAG_PREDICTED = 1
FLAG_MISSING = 2


def project_points(pts, K, R, o):
    """Project world points (...,3) through cameras K, R (...,3,3) and
    o (...,3) broadcast against them, returns (uv (...,2), depth (...))."""
    d = pts - o
    xc = (R[..., :, 0] * d[..., 0, None] + R[..., :, 1] * d[..., 1, None]
          + R[..., :, 2] * d[..., 2, None])
    h = (K[..., :, 0] * xc[..., 0, None] + K[..., :, 1] * xc[..., 1, None]
         + K[..., :, 2] * xc[..., 2, None])
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
    # a tiny alpha overflows the quotient to inf, which scores -inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d1 = np.abs(la * ub + lb * vb + lc) / n1
        d2 = np.abs(ma * ua + mb * va + mc) / n2
        a = 1.0 - (d1 + d2) / (2.0 * alpha)
    return np.where(on_epipole, 0.0, a)


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
    """Affinity matrices between tracked skeletons and 2D poses, per camera.

    track_pts: (...,T,N,3), dts: (...,T) time since each track's last
    update, poses_uv: (...,P,N,2), with K, R (...,3,3) and o (...,3) the
    camera that saw the poses; the leading axes, one per camera, broadcast
    and the result is (...,T,P). Per-joint affinity decays with distance
    scaled by alpha_2d*dt and with exp(-lam*dt). part_aware True keeps the
    mean of strictly positive joints and zeroes the score when fewer than
    eps_count are positive; False means over all participating joints.
    Joints take part when valid on both sides and in front of the camera.
    """
    uv, depth = project_points(track_pts, K[..., None, None, :, :],
                               R[..., None, None, :, :], o[..., None, None, :])
    du = poses_uv[..., None, :, :, 0] - uv[..., :, None, :, 0]
    dv = poses_uv[..., None, :, :, 1] - uv[..., :, None, :, 1]
    # an extreme alpha_2d overflows tol, or a distance over it, to inf, and
    # an extreme lam the exponent of the decay to -inf, a decay of 0
    with np.errstate(over="ignore"):
        tol = (alpha_2d * dts)[..., None, None]
        # math.exp per track: np.exp may round unlike the C library
        decay = np.array([math.exp(-lam * dt) for dt in dts.ravel()]
                         ).reshape(dts.shape)[..., None, None]
        a = (1.0 - np.sqrt(du * du + dv * dv) / tol) * decay
    use = (track_valid[..., :, None, :] & poses_valid[..., None, :, :]
           & (depth > 0.0)[..., :, None, :])
    if part_aware:
        use &= a > 0.0
    total = _sequential_sum(np.where(use, a, 0.0))
    count = use.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = total / count
    if part_aware:
        return np.where((count >= eps_count) & (count > 0), mean, 0.0)
    return np.where(count > 0, mean, 0.0)


@functools.lru_cache(maxsize=None)
def _slot_pairs(m):
    """Every slot pair i < j of m slots in (i, j) order, as read-only
    (pi, pj); np.triu_indices costs more than the filters' own work."""
    pairs = np.triu_indices(m, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _slot_pair_affinities(uv, cam_idx, f_table, alpha):
    """Epipolar affinity of every slot pair i < j of a batch uv (B,M,2)
    whose slot m is seen by camera cam_idx[m]; returns (i, j, e (B,P))."""
    pi, pj = _slot_pairs(uv.shape[1])
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
    prediction (i on a tie). Only joints with a negative pair back-project
    their rays. Returns the keep mask (B,M).
    """
    m = uv.shape[1]
    pi, pj, e = _slot_pair_affinities(uv, cam_idx, f_table, alpha)
    alive = alive.copy()
    rows = np.flatnonzero((alive[:, pi] & alive[:, pj] & (e < 0.0)).any(axis=1))
    if rows.size == 0:
        return alive
    uv, e, sub = uv[rows], e[rows], alive[rows]
    rays = back_project_dir(uv[..., 0], uv[..., 1], krinv_table[cam_idx])
    dist = point_ray_distance(pred[rows, None, :], origins[cam_idx], rays)
    at = np.arange(rows.size)
    for _ in range(m - 1):
        negative = sub[:, pi] & sub[:, pj] & (e < 0.0)
        worst = np.where(negative, e, 0.0).argmin(axis=1)
        hit = negative[at, worst]
        if not hit.any():
            break
        wi, wj = pi[worst], pj[worst]
        drop = np.where(dist[at, wi] >= dist[at, wj], wi, wj)
        sub[at[hit], drop[hit]] = False
    alive[rows] = sub
    return alive


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
    (...,M) the per-view weights and the views to use. Each point's
    (2M,4) system A, unused rows zero, is reduced to its normal matrix
    AᵀA (4,4), and the eigenvector of the smallest eigenvalue is the
    homogeneous point. The eigenvalues are the squared singular values
    of A, but eigh resolves them only to about eps·σ1², so σ3/σ1 is known
    only down to about 1e-8: the rank test flags σ3 <= 1e-7·σ1.
    Returns (xyz (...,3), status (...)).
    """
    w = weights[..., None]
    p = pmats
    rows_u = w * (uvn[..., 0, None] * p[..., 2, :] - p[..., 0, :])
    rows_v = w * (uvn[..., 1, None] * p[..., 2, :] - p[..., 1, :])
    a = np.where(keep[..., None, None], np.stack((rows_u, rows_v), axis=-2), 0.0)
    a = a.reshape(a.shape[:-3] + (-1, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.matmul(a.swapaxes(-1, -2), a)
    # eigh raises on a non-finite matrix, which a huge finite pixel can give
    finite = np.isfinite(m).all(axis=(-2, -1))
    m[~finite] = 0.0
    lam, vec = np.linalg.eigh(m)
    x = vec[..., :, 0]
    n = np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1] + x[..., 2] * x[..., 2])
    status = np.where(np.abs(x[..., 3]) <= 1e-12 * n, 3, 0)
    # σ3 <= 1e-7·σ1, on the eigenvalues λ = σ²
    rank_deficient = (lam[..., 3] <= 0.0) | (lam[..., 1] <= 1e-14 * lam[..., 3])
    status = np.where(rank_deficient | ~finite, 2, status)
    status = np.where(keep.sum(axis=-1) < 2, 1, status)
    with np.errstate(divide="ignore", invalid="ignore"):
        xyz = np.where((status == 0)[..., None], x[..., :3] / x[..., 3, None], 0.0)
    return xyz, status


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
    """Exact minimum-cost assignment of every row of an n x M cost, n <= M,
    with its dual certificate.

    Shortest augmenting paths (Jonker & Volgenant, Computing 38, 1987, in
    the rectangular form of Crouse, IEEE TAES 52, 2016): a row whose
    cheapest column is still free takes it, and each other row in turn
    runs a Dijkstra search over reduced costs to the nearest free column,
    after which the duals move by the path lengths. Returns (col, u, v): the
    column of each row, and row and column duals with
    cost[i, j] - u[i] - v[j] >= 0 everywhere and == 0 on each assigned
    cell, v <= 0, and v == 0 on every column left unassigned, up to
    rounding. Scalar loops over Python lists, which beat numpy row
    operations at the sizes the tracker solves.
    """
    n, size = cost.shape
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0), np.zeros(size)
    a = cost.tolist()
    u = [0.0] * n
    v = [0.0] * size
    col_of = [-1] * n
    row_of = [-1] * size
    # u = the row minimum and v = 0 keep every reduced cost >= 0
    waiting = []
    for i, j in enumerate(cost.argmin(axis=1).tolist()):
        if row_of[j] < 0:
            row_of[j] = i
            col_of[i] = j
            u[i] = a[i][j]
        else:
            waiting.append(i)
    for cur in waiting:
        # the first scan: row cur's reduced costs, its own dual still 0
        dist = [c - d for c, d in zip(a[cur], v)]
        came_from = [cur] * size
        remaining = list(range(size))
        rows = [cur]
        cols = []
        reach = min(dist)
        best = dist.index(reach)
        while True:
            j = remaining[best]
            remaining[best] = remaining[-1]
            remaining.pop()
            cols.append(j)
            i = row_of[j]
            if i < 0:
                break
            rows.append(i)
            base = reach - u[i]
            row = a[i]
            lowest = math.inf
            for k in range(len(remaining)):
                jk = remaining[k]
                d = base + row[jk] - v[jk]
                if d < dist[jk]:
                    dist[jk] = d
                    came_from[jk] = i
                else:
                    d = dist[jk]
                if d < lowest:
                    lowest = d
                    best = k
            reach = lowest
        u[cur] += reach
        for i in rows[1:]:
            u[i] += reach - dist[col_of[i]]
        for j in cols:
            v[j] -= reach - dist[j]
        # augment: every row on the path takes the column it reached
        j = cols[-1]
        while True:
            i = came_from[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == cur:
                break
    return np.array(col_of, np.int64), np.array(u), np.array(v)


_POOL = -1


def _give_column(tight, slack, col_of, row_of, unfixed, r, c):
    """Move row r onto column c along an alternating path of tight cells
    through unfixed rows: the row on c moves to another tight column, that
    column's row moves on, and so on until a row takes r's column.

    The pool, row_of == _POOL, holds every free column. A row may move
    onto a free column, and the pool then takes one column in slack (its
    dual is 0, so it may be left empty), whose row moves on in turn. The
    pool can also take r's own column, and it starts the path when c is
    free. Updates col_of and row_of and returns True if such a path
    exists.
    """
    goal = col_of[r]
    came_from = {c: row_of[c]}
    queue = [row_of[c]]
    # the free column through which the path enters the pool
    pool_entry = c if row_of[c] == _POOL else None
    for x in queue:
        for j in slack if x == _POOL else tight[x]:
            if j in came_from:
                continue
            came_from[j] = x
            if j == goal:
                while j != c:
                    x = came_from[j]
                    if x == _POOL:
                        row_of[j] = _POOL
                        j = pool_entry
                    else:
                        prev = col_of[x]
                        col_of[x], row_of[j] = j, x
                        j = prev
                col_of[r], row_of[c] = c, r
                return True
            y = row_of[j]
            if y == _POOL:
                if pool_entry is None:
                    pool_entry = j
                    queue.append(_POOL)
            elif unfixed[y]:
                queue.append(y)
    return False


def assignment_lex(values, allowed):
    """Maximum-total partial matching over permitted cells, ties broken
    toward the lexicographically smallest (row, col) pair sequence.

    Returns chosen column per row, -1 for unmatched. One Hungarian solve
    of the n x (m+n) cost gives an optimal matching and its duals: -value
    on the permitted cells of the m real columns, then a dummy column per
    row, 0 on its own row (row i on column m+i stays unmatched), and a
    scale above any total everywhere else. Every optimal matching uses only tight cells, where
    cost - u - v <= tol, and covers every column whose dual is below
    -tol; a column in slack, dual within tol of 0, may stay empty. So
    rows are fixed in order: each takes the first permitted tight column
    that an alternating path of tight cells through unfixed rows and the
    pool of free columns can free, or keeps its column, until the fixed
    pairs reach the optimal total. The tolerance is scale-relative, so
    value gaps far below 1e-9 of the matrix magnitude may tie.
    """
    n = values.shape[0]
    m = values.shape[1]
    chosen = np.full(n, -1, np.int64)
    if n == 0 or m == 0:
        return chosen
    magnitudes = np.abs(values[np.isfinite(values)])
    scale = float(_sequential_sum(np.concatenate(([1.0], magnitudes))))
    tol = 1e-9 * scale
    cost = np.full((n, m + n), scale)
    np.negative(values, out=cost[:, :m], where=allowed)
    cost.ravel()[m::m + n + 1] = 0.0   # row i's dummy column m+i
    cols, u, v = hungarian_min(cost)
    tight = [[] for _ in range(n)]
    rows, tight_cols = np.nonzero(cost - u[:, None] - v[None, :] <= tol)
    for i, j in zip(rows.tolist(), tight_cols.tolist()):
        tight[i].append(j)
    slack = np.flatnonzero(v >= -tol).tolist()
    col_of = cols.tolist()
    row_of = [_POOL] * (m + n)
    for i, c in enumerate(col_of):
        row_of[c] = i
    vals = values.tolist()
    ok = allowed.tolist()
    target = 0.0
    for i in range(n):
        if col_of[i] < m:
            target += vals[i][col_of[i]]
    unfixed = [True] * n
    chosen_sum = 0.0
    for r in range(n):
        if abs(chosen_sum - target) <= tol:
            break
        limit = min(col_of[r], m)
        for c in tight[r]:
            if c >= limit:
                break
            if (ok[r][c] and (row_of[c] == _POOL or unfixed[row_of[c]])
                    and _give_column(tight, slack, col_of, row_of, unfixed,
                                     r, c)):
                break
        unfixed[r] = False
        if col_of[r] < m:
            chosen[r] = col_of[r]
            chosen_sum += vals[r][col_of[r]]
    return chosen


def causal_gaussian_smooth(times, joints, sigma_frames, fps, t_now):
    """Weighted mean of trailing windows of skeletons.

    times (...,B), joints (...,B,N,3), each window ordered oldest to
    newest; returns (...,N,3). Gaussian weights over the age in frames,
    renormalized over the window. A slot at time -inf weighs exactly 0,
    and 0.0 + w·x == w·x, so windows of different lengths batch
    together right-aligned behind -inf times and zero joints.
    """
    # a tiny sigma overflows z, or its square, to inf: a weight of 0
    with np.errstate(over="ignore"):
        z = (t_now - times) * fps / sigma_frames
        exponent = -0.5 * z * z
    # math.exp: np.exp may round differently from the C library
    w = np.array([math.exp(v) for v in exponent.ravel().tolist()]
                 ).reshape(z.shape)
    out = np.zeros(joints.shape[:-3] + joints.shape[-2:])
    wsum = np.zeros(times.shape[:-1])
    for k in range(times.shape[-1]):
        wsum += w[..., k]
        out += w[..., k, None, None] * joints[..., k, :, :]
    scale = wsum[..., None, None]
    np.divide(out, scale, out=out, where=scale > 0.0)
    return out


def warm_up():
    """Nothing to prepare, every kernel is plain numpy. The benchmark
    (bench/run.py) calls it during set-up."""
