"""Numeric kernels, numpy array code over a whole frame at once.

Projection, pose scoring (every camera of a frame at once), both
epipolar filters and the cross-view pose score work on stacked arrays.
Projection takes each camera's 3×4 projection matrix, so one call of
six elementwise operations projects every track into every camera. It
uses no np.matmul: BLAS takes another path for a single point than for
a block of points and may round it differently, so a point's pixels
would depend on the points sharing its call.
Triangulation finds the null vector of every joint's 4×4 normal matrix
AᵀA at once, with elementwise array code and no LAPACK call: the
adjugate of AᵀA from its 2×2 minors, then a few steps of inverse
iteration with it. A certificate from the residual of each vector and a
lower bound on the second smallest eigenvalue accepts a joint only when
both status tests are far from their thresholds and the point is within
5e-13·(1 + |x|) of the exact one; the few joints it leaves (nearly
parallel rays, rank deficient or non-finite systems, points at infinity)
are solved from the SVD of their own kept rows of A, one np.linalg.svd
call per distinct count of kept views. Track initialization scores
every pair of cameras in one cross-view pose score call, and filters,
on that call's per-joint affinities, and triangulates every new track
in one call each. Loops remain only over greedy removal steps, the
smoothing window, the inverse-iteration steps, the fallback's view
counts and the cameras of the tracker's greedy clustering, which joins
one camera's poses at a time, and in hungarian_min, a scalar
rectangular Hungarian solve over Python lists, which the assignment
module runs only on the matrices its one numpy pass cannot settle.

Elementwise expressions follow the scalar order of operations and sums
run in a fixed order, left to right unless a comment says otherwise, so
each element's result does not depend on the batch it is computed in;
the SVD works on one matrix at a time, so the fallback keeps this too. A
dead slot, one whose observation is not alive, adds exact zeros to the
filters' sums and zero rows to AᵀA, so a joint gets the same bits
whether absent cameras sit as dead slots between its live ones or are
left out; the fallback gathers only the kept rows, so it keeps this too.

Status codes returned by triangulate_batch:
  0 ok, 1 too few rows, 2 rank deficient, 3 point at infinity.
Rank deficient means σ1 <= 0 or σ3 <= 1e-7·σ1 for the singular values of
A, or AᵀA not finite. The certificate accepts only joints whose status
is 0 by a wide margin, and the SVD decides the rest with these tests.
"""

import functools
import math

import numpy as np

FLAG_TRIANGULATED = 0
FLAG_PREDICTED = 1
FLAG_MISSING = 2


def project_points(pts, P):
    """Project world points (...,3) through the 3x4 projection matrices
    P (...,3,4) broadcast against them, returns (uv (...,2), depth (...)).

    The homogeneous pixel P·(x, y, z, 1) is summed column by column in
    that order. Its third coordinate is the depth, since the last row of
    K is (0, 0, 1), and uv is the quotient of the first two by it, NaN
    where the depth is not positive.
    """
    h = (P[..., 0] * pts[..., 0, None] + P[..., 1] * pts[..., 1, None]
         + P[..., 2] * pts[..., 2, None] + P[..., 3])
    depth = h[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = h[..., :2] / depth[..., None]
    uv[depth <= 0.0] = np.nan
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
    ma = f_ba[..., 0, 0] * ub + f_ba[..., 0, 1] * vb + f_ba[..., 0, 2]
    mb = f_ba[..., 1, 0] * ub + f_ba[..., 1, 1] * vb + f_ba[..., 1, 2]
    mc = f_ba[..., 2, 0] * ub + f_ba[..., 2, 1] * vb + f_ba[..., 2, 2]
    # a tiny alpha overflows the quotient to inf, which scores -inf; a
    # huge pixel, as an invalid joint may hold, overflows the line norms
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        n1 = np.sqrt(la * la + lb * lb)
        n2 = np.sqrt(ma * ma + mb * mb)
        on_epipole = (n1 < 1e-12) | (n2 < 1e-12)
        d1 = np.abs(la * ub + lb * vb + lc) / n1
        d2 = np.abs(ma * ua + mb * va + mc) / n2
        a = 1.0 - (d1 + d2) / (2.0 * alpha)
    return np.where(on_epipole, 0.0, a)


def epipolar_pose_score(uv_a, valid_a, uv_b, valid_b, f_ab, f_ba, alpha):
    """Per-joint epipolar affinities of two poses and their sum.

    uv (...,N,2) and valid (...,N) of the two poses and f_ab / f_ba
    (...,3,3) broadcast over the leading axes; returns the sums (...)
    and the affinities (...,N), 0 unless valid in both poses.
    """
    a = epipolar_pair_affinities(uv_a[..., 0], uv_a[..., 1], uv_b[..., 0],
                                 uv_b[..., 1], f_ab[..., None, :, :],
                                 f_ba[..., None, :, :], alpha)
    a = np.where(valid_a & valid_b, a, 0.0)
    return _sequential_sum(a), a


def _sequential_sum(x):
    """Left-to-right sum over the last axis starting from 0.0, the rounding
    of a scalar accumulation loop (np.sum sums pairwise). One whole-array
    add per term: the kernels sum a few to a dozen terms, where that costs
    less than np.cumsum along the short axis."""
    total = np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        total += x[..., k]
    return total


def score_pose_pairs(track_pts, track_valid, dts, P, poses_uv, poses_valid,
                     alpha_2d, lam, eps_count, part_aware):
    """Affinity matrices between tracked skeletons and 2D poses, per camera.

    track_pts: (...,T,N,3), dts: (...,T) time since each track's last
    update, poses_uv: (...,Q,N,2), with P (...,3,4) the projection matrix
    of the camera that saw the Q poses; the leading axes, one per camera,
    broadcast and the result is (...,T,Q). Per-joint affinity decays with
    distance scaled by alpha_2d*dt and with exp(-lam*dt). part_aware True
    keeps the mean of strictly positive joints and zeroes the score when
    fewer than eps_count are positive; False means over all participating
    joints. Joints take part when valid on both sides and in front of the
    camera.
    """
    uv, depth = project_points(track_pts, P[..., None, None, :, :])
    du = poses_uv[..., None, :, :, 0] - uv[..., :, None, :, 0]
    dv = poses_uv[..., None, :, :, 1] - uv[..., :, None, :, 1]
    # an extreme alpha_2d overflows tol, or a distance over it, to inf, and
    # an extreme lam the exponent of the decay to -inf, a decay of 0
    with np.errstate(over="ignore"):
        tol = (alpha_2d * dts)[..., None, None]
        # math.exp per track: np.exp may round unlike the C library
        decay = np.array(list(map(math.exp, (-lam * dts).ravel().tolist()))
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
    pi, pj = _slot_pairs(uv.shape[1])
    ci, cj = cam_idx[pi], cam_idx[pj]
    e = epipolar_pair_affinities(uv[:, pi, 0], uv[:, pi, 1], uv[:, pj, 0],
                                 uv[:, pj, 1], f_table[ci, cj], f_table[cj, ci],
                                 alpha)
    alive = alive.copy()
    rows = np.flatnonzero((alive[:, pi] & alive[:, pj] & (e < 0.0)).any(axis=1))
    if rows.size == 0:
        return alive
    uv, e, sub = uv[rows], e[rows], alive[rows]
    rays = back_project_dir(uv[..., 0], uv[..., 1], krinv_table[cam_idx])
    dist = point_ray_distance(pred[rows, None, :], origins[cam_idx], rays)
    at = np.arange(rows.size)
    for _ in range(uv.shape[1] - 1):
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


def filter_init_mask(pair_e, alive):
    """Epipolar consistency filter used when no 3D prediction exists yet.

    alive (B,M) marks each joint's observations present in its M slots,
    and pair_e (B,P) holds the epipolar affinity of every slot pair
    i < j, in _slot_pairs(M) order. A pair with a dead member changes
    no keep bit, whatever it holds, NaN included. Per joint, while two or
    more are alive and a surviving pair scores negative: with three or
    more alive, the first observation in slot order with the smallest
    affinity sum over the other survivors is dropped; an inconsistent
    final pair is dropped entirely. Returns the keep mask (B,M).
    """
    m = alive.shape[1]
    pi, pj = _slot_pairs(m)
    e = np.zeros((alive.shape[0], m, m))
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


def _cofactor_tables():
    """Index tables for the adjugate of a batch of symmetric 4×4 matrices
    held as a flat (16,B) stack, read from the upper triangle.

    Cofactor C_ij (i <= j) expands the 3×3 minor of M without row i and
    column j along its first row: three products of an entry of M with a
    signed 2×2 minor, each minor one a·b - c·d over four entries. C_ji
    reuses the row of C_ij, so the adjugate is exactly symmetric: ten
    cofactors, gathered into sixteen slots. Returns (minors (4,K), the
    entries (16,3) and minors (16,3) of each cofactor's terms, the six
    principal 2×2 minors (6,))."""
    def flat(r, c):
        return 4 * min(r, c) + max(r, c)

    minors = []

    def minor(rows, cols, sign):
        (r0, r1), (c0, c1) = rows, cols
        pos = tuple(sorted((flat(r0, c0), flat(r1, c1))))
        neg = tuple(sorted((flat(r0, c1), flat(r1, c0))))
        key = pos + neg if sign > 0 else neg + pos
        if key not in minors:
            minors.append(key)
        return minors.index(key)

    entries = np.zeros((16, 3), np.intp)
    terms = np.zeros((16, 3), np.intp)
    for i in range(4):
        for j in range(i, 4):
            rows = [r for r in range(4) if r != i]
            cols = [c for c in range(4) if c != j]
            for t, c in enumerate(cols):
                rest = [k for k in cols if k != c]
                entries[4 * i + j, t] = entries[4 * j + i, t] = flat(rows[0], c)
                terms[4 * i + j, t] = terms[4 * j + i, t] = minor(
                    rows[1:], rest, (-1) ** (i + j + t))
    principal = [minor((r, c), (r, c), 1)
                 for r in range(4) for c in range(r + 1, 4)]
    return np.array(minors).T, entries, terms, np.array(principal)


_MINORS, _COFACTOR_ENTRIES, _COFACTOR_MINORS, _PRINCIPAL = _cofactor_tables()
_DIAGONAL = np.array([0, 5, 10, 15])
_EPS = float(np.finfo(np.float64).eps)
# inverse-iteration steps after the starting column
_STEPS = 4


def _sum4(p):
    """(p0 + p2) + (p1 + p3) over the first axis of length 4."""
    q = p[:2] + p[2:]
    return q[0] + q[1]


def _smallest_eigenvectors(m):
    """Certified unit eigenvectors of the smallest eigenvalue λ0 of a
    batch of symmetric positive semidefinite 4×4 matrices m (B,4,4).

    Each matrix is scaled to unit trace. Its adjugate, the sum over
    eigenpairs of the product of the other three eigenvalues times
    v·vᵀ, weighs v0 by λ1λ2λ3 and v1 by λ0λ2λ3, so each step of inverse
    iteration x <- adj(M)·x shrinks the error by λ0/λ1. It starts from
    the adjugate's column with the largest diagonal entry.

    The certificate bounds the error of x from the Rayleigh quotient
    ρ = xᵀMx and the residual ‖Mx - ρx‖, both from M itself, not from
    the rounded adjugate. e2 and e3, the sums of the principal 2×2
    minors and of the adjugate's diagonal, are the second and third
    elementary symmetric functions of the eigenvalues. As λ0 <= ρ,
    λ1λ2λ3 >= e3 - ρ·e2 and λ2λ3 <= e2, so λ1 >= e3/e2 - ρ, once each
    term is moved by a bound on its own rounding. A vector is certified
    when the sin θ bound (‖Mx - ρx‖ + 4·eps)/(λ1 - ρ) on its angle to v0
    is at most 5e-13·|x₄|. The rounding term covers the residual's own
    rounding. Then
      - the point x₁:₃/x₄ moves by at most 5e-13·(1 + |x|) from the
        exact one;
      - λ1 > 4·eps/5e-13 > 1e-3 >= 1e-3·λ3, so σ3/σ1 = sqrt(λ1/λ3) >
        0.03 for the singular values of A, far from the rank test
        (σ3 <= 1e-7·σ1);
      - |x₄| > 1e-3 likewise, far above the point-at-infinity test
        (|x₄| <= 1e-12·‖x₁:₃‖).
    Returns (x (4,B), certified (B,)); x is meaningless where not
    certified, non-finite matrices included.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = m.reshape(-1, 16).T
        f = f / _sum4(f[_DIAGONAL])
        g = f[_MINORS]
        minors = g[0] * g[1] - g[2] * g[3]
        t = f[_COFACTOR_ENTRIES] * minors[_COFACTOR_MINORS]
        adj = t[:, 0] + t[:, 1] + t[:, 2]
        diag = adj[_DIAGONAL]
        e3 = _sum4(diag)
        # symmetric, so a * x[:, None] holds a[i, j]·x[j] at [j, i]
        a = (adj / e3).reshape(4, 4, -1)
        x = a[diag.argmax(axis=0), :, np.arange(a.shape[-1])].T
        for _ in range(_STEPS):
            x = _sum4(a * x[:, None])
        x = x / np.sqrt(_sum4(x * x))
        y = _sum4(f.reshape(4, 4, -1) * x[:, None])
        rho = _sum4(x * y)
        r = y - rho * x
        res = np.sqrt(_sum4(r * r))
        p = minors[_PRINCIPAL]
        p = p[:3] + p[3:]
        e2 = p[0] + p[1] + p[2]
        # each bound is moved by its own rounding: e3 sums 24 products of
        # three entries, e2 12 of two and ρ 16, each entry at most 1 as
        # |M_ij| <= sqrt(M_ii·M_jj) <= tr M = 1
        gap = ((e3 - 128.0 * _EPS) / (e2 + 64.0 * _EPS)
               - 2.0 * rho - 128.0 * _EPS)
        certified = res + 4.0 * _EPS <= 5e-13 * np.abs(x[3]) * gap
    return x, certified


def _svd_null_vectors(a, keep, m):
    """x (4,B) and status (B,) of the joints the certificate leaves, from
    the SVD of each one's kept rows of A (B,2M,4), keep (B,M), in slot
    order: one np.linalg.svd call per distinct count of kept views. m
    (B,4,4) is AᵀA. Status as in triangulate_batch."""
    count = keep.sum(axis=1)
    kept = np.repeat(keep, 2, axis=1)
    x = np.zeros((4, len(count)))
    # 2 stays where AᵀA is not finite
    status = np.where(count < 2, 1, 2)
    solve = (count >= 2) & np.isfinite(m).all(axis=(1, 2))
    for k in np.unique(count[solve]).tolist():
        rows = np.flatnonzero(solve & (count == k))
        _, s, vt = np.linalg.svd(a[rows][kept[rows]].reshape(-1, 2 * k, 4),
                                 full_matrices=False)
        v = vt[:, 3].T
        n = np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        status[rows] = np.where((s[:, 0] <= 0.0) | (s[:, 2] <= 1e-7 * s[:, 0]),
                                2, np.where(np.abs(v[3]) <= 1e-12 * n, 3, 0))
        x[:, rows] = v
    return x, status


def triangulate_batch(uv, pmats, weights, keep):
    """Weighted linear triangulation of a batch of points.

    uv (...,M,2) are pixels as measured and keep (...,M) the views to
    use, both of the batch's shape; pmats (...,M,3,4), the matching
    projection matrices, and weights (...,M), the per-view weights,
    broadcast against them. A view gives the rows w·(u·P₃ − P₁) and
    w·(v·P₃ − P₂), so its u and v residuals weigh alike. Each point's
    (2M,4) system A, unused rows zero, is reduced to its normal matrix
    AᵀA (4,4), and the eigenvector of its smallest eigenvalue is the
    homogeneous point (Hartley & Zisserman, Multiple View Geometry,
    §12.2). Adjugate inverse iteration finds it for every point at once
    (see _smallest_eigenvectors); the points it cannot certify are
    solved from the SVD of their own kept rows of A, so a batch whose
    points are all certified makes no SVD call (see _svd_null_vectors).

    Status: 0 ok, 1 fewer than two views, 2 rank deficient (σ1 <= 0 or
    σ3 <= 1e-7·σ1 for the singular values of A) or AᵀA not finite, 3
    point at infinity (|x₄| <= 1e-12·‖x₁:₃‖). A certified point is far
    from every test, so its status is 0.
    Returns (xyz (...,3), status (...)).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # masked after the product: a dead slot may hold NaN or huge pixels
        a = np.where(keep[..., None, None], weights[..., None, None]
                     * (uv[..., None] * pmats[..., 2:3, :]
                        - pmats[..., :2, :]), 0.0)
        shape = a.shape[:-3]
        a = a.reshape((-1, 2 * a.shape[-3], 4))
        m = np.matmul(a.swapaxes(-1, -2), a)
    x, certified = _smallest_eigenvectors(m)
    status = np.zeros(certified.shape, np.intp)
    redo = np.flatnonzero(~certified)
    if redo.size:
        x[:, redo], status[redo] = _svd_null_vectors(
            a[redo], keep.reshape(-1, keep.shape[-1])[redo], m[redo])
    with np.errstate(divide="ignore", invalid="ignore"):
        xyz = np.where(status == 0, x[:3] / x[3], 0.0).T
    return xyz.reshape(shape + (3,)), status.reshape(shape)


def reconstruct_joints(obs_uv, obs_valid, weights, pred, f_table, origins,
                       krinv_table, p_table, alpha_epi, use_filter):
    """Filtered triangulation of every joint of a batch of tracks.

    obs_uv (T,N,C,2) holds the matched pose of each track in each camera,
    obs_valid (T,N,C) marks usable joints (absent cameras all False),
    weights (T,C) the per-camera staleness weights and pred (T,N,3) the
    predicted joints, and p_table (C,3,4) holds the cameras' projection
    matrices. Joints with fewer than two surviving views fall back to
    the prediction. Returns (joints (T,N,3), flags (T,N)).
    """
    t_count, n_joints, n_cams = obs_valid.shape
    uv = obs_uv.reshape(-1, n_cams, 2)
    keep = obs_valid.reshape(-1, n_cams)
    if use_filter:
        keep = filter_tracked_batch(uv, keep, np.arange(n_cams), f_table,
                                    alpha_epi, pred.reshape(-1, 3), origins,
                                    krinv_table)
    w = np.repeat(weights, n_joints, axis=0)
    xyz, status = triangulate_batch(uv, p_table, w, keep)
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
