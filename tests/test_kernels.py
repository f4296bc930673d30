"""Array kernels against the scalar references in helpers, bit for bit,
except triangulation, which is held to the SVD of each joint's system
within a tolerance where the certificate accepts the point, and bit for
bit to the SVD of the joint's kept rows where it falls back to it.

Inputs are generated: rigs from a random seed, pixels near true
projections with noise and gross outliers, invalid joints whose pixels
are NaN, pixels sitting on an epipole, single-entry histories and
repeated views whose affinity row sums tie.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mvtrack3d import kernels
from mvtrack3d.geometry import CameraRig

from helpers import (
    look_at_camera,
    points_near_origin,
    project,
    random_ring_rig,
    reference_epipolar_pair_affinity,
    reference_epipolar_pose_score,
    reference_filter_init_mask,
    reference_init_filter,
    reference_normal_matrices,
    reference_smooth,
    reference_triangulate_svd,
    slot_pair_affinities,
    weighted_dlt_status,
)

ALPHA = 30.0
SEEDS = st.integers(0, 2**32 - 1)


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


def epipole(cam_a, cam_b):
    """Pixel in cam_a where cam_b's center projects."""
    h = cam_a.K @ cam_a.R @ (cam_b.o - cam_a.o)
    return h[:2] / h[2]


def noisy_views(rng, cams, cam_idx, n_points, outlier_rate):
    """(n_points, len(cam_idx), 2) projections of points near the origin,
    with 1 px noise and a 50-300 px shift on a fraction of the views."""
    pts = points_near_origin(rng, n_points)
    uv = np.stack([[project(p, cams[c]) for c in cam_idx]
                   for p in pts])
    uv += rng.normal(0.0, 1.0, size=uv.shape)
    bad = rng.random(uv.shape[:2]) < outlier_rate
    ang = rng.uniform(0.0, 2.0 * np.pi, size=uv.shape[:2])
    shift = rng.uniform(50.0, 300.0, size=uv.shape[:2])[..., None]
    uv[bad] += (shift * np.stack((np.cos(ang), np.sin(ang)), axis=-1))[bad]
    return uv


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, on_epipole_a=st.booleans(), on_epipole_b=st.booleans())
def test_pair_affinities_match_scalar_reference(seed, on_epipole_a,
                                                on_epipole_b):
    rng = np.random.default_rng(seed)
    cams = random_ring_rig(rng, n_cams=2)
    rig = CameraRig(cams)
    uv = noisy_views(rng, cams, [0, 1], 8, 0.3)
    if on_epipole_a:
        uv[0, 0] = epipole(cams[0], cams[1])
    if on_epipole_b:
        uv[0, 1] = epipole(cams[1], cams[0])
    f_ab, f_ba = rig.f_table[0, 1], rig.f_table[1, 0]
    got = kernels.epipolar_pair_affinities(uv[:, 0, 0], uv[:, 0, 1],
                                           uv[:, 1, 0], uv[:, 1, 1],
                                           f_ab, f_ba, ALPHA)
    want = [reference_epipolar_pair_affinity(a[0], a[1], b[0], b[1],
                                             f_ab, f_ba, ALPHA)
            for a, b in uv]
    assert_same_bits(got, want)
    if on_epipole_a or on_epipole_b:
        assert want[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n_members=st.integers(1, 5), n_cands=st.integers(1, 4),
       n_joints=st.integers(1, 14), invalid_rate=st.sampled_from([0.0, 0.3, 1.0]),
       on_epipole=st.booleans())
def test_pose_scores_match_scalar_reference(seed, n_members, n_cands, n_joints,
                                            invalid_rate, on_epipole):
    """One broadcast call scores every (member, candidate) pair as the
    scalar loop scores each pair on its own, and returns the per-joint
    affinities it summed: each pair's, 0 where a joint is not valid in
    both poses."""
    rng = np.random.default_rng(seed)
    cams = random_ring_rig(rng, n_cams=4)
    rig = CameraRig(cams)
    ci = 3
    cj = rng.integers(0, 3, size=n_members)
    members = noisy_views(rng, cams, cj, n_joints, 0.2).transpose(1, 0, 2)
    cands = noisy_views(rng, cams, [ci] * n_cands, n_joints, 0.2)
    cands = cands.transpose(1, 0, 2)
    if on_epipole:
        members[0, 0] = epipole(cams[cj[0]], cams[ci])
    valid_m = rng.random(members.shape[:2]) >= invalid_rate
    valid_c = rng.random(cands.shape[:2]) >= invalid_rate
    members[~valid_m] = np.nan
    cands[~valid_c] = np.nan
    got, affinities = kernels.epipolar_pose_score(
        members[:, None], valid_m[:, None], cands, valid_c,
        rig.f_table[cj, ci][:, None], rig.f_table[ci, cj][:, None], ALPHA)
    want = [[reference_epipolar_pose_score(
        members[k], valid_m[k], cands[l], valid_c[l],
        rig.f_table[cj[k], ci], rig.f_table[ci, cj[k]], ALPHA)
        for l in range(n_cands)] for k in range(n_members)]
    assert_same_bits(got, want)
    want = [[[reference_epipolar_pair_affinity(
        *members[k, n], *cands[l, n], rig.f_table[cj[k], ci],
        rig.f_table[ci, cj[k]], ALPHA) if valid_m[k, n] and valid_c[l, n]
        else 0.0 for n in range(n_joints)] for l in range(n_cands)]
        for k in range(n_members)]
    assert_same_bits(affinities, want)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_cams=st.integers(1, 5), n_points=st.integers(1, 150),
       spread=st.sampled_from([1.0, 20.0]))
def test_projection_does_not_depend_on_its_batch(seed, n_cams, n_points,
                                                 spread):
    """Projecting any subset of the points, a single point, or the points
    through any single camera of p_table gives the bits of the one call
    over every point and camera. A spread of 20 puts some points behind
    some cameras, whose pixels are NaN."""
    rng = np.random.default_rng(seed)
    rig = CameraRig(random_ring_rig(rng, n_cams=n_cams))
    pts = points_near_origin(rng, n_points) * spread
    uv, depth = kernels.project_points(pts, rig.p_table[:, None])
    assert uv.shape == (n_cams, n_points, 2)
    assert np.isnan(uv[depth <= 0.0]).all()
    subset = np.sort(rng.permutation(n_points)[:rng.integers(1, n_points + 1)])
    got_uv, got_depth = kernels.project_points(pts[subset],
                                               rig.p_table[:, None])
    assert_same_bits(got_uv, uv[:, subset])
    assert_same_bits(got_depth, depth[:, subset])
    point = int(rng.integers(n_points))
    for c in range(n_cams):
        got_uv, got_depth = kernels.project_points(pts, rig.p_table[c])
        assert_same_bits(got_uv, uv[c])
        assert_same_bits(got_depth, depth[c])
        got_uv, got_depth = kernels.project_points(pts[point],
                                                   rig.p_table[c])
        assert_same_bits(got_uv, uv[c, point])
        assert_same_bits(got_depth, depth[c, point])


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n_cams=st.integers(1, 4), n_tracks=st.integers(1, 5),
       n_joints=st.integers(1, 14), per_camera_points=st.booleans(),
       part_aware=st.booleans())
def test_track_pose_scores_batch_over_cameras(seed, n_cams, n_tracks,
                                              n_joints, per_camera_points,
                                              part_aware):
    """Scoring every camera in one call, each camera's poses padded with
    invalid joints to the largest count, gives each camera's own scores
    bit for bit, and 0 on the padding."""
    rng = np.random.default_rng(seed)
    cams = random_ring_rig(rng, n_cams=n_cams)
    rig = CameraRig(cams)
    shape = (n_cams, n_tracks, n_joints, 3) if per_camera_points \
        else (n_tracks, n_joints, 3)
    pts = points_near_origin(rng, int(np.prod(shape[:-1]))).reshape(shape)
    track_valid = rng.random((n_tracks, n_joints)) > 0.2
    dts = rng.uniform(1.0, 4.0, (n_cams, n_tracks))
    counts = rng.integers(1, 5, n_cams)
    width = int(counts.max())
    uv = np.zeros((n_cams, width, n_joints, 2))
    valid = np.zeros((n_cams, width, n_joints), bool)
    for c, cam in enumerate(cams):
        views = points_near_origin(rng, counts[c] * n_joints)
        uv[c, :counts[c]] = np.stack(
            [project(p, cam) for p in views]
        ).reshape(counts[c], n_joints, 2)
        uv[c, :counts[c]] += rng.normal(0.0, 20.0, (counts[c], n_joints, 2))
        valid[c, :counts[c]] = rng.random((counts[c], n_joints)) > 0.2
    args = (30.0, 0.5, 3, part_aware)
    got = kernels.score_pose_pairs(pts, track_valid, dts, rig.p_table, uv,
                                   valid, *args)
    assert got.shape == (n_cams, n_tracks, width)
    for c in range(n_cams):
        want = kernels.score_pose_pairs(
            pts[c] if per_camera_points else pts, track_valid, dts[c],
            rig.p_table[c], uv[c, :counts[c]], valid[c, :counts[c]], *args)
        assert_same_bits(got[c, :, :counts[c]], want)
        assert not got[c, :, counts[c]:].any()


def init_filter_case(seed, n_cams, n_repeats, n_points, outlier_rate,
                     dead_rate):
    """A batch of pixels for filter_init_mask, which reads them through
    slot_pair_affinities: every camera once plus n_repeats slots that
    copy an earlier slot's camera and pixel, so same-camera pairs
    (affinity 0) and equal row sums occur; dead slots hold NaN."""
    rng = np.random.default_rng(seed)
    cams = random_ring_rig(rng, n_cams=n_cams)
    rig = CameraRig(cams)
    repeats = rng.integers(0, n_cams, size=n_repeats)
    cam_idx = np.concatenate([np.arange(n_cams), repeats])
    uv = noisy_views(rng, cams, cam_idx, n_points, outlier_rate)
    uv[:, n_cams:] = uv[:, repeats]
    alive = rng.random(uv.shape[:2]) >= dead_rate
    uv[~alive] = np.nan
    return rig, uv, alive, cam_idx


INIT_CASES = dict(seed=SEEDS, n_cams=st.integers(2, 5),
                  n_repeats=st.integers(0, 3), n_points=st.integers(1, 8),
                  outlier_rate=st.sampled_from([0.0, 0.2, 0.5]),
                  dead_rate=st.sampled_from([0.0, 0.2, 0.6]))


@settings(max_examples=80, deadline=None)
@given(**INIT_CASES)
def test_init_filter_matches_scalar_reference(seed, n_cams, n_repeats,
                                              n_points, outlier_rate,
                                              dead_rate):
    rig, uv, alive, cam_idx = init_filter_case(
        seed, n_cams, n_repeats, n_points, outlier_rate, dead_rate)
    keep = kernels.filter_init_mask(
        slot_pair_affinities(uv, cam_idx, rig.f_table, ALPHA), alive)
    for b in range(len(uv)):
        slots = np.flatnonzero(alive[b])
        expected = alive[b].copy()
        if len(slots) >= 2:
            expected[slots] = reference_init_filter(
                uv[b, slots], cam_idx[slots], rig.f_table, ALPHA)
        assert keep[b].tolist() == expected.tolist()


@settings(max_examples=80, deadline=None)
@given(**INIT_CASES)
def test_init_filter_does_not_depend_on_batch_companions(
        seed, n_cams, n_repeats, n_points, outlier_rate, dead_rate):
    """Each joint is filtered on its own: a joint filtered alone keeps
    what it keeps inside the batch. Byte-prefix determinism relies on
    this, as new tracks start from clusters of any size."""
    rig, uv, alive, cam_idx = init_filter_case(
        seed, n_cams, n_repeats, n_points, outlier_rate, dead_rate)
    pair_e = slot_pair_affinities(uv, cam_idx, rig.f_table, ALPHA)
    together = kernels.filter_init_mask(pair_e, alive)
    for b in range(len(uv)):
        alone = kernels.filter_init_mask(pair_e[b:b + 1], alive[b:b + 1])
        assert alone[0].tolist() == together[b].tolist()


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_cams=st.integers(2, 6), n_points=st.integers(1, 8),
       outlier_rate=st.sampled_from([0.0, 0.2, 0.5]),
       dead_rate=st.sampled_from([0.0, 0.2, 0.6]),
       filler=st.sampled_from(["zero", "nan", "pixels", "+1e300", "-1e300"]))
def test_dead_slots_change_no_bit_of_init_filter_or_triangulation(
        seed, n_cams, n_points, outlier_rate, dead_rate, filler):
    """Initialization lays a cluster out with one slot per camera that
    has free poses, the cameras outside the cluster as dead slots
    between live ones. Filtering and triangulating that layout keeps and
    computes, bit for bit, what the compacted layout of the members
    alone does, whatever the dead slots hold: zeros, NaN, ±1e300 or
    other pixels. Nor does the filter change a keep bit when the
    affinity of every pair with a dead member is NaN or ±1e300."""
    rng = np.random.default_rng(seed)
    cams = random_ring_rig(rng, n_cams=n_cams)
    rig = CameraRig(cams)
    members = np.sort(rng.choice(n_cams, rng.integers(2, n_cams + 1),
                                 replace=False))
    absent = np.setdiff1d(np.arange(n_cams), members)
    uv = noisy_views(rng, cams, np.arange(n_cams), n_points, outlier_rate)
    uv[:, absent] = {"zero": 0.0, "nan": np.nan, "+1e300": 1e300,
                     "-1e300": -1e300, "pixels": uv[:, absent] + 40.0}[filler]
    alive = rng.random(uv.shape[:2]) >= dead_rate
    alive[:, absent] = False
    pair_e = slot_pair_affinities(uv, np.arange(n_cams), rig.f_table, ALPHA)
    spread = kernels.filter_init_mask(pair_e, alive)
    compact = kernels.filter_init_mask(
        slot_pair_affinities(uv[:, members], members, rig.f_table, ALPHA),
        alive[:, members])
    assert spread[:, members].tolist() == compact.tolist()
    assert not spread[:, absent].any()
    pi, pj = kernels._slot_pairs(n_cams)
    dead = ~(alive[:, pi] & alive[:, pj])
    for junk in (np.nan, 1e300, -1e300):
        assert kernels.filter_init_mask(np.where(dead, junk, pair_e),
                                        alive).tolist() == spread.tolist()
    for keep in (alive, spread):
        xyz, status = kernels.triangulate_batch(uv, rig.p_table,
                                                np.ones(n_cams), keep)
        want_xyz, want_status = kernels.triangulate_batch(
            uv[:, members], rig.p_table[members], np.ones(len(members)),
            keep[:, members])
        assert_same_bits(xyz, want_xyz)
        assert status.tolist() == want_status.tolist()


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, n_rig=st.integers(2, 5), n_poses=st.integers(1, 4),
       n_seeds=st.integers(1, 6), n_joints=st.integers(1, 14),
       outlier_rate=st.sampled_from([0.0, 0.2, 0.5]),
       invalid_rate=st.sampled_from([0.0, 0.3]),
       absent_rate=st.sampled_from([0.0, 0.3, 0.6]))
def test_init_filter_on_gathered_affinities_keeps_what_the_pixel_filter_keeps(
        seed, n_rig, n_poses, n_seeds, n_joints, outlier_rate, invalid_rate,
        absent_rate):
    """Initialization filters its seeds on the per-joint affinities of
    the clustering's one epipolar_pose_score call, gathered per seed in
    the clustering's slots: one per camera with poses (cams, in rig
    order), a dead slot where the seed has no pose. That keeps what the
    reference filter keeps scoring the seeds' own pixels, laid out one
    slot per rig camera. Seeds mostly take one body's pose in every
    camera, and otherwise any pose or none."""
    rng = np.random.default_rng(seed)
    cameras = random_ring_rig(rng, n_cams=n_rig)
    rig = CameraRig(cameras)
    cams = np.sort(rng.choice(n_rig, rng.integers(2, n_rig + 1),
                              replace=False))
    # pose p of camera k views body p: (K,P,N,2)
    uv = noisy_views(rng, cameras, cams, n_poses * n_joints, outlier_rate)
    uv = uv.reshape(n_poses, n_joints, cams.size, 2).transpose(2, 0, 1, 3)
    valid = rng.random(uv.shape[:-1]) >= invalid_rate
    uv[~valid] = np.nan
    body = rng.integers(0, n_poses, size=(n_seeds, 1))
    seeds = np.where(rng.random((n_seeds, cams.size)) < 0.7, body,
                     rng.integers(0, n_poses, size=(n_seeds, cams.size)))
    seeds[rng.random(seeds.shape) < absent_rate] = -1
    first, later = kernels._slot_pairs(cams.size)
    _, affinities = kernels.epipolar_pose_score(
        uv[first, :, None], valid[first, :, None], uv[later, None],
        valid[later, None], rig.f_table[cams[first], cams[later]][:, None, None],
        rig.f_table[cams[later], cams[first]][:, None, None], ALPHA)
    pair_e = affinities[np.arange(first.size), seeds[:, first],
                        seeds[:, later]]
    alive = valid[np.arange(cams.size), seeds] & (seeds >= 0)[..., None]
    keep = kernels.filter_init_mask(
        pair_e.swapaxes(1, 2).reshape(-1, first.size),
        alive.swapaxes(1, 2).reshape(-1, cams.size))
    spread_uv = np.zeros((n_seeds, n_joints, n_rig, 2))
    spread_alive = np.zeros((n_seeds, n_joints, n_rig), bool)
    for b, k in zip(*np.nonzero(seeds >= 0)):
        spread_uv[b, :, cams[k]] = uv[k, seeds[b, k]]
        spread_alive[b, :, cams[k]] = valid[k, seeds[b, k]]
    want = reference_filter_init_mask(
        spread_uv.reshape(-1, n_rig, 2), spread_alive.reshape(-1, n_rig),
        np.arange(n_rig), rig.f_table, ALPHA)
    assert keep.tolist() == want[:, cams].tolist()
    assert not np.delete(want, cams, axis=1).any()


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, shift=st.floats(-300.0, 300.0))
def test_init_filter_breaks_row_sum_ties_toward_the_first_slot(seed, shift):
    """Two cameras, each view repeated: every cross pair scores the same
    affinity and same-camera pairs score 0, so all four row sums tie. If
    the cross affinity is negative the first slot goes; then slot 1 has
    the smallest sum and goes too, and the same-camera pair remains."""
    rng = np.random.default_rng(seed)
    cams = random_ring_rig(rng, n_cams=2)
    rig = CameraRig(cams)
    uv = noisy_views(rng, cams, [0, 1], 1, 0.0)[0]
    uv[1] += shift
    uv = uv[[0, 0, 1, 1]]
    cam_idx = np.array([0, 0, 1, 1])
    keep = kernels.filter_init_mask(
        slot_pair_affinities(uv[None], cam_idx, rig.f_table, ALPHA),
        np.ones((1, 4), bool))[0]
    assert keep.tolist() == reference_init_filter(
        uv, cam_idx, rig.f_table, ALPHA).tolist()
    cross = reference_epipolar_pair_affinity(
        uv[0, 0], uv[0, 1], uv[2, 0], uv[2, 1], rig.f_table[0, 1],
        rig.f_table[1, 0], ALPHA)
    assert keep.tolist() == ([False, False, True, True] if cross < 0.0
                             else [True] * 4)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_hist=st.integers(1, 7), n_joints=st.integers(1, 14),
       sigma=st.floats(0.3, 3.0), fps=st.sampled_from([25.0, 30.0, 60.0]))
def test_smoothing_matches_scalar_reference(seed, n_hist, n_joints, sigma, fps):
    rng = np.random.default_rng(seed)
    frames = np.sort(rng.choice(20, size=n_hist, replace=False))
    times = frames / fps
    joints = rng.normal(0.0, 1.0, size=(n_hist, n_joints, 3))
    joints += rng.uniform(-5.0, 5.0, size=3)
    t_now = float(times[-1])
    got = kernels.causal_gaussian_smooth(times, joints, sigma, fps, t_now)
    want = reference_smooth(times, joints, sigma, fps, t_now)
    assert_same_bits(got, want)
    if n_hist == 1:
        assert_same_bits(got, joints[0])

    # a batch of tracks with every history length 1..n_hist, right-aligned
    # behind -inf times and zero joints, in one call
    lengths = rng.permutation(np.arange(1, n_hist + 1))
    batch_t = np.full((n_hist, n_hist), -np.inf)
    batch_j = np.zeros((n_hist, n_hist, n_joints, 3))
    tracks = []
    for k, length in enumerate(lengths):
        frames = np.sort(rng.choice(np.arange(-20, 0), size=length,
                                    replace=False))
        frames[-1] = 0
        t_k = frames / fps
        j_k = rng.normal(0.0, 1.0, size=(length, n_joints, 3))
        batch_t[k, n_hist - length:] = t_k
        batch_j[k, n_hist - length:] = j_k
        tracks.append((t_k, j_k))
    got = kernels.causal_gaussian_smooth(batch_t, batch_j, sigma, fps, 0.0)
    for k, (t_k, j_k) in enumerate(tracks):
        assert_same_bits(got[k], reference_smooth(t_k, j_k, sigma, fps, 0.0))


def _projections(cams):
    """The cameras' projection matrices (M,3,4), the kernel's pmats."""
    return np.stack([c.projection_matrix for c in cams])


def _project_direction(cam, d):
    h = cam.K @ cam.R @ d
    return h[:2] / h[2]


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, n_views=st.integers(2, 5), noise=st.floats(0.0, 5.0),
       outlier=st.floats(0.0, 200.0),
       case=st.sampled_from(("point", "twins", "infinity")))
# the certificate rejects this point, whose AᵀA at unit trace has its two
# smallest eigenvalues at 1.9e-10 and 3.2e-10; at 0f1bfe4, from pixels
# mapped into [-1,1] and solved from AᵀA, it was 4.62e-6 off, against a
# bound of 4.29e-6
@example(seed=18885, n_views=2, noise=0.0, outlier=157.0, case="point")
def test_triangulation_matches_svd_reference(seed, n_views, noise, outlier,
                                             case):
    """Same status as the SVD of the weighted system on every case, and
    the same point within 1e-6 (1 + |x|) where it is 0: noisy views, one
    view up to 200 px off, weights 1e-4..1 and dropped views; one camera
    repeated (rank 2); and a direction seen by adjacent cameras (a point
    at infinity)."""
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-4.0, 0.0, size=n_views)
    keep = np.ones(n_views, np.bool_)
    if case == "infinity":
        # adjacent cameras of an 8-ring and a direction in front of each;
        # the rows see it exactly, so only near-equal weights keep the
        # SVD's own w within 1e-12
        n_views = min(n_views, 3)
        cams = random_ring_rig(rng, n_cams=8)[:n_views]
        d = sum(c.R[2] for c in cams)
        uv = np.stack([_project_direction(c, d) for c in cams])
        weights = rng.uniform(0.5, 1.0, size=n_views)
        keep = keep[:n_views]
    else:
        p = points_near_origin(rng, 1)[0]
        if case == "twins":
            cam = random_ring_rig(rng, n_cams=1)[0]
            cams = [cam] * n_views
            uv = np.tile(project(p, cam)
                         + rng.normal(0.0, noise, size=2), (n_views, 1))
        else:
            cams = random_ring_rig(rng, n_cams=n_views)
            uv = np.stack([project(p, c) for c in cams])
            uv += rng.normal(0.0, noise, size=uv.shape)
            ang = rng.uniform(0.0, 2.0 * np.pi)
            uv[rng.integers(n_views)] += outlier * np.array([np.cos(ang),
                                                             np.sin(ang)])
            keep = rng.random(n_views) >= 0.2
    pmats = _projections(cams)
    xyz, status = kernels.triangulate_batch(uv[None], pmats[None],
                                            weights[None], keep[None])
    want_xyz, want_status = weighted_dlt_status(
        [c for c, k in zip(cams, keep) if k], uv[keep], weights[keep])
    assert status[0] == want_status
    if case == "twins":
        assert want_status == 2
    if case == "infinity":
        assert want_status == 3
    if want_status == 0:
        err = np.abs(xyz[0] - want_xyz).max()
        assert err <= 1e-6 * (1.0 + np.abs(want_xyz).max()), err


def test_triangulation_flags_non_finite_systems_rank_deficient(rng):
    """A NaN pixel, or one so large that AᵀA overflows, gives status 2
    for its own point instead of an error for the batch."""
    cams = random_ring_rig(rng, n_cams=3)
    p = points_near_origin(rng, 1)[0]
    uv = np.stack([project(p, c) for c in cams])
    pmats = _projections(cams)
    batch = np.repeat(uv[None], 4, axis=0)
    batch[1, 0, 0] = np.nan
    batch[2, 1, 1] = 1e200
    batch[3, 2, 0] = -1e300
    xyz, status = kernels.triangulate_batch(batch, pmats, np.ones((4, 3)),
                                            np.ones((4, 3), np.bool_))
    assert status.tolist() == [0, 2, 2, 2]
    assert np.abs(xyz[0] - p).max() < 1e-9
    assert not xyz[1:].any()


TRIANGULATION_CASES = ("exact", "point", "outlier", "twins", "infinity",
                       "parallel", "non_finite")
MAX_VIEWS = 5


def triangulation_case(rng, case):
    """One joint's triangulate_batch inputs in MAX_VIEWS slots, the
    unused slots dead and holding NaN pixels: (uv, pmats, weights, keep).

    exact: 3-5 exact views of a point at weight 1 (two views of a ring
    can face each other across the point); point: 2-5 noisy views,
    weights 1e-4..1 and views dropped at random; outlier: the same with
    one view up to 200 px off; twins: one camera repeated (exact rank
    2); infinity: a direction seen by adjacent cameras; parallel: two
    cameras 1 mm to 5 cm apart (nearly parallel rays, a small eigenvalue
    gap); non_finite: a point with one live pixel NaN or +-1e300."""
    n = int(rng.integers(3 if case == "exact" else 2, MAX_VIEWS + 1))
    weights = 10.0 ** rng.uniform(-4.0, 0.0, size=n)
    keep = rng.random(n) >= 0.2
    noise = rng.uniform(0.0, 5.0)
    p = points_near_origin(rng, 1)[0]
    if case == "twins":
        cams = random_ring_rig(rng, n_cams=1) * n
        uv = np.tile(project(p, cams[0])
                     + rng.normal(0.0, noise, size=2), (n, 1))
        keep[:] = True
    elif case == "infinity":
        # near-equal weights keep the null vector's w at its exact 0
        n = min(n, 3)
        cams = random_ring_rig(rng, n_cams=8)[:n]
        d = sum(c.R[2] for c in cams)
        uv = np.stack([_project_direction(c, d) for c in cams])
        weights, keep = rng.uniform(0.5, 1.0, size=n), keep[:n] | True
    elif case == "parallel":
        n = 2
        cam = random_ring_rig(rng, n_cams=1)[0]
        step = rng.normal(size=3)
        step *= rng.uniform(1e-3, 5e-2) / np.linalg.norm(step)
        cams = [cam, look_at_camera(1, cam.o + step, [0.0, 0.0, 1.0])]
        uv = np.stack([project(p, c) for c in cams])
        uv += rng.normal(0.0, rng.uniform(0.0, 1.0), size=uv.shape)
        weights, keep = weights[:n], keep[:n] | True
    else:
        cams = random_ring_rig(rng, n_cams=n)
        uv = np.stack([project(p, c) for c in cams])
        if case == "exact":
            weights, keep = np.ones(n), keep | True
        else:
            uv += rng.normal(0.0, noise, size=uv.shape)
        if case == "outlier":
            ang = rng.uniform(0.0, 2.0 * np.pi)
            uv[rng.integers(n)] += rng.uniform(0.0, 200.0) * np.array(
                [np.cos(ang), np.sin(ang)])
        if case == "non_finite":
            keep[:] = True
            uv[rng.integers(n), rng.integers(2)] = rng.choice(
                [np.nan, 1e300, -1e300])
    pmats = _projections(cams)
    pad = MAX_VIEWS - n
    return (np.concatenate((uv, np.full((pad, 2), np.nan))),
            np.concatenate((pmats, np.repeat(pmats[:1], pad, axis=0))),
            np.concatenate((weights, np.ones(pad))),
            np.concatenate((keep, np.zeros(pad, np.bool_))))


def triangulation_batch(rng, cases):
    return tuple(np.stack(a) for a in zip(
        *(triangulation_case(rng, c) for c in cases)))


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, cases=st.lists(st.sampled_from(TRIANGULATION_CASES),
                                  min_size=1, max_size=8))
def test_triangulation_matches_per_joint_svd(seed, cases):
    """One batch of mixed joints against the SVD of each joint's kept
    rows: the same status everywhere; where the adjugate solver
    certified the point, within 1e-12 (1 + |x|) of the SVD's; everywhere
    else the same bits, from one SVD call per distinct count of kept
    views among the joints left to it, and no eigh call."""
    rng = np.random.default_rng(seed)
    batch = triangulation_batch(rng, cases)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
            mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        xyz, status = kernels.triangulate_batch(*batch)
    eigh.assert_not_called()
    want_xyz, want_status = reference_triangulate_svd(*batch)
    assert status.tolist() == want_status.tolist()
    m = reference_normal_matrices(*batch)
    _, certified = kernels._smallest_eigenvectors(m)
    count = batch[3].sum(axis=1)
    # a system whose AᵀA is not finite is rank deficient without an SVD
    left = ~certified & (count >= 2) & np.isfinite(m).all(axis=(1, 2))
    calls = sorted(c.args[0].shape for c in svd.call_args_list)
    assert calls == sorted((int((left & (count == k)).sum()), 2 * k, 4)
                           for k in np.unique(count[left]).tolist())
    for k, case in enumerate(cases):
        expect = {"twins": 2, "infinity": 3, "non_finite": 2}.get(case)
        if expect is not None:
            assert status[k] == expect, case
        if case == "exact":
            assert certified[k]
        if case == "parallel":
            assert not certified[k]
        if certified[k]:
            assert status[k] == 0
            err = np.linalg.norm(xyz[k] - want_xyz[k])
            assert err <= 1e-12 * (1.0 + np.linalg.norm(want_xyz[k])), err
        else:
            assert_same_bits(xyz[k], want_xyz[k])


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS)
def test_triangulation_bits_do_not_depend_on_fallback_companions(seed):
    """A batch mixes certified joints with joints that fall back to the
    SVD; each joint gets the same bits alone. Byte-prefix determinism relies
    on this, as a joint's batch depends on the frame."""
    rng = np.random.default_rng(seed)
    cases = list(TRIANGULATION_CASES) * 2
    rng.shuffle(cases)
    batch = triangulation_batch(rng, cases)
    _, certified = kernels._smallest_eigenvectors(
        reference_normal_matrices(*batch))
    assert certified.any() and not certified.all()
    xyz, status = kernels.triangulate_batch(*batch)
    for k in range(len(cases)):
        alone_xyz, alone_status = kernels.triangulate_batch(
            *(a[k:k + 1] for a in batch))
        assert_same_bits(alone_xyz[0], xyz[k])
        assert alone_status[0] == status[k]
