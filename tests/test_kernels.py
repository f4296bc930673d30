"""Array kernels against the scalar references in helpers, bit for bit,
except triangulation, which is held to the SVD within a tolerance.

Inputs are generated: rigs from a random seed, pixels near true
projections with noise and gross outliers, invalid joints whose pixels
are NaN, pixels sitting on an epipole, single-entry histories and
repeated views whose affinity row sums tie.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from mvtrack3d import geometry, kernels
from mvtrack3d.geometry import CameraRig

from helpers import (
    points_near_origin,
    random_ring_rig,
    reference_epipolar_pair_affinity,
    reference_epipolar_pose_score,
    reference_init_filter,
    reference_smooth,
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
    uv = np.stack([[geometry.project(p, cams[c]) for c in cam_idx]
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
    scalar loop scores each pair on its own."""
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
    got = kernels.epipolar_pose_score(
        members[:, None], valid_m[:, None], cands, valid_c,
        rig.f_table[cj, ci][:, None], rig.f_table[ci, cj][:, None], ALPHA)
    want = [[reference_epipolar_pose_score(
        members[k], valid_m[k], cands[l], valid_c[l],
        rig.f_table[cj[k], ci], rig.f_table[ci, cj[k]], ALPHA)
        for l in range(n_cands)] for k in range(n_members)]
    assert_same_bits(got, want)


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
            [geometry.project(p, cam) for p in views]
        ).reshape(counts[c], n_joints, 2)
        uv[c, :counts[c]] += rng.normal(0.0, 20.0, (counts[c], n_joints, 2))
        valid[c, :counts[c]] = rng.random((counts[c], n_joints)) > 0.2
    args = (30.0, 0.5, 3, part_aware)
    got = kernels.score_pose_pairs(pts, track_valid, dts, rig.k_table,
                                   rig.r_table, rig.origins, uv, valid, *args)
    assert got.shape == (n_cams, n_tracks, width)
    for c in range(n_cams):
        want = kernels.score_pose_pairs(
            pts[c] if per_camera_points else pts, track_valid, dts[c],
            cams[c].K, cams[c].R, cams[c].o, uv[c, :counts[c]],
            valid[c, :counts[c]], *args)
        assert_same_bits(got[c, :, :counts[c]], want)
        assert not got[c, :, counts[c]:].any()


def init_filter_case(seed, n_cams, n_repeats, n_points, outlier_rate,
                     dead_rate):
    """A batch for filter_init_mask: every camera once plus n_repeats
    slots that copy an earlier slot's camera and pixel, so same-camera
    pairs (affinity 0) and equal row sums occur; dead slots hold NaN."""
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
    keep = kernels.filter_init_mask(uv, alive, cam_idx, rig.f_table, ALPHA)
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
    together = kernels.filter_init_mask(uv, alive, cam_idx, rig.f_table,
                                        ALPHA)
    for b in range(len(uv)):
        alone = kernels.filter_init_mask(uv[b:b + 1], alive[b:b + 1],
                                         cam_idx, rig.f_table, ALPHA)
        assert alone[0].tolist() == together[b].tolist()


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, n_cams=st.integers(2, 6), n_points=st.integers(1, 8),
       outlier_rate=st.sampled_from([0.0, 0.2, 0.5]),
       dead_rate=st.sampled_from([0.0, 0.2, 0.6]),
       filler=st.sampled_from(["zero", "nan", "pixels"]))
def test_dead_slots_change_no_bit_of_init_filter_or_triangulation(
        seed, n_cams, n_points, outlier_rate, dead_rate, filler):
    """Initialization lays a cluster out with one slot per rig camera,
    the cameras outside the cluster as dead slots between live ones.
    Filtering and triangulating that layout keeps and computes, bit for
    bit, what the compacted layout of the members alone does."""
    rng = np.random.default_rng(seed)
    cams = random_ring_rig(rng, n_cams=n_cams)
    rig = CameraRig(cams)
    members = np.sort(rng.choice(n_cams, rng.integers(2, n_cams + 1),
                                 replace=False))
    absent = np.setdiff1d(np.arange(n_cams), members)
    uv = noisy_views(rng, cams, np.arange(n_cams), n_points, outlier_rate)
    uv[:, absent] = {"zero": 0.0, "nan": np.nan,
                     "pixels": uv[:, absent] + 40.0}[filler]
    alive = rng.random(uv.shape[:2]) >= dead_rate
    alive[:, absent] = False
    spread = kernels.filter_init_mask(uv, alive, np.arange(n_cams),
                                      rig.f_table, ALPHA)
    compact = kernels.filter_init_mask(uv[:, members], alive[:, members],
                                       members, rig.f_table, ALPHA)
    assert spread[:, members].tolist() == compact.tolist()
    assert not spread[:, absent].any()
    uvn = np.stack((uv[..., 0] * rig.su - 1.0, uv[..., 1] * rig.sv - 1.0),
                   axis=-1)
    for keep in (alive, spread):
        xyz, status = kernels.triangulate_batch(uvn, rig.pn_table,
                                                np.ones(n_cams), keep)
        want_xyz, want_status = kernels.triangulate_batch(
            uvn[:, members], rig.pn_table[members], np.ones(len(members)),
            keep[:, members])
        assert_same_bits(xyz, want_xyz)
        assert status.tolist() == want_status.tolist()


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
    keep = kernels.filter_init_mask(uv[None], np.ones((1, 4), bool), cam_idx,
                                    rig.f_table, ALPHA)[0]
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


def _conditioned(cams, uv):
    """Pixels (M,2) mapped into [-1,1] and the cameras' conditioned
    projection matrices (M,3,4), the kernel's inputs."""
    size = np.array([[c.width, c.height] for c in cams], dtype=np.float64)
    return uv * (2.0 / size) - 1.0, np.stack([c.conditioned_projection()
                                             for c in cams])


def _project_direction(cam, d):
    h = cam.K @ cam.R @ d
    return h[:2] / h[2]


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, n_views=st.integers(2, 5), noise=st.floats(0.0, 5.0),
       outlier=st.floats(0.0, 200.0),
       case=st.sampled_from(("point", "twins", "infinity")))
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
            uv = np.tile(geometry.project(p, cam)
                         + rng.normal(0.0, noise, size=2), (n_views, 1))
        else:
            cams = random_ring_rig(rng, n_cams=n_views)
            uv = np.stack([geometry.project(p, c) for c in cams])
            uv += rng.normal(0.0, noise, size=uv.shape)
            ang = rng.uniform(0.0, 2.0 * np.pi)
            uv[rng.integers(n_views)] += outlier * np.array([np.cos(ang),
                                                             np.sin(ang)])
            keep = rng.random(n_views) >= 0.2
    uvn, pmats = _conditioned(cams, uv)
    xyz, status = kernels.triangulate_batch(uvn[None], pmats[None],
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
    uv = np.stack([geometry.project(p, c) for c in cams])
    uvn, pmats = _conditioned(cams, uv)
    batch = np.repeat(uvn[None], 4, axis=0)
    batch[1, 0, 0] = np.nan
    batch[2, 1, 1] = 1e200
    batch[3, 2, 0] = -1e300
    xyz, status = kernels.triangulate_batch(batch, pmats, np.ones((4, 3)),
                                            np.ones((4, 3), np.bool_))
    assert status.tolist() == [0, 2, 2, 2]
    assert np.abs(xyz[0] - p).max() < 1e-9
    assert not xyz[1:].any()
