"""The paper's affinity equations, through the kernels the tracker calls:
pose-to-track scores (kernels.score_pose_pairs), cross-view epipolar
affinities (kernels.epipolar_pair_affinities, kernels.epipolar_pose_score)
and the tracker's staleness clamp; then configuration and joint
validity."""

import math

import numpy as np
import pytest

from mvtrack3d import geometry, kernels
from mvtrack3d.affinity import PRESETS, AffinityConfig, preset, valid_joints
from mvtrack3d.errors import ConfigError
from mvtrack3d.geometry import CameraCalibration, CameraRig
from mvtrack3d.schema import SYNTH14
from mvtrack3d.tracker import (
    JointFlag,
    PoseTracker,
    Skeleton3D,
    TrackerConfig,
    TrackTable,
)

from helpers import (
    epipolar_line,
    look_at_camera,
    make_bundle,
    point_line_distance_2d,
    points_near_origin,
    random_ring_rig,
    reference_pose_score,
)

N = SYNTH14.n_joints


def make_pose(cam, uv, t, conf=0.9, cfg=None):
    """A one-pose bundle: pixels uv (N,2) at confidence conf seen by cam
    at time t."""
    joints = np.column_stack([uv, np.full(len(uv), conf)])
    return make_bundle(0, t, {cam.cam_id: joints[None]}, cfg, [cam])


def pose_arrays(pose, cam):
    """uv (N,2), valid (N,) and time of the one pose of make_pose."""
    return (pose.poses[cam.cam_id][0, :, :2], pose.valid[cam.cam_id][0],
            pose.times[cam.cam_id])


def make_skeleton(joints, t):
    return Skeleton3D(t, np.asarray(joints, float),
                      np.zeros(len(joints), np.uint8))


def pose_score(pose, skel, cam, cfg, part_aware=True):
    """One cell of kernels.score_pose_pairs: the pose seen by cam against
    the skeleton, staleness the pose's time less skel.time_s."""
    uv, valid, time_s = pose_arrays(pose, cam)
    scores = kernels.score_pose_pairs(
        skel.joints[None], (skel.flags != JointFlag.MISSING)[None],
        np.array([time_s - skel.time_s]), cam.K, cam.R, cam.o,
        uv[None], valid[None],
        cfg.alpha_2d, cfg.lambda_a, cfg.epsilon, part_aware)
    return float(scores[0, 0])


def exact_camera():
    """Camera at the origin looking down +z with f = 500 px and principal
    point (400, 300): a point at depth 5 m whose X and Y are multiples of
    1/100 m projects onto an exactly representable pixel."""
    intr = [[500.0, 0.0, 400.0], [0.0, 500.0, 300.0], [0.0, 0.0, 1.0]]
    return CameraCalibration(0, intr, np.eye(3), np.zeros(3), 800, 600, 25.0)


def scores_against(targets, poses_uv, dt, cfg, part_aware):
    """kernels.score_pose_pairs of one skeleton, whose joints project
    exactly onto the pixels targets (N,2), against the fully valid poses
    poses_uv (P,N,2) at staleness dt; returns (P,)."""
    cam = exact_camera()
    targets = np.asarray(targets, float)
    pts = np.column_stack([(targets - [400.0, 300.0]) / 100.0,
                           np.full(len(targets), 5.0)])
    assert (kernels.project_points(pts, cam.K, cam.R, cam.o)[0]
            == targets).all()
    poses_uv = np.asarray(poses_uv, float)
    return kernels.score_pose_pairs(
        pts[None], np.ones((1, len(pts)), bool), np.array([dt]),
        cam.K, cam.R, cam.o, poses_uv, np.ones(poses_uv.shape[:2], bool),
        cfg.alpha_2d, cfg.lambda_a, cfg.epsilon, part_aware)[0]


def joint_affinities(target, xs, dt, cfg):
    """Affinity of each detected pixel of xs (P,2) to a skeleton joint
    projecting onto target: the plain-mean score of a one-joint pose is
    that joint's affinity."""
    return scores_against([target], np.asarray(xs, float)[:, None], dt, cfg,
                          part_aware=False)


def pair_affinity(a, b, cam_a, cam_b, cfg):
    """kernels.epipolar_pair_affinities of pixel a in cam_a and b in cam_b."""
    return float(kernels.epipolar_pair_affinities(
        float(a[0]), float(a[1]), float(b[0]), float(b[1]),
        geometry.fundamental_matrix(cam_a, cam_b),
        geometry.fundamental_matrix(cam_b, cam_a), cfg.alpha_epi))


def pose_pair_score(pose_a, pose_b, cam_a, cam_b, cfg):
    """kernels.epipolar_pose_score of pose_a in cam_a and pose_b in cam_b."""
    uv_a, valid_a, _ = pose_arrays(pose_a, cam_a)
    uv_b, valid_b, _ = pose_arrays(pose_b, cam_b)
    return float(kernels.epipolar_pose_score(
        uv_a, valid_a, uv_b, valid_b,
        geometry.fundamental_matrix(cam_a, cam_b),
        geometry.fundamental_matrix(cam_b, cam_a), cfg.alpha_epi))


# -- single-joint affinity ----------------------------------------------


def test_joint_affinity_half_tolerance_value():
    cfg = AffinityConfig(alpha_2d=70.0, lambda_a=3.0)
    # displacement of 1.4 px against a 70 px/s tolerance over 40 ms
    got = joint_affinities((100.0, 50.0), [(101.4, 50.0)], 0.04, cfg)[0]
    assert got == pytest.approx(0.5 * math.exp(-0.12), abs=1e-12)
    assert got == pytest.approx(0.4435, abs=5e-5)


def test_joint_affinity_zero_displacement_is_pure_decay():
    cfg = AffinityConfig(alpha_2d=70.0, lambda_a=3.0)
    got = joint_affinities((100.0, 50.0), [(100.0, 50.0)], 0.04, cfg)[0]
    assert got == pytest.approx(math.exp(-3.0 * 0.04), abs=1e-15)


def test_joint_affinity_zero_at_tolerance_negative_beyond():
    cfg = AffinityConfig(alpha_2d=4.0, lambda_a=1.0)
    # tolerance 4 px/s * 0.25 s = 1 px exactly
    at, beyond = joint_affinities((0.0, 0.0), [(1.0, 0.0), (2.5, 0.0)],
                                  0.25, cfg)
    assert at == 0.0
    assert beyond < 0.0
    # part-aware scoring keeps only strictly positive joints, so a joint
    # exactly at the tolerance neither counts toward epsilon nor enters
    # the mean
    targets = [(0.0, 0.0), (100.0, 50.0)]
    pose = [[(1.0, 0.0), (100.0, 50.0)]]
    decay = math.exp(-0.25)
    for epsilon, part in ((1, decay), (2, 0.0)):
        cfg = AffinityConfig(alpha_2d=4.0, lambda_a=1.0, epsilon=epsilon)
        assert scores_against(targets, pose, 0.25, cfg, True)[0] == part
        assert scores_against(targets, pose, 0.25, cfg, False)[0] == (
            0.5 * decay)


def test_joint_affinity_monotone_in_displacement(rng):
    cfg = AffinityConfig(alpha_2d=60.0, lambda_a=3.0)
    dt = float(rng.uniform(0.04, 0.4))
    vals = joint_affinities(
        (0.0, 0.0), [(d, 0.0) for d in np.linspace(0.0, 200.0, 50)], dt, cfg)
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_joint_affinity_staleness_clamp(monkeypatch):
    """The tracker clamps staleness at max_dt: a track 20 frames stale
    scores a pose, and so takes or leaves it, exactly as a track max_dt
    stale does."""
    cam = look_at_camera(0, [6.0, 0.0, 3.0], [0.0, 0.0, 1.0], fps=4.0)
    pts = points_near_origin(np.random.default_rng(5), N)
    uv = np.stack([geometry.project(p, cam) for p in pts])
    scored = []
    score_pose_pairs = kernels.score_pose_pairs

    def recording(*args):
        scored.append(score_pose_pairs(*args))
        return scored[-1]

    monkeypatch.setattr(kernels, "score_pose_pairs", recording)

    def run(max_dt, stale_frames, shift_px):
        """(score, matched) of a pose shifted by shift_px against a track
        last updated stale_frames frames earlier, at 4 fps."""
        cfg = AffinityConfig(alpha_2d=60.0, lambda_a=0.1, epsilon=10,
                             max_dt=max_dt)
        tracker = PoseTracker(CameraRig([cam]), TrackerConfig(affinity=cfg))
        t = 6.0
        skeleton = make_skeleton(pts, t - stale_frames / 4.0)
        tracker.tracks.extend(TrackTable(
            1, tracker.config, [1], skeleton.time_s, skeleton.joints[None],
            skeleton.flags[None]))
        joints = np.column_stack([uv + [shift_px, 0.0], np.full(N, 0.9)])
        tracker.step(make_bundle(24, t, {cam.cam_id: joints[None]}, cfg))
        # the track's view from the camera is this pose, at this frame
        table = tracker.tracks
        matched = bool(table.view_frame[0, 0] == 24 and np.array_equal(
            table.view_uv[0, :, 0], joints[:, :2]))
        return float(scored[-1][0, 0, 0]), matched

    # max_dt 0.5 s is 2 frames, a tolerance of 120 px
    stale, fresh = run(0.5, 20, 60.0), run(0.5, 2, 60.0)
    assert stale == fresh
    assert stale[0] == pytest.approx(0.5 * math.exp(-0.2), abs=1e-9)
    assert stale[1]
    assert run(0.5, 20, 150.0) == run(0.5, 2, 150.0) == (0.0, False)
    # unclamped, the 20-frame tolerance of 1200 px takes the far pose
    score, matched = run(None, 20, 150.0)
    assert score > 0.0 and matched


# -- pose-to-track scores ------------------------------------------------


def exact_projection_setup(rng, dt=0.04):
    cam = random_ring_rig(rng, n_cams=1)[0]
    pts = points_near_origin(rng, N)
    skel = make_skeleton(pts, 0.0)
    uv = np.stack([geometry.project(p, cam) for p in pts])
    return cam, skel, uv, dt


def test_pose_track_affinity_exact_projection(rng):
    cam, skel, uv, dt = exact_projection_setup(rng)
    pose = make_pose(cam, uv, dt)
    cfg = AffinityConfig(alpha_2d=60.0, lambda_a=3.0, epsilon=10)
    expected = math.exp(-3.0 * 0.04)
    assert pose_score(pose, skel, cam, cfg) == pytest.approx(
        expected, abs=1e-12)
    assert pose_score(pose, skel, cam, cfg, part_aware=False) == (
        pytest.approx(expected, abs=1e-12))


def test_part_aware_needs_epsilon_positive_joints(rng):
    cam, skel, uv, dt = exact_projection_setup(rng)
    uv = uv.copy()
    uv[4] += 500.0  # one joint far outside tolerance
    pose = make_pose(cam, uv, dt)
    all_joints = AffinityConfig(alpha_2d=60.0, epsilon=N)
    most_joints = AffinityConfig(alpha_2d=60.0, epsilon=N - 1)
    assert pose_score(pose, skel, cam, all_joints) == 0.0
    assert pose_score(pose, skel, cam, most_joints) > 0.0


def test_part_aware_ignores_outlier_joints_baseline_does_not(rng):
    # thirteen joints displaced to affinity 0.8, one to affinity -10,
    # with tolerance alpha_2d * dt = 1 px and no time decay
    cam = look_at_camera(0, [6.0, 0.0, 3.0], [0.0, 0.0, 1.0], fps=4.0)
    pts = points_near_origin(rng, N)
    skel = make_skeleton(pts, 0.0)
    uv = np.stack([geometry.project(p, cam) for p in pts])
    uv[:13, 0] += 0.2
    uv[13, 0] += 11.0
    pose = make_pose(cam, uv, 0.25)
    cfg = AffinityConfig(alpha_2d=4.0, lambda_a=0.0, epsilon=10)
    part = pose_score(pose, skel, cam, cfg)
    body = pose_score(pose, skel, cam, cfg, part_aware=False)
    assert part == pytest.approx(0.8, abs=1e-9)
    assert body == pytest.approx((13 * 0.8 - 10.0) / 14.0, abs=1e-9)
    assert body == pytest.approx(0.0286, abs=5e-5)


def test_part_aware_dominates_baseline_when_positive(rng):
    for _ in range(100):
        cam = random_ring_rig(rng, n_cams=1)[0]
        pts = points_near_origin(rng, N)
        skel = make_skeleton(pts, 0.0)
        uv = np.stack([geometry.project(p, cam) for p in pts])
        scale = rng.uniform(0.5, 40.0)
        uv = uv + rng.normal(0.0, scale, size=uv.shape)
        pose = make_pose(cam, uv, 0.04)
        cfg = AffinityConfig(alpha_2d=60.0, lambda_a=3.0,
                             epsilon=int(rng.integers(1, N + 1)))
        part = pose_score(pose, skel, cam, cfg)
        body = pose_score(pose, skel, cam, cfg, part_aware=False)
        if part > 0.0:
            assert part >= body - 1e-12


def test_pose_scores_match_reference_implementation(rng):
    for _ in range(200):
        cam = random_ring_rig(rng, n_cams=1)[0]
        pts = points_near_origin(rng, N)
        t_pose = float(rng.uniform(0.04, 0.12))
        # random joint validity on both sides, random displacement scales
        flags = np.where(rng.random(N) < 0.2, JointFlag.MISSING,
                         JointFlag.TRIANGULATED).astype(np.uint8)
        skel = Skeleton3D(0.0, pts, flags)
        uv = np.stack([geometry.project(p, cam) for p in pts])
        uv = uv + rng.normal(0.0, rng.uniform(0.5, 30.0), size=uv.shape)
        conf = np.where(rng.random(N) < 0.2, 0.01, 0.9)
        pose = make_bundle(0, t_pose, {cam.cam_id: np.column_stack(
            [uv, conf])[None]}, AffinityConfig(), [cam])
        pose_uv, pose_valid, _ = pose_arrays(pose, cam)
        cfg = AffinityConfig(alpha_2d=float(rng.uniform(20, 90)),
                             lambda_a=float(rng.uniform(0, 5)),
                             epsilon=int(rng.integers(0, N + 1)))
        for part_aware in (True, False):
            expected = reference_pose_score(
                cam, skel.joints, skel.flags != JointFlag.MISSING, t_pose,
                pose_uv, pose_valid, cfg.alpha_2d, cfg.lambda_a,
                cfg.epsilon, part_aware)
            assert pose_score(pose, skel, cam, cfg, part_aware) == (
                pytest.approx(expected, abs=1e-10))


# -- epipolar affinity ---------------------------------------------------


def test_epipolar_joint_affinity_exact_correspondence(rng):
    cams = random_ring_rig(rng, n_cams=2)
    cfg = AffinityConfig(alpha_epi=30.0)
    p = points_near_origin(rng, 1)[0]
    a = geometry.project(p, cams[0])
    b = geometry.project(p, cams[1])
    assert pair_affinity(a, b, cams[0], cams[1], cfg) == (
        pytest.approx(1.0, abs=1e-9))


def test_epipolar_joint_affinity_matches_line_distance_form(rng):
    cams = random_ring_rig(rng, n_cams=2)
    cfg = AffinityConfig(alpha_epi=30.0)
    for _ in range(50):
        a = rng.uniform(0, [cams[0].width, cams[0].height])
        b = rng.uniform(0, [cams[1].width, cams[1].height])
        d_ab = point_line_distance_2d(
            b, epipolar_line(a, cams[0], cams[1]))
        d_ba = point_line_distance_2d(
            a, epipolar_line(b, cams[1], cams[0]))
        expected = 1.0 - (d_ab + d_ba) / (2.0 * cfg.alpha_epi)
        assert pair_affinity(a, b, cams[0], cams[1], cfg) == (
            pytest.approx(expected, abs=1e-9))


def test_epipolar_joint_affinity_symmetric(rng):
    cams = random_ring_rig(rng, n_cams=2)
    cfg = AffinityConfig(alpha_epi=30.0)
    for _ in range(50):
        a = rng.uniform(0, [cams[0].width, cams[0].height])
        b = rng.uniform(0, [cams[1].width, cams[1].height])
        lhs = pair_affinity(a, b, cams[0], cams[1], cfg)
        rhs = pair_affinity(b, a, cams[1], cams[0], cfg)
        assert abs(lhs - rhs) <= 1e-9


def test_epipolar_joint_affinity_neutral_at_epipole(rng):
    cams = random_ring_rig(rng, n_cams=2)
    cfg = AffinityConfig(alpha_epi=30.0)
    epipole = geometry.project(cams[1].o, cams[0])
    other = rng.uniform(0, [cams[1].width, cams[1].height])
    assert pair_affinity(epipole, other, cams[0], cams[1], cfg) == 0.0


def test_epipolar_pose_affinity_counts_mutually_valid_joints(rng):
    cams = random_ring_rig(rng, n_cams=2)
    cfg = AffinityConfig(alpha_epi=30.0)
    pts = points_near_origin(rng, N)
    uv_a = np.stack([geometry.project(p, cams[0]) for p in pts])
    uv_b = np.stack([geometry.project(p, cams[1]) for p in pts])
    pose_a = make_pose(cams[0], uv_a, 0.0)
    pose_b = make_pose(cams[1], uv_b, 0.0)
    got = pose_pair_score(pose_a, pose_b, cams[0], cams[1], cfg)
    assert got == pytest.approx(float(N), abs=1e-6)

    conf = np.full(N, 0.9)
    conf[:4] = 0.0
    partial = make_pose(cams[1], uv_b, 0.0, conf=conf, cfg=cfg)
    got = pose_pair_score(pose_a, partial, cams[0], cams[1], cfg)
    assert got == pytest.approx(float(N - 4), abs=1e-6)

    blank = make_pose(cams[1], uv_b, 0.0, conf=0.0, cfg=cfg)
    assert pose_pair_score(pose_a, blank, cams[0], cams[1], cfg) == 0.0


def test_epipolar_pose_affinity_prefers_true_pairing(clean_scene):
    cfg = AffinityConfig(alpha_epi=30.0)
    scene = clean_scene
    cams = scene.cameras
    bundle = scene.bundles[0]
    poses_a = bundle.poses[cams[0].cam_id]
    poses_b = bundle.poses[cams[1].cam_id]
    for i, pa in enumerate(poses_a):
        actor = scene.actor_of[(0, cams[0].cam_id, i)]
        pose_a = make_pose(cams[0], pa[:, :2], 0.0, pa[:, 2])
        scores = [pose_pair_score(
            pose_a, make_pose(cams[1], pb[:, :2], 0.0, pb[:, 2]),
            cams[0], cams[1], cfg) for pb in poses_b]
        best = int(np.argmax(scores))
        assert scene.actor_of[(0, cams[1].cam_id, best)] == actor


# -- configuration and pose construction ---------------------------------


def test_presets_match_documented_table():
    assert (PRESETS["campus"].alpha_2d, PRESETS["campus"].alpha_epi,
            PRESETS["campus"].tau, PRESETS["campus"].epsilon,
            PRESETS["campus"].lambda_a) == (30.0, 15.0, 3, 14, 3.0)
    assert (PRESETS["shelf"].alpha_2d, PRESETS["shelf"].alpha_epi,
            PRESETS["shelf"].tau, PRESETS["shelf"].epsilon,
            PRESETS["shelf"].lambda_a) == (70.0, 60.0, 3, 10, 3.0)
    assert (PRESETS["panoptic"].alpha_2d, PRESETS["panoptic"].alpha_epi,
            PRESETS["panoptic"].tau, PRESETS["panoptic"].epsilon,
            PRESETS["panoptic"].lambda_a) == (60.0, 30.0, 3, 10, 3.0)
    assert preset("campus") is PRESETS["campus"]
    with pytest.raises(ConfigError):
        preset("warehouse")


def test_affinity_config_validation():
    with pytest.raises(ConfigError):
        AffinityConfig(alpha_2d=0.0)
    with pytest.raises(ConfigError):
        AffinityConfig(tau=0)
    with pytest.raises(ConfigError):
        AffinityConfig(tau=2.5)
    with pytest.raises(ConfigError):
        AffinityConfig(epsilon=-1)
    with pytest.raises(ConfigError):
        AffinityConfig(lambda_a=-0.1)
    with pytest.raises(ConfigError):
        AffinityConfig(conf_floor=1.0)
    with pytest.raises(ConfigError):
        AffinityConfig(max_dt=0.0)
    with pytest.raises(ConfigError):
        AffinityConfig(max_dt=True)
    with pytest.raises(ConfigError):
        AffinityConfig(epsilon="ten")
    for bad in (dict(tau=3.0), dict(epsilon=10.0), dict(alpha_2d=None),
                dict(lambda_a=False), dict(alpha_2d=math.nan),
                dict(alpha_epi=math.inf), dict(image_margin=-math.inf),
                dict(max_dt=math.inf)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            AffinityConfig(**bad)
    with pytest.raises(ConfigError):
        AffinityConfig().with_overrides(alpha="typo")
    assert AffinityConfig().with_overrides(alpha_2d=45.0).alpha_2d == 45.0


def test_valid_joints_rules():
    cam = look_at_camera(0, [5.0, 0.0, 2.0], [0.0, 0.0, 1.0])
    cfg = AffinityConfig(conf_floor=0.1, image_margin=10.0)
    joints = np.array([
        [400.0, 300.0, 0.10],       # exactly at the floor: valid
        [400.0, 300.0, 0.09],       # below the floor
        [np.nan, 300.0, 0.9],       # non-finite coordinate
        [-10.0, 300.0, 0.9],        # on the margin: valid
        [-10.5, 300.0, 0.9],        # outside the margin
        [810.0, 610.0, 0.9],        # on the far margin: valid
        [400.0, 610.5, 0.9],        # below the far margin
    ])
    valid = valid_joints(joints[None], cfg, camera=cam)
    assert valid.tolist() == [[True, False, False, True, False, True,
                               False]]
    no_cam = valid_joints(joints[None], cfg)
    assert no_cam.tolist() == [[True, False, False, True, True, True,
                                True]]
    with pytest.raises(ValueError):
        valid_joints(np.zeros((1, 4, 2)), cfg)
