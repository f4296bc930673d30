"""Online tracker: association, filtered reconstruction, lifecycle."""

import collections
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtrack3d import geometry, kernels, synth
from mvtrack3d.affinity import AffinityConfig
from mvtrack3d.errors import ConfigError, NonMonotonicTime
from mvtrack3d.geometry import CameraRig
from mvtrack3d.tracker import (
    JointFlag,
    PoseTracker,
    Skeleton3D,
    TrackerConfig,
    TrackTable,
)
from mvtrack3d.schema import SYNTH14

from helpers import (
    count_identity_switches,
    homogeneous_project,
    make_bundle,
    points_near_origin,
    random_ring_rig,
    reference_initialize,
    reference_tracked_filter,
    run_tracker,
    weighted_dlt,
)

N = SYNTH14.n_joints
FPS = 25.0


def exact_bundle(cams, joints, frame, conf=0.9, cfg=None):
    """FrameBundle of exact projections of one skeleton into every camera."""
    poses = {}
    for cam in cams:
        uv = np.stack([geometry.project(p, cam) for p in joints])
        poses[cam.cam_id] = np.column_stack([uv, np.full(N, conf)])[None]
    return make_bundle(frame, frame / FPS, poses, cfg, cams)


def no_smoothing():
    return TrackerConfig(smoothing=False)


# -- configuration -------------------------------------------------------


def test_tracker_config_defaults_and_overrides():
    cfg = TrackerConfig()
    assert cfg.effective_miss_limit == 2 * cfg.affinity.tau
    assert TrackerConfig(miss_limit=4).effective_miss_limit == 4
    routed = cfg.with_overrides(alpha_2d=42.0, smoothing=False)
    assert routed.affinity.alpha_2d == 42.0
    assert routed.smoothing is False
    with pytest.raises(ConfigError):
        cfg.with_overrides(alpha_42d=1.0)
    with pytest.raises(ConfigError):
        TrackerConfig(smooth_window=0)
    with pytest.raises(ConfigError):
        TrackerConfig(smooth_sigma=0.0)
    with pytest.raises(ConfigError):
        TrackerConfig(miss_limit=-1)
    for bad in (dict(smooth_window=True), dict(smooth_window=2.0),
                dict(miss_limit=2.5), dict(miss_limit=False),
                dict(smooth_sigma="x"), dict(smooth_sigma=True),
                dict(part_aware="no"), dict(joints_filter=1),
                dict(smoothing=None), dict(affinity=None),
                dict(affinity={"tau": 3}), dict(smooth_window=1001),
                dict(smooth_window=10 ** 12), dict(smooth_sigma=math.inf),
                dict(smooth_sigma=math.nan)):
        with pytest.raises(ConfigError):
            TrackerConfig(**bad)
    assert TrackerConfig(smooth_window=1000).smooth_window == 1000
    with pytest.raises(ConfigError, match="smooth_windw") as err:
        cfg.with_overrides(smooth_windw=3)
    assert "smooth_window" in str(err.value)
    assert "alpha_2d" in str(err.value)


def test_skeleton_validation(rng):
    joints = points_near_origin(rng, N)
    flags = np.zeros(N, np.uint8)
    Skeleton3D(0.0, joints, flags)
    with pytest.raises(Exception):
        Skeleton3D(0.0, joints[:, :2], flags)


# -- prediction ----------------------------------------------------------


def test_constant_velocity_prediction(rng):
    joints0 = points_near_origin(rng, N)
    vel = rng.uniform(-1.0, 1.0, size=(N, 3))
    flags = np.zeros((1, N), np.uint8)
    table = TrackTable(1, no_smoothing(), [1], 0.0, joints0[None], flags)
    assert np.array_equal(table.predict(0.2)[0], joints0)

    joints1 = joints0 + vel * 0.04
    table.advance(np.array([0]), 0.04, joints1[None], flags, 1.0, FPS)
    predicted = table.predict(0.12)[0]
    expected = joints1 + vel * 0.08
    assert np.max(np.abs(predicted - expected)) < 1e-12


# -- reconstruction ------------------------------------------------------


def test_reconstruction_matches_weighted_linear_triangulation(rng):
    cams = random_ring_rig(rng, n_cams=3)
    tracker = PoseTracker(CameraRig(cams), no_smoothing())
    joints0 = points_near_origin(rng, N)
    vel = rng.uniform(-0.3, 0.3, size=(N, 3))

    tracker.step(exact_bundle(cams, joints0, 0))
    assert len(tracker.tracks) == 1
    joints1 = joints0 + vel / FPS
    out = tracker.step(exact_bundle(cams, joints1, 1))
    sk = out[0][1]
    assert np.all(sk.flags == JointFlag.TRIANGULATED)
    for n in range(N):
        uvs = [geometry.project(joints1[n], cam) for cam in cams]
        expected = weighted_dlt(cams, uvs, np.ones(3))
        assert np.linalg.norm(sk.joints[n] - expected) < 1e-9
        assert np.linalg.norm(sk.joints[n] - joints1[n]) < 1e-6


def test_reconstruction_decays_stale_camera_weights(rng):
    cams = random_ring_rig(rng, n_cams=3)
    tracker = PoseTracker(CameraRig(cams), no_smoothing())
    joints0 = points_near_origin(rng, N)
    vel = rng.uniform(-0.3, 0.3, size=(N, 3))
    joints1 = joints0 + vel / FPS
    joints2 = joints0 + 2 * vel / FPS

    tracker.step(exact_bundle(cams, joints0, 0))
    tracker.step(exact_bundle(cams, joints1, 1))
    partial = exact_bundle(cams, joints2, 2)
    del partial.poses[cams[0].cam_id]  # camera 0 misses frame 2
    out = tracker.step(partial)
    sk = out[0][1]

    lam = tracker.config.affinity.lambda_a
    stale_w = np.exp(-lam * 1.0)  # one frame old
    for n in range(N):
        uv_stale = geometry.project(joints1[n], cams[0])
        uv_fresh = [geometry.project(joints2[n], cam) for cam in cams[1:]]
        expected = weighted_dlt(cams, [uv_stale] + uv_fresh,
                                [stale_w, 1.0, 1.0])
        assert np.linalg.norm(sk.joints[n] - expected) < 1e-9


def test_unobserved_joint_falls_back_to_prediction(rng):
    cams = random_ring_rig(rng, n_cams=3)
    tracker = PoseTracker(CameraRig(cams), no_smoothing())
    joints0 = points_near_origin(rng, N)
    tracker.step(exact_bundle(cams, joints0, 0))

    bundle = exact_bundle(cams, joints0, 1)
    for cam in cams:
        bundle.poses[cam.cam_id][0, 5, 2] = 0.0
        bundle.valid[cam.cam_id][0, 5] = False
    expected = tracker.tracks.predict(1 / FPS)[0, 5]
    out = tracker.step(bundle)
    sk = out[0][1]
    assert sk.flags[5] == JointFlag.PREDICTED
    assert np.array_equal(sk.joints[5], expected)
    assert np.all(np.delete(sk.flags, 5) == JointFlag.TRIANGULATED)


def test_all_flags_are_triangulated_or_predicted():
    scene = synth.generate(synth.SceneConfig(
        seed=21, n_cameras=2, n_actors=3, n_frames=120, noise_px=2.0,
        outlier_rate=0.1, occlusion_rate=0.4, dropout_rate=0.3))
    frames, _ = run_tracker(scene, TrackerConfig())
    seen_predicted = False
    for tf in frames:
        for tid, flags in tf.flags.items():
            assert np.all((flags == JointFlag.TRIANGULATED)
                          | (flags == JointFlag.PREDICTED))
            assert np.all(np.isfinite(tf.actors[tid]))
            seen_predicted = seen_predicted or bool(
                np.any(flags == JointFlag.PREDICTED))
    assert seen_predicted


def test_reconstruction_does_not_depend_on_batch_companions():
    """Each joint is filtered and triangulated on its own: a track rebuilt
    alone matches, bit for bit, the same track rebuilt in the frame's full
    batch. Byte-prefix determinism of track files relies on this."""
    scene = synth.generate(synth.SceneConfig(
        seed=23, n_cameras=4, n_actors=3, n_frames=30, noise_px=1.5,
        outlier_rate=0.15, outlier_px=150.0, occlusion_rate=0.2))
    tracker = PoseTracker(CameraRig(scene.cameras), TrackerConfig())
    tau = tracker.config.affinity.tau
    compared = 0
    flags_seen = set()
    for bundle in scene.bundles:
        batch = copy.deepcopy(tracker)
        recent = bundle.frame - batch.tracks.view_frame < tau
        rows = np.flatnonzero(recent.any(axis=1))
        if len(rows) >= 2:
            joints, flags = batch.reconstruct(recent, bundle)
            for r in rows:
                solo = copy.deepcopy(tracker)
                assert solo.tracks.ids[r] == batch.tracks.ids[r]
                alone = np.zeros_like(recent)
                alone[r] = recent[r]
                alone_joints, alone_flags = solo.reconstruct(alone, bundle)
                assert np.array_equal(alone_joints[r], joints[r])
                assert np.array_equal(alone_flags[r], flags[r])
                assert np.array_equal(solo.tracks.history_joints[r],
                                      batch.tracks.history_joints[r])
                flags_seen.update(alone_flags[r].tolist())
                compared += 1
        tracker.step(bundle)
    assert compared >= 50
    assert flags_seen == {JointFlag.TRIANGULATED, JointFlag.PREDICTED}


# -- association ---------------------------------------------------------


def test_stable_identities_on_clean_scene(clean_scene):
    frames, tracker = run_tracker(clean_scene, TrackerConfig())
    gt = clean_scene.ground_truth_frames()
    assert count_identity_switches(frames, gt, clean_scene.schema) == 0
    assert len(tracker.tracks) == clean_scene.config.n_actors


def test_part_aware_matching_survives_limb_outliers(noisy_scene):
    """A pose whose leg joints are displaced far off matches its track
    part-aware; the whole-body mean rejects the same pose."""
    scene = noisy_scene
    legs = list(range(8, 14))
    cam0 = scene.cameras[0]
    results = {}
    for part_aware in (True, False):
        cfg = TrackerConfig(
            affinity=AffinityConfig(alpha_2d=60.0, epsilon=8),
            part_aware=part_aware)
        tracker = PoseTracker(CameraRig(scene.cameras), cfg)
        k = 30
        for bundle in scene.bundles[:k]:
            tracker.step(bundle)

        bundle = scene.bundles[k]
        poses = bundle.poses[cam0.cam_id].copy()
        uv = poses[0, :, :2]
        for j in legs:
            uv[j, 0] += 200.0 if uv[j, 0] < cam0.width - 250.0 else -200.0
        patched = make_bundle(bundle.frame, bundle.time_s,
                              {**bundle.poses, cam0.cam_id: poses},
                              cfg.affinity, scene.cameras)
        assert patched.valid[cam0.cam_id][0, legs].all()
        tracker.step(patched)
        # camera 0's view of some track is the corrupted pose, this frame
        table = tracker.tracks
        results[part_aware] = bool(np.any(
            (table.view_frame[:, 0] == bundle.frame)
            & (table.view_uv[:, :, 0] == poses[0, :, :2]).all(axis=(1, 2))))
    assert results[True] is True
    assert results[False] is False


def test_track_emissions_are_deterministic(noisy_scene):
    a, _ = run_tracker(noisy_scene, TrackerConfig())
    b, _ = run_tracker(noisy_scene, TrackerConfig())
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert fa.actors.keys() == fb.actors.keys()
        for tid in fa.actors:
            assert np.array_equal(fa.actors[tid], fb.actors[tid])
            assert np.array_equal(fa.flags[tid], fb.flags[tid])


# -- outlier joint filtering ----------------------------------------------


def filter_setup(rng, n_cams=4):
    cams = random_ring_rig(rng, n_cams=n_cams)
    rig = CameraRig(cams)
    p = points_near_origin(rng, 1)[0]
    uvs = np.ascontiguousarray(
        np.stack([geometry.project(p, c) for c in cams]))
    idx = np.arange(n_cams, dtype=np.int64)
    return cams, rig, p, uvs, idx


def test_filter_keeps_consistent_observations(rng):
    _, rig, p, uvs, idx = filter_setup(rng)
    keep = kernels.filter_tracked_batch(
        uvs[None], np.ones((1, 4), bool), idx, rig.f_table, 30.0,
        (p + 0.01)[None], rig.origins, rig.krinv_table)[0]
    assert keep.all()


def test_filter_removes_single_outlier(rng):
    for _ in range(50):
        _, rig, p, uvs, idx = filter_setup(rng)
        bad = int(rng.integers(0, 4))
        direction = rng.normal(0.0, 1.0, 2)
        uvs[bad] += 150.0 * direction / np.linalg.norm(direction)
        pred = p + rng.normal(0.0, 0.02, 3)
        keep = kernels.filter_tracked_batch(
            uvs[None], np.ones((1, 4), bool), idx, rig.f_table, 30.0,
            pred[None], rig.origins, rig.krinv_table)[0]
        assert not keep[bad]
        assert keep.sum() == 3


def test_filter_two_views_drops_the_one_far_from_prediction(rng):
    _, rig, p, uvs, idx = filter_setup(rng, n_cams=2)
    uvs[1] += 120.0
    keep = kernels.filter_tracked_batch(
        uvs[None], np.ones((1, 2), bool), idx, rig.f_table, 30.0,
        (p + 0.01)[None], rig.origins, rig.krinv_table)[0]
    assert keep.tolist() == [True, False]


def test_filter_recall_and_precision_on_random_trials(rng):
    removed_bad = kept_bad = removed_clean = kept_clean = 0
    for _ in range(500):
        n_cams = 5
        cams, rig, p, uvs, idx = filter_setup(rng, n_cams=n_cams)
        uvs += rng.normal(0.0, 0.5, size=uvs.shape)
        n_bad = int(rng.integers(1, 3))
        bad = rng.choice(n_cams, size=n_bad, replace=False)
        for b in bad:
            ang = rng.uniform(0, 2 * np.pi)
            uvs[b] += rng.uniform(100.0, 300.0) * np.array(
                [np.cos(ang), np.sin(ang)])
        pred = p + rng.normal(0.0, 0.02, 3)
        keep = kernels.filter_tracked_batch(
            uvs[None], np.ones((1, n_cams), bool), idx, rig.f_table, 30.0,
            pred[None], rig.origins, rig.krinv_table)[0]
        for c in range(n_cams):
            if c in bad:
                removed_bad += int(not keep[c])
                kept_bad += int(keep[c])
            else:
                removed_clean += int(not keep[c])
                kept_clean += int(keep[c])
    recall = removed_bad / (removed_bad + kept_bad)
    clean_removal = removed_clean / (removed_clean + kept_clean)
    assert recall >= 0.99
    assert clean_removal <= 0.01


def test_filter_survivors_are_pairwise_consistent(rng):
    for _ in range(100):
        cams, rig, p, uvs, idx = filter_setup(rng, n_cams=5)
        uvs += rng.normal(0.0, rng.uniform(0.5, 60.0), size=uvs.shape)
        keep = kernels.filter_tracked_batch(
            uvs[None], np.ones((1, 5), bool), idx, rig.f_table, 30.0,
            (p + rng.normal(0.0, 0.05, 3))[None], rig.origins,
            rig.krinv_table)[0]
        alive = np.where(keep)[0]
        if len(alive) >= 2:
            uv, cam = uvs[alive], idx[alive]
            i, j = np.triu_indices(len(alive), 1)
            off = kernels.epipolar_pair_affinities(
                uv[i, 0], uv[i, 1], uv[j, 0], uv[j, 1],
                rig.f_table[cam[i], cam[j]], rig.f_table[cam[j], cam[i]], 30.0)
            assert np.all(off >= 0.0)


def test_batched_filter_matches_one_joint_reference(rng):
    """The filter over a batch of joints keeps what a one-joint-at-a-time
    scalar reference keeps. Some slots repeat an earlier camera's view, so
    equal pair scores and same-camera pairs, which score 0, occur too."""
    checked = 0
    for _ in range(100):
        n_cams = int(rng.integers(2, 6))
        cams = random_ring_rig(rng, n_cams=n_cams)
        rig = CameraRig(cams)
        repeats = rng.choice(n_cams, size=int(rng.integers(0, 3)))
        cam_idx = np.concatenate([np.arange(n_cams), repeats]).astype(np.int64)
        pts = points_near_origin(rng, 6)
        uv = np.stack([[geometry.project(p, cams[c]) for c in cam_idx]
                       for p in pts])
        uv += rng.normal(0.0, rng.uniform(0.5, 60.0), size=uv.shape)
        uv[:, n_cams:] = uv[:, repeats]
        alive = rng.random(uv.shape[:2]) > 0.15
        pred = pts + rng.normal(0.0, 0.05, size=pts.shape)
        keep = kernels.filter_tracked_batch(
            uv, alive, cam_idx, rig.f_table, 30.0, pred, rig.origins,
            rig.krinv_table)
        for b in range(len(pts)):
            slots = np.flatnonzero(alive[b])
            expected = np.zeros(len(cam_idx), dtype=bool)
            expected[slots] = reference_tracked_filter(
                [cams[c] for c in cam_idx[slots]], uv[b, slots], pred[b], 30.0)
            assert np.array_equal(keep[b], expected)
            checked += int((alive[b] & ~keep[b]).any())
    assert checked >= 100


def test_init_filter_drops_outlier_and_inconsistent_pairs(rng):
    _, rig, p, uvs, idx = filter_setup(rng, n_cams=5)
    uvs[2] += 180.0
    keep = kernels.filter_init_mask(uvs[None], np.ones((1, 5), bool), idx,
                                    rig.f_table, 30.0)[0]
    assert keep.tolist() == [True, True, False, True, True]

    _, rig2, p2, uvs2, idx2 = filter_setup(rng, n_cams=2)
    keep = kernels.filter_init_mask(uvs2[None], np.ones((1, 2), bool), idx2,
                                    rig2.f_table, 30.0)[0]
    assert keep.all()
    uvs2[1] += 150.0
    keep = kernels.filter_init_mask(uvs2[None], np.ones((1, 2), bool), idx2,
                                    rig2.f_table, 30.0)[0]
    assert not keep.any()


# -- initialization ------------------------------------------------------


def test_initialization_from_first_frame(clean_scene):
    scene = clean_scene
    tracker = PoseTracker(CameraRig(scene.cameras), TrackerConfig())
    out = tracker.step(scene.bundles[0])
    assert len(out) == scene.config.n_actors
    gts = scene.gt[0]
    for _, sk in out:
        err = min(np.max(np.linalg.norm(sk.joints - gts[a], axis=1))
                  for a in range(gts.shape[0]))
        assert err < 1e-6
        assert np.all(sk.flags == JointFlag.TRIANGULATED)


def test_no_initialization_from_a_single_camera(rng):
    cams = random_ring_rig(rng, n_cams=3)
    tracker = PoseTracker(CameraRig(cams), TrackerConfig())
    bundle = exact_bundle(cams, points_near_origin(rng, N), 0)
    only = {cams[0].cam_id: bundle.poses[cams[0].cam_id]}
    out = tracker.step(make_bundle(0, 0.0, only, cameras=cams))
    assert out == []
    assert len(tracker.tracks) == 0


def seeding_frame(seed, n_cams, n_actors, noise_px, occlusion, outliers):
    """A frame for initialize on n_cams ring cameras. Each of n_actors
    random skeletons is seen by each camera with probability 0.8, in a
    random pose order per camera, with noise_px of pixel noise. A share
    occlusion of the joints is occluded (confidence 0, half of them with
    NaN pixels), and a share outliers is shifted 50-300 px. Each pose is
    left unmatched with probability 0.8, and a camera with none left is
    missing from the unmatched map half of the time. Every camera has its
    own time. Returns (cameras, unmatched, bundle)."""
    rng = np.random.default_rng(seed)
    cams = random_ring_rig(rng, n_cams=n_cams)
    centers = rng.uniform([-1.2, -1.2, 0.0], [1.2, 1.2, 0.0], (n_actors, 1, 3))
    actors = centers + rng.uniform([-0.3, -0.3, 0.2], [0.3, 0.3, 1.8],
                                   (n_actors, N, 3))
    poses, unmatched = {}, {}
    for ci, cam in enumerate(cams):
        order = rng.permutation(n_actors)
        seen = order[rng.random(n_actors) < 0.8]
        pose = np.full((len(seen), N, 3), 0.9)
        for k, a in enumerate(seen):
            pose[k, :, :2] = homogeneous_project(cam, actors[a])[0]
        pose[..., :2] += rng.normal(0.0, noise_px, pose[..., :2].shape)
        bad = rng.random(pose.shape[:2]) < outliers
        ang = rng.uniform(0.0, 2.0 * np.pi, pose.shape[:2])
        shift = rng.uniform(50.0, 300.0, pose.shape[:2])[..., None]
        pose[bad, :2] += (shift * np.stack((np.cos(ang), np.sin(ang)),
                                           axis=-1))[bad]
        hidden = rng.random(pose.shape[:2]) < occlusion
        pose[hidden, 2] = 0.0
        pose[hidden & (rng.random(pose.shape[:2]) < 0.5), :2] = np.nan
        poses[cam.cam_id] = pose
        rows = tuple(np.flatnonzero(rng.random(len(seen)) < 0.8).tolist())
        if rows or rng.random() < 0.5:
            unmatched[ci] = rows
    bundle = make_bundle(4, 4 / FPS, poses, cameras=cams)
    bundle.times = {cam.cam_id: bundle.time_s - 0.001 * rng.integers(0, 3)
                    for cam in cams}
    return cams, unmatched, bundle


def assert_same_seeding(config, cams, unmatched, bundle, first_id=1):
    """PoseTracker.initialize spawns, bit for bit, the tracks that
    reference_initialize seeds one cluster at a time; returns their rows."""
    tracker = PoseTracker(CameraRig(cams), config)
    reference = PoseTracker(CameraRig(cams), config)
    tracker._next_id = reference._next_id = first_id
    got = tracker.initialize(unmatched, bundle)
    want = reference_initialize(reference, unmatched, bundle)
    assert got.ids.tolist() == want.ids.tolist()
    assert tracker._next_id == reference._next_id
    assert vars(got).keys() == vars(want).keys()
    for name, column in vars(got).items():
        assert column.tobytes() == getattr(want, name).tobytes()
    return got


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_cams=st.integers(2, 5),
       n_actors=st.integers(0, 6), noise_px=st.sampled_from([0.0, 1.0, 8.0]),
       occlusion=st.sampled_from([0.0, 0.2, 0.6]),
       outliers=st.sampled_from([0.0, 0.1, 0.3]), joints_filter=st.booleans())
def test_seeding_matches_one_cluster_at_a_time(seed, n_cams, n_actors,
                                               noise_px, occlusion, outliers,
                                               joints_filter):
    """The same clusters, track ids, joints, flags and views as seeding
    each cluster alone, in as many slots as it has poses."""
    cams, unmatched, bundle = seeding_frame(seed, n_cams, n_actors, noise_px,
                                            occlusion, outliers)
    assert_same_seeding(TrackerConfig(joints_filter=joints_filter), cams,
                        unmatched, bundle, first_id=1 + seed % 50)


def test_seeding_puts_a_one_view_joint_at_centroid_depth(rng):
    cams = random_ring_rig(rng, n_cams=2)
    poses = exact_bundle(cams, points_near_origin(rng, N), 0).poses
    poses[cams[1].cam_id][0, 3, 2] = 0.0
    bundle = make_bundle(0, 0.0, poses, cameras=cams)
    table = assert_same_seeding(TrackerConfig(), cams, {0: (0,), 1: (0,)},
                                bundle)
    assert len(table) == 1
    flags = table.flags[0]
    assert flags[3] == JointFlag.PREDICTED
    assert np.all(np.delete(flags, 3) == JointFlag.TRIANGULATED)
    # on camera 0's ray through the joint, at the depth of the centroid
    joints = table.joints[0]
    centroid = np.delete(joints, 3, axis=0).mean(axis=0)
    ray = cams[0].krinv @ np.append(poses[cams[0].cam_id][0, 3, :2], 1.0)
    ray /= np.linalg.norm(ray)
    expected = cams[0].o + np.dot(centroid - cams[0].o, ray) * ray
    assert np.allclose(joints[3], expected, atol=1e-9)


def test_seeding_skips_a_camera_with_no_unmatched_pose(rng):
    cams = random_ring_rig(rng, n_cams=3)
    bundle = exact_bundle(cams, points_near_origin(rng, N), 5)
    table = assert_same_seeding(TrackerConfig(), cams,
                                {0: (0,), 1: (), 2: (0,)}, bundle)
    assert len(table) == 1
    assert table.view_frame[0].tolist() == [5, -math.inf, 5]
    assert not table.view_valid[0, :, 1].any()
    assert np.all(table.flags[0] == JointFlag.TRIANGULATED)


def test_a_lone_pose_spawns_no_track(rng):
    cams = random_ring_rig(rng, n_cams=2)
    body = rng.uniform([-0.3, -0.3, 0.2], [0.3, 0.3, 1.8], (N, 3))
    near, far = body + [-0.8, -0.8, 0.0], body + [0.8, 0.8, 0.0]
    one = exact_bundle(cams, near, 0).poses
    two = exact_bundle(cams, far, 0).poses
    poses = {cams[0].cam_id: np.concatenate((two[cams[0].cam_id],
                                             one[cams[0].cam_id])),
             cams[1].cam_id: one[cams[1].cam_id]}
    bundle = make_bundle(0, 0.0, poses, cameras=cams)
    table = assert_same_seeding(TrackerConfig(), cams,
                                {0: (0, 1), 1: (0,)}, bundle, first_id=7)
    assert table.ids.tolist() == [7]
    # camera 0's second pose, the one camera 1 also sees
    near_pose = poses[cams[0].cam_id][1, :, :2]
    assert table.view_uv[0, :, 0].tolist() == near_pose.tolist()


def test_initialization_scores_filters_and_triangulates_once(clean_scene,
                                                              monkeypatch):
    calls = collections.Counter()
    for name in ("epipolar_pose_score", "filter_init_mask",
                 "triangulate_batch"):
        def counted(*args, _fn=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    tracker = PoseTracker(CameraRig(clean_scene.cameras), TrackerConfig())
    tracker.step(clean_scene.bundles[0])
    assert len(tracker.tracks) == clean_scene.config.n_actors
    assert calls == {"epipolar_pose_score": 1, "filter_init_mask": 1,
                     "triangulate_batch": 1}


# -- lifecycle -----------------------------------------------------------


def test_track_retirement_and_fresh_ids(rng):
    cams = random_ring_rig(rng, n_cams=3)
    tracker = PoseTracker(CameraRig(cams), no_smoothing())
    joints = points_near_origin(rng, N)
    tracker.step(exact_bundle(cams, joints, 0))
    tracker.step(exact_bundle(cams, joints, 1))
    old_id = tracker.tracks.ids[0]
    limit = tracker.config.effective_miss_limit
    tau = tracker.config.affinity.tau

    alive_frames = 0
    ages = set()
    for k in range(2, 2 + limit + 1):
        out = tracker.step(make_bundle(k, k / FPS, {}))
        if out:
            alive_frames += 1
            sk = out[0][1]
            assert sk.time_s == k / FPS
            age = k - 1
            ages.add(age)
            # views less than tau frames old still triangulate
            expected = (JointFlag.PREDICTED if age >= tau
                        else JointFlag.TRIANGULATED)
            assert np.all(sk.flags == expected)
    assert alive_frames == limit
    assert {tau - 1, tau} <= ages
    assert len(tracker.tracks) == 0

    k = 2 + limit + 1
    out = tracker.step(exact_bundle(cams, joints, k))
    assert len(out) == 1
    assert out[0][0] != old_id


def test_returned_skeletons_never_change(clean_scene):
    """The skeletons step returns stay as returned while later frames
    write the track state in place: through births into an empty table,
    births beside live tracks, retirements and a frame with no poses."""
    scene = clean_scene
    tracker = PoseTracker(CameraRig(scene.cameras),
                          TrackerConfig(miss_limit=0))
    returned, kept = [], []
    for bundle in scene.bundles[:40]:
        poses = dict(bundle.poses)
        if bundle.frame == 10:
            poses = {}
        elif bundle.frame in (20, 21):
            # actor 0 leaves every camera for two frames
            poses = {c: p[[scene.actor_of[(bundle.frame, c, i)] != 0
                           for i in range(len(p))]]
                     for c, p in poses.items()}
        out = tracker.step(make_bundle(bundle.frame, bundle.time_s, poses,
                                       tracker.config.affinity, scene.cameras))
        returned.append(out)
        kept.append(copy.deepcopy(out))
    ids = [[tid for tid, _ in out] for out in returned]
    assert ids[10] == [] and len(ids[11]) == 3
    assert len(ids[20]) == 2 and len(ids[22]) == 3
    assert set(ids[21]) < set(ids[22]) and not set(ids[22]) <= set(ids[11])
    for out, copies in zip(returned, kept):
        for (tid, sk), (kid, ksk) in zip(out, copies, strict=True):
            assert tid == kid and sk.time_s == ksk.time_s
            assert sk.joints.tobytes() == ksk.joints.tobytes()
            assert sk.flags.tobytes() == ksk.flags.tobytes()


def test_stale_view_stays_out_of_the_filter(rng):
    """A track seen by three cameras at frame 0 and still predicted
    there; by frame tau the person has moved, and cameras 0 and 1 see the
    new pose. Camera 2's view, tau frames old, matches the prediction and
    not the fresh views: inside the window it makes the filter drop a
    fresh view and the joints move off the new pose, outside it must
    not."""
    cams = random_ring_rig(rng, n_cams=3)
    tracker = PoseTracker(CameraRig(cams), no_smoothing())
    old = points_near_origin(rng, N)
    tracker.step(exact_bundle(cams, old, 0))
    tau = tracker.config.affinity.tau
    new = old + np.array([0.5, -0.4, 0.3])
    uv = np.stack([[geometry.project(p, cam) for p in new] for cam in cams[:2]],
                  axis=1)
    table = tracker.tracks
    table.view_frame[0, :2] = tau
    table.view_time[0, :2] = tau / FPS
    table.view_uv[0, :, :2] = uv
    table.view_valid[0, :, :2] = True
    inside = copy.deepcopy(tracker)
    inside.tracks.view_frame[0, 2] = 1

    (_, sk), = tracker.step(make_bundle(tau, tau / FPS, {}))
    assert np.all(sk.flags == JointFlag.TRIANGULATED)
    np.testing.assert_allclose(sk.joints, new, atol=1e-6)
    (_, sk), = inside.step(make_bundle(tau, tau / FPS, {}))
    assert np.abs(sk.joints - new).max() > 0.1


def test_rejects_non_monotonic_input(rng):
    cams = random_ring_rig(rng, n_cams=3)
    tracker = PoseTracker(CameraRig(cams), TrackerConfig())
    tracker.step(exact_bundle(cams, points_near_origin(rng, N), 5))
    with pytest.raises(NonMonotonicTime):
        tracker.step(exact_bundle(cams, points_near_origin(rng, N), 5))
    with pytest.raises(NonMonotonicTime):
        tracker.step(exact_bundle(cams, points_near_origin(rng, N), 4))


def test_stage_timers_accumulate(clean_scene):
    frames, tracker = run_tracker(clean_scene, TrackerConfig(),
                                  max_frames=50)
    means = tracker.stage_means_ms
    assert set(means) == {"associate", "reconstruct", "initialize"}
    assert all(v >= 0.0 for v in means.values())
    assert tracker.frames_processed == 50
