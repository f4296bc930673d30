"""Synthetic multi-camera scene generator."""

import filecmp
import json
import math
import os
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from mvtrack3d import fileio, synth
from mvtrack3d.affinity import AffinityConfig, valid_joints
from mvtrack3d.errors import ConfigError
from mvtrack3d.schema import SYNTH14
from mvtrack3d.synth import (
    BURST_GROUPS,
    CLASS_NAMES,
    CLASS_OCCLUDED,
    CLASS_OUTLIER,
    OCCLUSION_GROUPS,
    SceneConfig,
    corrupt_pose,
    corrupted_benchmark_config,
    generate,
    ring_cameras,
)

from helpers import (corruption_records, project, reference_corruption_text,
                     reference_generate, triangulate)

N = SYNTH14.n_joints


# -- cameras and motion ---------------------------------------------------


def test_ring_cameras_are_valid_and_aimed_at_the_arena():
    cfg = SceneConfig(n_cameras=5)
    cams = ring_cameras(cfg)
    assert [c.cam_id for c in cams] == list(range(5))
    target = np.array([0.0, 0.0, cfg.look_at_height])
    for cam in cams:
        assert np.allclose(cam.R @ cam.R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(cam.R) == pytest.approx(1.0, abs=1e-12)
        center = project(target, cam)
        assert np.allclose(center, [cfg.width / 2, cfg.height / 2],
                           atol=1e-6)
        assert cam.fps == cfg.fps


def test_all_actors_stay_visible_in_all_cameras():
    cfg = SceneConfig(n_cameras=5, n_actors=4, n_frames=400)
    cams = ring_cameras(cfg)
    for f in range(0, cfg.n_frames, 25):
        t = f / cfg.fps
        for a in range(cfg.n_actors):
            joints = synth.actor_joints(cfg, a, t)
            for cam in cams:
                uv = np.stack([project(p, cam) for p in joints])
                assert np.all(uv[:, 0] > 5) and np.all(uv[:, 0] < cfg.width - 5)
                assert np.all(uv[:, 1] > 5) and np.all(uv[:, 1] < cfg.height - 5)


def test_actor_motion_is_smooth_and_actors_stay_apart():
    cfg = SceneConfig(n_actors=4)
    for a in range(4):
        prev = synth.actor_joints(cfg, a, 0.0)
        for f in range(1, 50):
            cur = synth.actor_joints(cfg, a, f / cfg.fps)
            assert np.max(np.linalg.norm(cur - prev, axis=1)) < 0.08
            prev = cur
    for t in np.linspace(0.0, 20.0, 40):
        hips = [synth.actor_joints(cfg, a, t)[8] for a in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(hips[i] - hips[j]) > 0.4


@pytest.mark.parametrize("cfg", [SceneConfig(), corrupted_benchmark_config()],
                         ids=["default", "corrupted"])
def test_whole_scene_arrays_equal_the_per_pose_calls(cfg):
    times = np.arange(cfg.n_frames) / cfg.fps
    gt = synth.actor_joints(cfg, np.arange(cfg.n_actors)[None, :],
                            times[:, None])
    per_pose = np.array([[synth.actor_joints(cfg, a, times[f])
                          for a in range(cfg.n_actors)]
                         for f in range(cfg.n_frames)])
    assert gt.shape == (cfg.n_frames, cfg.n_actors, N, 3)
    assert np.array_equal(gt, per_pose)
    for cam in ring_cameras(cfg):
        pixels = synth.project_exact(cam, gt)
        assert pixels.shape == (cfg.n_frames, cfg.n_actors, N, 2)
        assert np.array_equal(pixels, [[synth.project_exact(cam, pose)
                                        for pose in poses]
                                       for poses in per_pose])


# -- exactness and determinism ---------------------------------------------


def test_noise_free_detections_project_the_ground_truth(clean_scene):
    scene = clean_scene
    for f in (0, 57, 200):
        bundle = scene.bundles[f]
        for cam in scene.cameras:
            valid = bundle.valid[cam.cam_id]
            for pi, pose in enumerate(bundle.poses[cam.cam_id]):
                actor = scene.actor_of[(f, cam.cam_id, pi)]
                gt = scene.gt[f, actor]
                direct = np.stack([project(p, cam) for p in gt])
                assert np.max(np.abs(pose[:, :2] - direct)) < 1e-9
                exact = synth.project_exact(cam, gt)
                assert np.max(np.abs(pose[:, :2] - exact)) < 1e-6
                assert valid[pi].all()


def test_noise_free_triangulation_recovers_ground_truth(clean_scene):
    scene = clean_scene
    f = 100
    bundle = scene.bundles[f]
    pose_of_actor = {}
    for cam in scene.cameras:
        for pi, pose in enumerate(bundle.poses[cam.cam_id]):
            actor = scene.actor_of[(f, cam.cam_id, pi)]
            pose_of_actor.setdefault(actor, []).append((cam, pose))
    for actor, obs in pose_of_actor.items():
        for n in range(N):
            point = triangulate(
                [pose[n, :2] for _, pose in obs],
                [cam for cam, _ in obs])
            assert np.linalg.norm(point - scene.gt[f, actor, n]) < 1e-6


def test_generation_is_deterministic(tmp_path):
    cfg = SceneConfig(seed=9, n_cameras=3, n_actors=2, n_frames=40,
                      noise_px=1.0, outlier_rate=0.1, occlusion_rate=0.2,
                      dropout_rate=0.1)
    a = generate(cfg).export(str(tmp_path / "a"))
    b = generate(cfg).export(str(tmp_path / "b"))
    for kind in a:
        assert filecmp.cmp(a[kind], b[kind], shallow=False)
    c = generate(cfg.with_overrides(seed=10)).export(str(tmp_path / "c"))
    assert not filecmp.cmp(a["detections"], c["detections"], shallow=False)


@pytest.mark.parametrize("cfg", [
    SceneConfig(noise_px=1.0),
    SceneConfig(seed=9, n_cameras=3, n_actors=2, n_frames=40, noise_px=1.0,
                outlier_rate=0.1, occlusion_rate=0.2, dropout_rate=0.1),
    corrupted_benchmark_config(n_frames=60),
    SceneConfig(seed=4, n_cameras=2, n_actors=2, n_frames=30, noise_px=0.0,
                outlier_rate=0.2, occlusion_rate=0.3),
    # a 40 px image that no 300 px step stays inside: all 32 retries fail
    SceneConfig(seed=5, n_cameras=2, n_actors=2, n_frames=20, noise_px=1.0,
                width=40, height=40, focal_px=20.0, outlier_rate=0.3,
                outlier_px=300.0, dropout_rate=0.2),
    # bursts that never end: frame 0 draws at the stationary occupancy
    # and every (camera, actor) keeps that state
    SceneConfig(n_frames=3, outlier_rate=0.1, outlier_burst=0.9,
                outlier_burst_frames=math.inf),
], ids=["noisy", "deterministic", "bursts", "clean", "retries-run-out",
        "endless-bursts"])
def test_generate_makes_the_reference_draws(cfg):
    # The draw order is the module docstring's; the reference makes it one
    # pose at a time, so every bit of the scene must agree.
    scene, ref = generate(cfg), reference_generate(cfg)
    assert scene.actor_of == ref.actor_of
    assert scene.class_of.keys() == ref.class_of.keys()
    for key, codes in ref.class_of.items():
        assert scene.class_of[key].dtype == codes.dtype
        assert scene.class_of[key].tobytes() == codes.tobytes(), key
    assert len(scene.bundles) == len(ref.bundles)
    for got, want in zip(scene.bundles, ref.bundles):
        assert (got.frame, got.time_s) == (want.frame, want.time_s)
        assert got.times == want.times
        for part in ("poses", "valid"):
            a, b = getattr(got, part), getattr(want, part)
            assert list(a) == list(b)
            for cam_id in b:
                assert a[cam_id].dtype == b[cam_id].dtype
                assert a[cam_id].shape == b[cam_id].shape
                assert a[cam_id].tobytes() == b[cam_id].tobytes(), (
                    got.frame, cam_id, part)
    if cfg.width == 40:
        # the retries did run out: some outlier left the image
        outside = [pose for b in scene.bundles for poses in b.poses.values()
                   for pose in poses
                   if ((pose[:, :2] < 0) | (pose[:, :2] > 40)).any()]
        assert outside


def test_export_round_trips_through_the_readers(tmp_path, noisy_scene):
    scene = noisy_scene
    paths = scene.export(str(tmp_path))
    cams = fileio.load_calibration(paths["calibration"])
    assert [c.cam_id for c in cams] == [c.cam_id for c in scene.cameras]
    for loaded, orig in zip(cams, scene.cameras):
        assert np.array_equal(loaded.K, orig.K)
        assert np.array_equal(loaded.R, orig.R)
        assert np.array_equal(loaded.o, orig.o)

    bundles = list(fileio.load_detections(paths["detections"],
                                          cameras=cams))
    assert len(bundles) == len(scene.bundles)
    sample = bundles[17]
    orig = scene.bundles[17]
    assert sample.frame == orig.frame and sample.time_s == orig.time_s
    for cam in cams:
        got = sample.poses[cam.cam_id]
        want = orig.poses[cam.cam_id]
        assert len(got) == len(want)
        assert np.array_equal(got, want)
        assert np.array_equal(sample.valid[cam.cam_id], orig.valid[cam.cam_id])
        assert sample.times[cam.cam_id] == orig.times[cam.cam_id]

    gt = fileio.load_ground_truth(paths["ground_truth"])
    assert len(gt.frames) == scene.gt.shape[0]
    assert np.array_equal(gt.frames[31].actors[1], scene.gt[31, 1])

    sidecar = fileio.load_corruption(paths["corruption"])
    assert sidecar == corruption_records(scene)
    assert len(sidecar) == N * len(scene.class_of)
    assert list(sidecar[0]) == ["frame", "camera", "pose", "joint", "class",
                                "actor"]


def test_sidecar_labels_exactly_the_detected_poses(tmp_path):
    # Empty the poses of some frames after generate, as a leave-and-return
    # schedule does: the cameras keep reporting, with no one in view.
    scene = generate(SceneConfig(seed=3, n_cameras=3, n_actors=3,
                                 n_frames=24, noise_px=1.0))
    for bundle in scene.bundles:
        if bundle.frame % 6 >= 4:
            bundle.poses = {cam_id: [] for cam_id in bundle.poses}
    paths = scene.export(str(tmp_path))
    detected = {(bundle.frame, cam_id, pose)
                for bundle in fileio.load_detections(paths["detections"])
                for cam_id, poses in bundle.poses.items()
                for pose in range(len(poses))}
    labelled = {(rec["frame"], rec["camera"], rec["pose"])
                for rec in fileio.load_corruption(paths["corruption"])}
    assert len(detected) == 16 * 3 * 3
    assert labelled == detected
    assert {(r["frame"], r["camera"], r["pose"])
            for r in corruption_records(scene)} == detected


def test_exported_sidecar_is_json_dumps_of_each_record(tmp_path):
    # The default scene is all clean, the corrupted one noisy, outlier
    # and occluded, and the noise-free corrupted one clean, outlier and
    # occluded, so the three write every class.
    names = set()
    for i, cfg in enumerate((SceneConfig(), corrupted_benchmark_config(),
                             corrupted_benchmark_config(noise_px=0.0))):
        scene = generate(cfg)
        paths = scene.export(str(tmp_path / str(i)))
        entries = []
        for bundle in scene.bundles:
            for cam_id, poses in bundle.poses.items():
                for pose in range(len(poses)):
                    key = (bundle.frame, cam_id, pose)
                    entries.append((*key, scene.actor_of[key],
                                    scene.class_of[key]))
                    names.update(CLASS_NAMES[code]
                                 for code in scene.class_of[key].tolist())
        with open(paths["corruption"], "rb") as fh:
            assert fh.read() == reference_corruption_text(
                entries, SYNTH14.name, CLASS_NAMES).encode()
    assert names == set(CLASS_NAMES.values())


def test_class_names_need_no_json_escaping():
    # The sidecar writer makes one cell per (joint, class) from json's
    # text of each name; for these names that is the name in quotes.
    for name in CLASS_NAMES.values():
        assert re.fullmatch("[a-z]+", name)
        assert json.dumps(name) == f'"{name}"'


def test_generate_holds_little_memory_per_joint_view():
    # 1,000 frames of 5 cameras and 4 actors: 280,000 joint views. A
    # six-key record per joint view held about 345 bytes each; one array
    # of class codes and one actor id per pose hold about 60. On the way
    # the exact pixels of every view (16 bytes each) are the largest
    # temporary, for a peak near 77; one more whole-scene copy of the
    # poses (24 bytes each) would pass 90.
    cfg = SceneConfig(n_frames=1000, n_cameras=5, n_actors=4)
    views = cfg.n_frames * cfg.n_cameras * cfg.n_actors * N
    tracemalloc.start()
    try:
        scene = generate(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scene.bundles) == cfg.n_frames
    assert held <= 100 * views, f"{held / views:.0f} B per joint view"
    assert peak <= 90 * views, f"peak {peak / views:.0f} B per joint view"


# -- corruption model -------------------------------------------------------


def base_pose(uv_value=None):
    """Pixels (N,2) of a pose, all at the image center by default."""
    if uv_value is not None:
        return uv_value
    return np.tile([400.0, 300.0], (N, 1))


def test_corrupt_pose_outlier_magnitude_is_exact():
    cfg = SceneConfig(noise_px=0.0, outlier_rate=1.0, outlier_px=60.0)
    rng = np.random.default_rng(1)
    pose = base_pose()
    displaced = 0
    for _ in range(200):
        out, codes = corrupt_pose(pose, cfg, rng)
        assert codes.shape == (N,) and np.all(codes == CLASS_OUTLIER)
        d = np.linalg.norm(out[:, :2] - pose, axis=1)
        assert np.allclose(d, 60.0, atol=1e-9)
        displaced += N
    assert displaced == 200 * N


def test_corrupt_pose_outliers_stay_inside_the_image():
    cfg = SceneConfig(noise_px=0.0, outlier_rate=1.0, outlier_px=220.0)
    rng = np.random.default_rng(2)
    uv = np.tile([60.0, 60.0], (N, 1))  # near a corner
    pose = base_pose(uv)
    for _ in range(100):
        out, _ = corrupt_pose(pose, cfg, rng)
        assert np.all(out[:, 0] >= 0) and np.all(out[:, 0] <= cfg.width)
        assert np.all(out[:, 1] >= 0) and np.all(out[:, 1] <= cfg.height)


def test_corrupt_pose_occlusion_hits_one_limb_group():
    cfg = SceneConfig(noise_px=0.0, occlusion_rate=1.0)
    rng = np.random.default_rng(3)
    pose = base_pose()
    for _ in range(50):
        out, codes = corrupt_pose(pose, cfg, rng)
        valid = valid_joints(out[None], AffinityConfig())[0]
        group = tuple(np.flatnonzero(codes == CLASS_OCCLUDED))
        assert group in OCCLUSION_GROUPS
        assert np.all(out[list(group), 2] < 0.1)
        assert not valid[list(group)].any()
        others = [j for j in range(N) if j not in group]
        assert valid[others].all()


def test_corruption_sidecar_classifies_every_joint_once(noisy_scene):
    scene = synth.generate(SceneConfig(
        seed=6, n_cameras=2, n_actors=2, n_frames=30, noise_px=1.0,
        outlier_rate=0.2, occlusion_rate=0.3, dropout_rate=0.2))
    seen = {}
    for rec in corruption_records(scene):
        key = (rec["frame"], rec["camera"], rec["pose"])
        seen.setdefault(key, []).append(rec)
        assert rec["class"] in ("clean", "noisy", "outlier", "occluded")
    for bundle in scene.bundles:
        for cam_id, poses in bundle.poses.items():
            for pi in range(len(poses)):
                recs = seen[(bundle.frame, cam_id, pi)]
                assert sorted(r["joint"] for r in recs) == list(range(N))
                codes = scene.class_of[(bundle.frame, cam_id, pi)]
                assert len(codes) == N


def test_independent_outlier_rate_matches_configuration():
    cfg = SceneConfig(seed=4, n_cameras=3, n_actors=3, n_frames=2000,
                      noise_px=1.0, outlier_rate=0.10, outlier_px=80.0)
    scene = generate(cfg)
    labels = [r["class"] for r in corruption_records(scene)]
    frac = labels.count("outlier") / len(labels)
    assert abs(frac - 0.10) < 0.01


def test_dropout_rate_matches_configuration():
    cfg = SceneConfig(seed=8, n_cameras=3, n_actors=3, n_frames=1000,
                      dropout_rate=0.3)
    scene = generate(cfg)
    expected = cfg.n_cameras * cfg.n_actors * cfg.n_frames
    present = sum(len(poses) for b in scene.bundles
                  for poses in b.poses.values())
    frac = 1.0 - present / expected
    assert abs(frac - 0.3) < 0.02


# -- outlier bursts ---------------------------------------------------------


def test_burst_chain_preserves_the_marginal_outlier_rate():
    for rate, burst in ((0.05, 0.8), (0.10, 0.9), (0.15, 0.95)):
        cfg = SceneConfig(outlier_rate=rate, outlier_burst=burst,
                          outlier_burst_frames=20.0)
        p_enter, p_exit, quiet = cfg.burst_chain()
        share = len(BURST_GROUPS[0]) / N
        occupancy = p_enter / (p_enter + p_exit)
        marginal = occupancy * (share * burst + (1 - share) * quiet) + (
            1 - occupancy) * quiet
        assert marginal == pytest.approx(rate, abs=1e-12)
        assert 0.0 < occupancy <= 0.6


def test_burst_outliers_latch_onto_one_body_half():
    cfg = SceneConfig(seed=12, n_cameras=2, n_actors=2, n_frames=800,
                      noise_px=1.0, outlier_rate=0.10, outlier_px=120.0,
                      outlier_burst=0.9, outlier_burst_frames=20.0)
    scene = generate(cfg)
    records = corruption_records(scene)
    labels = [r for r in records if r["class"] == "outlier"]
    frac = len(labels) / len(records)
    assert abs(frac - 0.10) < 0.02

    by_pose = {}
    for r in labels:
        by_pose.setdefault((r["frame"], r["camera"], r["pose"]), []).append(
            r["joint"])
    multi = [js for js in by_pose.values() if len(js) >= 3]
    assert multi, "bursts should produce poses with several outliers"
    dominant = outside = 0
    for joints in multi:
        inside = max(sum(j in g for j in joints) for g in BURST_GROUPS)
        dominant += inside
        outside += len(joints) - inside
    assert dominant / (dominant + outside) > 0.95


def test_burst_configuration_validation():
    with pytest.raises(ConfigError):
        SceneConfig(outlier_rate=0.3, outlier_burst=0.35)
    with pytest.raises(ConfigError):
        SceneConfig(outlier_rate=0.1, outlier_burst=0.9,
                    outlier_burst_frames=0.5)
    with pytest.raises(ConfigError):
        SceneConfig(outlier_burst=1.5)
    # a burst rate at the quiet rate (0.1 * outlier_rate), and bursts that
    # never end, once divided by zero
    with pytest.raises(ConfigError, match="too low"):
        SceneConfig(outlier_rate=0.5, outlier_burst=0.05)
    assert SceneConfig(outlier_rate=0.1, outlier_burst=0.9,
                       outlier_burst_frames=math.inf).burst_chain()[:2] == (
        0.0, 0.0)


def test_benchmark_configuration_is_a_two_camera_burst_scene():
    cfg = corrupted_benchmark_config()
    assert cfg.n_cameras == 2
    assert cfg.outlier_rate == 0.10
    assert cfg.outlier_burst > 0.0
    assert cfg.occlusion_rate == 0.15
    override = corrupted_benchmark_config(n_frames=50)
    assert override.n_frames == 50


# -- configuration ----------------------------------------------------------


def test_scene_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(n_cameras=1)
    with pytest.raises(ConfigError):
        SceneConfig(n_actors=0)
    with pytest.raises(ConfigError):
        SceneConfig(outlier_rate=1.5)
    with pytest.raises(ConfigError):
        SceneConfig(fps=0)
    with pytest.raises(ConfigError, match="n_camels") as err:
        SceneConfig().with_overrides(n_camels=4)
    assert "n_cameras" in str(err.value)
    for bad in (dict(n_actors="x"), dict(noise_px=True), dict(seed=1.5),
                dict(n_frames=2.5), dict(fps="25"), dict(seed=-1),
                dict(width=800.0)):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            SceneConfig(**bad)
    # sizes past the caps, refused before generate allocates anything
    for bad in (dict(n_cameras=10 ** 21), dict(n_frames=10 ** 6),
                dict(n_frames=5000, n_cameras=10, n_actors=8),
                dict(width=1 << 17), dict(height=10 ** 30)):
        with pytest.raises(ConfigError):
            SceneConfig(**bad)
    assert SceneConfig(n_frames=5000, n_cameras=10, n_actors=7)
    # NaN passes every range test, so each float field is probed
    floats = [f.name for f in fields(SceneConfig) if f.type == "float"]
    for name in floats:
        for bad in (math.nan, math.inf, -math.inf):
            if name == "outlier_burst_frames" and bad == math.inf:
                continue
            with pytest.raises(ConfigError, match=name):
                SceneConfig(**{name: bad})
    assert SceneConfig(outlier_burst_frames=math.inf)


def test_schema_name_is_not_a_scene_parameter():
    # generate knows one schema, so `--set schema_name=...` names nothing
    with pytest.raises(ConfigError, match="unknown parameter 'schema_name'"):
        SceneConfig().with_overrides(schema_name="synth14")
    assert synth.SyntheticScene.schema is SYNTH14
