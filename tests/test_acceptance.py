"""Acceptance gate: eight end-to-end checks at their stated tolerances.

Each test prints a single [criterion N] PASS/FAIL line with the measured
numbers, visible under pytest -v, then asserts.
"""

import json
import time

import numpy as np

from mvtrack3d import affinity, evaluation, fileio, geometry, kernels, synth, tracker
from mvtrack3d.assignment import solve
from mvtrack3d.cli import main as cli_main
from mvtrack3d.schema import get_schema

import helpers


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\n[criterion {num}] {name}: {verdict} ({detail})", flush=True)


def test_criterion_1_roundtrip_and_exact_triangulation(capsys):
    rng = np.random.default_rng(101)
    worst_rt = 0.0
    worst_tri = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        cams = helpers.random_ring_rig(rng, n_cams=int(rng.integers(2, 6)))
        pts = helpers.points_near_origin(rng, 3)[:, None]   # (3, 1, 3)
        origins = np.stack([c.o for c in cams])
        # (3 points, M cameras) pixels, rays and distances
        pmats = np.stack([c.projection_matrix for c in cams])
        uv, depth = kernels.project_points(pts, pmats)
        direction = kernels.back_project_dir(
            uv[..., 0], uv[..., 1], np.stack([c.krinv for c in cams]))
        worst_rt = max(worst_rt, float(kernels.point_ray_distance(
            pts, origins, direction).max()))
        # the projected pixels as measured, with the same projection
        # matrices; a point whose status is not 0 comes back as 0 and
        # fails the bound
        xyz, _ = kernels.triangulate_batch(
            uv, pmats, np.ones(len(cams)),
            np.ones(depth.shape, np.bool_))
        worst_tri = max(worst_tri, float(np.linalg.norm(
            xyz - pts[:, 0], axis=1).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_rt < 1e-8 and worst_tri < 1e-9 and elapsed < 5.0
    report(capsys, 1, "projection roundtrip and noiseless triangulation", ok,
           f"roundtrip {worst_rt:.2e}, triangulation {worst_tri:.2e}, "
           f"1000 rigs in {elapsed:.2f}s")
    assert worst_rt < 1e-8
    assert worst_tri < 1e-9
    assert elapsed < 5.0


def test_criterion_2_assignment_matches_exhaustive_search(capsys):
    rng = np.random.default_rng(202)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(10_000):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        values = rng.uniform(-1.0, 1.0, shape)
        gate = float(rng.uniform(-0.2, 0.2)) if rng.random() < 0.5 else 0.0
        chosen = solve(values, min_affinity=gate)
        # the total is the sum of the values the matched rows pick
        got = float(sum(values[r, c] for r, c in enumerate(chosen.tolist())
                        if c >= 0))
        want = helpers.exhaustive_assignment_total(values, gate=gate)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    report(capsys, 2, "assignment optimality on 10,000 random matrices", ok,
           f"max |total - exhaustive| {worst:.2e} in {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_3_clean_scene_quality(capsys):
    scene = synth.generate(synth.SceneConfig(
        seed=11, n_cameras=3, n_actors=3, n_frames=2000, noise_px=1.0))
    cfg = tracker.TrackerConfig(affinity=affinity.preset("campus"))
    t0 = time.perf_counter()
    frames, _ = helpers.run_tracker(scene, cfg)
    elapsed = time.perf_counter() - t0
    gt_frames = scene.ground_truth_frames()
    switches = helpers.count_identity_switches(frames, gt_frames, scene.schema)
    err = helpers.mean_triangulated_error(frames, gt_frames, scene.schema)
    pcp = evaluation.pcp_evaluate(frames, gt_frames, scene.schema).overall
    ok = switches == 0 and err < 0.030 and pcp == 100.0 and elapsed < 60.0
    report(capsys, 3, "3-camera 3-actor tracking at 1px noise", ok,
           f"switches {switches}, mean error {1e3 * err:.2f}mm, "
           f"PCP {pcp:.2f}, 2000 frames in {elapsed:.1f}s")
    assert switches == 0
    assert err < 0.030
    assert pcp == 100.0
    assert elapsed < 60.0


def test_criterion_4_outlier_filter_precision_recall(capsys):
    scene = synth.generate(synth.SceneConfig(
        seed=13, n_cameras=5, n_actors=4, n_frames=1300, noise_px=1.5,
        outlier_rate=0.10, outlier_px=300.0))
    rig = geometry.CameraRig(scene.cameras)
    rng = np.random.default_rng(404)
    schema = scene.schema
    removed = {"outlier": 0, "clean": 0}
    totals = {"outlier": 0, "clean": 0}
    for bundle in scene.bundles:
        f = bundle.frame
        by_actor = {}
        for ci, cam in enumerate(rig.cameras):
            valid = bundle.valid[cam.cam_id]
            for pi, pose in enumerate(bundle.poses[cam.cam_id]):
                actor = scene.actor_of[(f, cam.cam_id, pi)]
                codes = scene.class_of[(f, cam.cam_id, pi)]
                by_actor.setdefault(actor, []).append(
                    (ci, pose, valid[pi], codes))
        for actor, views in by_actor.items():
            for n in range(schema.n_joints):
                rows = [(ci, pose[n, :2], codes[n])
                        for ci, pose, valid, codes in views if valid[n]]
                if len(rows) < 2:
                    continue
                uvs = np.array([r[1] for r in rows])
                cam_idx = np.array([r[0] for r in rows], dtype=np.int64)
                pred = scene.gt[f, actor, n] + rng.normal(0.0, 0.015, 3)
                keep = kernels.filter_tracked_batch(
                    uvs[None], np.ones((1, len(rows)), bool), cam_idx,
                    rig.f_table, 30.0, pred[None], rig.origins,
                    rig.krinv_table)[0]
                for (ci, uv, code), kept in zip(rows, keep):
                    label = "outlier" if code == synth.CLASS_OUTLIER else "clean"
                    totals[label] += 1
                    if not kept:
                        removed[label] += 1
    instances = totals["outlier"] + totals["clean"]
    recall = removed["outlier"] / totals["outlier"]
    clean_rate = removed["clean"] / totals["clean"]
    ok = recall >= 0.95 and clean_rate <= 0.02 and instances >= 100_000
    report(capsys, 4, "epipolar filter on 10% labeled outliers", ok,
           f"outlier recall {100 * recall:.2f}%, clean removed "
           f"{100 * clean_rate:.3f}%, {instances} joint instances")
    assert recall >= 0.95
    assert clean_rate <= 0.02
    assert instances >= 100_000


def test_criterion_5_scoring_ablation_ordering(capsys):
    scene = synth.generate(synth.corrupted_benchmark_config())
    gt_frames = scene.ground_truth_frames()
    aff = affinity.AffinityConfig(alpha_2d=20.0, alpha_epi=15.0, tau=3,
                                  epsilon=3, lambda_a=3.0)
    pcps = {}
    for name, part, filt in (("full", True, True),
                             ("part_only", True, False),
                             ("body_mean", False, False)):
        cfg = tracker.TrackerConfig(affinity=aff, part_aware=part,
                                    joints_filter=filt, smoothing=False)
        frames, _ = helpers.run_tracker(scene, cfg)
        pcps[name] = evaluation.pcp_evaluate(frames, gt_frames,
                                             scene.schema).overall
    a, b, c = pcps["full"], pcps["part_only"], pcps["body_mean"]
    ok = a >= b + 1.0 and b >= c + 1.0
    report(capsys, 5, "part-aware scoring and filter ablation", ok,
           f"full {a:.2f} > part-only {b:.2f} > body-mean {c:.2f}")
    assert a >= b + 1.0
    assert b >= c + 1.0


def test_criterion_6_streaming_prefix_determinism(capsys, tmp_path):
    scene = synth.generate(synth.SceneConfig(
        seed=17, n_cameras=3, n_actors=3, n_frames=2000, noise_px=1.0))
    scene.export(str(tmp_path))
    calib = str(tmp_path / "calibration.jsonl")
    detections = tmp_path / "detections.jsonl"
    full_out = tmp_path / "tracks_full.jsonl"
    assert cli_main(["track", "--calib", calib, "--detections",
                     str(detections), "--out", str(full_out)]) == 0

    lines = detections.read_text().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:]
                         if json.loads(ln)["frame"] < 1000]
    short_det = tmp_path / "detections_1000.jsonl"
    short_det.write_text("\n".join(kept) + "\n")
    short_out = tmp_path / "tracks_1000.jsonl"
    assert cli_main(["track", "--calib", calib, "--detections",
                     str(short_det), "--out", str(short_out)]) == 0
    capsys.readouterr()

    full_bytes = full_out.read_bytes()
    short_bytes = short_out.read_bytes()
    n_short = len(short_bytes)
    is_prefix = full_bytes.startswith(short_bytes)
    ok = is_prefix and fileio.load_tracks(str(short_out)).frames[-1].frame == 999
    report(capsys, 6, "1000-frame run is a byte prefix of the 2000-frame run",
           ok, f"prefix holds over {n_short} bytes")
    assert is_prefix
    assert ok


def test_criterion_7_per_frame_latency(capsys):
    scene = synth.generate(synth.SceneConfig(
        seed=19, n_cameras=5, n_actors=4, n_frames=600, noise_px=1.0))
    cfg = tracker.TrackerConfig(affinity=affinity.preset("shelf"))
    helpers.run_tracker(scene, cfg, max_frames=50)  # warm caches and kernels
    frames, tr = helpers.run_tracker(scene, cfg)
    means = tr.stage_means_ms
    total = sum(means.values())
    ok = total < 15.0
    report(capsys, 7, "5-camera 4-actor per-frame latency", ok,
           f"associate {means['associate']:.2f} + reconstruct "
           f"{means['reconstruct']:.2f} + initialize "
           f"{means['initialize']:.2f} = {total:.2f} ms/frame")
    assert total < 15.0


def _random_eval_pair(rng, schema):
    n_frames = int(rng.integers(3, 8))
    n_actors = int(rng.integers(1, 4))
    gt_frames, pred_frames = [], []
    for f in range(n_frames):
        actors, masks, tracks = {}, {}, {}
        for a in range(n_actors):
            joints = rng.normal(0.0, 1.0, (schema.n_joints, 3))
            actors[a] = joints
            if rng.random() < 0.4:
                masks[a] = rng.random(schema.n_joints) > 0.25
            if rng.random() < 0.85:
                sigma = 0.3 * rng.random()
                tracks[a + 100] = joints + rng.normal(0.0, sigma, joints.shape)
        gt_frames.append(fileio.GroundTruthFrame(frame=f, actors=actors,
                                                 masks=masks))
        if rng.random() < 0.9:
            if rng.random() < 0.3:
                tracks[999] = rng.normal(0.0, 5.0, (schema.n_joints, 3))
            pred_frames.append(fileio.TrackFrame(frame=f, time_s=f / 25.0,
                                                 actors=tracks))
    return pred_frames, gt_frames


def test_criterion_8_pcp_report_matches_reference_scorer(capsys):
    rng = np.random.default_rng(808)
    schema = get_schema("synth14")
    pairs_checked = 0
    counts_checked = 0
    for _ in range(100):
        pred_frames, gt_frames = _random_eval_pair(rng, schema)
        rep = evaluation.pcp_evaluate(pred_frames, gt_frames, schema)
        ref = helpers.reference_pcp_counts(pred_frames, gt_frames, schema)
        assert set(rep.per_actor) == set(ref)
        for actor, parts in ref.items():
            for part, (correct, total) in parts.items():
                score = rep.per_actor[actor][part]
                assert (score.correct, score.total) == (correct, total), (
                    f"actor {actor} part {part}: report "
                    f"{(score.correct, score.total)} != reference "
                    f"{(correct, total)}")
                counts_checked += 1
        pairs_checked += 1
    ok = pairs_checked == 100
    report(capsys, 8, "evaluation report matches an independent scorer", ok,
           f"{pairs_checked} randomized runs, {counts_checked} exact counts")
    assert ok
