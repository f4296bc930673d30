"""The tracker's open defects, each stated as the assertion that holds
once it is mended and marked as a strict expected failure.

A mark comes off in the change that mends its defect, and the test then
stays as a plain regression test. Each scene is built and tracked once
per module.
"""

import numpy as np
import pytest

from mvtrack3d import evaluation, kernels, synth
from mvtrack3d.affinity import AffinityConfig, preset
from mvtrack3d.geometry import CameraRig
from mvtrack3d.tracker import PoseTracker, TrackerConfig

from helpers import count_id_moves, run_tracker, staggered_scene

# Criterion 5's "full" settings, on the bench's bursty scene at seed 1.
BURSTY = TrackerConfig(
    affinity=AffinityConfig(alpha_2d=20.0, alpha_epi=15.0, tau=3, epsilon=3,
                            lambda_a=3.0),
    part_aware=True, joints_filter=True, smoothing=False)


@pytest.fixture(scope="module")
def bursty_scene():
    return synth.generate(synth.corrupted_benchmark_config(seed=1))


@pytest.fixture(scope="module")
def bursty_frames(bursty_scene):
    return run_tracker(bursty_scene, BURSTY)[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_no_track_id_moves_to_another_actor_in_the_staggered_scene():
    # a track with no pose keeps its last skeleton, and an actor who
    # enters near it takes over its id
    scene, gt_frames = staggered_scene()
    frames, _ = run_tracker(scene, TrackerConfig(affinity=preset("shelf")))
    moves = count_id_moves(frames, gt_frames, scene.schema)
    assert moves == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_no_bursty_joint_lies_100_m_from_the_origin(bursty_frames):
    # a P joint coasts on a velocity taken from one noisy frame
    far = sum(int((np.linalg.norm(joints, axis=1) >= 100.0).sum())
              for frame in bursty_frames for joints in frame.actors.values())
    assert far == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_no_triangulated_joint_lies_behind_a_camera_it_used(bursty_scene):
    # with the filter off, nothing checks the depth of a triangulated
    # joint in the cameras whose views built it; the first frame that
    # has one ends the run
    cfg = BURSTY.with_overrides(joints_filter=False)
    rig = CameraRig(bursty_scene.cameras)
    tracker = PoseTracker(rig, cfg)
    for bundle in bursty_scene.bundles:
        tracker.step(bundle)
        table = tracker.tracks
        _, depth = kernels.project_points(table.joints[..., None, :],
                                          rig.p_table)
        in_window = bundle.frame - table.view_frame < cfg.affinity.tau
        used = (table.view_valid & in_window[:, None, :]
                & (table.flags == kernels.FLAG_TRIANGULATED)[..., None]
                & (table.time == bundle.time_s)[:, None, None])
        behind = int((used & (depth <= 0.0)).sum())
        assert behind == 0, bundle.frame


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
def test_bursty_pcp_is_at_least_85(bursty_scene, bursty_frames):
    # the filter leaves an outlier joint one view, and that view is
    # then discarded too, so the joint falls back to its prediction
    pcp = evaluation.pcp_evaluate(bursty_frames,
                                  bursty_scene.ground_truth_frames(),
                                  bursty_scene.schema).overall
    assert pcp >= 85.0
