"""Limb-correctness scoring and per-frame actor matching."""

import numpy as np
import pytest

from mvtrack3d.errors import SchemaMismatch
from mvtrack3d.evaluation import (
    PartScore,
    match_actors,
    pcp_evaluate,
    score_actor,
)
from mvtrack3d.fileio import GroundTruthFrame, TrackFrame
from mvtrack3d.schema import SYNTH14

from helpers import (points_near_origin, reference_match_actors,
                     reference_pcp_counts, reference_score_actor)

N = SYNTH14.n_joints
PARTS = SYNTH14.part_names
N_LIMBS = len(SYNTH14.limbs)


def frames_from(gt_actors_by_frame, pred_actors_by_frame, masks=None):
    gt = [GroundTruthFrame(frame=f, actors=a, masks=(masks or {}).get(f, {}))
          for f, a in gt_actors_by_frame.items()]
    pred = [TrackFrame(frame=f, time_s=f / 25.0, actors=a)
            for f, a in pred_actors_by_frame.items()]
    return pred, gt


def test_part_score_percentage():
    assert PartScore(3, 4).pcp == 75.0
    assert PartScore(0, 0).pcp == 0.0
    assert PartScore(1, 2).plus(PartScore(2, 2)) == PartScore(3, 4)


def test_identical_prediction_scores_100_percent(rng):
    actors = {0: points_near_origin(rng, N), 1: points_near_origin(rng, N)}
    pred, gt = frames_from({0: actors, 1: actors}, {0: actors, 1: actors})
    report = pcp_evaluate(pred, gt, SYNTH14)
    assert report.overall == 100.0
    for part, score in report.part_totals().items():
        assert score.pcp == 100.0
        assert score.total == 2 * 2 * sum(
            1 for p, _, _ in SYNTH14.limbs if p == part)


def test_limb_boundary_is_inclusive(rng):
    gt = points_near_origin(rng, N)
    part, a, b = SYNTH14.limbs[3]
    axis = gt[a] - gt[b]

    pred = gt.copy()
    pred[a] = gt[a] + 0.5 * axis  # both endpoints off by half the length,
    pred[b] = gt[b] + 0.5 * axis  # exactly on the boundary
    results = dict(score_actor(pred, gt, SYNTH14)[3:4])
    assert results[part] is np.True_ or results[part] is True

    pred[a] = gt[a] + 0.500001 * axis
    pred[b] = gt[b] + 0.500001 * axis
    assert score_actor(pred, gt, SYNTH14)[3][1] == False  # noqa: E712


def test_scores_degrade_monotonically_with_noise(rng):
    gt = {0: points_near_origin(rng, N)}
    direction = rng.normal(size=(N, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    overall = []
    for scale in (0.0, 0.02, 0.05, 0.2, 1.0, 5.0):
        pred = {0: gt[0] + scale * direction}
        p, g = frames_from({0: gt}, {0: pred})
        overall.append(pcp_evaluate(p, g, SYNTH14).overall)
    assert all(a >= b for a, b in zip(overall, overall[1:]))
    assert overall[0] == 100.0
    assert overall[-1] < 100.0


def test_overall_equals_limb_weighted_average(rng):
    gt = {0: points_near_origin(rng, N), 1: points_near_origin(rng, N)}
    pred = {0: gt[0] + rng.normal(0, 0.05, (N, 3)),
            1: gt[1] + rng.normal(0, 0.1, (N, 3))}
    p, g = frames_from({f: gt for f in range(3)},
                       {f: pred for f in range(3)})
    report = pcp_evaluate(p, g, SYNTH14)
    totals = report.part_totals()
    weighted = sum(s.pcp * s.total for s in totals.values())
    count = sum(s.total for s in totals.values())
    assert report.overall == pytest.approx(weighted / count, abs=1e-9)


def test_missing_frames_and_unmatched_actors_count_as_incorrect(rng):
    gt_actors = {0: points_near_origin(rng, N), 1: points_near_origin(rng, N)}
    pred, gt = frames_from({0: gt_actors, 1: gt_actors},
                           {0: {7: gt_actors[0]}})
    report = pcp_evaluate(pred, gt, SYNTH14)
    # actor 0 correct in frame 0 only; actor 1 never matched
    assert report.actor_score(0) == PartScore(N_LIMBS, 2 * N_LIMBS)
    assert report.actor_score(1) == PartScore(0, 2 * N_LIMBS)


def test_matching_pairs_nearest_actors(rng):
    a = points_near_origin(rng, N)
    b = a + np.array([5.0, 0.0, 0.0])
    matches = match_actors({10: b.copy(), 20: a.copy()},
                           {0: a, 1: b}, SYNTH14)
    assert matches == {0: 20, 1: 10}


def test_matching_ties_prefer_smaller_ids(rng):
    a = points_near_origin(rng, N)
    matches = match_actors({5: a.copy(), 6: a.copy()},
                           {0: a.copy(), 1: a.copy()}, SYNTH14)
    assert matches == {0: 5, 1: 6}


def test_matching_uses_masked_joints_only(rng):
    gt = points_near_origin(rng, N)
    near_on_head = gt.copy()
    near_on_head[2:] += 5.0       # everything but the head joints is far
    far_everywhere = gt + 0.5
    mask = np.zeros(N, dtype=bool)
    mask[:2] = True
    matches = match_actors({1: near_on_head, 2: far_everywhere}, {0: gt},
                           SYNTH14, gt_masks={0: mask})
    assert matches == {0: 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_matching_equals_scalar_greedy_reference(rng):
    # duplicate predictions tie; an all-False mask gives a NaN distance row
    # and a NaN or infinite joint a non-finite prediction column
    for _ in range(400):
        gt_ids = rng.choice(8, int(rng.integers(1, 5)), replace=False)
        gt = {int(g): points_near_origin(rng, N) for g in gt_ids}
        preds = {}
        for p in rng.choice(8, int(rng.integers(1, 5)), replace=False):
            kind = int(rng.integers(5))
            if kind == 0 and preds:
                joints = next(iter(preds.values())).copy()
            elif kind == 1:
                joints = points_near_origin(rng, N)
                joints[int(rng.integers(N)), 0] = rng.choice([np.nan, np.inf])
            else:
                joints = gt[int(rng.choice(gt_ids))] + rng.normal(0, 0.1, (N, 3))
            preds[int(p)] = joints
        masks = {g: rng.random(N) < rng.choice([0.0, 0.5, 1.0])
                 for g in gt if rng.random() < 0.5}
        assert match_actors(preds, gt, SYNTH14, masks) == \
            reference_match_actors(preds, gt, masks)


def test_masked_limbs_are_skipped(rng):
    gt = points_near_origin(rng, N)
    mask = np.ones(N, dtype=bool)
    part, a, b = SYNTH14.limbs[0]
    mask[a] = False
    kept = [(p, i, j) for p, i, j in SYNTH14.limbs if mask[i] and mask[j]]
    assert len(kept) < N_LIMBS
    results = score_actor(gt.copy(), gt, SYNTH14, mask=mask)
    assert len(results) == len(kept)
    assert all(ok for _, ok in results)


def boundary_actor(rng, exact):
    """Ground truth and a prediction whose every limb sits on the
    correctness boundary, da + db = length: joint j is predicted d_j away
    from the truth, and each limb (a, b) is d_a + d_b long. With integer
    d along the axes the ties are exact; along random directions rounding
    decides them. SYNTH14's limbs form a forest listed parent first, so
    each limb places its second joint from its first."""
    def direction():
        if exact:
            u = np.zeros(3)
            u[rng.integers(3)] = rng.choice([-1.0, 1.0])
            return u
        u = rng.normal(size=3)
        return u / np.linalg.norm(u)

    d = rng.integers(0, 4, N).astype(float) if exact \
        else rng.uniform(0.0, 0.3, N)
    gt = rng.integers(-5, 6, (N, 3)).astype(float)
    for _, a, b in SYNTH14.limbs:
        gt[b] = gt[a] + (d[a] + d[b]) * direction()
    pred = gt + d[:, None] * np.stack([direction() for _ in range(N)])
    return gt, pred


def test_limb_correctness_matches_scalar_reference(rng):
    for k in range(400):
        mask = rng.random(N) > 0.2 if rng.random() < 0.3 else None
        if k % 4 == 3:
            gt = points_near_origin(rng, N)
            pred = gt + rng.normal(0.0, 0.1, gt.shape)
        else:
            gt, pred = boundary_actor(rng, exact=k % 2 == 0)
        want = reference_score_actor(pred, gt, SYNTH14, mask)
        if k % 2 == 0:
            # an exact tie counts as correct
            assert all(ok for _, ok in want)
        assert score_actor(pred, gt, SYNTH14, mask) == want


def test_report_matches_reference_scorer_on_random_pairs(rng):
    for _ in range(25):
        n_frames = int(rng.integers(1, 4))
        gt_frames = []
        pred_frames = []
        for f in range(n_frames):
            n_actors = int(rng.integers(1, 4))
            actors = {a: points_near_origin(rng, N)
                      for a in range(n_actors)}
            masks = {}
            if rng.random() < 0.3:
                masks[0] = rng.random(N) > 0.25
            gt_frames.append(GroundTruthFrame(f, actors, masks))
            if rng.random() < 0.15:
                continue  # drop a prediction frame entirely
            preds = {}
            for a, joints in actors.items():
                if rng.random() < 0.2:
                    continue
                scale = float(rng.choice([0.01, 0.05, 0.15, 0.4]))
                preds[a + 100] = joints + rng.normal(0, scale, (N, 3))
            if rng.random() < 0.2:
                preds[999] = points_near_origin(rng, N)  # spurious track
            pred_frames.append(TrackFrame(f, f / 25.0, preds))
        report = pcp_evaluate(pred_frames, gt_frames, SYNTH14)
        expected = reference_pcp_counts(pred_frames, gt_frames, SYNTH14)
        for actor, parts in report.per_actor.items():
            for part, score in parts.items():
                want = expected.get(actor, {}).get(part, (0, 0))
                assert (score.correct, score.total) == want


def test_report_rendering_is_stable(rng):
    actors = {0: points_near_origin(rng, N)}
    pred, gt = frames_from({0: actors}, {0: actors})
    report = pcp_evaluate(pred, gt, SYNTH14)
    text = report.to_text()
    assert text == report.to_text()
    lines = text.splitlines()
    assert "actor" in lines[0] and "pcp" in lines[0]
    assert lines[-1].split()[:2] == ["all", "average"]
    records = report.to_records()
    assert records[-1] == {"actor": "all", "part": "average",
                           "correct": N_LIMBS, "total": N_LIMBS,
                           "pcp": 100.0}


def test_schema_shape_mismatch_is_rejected(rng):
    with pytest.raises(SchemaMismatch):
        score_actor(points_near_origin(rng, 5), points_near_origin(rng, N),
                    SYNTH14)
