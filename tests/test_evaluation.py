"""Limb-correctness scoring and per-frame actor matching."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtrack3d import evaluation
from mvtrack3d.errors import SchemaMismatch
from mvtrack3d.evaluation import (
    PartScore,
    PcpReport,
    match_actors,
    match_run,
    pcp_evaluate,
    score_actor,
)
from mvtrack3d.fileio import GroundTruthFrame, TrackFrame
from mvtrack3d.schema import SYNTH14

from helpers import (points_near_origin, reference_match_actors,
                     reference_match_distance, reference_pcp_counts,
                     reference_score_actor)

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


def random_run(rng, n_frames, n_actors, mask_kinds, nonfinite):
    """Ground truth and predictions of a run in which each actor enters
    at a random frame and may leave again. Some actors are predicted
    with every limb on the correctness boundary (boundary_actor), the
    rest with noise. Prediction frames go missing, predictions drop out,
    repeat another prediction (a tie), or come from nowhere; some hold a
    NaN or infinite joint. Masks are drawn from mask_kinds: all True,
    partial or all False."""
    start = rng.integers(0, n_frames, n_actors)
    stop = np.where(rng.random(n_actors) < 0.3,
                    rng.integers(0, n_frames + 1, n_actors), n_frames)
    # (ground truth, boundary prediction or None); actors move 1 m a
    # frame, which keeps the boundary ties exact
    base = [boundary_actor(rng, exact=True) if rng.random() < 0.3
            else (points_near_origin(rng, N), None)
            for _ in range(n_actors)]
    gt_frames, pred_frames = [], []
    for f in range(n_frames):
        actors = {a: base[a][0] + f for a in range(n_actors)
                  if start[a] <= f < stop[a]}
        if actors and rng.random() < 0.1:   # two actors in one place
            a, b = rng.choice(list(actors), 2)
            actors[int(b)] = actors[int(a)].copy()
        masks = {}
        for a in actors:
            kind = mask_kinds[int(rng.integers(len(mask_kinds)))]
            if kind == "all":
                masks[a] = np.ones(N, dtype=bool)
            elif kind == "partial":
                masks[a] = rng.random(N) > 0.3
            elif kind == "empty":
                masks[a] = np.zeros(N, dtype=bool)
        gt_frames.append(GroundTruthFrame(f, actors, masks))
        if rng.random() < 0.15:
            continue   # no prediction frame
        preds = {}
        for a, joints in actors.items():
            if rng.random() < 0.2:
                continue
            if base[a][1] is not None:
                preds[a + 100] = base[a][1] + f
            else:
                scale = float(rng.choice([0.0, 0.01, 0.05, 0.15, 0.4]))
                preds[a + 100] = joints + rng.normal(0, scale, (N, 3))
        for tid in rng.choice(range(200, 210), int(rng.integers(0, 3)),
                              replace=False):
            if preds and rng.random() < 0.5:
                preds[int(tid)] = preds[int(rng.choice(list(preds)))].copy()
            else:
                preds[int(tid)] = points_near_origin(rng, N)
        if nonfinite:
            for tid in preds:
                if rng.random() < 0.2:
                    preds[tid] = preds[tid].copy()
                    preds[tid][rng.integers(N), rng.integers(3)] = \
                        rng.choice([np.nan, np.inf, -np.inf])
        pred_frames.append(TrackFrame(f, f / 25.0, preds))
    return pred_frames, gt_frames


def test_all_true_mask_ties_as_no_mask(rng):
    # two actors in one place, the second with a mask that keeps every
    # joint: their distances are equal, so the smaller id wins
    every_joint = np.ones(N, dtype=bool)
    for _ in range(200):
        gt = points_near_origin(rng, N)
        preds = {7: gt + rng.normal(0, 0.1, (N, 3)),
                 8: gt + rng.normal(0, 0.1, (N, 3))}
        assert match_actors(preds, {0: gt, 1: gt.copy()}, SYNTH14,
                            {1: every_joint}) == \
            match_actors(preds, {0: gt, 1: gt.copy()}, SYNTH14) == \
            reference_match_actors(preds, {0: gt, 1: gt}, {1: every_joint})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_frames=st.integers(1, 30),
       n_actors=st.integers(0, 12),
       mask_kinds=st.lists(st.sampled_from(["none", "all", "partial",
                                            "empty"]), min_size=1,
                           max_size=4),
       nonfinite=st.booleans())
def test_report_matches_reference_scorer_on_random_runs(
        seed, n_frames, n_actors, mask_kinds, nonfinite):
    pred_frames, gt_frames = random_run(np.random.default_rng(seed),
                                        n_frames, n_actors, mask_kinds,
                                        nonfinite)
    report = pcp_evaluate(pred_frames, gt_frames, SYNTH14)
    expected = reference_pcp_counts(pred_frames, gt_frames, SYNTH14)
    first_seen = dict.fromkeys(a for f in gt_frames for a in sorted(f.actors))
    assert list(report.per_actor) == list(first_seen)
    for actor, parts in report.per_actor.items():
        assert list(parts) == list(PARTS)
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


def _stacked(frames):
    """match_run's inputs for frames of (gt actors, predictions, masks),
    each a dict keyed by row: stacked joints, counts and joint mask."""
    gts = [a for g, _, _ in frames for a in g.values()]
    preds = [a for _, p, _ in frames for a in p.values()]
    masks = np.ones((len(gts), N), dtype=bool)
    row = 0
    for gt, _, frame_masks in frames:
        for g in gt:
            masks[row + g] = frame_masks.get(g, True)
        row += len(gt)
    return (np.array(preds).reshape(-1, N, 3), [len(p) for _, p, _ in frames],
            np.array(gts).reshape(-1, N, 3), [len(g) for g, _, _ in frames],
            masks)


@st.composite
def _matching_frames(draw):
    """Frames of (gt actors, predictions, masks), rows keyed 0, 1, ...:
    any (G, P) shape, 0 rows and 0 columns included; predictions near a
    gt actor, repeating another (a tie), far off, at +-1e9 m or holding
    a NaN joint; masks all True, partial or all False."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    frames = []
    for _ in range(draw(st.integers(1, 12))):
        n_gt, n_pred = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        gt = {g: points_near_origin(rng, N) for g in range(n_gt)}
        if gt and draw(st.booleans()):   # two actors in one place
            gt[n_gt - 1] = gt[0].copy()
        preds = {}
        for p in range(n_pred):
            kind = draw(st.sampled_from(["near", "tie", "far", "huge",
                                         "nan"]))
            if kind == "tie" and preds:
                joints = preds[int(rng.integers(p))].copy()
            elif kind == "huge":
                joints = rng.choice([-1e9, 1e9], (N, 3))
            elif kind == "nan":
                joints = points_near_origin(rng, N)
                joints[rng.integers(N), rng.integers(3)] = np.nan
            elif kind == "near" and gt:
                joints = gt[int(rng.integers(n_gt))] + rng.normal(
                    0, 0.1, (N, 3))
            else:
                joints = points_near_origin(rng, N) + 5.0
            preds[p] = joints
        masks = {}
        for g in gt:
            kind = draw(st.sampled_from(["none", "all", "partial", "empty"]))
            if kind != "none":
                masks[g] = {"all": np.ones(N, dtype=bool),
                            "partial": rng.random(N) > 0.4,
                            "empty": np.zeros(N, dtype=bool)}[kind]
        frames.append((gt, preds, masks))
    return frames


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(frames=_matching_frames())
def test_run_matching_equals_the_scalar_greedy_frame_by_frame(frames):
    preds, pred_counts, gts, gt_counts, masks = _stacked(frames)
    table = match_run(preds, pred_counts, gts, gt_counts, masks)
    assert table.dtype == np.int64 and table.shape[1:] == (3,)
    want = []
    pred_row = gt_row = 0
    for f, (gt, pr, frame_masks) in enumerate(frames):
        pairs = reference_match_actors(pr, gt, frame_masks)
        want += sorted((f, gt_row + g, pred_row + p) for g, p in pairs.items())
        pred_row += len(pr)
        gt_row += len(gt)
    assert table.tolist() == [list(t) for t in want]
    # the per-frame call, with and without the masks' all-True rows
    for gt, pr, frame_masks in frames:
        assert match_actors(pr, gt, SYNTH14, frame_masks) == \
            reference_match_actors(pr, gt, frame_masks)

    gt_frames = [GroundTruthFrame(f, gt, masks)
                 for f, (gt, _, masks) in enumerate(frames)]
    pred_frames = [TrackFrame(f, f / 25.0, pr)
                   for f, (_, pr, _) in enumerate(frames)]
    expected = reference_pcp_counts(pred_frames, gt_frames, SYNTH14)
    first_seen = dict.fromkeys(a for f in gt_frames for a in sorted(f.actors))
    want_report = PcpReport(SYNTH14.name, PARTS, {
        a: {part: PartScore(*expected.get(a, {}).get(part, (0, 0)))
            for part in PARTS} for a in first_seen})
    assert pcp_evaluate(pred_frames, gt_frames, SYNTH14).to_records() == \
        want_report.to_records()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cells", [1, 10 ** 12])
def test_report_does_not_depend_on_block_size(monkeypatch, rng, cells):
    pred_frames, gt_frames = random_run(rng, 60, 9, ["none", "all", "partial",
                                                     "empty"], True)
    preds = {p.frame: p.actors for p in pred_frames}
    frames = []
    for g in gt_frames:
        ids, tracks = sorted(g.actors), preds.get(g.frame, {})
        frames.append((dict(enumerate(g.actors[a] for a in ids)),
                       dict(enumerate(tracks[t] for t in sorted(tracks))),
                       {i: g.masks[a] for i, a in enumerate(ids)
                        if a in g.masks}))
    inputs = _stacked(frames)
    report = pcp_evaluate(pred_frames, gt_frames, SYNTH14).to_records()
    table = match_run(*inputs)
    monkeypatch.setattr(evaluation, "_BLOCK_CELLS", cells)
    assert pcp_evaluate(pred_frames, gt_frames, SYNTH14).to_records() == report
    assert np.array_equal(match_run(*inputs), table)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(frames=_matching_frames())
def test_block_distances_round_as_one_norm_per_pair(frames):
    # every frame padded to one (G, P) shape, as a block pads them
    n_gt = max(1, max(len(g) for g, _, _ in frames))
    n_pred = max(1, max(len(p) for _, p, _ in frames))
    pad = np.ones((N, 3))
    gts = np.array([[g.get(i, pad) for i in range(n_gt)] for g, _, _ in frames])
    preds = np.array([[p.get(i, pad) for i in range(n_pred)]
                      for _, p, _ in frames])
    masks = np.array([[m.get(i, np.ones(N, dtype=bool)) for i in range(n_gt)]
                      for _, _, m in frames], dtype=bool)
    dist = evaluation._mean_distances(preds.transpose(3, 1, 0, 2),
                                      gts.transpose(3, 1, 0, 2),
                                      masks.transpose(1, 0, 2))
    want = np.array([[[reference_match_distance(p, g, m)
                       for p in frame_preds] for g, m in zip(frame_gts, ms)]
                     for frame_preds, frame_gts, ms in zip(preds, gts, masks)])
    assert np.array_equal(dist, want, equal_nan=True)
