"""Percentage-of-correct-parts scoring of tracked skeletons against
ground truth.

A limb counts as correct when the mean distance of its two estimated
endpoints to the corresponding ground-truth endpoints is at most half the
ground-truth limb length (boundary inclusive). Tracks are matched to
ground-truth actors independently per frame, greedily by smallest mean
joint distance, so scoring follows the closest available track and does
not penalize identity labels.

pcp_evaluate works in array passes over the whole run. It stacks the
run's ground truth, and the predictions of the frames it covers, into
one array each, frame by frame in sorted-id order. match_run pairs every
frame at once, in blocks of frames padded to the block's largest: it
takes every mean joint distance of a block from per-component arrays
and runs the greedy rule across the block's frames together, one pair
per frame per step. Its (frame, gt row, prediction row) table feeds
_limbs_correct, which scores the matched pairs' limbs in slices of
_BLOCK_CELLS joints, and np.bincount counts correct and total limbs per
(actor, part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaMismatch
from .schema import JointSchema


@dataclass(frozen=True)
class PartScore:
    correct: int = 0
    total: int = 0

    @property
    def pcp(self) -> float:
        return 100.0 * self.correct / self.total if self.total else 0.0

    def plus(self, other: "PartScore") -> "PartScore":
        return PartScore(self.correct + other.correct,
                         self.total + other.total)


def _stack_joints(arrays: list, schema: JointSchema, kind: str) -> np.ndarray:
    """(K, N, 3) float array of K joint arrays, each of the schema's shape."""
    shape = (schema.n_joints, 3)
    if not arrays:
        return np.empty((0, *shape))
    try:
        out = np.array(arrays, dtype=np.float64)
        if out.shape[1:] == shape:
            return out
    except ValueError:   # ragged shapes or values that are not numbers
        pass
    bad = [np.shape(a) for a in arrays if np.shape(a) != shape]
    raise SchemaMismatch(
        f"{kind} joints have shape {bad[0]}, schema {schema.name!r} "
        f"expects {shape}" if bad else f"{kind} joints must be numbers")


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x (L,3), rounded as np.linalg.norm
    rounds one vector: matmul of (1,3) by (3,1) takes the same dot
    product path, which a sum of squares need not match."""
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _limbs_correct(preds: np.ndarray, gts: np.ndarray,
                   schema: JointSchema) -> np.ndarray:
    """(K, L) correctness of every limb of K (prediction, ground truth)
    pairs of (K, N, 3) joints, all limb norms in one _norms pass."""
    a, b = np.array([limb[1:] for limb in schema.limbs]).T
    vectors = np.stack((gts[:, a] - gts[:, b], preds[:, a] - gts[:, a],
                        preds[:, b] - gts[:, b]))
    length, da, db = _norms(vectors.reshape(-1, 3)).reshape(vectors.shape[:3])
    return 0.5 * (da + db) <= 0.5 * length


# Joint distance cells (frames x ground-truth rows x prediction rows x
# joints) that one block of match_run holds, and joints of the matched
# pairs that one _limbs_correct call scores: about 0.5 MB per float64
# array, so memory stays bounded for a run of any length.
_BLOCK_CELLS = 1 << 16


def _mean_distances(pc: np.ndarray, gc: np.ndarray,
                    joint_mask: np.ndarray) -> np.ndarray:
    """(B, G, P) mean joint distance of every (gt row, prediction row) of
    B frames, from (3, P, B, N) prediction and (3, G, B, N) ground-truth
    components and the (G, B, N) joints each gt row averages over.

    Each joint distance is sqrt((dx*dx + dy*dy) + dz*dz), as
    np.linalg.norm rounds it, and each mean reduces a contiguous row of
    joints, as the mean of one distance vector does. A masked row takes
    its kept joints, in joint order, into rows of equal length first, so
    its mean rounds as the mean of those joints alone does. Frames sit
    inside the (G, P) cells, so each elementwise pass runs over B * N
    contiguous values at a time."""
    d = np.subtract(pc[0][None], gc[0][:, None])
    d *= d
    for k in (1, 2):
        diff = np.subtract(pc[k][None], gc[k][:, None])
        diff *= diff
        d += diff
    del diff
    np.sqrt(d, out=d)
    dist = d.mean(axis=3)
    mg, mb = np.nonzero(~joint_mask.all(axis=2))
    kept = joint_mask[mg, mb]
    count = kept.sum(axis=1)
    for k in np.unique(count).tolist():
        sel = count == k
        g, b = mg[sel], mb[sel]
        if k == 0:   # no joint to average
            dist[g, :, b] = np.nan
            continue
        cols = np.nonzero(kept[sel])[1].reshape(-1, 1, k)
        dist[g, :, b] = np.take_along_axis(d[g, :, b], cols,
                                           axis=2).mean(axis=2)
    return dist.transpose(2, 0, 1)


def _greedy_block(dist: np.ndarray, n_gt: np.ndarray, n_pred: np.ndarray):
    """Greedy pairs of B frames at once: dist is (B, G, P), frame b's real
    cells its first n_gt[b] rows and n_pred[b] columns, and the frames
    come in non-increasing min(n_gt, n_pred). Returns the (3, K) frame,
    gt row and prediction row of every pair.

    Per frame, each step takes the first free cell in row-major order if
    its distance is NaN, else the free cell of smallest distance (NaN
    read as inf), the first in row-major order on a tie. A step works on
    the frames that still pair, a prefix of the block."""
    n_frames, n_rows, n_cols = dist.shape
    rows_free = np.arange(n_rows) < n_gt[:, None]
    cols_free = np.arange(n_cols) < n_pred[:, None]
    nan = np.isnan(dist)
    # the distances of free cells, inf elsewhere; key is a view of flat
    flat = np.where(rows_free[:, :, None] & cols_free[:, None, :] & ~nan,
                    dist, np.inf).reshape(n_frames, -1)
    key = flat.reshape(dist.shape)
    nan = nan.reshape(n_frames, -1)
    steps = np.minimum(n_gt, n_pred)
    active = np.count_nonzero(steps > np.arange(steps.max())[:, None], axis=1)
    pairs = []
    for n in active.tolist():
        b = np.arange(n)
        best = flat[:n].argmin(axis=1)
        g, p = rows_free[:n].argmax(axis=1), cols_free[:n].argmax(axis=1)
        # all free cells at inf tie, so the first free cell wins then too
        first = nan[b, g * n_cols + p] | (flat[b, best] == np.inf)
        g = np.where(first, g, best // n_cols)
        p = np.where(first, p, best % n_cols)
        key[b, g] = np.inf
        key[b, :, p] = np.inf
        rows_free[b, g] = False
        cols_free[b, p] = False
        pairs.append(np.stack((b, g, p)))
    return np.concatenate(pairs, axis=1)


def match_run(preds: np.ndarray, pred_counts, gts: np.ndarray, gt_counts,
              joint_mask: np.ndarray) -> np.ndarray:
    """Greedy pairs of every frame of a run, by mean joint distance.

    preds (P, N, 3) and gts (G, N, 3) stack the run's frames in order,
    frame f holding pred_counts[f] and gt_counts[f] rows; joint_mask
    (G, N) holds the joints each gt row averages over. Returns an
    int64 (K, 3) table of (frame, gt row, prediction row), in gt row
    order, rows indexing preds and gts.

    Frames are matched in blocks of at most _BLOCK_CELLS joint distance
    cells, or of one frame that holds more (see _mean_distances and
    _greedy_block)."""
    pred_counts = np.asarray(pred_counts, dtype=np.int64)
    gt_counts = np.asarray(gt_counts, dtype=np.int64)
    pred_start = np.cumsum(pred_counts) - pred_counts
    gt_start = np.cumsum(gt_counts) - gt_counts
    steps = np.minimum(gt_counts, pred_counts)
    # frames with a pair, most pairs first: a block's steps then work on
    # a prefix of its frames
    frames = np.argsort(-steps, kind="stable")[:np.count_nonzero(steps)]
    if not len(frames):
        return np.empty((0, 3), dtype=np.int64)
    cells = int((gt_counts * pred_counts)[frames].max()) * gts.shape[1]
    per_block = max(1, _BLOCK_CELLS // cells)
    pc, gc = preds.transpose(2, 0, 1), gts.transpose(2, 0, 1)
    tables = []
    for lo in range(0, len(frames), per_block):
        block = frames[lo:lo + per_block]
        n_pred, n_gt = pred_counts[block], gt_counts[block]
        # padding repeats the frame's last row and is never paired
        p_rows = pred_start[block, None] + np.minimum(
            np.arange(n_pred.max()), n_pred[:, None] - 1)
        g_rows = gt_start[block, None] + np.minimum(
            np.arange(n_gt.max()), n_gt[:, None] - 1)
        dist = _mean_distances(pc[:, p_rows.T], gc[:, g_rows.T],
                               joint_mask[g_rows.T])
        b, g, p = _greedy_block(dist, n_gt, n_pred)
        tables.append(np.stack((block[b], g_rows[b, g], p_rows[b, p]),
                               axis=1))
    table = np.concatenate(tables)
    return table[np.argsort(table[:, 1])]


def _joint_masks(masks: dict, n_rows: int, n_joints: int) -> np.ndarray:
    """(n_rows, N) joint masks from masks, {row: mask}, all True in the
    other rows."""
    out = np.ones((n_rows, n_joints), dtype=bool)
    if masks:
        out[list(masks)] = np.array(list(masks.values()), dtype=bool
                                    ).reshape(len(masks), n_joints)
    return out


@dataclass
class PcpReport:
    schema_name: str
    parts: tuple[str, ...]
    per_actor: dict[int, dict[str, PartScore]]

    def actor_score(self, actor: int) -> PartScore:
        return _sum_scores(self.per_actor[actor].values())

    def part_totals(self) -> dict[str, PartScore]:
        return {
            part: _sum_scores(
                scores[part] for scores in self.per_actor.values()
            )
            for part in self.parts
        }

    @property
    def overall(self) -> float:
        return _sum_scores(
            score for scores in self.per_actor.values()
            for score in scores.values()
        ).pcp

    def to_records(self) -> list[dict]:
        records = []
        for actor in sorted(self.per_actor):
            for part in self.parts:
                s = self.per_actor[actor][part]
                records.append({"actor": actor, "part": part,
                                "correct": s.correct, "total": s.total,
                                "pcp": round(s.pcp, 6)})
            s = self.actor_score(actor)
            records.append({"actor": actor, "part": "average",
                            "correct": s.correct, "total": s.total,
                            "pcp": round(s.pcp, 6)})
        s = _sum_scores(score for scores in self.per_actor.values()
                        for score in scores.values())
        records.append({"actor": "all", "part": "average",
                        "correct": s.correct, "total": s.total,
                        "pcp": round(s.pcp, 6)})
        return records

    def to_text(self) -> str:
        lines = [f"{'actor':>6} {'part':<12} {'correct':>8} {'total':>8} "
                 f"{'pcp':>7}"]
        for rec in self.to_records():
            lines.append(
                f"{rec['actor']!s:>6} {rec['part']:<12} "
                f"{rec['correct']:>8d} {rec['total']:>8d} "
                f"{rec['pcp']:>7.2f}"
            )
        return "\n".join(lines)


def _sum_scores(scores) -> PartScore:
    out = PartScore()
    for s in scores:
        out = out.plus(s)
    return out


def _frame_list(source):
    if hasattr(source, "frames"):
        return source.frames
    return list(source)


def pcp_evaluate(predictions, ground_truth, schema: JointSchema) -> PcpReport:
    """Score predictions (objects with .frame and .actors, or a loaded
    tracks file) against ground truth of the same joint schema.

    Ground-truth frames missing from the predictions count every limb
    incorrect, as do unmatched ground-truth actors.
    """
    pred_frames = {f.frame: f.actors for f in _frame_list(predictions)}
    parts = schema.part_names
    n_joints = schema.n_joints
    actor_index: dict[int, int] = {}   # first-appearance order
    rows = []    # actor index of every (frame, ground-truth actor) row
    gt_joints, pred_joints = [], []    # (N, 3) per row, frame by frame
    gt_counts, pred_counts = [], []    # rows per frame
    masks = {}   # joint mask of each masked gt row
    for gt_frame in _frame_list(ground_truth):
        actors = pred_frames.get(gt_frame.frame, {})
        pred_ids = sorted(actors)
        pred_joints += map(actors.__getitem__, pred_ids)
        pred_counts.append(len(pred_ids))
        gt_ids = sorted(gt_frame.actors)
        gt_masks = getattr(gt_frame, "masks", None)
        if gt_masks:
            masks.update((len(rows) + i, gt_masks[g])
                         for i, g in enumerate(gt_ids) if g in gt_masks)
        gt_joints += map(gt_frame.actors.__getitem__, gt_ids)
        gt_counts.append(len(gt_ids))
        rows += [actor_index.setdefault(g, len(actor_index)) for g in gt_ids]

    preds = _stack_joints(pred_joints, schema, "predicted")
    gts = _stack_joints(gt_joints, schema, "ground-truth")
    joint_mask = _joint_masks(masks, len(rows), n_joints)
    _, gt_rows, pred_rows = match_run(preds, pred_counts, gts, gt_counts,
                                      joint_mask).T
    correct = np.zeros((len(rows), len(schema.limbs)), dtype=bool)
    per_slice = max(1, _BLOCK_CELLS // n_joints)
    for lo in range(0, len(gt_rows), per_slice):
        g, p = gt_rows[lo:lo + per_slice], pred_rows[lo:lo + per_slice]
        correct[g] = _limbs_correct(preds[p], gts[g], schema)
    a, b = np.array([limb[1:] for limb in schema.limbs]).T
    counted = joint_mask[:, a] & joint_mask[:, b]
    # one bincount cell per (actor, part), in actor_index order
    limb_part = [parts.index(limb[0]) for limb in schema.limbs]
    cell = (np.array(rows, dtype=np.int64)[:, None] * len(parts)
            + limb_part).ravel()
    right, total = (
        np.bincount(cell, weight.ravel(), len(actor_index) * len(parts))
        .astype(np.int64).reshape(-1, len(parts)).tolist()
        for weight in (counted & correct, counted))
    per_actor = {
        actor: {part: PartScore(c, t)
                for part, c, t in zip(parts, right[k], total[k])}
        for actor, k in actor_index.items()
    }
    return PcpReport(schema_name=schema.name, parts=parts,
                     per_actor=per_actor)
