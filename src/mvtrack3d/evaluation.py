"""Percentage-of-correct-parts scoring of tracked skeletons against
ground truth.

A limb counts as correct when the mean distance of its two estimated
endpoints to the corresponding ground-truth endpoints is at most half the
ground-truth limb length (boundary inclusive). Tracks are matched to
ground-truth actors independently per frame, greedily by smallest mean
joint distance, so scoring follows the closest available track and does
not penalize identity labels.

pcp_evaluate works in two array passes. Per ground-truth frame it stacks
the predictions and the ground truth once, takes the (G, P) matrix of
mean joint distances from one norm call and pairs greedily (_match).
Once per run it scores every matched pair's limbs in one pass
(_limbs_correct) and counts correct and total limbs per (actor, part)
with np.bincount. match_actors and score_actor are the batch-of-one
forms of the same two passes.
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


def score_actor(pred: np.ndarray, gt: np.ndarray, schema: JointSchema,
                mask: np.ndarray | None = None) -> list[tuple[str, bool]]:
    """Per-limb correctness of one prediction against one GT actor.

    Limbs with a masked-out endpoint are skipped entirely.
    """
    ok = _limbs_correct(_stack_joints([pred], schema, "predicted"),
                        _stack_joints([gt], schema, "ground-truth"),
                        schema)[0].tolist()
    return [(part, c) for (part, a, b), c in zip(schema.limbs, ok)
            if mask is None or (mask[a] and mask[b])]


def _match(preds: np.ndarray, gts: np.ndarray, masks: list) -> list:
    """Greedy pairs (gt row, prediction row) of (P, N, 3) predictions and
    (G, N, 3) ground truth, where masks holds each gt row's joint mask or
    None.

    Repeatedly the first free cell in row-major order unless a later one
    is strictly closer: a stable sort of the distances, NaN as inf, is
    scanned for free cells, and a NaN distance, which never compares
    closer, wins only as the first free cell.
    """
    n_preds = len(preds)
    if not len(gts) or not n_preds:
        return []
    d = np.linalg.norm(preds[None] - gts[:, None], axis=3)
    dist = d.mean(axis=2)
    for gi, mask in enumerate(masks):
        if mask is not None:
            # compress keeps rows C-ordered, so each mean rounds as the
            # mean of one row does; d[gi][:, mask] is column-major and
            # sums in another order, which can break a tie the wrong way
            dist[gi] = d[gi].compress(np.asarray(mask, dtype=bool),
                                      axis=1).mean(axis=1)
    nan = np.isnan(dist)
    order = np.argsort(np.where(nan, np.inf, dist), axis=None, kind="stable")
    cells = (divmod(k, n_preds) for k in order.tolist())
    nan = nan.tolist()
    free_g, free_p = list(range(len(gts))), list(range(n_preds))
    pairs = []
    while free_g and free_p:
        gi, pi = free_g[0], free_p[0]
        if not nan[gi][pi]:
            gi, pi = next((g, p) for g, p in cells
                          if g in free_g and p in free_p)
        free_g.remove(gi)
        free_p.remove(pi)
        pairs.append((gi, pi))
    return pairs


def _stack_frame(pred_actors: dict, gt_actors: dict, schema: JointSchema):
    """Sorted ids and stacked joints of one frame's predictions and
    ground truth."""
    pred_ids = sorted(pred_actors)
    gt_ids = sorted(gt_actors)
    preds = _stack_joints([pred_actors[p] for p in pred_ids], schema,
                          "predicted")
    gts = _stack_joints([gt_actors[g] for g in gt_ids], schema,
                        "ground-truth")
    return pred_ids, gt_ids, preds, gts


def match_actors(pred_actors: dict[int, np.ndarray],
                 gt_actors: dict[int, np.ndarray],
                 schema: JointSchema,
                 gt_masks: dict[int, np.ndarray] | None = None,
                 ) -> dict[int, int]:
    """Greedy per-frame matching: repeatedly pair the globally closest
    (gt actor, prediction) by mean joint distance; ties prefer smaller
    ids. Returns {gt actor id: prediction id} for the paired subset."""
    pred_ids, gt_ids, preds, gts = _stack_frame(pred_actors, gt_actors,
                                                schema)
    masks = [(gt_masks or {}).get(g) for g in gt_ids]
    return {gt_ids[gi]: pred_ids[pi] for gi, pi in _match(preds, gts, masks)}


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
    pred_frames = {f.frame: f for f in _frame_list(predictions)}
    parts = schema.part_names
    n_joints = schema.n_joints
    actor_index: dict[int, int] = {}   # first-appearance order
    rows = []    # actor index of every (frame, ground-truth actor) row
    gts = [np.empty((0, n_joints, 3))]  # (G, N, 3) per frame
    masks = []   # joint mask or None per row
    pred_rows = []   # row of every matched pair
    preds = []       # (N, 3) prediction of every matched pair
    for gt_frame in _frame_list(ground_truth):
        pred = pred_frames.get(gt_frame.frame)
        pred_ids, gt_ids, frame_preds, frame_gts = _stack_frame(
            pred.actors if pred is not None else {}, gt_frame.actors, schema)
        gt_masks = getattr(gt_frame, "masks", None) or {}
        frame_masks = [gt_masks.get(g) for g in gt_ids]
        for gi, pi in _match(frame_preds, frame_gts, frame_masks):
            pred_rows.append(len(rows) + gi)
            preds.append(frame_preds[pi])
        rows += [actor_index.setdefault(g, len(actor_index)) for g in gt_ids]
        gts.append(frame_gts)
        masks += frame_masks

    gts = np.concatenate(gts)
    correct = np.zeros((len(rows), len(schema.limbs)), dtype=bool)
    correct[pred_rows] = _limbs_correct(
        np.array(preds).reshape(-1, n_joints, 3), gts[pred_rows], schema)
    every_joint = np.ones(n_joints, dtype=bool)
    joint_mask = np.array([every_joint if m is None else m for m in masks],
                          dtype=bool).reshape(-1, n_joints)
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
