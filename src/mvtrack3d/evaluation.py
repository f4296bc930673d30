"""Percentage-of-correct-parts scoring of tracked skeletons against
ground truth.

A limb counts as correct when the mean distance of its two estimated
endpoints to the corresponding ground-truth endpoints is at most half the
ground-truth limb length (boundary inclusive). Tracks are matched to
ground-truth actors independently per frame, greedily by smallest mean
joint distance, so scoring follows the closest available track and does
not penalize identity labels.
"""

from __future__ import annotations

import math
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


def _check_joints(arr: np.ndarray, schema: JointSchema, kind: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.shape != (schema.n_joints, 3):
        raise SchemaMismatch(
            f"{kind} joints have shape {arr.shape}, schema "
            f"{schema.name!r} expects ({schema.n_joints}, 3)"
        )
    return arr


def score_actor(pred: np.ndarray, gt: np.ndarray, schema: JointSchema,
                mask: np.ndarray | None = None) -> list[tuple[str, bool]]:
    """Per-limb correctness of one prediction against one GT actor.

    Limbs with a masked-out endpoint are skipped entirely.
    """
    pred = _check_joints(pred, schema, "predicted")
    gt = _check_joints(gt, schema, "ground-truth")
    out = []
    for part, a, b in schema.limbs:
        if mask is not None and not (mask[a] and mask[b]):
            continue
        length = np.linalg.norm(gt[a] - gt[b])
        da = np.linalg.norm(pred[a] - gt[a])
        db = np.linalg.norm(pred[b] - gt[b])
        out.append((part, 0.5 * (da + db) <= 0.5 * length))
    return out


def match_actors(pred_actors: dict[int, np.ndarray],
                 gt_actors: dict[int, np.ndarray],
                 schema: JointSchema,
                 gt_masks: dict[int, np.ndarray] | None = None,
                 ) -> dict[int, int]:
    """Greedy per-frame matching: repeatedly pair the globally closest
    (gt actor, prediction) by mean joint distance; ties prefer smaller
    ids. Returns {gt actor id: prediction id} for the paired subset."""
    gt_ids = sorted(gt_actors)
    pred_ids = sorted(pred_actors)
    if not gt_ids or not pred_ids:
        return {}
    preds = np.stack([_check_joints(pred_actors[p], schema, "predicted")
                      for p in pred_ids])
    dist = np.empty((len(gt_ids), len(pred_ids)))
    for gi, g in enumerate(gt_ids):
        gt_j = _check_joints(gt_actors[g], schema, "ground-truth")
        mask = gt_masks.get(g) if gt_masks else None
        d = np.linalg.norm(preds - gt_j, axis=2)
        if mask is not None:
            d = d[:, np.asarray(mask, dtype=bool)]
        dist[gi] = d.mean(axis=1)
    # the first free cell in row-major order unless a later one is strictly
    # closer: a NaN distance never compares closer, so it wins only in
    # first place, and elsewhere ranks as inf
    key = np.where(np.isnan(dist), np.inf, dist)
    free_g = list(range(len(gt_ids)))
    free_p = list(range(len(pred_ids)))
    matches: dict[int, int] = {}
    while free_g and free_p:
        k = 0 if math.isnan(dist[free_g[0], free_p[0]]) \
            else int(key[free_g][:, free_p].argmin())
        gi = free_g.pop(k // len(free_p))
        pi = free_p.pop(k % len(free_p))
        matches[gt_ids[gi]] = pred_ids[pi]
    return matches


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
    per_actor: dict[int, dict[str, PartScore]] = {}

    for gt_frame in _frame_list(ground_truth):
        pred = pred_frames.get(gt_frame.frame)
        pred_actors = pred.actors if pred is not None else {}
        gt_masks = getattr(gt_frame, "masks", None) or {}
        matches = match_actors(pred_actors, gt_frame.actors, schema, gt_masks)
        for aid in sorted(gt_frame.actors):
            scores = per_actor.setdefault(
                aid, {part: PartScore() for part in parts}
            )
            mask = gt_masks.get(aid)
            if aid in matches:
                results = score_actor(pred_actors[matches[aid]],
                                      gt_frame.actors[aid], schema, mask)
            else:
                results = [
                    (part, False) for part, a, b in schema.limbs
                    if mask is None or (mask[a] and mask[b])
                ]
            for part, ok in results:
                s = scores[part]
                scores[part] = PartScore(s.correct + int(ok), s.total + 1)

    return PcpReport(schema_name=schema.name, parts=parts,
                     per_actor=per_actor)
