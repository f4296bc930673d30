"""Checks of the tracker's output, computed apart from the program.

Files are read back with plain `json`, and matching, limb scoring, the
identity ledger and the camera geometry are written here from their
definitions. Nothing is taken from `mvtrack3d.evaluation` or from the
test helpers, so a fault there cannot hide a fault in the tracks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from mvtrack3d.tracker import JointFlag

# The tracks format's flag letters, by meaning.
FLAG_LETTER = {
    int(JointFlag.TRIANGULATED): "T",
    int(JointFlag.PREDICTED): "P",
    int(JointFlag.MISSING): "M",
}

# A track follows an actor only when its mean joint distance to the actor
# is below this; a farther greedy pairing follows no one.
FOLLOW_GATE_M = 0.5
# Margin the visibility check keeps from the image border, as
# test_all_actors_stay_visible_in_all_cameras does.
IMAGE_MARGIN_PX = 5.0
MIN_HIP_GAP_M = 0.40


def read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@dataclass
class Cameras:
    K: np.ndarray       # (C,3,3)
    R: np.ndarray       # (C,3,3)
    o: np.ndarray       # (C,3)
    size: np.ndarray    # (C,2) width, height


def read_cameras(path: str) -> Cameras:
    recs = read_jsonl(path)[1:]
    return Cameras(
        K=np.array([r["K"] for r in recs], dtype=float).reshape(-1, 3, 3),
        R=np.array([r["R"] for r in recs], dtype=float).reshape(-1, 3, 3),
        o=np.array([r["o"] for r in recs], dtype=float),
        size=np.array([[r["width"], r["height"]] for r in recs], dtype=float),
    )


def camera_coords(cams: Cameras, pts: np.ndarray) -> np.ndarray:
    """World points (M,3) in every camera's frame, (C,M,3): R (X - o)."""
    d = pts[None, :, :] - cams.o[:, None, :]
    return np.einsum("cij,cmj->cmi", cams.R, d)


def read_ground_truth(path: str) -> dict:
    """{frame: (actor ids, joints (A,N,3))} from a ground-truth file."""
    recs = read_jsonl(path)
    n = recs[0]["n_joints"]
    out = {}
    for rec in recs[1:]:
        ids = [a["id"] for a in rec["actors"]]
        joints = np.array([a["joints"] for a in rec["actors"]],
                          dtype=float).reshape(len(ids), n, 3)
        out[rec["frame"]] = (ids, joints)
    return out


@dataclass
class TrackRecord:
    frame: int
    ids: list
    joints: np.ndarray   # (K,N,3)
    letters: np.ndarray  # (K,N) flag letters


def read_tracks(path: str) -> tuple[dict, list]:
    recs = read_jsonl(path)
    n = recs[0]["n_joints"]
    out = []
    for rec in recs[1:]:
        rows = [t["joints"] for t in rec["tracks"]]
        k = len(rows)
        joints = np.array([[r[:3] for r in t] for t in rows],
                          dtype=float).reshape(k, n, 3)
        letters = np.array([[r[3] for r in t] for t in rows],
                           dtype=object).reshape(k, n)
        out.append(TrackRecord(rec["frame"], [t["id"] for t in rec["tracks"]],
                               joints, letters))
    return recs[0], out


def readback_problems(records: list, emitted: list) -> list[str]:
    """The tracks file against what `step` returned, frame by frame.

    emitted holds (frame, [(track id, Skeleton3D)]) in input order. Joints
    must be equal to the last bit, since the format writes floats by repr.
    """
    problems = []
    if len(records) != len(emitted):
        return [f"tracks file has {len(records)} frame records, "
                f"{len(emitted)} frames were stepped"]
    for rec, (frame, out) in zip(records, emitted):
        ids = [tid for tid, _ in out]
        if rec.frame != frame:
            problems.append(f"record for frame {rec.frame} where frame "
                            f"{frame} was stepped")
        elif rec.ids != ids:
            problems.append(f"frame {frame}: ids {rec.ids} in the file, "
                            f"{ids} from step")
        elif len(set(ids)) != len(ids):
            problems.append(f"frame {frame}: repeated track id in {ids}")
        elif ids:
            joints = np.stack([sk.joints for _, sk in out])
            letters = np.vectorize(FLAG_LETTER.get, otypes=[object])(
                np.stack([sk.flags for _, sk in out]))
            if not np.array_equal(rec.joints, joints):
                problems.append(f"frame {frame}: joints differ from step")
            if not np.array_equal(rec.letters, letters):
                problems.append(f"frame {frame}: flags differ from step")
        if len(problems) >= 5:
            break
    return problems


def greedy_match(dist: np.ndarray) -> list[tuple[int, int]]:
    """Pair rows and columns by repeatedly taking the smallest remaining
    distance; ties go to the smaller row, then the smaller column."""
    d = np.array(dist, dtype=float)
    pairs = []
    for _ in range(min(d.shape)):
        r, c = divmod(int(np.argmin(d)), d.shape[1])
        pairs.append((r, c))
        d[r, :] = np.inf
        d[:, c] = np.inf
    return pairs


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=-1))


@dataclass
class Score:
    """Limb counts, T-joint error and identities of one tracks file."""

    parts: dict = field(default_factory=dict)   # (actor, part) -> [ok, total]
    err_sum_m: float = 0.0
    err_joints: int = 0
    actors_of: dict = field(default_factory=dict)   # track id -> {actors}
    switches: int = 0   # times an actor's followed track id changed

    @property
    def pcp(self) -> float:
        ok = sum(c[0] for c in self.parts.values())
        total = sum(c[1] for c in self.parts.values())
        return 100.0 * ok / total if total else 0.0

    @property
    def joint_err_mm(self) -> float:
        return 1e3 * self.err_sum_m / self.err_joints if self.err_joints \
            else float("nan")


def score(records: list, gt: dict, limbs) -> Score:
    """PCP counts per (actor, part), mean error of T joints of matched
    tracks, and the identity ledger.

    Per ground-truth frame, tracks are paired greedily with actors by mean
    joint distance. A limb is correct when the mean distance of its two
    endpoints to the ground truth is at most half the limb's length; every
    limb of an unpaired actor is wrong.
    """
    out = Score()
    by_frame = {r.frame: r for r in records}
    limb_a = np.array([a for _, a, _ in limbs])
    limb_b = np.array([b for _, _, b in limbs])
    last_track = {}
    for frame in sorted(gt):
        aids, gtj = gt[frame]
        rec = by_frame.get(frame)
        pairs = []
        if rec is not None and rec.ids and aids:
            dist = _norm(gtj[:, None] - rec.joints[None]).mean(axis=-1)
            pairs = [(aids[r], c, dist[r, c]) for r, c in greedy_match(dist)]
        paired = {aid: c for aid, c, _ in pairs}
        for ai, aid in enumerate(aids):
            g = gtj[ai]
            if aid in paired:
                p = rec.joints[paired[aid]]
                half = 0.5 * _norm(g[limb_a] - g[limb_b])
                ok = 0.5 * (_norm(p[limb_a] - g[limb_a])
                            + _norm(p[limb_b] - g[limb_b])) <= half
            else:
                ok = np.zeros(len(limbs), dtype=bool)
            for (part, _, _), hit in zip(limbs, ok):
                count = out.parts.setdefault((aid, part), [0, 0])
                count[0] += int(hit)
                count[1] += 1
        for aid, c, d in pairs:
            tri = rec.letters[c] == "T"
            g = gtj[aids.index(aid)]
            out.err_sum_m += float(_norm(rec.joints[c][tri] - g[tri]).sum())
            out.err_joints += int(tri.sum())
            if d > FOLLOW_GATE_M:
                continue
            tid = rec.ids[c]
            out.actors_of.setdefault(tid, set()).add(aid)
            if aid in last_track and last_track[aid] != tid:
                out.switches += 1
            last_track[aid] = tid
    return out


def report_problems(report, mine: Score) -> list[str]:
    """pcp_evaluate's per-actor, per-part counts against this scorer's."""
    theirs = {(aid, part): [s.correct, s.total]
              for aid, parts in report.per_actor.items()
              for part, s in parts.items()}
    if theirs == mine.parts:
        return []
    diff = sorted(k for k in set(theirs) | set(mine.parts)
                  if theirs.get(k) != mine.parts.get(k))
    return [f"pcp_evaluate counts differ from the benchmark's scorer at "
            f"{len(diff)} (actor, part) cells, first {diff[0]}: "
            f"{theirs.get(diff[0])} against {mine.parts.get(diff[0])}"]


def geometry_problems(records: list, cams: Cameras) -> list[str]:
    """Every joint finite, and no T joint behind any camera of the rig."""
    problems = []
    joints = [r.joints.reshape(-1, 3) for r in records if r.ids]
    letters = [r.letters.reshape(-1) for r in records if r.ids]
    if not joints:
        return ["no track was ever emitted"]
    joints = np.concatenate(joints)
    tri = np.concatenate(letters) == "T"
    if not np.isfinite(joints).all():
        problems.append(f"{int((~np.isfinite(joints)).any(axis=1).sum())} "
                        f"joints are not finite")
    depth = camera_coords(cams, joints[tri])[..., 2]
    behind = int((depth <= 0.0).any(axis=0).sum())
    if behind:
        problems.append(f"{behind} T joints lie behind a camera")
    return problems


def visibility_problems(gt: dict, cams: Cameras, hip: int) -> list[str]:
    """Every ground-truth joint projects inside every image with a margin,
    and no two actors' hips come closer than MIN_HIP_GAP_M."""
    problems = []
    frames = [gt[f][1] for f in sorted(gt) if gt[f][0]]
    pts = np.concatenate([j.reshape(-1, 3) for j in frames])
    xc = camera_coords(cams, pts)
    h = np.einsum("cij,cmj->cmi", cams.K, xc)
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = h[..., :2] / h[..., 2:]
    size = cams.size[:, None, :]
    margin = np.minimum(uv - IMAGE_MARGIN_PX,
                        size - IMAGE_MARGIN_PX - uv).min(axis=-1)
    inside = (xc[..., 2] > 0.0) & (margin > 0.0)
    if not inside.all():
        problems.append(f"{int((~inside).sum())} joint projections fall "
                        f"outside an image (closest {margin.min():.1f} px "
                        f"inside the {IMAGE_MARGIN_PX:g} px margin)")
    for joints in frames:
        hips = joints[:, hip]
        gap = _norm(hips[:, None] - hips[None])
        gap[np.diag_indices(len(hips))] = np.inf
        if gap.min() < MIN_HIP_GAP_M:
            problems.append(f"two actors' hips come {gap.min():.2f} m apart")
            break
    return problems


def reentry_problems(records: list, present, n_actors: int,
                     miss_limit: int) -> list[str]:
    """Tracks under the leave-and-return schedule.

    Every entry of the actors births one track per actor, no id comes back
    after it leaves the output, each id follows one actor, and no track is
    emitted for more than miss_limit frames after its actor leaves.
    """
    problems = []
    frames = [r.frame for r in records]
    entries = sum(1 for i, f in enumerate(frames)
                  if present(f) and (i == 0 or not present(frames[i - 1])))
    life = {}
    for i, r in enumerate(records):
        for tid in r.ids:
            life.setdefault(tid, []).append(i)
    if len(life) != n_actors * entries:
        problems.append(f"{len(life)} tracks born for {entries} entries of "
                        f"{n_actors} actors")
    reused = [tid for tid, idx in life.items()
              if idx[-1] - idx[0] + 1 != len(idx)]
    if reused:
        problems.append(f"track ids {reused[:5]} come back after leaving")
    lingering = [tid for tid, idx in life.items()
                 if sum(not present(frames[i]) for i in idx) > miss_limit]
    if lingering:
        problems.append(f"tracks {lingering[:5]} outlive the miss limit "
                        f"of {miss_limit} frames")
    return problems


def identity_problems(mine: Score) -> list[str]:
    changed = sorted(tid for tid, aids in mine.actors_of.items()
                     if len(aids) > 1)
    if changed:
        return [f"track ids {changed[:5]} follow more than one actor"]
    return []
