"""Spans around the calls into each layer, recorded from outside `src/`.

The tracker reaches its kernels and `assignment.solve` through module
attributes, and `kernels.reconstruct_joints` / `kernels.assignment_lex`
reach their helpers through module globals (the numpy backend; under
numba the jitted kernels call each other directly and the inner spans
vanish). So replacing those attributes with timing wrappers sees every
call without editing the program. The three tracker stages come from
`PoseTracker.stage_seconds`, which the tracker keeps itself.

A span is [name, start, end, parent index, work counts]. Spans stay in
memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from mvtrack3d import assignment, kernels, tracker

STAGES = ("associate", "reconstruct", "initialize")


def _views_dropped(args, out):
    return (int(args[1].sum() - out.sum()),)


def _joints_triangulated(args, out):
    tri = int((out[1] == kernels.FLAG_TRIANGULATED).sum())
    return (tri, out[1].size - tri)


def _score_cells(args, out):
    return (out.size,)


# (owner, attribute, span name, work counts taken from the call)
PATCHES = (
    (kernels, "score_pose_pairs", "affinity.score", _score_cells),
    (assignment, "solve", "assignment.solve", None),
    (kernels, "hungarian_min", "assignment.hungarian", None),
    (kernels, "reconstruct_joints", "kernels.reconstruct_joints",
     _joints_triangulated),
    (kernels, "filter_tracked_batch", "kernels.filter", _views_dropped),
    (kernels, "triangulate_batch", "kernels.triangulate", None),
    (tracker.Track, "advance", "tracker.advance", None),
    (kernels, "causal_gaussian_smooth", "kernels.smooth", None),
    (kernels, "epipolar_pose_score", "kernels.init_score", None),
    (kernels, "filter_init_mask", "kernels.init_filter", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, ()]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if work is not None:
                rec[4] = work(args, out)
            return out
        return traced

    @contextmanager
    def patched(self):
        """Replace the PATCHES attributes with wrappers, restore on exit."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in PATCHES]
        try:
            for owner, attr, name, work in PATCHES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                               work))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def step(self, pose_tracker, bundle):
        """Call pose_tracker.step(bundle) under a tracker.step span split
        into its three stages.

        The stage lengths are the growth of stage_seconds over the call;
        the stages run back to back from the start of the step. A span
        recorded during the step joins the initialize stage when it starts
        after the step calls `initialize`, else the associate or the
        reconstruct stage by its midpoint.
        """
        before = [pose_tracker.stage_seconds[s] for s in STAGES]
        initialize = pose_tracker.initialize
        init_start = []

        def marked(*args):
            init_start.append(time.perf_counter())
            return initialize(*args)

        pose_tracker.initialize = marked
        try:
            with self.span("tracker.step") as rec:
                first = len(self.spans)
                out = pose_tracker.step(bundle)
        finally:
            del pose_tracker.initialize
        step_index = first - 1
        stage_index = []
        t = rec[1]
        for stage, b in zip(STAGES, before):
            length = pose_tracker.stage_seconds[stage] - b
            stage_index.append(len(self.spans))
            self.spans.append(["tracker." + stage, t, t + length,
                               step_index, ()])
            t += length
        associate_end = self.spans[stage_index[0]][2]
        for child in self.spans[first:stage_index[0]]:
            if child[3] != step_index:
                continue
            if child[1] >= init_start[0]:
                k = 2
            else:
                k = 0 if 0.5 * (child[1] + child[2]) < associate_end else 1
            child[3] = stage_index[k]
        return out

    def paths(self) -> list[str]:
        """Each span's name chain from its root, joined by '/'. Stage spans
        come after their children in the list, so parents are looked up."""
        out = [None] * len(self.spans)

        def path(i):
            if out[i] is None:
                name, _, _, parent, _ = self.spans[i]
                out[i] = name if parent < 0 else path(parent) + "/" + name
            return out[i]

        return [path(i) for i in range(len(self.spans))]

    def summary(self) -> dict:
        """{path: {"calls", "total_s", "self_s", "work"}} over every span."""
        paths = self.paths()
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for i, (name, start, end, parent, work) in enumerate(self.spans):
            agg = out.setdefault(paths[i], {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "work": []})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_s[i]
            if work:
                agg["work"] = [a + b for a, b in zip(agg["work"], work)] \
                    if agg["work"] else list(work)
        return out

    def write(self, path: str, header: dict, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "work": work}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")
