"""The benchmark's hooks into the library: bench/spans.py wraps module
and class attributes by name and reads the tracker's stage timers, so a
rename in `src/` that breaks the benchmark fails here first."""

import os

import numpy as np
import pytest

from mvtrack3d.geometry import CameraRig
from mvtrack3d.tracker import FrameBundle, PoseTracker, TrackerConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import spans
    return spans


def test_traced_steps_record_every_hooked_span(spans, clean_scene):
    # each owner's own entry: a staticmethod put back as a plain function
    # would fail too
    saved = [(owner, attr, vars(owner)[attr])
             for owner, attr, _, _ in spans.PATCHES]
    tracker = PoseTracker(CameraRig(clean_scene.cameras),
                          TrackerConfig(smoothing=True))
    tracer = spans.Tracer()
    with tracer.patched():
        for bundle in clean_scene.bundles[:30]:
            out = tracer.step(tracker, bundle)
    assert len(out) == clean_scene.config.n_actors
    names = {name for name, *_ in tracer.spans}
    assert {"tracker.step", "tracker.associate", "tracker.reconstruct",
            "tracker.initialize", "tracker.advance", "kernels.smooth",
            "kernels.triangulate"} <= names
    for owner, attr, fn in saved:
        assert vars(owner)[attr] is fn, attr


def test_traced_step_over_a_frame_nobody_was_seen_in(spans, clean_scene):
    # live tracks still rebuild from their recent views, so the step
    # records kernel spans that the tracer files by initialize's start
    tracker = PoseTracker(CameraRig(clean_scene.cameras),
                          TrackerConfig(smoothing=True))
    tracer = spans.Tracer()
    with tracer.patched():
        for bundle in clean_scene.bundles[:5]:
            tracer.step(tracker, bundle)
        last = clean_scene.bundles[4]
        empty = FrameBundle(last.frame + 1,
                            last.time_s + 1.0 / clean_scene.config.fps,
                            {}, {}, {})
        first = len(tracer.spans)
        out = tracer.step(tracker, empty)
    assert len(out) == clean_scene.config.n_actors
    names = {name for name, *_ in tracer.spans[first:]}
    assert {"tracker.step", "tracker.initialize", "kernels.triangulate"} \
        <= names


def test_traced_tie_break_records_its_hungarian_solves(spans, clean_scene):
    # a duplicated pose ties its track between two columns, so the
    # assignment's tie-break runs; it must reach the solver through the
    # module attribute the benchmark wraps, or assignment.hungarian_calls
    # reads 0
    saved = [(owner, attr, vars(owner)[attr])
             for owner, attr, _, _ in spans.PATCHES]
    tracker = PoseTracker(CameraRig(clean_scene.cameras),
                          TrackerConfig(smoothing=True))
    for bundle in clean_scene.bundles[:5]:
        tracker.step(bundle)
    bundle = clean_scene.bundles[5]
    cam = clean_scene.cameras[0].cam_id
    poses = dict(bundle.poses)
    valid = dict(bundle.valid)
    poses[cam] = np.concatenate([poses[cam][:1], poses[cam]])
    valid[cam] = np.concatenate([valid[cam][:1], valid[cam]])
    tracer = spans.Tracer()
    with tracer.patched():
        tracer.step(tracker, FrameBundle(bundle.frame, bundle.time_s, poses,
                                         valid, bundle.times))
    assert "tracker.step/tracker.associate/assignment.solve/" \
        "assignment.hungarian" in tracer.paths()
    for owner, attr, fn in saved:
        assert vars(owner)[attr] is fn, attr
