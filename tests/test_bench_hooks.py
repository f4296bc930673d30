"""The benchmark's hooks into the library: bench/spans.py wraps module
and class attributes by name and reads the tracker's stage timers, so a
rename in `src/` that breaks the benchmark fails here first."""

import os

import pytest

from mvtrack3d.geometry import CameraRig
from mvtrack3d.tracker import PoseTracker, TrackerConfig

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
