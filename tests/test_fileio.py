"""Line-delimited JSON readers and writers."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvtrack3d import fileio
from mvtrack3d.affinity import AffinityConfig
from mvtrack3d.errors import (
    NonMonotonicFrames,
    ParseError,
    ValidationError,
)
from mvtrack3d.fileio import (
    GroundTruthFrame,
    TrackWriter,
    load_calibration,
    load_config_file,
    load_corruption,
    load_detections,
    load_ground_truth,
    load_tracks,
    save_calibration,
    save_ground_truth,
    write_corruption,
    write_detections,
)
from mvtrack3d.schema import SYNTH14
from mvtrack3d.tracker import Skeleton3D

from helpers import (
    look_at_camera,
    points_near_origin,
    random_ring_rig,
    reference_detections_text,
    reference_ground_truth_text,
    reference_read_detections,
    reference_tracks_text,
)

N = SYNTH14.n_joints

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- calibration ----------------------------------------------------------


def test_shipped_sample_calibration_loads_three_cameras():
    path = os.path.join(REPO_ROOT, "data", "sample_calibration.jsonl")
    cams = load_calibration(path)
    assert [c.cam_id for c in cams] == [0, 1, 2]


def test_calibration_roundtrip_is_bit_exact(tmp_path, rng):
    cams = random_ring_rig(rng, n_cams=4)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_calibration(cams, str(first))
    loaded = load_calibration(str(first))
    for cam, back in zip(cams, loaded):
        assert np.array_equal(cam.K, back.K)
        assert np.array_equal(cam.R, back.R)
        assert np.array_equal(cam.o, back.o)
        assert (cam.width, cam.height, cam.fps) == (back.width, back.height,
                                                    back.fps)
    save_calibration(loaded, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_calibration_rejects_reflected_rotation(tmp_path):
    path = tmp_path / "bad.jsonl"
    header = {"format": "mvtrack3d/calibration", "format_version": 1}
    record = {
        "id": 0,
        "K": [700.0, 0.0, 400.0, 0.0, 700.0, 300.0, 0.0, 0.0, 1.0],
        "R": [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0],
        "o": [0.0, 0.0, 0.0],
        "width": 800, "height": 600, "fps": 25.0,
    }
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValidationError) as err:
        load_calibration(str(path))
    assert "determinant" in str(err.value)
    assert "bad.jsonl:2" in str(err.value)


def test_calibration_header_is_checked(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"format":"mvtrack3d/tracks","format_version":1}\n')
    with pytest.raises(ParseError, match="calibration"):
        load_calibration(str(path))
    path.write_text('{"format":"mvtrack3d/calibration","format_version":9}\n')
    with pytest.raises(ParseError, match="format_version"):
        load_calibration(str(path))
    path.write_text("")
    with pytest.raises(ParseError, match="header"):
        load_calibration(str(path))


# -- detections -----------------------------------------------------------


def detection_rows(rng, frames=4, cams=2, people=2):
    for f in range(frames):
        for c in range(cams):
            poses = rng.uniform(0.0, 500.0, size=(people, N, 3))
            poses[:, :, 2] = rng.uniform(0.5, 1.0, size=(people, N))
            yield f, f / 25.0, c, poses


def test_detections_roundtrip(tmp_path, rng):
    rows = list(detection_rows(rng))
    path = tmp_path / "det.jsonl"
    write_detections(rows, str(path), SYNTH14.name, N)
    bundles = list(load_detections(str(path)))
    assert [b.frame for b in bundles] == [0, 1, 2, 3]
    for b, f in zip(bundles, range(4)):
        assert b.time_s == f / 25.0
        for c in range(2):
            original = next(r[3] for r in rows if r[0] == f and r[2] == c)
            for pose, orig in zip(b.poses[c], original):
                assert np.array_equal(pose.uv, orig[:, :2])
                assert np.array_equal(pose.conf, orig[:, 2])
                assert pose.frame == f
    assert all(p.valid.all() for b in bundles
               for poses in b.poses.values() for p in poses)


def test_detections_validity_recomputed_from_confidence(tmp_path, rng):
    rows = list(detection_rows(rng, frames=1, cams=1, people=1))
    rows[0][3][0, 3, 2] = 0.05  # one joint below the default floor
    path = tmp_path / "det.jsonl"
    write_detections(rows, str(path), SYNTH14.name, N)
    bundle = next(load_detections(str(path)))
    pose = bundle.poses[0][0]
    assert not pose.valid[3]
    strict = AffinityConfig(conf_floor=0.9)
    bundle = next(load_detections(str(path), config=strict))
    assert bundle.poses[0][0].valid.sum() < N


def test_detections_reject_frame_regressions(tmp_path, rng):
    rows = list(detection_rows(rng))
    rows[2], rows[6] = rows[6], rows[2]
    path = tmp_path / "det.jsonl"
    write_detections(rows, str(path), SYNTH14.name, N)
    with pytest.raises(NonMonotonicFrames, match="after frame"):
        list(load_detections(str(path)))


def test_detections_parse_errors_carry_line_numbers(tmp_path, rng):
    path = tmp_path / "det.jsonl"
    write_detections(detection_rows(rng, frames=2), str(path),
                     SYNTH14.name, N)
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-20]  # truncate a record mid-JSON
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"det\.jsonl:3"):
        list(load_detections(str(path)))


def test_detections_reject_malformed_pose_shape(tmp_path):
    path = tmp_path / "det.jsonl"
    header = {"format": "mvtrack3d/detections", "format_version": 1,
              "schema": SYNTH14.name, "n_joints": N}
    record = {"frame": 0, "camera": 0, "time_s": 0.0,
              "poses": [[[1.0, 2.0, 0.9]] * 5]}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError, match="shape"):
        list(load_detections(str(path)))


def test_detections_missing_field_is_reported(tmp_path):
    path = tmp_path / "det.jsonl"
    header = {"format": "mvtrack3d/detections", "format_version": 1,
              "schema": SYNTH14.name, "n_joints": N}
    record = {"frame": 0, "camera": 0, "poses": []}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError, match="time_s"):
        list(load_detections(str(path)))


# The batched reader against a one-joint-at-a-time reference. Pixels and
# confidences mix ordinary values with non-finite ones and with the exact
# floor and image-margin boundaries (800x600 images, 10 px margin) and
# their neighbouring floats, so a flipped comparison or a dropped term
# changes some joint's validity. A record may hold no poses (`[]`), which
# must leave its camera in the bundle with an empty list.
_FLOOR = 0.1
_MARGIN = 10.0
_EDGES_U = [-10.0, math.nextafter(-10.0, -math.inf), 810.0,
            math.nextafter(810.0, math.inf), -0.0]
_EDGES_V = [-10.0, math.nextafter(-10.0, -math.inf), 610.0,
            math.nextafter(610.0, math.inf)]
_NON_FINITE = [math.nan, math.inf, -math.inf]
_PIXELS_U = st.one_of(st.floats(-40.0, 850.0),
                      st.sampled_from(_EDGES_U + _NON_FINITE))
_PIXELS_V = st.one_of(st.floats(-40.0, 650.0),
                      st.sampled_from(_EDGES_V + _NON_FINITE))
_CONFS = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [_FLOOR, math.nextafter(_FLOOR, 0.0), 1.0] + _NON_FINITE))


@st.composite
def _detection_records(draw, n_joints=3):
    records = []
    frame = 0
    for _ in range(draw(st.integers(1, 5))):
        frame += draw(st.integers(0, 2))
        time_s = frame / 25.0 + draw(st.sampled_from([0.0, 0.001]))
        cam_id = draw(st.integers(0, 2))
        n_poses = draw(st.integers(0, 3))
        poses = [[[draw(_PIXELS_U), draw(_PIXELS_V), draw(_CONFS)]
                  for _ in range(n_joints)] for _ in range(n_poses)]
        records.append((frame, time_s, cam_id, poses))
    return records


@settings(max_examples=200, deadline=None)
@given(records=_detection_records(), with_cameras=st.booleans())
def test_batched_reader_matches_per_joint_reference(tmp_path_factory,
                                                    records, with_cameras):
    path = tmp_path_factory.mktemp("det") / "det.jsonl"
    header = {"format": "mvtrack3d/detections", "format_version": 1,
              "schema": "test3", "n_joints": 3}
    path.write_text("".join(json.dumps(r) + "\n" for r in [header] + [
        {"frame": f, "camera": c, "time_s": t, "poses": p}
        for f, t, c, p in records]))
    # Camera 2 is outside the rig, so only the floor rule applies to it.
    cameras = [look_at_camera(0, [6.0, 0.0, 2.0], [0.0, 0.0, 1.0]),
               look_at_camera(1, [0.0, 6.0, 2.0], [0.0, 0.0, 1.0])]
    cameras = cameras if with_cameras else None
    cfg = AffinityConfig(conf_floor=_FLOOR, image_margin=_MARGIN)
    got = list(load_detections(str(path), cfg, cameras))
    want = reference_read_detections(records, _FLOOR, _MARGIN,
                                     cameras or ())
    assert len(got) == len(want)
    for bundle, (frame, time_s, by_cam) in zip(got, want):
        assert (bundle.frame, bundle.time_s) == (frame, time_s)
        assert sorted(bundle.poses) == sorted(by_cam)
        for cam_id, ref_poses in by_cam.items():
            assert len(bundle.poses[cam_id]) == len(ref_poses)
            for pose, (uv, conf, valid, pframe, ptime) in zip(
                    bundle.poses[cam_id], ref_poses):
                assert (pose.cam_id, pose.frame, pose.time_s) == (
                    cam_id, pframe, ptime)
                for mine, ref in ((pose.uv, uv), (pose.conf, conf),
                                  (pose.valid, valid)):
                    assert mine.dtype == ref.dtype
                    assert mine.shape == ref.shape
                    assert mine.flags.c_contiguous
                    assert mine.tobytes() == ref.tobytes()


_HEADER = {"format": "mvtrack3d/detections", "format_version": 1,
           "schema": SYNTH14.name, "n_joints": N}
_GOOD_POSE = [[100.0, 200.0, 0.9]] * N


def _detection_probe(**fields):
    record = {"frame": 0, "camera": 0, "time_s": 0.0,
              "poses": [_GOOD_POSE]}
    record.update(fields)
    return record


@pytest.mark.parametrize("record,match", [
    (_detection_probe(poses=5), "shape"),
    (_detection_probe(frame="abc"), "frame"),
    (_detection_probe(time_s=None), "time_s"),
    (_detection_probe(camera=[1]), "camera"),
    (_detection_probe(poses=[_GOOD_POSE, _GOOD_POSE[:5]]), "shape"),
    (_detection_probe(poses=[[[100.0, "x", 0.9]] * N]), "shape"),
    (_detection_probe(poses=[[[100.0, {}, 0.9]] * N]), "shape"),
    (_detection_probe(poses=[[]]), "shape"),
    (_detection_probe(poses=[[[1.0, 2.0]] * N]), "shape"),
    (_detection_probe(poses=[[[100.0, None, 0.9]] * N]), "not a number"),
    (_detection_probe(poses=[[[100.0, "1.5", 0.9]] * N]), "not a number"),
    (_detection_probe(poses=[[[None] * 3] * N]), "not a number"),
], ids=["poses-int", "frame-str", "time-null", "camera-list", "ragged",
        "joint-str", "joint-object", "empty-pose", "two-columns",
        "joint-null", "joint-numeric-str", "pose-all-null"])
def test_malformed_detection_records_raise_parse_error(tmp_path, record,
                                                       match):
    path = tmp_path / "det.jsonl"
    path.write_text(json.dumps(_HEADER) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError, match=match) as err:
        list(load_detections(str(path)))
    assert "det.jsonl:2:" in str(err.value)


# -- tracks -----------------------------------------------------------------


def random_skeletons(rng, t, count=2):
    out = []
    for i in range(count):
        joints = points_near_origin(rng, N)
        flags = rng.integers(0, 3, size=N).astype(np.uint8)
        out.append((i + 1, Skeleton3D(t, joints, flags)))
    return out


def test_tracks_roundtrip_preserves_values_and_flags(tmp_path, rng):
    path = tmp_path / "tracks.jsonl"
    frames = []
    with TrackWriter(str(path), SYNTH14.name, N) as writer:
        for f in range(5):
            skeletons = random_skeletons(rng, f / 25.0)
            writer.write(f, f / 25.0, skeletons)
            frames.append(skeletons)
    back = load_tracks(str(path))
    assert back.schema == SYNTH14.name
    assert back.n_joints == N
    assert len(back.frames) == 5
    for f, tf in enumerate(back.frames):
        assert tf.frame == f and tf.time_s == f / 25.0
        for tid, sk in frames[f]:
            assert np.array_equal(tf.actors[tid], sk.joints)
            assert np.array_equal(tf.flags[tid], sk.flags)


def test_tracks_file_is_readable_while_streaming(tmp_path, rng):
    path = tmp_path / "tracks.jsonl"
    with TrackWriter(str(path), SYNTH14.name, N) as writer:
        writer.write(0, 0.0, random_skeletons(rng, 0.0))
        partial = load_tracks(str(path))
        assert len(partial.frames) == 1
        writer.write(1, 0.04, random_skeletons(rng, 0.04))
    assert len(load_tracks(str(path)).frames) == 2


_GOOD_TRACK = {"id": 1, "joints": [[0.0, 0.0, 1.0, "T"]] * N}


@pytest.mark.parametrize("record", [
    {"frame": 0, "time_s": 0.0, "tracks": [{"joints": _GOOD_TRACK["joints"]}]},
    {"frame": 0, "time_s": 0.0, "tracks": 5},
    {"frame": 0, "time_s": 0.0, "tracks": [3]},
    {"frame": 0, "time_s": 0.0, "tracks": [dict(_GOOD_TRACK, id="one")]},
    {"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, "y", 1.0, "T"]] * N)]},
    {"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, 0.0, 1.0, ["T"]]] * N)]},
    {"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, 0.0, 1.0]] * N)]},
    {"frame": 0, "time_s": 0.0, "tracks": [dict(_GOOD_TRACK, joints=7)]},
    {"frame": "abc", "time_s": 0.0, "tracks": []},
    {"frame": 0, "time_s": None, "tracks": []},
    {"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, "1.5", 1.0, "T"]] * N)]},
    {"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, 0.0, True, "T"]] * N)]},
    {"frame": 0, "time_s": 0.0, "tracks": [
        _GOOD_TRACK, dict(_GOOD_TRACK, id=2, joints=[[0.5, False, 1.0, "T"]]
                          + _GOOD_TRACK["joints"][1:])]},
    {"frame": 0, "time_s": 0.0, "tracks": [
        _GOOD_TRACK, dict(_GOOD_TRACK, id=2,
                          joints=_GOOD_TRACK["joints"][1:])]},
], ids=["missing-id", "tracks-int", "track-int", "id-str", "coord-str",
        "flag-list", "short-row", "joints-int", "frame-str", "time-null",
        "coord-numeric-str", "coord-true", "second-track-false",
        "second-track-short"])
def test_malformed_track_records_raise_parse_error(tmp_path, record):
    path = tmp_path / "tracks.jsonl"
    header = {"format": "mvtrack3d/tracks", "format_version": 1,
              "schema": SYNTH14.name, "n_joints": N}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError) as err:
        load_tracks(str(path))
    assert "tracks.jsonl:2:" in str(err.value)


_CAMERA = {"id": 0, "K": [700.0, 0.0, 400.0, 0.0, 700.0, 300.0, 0.0, 0.0, 1.0],
           "R": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
           "o": [0.0, 0.0, 0.0], "width": 800, "height": 600, "fps": 25.0}
_ACTOR = {"id": 0, "joints": [[0.0, 0.0, 1.0]] * N}


@pytest.mark.parametrize("fmt,loader,record", [
    ("calibration", load_calibration, dict(_CAMERA, K=5)),
    ("calibration", load_calibration, dict(_CAMERA, R=[[1.0] * 3] * 3)),
    ("calibration", load_calibration, dict(_CAMERA, o=[0.0, "z", 0.0])),
    ("calibration", load_calibration, dict(_CAMERA, id=[0])),
    ("calibration", load_calibration, dict(_CAMERA, fps=None)),
    ("ground_truth", load_ground_truth, {"frame": 0, "actors": 5}),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [{"joints": _ACTOR["joints"]}]}),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, joints=[[0.0, "y", 1.0]] * N)]}),
    ("ground_truth", load_ground_truth, {"frame": None, "actors": []}),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, joints=[[0.0, None, 1.0]] * N)]}),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, joints=[[0.0, "1.5", 1.0]] * N)]}),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, joints=[[0.0, 0.5, True]] * N)]}),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [_ACTOR, dict(_ACTOR, id=1, joints=[[
         0.5, 0.5, False]] + _ACTOR["joints"][1:])]}),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [_ACTOR, dict(_ACTOR, id=1,
                                          joints=_ACTOR["joints"][1:])]}),
], ids=["K-int", "R-nested", "o-str", "id-list", "fps-null", "actors-int",
        "missing-id", "joint-str", "frame-null", "joint-null",
        "joint-numeric-str", "joint-true", "second-actor-false",
        "second-actor-short"])
def test_malformed_calibration_and_ground_truth_raise_parse_error(
        tmp_path, fmt, loader, record):
    path = tmp_path / "x.jsonl"
    header = {"format": f"mvtrack3d/{fmt}", "format_version": 1,
              "schema": SYNTH14.name, "n_joints": N}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ParseError) as err:
        loader(str(path))
    assert "x.jsonl:2:" in str(err.value)


def test_empty_tracks_run_produces_a_valid_header_only_file(tmp_path):
    path = tmp_path / "tracks.jsonl"
    with TrackWriter(str(path), SYNTH14.name, N):
        pass
    back = load_tracks(str(path))
    assert back.frames == []
    assert back.schema == SYNTH14.name


# -- ground truth -------------------------------------------------------------


def gt_frames(rng, count=4, masked=False):
    frames = []
    for f in range(count):
        actors = {a: points_near_origin(rng, N) for a in range(2)}
        masks = {}
        if masked:
            masks[0] = rng.random(N) > 0.3
        frames.append(GroundTruthFrame(frame=f, actors=actors, masks=masks))
    return frames


def test_ground_truth_roundtrip_with_masks(tmp_path, rng):
    frames = gt_frames(rng, masked=True)
    path = tmp_path / "gt.jsonl"
    save_ground_truth(frames, str(path), SYNTH14.name, N)
    back = load_ground_truth(str(path))
    assert len(back.frames) == 4
    for orig, got in zip(frames, back.frames):
        assert got.frame == orig.frame
        for a in orig.actors:
            assert np.array_equal(got.actors[a], orig.actors[a])
        assert np.array_equal(got.masks[0], orig.masks[0])
        assert 1 not in got.masks


def test_ground_truth_rejects_non_increasing_frames(tmp_path, rng):
    frames = gt_frames(rng)
    frames[2] = GroundTruthFrame(frame=1, actors=frames[2].actors)
    path = tmp_path / "gt.jsonl"
    with pytest.raises(ValidationError, match="increase"):
        save_ground_truth(frames, str(path), SYNTH14.name, N)

    good = gt_frames(rng)
    save_ground_truth(good, str(path), SYNTH14.name, N)
    lines = path.read_text().splitlines()
    lines.append(lines[1])  # duplicate frame 0 at the end
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonMonotonicFrames):
        load_ground_truth(str(path))


# -- corruption sidecar -------------------------------------------------------


def test_corruption_roundtrip_and_required_keys(tmp_path):
    records = [{"frame": 0, "camera": 1, "pose": 0, "joint": 5,
                "class": "outlier", "actor": 2}]
    path = tmp_path / "c.jsonl"
    write_corruption(records, str(path), SYNTH14.name)
    assert load_corruption(str(path)) == records
    bad = [{"frame": 0, "camera": 1, "pose": 0, "class": "outlier"}]
    write_corruption(bad, str(path), SYNTH14.name)
    with pytest.raises(ParseError, match="joint"):
        load_corruption(str(path))


# -- config files ---------------------------------------------------------------


def test_config_file_loading(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"alpha_2d": 45.0, "preset": "shelf"}')
    assert load_config_file(str(path)) == {"alpha_2d": 45.0,
                                           "preset": "shelf"}
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParseError, match="object"):
        load_config_file(str(path))
    path.write_text("{nope")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_config_file(str(path))
    with pytest.raises(FileNotFoundError):
        load_config_file(str(tmp_path / "missing.json"))


# -- float fidelity ---------------------------------------------------------------


def test_exotic_floats_survive_the_roundtrip(tmp_path):
    values = np.array([math.pi, 1e-17, -0.0, 2.0 ** -1074, 1.0 / 3.0,
                       6.02214076e23])
    joints = np.zeros((N, 3))
    joints[:6, 0] = values
    path = tmp_path / "tracks.jsonl"
    with TrackWriter(str(path), SYNTH14.name, N) as writer:
        writer.write(0, math.pi, [(1, Skeleton3D(
            math.pi, joints, np.zeros(N, np.uint8)))])
    back = load_tracks(str(path))
    assert back.frames[0].time_s == math.pi
    assert np.array_equal(back.frames[0].actors[1], joints)


# -- writers against the per-float references ------------------------------------


_AWKWARD = np.array([-0.0, 1e-300, 3.0, -7.0, 0.0, 2.0 ** -1074, 1e300,
                     0.1, -2.5e-8, 123456789.0, 1.0 / 3.0, -1e-300])


def _awkward_values(rng, shape):
    values = rng.uniform(-1e3, 1e3, size=shape).reshape(-1)
    pick = rng.random(values.size) < 0.5
    values[pick] = rng.choice(_AWKWARD, size=int(pick.sum()))
    values[: len(_AWKWARD)] = _AWKWARD[: values.size]
    return values.reshape(shape)


def test_writers_match_per_float_references_byte_for_byte(tmp_path, rng):
    frames = []
    for f in range(4):
        skeletons = []
        for tid in range(f % 3):
            skel = Skeleton3D(f / 25.0, _awkward_values(rng, (N, 3)),
                              rng.integers(0, 3, size=N).astype(np.uint8))
            skeletons.append((tid + 1, skel))
        frames.append((f, f / 25.0, skeletons))
    path = tmp_path / "tracks.jsonl"
    with TrackWriter(str(path), SYNTH14.name, N) as writer:
        for frame in frames:
            writer.write(*frame)
    assert path.read_text() == reference_tracks_text(frames, SYNTH14.name, N)

    records = [(f, f / 25.0, c, _awkward_values(rng, (f % 3, N, 3)))
               for f in range(4) for c in range(2)]
    path = tmp_path / "det.jsonl"
    write_detections(records, str(path), SYNTH14.name, N)
    assert path.read_text() == reference_detections_text(
        records, SYNTH14.name, N)

    gt = [GroundTruthFrame(
        frame=f,
        actors={a: _awkward_values(rng, (N, 3)) for a in range(f % 3)},
        masks={0: rng.random(N) > 0.5} if f % 2 else {})
        for f in range(4)]
    path = tmp_path / "gt.jsonl"
    save_ground_truth(gt, str(path), SYNTH14.name, N)
    assert path.read_text() == reference_ground_truth_text(
        gt, SYNTH14.name, N)
