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
    MvTrackError,
    NonMonotonicFrames,
    NonMonotonicTime,
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
from mvtrack3d.synth import CLASS_NAMES, CLASS_OCCLUDED, CLASS_OUTLIER
from mvtrack3d.tracker import Skeleton3D

from helpers import (
    CODEC_FLOATS,
    JSON_TEXT,
    JSON_VALUES,
    NON_FINITE,
    look_at_camera,
    points_near_origin,
    random_ring_rig,
    reference_corruption_text,
    reference_detections_text,
    reference_ground_truth_text,
    reference_load_ground_truth,
    reference_load_tracks,
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


def test_calibration_rejects_a_repeated_camera_id(tmp_path, rng):
    path = tmp_path / "calib.jsonl"
    save_calibration(random_ring_rig(rng, n_cams=3), str(path))
    lines = path.read_text().splitlines()
    first_id = json.loads(lines[1])["id"]
    record = json.loads(lines[3])
    record["id"] = first_id
    lines[3] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_calibration(str(path))
    assert str(err.value) == (f"{path}:4: a second camera with id "
                              f"{first_id}")


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
            assert np.array_equal(b.poses[c], original)
            assert b.times[c] == f / 25.0
    assert all(valid.all() for b in bundles for valid in b.valid.values())


def test_detections_validity_recomputed_from_confidence(tmp_path, rng):
    rows = list(detection_rows(rng, frames=1, cams=1, people=1))
    rows[0][3][0, 3, 2] = 0.05  # one joint below the default floor
    path = tmp_path / "det.jsonl"
    write_detections(rows, str(path), SYNTH14.name, N)
    bundle = next(load_detections(str(path)))
    assert not bundle.valid[0][0, 3]
    strict = AffinityConfig(conf_floor=0.9)
    bundle = next(load_detections(str(path), config=strict))
    assert bundle.valid[0][0].sum() < N


def test_detections_reject_frame_regressions(tmp_path, rng):
    rows = list(detection_rows(rng))
    rows[2], rows[6] = rows[6], rows[2]
    path = tmp_path / "det.jsonl"
    write_detections(rows, str(path), SYNTH14.name, N)
    with pytest.raises(NonMonotonicFrames, match="after frame"):
        list(load_detections(str(path)))


@pytest.mark.parametrize("times,refused", [
    ((0.0, 0.0), True),
    ((1 / 25.0, 1 / 25.0), True),
    ((0.0, 2.5 / 25.0), False),
], ids=["earlier", "equal", "latest-record-later"])
def test_detections_reject_frame_times_that_do_not_increase(tmp_path, rng,
                                                            times, refused):
    # frame 2's two records; the frame's time is the later of theirs
    rows = list(detection_rows(rng))
    for k, time_s in zip((4, 5), times):
        frame, _, cam, poses = rows[k]
        rows[k] = (frame, time_s, cam, poses)
    path = tmp_path / "det.jsonl"
    write_detections(rows, str(path), SYNTH14.name, N)
    frames = load_detections(str(path))
    assert [next(frames).frame, next(frames).frame] == [0, 1]
    if not refused:
        assert [b.time_s for b in frames] == [2.5 / 25.0, 3 / 25.0]
        return
    with pytest.raises(NonMonotonicTime) as err:
        next(frames)
    # line 6 holds frame 2's first record, after the header and frames 0-1
    assert str(err.value) == (f"{path}:6: frame 2 at {max(times)} s is not "
                              f"after {1 / 25.0} s")


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
# must leave its camera in the bundle with an empty (0, N, 3) array.
_FLOOR = 0.1
_MARGIN = 10.0
_EDGES_U = [-10.0, math.nextafter(-10.0, -math.inf), 810.0,
            math.nextafter(810.0, math.inf), -0.0]
_EDGES_V = [-10.0, math.nextafter(-10.0, -math.inf), 610.0,
            math.nextafter(610.0, math.inf)]
_PIXELS_U = st.one_of(st.floats(-40.0, 850.0),
                      st.sampled_from(_EDGES_U + NON_FINITE))
_PIXELS_V = st.one_of(st.floats(-40.0, 650.0),
                      st.sampled_from(_EDGES_V + NON_FINITE))
_CONFS = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
    [_FLOOR, math.nextafter(_FLOOR, 0.0), 1.0] + NON_FINITE))


@st.composite
def _detection_records(draw, n_joints=3):
    """One to five records, at most one per camera in a frame."""
    records = []
    frame = 0
    used = set()
    for _ in range(draw(st.integers(1, 5))):
        step = draw(st.integers(0, 2))
        if step or len(used) == 3:
            frame += max(step, 1)
            used = set()
        time_s = frame / 25.0 + draw(st.sampled_from([0.0, 0.001]))
        cam_id = draw(st.sampled_from(sorted({0, 1, 2} - used)))
        used.add(cam_id)
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
    want = reference_read_detections(records, 3, _FLOOR, _MARGIN,
                                     cameras or ())
    assert len(got) == len(want)
    for bundle, (frame, time_s, by_cam) in zip(got, want):
        assert (bundle.frame, bundle.time_s) == (frame, time_s)
        assert sorted(bundle.poses) == sorted(by_cam)
        assert sorted(bundle.valid) == sorted(by_cam)
        assert sorted(bundle.times) == sorted(by_cam)
        for cam_id, (poses, valid, ptime) in by_cam.items():
            assert bundle.times[cam_id] == ptime
            for mine, ref in ((bundle.poses[cam_id], poses),
                              (bundle.valid[cam_id], valid)):
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
    (_detection_probe(poses=[[[100.0, True, 0.9]] * N]), "not a number"),
    ([_detection_probe(camera=1), _detection_probe(),
      _detection_probe(time_s=0.001)], "second record for camera 0"),
    (b'{"frame":0,"camera":0,"time_s":0.0,"poses":[],"note":"caf\xe9"}',
     "UTF-8"),
    (_detection_probe(frame=3.7), "frame"),
    (_detection_probe(camera=True), "camera"),
    (_detection_probe(camera=1.9), "camera"),
    (_detection_probe(time_s=True), "time_s"),
    (_detection_probe(time_s="0.5"), "time_s"),
    (_detection_probe(frame=2 ** 64), "frame"),
    (b"[" * 100_000, "invalid JSON"),
    ([_detection_probe(camera=1), _detection_probe(time_s=math.nan)],
     "time_s"),
    (_detection_probe(time_s=math.inf), "time_s"),
    (_detection_probe(time_s=-math.inf), "time_s"),
    (b'{"frame":0,"camera":0,"time_s":1e400,"poses":[]}', "time_s"),
], ids=["poses-int", "frame-str", "time-null", "camera-list", "ragged",
        "joint-str", "joint-object", "empty-pose", "two-columns",
        "joint-null", "joint-numeric-str", "pose-all-null", "joint-true",
        "camera-twice", "latin-1-bytes", "frame-float", "camera-true",
        "camera-float", "time-true", "time-numeric-str", "frame-wide-int",
        "nested-too-deep", "time-nan", "time-inf", "time-minus-inf",
        "time-past-float"])
def test_malformed_detection_records_raise_parse_error(tmp_path, record,
                                                       match):
    """Each probe is one record, or a list of records whose last is bad;
    a bytes probe is written as the raw line."""
    records = record if isinstance(record, list) else [record]
    path = tmp_path / "det.jsonl"
    path.write_bytes(b"".join(
        (r if isinstance(r, bytes) else json.dumps(r).encode()) + b"\n"
        for r in [_HEADER] + records))
    with pytest.raises(ParseError, match=match) as err:
        list(load_detections(str(path)))
    assert f"det.jsonl:{len(records) + 1}:" in str(err.value)


@pytest.mark.parametrize("header,records,where", [
    (dict(_HEADER, n_joints="abc"), [], 1),
    (dict(_HEADER, n_joints=2.0), [], 1),
    (dict(_HEADER, n_joints=0), [], 1),
    (dict(_HEADER, schema=5), [], 1),
    ({k: v for k, v in _HEADER.items() if k != "n_joints"}, [], 1),
    (dict(_HEADER, format_version=True), [], 1),
    (dict(_HEADER, n_joints=2 ** 62), [_detection_probe(poses=[])], 2),
], ids=["n-joints-str", "n-joints-float", "n-joints-zero", "schema-int",
        "n-joints-missing", "version-true", "n-joints-huge"])
def test_malformed_detection_headers_raise_parse_error(tmp_path, header,
                                                       records, where):
    path = tmp_path / "det.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [header] + records))
    with pytest.raises(ParseError, match=f"det.jsonl:{where}:"):
        list(load_detections(str(path)))


def test_line_ends_and_blank_lines_read_as_text(tmp_path):
    """Lines end at \\n, \\r\\n or a lone \\r, and a line of whitespace,
    form feeds and no-break spaces included, is skipped but counted."""
    good = json.dumps(_detection_probe())
    path = tmp_path / "det.jsonl"
    path.write_bytes("\r\n".join([json.dumps(_HEADER), good]).encode()
                     + b"\r" + " \x0c\u00a0".encode() + b"\n"
                     + good.replace('"frame": 0', '"frame": "x"').encode())
    with pytest.raises(ParseError, match="det.jsonl:4: field 'frame'"):
        list(load_detections(str(path)))


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


def _track_record(frame, *tracks):
    return {"frame": frame, "time_s": frame / 25.0, "tracks": list(tracks)}


# Coordinates of valid rows, ints of every width JSON may hold among
# them, and now and then a value no joint may hold.
_COORDS = st.one_of(CODEC_FLOATS, st.integers(-2 ** 63, 2 ** 64 - 1),
                    st.integers(-3, 3))
_BAD_COORDS = st.one_of(st.booleans(), st.none(), st.just("1.5"),
                        st.lists(st.floats(), min_size=1, max_size=2))


# The faults of a fuzzed file: one kind, or every kind, drawn in place of
# about half of the good values of that kind. Besides coordinates no
# joint may hold and rows of the wrong length: ids of another type,
# entries that are not objects or lack a field, flags that are not one
# flag letter and masks that are not booleans. A file mixes one set of
# bad flags into its good ones: a lone surrogate, which json reads from
# its escape, or flags of 0 and 2 letters, which join to as many
# letters as there are flags.
_FAULTS = [None, "coord", "row", "id", "entry", "all"]
_BAD_IDS = st.sampled_from([True, False, 1.0, "1"])
_BAD_ENTRIES = st.sampled_from([3, None, "entry", [1, 2]])
_BAD_FLAGS = st.sampled_from([("X",), ("t",), ("p",), ("TP",), ("",),
                              ("\u00e9",), ("\ud800",), (0,), (None,),
                              (["T"],), ("", "TP")])
_BAD_MASK_ITEMS = st.sampled_from([0, 1, None, "yes"])


def _sometimes(on, good, bad):
    """good, or when on, good and bad about half the time each."""
    return good | bad if on else good


def _draw_entries(draw, has, joints, mask=None):
    """A record's entries, {"id", "joints"} of distinct int ids with
    joints drawn from joints, and a "mask" drawn from mask unless it
    draws None. has(kind) says whether the file holds faults of kind:
    an "id" of another type, an "entry" that lacks its id or its joints
    or is not an object."""
    entries = []
    for i in draw(st.lists(st.integers(-5, 5), max_size=3, unique=True)):
        entry = {"id": draw(_sometimes(has("id"), st.just(i), _BAD_IDS)),
                 "joints": draw(joints)}
        if mask is not None and (value := draw(mask)) is not None:
            entry["mask"] = value
        if has("entry"):
            for key in draw(st.sampled_from([(), ("id",), ("joints",)])):
                del entry[key]
            entry = draw(st.just(entry) | _BAD_ENTRIES)
        entries.append(entry)
    return entries


def _frames(draw):
    return sorted(draw(st.sets(st.integers(0, 50), max_size=3)))


@st.composite
def _track_files(draw):
    """n_joints and the records of a tracks file: increasing frames, each
    with tracks of distinct ids, with faults of the kind drawn."""
    n_joints = draw(st.integers(1, 4))
    fault = draw(st.sampled_from(_FAULTS + ["flag"]))
    has = lambda kind: fault in (kind, "all")
    coords = _sometimes(has("coord"), _COORDS, _BAD_COORDS)
    flags = _sometimes(has("flag"), st.sampled_from("TPM"),
                       st.sampled_from(draw(_BAD_FLAGS)))
    row = _sometimes(has("row"), st.tuples(coords, coords, coords, flags).map(
        list), st.lists(coords, min_size=3, max_size=5))
    joints = st.lists(row, min_size=n_joints, max_size=n_joints + has("row"))
    return n_joints, [_track_record(frame, *_draw_entries(draw, has, joints))
                      for frame in _frames(draw)]


def _write_lines(path, fmt, n_joints, records):
    header = {"format": fmt, "format_version": 1, "schema": SYNTH14.name,
              "n_joints": n_joints}
    with open(path, "w") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in [header] + records)


def _assert_same_arrays(ours, theirs):
    assert ours.dtype == theirs.dtype
    assert ours.shape == theirs.shape
    assert ours.flags.c_contiguous
    assert np.array_equal(ours, theirs, equal_nan=True)


@settings(max_examples=400, deadline=None)
@given(case=_track_files())
def test_flat_track_reader_matches_the_row_by_row_reader(tmp_path_factory,
                                                         case):
    n_joints, records = case
    path = str(tmp_path_factory.mktemp("tracks") / "tracks.jsonl")
    _write_lines(path, "mvtrack3d/tracks", n_joints, records)
    try:
        want = reference_load_tracks(path)
    except MvTrackError as exc:
        with pytest.raises(type(exc)) as err:
            load_tracks(path)
        assert str(err.value) == str(exc)
        return
    got = load_tracks(path)
    assert (got.schema, got.n_joints) == (want.schema, want.n_joints)
    assert len(got.frames) == len(want.frames)
    for g, w in zip(got.frames, want.frames):
        assert (g.frame, g.time_s) == (w.frame, w.time_s)
        assert list(g.actors) == list(w.actors) == list(g.flags)
        for tid in w.actors:
            _assert_same_arrays(g.actors[tid], w.actors[tid])
            _assert_same_arrays(g.flags[tid], w.flags[tid])


@st.composite
def _ground_truth_files(draw):
    """n_joints and the records of a ground-truth file: increasing
    frames, each with actors of distinct ids, some with a mask, with
    faults of the kind drawn."""
    n_joints = draw(st.integers(1, 4))
    fault = draw(st.sampled_from(_FAULTS + ["mask"]))
    has = lambda kind: fault in (kind, "all")
    coords = _sometimes(has("coord"), _COORDS, _BAD_COORDS)
    row = st.lists(coords, min_size=3 - has("row"), max_size=3 + has("row"))
    joints = st.lists(row, min_size=n_joints - has("row"),
                      max_size=n_joints + has("row"))
    flag = _sometimes(has("mask"), st.booleans(), _BAD_MASK_ITEMS)
    mask = st.none() | st.lists(flag, min_size=n_joints - has("mask"),
                                max_size=n_joints + has("mask"))
    return n_joints, [{"frame": frame,
                       "actors": _draw_entries(draw, has, joints, mask)}
                      for frame in _frames(draw)]


@settings(max_examples=400, deadline=None)
@given(case=_ground_truth_files())
def test_ground_truth_reader_matches_the_per_entry_reader(tmp_path_factory,
                                                          case):
    n_joints, records = case
    path = str(tmp_path_factory.mktemp("gt") / "ground_truth.jsonl")
    _write_lines(path, "mvtrack3d/ground_truth", n_joints, records)
    try:
        want = reference_load_ground_truth(path)
    except MvTrackError as exc:
        with pytest.raises(type(exc)) as err:
            load_ground_truth(path)
        assert str(err.value) == str(exc)
        return
    got = load_ground_truth(path)
    assert (got.schema, got.n_joints) == (want.schema, want.n_joints)
    assert len(got.frames) == len(want.frames)
    for g, w in zip(got.frames, want.frames):
        assert g.frame == w.frame
        assert list(g.actors) == list(w.actors)
        assert list(g.masks) == list(w.masks)
        for aid in w.actors:
            _assert_same_arrays(g.actors[aid], w.actors[aid])
        for aid in w.masks:
            _assert_same_arrays(g.masks[aid], w.masks[aid])


@pytest.mark.parametrize("records,error", [
    ({"frame": 0, "time_s": 0.0, "tracks": [{"joints": _GOOD_TRACK["joints"]}]},
     ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": 5}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [3]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [dict(_GOOD_TRACK, id="one")]},
     ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, "y", 1.0, "T"]] * N)]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, 0.0, 1.0, ["T"]]] * N)]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, 0.0, 1.0]] * N)]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [dict(_GOOD_TRACK, joints=7)]},
     ParseError),
    ({"frame": "abc", "time_s": 0.0, "tracks": []}, ParseError),
    ({"frame": 0, "time_s": None, "tracks": []}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, "1.5", 1.0, "T"]] * N)]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, 0.0, True, "T"]] * N)]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        _GOOD_TRACK, dict(_GOOD_TRACK, id=2, joints=[[0.5, False, 1.0, "T"]]
                          + _GOOD_TRACK["joints"][1:])]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        _GOOD_TRACK, dict(_GOOD_TRACK, id=2,
                          joints=_GOOD_TRACK["joints"][1:])]}, ParseError),
    ({"frame": 0, "time_s": math.nan, "tracks": [_GOOD_TRACK]}, ParseError),
    ({"frame": 0, "time_s": math.inf, "tracks": [_GOOD_TRACK]}, ParseError),
    ({"frame": 0, "time_s": -math.inf, "tracks": []}, ParseError),
    # rows of 5 and 3 items that chain into 8 aligned ones
    ({"frame": 0, "time_s": 0.0, "tracks": [dict(_GOOD_TRACK, joints=(
        [[0.0, 0.0, 1.0, "T", 0.0], [0.0, 1.0, "T"]]
        + _GOOD_TRACK["joints"][2:]))]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [_GOOD_TRACK, _GOOD_TRACK]},
     ParseError),
    ([_track_record(3, _GOOD_TRACK), _track_record(3)], NonMonotonicFrames),
    ({"frame": 0, "time_s": 0.0, "tracks": [dict(_GOOD_TRACK, id=True)]},
     ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [dict(_GOOD_TRACK, id=1.0)]},
     ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [{"id": 1}]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, 0.0, 1.0, "t"]] * N)]}, ParseError),
    ({"frame": 0, "time_s": 0.0, "tracks": [
        dict(_GOOD_TRACK, joints=[[0.0, 0.0, 1.0, "\ud800"]] * N)]},
     ParseError),
    # flags of 0 and 2 letters that join to one letter a flag
    ({"frame": 0, "time_s": 0.0, "tracks": [dict(_GOOD_TRACK, joints=(
        [[0.0, 0.0, 1.0, ""], [0.0, 0.0, 1.0, "TP"]]
        + _GOOD_TRACK["joints"][2:]))]}, ParseError),
], ids=["missing-id", "tracks-int", "track-int", "id-str", "coord-str",
        "flag-list", "short-row", "joints-int", "frame-str", "time-null",
        "coord-numeric-str", "coord-true", "second-track-false",
        "second-track-short", "time-nan", "time-inf", "time-neg-inf",
        "rows-long-and-short", "second-track-same-id", "repeated-frame",
        "id-true", "id-float", "missing-joints", "flag-lowercase",
        "flag-surrogate", "flags-empty-and-double"])
def test_malformed_track_records_raise_parse_error(tmp_path, records, error):
    records = records if isinstance(records, list) else [records]
    path = tmp_path / "tracks.jsonl"
    header = {"format": "mvtrack3d/tracks", "format_version": 1,
              "schema": SYNTH14.name, "n_joints": N}
    path.write_text("".join(json.dumps(line) + "\n"
                            for line in [header] + records))
    with pytest.raises(error) as err:
        load_tracks(str(path))
    # the error names the first bad record, the last one written
    assert f"tracks.jsonl:{len(records) + 1}:" in str(err.value)
    try:
        reference_load_tracks(str(path))
    except MvTrackError as want:   # each fault the row-by-row reader words
        assert str(err.value) == str(want)
    else:   # faults it does not see
        assert "a second track with id 1" in str(err.value) \
            or "frame 3 after frame 3" in str(err.value)


_CAMERA = {"id": 0, "K": [700.0, 0.0, 400.0, 0.0, 700.0, 300.0, 0.0, 0.0, 1.0],
           "R": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
           "o": [0.0, 0.0, 0.0], "width": 800, "height": 600, "fps": 25.0}
_ACTOR = {"id": 0, "joints": [[0.0, 0.0, 1.0]] * N}


@pytest.mark.parametrize("fmt,loader,record,error", [
    ("calibration", load_calibration, dict(_CAMERA, K=5), ParseError),
    ("calibration", load_calibration, dict(_CAMERA, R=[[1.0] * 3] * 3),
     ParseError),
    ("calibration", load_calibration, dict(_CAMERA, o=[0.0, "z", 0.0]),
     ParseError),
    ("calibration", load_calibration, dict(_CAMERA, id=[0]), ParseError),
    ("calibration", load_calibration, dict(_CAMERA, fps=None), ParseError),
    ("calibration", load_calibration,
     dict(_CAMERA, K=["700"] + _CAMERA["K"][1:]), ParseError),
    ("calibration", load_calibration,
     dict(_CAMERA, K=_CAMERA["K"][:8] + [True]), ParseError),
    ("calibration", load_calibration,
     dict(_CAMERA, K=[None] + _CAMERA["K"][1:]), ParseError),
    ("calibration", load_calibration, dict(_CAMERA, o=[0.0, 0.0]),
     ParseError),
    ("ground_truth", load_ground_truth, {"frame": 0, "actors": 5},
     ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [{"joints": _ACTOR["joints"]}]}, ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, joints=[[0.0, "y", 1.0]] * N)]},
     ParseError),
    ("ground_truth", load_ground_truth, {"frame": None, "actors": []},
     ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, joints=[[0.0, None, 1.0]] * N)]},
     ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, joints=[[0.0, "1.5", 1.0]] * N)]},
     ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, joints=[[0.0, 0.5, True]] * N)]},
     ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [_ACTOR, dict(_ACTOR, id=1, joints=[[
         0.5, 0.5, False]] + _ACTOR["joints"][1:])]}, ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [_ACTOR, dict(_ACTOR, id=1,
                                          joints=_ACTOR["joints"][1:])]},
     ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, mask=[True, "no", None]
                                  + [True] * (N - 3))]}, ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [dict(_ACTOR, mask=[True] * 3)]}, ParseError),
    ("ground_truth", load_ground_truth,
     {"frame": 0, "actors": [_ACTOR, dict(_ACTOR, joints=[[1.0, 0.0, 1.0]]
                                          * N)]}, ParseError),
    # a record of the right types whose frame rate no camera can have
    ("calibration", load_calibration, dict(_CAMERA, fps=math.nan),
     ValidationError),
    ("calibration", load_calibration, dict(_CAMERA, fps=math.inf),
     ValidationError),
    ("calibration", load_calibration, dict(_CAMERA, fps=-math.inf),
     ValidationError),
], ids=["K-int", "R-nested", "o-str", "id-list", "fps-null", "K-numeric-str",
        "K-true", "K-null", "o-short", "actors-int",
        "missing-id", "joint-str", "frame-null", "joint-null",
        "joint-numeric-str", "joint-true", "second-actor-false",
        "second-actor-short", "mask-not-bool", "mask-short",
        "second-actor-same-id", "fps-nan",
        "fps-inf", "fps-minus-inf"])
def test_malformed_calibration_and_ground_truth_raise_parse_error(
        tmp_path, fmt, loader, record, error):
    path = tmp_path / "x.jsonl"
    header = {"format": f"mvtrack3d/{fmt}", "format_version": 1,
              "schema": SYNTH14.name, "n_joints": N}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(error) as err:
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
    codes = np.zeros(N, dtype=np.uint8)
    codes[5] = CLASS_OUTLIER
    path = tmp_path / "c.jsonl"
    write_corruption([(0, 1, 0, 2, codes)], str(path), SYNTH14.name, N,
                     CLASS_NAMES)
    records = load_corruption(str(path))
    assert len(records) == N
    assert records[5] == {"frame": 0, "camera": 1, "pose": 0, "joint": 5,
                          "class": "outlier", "actor": 2}
    assert [r["joint"] for r in records] == list(range(N))
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\n"
                    + '{"frame":0,"camera":1,"pose":0,"class":"outlier"}\n')
    with pytest.raises(ParseError, match="joint"):
        load_corruption(str(path))


def test_corruption_writer_prints_ints_as_json_does(tmp_path):
    # orjson refuses an int past 64 bits; json writes its digits, as %d.
    entries = [(2 ** 64 + 5, 1, 0, 2, np.arange(N) % 4),
               (2 ** 64 + 5, -3, 7, 10 ** 30, np.full(N, CLASS_OCCLUDED))]
    path = tmp_path / "c.jsonl"
    write_corruption(entries, str(path), SYNTH14.name, N, CLASS_NAMES)
    assert path.read_text() == reference_corruption_text(
        entries, SYNTH14.name, CLASS_NAMES)


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
    for text in (b'{"n_frames": "caf\xe9"}', b"[" * 100_000):
        path.write_bytes(text)
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

    # frames 0 and 3 hold no poses, so only their times, which orjson
    # prints otherwise than repr (5e-05, 1e+16), send them through json
    records = [(f, t, c, _awkward_values(rng, (f % 3, N, 3)))
               for f, t in enumerate([5e-5, 0.04, 0.08, 1e16])
               for c in range(2)]
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


# -- the record codec ------------------------------------------------------------


def test_track_writer_refuses_non_finite_values(tmp_path):
    good = Skeleton3D(0.0, np.zeros((N, 3)), np.zeros(N, np.uint8))
    path = tmp_path / "tracks.jsonl"
    with TrackWriter(str(path), SYNTH14.name, N) as writer:
        writer.write(0, 0.0, [(1, good)])
        for value in (math.nan, math.inf, -math.inf):
            joints = np.zeros((N, 3))
            joints[4, 1] = value
            bad = Skeleton3D(0.28, joints, np.zeros(N, np.uint8))
            with pytest.raises(ValidationError, match="frame 7: track 2 "):
                writer.write(7, 0.28, [(1, good), (2, bad)])
            with pytest.raises(ValidationError, match="frame 8: time_s"):
                writer.write(8, value, [(1, good)])
    assert [f.frame for f in load_tracks(str(path)).frames] == [0]


@st.composite
def _track_records(draw):
    """A tracks record and an array of every float in it."""
    time_s = draw(CODEC_FLOATS)
    floats = [time_s]
    tracks = []
    for track_id in range(draw(st.integers(0, 3))):
        rows = draw(st.lists(st.tuples(CODEC_FLOATS, CODEC_FLOATS,
                                       CODEC_FLOATS), max_size=4))
        floats += [v for row in rows for v in row]
        tracks.append({"id": track_id, "joints": [
            [*row, draw(st.sampled_from("TPM"))] for row in rows]})
    record = {"frame": draw(st.integers() | st.sampled_from(
                  [-2 ** 63 - 1, -2 ** 63, 2 ** 64 - 1, 2 ** 64])),
              "time_s": time_s, "tracks": tracks}
    return record, np.array(floats)


@settings(max_examples=500, deadline=None)
@given(_track_records())
def test_encode_writes_what_json_writes(case):
    record, floats = case
    if np.isfinite(floats).all():
        assert fileio._encode(record, floats) == (
            fileio._dumps(record) + "\n").encode()
    else:
        with pytest.raises(ValueError):
            fileio._encode(record, floats)


def test_encode_takes_orjson_inside_the_range(monkeypatch):
    calls = []
    monkeypatch.setattr(fileio, "_line",
                        lambda record: calls.append(record) or b"")
    inside = [1e-4, -1e-4, math.nextafter(1e16, 0.0), 0.0, -0.0, 3.25]
    for x in inside:
        fileio._encode({"x": x}, np.array([x]))
    assert calls == []
    outside = [math.nextafter(1e-4, 0.0), 1e16, -1e16, 5e-324, math.inf]
    for x in outside:
        fileio._encode({"x": x}, np.array([x]))
    assert calls == [{"x": x} for x in outside]
    # the same range holds for the time tested apart from the array
    calls.clear()
    for x in inside + outside:
        fileio._encode({"x": x}, np.zeros(0), x)
    assert calls == [{"x": x} for x in outside]


@settings(max_examples=500, deadline=None)
@given(record=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5),
       ascii_only=st.booleans(), pad=st.sampled_from(["", " ", "\t", "\r\n"]))
def test_parse_line_reads_what_json_reads(record, ascii_only, pad):
    text = json.dumps(record, ensure_ascii=ascii_only)
    if not text.isascii() and any(0xD800 <= ord(c) < 0xE000 for c in text):
        text = json.dumps(record)  # a lone surrogate has no UTF-8 form
    line = (pad + text + pad + "\n").encode()
    assert repr(fileio._parse_line(line, 1, "x")) == repr(json.loads(text))


@settings(max_examples=200, deadline=None)
@given(value=st.integers(2 ** 64, 2 ** 1023) | st.integers(-2 ** 1023,
                                                           -2 ** 63 - 1))
def test_wide_pose_integer_reads_as_the_nearest_float(tmp_path_factory,
                                                      value):
    path = tmp_path_factory.mktemp("det") / "det.jsonl"
    pose = json.dumps([[[100.0, 200.0, 0.9]] * (N - 2) + [
        [1.0, 2.0, 0.9], [value, 5.0, 0.9]]])
    # A NaN on the line sends it to the json module, which must read the
    # int as orjson does.
    with_nan = pose.replace("[1.0, 2.0, 0.9]", "[1.0, 2.0, NaN]")
    lines = [json.dumps(_HEADER)] + [
        f'{{"frame":{f},"camera":0,"time_s":{f / 25.0},"poses":{pose}}}'
        for f, pose in enumerate([pose, pose.replace(str(value),
                                                     f"{value}.0"), with_nan])]
    path.write_text("\n".join(lines) + "\n")
    bundles = list(load_detections(str(path)))
    assert [b.poses[0][0, -1, 0] for b in bundles] == [float(value)] * 3
    assert math.isnan(bundles[2].poses[0][0, -2, 2])


# -- fuzzing the readers -----------------------------------------------------------


_RECORDS = {
    "calibration": (load_calibration, _CAMERA),
    "detections": (lambda path: list(load_detections(path)),
                   _detection_probe()),
    "tracks": (load_tracks,
               {"frame": 0, "time_s": 0.0, "tracks": [_GOOD_TRACK]}),
    "ground_truth": (load_ground_truth, {"frame": 0, "actors": [
        dict(_ACTOR, mask=[True] * N)]}),
    "corruption": (load_corruption, {"frame": 0, "camera": 1, "pose": 0,
                                     "joint": 5, "class": "outlier"}),
}


@st.composite
def _mutated(draw, record):
    """record, with some fields of it and of each first list entry that
    is an object set to any JSON value, and some deleted."""
    record = json.loads(json.dumps(record))
    targets = [record] + [v[0] for v in record.values() if isinstance(
        v, list) and v and isinstance(v[0], dict)]
    for target in targets:
        keys = st.sampled_from(sorted(target))
        target.update(draw(st.dictionaries(keys, JSON_VALUES, max_size=3)))
        for key in draw(st.sets(keys, max_size=2)):
            del target[key]
    return record


@st.composite
def _fuzzed_files(draw):
    """A loader and the lines of a file of its format: a header and two
    records, any of them with fields changed by _mutated."""
    fmt = draw(st.sampled_from(sorted(_RECORDS)))
    loader, record = _RECORDS[fmt]
    header = {"format": f"mvtrack3d/{fmt}", "format_version": 1,
              "schema": SYNTH14.name, "n_joints": N}
    lines = [draw(st.just(header) | _mutated(header)),
             record, draw(_mutated(record))]
    return loader, [json.dumps(line) for line in lines]


@settings(max_examples=600, deadline=None)
@given(case=_fuzzed_files())
def test_readers_raise_only_library_errors(tmp_path_factory, case):
    loader, lines = case
    path = tmp_path_factory.mktemp("fuzz") / "x.jsonl"
    path.write_text("\n".join(lines) + "\n")
    try:
        loader(str(path))
    except MvTrackError as exc:
        assert "x.jsonl" in str(exc)
