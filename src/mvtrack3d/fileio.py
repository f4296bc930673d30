"""Line-delimited JSON file formats for calibration, detections, tracks,
ground truth, and synthetic corruption labels.

Every file starts with a header record carrying the format name, a format
version, and (for joint-bearing formats) the joint schema name. One
self-describing JSON object per line after that; matrices row-major;
meters for world coordinates, pixels for image coordinates, seconds for
time. Floats serialize through repr so a write/load cycle is exact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .affinity import AffinityConfig, Pose2D
from .errors import NonMonotonicFrames, ParseError, ValidationError
from .geometry import CameraCalibration
from .tracker import CHAR_FLAGS, FLAG_CHARS, FrameBundle, Skeleton3D

FORMAT_VERSION = 1

CALIBRATION_FORMAT = "mvtrack3d/calibration"
DETECTIONS_FORMAT = "mvtrack3d/detections"
TRACKS_FORMAT = "mvtrack3d/tracks"
GROUND_TRUTH_FORMAT = "mvtrack3d/ground_truth"
CORRUPTION_FORMAT = "mvtrack3d/corruption"


# One encoder for every writer: json.dumps would build a new one per record.
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _floats(values) -> list:
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def _parse_line(line: str, lineno: int, path: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(record, dict):
        raise ParseError(f"{path}:{lineno}: expected an object record")
    return record


def _require(record: dict, key: str, lineno: int, path: str):
    if key not in record:
        raise ParseError(f"{path}:{lineno}: missing field '{key}'")
    return record[key]


def _field(record: dict, key: str, cast, lineno: int, path: str,
           default=None):
    """record[key] passed through cast (int, float, str), or default when
    the key is absent and a default is given; a value the cast rejects
    raises ParseError naming the line."""
    if default is not None and key not in record:
        value = default
    else:
        value = _require(record, key, lineno, path)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{path}:{lineno}: field '{key}' must be "
                         f"{cast.__name__}, got {value!r}") from None


def _joint_array(value, n_joints: int, lineno: int, path: str, what: str,
                 row: str) -> np.ndarray:
    """One record's (K, N, 3) joint rows as a float64 array; an empty
    list gives (0, N, 3) and ints convert to floats. A ragged list, or
    null, strings, booleans alone and ints past int64, which give numpy
    an object, str or bool array, raise ParseError naming the line."""
    shape = f"(K, {n_joints or 'N'}, 3) of {row} rows"
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}:{lineno}: {what} must be numbers in a "
                         f"rectangular {shape} shape: {exc}") from None
    if arr.dtype != np.float64:
        if arr.dtype.kind not in "iu":
            raise ParseError(f"{path}:{lineno}: {what} must be numbers in a "
                             f"rectangular {shape} shape, found a value "
                             f"that is not a number")
        arr = arr.astype(np.float64)
    if arr.shape == (0,):
        return arr.reshape(0, n_joints, 3)
    if arr.ndim != 3 or arr.shape[2] != 3 or (
            n_joints and arr.shape[1] != n_joints):
        raise ParseError(f"{path}:{lineno}: {what} shape {arr.shape} does "
                         f"not match {shape}")
    return arr


def _reject_booleans(arr: np.ndarray, value, lineno: int, path: str,
                     what: str) -> None:
    """Raise ParseError for a true or false among the numbers of value,
    which _joint_array read into arr as 1.0 or 0.0: only the cells of arr
    that hold 0 or 1 are looked up in value."""
    hits = (arr == 0.0) | (arr == 1.0)
    if not hits.any():
        return
    for index in zip(*np.nonzero(hits)):
        cell = value
        for i in index:
            cell = cell[i]
        if isinstance(cell, bool):
            raise ParseError(f"{path}:{lineno}: {what} must be numbers, "
                             f"found {json.dumps(cell)}, not a number")


def _objects(record: dict, key: str, lineno: int, path: str) -> list:
    """record[key], which must be a list of JSON objects."""
    value = _require(record, key, lineno, path)
    if not isinstance(value, list) or not all(
            isinstance(v, dict) for v in value):
        raise ParseError(f"{path}:{lineno}: field '{key}' must be a list of "
                         f"objects")
    return value


def _read_records(path: str) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            yield lineno, _parse_line(line, lineno, path)


def _check_header(record: dict, expected: str, lineno: int, path: str) -> dict:
    fmt = record.get("format")
    if fmt != expected:
        raise ParseError(
            f"{path}:{lineno}: expected {expected} header, found {fmt!r}"
        )
    version = record.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"{path}:{lineno}: unsupported format_version {version!r}"
        )
    return record


# -- calibration ------------------------------------------------------


def save_calibration(cameras: Sequence[CameraCalibration], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps({"format": CALIBRATION_FORMAT,
                         "format_version": FORMAT_VERSION}) + "\n")
        for cam in cameras:
            fh.write(_dumps({
                "id": int(cam.cam_id),
                "K": _floats(cam.K),
                "R": _floats(cam.R),
                "o": _floats(cam.o),
                "width": int(cam.width),
                "height": int(cam.height),
                "fps": float(cam.fps),
            }) + "\n")


def load_calibration(path: str) -> list[CameraCalibration]:
    """Read a calibration file; rotation orthonormality is re-validated."""
    cameras: list[CameraCalibration] = []
    records = _read_records(path)
    try:
        lineno, header = next(records)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected header record")
    _check_header(header, CALIBRATION_FORMAT, lineno, path)
    for lineno, rec in records:
        try:
            k, r, o = (np.array(_require(rec, key, lineno, path),
                                dtype=np.float64) for key in ("K", "R", "o"))
            if k.shape != (9,) or r.shape != (9,) or o.shape != (3,):
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ParseError(
                f"{path}:{lineno}: K/R/o must have 9/9/3 numbers") from None
        cam_id = _field(rec, "id", int, lineno, path)
        width = _field(rec, "width", int, lineno, path)
        height = _field(rec, "height", int, lineno, path)
        fps = _field(rec, "fps", float, lineno, path)
        try:
            cameras.append(CameraCalibration(
                cam_id=cam_id, K=k.reshape(3, 3), R=r.reshape(3, 3), o=o,
                width=width, height=height, fps=fps,
            ))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return cameras


# -- detections -------------------------------------------------------


def write_detections(records: Iterable[tuple[int, float, int, np.ndarray]],
                     path: str, schema_name: str, n_joints: int) -> None:
    """Write (frame, time_s, camera id, (P,N,3) pose array) records."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps({"format": DETECTIONS_FORMAT,
                         "format_version": FORMAT_VERSION,
                         "schema": schema_name,
                         "n_joints": int(n_joints)}) + "\n")
        for frame, time_s, cam_id, poses in records:
            fh.write(_dumps({
                "frame": int(frame),
                "camera": int(cam_id),
                "time_s": float(time_s),
                "poses": np.asarray(poses, dtype=np.float64).tolist(),
            }) + "\n")


def read_detections_header(path: str) -> dict:
    """Return the header record of a detections file."""
    records = _read_records(path)
    try:
        lineno, header = next(records)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected header record")
    return _check_header(header, DETECTIONS_FORMAT, lineno, path)


def load_detections(path: str,
                    config: AffinityConfig | None = None,
                    cameras: Sequence[CameraCalibration] | None = None,
                    ) -> Iterator[FrameBundle]:
    """Stream FrameBundles from a detections file.

    Each record's poses must form a rectangular (P, N, 3) array of
    numbers; an empty list means the camera saw no one. Joint validity is
    recomputed from confidences (and image bounds when cameras are given)
    by Pose2D.from_detections, so a file written from synth poses parses
    back to the same masks. Frames must be non-decreasing.
    """
    cfg = config if config is not None else AffinityConfig()
    cam_by_id = {c.cam_id: c for c in cameras} if cameras is not None else {}
    records = _read_records(path)
    try:
        lineno, header = next(records)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected header record")
    _check_header(header, DETECTIONS_FORMAT, lineno, path)
    n_joints = _field(header, "n_joints", int, lineno, path, default=0)

    current: FrameBundle | None = None
    last_frame = None
    for lineno, rec in records:
        frame = _field(rec, "frame", int, lineno, path)
        cam_id = _field(rec, "camera", int, lineno, path)
        time_s = _field(rec, "time_s", float, lineno, path)
        arr = _joint_array(_require(rec, "poses", lineno, path), n_joints,
                           lineno, path, "poses", "(u, v, conf)")
        if last_frame is not None and frame < last_frame:
            raise NonMonotonicFrames(
                f"{path}:{lineno}: frame {frame} after frame {last_frame}"
            )
        last_frame = frame
        if current is not None and frame != current.frame:
            yield current
            current = None
        if current is None:
            current = FrameBundle(frame=frame, time_s=time_s, poses={})
        elif time_s > current.time_s:
            current.time_s = time_s
        current.poses.setdefault(cam_id, []).extend(Pose2D.from_detections(
            cam_id, time_s, arr, cfg, camera=cam_by_id.get(cam_id),
            frame=frame,
        ))
    if current is not None:
        yield current


# -- tracks -----------------------------------------------------------


class TrackWriter:
    """Streaming tracks-file writer; one record per frame, flushed as written."""

    def __init__(self, path: str, schema_name: str, n_joints: int):
        self._fh = open(path, "w", encoding="utf-8")
        self._fh.write(_dumps({"format": TRACKS_FORMAT,
                               "format_version": FORMAT_VERSION,
                               "schema": schema_name,
                               "n_joints": int(n_joints)}) + "\n")
        self._fh.flush()

    def write(self, frame: int, time_s: float,
              skeletons: Sequence[tuple[int, Skeleton3D]]) -> None:
        tracks = [
            {"id": int(track_id),
             "joints": [[*xyz, FLAG_CHARS[code]] for xyz, code in
                        zip(skel.joints.tolist(), skel.flags.tolist())]}
            for track_id, skel in skeletons
        ]
        self._fh.write(_dumps({"frame": int(frame),
                               "time_s": float(time_s),
                               "tracks": tracks}) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TrackWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class TrackFrame:
    frame: int
    time_s: float
    actors: dict[int, np.ndarray]
    flags: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class TrackFile:
    schema: str
    n_joints: int
    frames: list[TrackFrame]


def load_tracks(path: str) -> TrackFile:
    records = _read_records(path)
    try:
        lineno, header = next(records)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected header record")
    _check_header(header, TRACKS_FORMAT, lineno, path)
    schema = _field(header, "schema", str, lineno, path, default="")
    n_joints = _field(header, "n_joints", int, lineno, path, default=0)
    frames: list[TrackFrame] = []
    for lineno, rec in records:
        frame = _field(rec, "frame", int, lineno, path)
        time_s = _field(rec, "time_s", float, lineno, path)
        entries = _objects(rec, "tracks", lineno, path)
        ids = [_field(entry, "id", int, lineno, path) for entry in entries]
        rows = [_require(entry, "joints", lineno, path) for entry in entries]
        try:
            xyz = [[(x, y, z) for x, y, z, _ in joints] for joints in rows]
            codes = [[CHAR_FLAGS[row[3]] for row in joints] for joints in rows]
        except (TypeError, ValueError, KeyError):
            raise ParseError(
                f"{path}:{lineno}: joint row must be [X,Y,Z,flag]"
            ) from None
        joints = _joint_array(xyz, n_joints, lineno, path, "track joints",
                              "(X, Y, Z)")
        _reject_booleans(joints, xyz, lineno, path, "track joints")
        actors = dict(zip(ids, joints))
        flags = dict(zip(ids, np.array(codes, dtype=np.uint8)))
        frames.append(TrackFrame(frame, time_s, actors, flags))
    return TrackFile(schema, n_joints, frames)


# -- ground truth -----------------------------------------------------


@dataclass
class GroundTruthFrame:
    frame: int
    actors: dict[int, np.ndarray]
    masks: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class GroundTruthFile:
    schema: str
    n_joints: int
    frames: list[GroundTruthFrame]


def save_ground_truth(frames: Iterable[GroundTruthFrame], path: str,
                      schema_name: str, n_joints: int) -> None:
    last = None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps({"format": GROUND_TRUTH_FORMAT,
                         "format_version": FORMAT_VERSION,
                         "schema": schema_name,
                         "n_joints": int(n_joints)}) + "\n")
        for gt in frames:
            if last is not None and gt.frame <= last:
                raise ValidationError(
                    f"ground-truth frames must increase: {gt.frame} after {last}"
                )
            last = gt.frame
            actors = []
            for aid in gt.actors:
                entry = {"id": int(aid),
                         "joints": np.asarray(gt.actors[aid],
                                              dtype=np.float64).tolist()}
                if aid in gt.masks:
                    entry["mask"] = np.asarray(gt.masks[aid],
                                               dtype=bool).tolist()
                actors.append(entry)
            fh.write(_dumps({"frame": int(gt.frame), "actors": actors}) + "\n")


def load_ground_truth(path: str) -> GroundTruthFile:
    records = _read_records(path)
    try:
        lineno, header = next(records)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected header record")
    _check_header(header, GROUND_TRUTH_FORMAT, lineno, path)
    schema = _field(header, "schema", str, lineno, path, default="")
    n_joints = _field(header, "n_joints", int, lineno, path, default=0)
    frames: list[GroundTruthFrame] = []
    last = None
    for lineno, rec in records:
        frame = _field(rec, "frame", int, lineno, path)
        if last is not None and frame <= last:
            raise NonMonotonicFrames(
                f"{path}:{lineno}: frame {frame} after frame {last}"
            )
        last = frame
        entries = _objects(rec, "actors", lineno, path)
        ids = [_field(entry, "id", int, lineno, path) for entry in entries]
        value = [_require(entry, "joints", lineno, path) for entry in entries]
        joints = _joint_array(value, n_joints, lineno, path, "actor joints",
                              "(X, Y, Z)")
        _reject_booleans(joints, value, lineno, path, "actor joints")
        actors = dict(zip(ids, joints))
        masks = {aid: np.asarray(entry["mask"], dtype=bool)
                 for aid, entry in zip(ids, entries) if "mask" in entry}
        frames.append(GroundTruthFrame(frame, actors, masks))
    return GroundTruthFile(schema, n_joints, frames)


# -- corruption sidecar -----------------------------------------------


def write_corruption(records: Iterable[dict], path: str,
                     schema_name: str) -> None:
    """Write per-joint corruption labels {frame, camera, pose, joint, class}."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps({"format": CORRUPTION_FORMAT,
                         "format_version": FORMAT_VERSION,
                         "schema": schema_name}) + "\n")
        for rec in records:
            fh.write(_dumps(rec) + "\n")


def load_corruption(path: str) -> list[dict]:
    records = _read_records(path)
    try:
        lineno, header = next(records)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected header record")
    _check_header(header, CORRUPTION_FORMAT, lineno, path)
    out = []
    for lineno, rec in records:
        for key in ("frame", "camera", "pose", "joint", "class"):
            _require(rec, key, lineno, path)
        out.append(rec)
    return out


def load_config_file(path: str) -> dict:
    """Read a JSON object of configuration overrides."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return data
