"""Line-delimited JSON file formats for calibration, detections, tracks,
ground truth, and synthetic corruption labels.

Every file starts with a header record carrying the format name, a format
version, and (for joint-bearing formats) the joint schema name and joint
count. One self-describing JSON object per line after that; matrices
row-major; meters for world coordinates, pixels for image coordinates,
seconds for time. Fields follow the type rule of configs (schema.accepts).
Every float is written as repr writes it, so a write/load cycle is
exact: orjson writes a record whose floats are all 0 or have
1e-4 <= |x| < 1e16, where its text is repr's, and the json module writes
any other record, keeping repr's exponent form (9.9e-05, 1e+16). orjson
also reads every line; the json module reads a line orjson refuses, which
takes the NaN and Infinity literals and words the error of a line that is
not JSON. The corruption sidecar's records of ints and ASCII strings go
through orjson too, where its text is json's.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np
import orjson

from .affinity import AffinityConfig, valid_joints
from .errors import NonMonotonicFrames, ParseError, ValidationError
from .geometry import CameraCalibration
from .schema import accepts, describe
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


def _line(record: dict) -> bytes:
    return (_dumps(record) + "\n").encode()


def _encode(record: dict, floats: np.ndarray) -> bytes:
    """record as one line of JSON, newline included, byte for byte what
    _dumps writes. floats holds every float of record. When each is 0 or
    has 1e-4 <= |x| < 1e16, orjson prints it as repr does and writes the
    line; any other record, and one holding an int orjson cannot hold,
    goes through _dumps, which raises ValueError for NaN and inf."""
    a = np.abs(floats)
    if ((a < 1e16) & ((a >= 1e-4) | (a == 0.0))).all():
        try:
            return orjson.dumps(record, option=orjson.OPT_APPEND_NEWLINE)
        except orjson.JSONEncodeError:
            pass
    return _line(record)


# The value types of a record _encode_plain may give to orjson.
_PLAIN = frozenset((int, str))


def _encode_plain(record: dict) -> bytes:
    """record as one line of JSON, newline included, byte for byte what
    _dumps writes. orjson writes a record whose values are ints and
    strings the same way, unless a string holds a character past ASCII
    or DEL (json escapes those; orjson writes them raw) or an int does
    not fit 64 bits (orjson refuses it); _dumps writes those and any
    record holding another type."""
    if _PLAIN.issuperset(map(type, record.values())):
        try:
            line = orjson.dumps(record, option=orjson.OPT_APPEND_NEWLINE)
        except orjson.JSONEncodeError:
            pass
        else:
            if line.isascii() and b"\x7f" not in line:
                return line
    return _line(record)


def _json_int(text: str) -> int | float:
    """A JSON integer as orjson reads it: one outside [-2**63, 2**64 - 1]
    is the nearest float, as the same number with a decimal point reads
    (inf past the largest float)."""
    if len(text) <= 20:  # -2**63 and 2**64 - 1 have 20 characters
        value = int(text)
        if -2 ** 63 <= value < 2 ** 64:
            return value
    return float(text)


def _parse_line(line: bytes, lineno: int, path: str) -> dict | None:
    """The record on one raw line of a file, or None for a blank line.

    A line orjson refuses is decoded as UTF-8, stripped of Unicode
    whitespace and given to json.loads, which takes the NaN and Infinity
    literals json.dumps writes and words the error of a line that is not
    JSON."""
    try:
        record = orjson.loads(line)
    except orjson.JSONDecodeError:
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid UTF-8: {exc.reason} "
                             f"at byte {exc.start}") from None
        if not text:
            return None
        try:
            record = json.loads(text, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
        except RecursionError:
            raise ParseError(
                f"{path}:{lineno}: invalid JSON: nested too deeply") from None
    if not isinstance(record, dict):
        raise ParseError(f"{path}:{lineno}: expected an object record")
    return record


def _field(record: dict, key: str, kind: str | None, lineno: int,
           path: str):
    """record[key], which must be present and, unless kind is None, of
    that kind (see schema.accepts), else ParseError names the line. A
    float field's value is returned as a float."""
    if key not in record:
        raise ParseError(f"{path}:{lineno}: missing field '{key}'")
    value = record[key]
    if kind is None or accepts(kind, value):
        return float(value) if kind == "float" else value
    raise ParseError(f"{path}:{lineno}: field '{key}' must be "
                     f"{describe(kind)}, got {value!r}")


def _time(record: dict, lineno: int, path: str) -> float:
    """record["time_s"], a finite number, else ParseError names the line."""
    time_s = _field(record, "time_s", "float", lineno, path)
    if not math.isfinite(time_s):
        raise ParseError(f"{path}:{lineno}: field 'time_s' must be "
                         f"finite, got {time_s!r}")
    return time_s


def _numbers(value, shape: tuple, lineno: int, path: str,
             what: str) -> np.ndarray:
    """value, JSON numbers in nested lists, as a float64 array of shape,
    in which None matches any length; an empty list is zero rows of the
    rest. A ragged list, and a null, string or boolean among the numbers,
    raise ParseError naming the line."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}:{lineno}: {what} must be numbers in a "
                         f"rectangular shape: {exc}") from None
    if arr.dtype != np.float64:
        if arr.dtype.kind not in "iu":
            raise ParseError(f"{path}:{lineno}: {what} must be numbers in a "
                             f"rectangular shape, found a value that is not "
                             f"a number")
        arr = arr.astype(np.float64)
    if arr.shape == (0,) and shape[0] is None:
        try:
            arr = arr.reshape(0, *shape[1:])
        except ValueError:  # a length past numpy's limit, refused below
            pass
    if (arr.ndim != len(shape) or arr.shape[1:] != shape[1:]
            or shape[0] not in (None, arr.shape[0])):
        want = ", ".join("K" if n is None else str(n) for n in shape)
        raise ParseError(f"{path}:{lineno}: {what} shape {arr.shape} does "
                         f"not match ({want})")
    # numpy reads true and false among numbers as 1 and 0: look up in
    # value only the cells that hold 0 or 1.
    hits = (arr == 0.0) | (arr == 1.0)
    if hits.any():
        for index in zip(*np.nonzero(hits)):
            cell = value
            for i in index:
                cell = cell[i]
            if isinstance(cell, bool):
                raise ParseError(f"{path}:{lineno}: {what} must be numbers, "
                                 f"found {json.dumps(cell)}, not a number")
    return arr


def _read_records(path: str) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each line that is not blank. Lines end
    at \\n, \\r\\n or a lone \\r, as in a file read as text."""
    lineno = 0
    # lines longer than the default 8 KiB buffer take its slow path
    with open(path, "rb", buffering=1 << 16) as fh:
        for chunk in fh:
            for line in chunk.splitlines() if b"\r" in chunk else (chunk,):
                lineno += 1
                record = _parse_line(line, lineno, path)
                if record is not None:
                    yield lineno, record


def _open(path: str, fmt: str) -> tuple[dict, Iterator[tuple[int, dict]]]:
    """The header of a file of format fmt and its (line number, record)
    pairs after the header. The header must name fmt and FORMAT_VERSION,
    and a joint-bearing one a schema (str) and n_joints (int >= 1)."""
    records = _read_records(path)
    try:
        lineno, header = next(records)
    except StopIteration:
        raise ParseError(f"{path}: empty file, expected header record")
    if header.get("format") != fmt:
        raise ParseError(f"{path}:{lineno}: expected {fmt} header, found "
                         f"{header.get('format')!r}")
    version = _field(header, "format_version", "int", lineno, path)
    if version != FORMAT_VERSION:
        raise ParseError(
            f"{path}:{lineno}: unsupported format_version {version!r}")
    if fmt in (DETECTIONS_FORMAT, TRACKS_FORMAT, GROUND_TRUTH_FORMAT):
        _field(header, "schema", "str", lineno, path)
        if _field(header, "n_joints", "int", lineno, path) < 1:
            raise ParseError(f"{path}:{lineno}: n_joints must be at least 1")
    return header, records


# -- calibration ------------------------------------------------------


def save_calibration(cameras: Sequence[CameraCalibration], path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_line({"format": CALIBRATION_FORMAT,
                        "format_version": FORMAT_VERSION}))
        for cam in cameras:
            fh.write(_line({
                "id": int(cam.cam_id),
                "K": _floats(cam.K),
                "R": _floats(cam.R),
                "o": _floats(cam.o),
                "width": int(cam.width),
                "height": int(cam.height),
                "fps": float(cam.fps),
            }))


def load_calibration(path: str) -> list[CameraCalibration]:
    """Read a calibration file; rotation orthonormality is re-validated."""
    cameras: list[CameraCalibration] = []
    _, records = _open(path, CALIBRATION_FORMAT)
    for lineno, rec in records:
        k, r, o = (_numbers(_field(rec, key, None, lineno, path), (size,),
                            lineno, path, key)
                   for key, size in (("K", 9), ("R", 9), ("o", 3)))
        cam_id = _field(rec, "id", "int", lineno, path)
        width = _field(rec, "width", "int", lineno, path)
        height = _field(rec, "height", "int", lineno, path)
        fps = _field(rec, "fps", "float", lineno, path)
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
    with open(path, "wb") as fh:
        fh.write(_line({"format": DETECTIONS_FORMAT,
                        "format_version": FORMAT_VERSION,
                        "schema": schema_name,
                        "n_joints": int(n_joints)}))
        for frame, time_s, cam_id, poses in records:
            poses = np.asarray(poses, dtype=np.float64)
            fh.write(_encode({
                "frame": int(frame),
                "camera": int(cam_id),
                "time_s": float(time_s),
                "poses": poses.tolist(),
            }, np.append(poses, time_s)))


def read_detections_header(path: str) -> dict:
    """Return the checked header record of a detections file."""
    header, records = _open(path, DETECTIONS_FORMAT)
    records.close()
    return header


def load_detections(path: str,
                    config: AffinityConfig | None = None,
                    cameras: Sequence[CameraCalibration] | None = None,
                    ) -> Iterator[FrameBundle]:
    """Stream FrameBundles from a detections file.

    Each record holds one camera's poses at one frame, which must form a
    rectangular (P, N, 3) array of numbers; an empty list means the
    camera saw no one. A second record for the same camera in one frame
    is an error. Joint validity is recomputed from confidences (and
    image bounds when cameras are given) by affinity.valid_joints, so a
    file written from synth poses parses back to the same masks. Frames
    must be non-decreasing.
    """
    cfg = config if config is not None else AffinityConfig()
    cam_by_id = {c.cam_id: c for c in cameras} if cameras is not None else {}
    header, records = _open(path, DETECTIONS_FORMAT)
    shape = (None, header["n_joints"], 3)

    current: FrameBundle | None = None
    last_frame = None
    for lineno, rec in records:
        frame = _field(rec, "frame", "int", lineno, path)
        cam_id = _field(rec, "camera", "int", lineno, path)
        time_s = _time(rec, lineno, path)
        arr = _numbers(_field(rec, "poses", None, lineno, path), shape,
                       lineno, path, "poses")
        if last_frame is not None and frame < last_frame:
            raise NonMonotonicFrames(
                f"{path}:{lineno}: frame {frame} after frame {last_frame}"
            )
        last_frame = frame
        if current is not None and frame != current.frame:
            yield current
            current = None
        if current is None:
            current = FrameBundle(frame, time_s, {}, {}, {})
        elif cam_id in current.poses:
            raise ParseError(f"{path}:{lineno}: a second record for camera "
                             f"{cam_id} in frame {frame}")
        elif time_s > current.time_s:
            current.time_s = time_s
        current.poses[cam_id] = arr
        current.valid[cam_id] = valid_joints(arr, cfg, cam_by_id.get(cam_id))
        current.times[cam_id] = time_s
    if current is not None:
        yield current


# -- tracks -----------------------------------------------------------


class TrackWriter:
    """Streaming tracks-file writer; one record per frame, flushed as written."""

    def __init__(self, path: str, schema_name: str, n_joints: int):
        self._fh = open(path, "wb")
        self._fh.write(_line({"format": TRACKS_FORMAT,
                              "format_version": FORMAT_VERSION,
                              "schema": schema_name,
                              "n_joints": int(n_joints)}))
        self._fh.flush()

    def write(self, frame: int, time_s: float,
              skeletons: Sequence[tuple[int, Skeleton3D]]) -> None:
        """Write one frame's record; a NaN or inf joint or time raises
        ValidationError naming the frame (and track) and writes nothing."""
        tracks = [
            {"id": int(track_id),
             "joints": [[*xyz, FLAG_CHARS[code]] for xyz, code in
                        zip(skel.joints.tolist(), skel.flags.tolist())]}
            for track_id, skel in skeletons
        ]
        record = {"frame": int(frame), "time_s": float(time_s),
                  "tracks": tracks}
        floats = np.concatenate(
            [skel.joints.ravel() for _, skel in skeletons] + [[time_s]])
        try:
            line = _encode(record, floats)
        except ValueError:
            for track_id, skel in skeletons:
                if not np.isfinite(skel.joints).all():
                    raise ValidationError(
                        f"frame {frame}: track {track_id} has a joint that "
                        f"is not finite") from None
            raise ValidationError(f"frame {frame}: time_s {time_s!r} is not "
                                  f"finite") from None
        self._fh.write(line)
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


def _unique_ids(ids: list, what: str, lineno: int, path: str) -> None:
    """Raise ParseError naming the line and the first id of ids that
    repeats an earlier one, if any does."""
    if len(set(ids)) != len(ids):
        seen = set()
        dup = next(i for i in ids if i in seen or seen.add(i))
        raise ParseError(f"{path}:{lineno}: a second {what} with id {dup}")


def _track_joints(rows: list, n_joints: int, lineno: int,
                  path: str) -> tuple[np.ndarray, np.ndarray]:
    """(K, N, 3) joints and (K, N) flag codes of K joint lists of
    [X,Y,Z,flag] rows, else ParseError naming the line.

    One flat pass reads K lists of n_joints rows of 4 items: the rows
    chained into one list hold the flag of every joint at every fourth
    item from 3, and x, y, z in the rest. Any other input, and any fault,
    is read again row by row, which words the error."""
    try:
        if (all(len(joints) == n_joints for joints in rows)
                and set(map(len, chain.from_iterable(rows))) <= {4}):
            flat = list(chain.from_iterable(chain.from_iterable(rows)))
            codes = np.array(list(map(CHAR_FLAGS.__getitem__, flat[3::4])),
                             dtype=np.uint8).reshape(len(rows), n_joints)
            del flat[3::4]
            xyz = _numbers(flat, (len(flat),), lineno, path, "track joints")
            return xyz.reshape(len(rows), n_joints, 3), codes
    except (TypeError, KeyError, ParseError):
        pass
    try:
        xyz = [[(x, y, z) for x, y, z, _ in joints] for joints in rows]
        codes = [[CHAR_FLAGS[row[3]] for row in joints] for joints in rows]
    except (TypeError, ValueError, KeyError):
        raise ParseError(
            f"{path}:{lineno}: joint row must be [X,Y,Z,flag]"
        ) from None
    joints = _numbers(xyz, (None, n_joints, 3), lineno, path, "track joints")
    return joints, np.array(codes, dtype=np.uint8)


def load_tracks(path: str) -> TrackFile:
    """Read a tracks file. Frames must increase, and the ids of one
    record must differ."""
    header, records = _open(path, TRACKS_FORMAT)
    n_joints = header["n_joints"]
    frames: list[TrackFrame] = []
    last = None
    for lineno, rec in records:
        frame = _field(rec, "frame", "int", lineno, path)
        if last is not None and frame <= last:
            raise NonMonotonicFrames(
                f"{path}:{lineno}: frame {frame} after frame {last}"
            )
        last = frame
        time_s = _time(rec, lineno, path)
        entries = _field(rec, "tracks", "list[dict]", lineno, path)
        ids = [_field(entry, "id", "int", lineno, path) for entry in entries]
        rows = [_field(entry, "joints", None, lineno, path)
                for entry in entries]
        joints, codes = _track_joints(rows, n_joints, lineno, path)
        _unique_ids(ids, "track", lineno, path)
        frames.append(TrackFrame(frame, time_s, dict(zip(ids, joints)),
                                 dict(zip(ids, codes))))
    return TrackFile(header["schema"], n_joints, frames)


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
    with open(path, "wb") as fh:
        fh.write(_line({"format": GROUND_TRUTH_FORMAT,
                        "format_version": FORMAT_VERSION,
                        "schema": schema_name,
                        "n_joints": int(n_joints)}))
        for gt in frames:
            if last is not None and gt.frame <= last:
                raise ValidationError(
                    f"ground-truth frames must increase: {gt.frame} after {last}"
                )
            last = gt.frame
            actors = []
            floats = [[]]
            for aid, xyz in gt.actors.items():
                xyz = np.asarray(xyz, dtype=np.float64)
                floats.append(xyz.ravel())
                entry = {"id": int(aid), "joints": xyz.tolist()}
                if aid in gt.masks:
                    entry["mask"] = np.asarray(gt.masks[aid],
                                               dtype=bool).tolist()
                actors.append(entry)
            fh.write(_encode({"frame": int(gt.frame), "actors": actors},
                             np.concatenate(floats)))


def load_ground_truth(path: str) -> GroundTruthFile:
    header, records = _open(path, GROUND_TRUTH_FORMAT)
    n_joints = header["n_joints"]
    frames: list[GroundTruthFrame] = []
    last = None
    for lineno, rec in records:
        frame = _field(rec, "frame", "int", lineno, path)
        if last is not None and frame <= last:
            raise NonMonotonicFrames(
                f"{path}:{lineno}: frame {frame} after frame {last}"
            )
        last = frame
        entries = _field(rec, "actors", "list[dict]", lineno, path)
        ids = [_field(entry, "id", "int", lineno, path) for entry in entries]
        value = [_field(entry, "joints", None, lineno, path)
                 for entry in entries]
        joints = _numbers(value, (None, n_joints, 3), lineno, path,
                          "actor joints")
        _unique_ids(ids, "actor", lineno, path)
        actors = dict(zip(ids, joints))
        masks = {aid: np.array(_field(entry, "mask", "list[bool]", lineno,
                                      path))
                 for aid, entry in zip(ids, entries) if "mask" in entry}
        if any(mask.shape != (n_joints,) for mask in masks.values()):
            raise ParseError(f"{path}:{lineno}: mask must be a list of "
                             f"{n_joints} booleans")
        frames.append(GroundTruthFrame(frame, actors, masks))
    return GroundTruthFile(header["schema"], n_joints, frames)


# -- corruption sidecar -----------------------------------------------


def write_corruption(records: Iterable[dict], path: str,
                     schema_name: str) -> None:
    """Write per-joint corruption labels {frame, camera, pose, joint, class}."""
    with open(path, "wb") as fh:
        fh.write(_line({"format": CORRUPTION_FORMAT,
                        "format_version": FORMAT_VERSION,
                        "schema": schema_name}))
        for rec in records:
            fh.write(_encode_plain(rec))


def load_corruption(path: str) -> list[dict]:
    _, records = _open(path, CORRUPTION_FORMAT)
    out = []
    for lineno, rec in records:
        for key, kind in (("frame", "int"), ("camera", "int"), ("pose", "int"),
                          ("joint", "int"), ("class", "str")):
            _field(rec, key, kind, lineno, path)
        out.append(rec)
    return out


def load_config_file(path: str) -> dict:
    """Read a JSON object of configuration overrides."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    return data
