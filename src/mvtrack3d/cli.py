"""Command-line driver: scene synthesis, tracking, scoring, benchmarks.

Configuration precedence, lowest to highest: built-in preset, config
file, command-line flags (--set KEY=VALUE, then the --no-* switches).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import tempfile
import time

from . import fileio, synth
from .affinity import PRESETS, AffinityConfig, preset
from .errors import ConfigError, MvTrackError
from .evaluation import pcp_evaluate
from .geometry import CameraRig
from .schema import get_schema
from .tracker import PoseTracker, TrackerConfig

# `bench` repeats eval until this much time has passed and reports the
# median of its readings.
EVAL_MIN_S = 1.0


def _parse_set(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key.strip()] = json.loads(raw)
        except ValueError:  # not JSON, or an int past the digit limit
            out[key.strip()] = raw
    return out


def _require_files(*paths: str) -> None:
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(path)


def _merged_overrides(args) -> tuple[AffinityConfig | None, dict]:
    """Apply precedence: preset, then config file, then --set. Returns the
    named preset's affinity settings, or None, and the overrides."""
    file_cfg = {}
    if getattr(args, "config", None):
        _require_files(args.config)
        file_cfg = dict(fileio.load_config_file(args.config))
    in_file = file_cfg.pop("preset", None)
    name = getattr(args, "preset", None) or in_file
    file_cfg.update(_parse_set(getattr(args, "set", None)))
    return (None if name is None else preset(name)), file_cfg


# -- subcommands --------------------------------------------------------


def _cmd_synth(args) -> int:
    affinity, overrides = _merged_overrides(args)
    if affinity is not None:
        raise ConfigError("presets configure tracking, not scene synthesis")
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = synth.SceneConfig().with_overrides(**overrides)
    scene = synth.generate(cfg)
    paths = scene.export(args.out_dir)
    for kind in sorted(paths):
        print(f"{kind}: {paths[kind]}")
    return 0


def _track_frames(tracker: PoseTracker, bundles, writer) -> dict:
    """`track`'s loop: read a frame, step the tracker, write its tracks,
    until the frames run out. Returns the frame count and each part's
    mean ms per frame: reading, the tracker's stages, writing, and all."""
    clock = time.perf_counter
    frames = 0
    parse = write = 0.0
    start = read_from = clock()
    for bundle in bundles:
        t1 = clock()
        parse += t1 - read_from
        out = tracker.step(bundle)
        t2 = clock()
        writer.write(bundle.frame, bundle.time_s, out)
        read_from = clock()
        write += read_from - t2
        frames += 1
    end = clock()
    parse += end - read_from  # the read that found no more frames
    per_frame = 1e3 / max(frames, 1)
    return {"frames": frames, "parse_ms": parse * per_frame,
            **{f"{stage}_ms": ms
               for stage, ms in tracker.stage_means_ms.items()},
            "write_ms": write * per_frame,
            "total_ms": (end - start) * per_frame}


def _print_timings(timings: dict) -> None:
    for label, key in (("parse", "parse_ms"),
                       ("association", "associate_ms"),
                       ("reconstruction", "reconstruct_ms"),
                       ("initialization", "initialize_ms"),
                       ("write", "write_ms"),
                       ("full frame", "total_ms"),
                       ("eval", "eval_ms")):
        if key in timings:
            print(f"  {label:<14} {timings[key]:8.3f} ms/frame")


def _cmd_track(args) -> int:
    _require_files(args.calib, args.detections)
    affinity, overrides = _merged_overrides(args)
    config = TrackerConfig() if affinity is None \
        else TrackerConfig(affinity=affinity)
    # a --no-* switch that is not given leaves its setting as it was
    for key in ("part_aware", "joints_filter", "smoothing"):
        if getattr(args, f"no_{key}"):
            overrides[key] = False
    if overrides:
        config = config.with_overrides(**overrides)
    cameras = fileio.load_calibration(args.calib)
    rig = CameraRig(cameras)
    header = fileio.read_detections_header(args.detections)
    tracker = PoseTracker(rig, config)
    with fileio.TrackWriter(args.out, header["schema"],
                            header["n_joints"]) as writer:
        timings = _track_frames(tracker, fileio.load_detections(
            args.detections, config.affinity, cameras), writer)
    print(f"tracked {timings['frames']} frames from {args.detections}")
    _print_timings(timings)
    return 0


def _cmd_eval(args) -> int:
    _require_files(args.tracks, args.gt)
    tracks = fileio.load_tracks(args.tracks)
    gt = fileio.load_ground_truth(args.gt)
    schema_name = tracks.schema or gt.schema
    if gt.schema and tracks.schema and gt.schema != tracks.schema:
        raise ConfigError(
            f"schema mismatch: tracks use {tracks.schema!r}, "
            f"ground truth uses {gt.schema!r}"
        )
    report = pcp_evaluate(tracks, gt, get_schema(schema_name))
    if args.report == "records":
        for rec in report.to_records():
            print(json.dumps(rec, separators=(",", ":")))
    else:
        print(report.to_text())
    return 0


def _bench_once(frames: int, seed: int) -> dict:
    """Run `track`'s loop, read -> step -> write, on an exported stock
    scene, then `eval` on the tracks it wrote, and time each part, the
    scene's generation and export included. eval runs again until
    EVAL_MIN_S have passed, and eval_ms is the median run."""
    cfg = synth.SceneConfig(seed=seed, n_cameras=5, n_actors=4,
                            n_frames=frames, noise_px=1.0)
    t0 = time.perf_counter()
    scene = synth.generate(cfg)
    generate_s = time.perf_counter() - t0
    config = TrackerConfig(affinity=preset("shelf"))
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        paths = scene.export(tmp)
        export_s = time.perf_counter() - t0
        cameras = fileio.load_calibration(paths["calibration"])
        rig = CameraRig(cameras)
        schema = scene.schema
        warm = PoseTracker(rig, config)
        for bundle in itertools.islice(fileio.load_detections(
                paths["detections"], config.affinity, cameras), 10):
            warm.step(bundle)
        tracks_path = os.path.join(tmp, "tracks.jsonl")
        with fileio.TrackWriter(tracks_path, schema.name,
                                schema.n_joints) as writer:
            result = _track_frames(
                PoseTracker(rig, config),
                fileio.load_detections(paths["detections"], config.affinity,
                                       cameras), writer)
        evals = []
        while sum(evals) < EVAL_MIN_S:
            t0 = time.perf_counter()
            pcp_evaluate(fileio.load_tracks(tracks_path),
                         fileio.load_ground_truth(paths["ground_truth"]),
                         schema)
            evals.append(time.perf_counter() - t0)
        result["eval_ms"] = statistics.median(evals) * 1e3 / max(frames, 1)
    result.update(generate_s=generate_s, export_s=export_s)
    return result


def _cmd_bench(args) -> int:
    result = _bench_once(args.frames, args.seed or 0)
    print(f"{result['frames']} frames, 5 cameras, 4 actors")
    _print_timings(result)
    for label, key in (("generate", "generate_s"), ("export", "export_s")):
        print(f"  {label:<14} {result[key]:8.3f} s")
    print("RESULT " + json.dumps(result, separators=(",", ":")))
    return 0


# -- argument parsing ----------------------------------------------------


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of configuration overrides")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one setting; repeatable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvtrack3d",
        description="Online multi-camera 3D human pose tracking.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    _add_config_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_synth, preset=None)

    p = sub.add_parser("track", help="run the tracker over a detections file")
    p.add_argument("--calib", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=sorted(PRESETS))
    _add_config_flags(p)
    p.add_argument("--no-part-aware", action="store_true",
                   help="score associations with the plain per-joint mean")
    p.add_argument("--no-joints-filter", action="store_true",
                   help="triangulate without epipolar outlier removal")
    p.add_argument("--no-smoothing", action="store_true",
                   help="disable temporal smoothing of track joints")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="score a tracks file against ground truth")
    p.add_argument("--tracks", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--report", choices=("text", "records"), default="text")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="time read, tracker stages, write "
                                          "and eval on a stock scene")
    p.add_argument("--frames", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 2
    except MvTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
