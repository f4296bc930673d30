"""Command-line driver: scene synthesis, tracking, scoring, benchmarks.

Configuration precedence, lowest to highest: built-in preset, config
file, command-line flags (--set KEY=VALUE, then the --no-* switches).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
import time

from . import fileio, synth
from .affinity import PRESETS
from .errors import ConfigError, MvTrackError
from .evaluation import pcp_evaluate
from .geometry import CameraRig
from .schema import get_schema
from .tracker import PoseTracker, TrackerConfig


def _parse_set(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            out[key.strip()] = raw
    return out


def _require_files(*paths: str) -> None:
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(path)


def _merged_overrides(args) -> tuple[str | None, dict]:
    """Apply precedence: preset name, then config file, then --set."""
    file_cfg = {}
    if getattr(args, "config", None):
        _require_files(args.config)
        file_cfg = dict(fileio.load_config_file(args.config))
    preset = getattr(args, "preset", None) or file_cfg.pop("preset", None)
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}, "
                          f"choose from {sorted(PRESETS)}")
    file_cfg.update(_parse_set(getattr(args, "set", None)))
    return preset, file_cfg


# -- subcommands --------------------------------------------------------


def _cmd_synth(args) -> int:
    preset, overrides = _merged_overrides(args)
    if preset is not None:
        raise ConfigError("presets configure tracking, not scene synthesis")
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = synth.SceneConfig().with_overrides(**overrides)
    scene = synth.generate(cfg)
    paths = scene.export(args.out_dir)
    for kind in sorted(paths):
        print(f"{kind}: {paths[kind]}")
    return 0


def _cmd_track(args) -> int:
    _require_files(args.calib, args.detections)
    preset, overrides = _merged_overrides(args)
    config = TrackerConfig(affinity=PRESETS[preset]) if preset \
        else TrackerConfig()
    if overrides:
        config = config.with_overrides(**overrides)
    config = config.with_overrides(part_aware=not args.no_part_aware,
                                   joints_filter=not args.no_joints_filter,
                                   smoothing=not args.no_smoothing)
    cameras = fileio.load_calibration(args.calib)
    rig = CameraRig(cameras)
    header = fileio.read_detections_header(args.detections)
    schema_name = header.get("schema", "synth14")
    n_joints = int(header.get("n_joints", get_schema(schema_name).n_joints))
    tracker = PoseTracker(rig, config)
    frames = 0
    with fileio.TrackWriter(args.out, schema_name, n_joints) as writer:
        for bundle in fileio.load_detections(
                args.detections, config.affinity, cameras):
            writer.write(bundle.frame, bundle.time_s, tracker.step(bundle))
            frames += 1
    stage_ms = tracker.stage_means_ms
    print(f"tracked {frames} frames from {args.detections}")
    print(f"association    {stage_ms['associate']:8.3f} ms/frame")
    print(f"reconstruction {stage_ms['reconstruct']:8.3f} ms/frame")
    print(f"initialization {stage_ms['initialize']:8.3f} ms/frame")
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
    scene, then `eval` on the tracks it wrote, and time each part."""
    cfg = synth.SceneConfig(seed=seed, n_cameras=5, n_actors=4,
                            n_frames=frames, noise_px=1.0)
    scene = synth.generate(cfg)
    config = TrackerConfig(affinity=PRESETS["shelf"])
    clock = time.perf_counter
    with tempfile.TemporaryDirectory() as tmp:
        paths = scene.export(tmp)
        cameras = fileio.load_calibration(paths["calibration"])
        rig = CameraRig(cameras)
        schema = scene.schema
        warm = PoseTracker(rig, config)
        for bundle in itertools.islice(fileio.load_detections(
                paths["detections"], config.affinity, cameras), 10):
            warm.step(bundle)
        tracker = PoseTracker(rig, config)
        bundles = fileio.load_detections(paths["detections"],
                                         config.affinity, cameras)
        parse = write = 0.0
        tracks_path = os.path.join(tmp, "tracks.jsonl")
        with fileio.TrackWriter(tracks_path, schema.name,
                                schema.n_joints) as writer:
            t0 = clock()
            while True:
                t1 = clock()
                bundle = next(bundles, None)
                t2 = clock()
                parse += t2 - t1
                if bundle is None:
                    break
                out = tracker.step(bundle)
                t3 = clock()
                writer.write(bundle.frame, bundle.time_s, out)
                write += clock() - t3
            wall = clock() - t0
        t0 = clock()
        pcp_evaluate(fileio.load_tracks(tracks_path),
                     fileio.load_ground_truth(paths["ground_truth"]), schema)
        evaluate = clock() - t0
    stage = tracker.stage_means_ms
    per_frame = 1e3 / max(frames, 1)
    return {
        "frames": frames,
        "parse_ms": parse * per_frame,
        "associate_ms": stage["associate"],
        "reconstruct_ms": stage["reconstruct"],
        "initialize_ms": stage["initialize"],
        "write_ms": write * per_frame,
        "total_ms": wall * per_frame,
        "eval_ms": evaluate * per_frame,
    }


def _cmd_bench(args) -> int:
    result = _bench_once(args.frames, args.seed or 0)
    print(f"{result['frames']} frames, 5 cameras, 4 actors")
    print(f"  parse          {result['parse_ms']:8.3f} ms/frame")
    print(f"  association    {result['associate_ms']:8.3f} ms/frame")
    print(f"  reconstruction {result['reconstruct_ms']:8.3f} ms/frame")
    print(f"  initialization {result['initialize_ms']:8.3f} ms/frame")
    print(f"  write          {result['write_ms']:8.3f} ms/frame")
    print(f"  full frame     {result['total_ms']:8.3f} ms/frame")
    print(f"  eval           {result['eval_ms']:8.3f} ms/frame")
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
