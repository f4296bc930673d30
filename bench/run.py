"""Benchmark of the online tracker, end to end and per layer.

    python3 bench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Runs the `track` pipeline as a user runs it, from the root of a source
checkout: synthesize a scene and export it, read the detections file
frame by frame, call `PoseTracker.step`, write the tracks file, then
score the tracks as `eval` does. The loop is closed: the next frame is
read only after the previous frame's record is flushed.

A run starts with an untimed warm-up round: set-up and the first
WARM_UP_FRAMES frames, which pay lazy imports and first calls. Timed
rounds of the whole pipeline on the same inputs follow until --seconds
have passed since the start, at least MIN_FRAMES frames were timed and
at least two rounds ran. The first timed round's output is checked in
full (see checks.py); every later round must write the same tracks and
PCP report. Timings are scaled to a reference host speed by a probe
sampled while they run (see hostspeed.py). With --trace 0 the last line
of stdout is a JSON object with the end-to-end metrics. With --trace 1
rounds 2, 4, ... are traced (see spans.py) and the line holds the
per-layer metrics and the tracing overhead against rounds 1, 3, ...
Generated scenes, tracks and the trace file go to bench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
# At least ten frames beyond the 95th percentile.
MIN_FRAMES = 200
# Frames stepped by the untimed warm-up round.
WARM_UP_FRAMES = 20
# An untraced round repeats eval until this much time has passed, so that
# eval_ms_per_frame is a median of several readings.
EVAL_MIN_S = 1.0


@dataclass
class Round:
    frames: int = 0
    failed: int = 0
    frame_s: list = field(default_factory=list)
    loop_s: float = 0.0
    setup_s: float = 0.0
    eval_s: list = field(default_factory=list)     # one per eval
    # The same four timings scaled to the reference host speed
    # (see hostspeed.py).
    frame_ref_s: list = field(default_factory=list)
    loop_ref_s: float = 0.0
    setup_ref_s: float = 0.0
    eval_ref_s: list = field(default_factory=list)
    probe_s: list = field(default_factory=list)   # the sampler's probes
    emitted: list = field(default_factory=list)   # (frame, [(id, Skeleton3D)])
    lifecycle: tuple = ()
    paths: dict = field(default_factory=dict)
    report: object = None
    evals_agree: bool = True
    digest: str = ""


def run_round(workload, seed, out_dir, tracer=None, sampler=None,
              warm_up=False) -> Round:
    """One round: set up, track every frame, score. A traced round
    records every span in tracer; an untraced one times only its set-up
    and eval, and steps frames under no span. With a sampler open, every
    timing leaves its probes out and gets its scaled twin. A warm-up
    round sets up, steps the first WARM_UP_FRAMES frames and stops."""
    from mvtrack3d import fileio, kernels, synth
    from mvtrack3d.errors import MvTrackError
    from mvtrack3d.evaluation import pcp_evaluate
    from mvtrack3d.geometry import CameraRig
    from mvtrack3d.schema import get_schema
    from mvtrack3d.tracker import PoseTracker
    from spans import Tracer
    from workloads import apply_schedule, ground_truth_frames

    clock = tracer or Tracer()
    r = Round()
    config = workload.tracker
    def timed(t0, t1):
        if sampler is None:
            return t1 - t0, t1 - t0
        return sampler.timed(t0, t1)

    with clock.span("setup") as setup:
        with clock.span("synth.generate"):
            scene = synth.generate(workload.scene(seed))
            apply_schedule(workload, scene)
        with clock.span("synth.export"):
            r.paths = scene.export(out_dir)
            if workload.schedule is not None:
                fileio.save_ground_truth(
                    ground_truth_frames(workload, scene),
                    r.paths["ground_truth"], scene.schema.name,
                    scene.schema.n_joints)
        r.paths["tracks"] = os.path.join(out_dir, "tracks.jsonl")
        with clock.span("fileio.load_calibration"):
            cameras = fileio.load_calibration(r.paths["calibration"])
        with clock.span("geometry.rig"):
            rig = CameraRig(cameras)
        header = fileio.read_detections_header(r.paths["detections"])
        pose_tracker = PoseTracker(rig, config)
        with clock.span("kernels.warm_up"):
            kernels.warm_up()
        writer = fileio.TrackWriter(r.paths["tracks"], header["schema"],
                                    header["n_joints"])
        frames = iter(fileio.load_detections(r.paths["detections"],
                                             config.affinity, cameras))
    r.setup_s, r.setup_ref_s = timed(setup[1], setup[2])

    # The scene's objects would otherwise stay alive through the loop and
    # lengthen the collector's passes, which `track` does not pay.
    n_frames = len(scene.bundles)
    if warm_up:
        n_frames = min(n_frames, WARM_UP_FRAMES)
    del scene
    clock_now = time.perf_counter
    marks = []
    with writer:
        loop_t0 = clock_now()
        if tracer is None:
            for _ in range(n_frames):
                t0 = clock_now()
                bundle = next(frames)
                try:
                    out = pose_tracker.step(bundle)
                except MvTrackError:
                    r.failed += 1
                    continue
                writer.write(bundle.frame, bundle.time_s, out)
                marks.append((t0, clock_now()))
                r.emitted.append((bundle.frame, out))
        else:
            for _ in range(n_frames):
                with tracer.span("frame") as frame:
                    with tracer.span("fileio.parse"):
                        bundle = next(frames)
                    try:
                        out = tracer.step(pose_tracker, bundle)
                    except MvTrackError:
                        r.failed += 1
                        continue
                    with tracer.span("fileio.write"):
                        writer.write(bundle.frame, bundle.time_s, out)
                marks.append((frame[1], frame[2]))
                r.emitted.append((bundle.frame, out))
        r.loop_s, r.loop_ref_s = timed(loop_t0, clock_now())
    for t0, t1 in marks:
        wall, ref = timed(t0, t1)
        r.frame_s.append(wall)
        r.frame_ref_s.append(ref)
    r.frames = n_frames
    if warm_up:
        return r
    if next(frames, None) is not None:
        raise RuntimeError("the detections file holds more frames than "
                           "the scene")

    while True:
        with clock.span("eval") as ev:
            with clock.span("fileio.load_tracks"):
                tracks = fileio.load_tracks(r.paths["tracks"])
            with clock.span("fileio.load_ground_truth"):
                gt = fileio.load_ground_truth(r.paths["ground_truth"])
            with clock.span("evaluation.pcp"):
                report = pcp_evaluate(tracks, gt,
                                      get_schema(tracks.schema or gt.schema))
        wall, ref = timed(ev[1], ev[2])
        r.eval_s.append(wall)
        r.eval_ref_s.append(ref)
        if r.report is None:
            r.report = report
        elif report.to_records() != r.report.to_records():
            r.evals_agree = False
        if tracer is not None or sum(r.eval_s) >= EVAL_MIN_S:
            break
    with open(r.paths["tracks"], "rb") as fh:
        r.digest = hashlib.sha256(fh.read()).hexdigest()
    r.lifecycle = lifecycle(r.emitted)
    return r


def check_first_round(workload, r: Round):
    """Full checks of one round's output; returns (problems, Score)."""
    import checks
    from mvtrack3d.schema import SYNTH14

    _, records = checks.read_tracks(r.paths["tracks"])
    gt = checks.read_ground_truth(r.paths["ground_truth"])
    cams = checks.read_cameras(r.paths["calibration"])
    problems = checks.readback_problems(records, r.emitted)
    mine = checks.score(records, gt, SYNTH14.limbs)
    problems += checks.report_problems(r.report, mine)
    problems += checks.geometry_problems(records, cams)
    if workload.clean:
        if mine.pcp != 100.0:
            problems.append(f"PCP {mine.pcp:.2f} on a clean scene")
        if not mine.joint_err_mm < 30.0:
            problems.append(f"mean T-joint error {mine.joint_err_mm:.2f} mm "
                            f"is not under 30 mm")
        problems += checks.identity_problems(mine)
    if workload.all_visible:
        problems += checks.visibility_problems(gt, cams,
                                               SYNTH14.index("r_hip"))
    if workload.schedule is not None:
        n_actors = workload.scene(0).n_actors
        problems += checks.reentry_problems(
            records, workload.present, n_actors,
            workload.tracker.effective_miss_limit)
        problems += checks.identity_problems(mine)
    return problems, mine


def lifecycle(emitted) -> tuple[int, int, int]:
    """(track-frames emitted, births, retirements) over one round."""
    live = births = retired = 0
    seen, prev = set(), set()
    for _, out in emitted:
        ids = {tid for tid, _ in out}
        live += len(ids)
        births += len(ids - seen)
        retired += len(prev - ids)
        seen |= ids
        prev = ids
    return live, births, retired


def end_to_end(rounds, mine, ref=True) -> dict:
    """The end-to-end metrics; timings at the reference host speed, or
    as the clock read them with ref=False."""
    import numpy as np

    def pick(raw, scaled):
        return [getattr(r, scaled if ref else raw) for r in rounds]

    frame_ms = 1e3 * np.concatenate(pick("frame_s", "frame_ref_s"))
    frames = sum(len(r.frame_s) for r in rounds)
    return {
        "frame_ms_p50": (float(np.percentile(frame_ms, 50)), "ms"),
        "frame_ms_p95": (float(np.percentile(frame_ms, 95)), "ms"),
        "fps": (frames / sum(pick("loop_s", "loop_ref_s")), "frames/s"),
        "eval_ms_per_frame": (1e3 * statistics.median(
            e / len(r.frame_s)
            for es, r in zip(pick("eval_s", "eval_ref_s"), rounds)
            for e in es), "ms"),
        "setup_s": (statistics.median(pick("setup_s", "setup_ref_s")), "s"),
        "pcp": (mine.pcp, "%"),
        "joint_err_mm": (mine.joint_err_mm, "mm"),
    }


def per_layer(rounds, summary, workload_bytes) -> dict:
    """Per-layer metrics from the traced rounds' span summary; per frame
    unless the unit says otherwise."""
    traced = rounds[1::2]
    plain = rounds[0::2]
    frames = sum(len(r.frame_s) for r in traced)
    setups = len(traced)

    def pick(name, root="frame", parent=None):
        tail = "/" + (f"{parent}/{name}" if parent else name)
        hits = [v for p, v in summary.items()
                if p.startswith(root + "/") and p.endswith(tail)]
        return {
            "total_s": sum(v["total_s"] for v in hits),
            "calls": sum(v["calls"] for v in hits),
            "work": [sum(w) for w in zip(*(v["work"] for v in hits))]
            or [0, 0],
        }

    def ms(name, **kw):
        return (1e3 * pick(name, **kw)["total_s"] / frames, "ms")

    def per_frame(count):
        return (count / frames, "count/frame")

    frame_s = summary["frame"]["total_s"]
    stages = sum(pick(n)["total_s"] for n in (
        "fileio.parse", "tracker.associate", "tracker.reconstruct",
        "tracker.initialize", "fileio.write"))
    live, births, retired = (sum(c) for c in zip(*(r.lifecycle
                                                    for r in traced)))
    recon = pick("kernels.reconstruct_joints")["work"]
    fps_traced = frames / sum(r.loop_s for r in traced)
    fps_plain = sum(len(r.frame_s) for r in plain) / sum(r.loop_s
                                                          for r in plain)
    read_bytes, write_bytes = workload_bytes
    return {
        "fileio.parse_ms": ms("fileio.parse"),
        "fileio.write_ms": ms("fileio.write"),
        "fileio.read_bytes": (read_bytes, "B/frame"),
        "fileio.write_bytes": (write_bytes, "B/frame"),
        "tracker.step_ms": ms("tracker.step"),
        "tracker.associate_ms": ms("tracker.associate"),
        "tracker.reconstruct_ms": ms("tracker.reconstruct"),
        "tracker.initialize_ms": ms("tracker.initialize"),
        "tracker.live_tracks": per_frame(live),
        "tracker.births": per_frame(births),
        "tracker.retirements": per_frame(retired),
        "affinity.score_ms": ms("affinity.score"),
        "affinity.score_cells": per_frame(pick("affinity.score")["work"][0]),
        "assignment.solve_ms": ms("assignment.solve"),
        "assignment.solve_calls": per_frame(pick("assignment.solve")["calls"]),
        "assignment.hungarian_calls":
            per_frame(pick("assignment.hungarian")["calls"]),
        "kernels.filter_ms": ms("kernels.filter"),
        "kernels.views_dropped": per_frame(pick("kernels.filter")["work"][0]),
        "kernels.triangulate_ms":
            ms("kernels.triangulate", parent="kernels.reconstruct_joints"),
        "kernels.joints_triangulated": per_frame(recon[0]),
        "kernels.joints_predicted": per_frame(recon[1]),
        "kernels.smooth_ms": ms("tracker.advance"),
        "kernels.smooth_calls": per_frame(pick("kernels.smooth")["calls"]),
        "kernels.init_score_calls":
            per_frame(pick("kernels.init_score")["calls"]),
        "kernels.init_filter_ms": ms("kernels.init_filter"),
        "evaluation.pcp_ms": ms("evaluation.pcp", root="eval"),
        "fileio.load_tracks_ms": ms("fileio.load_tracks", root="eval"),
        "synth.generate_s": (pick("synth.generate", root="setup")["total_s"]
                             / setups, "s"),
        "synth.export_s": (pick("synth.export", root="setup")["total_s"]
                           / setups, "s"),
        "geometry.rig_ms": (1e3 * pick("geometry.rig", root="setup")["total_s"]
                            / setups, "ms"),
        "trace.frame_ms": (1e3 * frame_s / frames, "ms"),
        "trace.stage_coverage_pct": (100.0 * stages / frame_s, "%"),
        "trace.fps": (fps_traced, "frames/s"),
        "trace.overhead_pct": (100.0 * (fps_plain - fps_traced) / fps_plain,
                               "%"),
    }


def print_summary(summary: dict, frames: int, setups: int) -> None:
    """Total and self time of every span path: per frame under frame and
    eval, per set-up under setup."""
    print(f"trace over {frames} frames and {setups} set-ups: "
          f"total ms, self ms, calls")
    order = {"frame": 0, "eval": 1, "setup": 2}
    for path in sorted(summary, key=lambda p: (order[p.split("/")[0]], p)):
        v = summary[path]
        per = setups if path.startswith("setup") else frames
        name = "  " * path.count("/") + path.rsplit("/", 1)[-1]
        print(f"  {name:<40} {1e3 * v['total_s'] / per:10.4f} "
              f"{1e3 * v['self_s'] / per:10.4f} {v['calls']:8d}")


def environment() -> str:
    import numpy as np
    from mvtrack3d.backend import BACKEND

    threads = os.environ.get("OPENBLAS_NUM_THREADS",
                             "unset (OpenBLAS default)")
    return (f"backend {BACKEND}, numpy {np.__version__}, "
            f"cpu_count {os.cpu_count()}, OPENBLAS_NUM_THREADS {threads}, "
            f"python {sys.version.split()[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mvtrack3d", "__init__.py")):
        print(f"error: no mvtrack3d sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from hostspeed import NOMINAL_S, Sampler, probe
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, choose from "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(BENCH_DIR, "out", workload.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    print(f"workload {workload.name}, seed {args.seed}: {environment()}")
    probe()   # its first call pays numpy's lazy set-up, untimed

    tracer = Tracer() if args.trace else None
    rounds: list[Round] = []
    problems: list[str] = []
    mine = None
    start = time.perf_counter()
    # Set-up's lazy imports and first calls, and the loop's, are paid
    # here, untimed; every round after it is timed.
    run_round(workload, args.seed, out_dir, warm_up=True)
    gc.collect()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            with tracer.patched():
                r = run_round(workload, args.seed, out_dir, tracer)
        else:
            with Sampler() as sampler:
                r = run_round(workload, args.seed, out_dir,
                              sampler=sampler)
            r.probe_s = sampler.probes
        if not rounds:
            problems, mine = check_first_round(workload, r)
        elif r.digest != rounds[0].digest:
            problems.append(f"round {len(rounds) + 1} wrote other tracks "
                            f"than round 1 from the same inputs")
        elif r.report.to_records() != rounds[0].report.to_records():
            problems.append(f"round {len(rounds) + 1} scored differently")
        if not r.evals_agree:
            problems.append(f"round {len(rounds) + 1} scored its own tracks "
                            f"differently from one eval to the next")
        r.emitted = []
        rounds.append(r)
        gc.collect()
        print(f"round {len(rounds)}{' traced' if traced else ''}: "
              f"{r.frames} frames in {r.loop_s:.3f} s, setup "
              f"{r.setup_s:.3f} s, eval {statistics.median(r.eval_s):.3f} s"
              f" ({len(r.eval_s)}x)"
              + (f", probe {1e3 * statistics.median(r.probe_s):.3f} ms"
                 if r.probe_s else ""), flush=True)
        frames = sum(len(x.frame_s) for x in rounds)
        if (time.perf_counter() - start >= args.seconds
                and frames >= MIN_FRAMES and len(rounds) >= 2):
            break

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"pcp {mine.pcp:.2f}, T-joint error {mine.joint_err_mm:.2f} mm, "
          f"identity switches {mine.switches}, tracks "
          f"{len(mine.actors_of)}")
    if tracer is None:
        probe_ms = 1e3 * statistics.median(p for r in rounds
                                           for p in r.probe_s)
        print(f"host probe {probe_ms:.4f} ms, reference "
              f"{1e3 * NOMINAL_S:.4f} ms: timings scaled by "
              f"{1e3 * NOMINAL_S / probe_ms:.4f} on the median")
        for name, (value, unit) in end_to_end(rounds, mine,
                                              ref=False).items():
            if unit in ("ms", "s", "frames/s"):
                print(f"{name + ' (as timed)':<30} {value:14.4f} {unit}")
        metrics = end_to_end(rounds, mine)
    else:
        n_frames = rounds[0].frames
        sizes = tuple(
            (os.path.getsize(rounds[0].paths[k]) - _header_bytes(
                rounds[0].paths[k])) / n_frames
            for k in ("detections", "tracks"))
        summary = tracer.summary()
        metrics = per_layer(rounds, summary, sizes)
        print_summary(summary, sum(len(r.frame_s) for r in rounds[1::2]),
                      len(rounds[1::2]))
        tracer.write(os.path.join(out_dir, "trace.jsonl"),
                     {"workload": workload.name, "seed": args.seed,
                      "environment": environment()}, summary)
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.frames for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _header_bytes(path: str) -> int:
    with open(path, "rb") as fh:
        return len(fh.readline())


if __name__ == "__main__":
    sys.exit(main())
