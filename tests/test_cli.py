"""Command-line interface: synth, track, eval, bench."""

import json
import subprocess
import sys

import pytest

from mvtrack3d.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def synth_scene(capsys, tmp_path, name="scene", **settings):
    out_dir = tmp_path / name
    argv = ["synth", "--out-dir", str(out_dir)]
    for key, value in settings.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return {
        "calib": str(out_dir / "calibration.jsonl"),
        "detections": str(out_dir / "detections.jsonl"),
        "gt": str(out_dir / "ground_truth.jsonl"),
        "dir": out_dir,
    }


def track(capsys, paths, out_path, *extra):
    return run_cli(capsys, "track", "--calib", paths["calib"],
                   "--detections", paths["detections"],
                   "--out", str(out_path), *extra)


CLEAN = dict(seed=9, n_cameras=3, n_actors=2, n_frames=60, noise_px=0.5)
CORRUPT = dict(seed=13, n_cameras=2, n_actors=3, n_frames=80, noise_px=1.5,
               outlier_rate=0.1, outlier_px=120.0, outlier_burst=0.9,
               occlusion_rate=0.15, dropout_rate=0.05)


def test_synth_track_eval_pipeline(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    tracks = tmp_path / "tracks.jsonl"
    code, out, err = track(capsys, paths, tracks)
    assert code == 0, err
    assert "tracked 60 frames" in out
    assert "ms/frame" in out
    assert tracks.exists()

    code, out, err = run_cli(capsys, "eval", "--tracks", str(tracks),
                             "--gt", paths["gt"])
    assert code == 0, err
    assert "average" in out
    last = out.strip().splitlines()[-1].split()
    assert last[0] == "all" and last[-1] == "100.00"


def test_eval_record_output_is_json_and_reproducible(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    tracks = tmp_path / "tracks.jsonl"
    assert track(capsys, paths, tracks)[0] == 0
    runs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "eval", "--tracks", str(tracks),
                                 "--gt", paths["gt"], "--report", "records")
        assert code == 0, err
        runs.append(out)
    assert runs[0] == runs[1]
    records = [json.loads(line) for line in runs[0].strip().splitlines()]
    assert records[-1]["actor"] == "all"
    assert records[-1]["pcp"] == 100.0


def test_missing_input_file_exits_2_with_path(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "track", "--calib", str(tmp_path / "nope.jsonl"),
        "--detections", str(tmp_path / "alsono.jsonl"),
        "--out", str(tmp_path / "t.jsonl"))
    assert code == 2
    assert "file not found" in err
    assert "nope.jsonl" in err


def test_synth_rejects_tracking_presets(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"preset": "shelf", "n_frames": 5}')
    code, out, err = run_cli(capsys, "synth", "--out-dir",
                             str(tmp_path / "s"), "--config", str(cfg))
    assert code == 1
    assert "presets configure tracking" in err


def test_synth_set_overrides_beat_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_frames": 5, "n_cameras": 3, "n_actors": 1}')
    out_dir = tmp_path / "s"
    code, _, err = run_cli(capsys, "synth", "--out-dir", str(out_dir),
                           "--config", str(cfg), "--set", "n_frames=8")
    assert code == 0, err
    lines = (out_dir / "detections.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 8 * 3  # header plus one record per frame-camera


def test_invalid_override_value_fails_cleanly(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    code, out, err = run_cli(
        capsys, "track", "--calib", paths["calib"],
        "--detections", paths["detections"],
        "--out", str(tmp_path / "t.jsonl"), "--set", "epsilon=loads")
    assert code == 1
    assert "epsilon" in err
    code, out, err = run_cli(
        capsys, "track", "--calib", paths["calib"],
        "--detections", paths["detections"],
        "--out", str(tmp_path / "t.jsonl"), "--set", "epsilon")
    assert code == 1
    assert "=" in err


def test_ablation_switches_change_the_output(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CORRUPT)
    outputs = {}
    variants = {
        "default": (),
        "body": ("--no-part-aware",),
        "nofilter": ("--no-joints-filter",),
        "nosmooth": ("--no-smoothing",),
        "preset": ("--preset", "campus"),
    }
    for name, extra in variants.items():
        out_path = tmp_path / f"{name}.jsonl"
        code, _, err = track(capsys, paths, out_path, *extra)
        assert code == 0, err
        outputs[name] = out_path.read_bytes()
    for name in ("body", "nofilter", "nosmooth", "preset"):
        assert outputs[name] != outputs["default"], name


def test_truncated_input_yields_byte_identical_prefix(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CORRUPT)
    full_out = tmp_path / "full.jsonl"
    assert track(capsys, paths, full_out)[0] == 0

    det_lines = open(paths["detections"]).read().splitlines()
    kept = [det_lines[0]]
    kept += [ln for ln in det_lines[1:] if json.loads(ln)["frame"] < 40]
    short_det = tmp_path / "short.jsonl"
    short_det.write_text("\n".join(kept) + "\n")
    short_paths = dict(paths, detections=str(short_det))
    short_out = tmp_path / "short_tracks.jsonl"
    assert track(capsys, short_paths, short_out)[0] == 0

    full_bytes = full_out.read_bytes()
    short_bytes = short_out.read_bytes()
    assert len(short_bytes) < len(full_bytes)
    assert full_bytes.startswith(short_bytes)


def test_malformed_detections_exit_1_with_one_line_error(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    lines = open(paths["detections"]).read().splitlines()
    record = json.loads(lines[5])
    record["time_s"] = None
    lines[5] = json.dumps(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = track(capsys, dict(paths, detections=str(bad)),
                           tmp_path / "t.jsonl")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.jsonl:6:" in err and "time_s" in err
    assert "Traceback" not in err


def test_eval_rejects_mismatched_schemas(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    tracks = tmp_path / "tracks.jsonl"
    assert track(capsys, paths, tracks)[0] == 0
    gt_lines = open(paths["gt"]).read().splitlines()
    header = json.loads(gt_lines[0])
    header["schema"] = "other14"
    renamed = tmp_path / "gt_renamed.jsonl"
    renamed.write_text("\n".join([json.dumps(header)] + gt_lines[1:]) + "\n")
    code, out, err = run_cli(capsys, "eval", "--tracks", str(tracks),
                             "--gt", str(renamed))
    assert code == 1
    assert "schema" in err


def test_bench_reports_stage_timings(capsys):
    code, out, err = run_cli(capsys, "bench", "--frames", "3")
    assert code == 0, err
    line = next(ln for ln in out.splitlines() if ln.startswith("RESULT "))
    payload = json.loads(line[len("RESULT "):])
    assert payload["frames"] == 3
    assert {"parse_ms", "associate_ms", "reconstruct_ms",
            "initialize_ms", "write_ms", "total_ms", "eval_ms"} <= set(payload)


def test_module_entry_point_prints_usage():
    proc = subprocess.run(
        [sys.executable, "-m", "mvtrack3d", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("synth", "track", "eval", "bench"):
        assert sub in proc.stdout
