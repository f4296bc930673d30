"""Command-line interface: synth, track, eval, bench."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import mvtrack3d
from mvtrack3d import cli, fileio, synth
from mvtrack3d.affinity import AffinityConfig
from mvtrack3d.cli import main
from mvtrack3d.errors import MvTrackError
from mvtrack3d.synth import SceneConfig
from mvtrack3d.tracker import TrackerConfig

from helpers import JSON_VALUES


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
    # a setting the tracker no longer has
    code, out, err = track(capsys, paths, tmp_path / "t.jsonl",
                           "--set", "project_predicted=true")
    assert code == 1
    assert err == (
        "error: unknown parameter 'project_predicted'; tracker parameters: "
        "joints_filter, miss_limit, part_aware, smooth_sigma, smooth_window, "
        "smoothing; affinity parameters: alpha_2d, alpha_epi, conf_floor, "
        "epsilon, image_margin, lambda_a, tau\n")
    # values of the wrong type, each one error line naming the setting
    for setting in ("smooth_sigma=x", "smooth_window=true", "miss_limit=2.5",
                    "part_aware=no", "max_dt=true", "smooth_windw=3"):
        code, out, err = track(capsys, paths, tmp_path / "t.jsonl",
                               "--set", setting)
        assert code == 1, setting
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert setting.split("=")[0] in err


def test_removed_staleness_clamp_is_an_unknown_parameter(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_dt": 0.5}')
    for extra in (("--set", "max_dt=0.5"), ("--config", str(cfg))):
        code, out, err = track(capsys, paths, tmp_path / "t.jsonl", *extra)
        assert code == 1, extra
        assert err.startswith("error: unknown parameter 'max_dt'; ")
        assert err.count("\n") == 1, err


@pytest.mark.parametrize("kind,field,text", [
    ("calib", "fps", "NaN"), ("calib", "fps", "Infinity"),
    ("calib", "fps", "-Infinity"), ("detections", "time_s", "NaN"),
    ("detections", "time_s", "Infinity"),
    ("detections", "time_s", "-Infinity")])
def test_non_finite_frame_rate_or_time_fails_at_read(capsys, tmp_path, kind,
                                                     field, text):
    """The value replaces the field on the file's third line (its second
    record); the run stops with one error naming that line."""
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    lines = open(paths[kind]).read().splitlines()
    record = json.loads(lines[2])
    record[field] = "@"
    lines[2] = json.dumps(record).replace('"@"', text)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = track(capsys, dict(paths, **{kind: str(bad)}),
                           tmp_path / "t.jsonl")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "bad.jsonl:3:" in err and field in err


@pytest.mark.parametrize("setting", ["n_actors=x", "noise_px=true",
                                     "seed=1.5", "n_frames=2.5", 'fps="25"',
                                     "noise_px=NaN", "outlier_px=NaN",
                                     "ring_radius=Infinity",
                                     "outlier_burst_frames=NaN"])
def test_wrong_typed_scene_setting_fails_cleanly(capsys, tmp_path, setting):
    code, out, err = run_cli(capsys, "synth", "--out-dir",
                             str(tmp_path / "s"), "--set", setting)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert setting.split("=")[0] in err


@pytest.mark.parametrize("setting", ["n_cameras=1000000000000000000000",
                                     "n_frames=1000000", "width=100000"])
def test_oversized_scene_fails_before_generating(capsys, tmp_path,
                                                 monkeypatch, setting):
    def generate(cfg):
        raise AssertionError("the scene was generated")

    monkeypatch.setattr(synth, "generate", generate)
    code, out, err = run_cli(capsys, "synth", "--out-dir",
                             str(tmp_path / "s"), "--set", setting)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert setting.split("=")[0] in err


@pytest.mark.parametrize("field,value", [("n_joints", "abc"), ("schema", 5)])
def test_malformed_detections_header_fails_cleanly(capsys, tmp_path, field,
                                                   value):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    lines = open(paths["detections"]).read().splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), **{field: value}))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = track(capsys, dict(paths, detections=str(bad)),
                           tmp_path / "t.jsonl")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "bad.jsonl:1:" in err and field in err


_CONFIGS = [AffinityConfig(), TrackerConfig(), SceneConfig()]


@st.composite
def _overrides(draw):
    """A config and overrides for it, as --set or a config file gives
    them: any JSON value under a valid key, or under a misspelt one."""
    config = draw(st.sampled_from(_CONFIGS))
    keys = {f for f in vars(config) if f != "affinity"}
    if isinstance(config, TrackerConfig):
        keys |= set(vars(config.affinity))
    key = st.sampled_from(sorted(keys)) | st.sampled_from(["affinity", "tua"])
    return config, draw(st.dictionaries(key, JSON_VALUES, max_size=3))


@settings(max_examples=500, deadline=None)
@given(case=_overrides())
def test_config_overrides_raise_only_library_errors(case):
    config, overrides = case
    try:
        config.with_overrides(**overrides)
    except MvTrackError:
        pass


@pytest.fixture(scope="module")
def tiny_scene(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tiny")
    synth.generate(SceneConfig(seed=2, n_cameras=2, n_actors=2, n_frames=6,
                               noise_px=1.0)).export(str(out_dir))
    return out_dir


_TRACK_KEYS = sorted({f for f in vars(TrackerConfig()) if f != "affinity"}
                     | set(vars(AffinityConfig())) | {"smooth_windw"})


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(_TRACK_KEYS), value=JSON_VALUES)
@example(key="smooth_window", value=10 ** 12)
@example(key="alpha_epi", value=5e-324)
@example(key="alpha_2d", value=5e-324)
@example(key="alpha_2d", value=1.7976931348623157e308)
@example(key="lambda_a", value=1.7976931348623157e308)
@example(key="smooth_sigma", value=5e-324)
@example(key="alpha_2d", value=math.nan)
@example(key="max_dt", value=math.inf)
def test_track_setting_exits_cleanly(tiny_scene, key, value):
    argv = ["track", "--calib", str(tiny_scene / "calibration.jsonl"),
            "--detections", str(tiny_scene / "detections.jsonl"),
            "--out", str(tiny_scene / "tracks.jsonl"),
            "--set", f"{key}={json.dumps(value)}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1)
    if code == 1:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, text


@pytest.mark.parametrize("preset", ["warehouse", ["shelf"]])
def test_unknown_preset_in_config_file_fails_cleanly(capsys, tmp_path,
                                                     preset):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": preset}))
    code, out, err = track(capsys, paths, tmp_path / "t.jsonl",
                           "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: unknown preset")
    assert len(err.strip().splitlines()) == 1


def test_preset_flag_beats_the_config_file_preset(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **CLEAN)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"preset": "shelf"}')
    flag_only, both = tmp_path / "flag.jsonl", tmp_path / "both.jsonl"
    assert track(capsys, paths, flag_only, "--preset", "campus")[0] == 0
    code, out, err = track(capsys, paths, both, "--preset", "campus",
                           "--config", str(cfg))
    assert code == 0, err
    assert both.read_bytes() == flag_only.read_bytes()


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


@pytest.mark.parametrize("key", ["part_aware", "joints_filter", "smoothing"])
def test_settings_off_by_set_or_config_match_the_switch(capsys, tmp_path,
                                                        key):
    # a --no-* switch that is not given must not reset what --set or a
    # config file turned off
    paths = synth_scene(capsys, tmp_path, **CORRUPT)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: False}))
    outputs = []
    for name, extra in (("switch", ("--no-" + key.replace("_", "-"),)),
                        ("set", ("--set", f"{key}=false")),
                        ("config", ("--config", str(cfg))),
                        ("default", ())):
        out_path = tmp_path / f"{name}.jsonl"
        code, _, err = track(capsys, paths, out_path, *extra)
        assert code == 0, err
        outputs.append(out_path.read_bytes())
    switch, by_set, by_config, default = outputs
    assert switch != default
    assert by_set == switch
    assert by_config == switch


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


def test_detections_whose_frame_time_goes_back_exit_1(capsys, tmp_path):
    paths = synth_scene(capsys, tmp_path, **dict(CLEAN, n_frames=5))
    lines = open(paths["detections"]).read().splitlines()
    records = [json.loads(ln) for ln in lines[1:]]
    for record in records:
        if record["frame"] == 2:
            record["time_s"] = 0.0
    first = 2 + next(i for i, r in enumerate(records) if r["frame"] == 2)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0]] + [json.dumps(r) for r in records])
                   + "\n")
    code, out, err = track(capsys, dict(paths, detections=str(bad)),
                           tmp_path / "t.jsonl")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bad.jsonl:{first}: frame 2 at 0.0 s is not after 0.04 s" in err
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


_JOINTS = [[float(j), 0.0, 1.0] for j in range(14)]
_TRACK = {"id": 1, "joints": [xyz + ["T"] for xyz in _JOINTS]}
_ACTOR = {"id": 0, "joints": _JOINTS}


@pytest.mark.parametrize("tracks,gt,where", [
    # frame 3 scores 100 from its first record alone
    ([(3, [_TRACK]), (3, []), (1, [_TRACK])], [(3, [_ACTOR])],
     "tracks.jsonl:3: frame 3 after frame 3"),
    ([(3, [_TRACK, _TRACK])], [(3, [_ACTOR])],
     "tracks.jsonl:2: a second track with id 1"),
    ([(3, [_TRACK])], [(3, [_ACTOR, _ACTOR])],
     "gt.jsonl:2: a second actor with id 0"),
], ids=["repeated-frame", "track-id-twice", "actor-id-twice"])
def test_eval_refuses_repeated_frames_and_ids(capsys, tmp_path, tracks, gt,
                                              where):
    paths = {}
    for name, fmt, key, records in (("tracks", "tracks", "tracks", tracks),
                                    ("gt", "ground_truth", "actors", gt)):
        header = {"format": f"mvtrack3d/{fmt}", "format_version": 1,
                  "schema": "synth14", "n_joints": 14}
        lines = [header] + [{"frame": f, "time_s": f / 25.0, key: entries}
                            for f, entries in records]
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(x) + "\n" for x in lines))
    code, out, err = run_cli(capsys, "eval", "--tracks", str(paths["tracks"]),
                             "--gt", str(paths["gt"]))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert where in err


def test_bench_reports_stage_timings(capsys):
    code, out, err = run_cli(capsys, "bench", "--frames", "3")
    assert code == 0, err
    line = next(ln for ln in out.splitlines() if ln.startswith("RESULT "))
    payload = json.loads(line[len("RESULT "):])
    assert payload["frames"] == 3
    assert list(payload) == ["frames", "parse_ms", "associate_ms",
                             "reconstruct_ms", "initialize_ms", "write_ms",
                             "total_ms", "eval_ms", "generate_s", "export_s"]
    assert payload["generate_s"] > 0 and payload["export_s"] > 0
    assert re.search(r"^  generate +\d+\.\d{3} s$", out, re.M)
    assert re.search(r"^  export +\d+\.\d{3} s$", out, re.M)


def test_bench_reports_the_median_of_repeated_evals(capsys, monkeypatch):
    reads = []

    def load_tracks(path):
        reads.append(path)
        return real(path)

    real = fileio.load_tracks
    monkeypatch.setattr(fileio, "load_tracks", load_tracks)
    monkeypatch.setattr(cli, "EVAL_MIN_S", 0.2)
    code, out, err = run_cli(capsys, "bench", "--frames", "3")
    assert code == 0, err
    assert len(reads) >= 2
    line = next(ln for ln in out.splitlines() if ln.startswith("RESULT "))
    assert json.loads(line[len("RESULT "):])["eval_ms"] > 0


def test_module_entry_point_prints_usage():
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(mvtrack3d.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "mvtrack3d", "--help"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for sub in ("synth", "track", "eval", "bench"):
        assert sub in proc.stdout
