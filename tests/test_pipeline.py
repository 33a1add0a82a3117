"""Pipeline stages against their feature cache: cam reads, stale and damaged caches."""

import json
import re
import shutil
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import MICRO_OVERRIDES, micro_config
from icl import audio, features, model, pipeline, training, wavio
from icl.cli import main
from icl.config import resolve_config


def _split(out: Path, cfg: dict) -> audio.SplitAssignment:
    """The track-disjoint split of the cached segments, built from index.json
    alone, as perfbench/checks.py builds it."""
    index = json.loads((out / "features" / "index.json").read_text())
    refs = [SimpleNamespace(parent_track_id=s["track"], label=s["label"], segment_id=s["id"])
            for s in index["segments"]]
    return audio.split_track_disjoint(refs, tuple(cfg["split"]["ratios"]), seed=cfg["seed"])


def _reference_inputs(out: Path, run_name: str, kinds, ids) -> dict:
    """Encoder inputs [n, 1, H, W] per kind for the segments ids, read from
    their cache files and normalized with the run's stats.json."""
    stats = json.loads((out / "runs" / run_name / "stats.json").read_text())
    return {k: ((np.stack([features.read_feature_cache(out / "features" / k / f"{sid}.iclf")[2]
                           for sid in ids]).astype(np.float64)
                 - stats[k]["mean"]) / stats[k]["std"])[:, None] for k in kinds}


def _counting_reads(monkeypatch) -> list:
    """The paths of every features.read_feature_cache call from now on."""
    read, calls = features.read_feature_cache, []
    monkeypatch.setattr(features, "read_feature_cache",
                        lambda path: calls.append(path) or read(path))
    return calls


def test_cam_reads_one_cache_file_per_kind(micro_run, monkeypatch):
    out, run_name, cfg = micro_run
    kinds = ("mel", "cqt")
    calls = _counting_reads(monkeypatch)
    written = pipeline.cmd_cam(out, run_name, split="val", index=1, class_index=2)
    assert len(calls) == len(kinds)
    monkeypatch.undo()

    sid = _split(out, cfg).val[1].segment_id
    assert all(sid in str(p) for p in written)
    params = pipeline.load_checkpoint(out / "runs" / run_name / "checkpoint.iclc")
    batch = _reference_inputs(out, run_name, kinds, [sid])
    _, outputs = training._forward({n: training.Tensor(p) for n, p in params.items()},
                                   pipeline.encoder_configs(cfg, kinds), kinds, batch)
    for kind in kinds:
        cam = model.compute_cam(outputs[kind].feature_maps.data[0], params["head/w"], 2,
                                batch[kind].shape[2:])
        csv = out / "runs" / run_name / f"cam_{sid}_{kind}_c2.csv"
        assert np.array_equal(np.loadtxt(csv, delimiter=",", ndmin=2), cam.raw)


def test_cam_starts_no_thread_and_eval_starts_one(micro_run, tmp_path, monkeypatch):
    """cam explains one segment on the calling thread: two threads run a
    one-row forward no faster. eval runs the CQT encoder on a helper."""
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    pipeline.cmd_cam(out, micro_run[1], index=1, class_index=0)
    assert started == []
    pipeline.cmd_eval(out, micro_run[1])
    assert len(started) == 1


def test_truncated_cache_file_fails_train_with_one_error_line(micro_run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    victim = sorted((out / "features" / "mel").glob("*.iclf"))[0]
    victim.write_bytes(victim.read_bytes()[:10])
    args = ["train", "--out", str(out)]
    for item in MICRO_OVERRIDES:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert victim.name in err


def test_stale_feature_cache_is_refused(tmp_path):
    out = tmp_path / "desk"
    assert main(["synth", "--out", str(out), "--preset", "desk"]) == 0
    assert main(["extract", "--out", str(out), "--preset", "desk",
                 "--set", "features.mel.n_filters=24"]) == 0
    index = json.loads((out / "features" / "index.json").read_text())
    assert index["config"]["features"]["mel"]["n_filters"] == 24
    assert index["feature_geometry"]["mel"]["n_bins"] == 24

    cfg = resolve_config(preset="desk", overrides=[
        "features.mel.n_filters=40", "training.mode=mel"], env={})
    with pytest.raises(pipeline.PipelineError, match=r"features\.mel\.n_filters \(cache 24, "
                                                     r"config 40\)"):
        pipeline.cmd_train(cfg, out)
    cfg = resolve_config(preset="desk", overrides=[
        "features.mel.n_filters=24", "segmentation.overlap=1.0", "training.mode=mel"], env={})
    with pytest.raises(pipeline.PipelineError, match="segmentation.overlap") as exc:
        pipeline.load_dataset(cfg, out, ("mel",))
    assert "n_filters" not in str(exc.value)


def test_cache_index_without_config_is_refused(micro_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    path = out / "features" / "index.json"
    index = json.loads(path.read_text())
    del index["config"]
    path.write_text(json.dumps(index))
    with pytest.raises(pipeline.PipelineError, match="re-run `icl extract`"):
        pipeline.load_dataset(micro_run[2], out, ("mel",))


def test_eval_reads_only_the_test_rows(micro_run, monkeypatch):
    out, run_name, cfg = micro_run
    kinds = ("mel", "cqt")
    calls = _counting_reads(monkeypatch)
    doc = pipeline.cmd_eval(out, run_name)
    monkeypatch.undo()
    assert len(calls) == doc["n_test"] * len(kinds)

    # Scored exactly as on the test rows read straight from the cache.
    test = _split(out, cfg).test
    ids = [r.segment_id for r in test]
    probs = training.predict_proba(
        pipeline.load_checkpoint(out / "runs" / run_name / "checkpoint.iclc"),
        pipeline.encoder_configs(cfg, kinds), kinds, _reference_inputs(out, run_name, kinds, ids))
    assert [s["segment_id"] for s in doc["samples"]] == ids
    assert [s["label"] for s in doc["samples"]] == [r.label for r in test]
    assert [s["probs"] for s in doc["samples"]] == probs.tolist()


def test_train_reads_only_the_train_and_val_rows(micro_run, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    cfg = micro_run[2]
    kinds = ("mel", "cqt")
    calls = _counting_reads(monkeypatch)
    run_dir = pipeline.cmd_train(cfg, out, "reads")
    monkeypatch.undo()
    split = _split(out, cfg)
    assert len(calls) == (len(split.train) + len(split.val)) * len(kinds)

    # The stats are those of the train rows alone.
    stats = json.loads((run_dir / "stats.json").read_text())
    for kind in kinds:
        rows = [features.read_feature_cache(out / "features" / kind / f"{r.segment_id}.iclf")[2]
                for r in split.train]
        train = np.stack(rows).astype(np.float64)
        assert stats[kind] == {"mean": float(train.mean()), "std": float(train.std())}


@pytest.mark.parametrize("fault", ["frames", "kind"])
@pytest.mark.parametrize("command", ["train", "eval", "cam"])
def test_cache_file_that_disagrees_with_the_index_ends_in_one_error_line(
        micro_run, tmp_path, capsys, command, fault):
    """A valid ICLF file with one frame less, or with the CQT kind code, in
    features/mel/ is refused by the first command that reads it."""
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    split = _split(out, micro_run[2])
    ref = (split.train if command == "train" else split.test)[0]
    victim = out / "features" / "mel" / f"{ref.segment_id}.iclf"
    _, label, values = features.read_feature_cache(victim)
    if fault == "frames":
        features.write_feature_cache(victim, values[:-1], "mel", label)
    else:
        features.write_feature_cache(victim, values, "cqt", label)
    argv = {"train": ["train", "--out", str(out), *_micro_args()],
            "eval": ["eval", "--out", str(out), "--run", micro_run[1]],
            "cam": ["cam", "--out", str(out), "--run", micro_run[1], "--index", "0"]}[command]
    before = sorted(out.rglob("*"))
    err = _one_error_line(capsys, argv)
    assert sorted(out.rglob("*")) == before
    assert str(victim) in err
    n_frames, n_bins = values.shape
    assert (f"holds a {n_frames - 1}x{n_bins} matrix; the index records {n_frames}x{n_bins}"
            if fault == "frames" else "holds cqt features, not mel") in err


def test_checkpoint_with_trailing_bytes_ends_in_one_error_line(micro_run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    path = out / "runs" / micro_run[1] / "checkpoint.iclc"
    path.write_bytes(path.read_bytes() + bytes(8))
    err = _one_error_line(capsys, ["eval", "--out", str(out), "--run", micro_run[1]])
    assert f"checkpoint {path} has 8 bytes after its last parameter" in err


def _one_error_line(capsys, argv: list[str]) -> str:
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
    return err


def _micro_args(*extra: str) -> list[str]:
    args = []
    for item in [*MICRO_OVERRIDES, *extra]:
        args += ["--set", item]
    return args


def _one_track_manifest(label: str) -> str:
    """A manifest of one existing track whose label is the JSON text label."""
    return '{"tracks": [{"track_id": "t", "path": "wavs/synth_c0_t0.wav", "label": %s}]}' % label


@pytest.mark.parametrize("victim, content, command", [
    ("runs/{run}/run.json", "{not json", "report"),
    ("runs/{run}/eval.json", "[", "report"),
    ("features/index.json", '{"kinds": [', "eval"),
    ("runs/{run}/checkpoint.iclc", "ICLC\x01", "eval"),
    ("manifest.json", "tracks: none", "extract"),
    ("manifest.json", '{"tracks": 3}', "extract"),
    ("manifest.json", _one_track_manifest("1.7"), "extract"),
    ("manifest.json", _one_track_manifest("true"), "extract"),
    ("manifest.json", _one_track_manifest("-1"), "extract"),
    ("manifest.json", _one_track_manifest('"1"'), "extract"),
    # The feature cache stores labels as u32.
    ("manifest.json", _one_track_manifest(str(2**32)), "extract"),
])
def test_damaged_artifact_ends_in_one_error_line(micro_run, tmp_path, capsys,
                                                 victim, content, command):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    path = out / victim.format(run=micro_run[1])
    if command == "report":
        pipeline.cmd_eval(out, micro_run[1])
        argv = ["report", "--out", str(out)]
    elif command == "eval":
        argv = ["eval", "--out", str(out), "--run", micro_run[1]]
    else:
        argv = ["extract", "--out", str(out), *_micro_args(f"dataset.manifest={path}")]
    path.write_text(content)
    assert path.name in _one_error_line(capsys, argv)


def _drop_segments(index):
    del index["segments"]


def _drop_mel_std(stats):
    del stats["mel"]["std"]


def _zero_mel_std(stats):
    stats["mel"]["std"] = 0.0


def _negative_mel_std(stats):
    stats["mel"]["std"] = -1.0


def _nan_cqt_mean(stats):
    stats["cqt"]["mean"] = float("nan")


def _null_kind(index):
    index["kinds"][1] = None


def _label_one(index) -> dict:
    """The first segment of class 1: a label that counts as 1 leaves it correct."""
    return next(s for s in index["segments"] if s["label"] == 1)


def _true_label(index):
    _label_one(index)["label"] = True


def _fractional_label(index):
    _label_one(index)["label"] = 1.5


def _fractional_n_classes(index):
    index["n_classes"] += 0.5


def _drop_split(cfg):
    del cfg["split"]


def _null_seed(cfg):
    cfg["seed"] = None


def _unknown_key(cfg):
    cfg["training"]["symmetric_icl"] = True


def _text_epochs(cfg):
    cfg["training"]["epochs"] = "x"


def _drop_mode(info):
    del info["mode"]


def _unknown_mode(info):
    info["mode"] = "xyz"


def _drop_accuracy(ev):
    del ev["accuracy"]


@pytest.mark.parametrize("victim, edit, command", [
    ("features/index.json", _drop_segments, "train"),
    ("features/index.json", _null_kind, "train"),
    ("features/index.json", _true_label, "train"),
    ("features/index.json", _true_label, "eval"),
    ("features/index.json", _fractional_label, "eval"),
    ("features/index.json", _fractional_n_classes, "eval"),
    ("runs/{run}/stats.json", _drop_mel_std, "eval"),
    ("runs/{run}/stats.json", _zero_mel_std, "eval"),
    ("runs/{run}/stats.json", _negative_mel_std, "eval"),
    ("runs/{run}/stats.json", _nan_cqt_mean, "cam"),
    ("runs/{run}/resolved_config.json", _drop_split, "eval"),
    ("runs/{run}/resolved_config.json", _null_seed, "eval"),
    ("runs/{run}/resolved_config.json", _unknown_key, "eval"),
    ("runs/{run}/resolved_config.json", _unknown_key, "cam"),
    ("runs/{run}/resolved_config.json", _text_epochs, "eval"),
    ("runs/{run}/resolved_config.json", _text_epochs, "cam"),
    ("runs/{run}/run.json", _drop_mode, "report"),
    ("runs/{run}/run.json", _unknown_mode, "report"),
    ("runs/{run}/eval.json", _drop_accuracy, "report"),
])
def test_json_artifact_of_wrong_structure_ends_in_one_error_line(
        micro_run, tmp_path, capsys, victim, edit, command):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    if command == "report":
        pipeline.cmd_eval(out, micro_run[1])
    path = out / victim.format(run=micro_run[1])
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    argv = {"eval": ["eval", "--out", str(out), "--run", micro_run[1]],
            "cam": ["cam", "--out", str(out), "--run", micro_run[1]],
            "report": ["report", "--out", str(out)]}.get(command)
    err = _one_error_line(capsys, argv or ["train", "--out", str(out), *_micro_args()])
    assert f"{path} is malformed" in err


def test_eval_and_cam_read_no_run_json(micro_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    (out / "runs" / micro_run[1] / "run.json").unlink()
    assert main(["eval", "--out", str(out), "--run", micro_run[1]]) == 0
    assert main(["cam", "--out", str(out), "--run", micro_run[1]]) == 0


def test_extract_without_a_manifest_ends_in_one_error_line(tmp_path, capsys):
    err = _one_error_line(capsys, ["extract", "--out", str(tmp_path), *_micro_args()])
    assert "run `icl synth` first or set dataset.manifest" in err
    assert not (tmp_path / "features").exists()


@pytest.mark.parametrize("key, value", [
    ("blocks_per_stage", [2, 1]),   # a block the checkpoint does not have
    ("stem_channels", 6),           # same names, other shapes
])
def test_checkpoint_config_mismatch_is_refused(micro_run, tmp_path, capsys, key, value):
    out = tmp_path / "out"
    shutil.copytree(micro_run[0], out)
    path = out / "runs" / micro_run[1] / "resolved_config.json"
    cfg = json.loads(path.read_text())
    cfg["encoder"][key] = value
    path.write_text(json.dumps(cfg))
    err = _one_error_line(capsys, ["eval", "--out", str(out), "--run", micro_run[1]])
    assert "checkpoint" in err and "does not match" in err


def test_output_below_a_file_ends_in_one_error_line(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    _one_error_line(capsys, ["synth", "--out", str(tmp_path / "file" / "sub"), *_micro_args()])


def test_mixed_sample_rates_are_refused_at_extract(tmp_path, capsys):
    rng = np.random.default_rng(0)
    entries = []
    for i, rate in enumerate([1000, 1200] * 6):
        rel = f"t{i}.wav"
        wavio.write_wav(tmp_path / rel, 0.1 * rng.standard_normal(3 * rate), rate)
        entries.append({"track_id": f"t{i}", "path": rel, "label": i % 3})
    audio.write_manifest(tmp_path / "manifest.json", entries)
    err = _one_error_line(capsys, [
        "extract", "--out", str(tmp_path / "out"),
        *_micro_args(f"dataset.manifest={tmp_path / 'manifest.json'}")])
    assert re.search(r"1000 Hz \(track t\d+\), 1200 Hz \(track t\d+\)", err)


def test_extract_builds_the_framing_once(tmp_path, monkeypatch):
    cfg = micro_config()
    pipeline.cmd_synth(cfg, tmp_path)
    build, calls = pipeline.frame_config, []
    monkeypatch.setattr(pipeline, "frame_config", lambda c: calls.append(c) or build(c))
    index = pipeline.cmd_extract(cfg, tmp_path)
    assert len(index["segments"]) > 1 and len(calls) == 1


def test_benchmark_tracer_times_the_extract_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    cfg = micro_config()
    pipeline.cmd_synth(cfg, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.cmd_extract(cfg, tmp_path)
    finally:
        tracer.uninstall()
    for key in ("features.mel_spectrogram.s", "features.cqt_spectrogram.s",
                "features.write_feature_cache.mb"):
        assert tracer.totals[key] > 0, key
