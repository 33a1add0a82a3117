"""Pipeline stages against their feature cache: cam reads, stale and damaged caches."""

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import MICRO_OVERRIDES, micro_config
from icl import audio, features, model, pipeline, training, wavio
from icl.cli import main
from icl.config import resolve_config


def test_cam_reads_one_cache_file_per_kind(micro_run, monkeypatch):
    out, run_name, cfg = micro_run
    kinds = ("mel", "cqt")
    read = features.read_feature_cache
    calls = []
    monkeypatch.setattr(features, "read_feature_cache",
                        lambda path: calls.append(path) or read(path))
    written = pipeline.cmd_cam(out, run_name, split="val", index=1, class_index=2)
    assert len(calls) == len(kinds)
    monkeypatch.undo()

    stats = {k: features.FeatureStats(k, v["mean"], v["std"]) for k, v in json.loads(
        (out / "runs" / run_name / "stats.json").read_text()).items()}
    data, _ = pipeline.load_dataset(cfg, out, kinds, stats=stats)
    sid = data.segment_ids["val"][1]
    assert all(sid in str(p) for p in written)
    params = pipeline.load_checkpoint(out / "runs" / run_name / "checkpoint.iclc")
    batch = {k: data.features[k]["val"][1:2] for k in kinds}
    _, outputs = training._forward({n: training.Tensor(p) for n, p in params.items()},
                                   pipeline.encoder_configs(cfg, kinds), kinds, batch)
    for kind in kinds:
        cam = model.compute_cam(outputs[kind].feature_maps.data[0], params["head/w"], 2,
                                batch[kind].shape[2:], kind=kind)
        csv = out / "runs" / run_name / f"cam_{sid}_{kind}_c2.csv"
        assert np.array_equal(np.loadtxt(csv, delimiter=",", ndmin=2), cam.raw)


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
    read = features.read_feature_cache
    calls = []
    monkeypatch.setattr(features, "read_feature_cache",
                        lambda path: calls.append(path) or read(path))
    doc = pipeline.cmd_eval(out, run_name)
    monkeypatch.undo()
    assert len(calls) == doc["n_test"] * len(kinds)

    # Scored exactly as on rows of the whole normalized dataset.
    run_dir = out / "runs" / run_name
    stats = {k: features.FeatureStats(k, v["mean"], v["std"])
             for k, v in json.loads((run_dir / "stats.json").read_text()).items()}
    data, _ = pipeline.load_dataset(cfg, out, kinds, stats=stats)
    probs = training.predict_proba(pipeline.load_checkpoint(run_dir / "checkpoint.iclc"),
                                   pipeline.encoder_configs(cfg, kinds), kinds,
                                   {k: data.features[k]["test"] for k in kinds})
    assert [s["segment_id"] for s in doc["samples"]] == data.segment_ids["test"]
    assert [s["label"] for s in doc["samples"]] == data.labels["test"].tolist()
    assert [s["probs"] for s in doc["samples"]] == probs.tolist()


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


@pytest.mark.parametrize("victim, content, command", [
    ("runs/{run}/run.json", "{not json", "report"),
    ("runs/{run}/eval.json", "[", "report"),
    ("features/index.json", '{"kinds": [', "eval"),
    ("runs/{run}/checkpoint.iclc", "ICLC\x01", "eval"),
    ("manifest.json", "tracks: none", "extract"),
    ("manifest.json", '{"tracks": 3}', "extract"),
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
