"""Pipeline stages against their feature cache: cam reads, stale and damaged caches."""

import json
import shutil

import numpy as np
import pytest

from conftest import MICRO_OVERRIDES, micro_config
from icl import features, model, pipeline, training
from icl.cli import main
from icl.config import resolve_config


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro")
    cfg = micro_config()
    pipeline.cmd_synth(cfg, out)
    pipeline.cmd_extract(cfg, out)
    run_dir = pipeline.cmd_train(cfg, out)
    return out, run_dir.name, cfg


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
