"""CLI behavior and the micro end-to-end pipeline."""

import copy
import json
import math

import pytest

from conftest import MICRO_OVERRIDES, micro_config
from icl import pipeline
from icl.audio import SynthesisSpec, load_manifest
from icl.cli import main
from icl.config import ConfigError, DEFAULT_CONFIG, resolve_config, set_dotted, synthesis_spec
from icl.errors import read_json


def test_default_config_carries_reference_hyperparameters():
    cfg = resolve_config(overrides=["dataset.manifest=m.json"])
    assert cfg["training"]["lr"] == 5e-4
    assert cfg["training"]["weight_decay"] == 1e-5
    assert cfg["training"]["alpha"] == 0.5
    assert cfg["training"]["epochs"] == 200
    assert cfg["features"]["mel"]["n_filters"] == 300
    assert cfg["features"]["cqt"]["bins_per_octave"] == 36
    assert cfg["features"]["frame_len_ms"] == 50.0
    assert cfg["features"]["frame_shift_ms"] == 25.0
    assert cfg["segmentation"] == {"segment_len": 30.0, "overlap": 15.0}
    assert cfg["split"]["ratios"] == [0.7, 0.15, 0.15]


def test_desk_preset_shape():
    cfg = resolve_config(preset="desk", env={})
    syn = cfg["dataset"]["synthesis"]
    assert syn["n_classes"] == 4 and syn["tracks_per_class"] == 8
    assert cfg["segmentation"]["segment_len"] == 3.0
    assert cfg["encoder"]["embedding_dim"] == 64
    assert cfg["training"]["epochs"] == 20
    # the defaults the preset does not touch stay at reference values
    assert cfg["training"]["lr"] == 5e-4 and cfg["training"]["alpha"] == 0.5


def test_dotted_overrides_parse_json():
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    set_dotted(cfg, "training.alpha", "2.5")
    set_dotted(cfg, "features.kinds", '["mel"]')
    set_dotted(cfg, "dataset.manifest", "some/path.json")
    assert cfg["training"]["alpha"] == 2.5
    assert cfg["features"]["kinds"] == ["mel"]
    assert cfg["dataset"]["manifest"] == "some/path.json"


def test_icl_seed_environment_override():
    cfg = resolve_config(overrides=["dataset.manifest=m.json"],
                         env={"ICL_SEED": "1234"})
    assert cfg["seed"] == 1234
    with pytest.raises(ConfigError, match="ICL_SEED"):
        resolve_config(overrides=["dataset.manifest=m.json"],
                       env={"ICL_SEED": "not-a-number"})


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="training.alpha"):
        micro_config("training.alpha=-1")
    with pytest.raises(ConfigError, match="split.ratios"):
        micro_config("split.ratios=[0.5,0.3,0.3]")
    with pytest.raises(ConfigError, match="batch_size"):
        micro_config("training.batch_size=1")
    with pytest.raises(ConfigError, match="dataset"):
        resolve_config(env={})
    with pytest.raises(ConfigError, match="embedding_dim"):
        micro_config("encoder.embedding_dim=16")
    with pytest.raises(ConfigError, match="features.kinds"):
        micro_config('features.kinds=["mel"]', "training.mode=cqt")


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--out", "/tmp/x"])
    assert exc.value.code == 2


def test_eval_on_missing_run_reports_error(tmp_path, capsys):
    (tmp_path / "runs").mkdir()
    rc = main(["eval", "--out", str(tmp_path), "--run", "nope"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


def micro_args(out, *extra):
    args = ["--out", str(out)]
    for item in MICRO_OVERRIDES:
        args += ["--set", item]
    for item in extra:
        args += ["--set", item]
    return args


def test_cli_full_pipeline(tmp_path):
    out = tmp_path / "exp"
    assert main(["synth", *micro_args(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["tracks"]) == 12
    assert (out / "wavs").exists()

    assert main(["extract", *micro_args(out)]) == 0
    index = json.loads((out / "features" / "index.json").read_text())
    assert len(index["segments"]) == 12 * 7
    assert sorted(index["kinds"]) == ["cqt", "mel", "stft"]
    one = index["segments"][0]["id"]
    for kind in ("stft", "mel", "cqt"):
        assert (out / "features" / kind / f"{one}.iclf").exists()

    for mode in ("stft", "mel", "cqt", "icl"):
        assert main(["train", *micro_args(out, f"training.mode={mode}")]) == 0
    run_names = ["stft-s0", "mel-s0", "cqt-s0", "icl-a0.5-s0"]
    for name in run_names:
        run_dir = out / "runs" / name
        assert (run_dir / "checkpoint.iclc").exists()
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "resolved_config.json").exists()
        assert main(["eval", "--out", str(out), "--run", name]) == 0
        assert (run_dir / "eval.json").exists()
        assert (run_dir / "confusion.csv").exists()
        assert (run_dir / "confusion.pgm").exists()

    assert main(["cam", "--out", str(out), "--run", "icl-a0.5-s0", "--index", "1"]) == 0
    cams = list((out / "runs" / "icl-a0.5-s0").glob("cam_*.pgm"))
    assert len(cams) == 2  # one per encoder kind
    assert cams[0].read_bytes().startswith(b"P5\n")
    assert len(list((out / "runs" / "icl-a0.5-s0").glob("cam_*.csv"))) == 2

    assert main(["report", "--out", str(out)]) == 0
    results = json.loads((out / "report" / "results.json").read_text())
    combos = {(r["method"], r["features"]) for r in results["rows"]}
    assert combos == {("baseline", "stft"), ("baseline", "mel"), ("baseline", "cqt"),
                      ("ensemble", "mel+cqt"), ("contrastive", "mel+cqt")}

    # cross-file consistency: CSV accuracy cells match the eval.json records
    csv_lines = (out / "report" / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "method,features,seed,alpha,accuracy"
    by_key = {}
    for line in csv_lines[1:]:
        method, feats, seed, alpha, acc = line.split(",")
        by_key[(method, feats)] = float(acc)
    for name, mode in zip(run_names, ("stft", "mel", "cqt", "icl")):
        ev = json.loads((out / "runs" / name / "eval.json").read_text())
        method = "contrastive" if mode == "icl" else "baseline"
        feats = "mel+cqt" if mode == "icl" else mode
        assert abs(by_key[(method, feats)] - ev["accuracy"]) < 5e-7

    # report re-export over unchanged runs is byte-identical
    before = (out / "report" / "results.csv").read_bytes(), \
        (out / "report" / "results.json").read_bytes()
    assert main(["report", "--out", str(out)]) == 0
    assert (out / "report" / "results.csv").read_bytes() == before[0]
    assert (out / "report" / "results.json").read_bytes() == before[1]


def test_infinite_snr_synthesizes_and_its_manifest_round_trips(tmp_path):
    out = tmp_path / "inf"
    assert main(["synth", *micro_args(out, "dataset.synthesis.snr_db=Infinity")]) == 0
    spec = synthesis_spec(micro_config("dataset.synthesis.snr_db=Infinity"))
    assert spec.snr_db == math.inf
    assert read_json(out / "manifest.json",
                     lambda doc: SynthesisSpec(**doc["synthesis_spec"])) == spec
    tracks = load_manifest(out / "manifest.json")
    assert [(t.track_id, t.label) for t in tracks] == [
        (f"synth_c{c}_t{i}", c) for c in range(3) for i in range(4)]


def test_icl_alpha_zero_trains_pure_ce(tmp_path):
    out = tmp_path / "a0"
    cfg = micro_config("training.mode=icl", "training.alpha=0")
    pipeline.cmd_synth(cfg, out)
    pipeline.cmd_extract(cfg, out)
    run_dir = pipeline.cmd_train(cfg, out)
    for line in (run_dir / "metrics.jsonl").read_text().splitlines():
        rec = json.loads(line)
        assert rec["icl"] == 0.0
        assert rec["total"] == rec["ce"]


def test_rerun_from_resolved_config_is_bit_identical(tmp_path):
    first = tmp_path / "one"
    cfg = micro_config()
    pipeline.cmd_synth(cfg, first)
    pipeline.cmd_extract(cfg, first)
    run_dir = pipeline.cmd_train(cfg, first)

    resolved = run_dir / "resolved_config.json"
    second = tmp_path / "two"
    assert main(["synth", "--out", str(second), "--config", str(resolved)]) == 0
    assert main(["extract", "--out", str(second), "--config", str(resolved)]) == 0
    assert main(["train", "--out", str(second), "--config", str(resolved)]) == 0
    other = second / "runs" / run_dir.name
    assert (other / "metrics.jsonl").read_bytes() == (run_dir / "metrics.jsonl").read_bytes()
    assert (other / "checkpoint.iclc").read_bytes() == (run_dir / "checkpoint.iclc").read_bytes()
