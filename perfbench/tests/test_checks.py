"""The benchmark's checks accept correct outputs and reject wrong ones.

    python3 -m pytest perfbench/tests

Each rejection test damages one output of a small real pipeline run: one
cached feature value, one prediction, one class activation map.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import phase  # noqa: E402
from icl import pipeline  # noqa: E402
from icl.config import resolve_config  # noqa: E402

# Desk geometry, 3 tracks of 6 s per class (36 segments), small encoders.
SMALL = ["dataset.synthesis.tracks_per_class=3", "dataset.synthesis.track_duration=6.0",
         "encoder.stem_channels=4", "encoder.blocks_per_stage=[1,1,1]",
         "encoder.channel_widths=[4,8,8]", "encoder.embedding_dim=8",
         "training.epochs=2", "training.batch_size=4", "seed=3"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    cfg = resolve_config(preset="desk", overrides=SMALL, env={})
    pipeline.cmd_synth(cfg, out)
    index = pipeline.cmd_extract(cfg, out)
    run_dir = pipeline.cmd_train(cfg, out)
    pipeline.cmd_eval(out, run_dir.name)
    sid = checks.split_assignment(cfg, out).test[0].segment_id
    for c in range(4):
        pipeline.cmd_cam(out, run_dir.name, index=0, class_index=c)
    return SimpleNamespace(cfg=cfg, out=out, index=index, run_dir=run_dir, sid=sid)


@pytest.fixture
def copy(run, tmp_path):
    """A private copy of the run's outputs that a test may damage."""
    out = tmp_path / "out"
    shutil.copytree(run.out, out)
    return SimpleNamespace(out=out, run_dir=out / "runs" / run.run_dir.name)


def test_correct_outputs_pass(run):
    checks.check_synth(run.cfg, run.out)
    checks.check_extract(run.cfg, run.out, run.index, [s["id"] for s in run.index["segments"]])
    checks.check_train(run.cfg, run.out, run.run_dir, converged=False)
    doc = checks.check_eval(run.cfg, run.out, run.run_dir)
    checks.check_cam_identity(run.run_dir, doc, [run.sid], ("mel", "cqt"))


def test_perturbed_cache_value_is_rejected(run, copy):
    path = copy.out / "features" / "mel" / f"{run.sid}.iclf"
    buf = bytearray(path.read_bytes())
    value = np.frombuffer(buf, dtype="<f4", count=1, offset=19 + 4 * 100)[0]
    buf[19 + 4 * 100:19 + 4 * 101] = np.float32(value * (1 + 1e-4)).astype("<f4").tobytes()
    path.write_bytes(bytes(buf))
    with pytest.raises(checks.CheckError, match=f"mel/{run.sid}"):
        checks.check_extract(run.cfg, copy.out, run.index, [run.sid])


def test_flipped_prediction_is_rejected(run, copy):
    path = copy.run_dir / "eval.json"
    doc = json.loads(path.read_text())
    doc["samples"][0]["pred"] = (doc["samples"][0]["pred"] + 1) % 4
    path.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match="not the argmax"):
        checks.check_eval(run.cfg, copy.out, copy.run_dir)


def test_dropped_cam_class_is_rejected(run, copy):
    (copy.run_dir / f"cam_{run.sid}_cqt_c2.csv").unlink()
    doc = json.loads((copy.run_dir / "eval.json").read_text())
    with pytest.raises(checks.CheckError, match="missing CAM for class 2"):
        checks.check_cam_identity(copy.run_dir, doc, [run.sid], ("mel", "cqt"))


def test_wrong_output_fails_its_operation(tmp_path):
    ph = phase.Phase("infer", 0, tmp_path)

    def reject(_):
        raise checks.CheckError("bad output")

    def crash():
        raise OSError("disk gone")

    wrong = ph.op("eval", lambda: {"n_test": 1}, lambda d: d["n_test"], reject)
    raised = ph.op("eval", crash, lambda d: 1, lambda d: None)
    fine = ph.op("eval", lambda: {"n_test": 2}, lambda d: d["n_test"], lambda d: None)
    assert (wrong["ok"], wrong["wrong"]) == (False, True)
    assert (raised["ok"], raised["wrong"]) == (False, False)
    assert (fine["ok"], fine["n"]) == (True, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "extract",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
