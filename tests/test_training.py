"""Training loop behavior: determinism, alpha semantics, checkpointing."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import icl
from icl import losses, pipeline, training
from icl.checkpoint import load_checkpoint, save_checkpoint
from icl.config import resolve_config
from icl.model import EncoderConfig
from icl.optim import AdamW
from icl.training import (DatasetSplits, TrainingError, TrainSettings,
                          predict_proba, train)

TINY_CFG = {k: EncoderConfig(k, 2, (1, 1), (2, 4), 4) for k in ("mel", "cqt")}


def toy_data(n_train=24, n_val=8, n_test=8, h=16, w=12, n_classes=3, seed=0):
    """Random but learnable features: class-dependent mean offsets."""
    rng = np.random.default_rng(seed)
    feats = {}
    labels = {}
    sizes = {"train": n_train, "val": n_val, "test": n_test}
    labels = {s: rng.integers(0, n_classes, n) for s, n in sizes.items()}
    for kind in ("mel", "cqt"):
        feats[kind] = {}
        for s, n in sizes.items():
            base = rng.standard_normal((n, 1, h, w)) * 0.5
            base += labels[s][:, None, None, None] * 0.8
            feats[kind][s] = base
    return DatasetSplits(features=feats, labels=labels, n_classes=n_classes)


def settings(**kw):
    base = dict(mode="icl", epochs=2, batch_size=8, lr=5e-4,
                weight_decay=1e-5, alpha=0.5, seed=0)
    base.update(kw)
    return TrainSettings(**base)


def epoch_log(path) -> list[dict]:
    """The per-epoch records ``train`` wrote to path."""
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def test_training_is_deterministic(tmp_path):
    data = toy_data()
    run1 = train(data, TINY_CFG, settings(), log_path=tmp_path / "a.jsonl")
    run2 = train(data, TINY_CFG, settings(), log_path=tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    for name in run1.best_params:
        assert np.array_equal(run1.best_params[name], run2.best_params[name])


def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """`icl train` and `icl eval` in a fresh process at 1 and at 2 BLAS threads
    write the same checkpoint, metrics and eval.json: importing icl pins BLAS
    to one thread."""
    data = tmp_path / "data"
    cfg = resolve_config(preset="desk", env={})
    pipeline.cmd_synth(cfg, data)
    pipeline.cmd_extract(cfg, data)
    src = str(Path(icl.__file__).parents[1])
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        shutil.copytree(data, out)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        for args in (["train", "--preset", "desk", "--set", "training.epochs=1",
                      "--run-name", "r"], ["eval", "--run", "r"]):
            subprocess.run([sys.executable, "-m", "icl.cli", args[0], "--out", str(out),
                            *args[1:]], env=env, check=True, capture_output=True)
        written.append({name: hashlib.sha256((out / "runs" / "r" / name).read_bytes()).hexdigest()
                        for name in ("checkpoint.iclc", "metrics.jsonl", "eval.json")})
    assert written[0] == written[1]


@pytest.mark.parametrize("kinds, alpha", [(("mel", "cqt"), 0.5), (("mel", "cqt"), 0.0),
                                          (("mel",), 0.0)])
def test_concurrent_step_gives_the_whole_graph_gradients(kinds, alpha):
    """One float32 step: the concurrent encoders' gradients are bit-identical
    to those of one backward through the whole graph of ``_forward``."""
    data = toy_data(n_train=8)
    params = training.init_model_params(kinds, TINY_CFG, data.n_classes, seed=0)
    for p in params.values():
        p.data = p.data.astype(np.float32)
    batches = {k: data.features[k]["train"].astype(np.float32) for k in kinds}
    labels = data.labels["train"]
    logits, outputs = training._forward(params, TINY_CFG, kinds, batches)
    m = (losses.cosine_similarity_matrix(outputs["mel"].embedding, outputs["cqt"].embedding)
         if alpha > 0 else None)
    total, want = losses.combined_loss(logits, labels, m, alpha)
    training.ad.backward(total)
    grads = {n: p.grad for n, p in params.items()}
    for p in params.values():
        p.grad = None
    got = training._train_step(params, TINY_CFG, kinds, batches, labels, alpha)
    assert got == want
    for name, p in params.items():
        assert p.grad.dtype == np.float32 and np.array_equal(p.grad, grads[name]), name


@pytest.mark.parametrize("bad", ["mel", "cqt"])
def test_nonfinite_encoder_ends_the_step_after_both_encoders(monkeypatch, tmp_path, bad):
    """A non-finite batch of either kind ends in the TrainingError naming the
    step, and only once the other encoder, held back here, has finished."""
    data = toy_data()
    data.features[bad]["train"][:] = np.nan
    finished = []
    forward = training.model.encoder_forward

    def slow_forward(params, cfg, x):
        if cfg.input_kind != bad:
            time.sleep(0.2)
        try:
            return forward(params, cfg, x)
        finally:
            finished.append(cfg.input_kind)

    monkeypatch.setattr(training.model, "encoder_forward", slow_forward)
    threads = set(threading.enumerate())
    with pytest.raises(TrainingError, match=r"epoch 1, batch 0: non-finite values in output"):
        train(data, TINY_CFG, settings(), tmp_path / "m.jsonl")
    assert sorted(finished) == ["cqt", "mel"]
    assert set(threading.enumerate()) == threads


def fail_with(message):
    raise ValueError(message)


def test_concurrently_waits_for_the_helper_before_raising():
    done = threading.Event()

    def fail():
        fail_with("first")

    def slow():
        time.sleep(0.2)
        done.set()

    threads = set(threading.enumerate())
    with pytest.raises(ValueError, match="first"):
        training._concurrently([fail, slow])
    assert done.is_set() and set(threading.enumerate()) == threads
    with pytest.raises(ValueError, match="second"):
        training._concurrently([lambda: 1, lambda: fail_with("second")])
    assert training._concurrently([lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]


def test_seed_changes_trajectory(tmp_path):
    data = toy_data()
    train(data, TINY_CFG, settings(), tmp_path / "a.jsonl")
    train(data, TINY_CFG, settings(seed=1), tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()


@pytest.fixture
def batch_losses(monkeypatch):
    """The LossBreakdown of every training step, in order: losses.combined_loss,
    wrapped to record what it returns."""
    records = []
    combined = losses.combined_loss

    def recorded(*args, **kwargs):
        total, breakdown = combined(*args, **kwargs)
        records.append(breakdown)
        return total, breakdown

    monkeypatch.setattr(losses, "combined_loss", recorded)
    return records


def test_alpha_zero_equals_plain_ce_batch_for_batch(batch_losses, tmp_path):
    data = toy_data()
    train(data, TINY_CFG, settings(alpha=0.0), tmp_path / "m.jsonl")
    assert batch_losses, "expected per-batch records"
    for rec in batch_losses:
        assert rec.icl == 0.0
        assert rec.total == rec.ce


def test_alpha_positive_adds_contrastive_term(batch_losses, tmp_path):
    data = toy_data()
    train(data, TINY_CFG, settings(alpha=0.5), tmp_path / "m.jsonl")
    for rec in batch_losses:
        assert rec.icl > 0.0
        assert abs(rec.total - (rec.ce + 0.5 * rec.icl)) < 1e-12


def test_contrastive_batch_of_one_trains_on_ce_alone(batch_losses, tmp_path):
    # 25 = 3 * 8 + 1: the last batch of each epoch holds one sample. Its
    # 1x1 similarity matrix has a contrastive loss of exactly 0.
    data = toy_data(n_train=25)
    train(data, TINY_CFG, settings(alpha=0.5), tmp_path / "m.jsonl")
    batches = [step % 4 for step in range(len(batch_losses))]  # 4 batches per epoch
    for batch, rec in zip(batches, batch_losses):
        if batch == 3:
            assert rec.icl == 0.0 and rec.total == rec.ce
        else:
            assert rec.icl > 0.0
    assert batches.count(3) == 2


def test_baseline_mode_ignores_alpha(batch_losses, tmp_path):
    data = toy_data()
    train(data, TINY_CFG, settings(mode="mel", alpha=0.9), tmp_path / "a.jsonl")
    records_a = list(batch_losses)
    train(data, TINY_CFG, settings(mode="mel", alpha=0.0), tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    for rec in records_a:
        assert rec.icl == 0.0 and rec.total == rec.ce


def test_best_checkpoint_is_latest_max_val_accuracy(tmp_path):
    data = toy_data()
    run = train(data, TINY_CFG, settings(epochs=4), tmp_path / "m.jsonl")
    accs = [r["val_accuracy"] for r in epoch_log(tmp_path / "m.jsonl")]
    assert run.best_val_accuracy == max(accs)
    assert run.best_epoch == max(i + 1 for i, a in enumerate(accs) if a == max(accs))


def test_metrics_log_schema(tmp_path):
    data = toy_data()
    train(data, TINY_CFG, settings(), log_path=tmp_path / "m.jsonl")
    records = epoch_log(tmp_path / "m.jsonl")
    assert len(records) == 2
    for i, rec in enumerate(records):
        assert sorted(rec) == ["ce", "epoch", "icl", "total", "val_accuracy"]
        assert rec["epoch"] == i + 1


def test_nonfinite_input_aborts_with_location(tmp_path):
    data = toy_data()
    data.features["mel"]["train"][3, 0, 2, 2] = np.nan
    with pytest.raises(TrainingError, match=r"epoch 1, batch \d"):
        train(data, TINY_CFG, settings(), tmp_path / "m.jsonl")


def test_predict_proba_rows_are_distributions(tmp_path):
    data = toy_data()
    run = train(data, TINY_CFG, settings(), tmp_path / "m.jsonl")
    probs = predict_proba(run.best_params, TINY_CFG, ("mel", "cqt"),
                          {k: data.features[k]["test"] for k in ("mel", "cqt")})
    assert probs.shape == (8, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def _spy_encoder_forward(monkeypatch) -> list:
    """Every (kind, encoder output) of model.encoder_forward from now on."""
    seen = []
    forward = training.model.encoder_forward

    def spy(params, cfg, x):
        out = forward(params, cfg, x)
        seen.append((cfg.input_kind, out))
        return out

    monkeypatch.setattr(training.model, "encoder_forward", spy)
    return seen


def test_predict_logits_on_live_params_is_graph_free(monkeypatch):
    data = toy_data()
    kinds = ("mel", "cqt")
    params = training.init_model_params(kinds, TINY_CFG, data.n_classes, seed=0)
    batch = {k: data.features[k]["val"] for k in kinds}
    want, _ = training._forward(params, TINY_CFG, kinds, batch)

    seen = _spy_encoder_forward(monkeypatch)
    got = training.predict_logits(params, TINY_CFG, kinds, batch)
    assert np.array_equal(got, want.data)
    assert seen and all(t._parents == () and t._backward is None
                        for _, out in seen for t in (out.feature_maps, out.embedding))
    assert all(p.grad is None for p in params.values())


@pytest.mark.parametrize("kinds", [("mel", "cqt"), ("cqt",)])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 28])
def test_predict_logits_in_chunks_equals_one_forward(monkeypatch, kinds, n):
    """Each encoder runs in chunks of at most PREDICT_BATCH = 8 rows, none of
    one row unless the split has one, and the logits equal one pass of
    ``_forward`` over the whole split."""
    rng = np.random.default_rng(n)
    params = training.init_model_params(kinds, TINY_CFG, 3, seed=0)
    batch = {k: rng.standard_normal((n, 1, 16, 12)) for k in kinds}
    want, _ = training._forward(params, TINY_CFG, kinds, batch)

    seen = _spy_encoder_forward(monkeypatch)
    got = training.predict_logits(params, TINY_CFG, kinds, batch)
    assert np.array_equal(got, want.data)
    for kind in kinds:
        rows = [out.embedding.shape[0] for k, out in seen if k == kind]
        assert sum(rows) == n and max(rows) <= 8, rows
        assert n == 1 or min(rows) > 1, rows


@pytest.mark.parametrize("bad", ["mel", "cqt"])
def test_nonfinite_rows_end_predict_logits_after_both_encoders(monkeypatch, bad):
    """A NaN in either kind's rows raises NonFiniteError only once the other
    encoder, held back here, has run every one of its chunks; no helper
    thread is left."""
    data = toy_data(n_val=20)
    kinds = ("mel", "cqt")
    params = training.init_model_params(kinds, TINY_CFG, data.n_classes, seed=0)
    batch = {k: data.features[k]["val"] for k in kinds}
    batch[bad][:] = np.nan
    finished = []
    forward = training.model.encoder_forward

    def slow_forward(params, cfg, x):
        if cfg.input_kind != bad:
            time.sleep(0.1)
        out = forward(params, cfg, x)
        finished.append(cfg.input_kind)
        return out

    monkeypatch.setattr(training.model, "encoder_forward", slow_forward)
    threads = threading.active_count()
    with pytest.raises(training.ad.NonFiniteError):
        training.predict_logits(params, TINY_CFG, kinds, batch)
    good = "cqt" if bad == "mel" else "mel"
    assert finished.count(good) == 3  # 20 rows in chunks of 7, 7 and 6
    assert threading.active_count() == threads


def test_training_steps_run_in_float32(monkeypatch, tmp_path):
    """One contrastive step: every node of the loss graph, every gradient and
    AdamW's moments are float32, so nothing is upcast on the way. A step
    runs one backward for the head and one per encoder; the graph is their
    union."""
    seen = {"nodes": []}
    backward, step = training.ad.backward, AdamW.step

    def spy_backward(loss):
        seen["nodes"].extend(training.ad._toposort(loss))
        backward(loss)

    def spy_step(opt):
        seen["grads"] = [p.grad for p in opt.params.values()]
        step(opt)
        seen["moments"] = [*opt.m.values(), *opt.v.values()]

    monkeypatch.setattr(training.ad, "backward", spy_backward)
    monkeypatch.setattr(AdamW, "step", spy_step)
    run = train(toy_data(n_train=8), TINY_CFG, settings(epochs=1), tmp_path / "m.jsonl")
    assert epoch_log(tmp_path / "m.jsonl")[0]["icl"] > 0
    assert {"conv2d", "l2_normalize", "weighted_sum"} <= {n._op for n in seen["nodes"]}
    assert all(n.data.dtype == np.float32 for n in seen["nodes"])
    assert all(g is not None and g.dtype == np.float32 for g in seen["grads"])
    assert all(m.dtype == np.float32 for m in seen["moments"])
    assert all(p.dtype == np.float64 for p in run.best_params.values())


def test_predict_logits_on_float32_params_matches_the_checkpoint(tmp_path):
    # float32 inputs too, so only predict_logits' own cast makes the pass float64.
    data = toy_data()
    kinds = ("mel", "cqt")
    params = training.init_model_params(kinds, TINY_CFG, data.n_classes, seed=0)
    for p in params.values():
        p.data = p.data.astype(np.float32)
    val = {k: data.features[k]["val"].astype(np.float32) for k in kinds}
    live = training.predict_logits(params, TINY_CFG, kinds, val)
    save_checkpoint(tmp_path / "c.iclc", {n: p.data for n, p in params.items()})
    saved = training.predict_logits(load_checkpoint(tmp_path / "c.iclc"), TINY_CFG, kinds, val)
    assert live.dtype == np.float64 and np.array_equal(live, saved)


def test_settings_validation():
    with pytest.raises(TrainingError, match="mode"):
        settings(mode="wavelet")
    with pytest.raises(TrainingError, match="batch_size"):
        settings(batch_size=1)
    with pytest.raises(TrainingError, match="alpha"):
        settings(alpha=-1.0)
    assert settings(mode="cqt").feature_kinds == ("cqt",)
    assert settings().feature_kinds == ("mel", "cqt")


def test_missing_feature_kind_rejected(tmp_path):
    data = toy_data()
    del data.features["cqt"]
    with pytest.raises(TrainingError, match="no 'cqt' features"):
        train(data, TINY_CFG, settings(), tmp_path / "m.jsonl")


@pytest.mark.desk
def test_desk_loss_curve_mostly_decreasing(desk_experiment):
    """On the reference synthetic config, >= 4 of the first 5 epoch-to-epoch
    transitions of the training loss are non-increasing."""
    run_dir = desk_experiment["run_dirs"][("icl-a0.5", 0)]
    lines = (run_dir / "metrics.jsonl").read_text().splitlines()
    totals = [json.loads(l)["total"] for l in lines[:6]]
    drops = sum(1 for a, b in zip(totals, totals[1:]) if b <= a)
    assert drops >= 4, f"loss curve transitions non-increasing only {drops}/5: {totals}"
