"""Training loop behavior: determinism, alpha semantics, checkpointing."""

import json

import numpy as np
import pytest

from icl import training
from icl.model import EncoderConfig
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
    return DatasetSplits(features=feats, labels=labels, n_classes=n_classes,
                         segment_ids={s: [f"{s}{i}" for i in range(n)]
                                      for s, n in sizes.items()})


def settings(**kw):
    base = dict(mode="icl", epochs=2, batch_size=8, lr=5e-4,
                weight_decay=1e-5, alpha=0.5, seed=0)
    base.update(kw)
    return TrainSettings(**base)


def test_training_is_deterministic(tmp_path):
    data = toy_data()
    run1 = train(data, TINY_CFG, settings(), log_path=tmp_path / "a.jsonl")
    run2 = train(data, TINY_CFG, settings(), log_path=tmp_path / "b.jsonl")
    assert run1.history == run2.history
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    for name in run1.best_params:
        assert np.array_equal(run1.best_params[name], run2.best_params[name])


def test_seed_changes_trajectory():
    data = toy_data()
    run1 = train(data, TINY_CFG, settings())
    run2 = train(data, TINY_CFG, settings(seed=1))
    assert run1.history != run2.history


def test_alpha_zero_equals_plain_ce_batch_for_batch():
    data = toy_data()
    run = train(data, TINY_CFG, settings(alpha=0.0), record_batches=True)
    assert run.batch_losses, "expected per-batch records"
    for rec in run.batch_losses:
        assert rec["icl"] == 0.0
        assert rec["total"] == rec["ce"]


def test_alpha_positive_adds_contrastive_term():
    data = toy_data()
    run = train(data, TINY_CFG, settings(alpha=0.5), record_batches=True)
    for rec in run.batch_losses:
        assert rec["icl"] > 0.0
        assert abs(rec["total"] - (rec["ce"] + 0.5 * rec["icl"])) < 1e-12


def test_baseline_mode_ignores_alpha():
    data = toy_data()
    run_a = train(data, TINY_CFG, settings(mode="mel", alpha=0.9), record_batches=True)
    run_b = train(data, TINY_CFG, settings(mode="mel", alpha=0.0), record_batches=True)
    assert run_a.history == run_b.history
    for rec in run_a.batch_losses:
        assert rec["icl"] == 0.0 and rec["total"] == rec["ce"]


def test_best_checkpoint_is_latest_max_val_accuracy():
    data = toy_data()
    run = train(data, TINY_CFG, settings(epochs=4))
    accs = [r.val_accuracy for r in run.history]
    assert run.best_val_accuracy == max(accs)
    assert run.best_epoch == max(i + 1 for i, a in enumerate(accs) if a == max(accs))


def test_metrics_log_schema(tmp_path):
    data = toy_data()
    train(data, TINY_CFG, settings(), log_path=tmp_path / "m.jsonl")
    lines = (tmp_path / "m.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert sorted(rec) == ["ce", "epoch", "icl", "total", "val_accuracy"]
        assert rec["epoch"] == i + 1


def test_nonfinite_input_aborts_with_location():
    data = toy_data()
    data.features["mel"]["train"][3, 0, 2, 2] = np.nan
    with pytest.raises(TrainingError, match=r"epoch 1, batch \d"):
        train(data, TINY_CFG, settings())


def test_predict_proba_rows_are_distributions():
    data = toy_data()
    run = train(data, TINY_CFG, settings())
    probs = predict_proba(run.best_params, TINY_CFG, ("mel", "cqt"),
                          {k: data.features[k]["test"] for k in ("mel", "cqt")})
    assert probs.shape == (8, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_predict_logits_on_live_params_is_graph_free(monkeypatch):
    data = toy_data()
    kinds = ("mel", "cqt")
    params = training.init_model_params(kinds, TINY_CFG, data.n_classes, seed=0)
    batch = {k: data.features[k]["val"] for k in kinds}
    want, _ = training._forward(params, TINY_CFG, kinds, batch)

    seen = []
    forward = training._forward

    def spy(*args):
        logits, outputs = forward(*args)
        seen.append(logits)
        return logits, outputs

    monkeypatch.setattr(training, "_forward", spy)
    got = training.predict_logits(params, TINY_CFG, kinds, batch)
    assert np.array_equal(got, want.data)
    assert seen and all(t._parents == () and t._backward is None for t in seen)
    assert all(p.grad is None for p in params.values())


def test_settings_validation():
    with pytest.raises(TrainingError, match="mode"):
        settings(mode="wavelet")
    with pytest.raises(TrainingError, match="batch_size"):
        settings(batch_size=1)
    with pytest.raises(TrainingError, match="alpha"):
        settings(alpha=-1.0)
    assert settings(mode="cqt").feature_kinds == ("cqt",)
    assert settings().feature_kinds == ("mel", "cqt")


def test_missing_feature_kind_rejected():
    data = toy_data()
    del data.features["cqt"]
    with pytest.raises(TrainingError, match="no 'cqt' features"):
        train(data, TINY_CFG, settings())


def test_desk_loss_curve_mostly_decreasing(desk_experiment):
    """On the reference synthetic config, >= 4 of the first 5 epoch-to-epoch
    transitions of the training loss are non-increasing."""
    run_dir = desk_experiment["run_dirs"][("icl-a0.5", 0)]
    lines = (run_dir / "metrics.jsonl").read_text().splitlines()
    totals = [json.loads(l)["total"] for l in lines[:6]]
    drops = sum(1 for a, b in zip(totals, totals[1:]) if b <= a)
    assert drops >= 4, f"loss curve transitions non-increasing only {drops}/5: {totals}"
