"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. The synthetic-experiment criteria (5, 8) share one session-scoped
desk experiment (3 seeds x {contrastive at alpha 0.5/0.2/2.0, mel, cqt}).
"""

import json
import math
import time

import numpy as np
import pytest

import icl.autodiff as ad
from icl import model, pipeline
from icl.autodiff import Tensor
from icl.features import (FrameConfig, build_mel_filterbank, cqt_frequencies,
                          frame_count, mel_scale)
from icl.losses import combined_loss, cosine_similarity_matrix, ensemble_predict, icl_loss
from icl.model import EncoderConfig
from icl.optim import AdamW
from conftest import micro_config
from test_autodiff import OP_CASES, hashsum, off_kink


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print("\n" + line)
    assert ok, line


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst_single = 0.0
    for name, build, shapes in OP_CASES:
        local = np.random.default_rng(hashsum(name))
        arrays = [off_kink(local, s) for s in shapes]
        worst_single = max(worst_single, ad.grad_check(build, arrays))
    local = np.random.default_rng(101)
    worst_single = max(worst_single, ad.grad_check(
        lambda t: ad.softmax_cross_entropy(t, np.array([0, 2, 1, 1])),
        [local.standard_normal((4, 3))]))

    # full two-encoder combined-loss graph at tiny dims
    cfgs = {k: EncoderConfig(k, 2, (1, 1), (2, 3), 3) for k in ("mel", "cqt")}
    pm = model.init_encoder_params(cfgs["mel"], 0)
    pc = model.init_encoder_params(cfgs["cqt"], 0)
    ph = model.init_head_params(3, 3, 0)
    names = list(pm) + list(pc) + list(ph)
    arrays = [(pm | pc | ph)[n].data for n in names]
    rng = np.random.default_rng(7)
    xm = off_kink(rng, (2, 1, 9, 8))
    xc = off_kink(rng, (2, 1, 8, 10))
    y = np.array([0, 2])

    def build_net(*tensors):
        p = dict(zip(names, tensors))
        om = model.encoder_forward({n: p[n] for n in p if n.startswith("mel/")},
                                   cfgs["mel"], Tensor(xm))
        oc = model.encoder_forward({n: p[n] for n in p if n.startswith("cqt/")},
                                   cfgs["cqt"], Tensor(xc))
        logits = model.classify(ad.add(om.embedding, oc.embedding), p)
        m = cosine_similarity_matrix(om.embedding, oc.embedding)
        return combined_loss(logits, y, m, 0.5)[0]

    worst_composite = ad.grad_check(build_net, arrays, h=1e-5)
    elapsed = time.perf_counter() - t0
    ok = worst_single < 1e-6 and worst_composite < 1e-4 and elapsed < 60
    report(1, "gradient correctness", ok,
           f"single-op max rel err {worst_single:.2e} (< 1e-6), "
           f"composite {worst_composite:.2e} (< 1e-4), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_2_loss_identities():
    zero_loss = float(icl_loss(Tensor(np.zeros((32, 32)))).data)
    ln32_ok = abs(zero_loss - math.log(32)) <= 1e-9

    rng = np.random.default_rng(2)
    logits = Tensor(rng.standard_normal((8, 4)))
    y = rng.integers(0, 4, 8)
    m = cosine_similarity_matrix(Tensor(rng.standard_normal((8, 5))),
                                 Tensor(rng.standard_normal((8, 5))))
    total0, bd0 = combined_loss(logits, y, m, 0.0)
    ce = ad.softmax_cross_entropy(logits, y)
    alpha0_ok = total0.data == ce.data and bd0.total == bd0.ce

    _, bd_half = combined_loss(logits, y, m, 0.5)
    _, bd_one = combined_loss(logits, y, m, 1.0)
    doubling_ok = (bd_one.alpha * bd_one.icl) == 2.0 * (bd_half.alpha * bd_half.icl)

    ok = ln32_ok and alpha0_ok and doubling_ok
    report(2, "loss identities", ok,
           f"icl_loss(0, N=32)={zero_loss:.12f} vs ln32={math.log(32):.12f}; "
           f"alpha=0 total==CE exactly: {alpha0_ok}; term doubling exact: {doubling_ok}")


def test_criterion_3_feature_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    framing_ok = True
    for _ in range(200):
        frame = int(rng.integers(2, 500))
        shift = int(rng.integers(1, frame + 1))
        total = int(rng.integers(frame, 5001))
        if frame_count(total, frame, shift) != (total - frame) // shift + 1:
            framing_ok = False
            break

    freqs = cqt_frequencies(50.0, 7000.0, 36)
    ratio_err = float(np.max(np.abs(freqs[1:] / freqs[:-1] - 2 ** (1 / 36))))
    cqt_ok = ratio_err < 1e-12

    bank = build_mel_filterbank(300, FrameConfig(fft_size=8192), 16000)
    spacing = np.diff(mel_scale(bank.center_freqs))
    mel_err = float(spacing.max() - spacing.min())
    mel_ok = mel_err < 1e-6

    cfg = FrameConfig()
    frames_1199 = all(
        frame_count(30 * sr, cfg.frame_samples(sr), cfg.shift_samples(sr)) == 1199
        for sr in (4000, 16000, 44100))
    elapsed = time.perf_counter() - t0
    ok = framing_ok and cqt_ok and mel_ok and frames_1199 and elapsed < 60
    report(3, "feature properties", ok,
           f"framing formula 200/200: {framing_ok}; CQT ratio err {ratio_err:.2e} (< 1e-12); "
           f"Mel spacing spread {mel_err:.2e} (< 1e-6); 30s->1199 frames: {frames_1199}; "
           f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_4_cam_identity():
    cfg = EncoderConfig("mel", 2, (1, 1), (2, 3), 3)
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        params = model.init_encoder_params(cfg, 1000 + trial)
        params.update(model.init_head_params(4, 3, 1000 + trial))
        x = rng.standard_normal((1, 1, 12, 9))
        if trial % 5 == 0:  # train a fifth of the models for a few steps
            opt = AdamW(params, lr=1e-2, weight_decay=1e-5)
            xb = rng.standard_normal((6, 1, 12, 9))
            yb = rng.integers(0, 4, 6)
            for _ in range(5):
                out = model.encoder_forward(
                    {n: p for n, p in params.items() if n.startswith("mel/")}, cfg, Tensor(xb))
                loss = ad.softmax_cross_entropy(model.classify(out.embedding, params), yb)
                ad.backward(loss)
                opt.step()
                opt.zero_grad()
        out = model.encoder_forward(
            {n: p for n, p in params.items() if n.startswith("mel/")}, cfg, Tensor(x))
        c = int(rng.integers(0, 4))
        cam = model.compute_cam(out.feature_maps.data[0], params["head/w"].data, c, (12, 9))
        contribution = float(params["head/w"].data[c] @ out.embedding.data[0])
        worst = max(worst, abs(cam.raw.mean() - contribution))
    ok = worst <= 1e-9
    report(4, "CAM pooling identity", ok,
           f"max |mean(raw CAM) - W[c]·embedding| = {worst:.2e} over 50 pairs (<= 1e-9)")


@pytest.mark.desk
def test_criterion_5_synthetic_contrastive_experiment(desk_experiment):
    acc = desk_experiment["accuracies"]
    mean = {k: float(np.mean(list(v.values()))) for k, v in acc.items()}
    ens = []
    for seed, rep in desk_experiment["reports"].items():
        rows = [r for r in rep["summary"] if r["method"] == "ensemble"]
        assert rows, f"no ensemble row in seed {seed} report"
        ens.append(rows[0]["mean_accuracy"])
    ens_mean = float(np.mean(ens))
    icl = mean["icl-a0.5"]
    times = desk_experiment["core_times"]
    ok = (icl >= max(mean["mel"], mean["cqt"]) - 1e-12
          and icl >= ens_mean - 0.02
          and icl >= 0.85
          and all(t < 900 for t in times.values()))
    report(5, "synthetic contrastive experiment", ok,
           f"mean acc over 3 seeds: contrastive {icl:.4f}, mel {mean['mel']:.4f}, "
           f"cqt {mean['cqt']:.4f}, ensemble {ens_mean:.4f}; contrastive >= max(baselines), "
           f">= ensemble-2pp, >= 0.85; per-seed core time "
           f"{[f'{t:.0f}s' for t in times.values()]} (< 900s each)")


def test_criterion_6_ensemble_rule_grid():
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 10)
    mismatches = 0
    for p in grid:
        for q in grid:
            a = np.array([p, 1.0 - p])
            b = np.array([q, 1.0 - q])
            got = ensemble_predict(a, b)
            ca, cb = int(np.argmax(a)), int(np.argmax(b))
            want = ca if ca == cb else (ca if a[ca] >= b[cb] else cb)
            mismatches += int(got != want)
    ok = mismatches == 0
    report(6, "ensemble confidence rule", ok,
           f"{mismatches} mismatches over {len(grid) ** 2} probability pairs (step 0.05)")


def test_criterion_7_reproducibility(tmp_path):
    cfg = micro_config()
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        pipeline.cmd_synth(cfg, out)
        pipeline.cmd_extract(cfg, out)
        run_dir = pipeline.cmd_train(cfg, out)
        blobs.append(((run_dir / "metrics.jsonl").read_bytes(),
                      (run_dir / "checkpoint.iclc").read_bytes()))
    metrics_ok = blobs[0][0] == blobs[1][0]
    ckpt_ok = blobs[0][1] == blobs[1][1]
    ok = metrics_ok and ckpt_ok
    report(7, "reproducibility", ok,
           f"two runs of one resolved config: metrics byte-identical {metrics_ok}, "
           f"checkpoints byte-identical {ckpt_ok}")


@pytest.mark.desk
def test_criterion_8_alpha_sweep_shape(desk_experiment):
    acc = desk_experiment["accuracies"]
    mean = {k: float(np.mean(list(v.values()))) for k, v in acc.items()}
    mid, low, high = mean["icl-a0.5"], mean["icl-a0.2"], mean["icl-a2"]
    ok = mid >= low and mid >= high
    report(8, "alpha sweep shape", ok,
           f"mean acc alpha=0.5: {mid:.4f} >= alpha=0.2: {low:.4f} and >= alpha=2: {high:.4f}")
