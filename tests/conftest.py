"""Shared fixtures: a fast micro dataset and the full desk experiment."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from icl import pipeline
from icl.config import resolve_config

# Tiny end-to-end configuration: 3 classes x 4 tracks of 6 s at 1 kHz,
# 1.5 s segments, 2-stage encoders. A full train run takes a few seconds.
MICRO_OVERRIDES = [
    ('dataset.synthesis={"n_classes":3,"line_freqs":[[60,90],[75,105],[60,105]],'
     '"mod_rates":[3.0,5.0,8.0],"mod_depth":0.8,"carrier_band":[300,450],'
     '"snr_db":12,"tracks_per_class":4,"track_duration":6.0,"sample_rate":1000}'),
    "segmentation.segment_len=1.5",
    "segmentation.overlap=0.75",
    "features.fft_size=64",
    "features.mel.n_filters=12",
    "features.cqt.bins_per_octave=8",
    "features.cqt.f_min=150",
    "features.cqt.f_max=450",
    'features.kinds=["stft","mel","cqt"]',
    "encoder.stem_channels=4",
    "encoder.blocks_per_stage=[1,1]",
    "encoder.channel_widths=[4,8]",
    "encoder.embedding_dim=8",
    "training.epochs=2",
    "training.batch_size=8",
]


def micro_config(*extra: str, seed: int = 0) -> dict:
    return resolve_config(overrides=MICRO_OVERRIDES + [f"seed={seed}", *extra], env={})


@pytest.fixture(scope="session")
def micro_run(tmp_path_factory):
    """A micro dataset, synthesized, extracted and trained once: (out, run name, cfg).
    Tests that change its files work on a copy."""
    out = tmp_path_factory.mktemp("micro")
    cfg = micro_config()
    pipeline.cmd_synth(cfg, out)
    pipeline.cmd_extract(cfg, out)
    run_dir = pipeline.cmd_train(cfg, out)
    return out, run_dir.name, cfg


DESK_SEEDS = (0, 1, 2)
DESK_ALPHAS = (0.5, 0.2, 2.0)


@pytest.fixture(scope="session")
def desk_experiment(tmp_path_factory):
    """The 3-seed desk-preset experiment backing the synthetic-accuracy criteria.

    Per seed: synthesize, extract, train the contrastive model at alpha
    0.5/0.2/2.0 plus the mel and cqt baselines, evaluate everything, and
    build the report (which adds the decision-ensemble row). Returns
    accuracies, per-seed core wall times, and run directories.
    """
    root = tmp_path_factory.mktemp("desk")
    acc: dict[str, dict[int, float]] = {}
    times: dict[int, float] = {}
    run_dirs: dict[tuple[str, int], Path] = {}
    reports = {}
    for seed in DESK_SEEDS:
        out = root / f"seed{seed}"
        t0 = time.time()
        cfg = resolve_config(preset="desk", overrides=[f"seed={seed}"], env={})
        pipeline.cmd_synth(cfg, out)
        pipeline.cmd_extract(cfg, out)
        for mode, alpha in [("icl", 0.5), ("mel", 0.0), ("cqt", 0.0)]:
            cfg_run = resolve_config(preset="desk", overrides=[
                f"seed={seed}", f"training.mode={mode}", f"training.alpha={alpha}"], env={})
            run_dir = pipeline.cmd_train(cfg_run, out)
            doc = pipeline.cmd_eval(out, run_dir.name)
            key = f"icl-a{alpha:g}" if mode == "icl" else mode
            acc.setdefault(key, {})[seed] = doc["accuracy"]
            run_dirs[(key, seed)] = run_dir
        reports[seed] = pipeline.cmd_report(out)
        times[seed] = time.time() - t0
        # Alpha-sweep harness runs (criterion on the 0.2 / 2.0 shape).
        for alpha in DESK_ALPHAS[1:]:
            cfg_run = resolve_config(preset="desk", overrides=[
                f"seed={seed}", "training.mode=icl", f"training.alpha={alpha}"], env={})
            run_dir = pipeline.cmd_train(cfg_run, out)
            doc = pipeline.cmd_eval(out, run_dir.name)
            acc.setdefault(f"icl-a{alpha:g}", {})[seed] = doc["accuracy"]
            run_dirs[(f"icl-a{alpha:g}", seed)] = run_dir
    return {"root": root, "accuracies": acc, "core_times": times,
            "run_dirs": run_dirs, "reports": reports}
