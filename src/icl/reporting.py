"""Artifact export: PGM heat maps, CSV matrices, and the results table, read
from each run's checked ``resolved_config.json`` and its ``eval.json``.

All writers are deterministic: fixed float formatting, sorted rows, no
timestamps, so re-running an export over unchanged runs reproduces the
files byte for byte.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .config import train_settings, validate_config
from .errors import IclError, is_int, read_json, write_json
from .losses import ensemble_predict
from .metrics import ConfusionMatrix
from .training import MODE_ICL, TrainSettings


class ReportError(IclError):
    pass


def write_pgm(path, values01: np.ndarray, invert: bool = False) -> None:
    """Write a [0,1] matrix as a binary PGM (maxval 255).

    invert=True maps high values to dark pixels (confusion heat maps use
    a light-to-dark scale); the default maps high values to bright.
    """
    arr = np.asarray(values01, dtype=np.float64)
    if arr.ndim != 2:
        raise ReportError(f"PGM export needs a 2-D matrix, got shape {arr.shape}")
    if arr.min() < -1e-9 or arr.max() > 1 + 1e-9:
        raise ReportError("PGM export expects values in [0, 1]")
    pixels = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    if invert:
        pixels = 255 - pixels
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())


def write_matrix_csv(path, matrix: np.ndarray, fmt: str = "%.12g") -> None:
    np.savetxt(path, np.asarray(matrix), delimiter=",", fmt=fmt)


def export_confusion(cm: ConfusionMatrix, base_path) -> list[Path]:
    """Write counts CSV plus a row-normalized light-to-dark PGM."""
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    pgm_path = base.with_suffix(".pgm")
    write_matrix_csv(csv_path, cm.counts, fmt="%d")
    write_pgm(pgm_path, cm.row_normalized(), invert=True)
    return [csv_path, pgm_path]


def export_cam(cam, base_path) -> list[Path]:
    """Write the normalized heat map as PGM and the raw map as CSV."""
    base = Path(base_path)
    pgm_path = base.with_suffix(".pgm")
    csv_path = base.with_suffix(".csv")
    write_pgm(pgm_path, cam.heatmap)
    write_matrix_csv(csv_path, cam.raw, fmt="%.17g")
    return [pgm_path, csv_path]


def _check_eval(ev: dict) -> dict:
    """eval.json as the report reads it: a float accuracy, and per sample a
    string id, an integer label and probabilities that sum to 1."""
    if not isinstance(ev["accuracy"], float):
        raise TypeError(f"accuracy must be a float, got {ev['accuracy']!r}")
    for s in ev["samples"]:
        probs = np.asarray(s["probs"], dtype=np.float64)
        if not (isinstance(s["segment_id"], str) and is_int(s["label"]) and probs.ndim == 1
                and abs(probs.sum() - 1.0) <= 1e-6):
            raise ValueError(f"sample {s['segment_id']!r} needs a string id, an integer label "
                             "and probs that sum to 1")
    return ev


def _read_runs(run_dirs: list[Path]) -> list[tuple[str, TrainSettings, dict]]:
    """(name, training settings, eval.json) of each evaluated run; the
    settings come from the run's resolved_config.json."""
    runs = []
    for run_dir in map(Path, run_dirs):
        if not (run_dir / "eval.json").exists():
            raise ReportError(f"run {run_dir} is missing eval.json; run `icl eval` on it first")
        settings = read_json(run_dir / "resolved_config.json",
                             lambda doc: train_settings(validate_config(doc)))
        runs.append((run_dir.name, settings, read_json(run_dir / "eval.json", _check_eval)))
    return runs


def collect_run_rows(runs: list[tuple[str, TrainSettings, dict]]) -> list[dict]:
    """Per-run rows (method, features, seed, alpha, accuracy) from eval artifacts."""
    return [{"method": "contrastive" if s.mode == MODE_ICL else "baseline",
             "features": "+".join(s.feature_kinds), "seed": s.seed, "alpha": s.loss_alpha,
             "accuracy": ev["accuracy"], "run": name} for name, s, ev in runs]


def ensemble_rows(runs: list[tuple[str, TrainSettings, dict]]) -> list[dict]:
    """Decision-level ensemble of same-seed mel/cqt baseline runs."""
    by_seed: dict[int, dict[str, dict]] = {}
    for _, s, ev in runs:
        if s.mode in ("mel", "cqt"):
            by_seed.setdefault(s.seed, {})[s.mode] = ev
    rows = []
    for seed in sorted(by_seed):
        pair = by_seed[seed]
        if "mel" not in pair or "cqt" not in pair:
            continue
        mel_by_id = {s["segment_id"]: s for s in pair["mel"]["samples"]}
        correct = 0
        total = 0
        for s in pair["cqt"]["samples"]:
            mate = mel_by_id.get(s["segment_id"])
            if mate is None or len(mate["probs"]) != len(s["probs"]):
                raise ReportError(f"seed {seed}: mel/cqt eval sample sets differ")
            pred = ensemble_predict(np.asarray(mate["probs"]), np.asarray(s["probs"]))
            correct += int(pred == s["label"])
            total += 1
        rows.append({"method": "ensemble", "features": "mel+cqt", "seed": seed,
                     "alpha": 0.0, "accuracy": correct / total, "run": f"ensemble-seed{seed}"})
    return rows


_ROW_ORDER = {("baseline", "stft"): 0, ("baseline", "mel"): 1, ("baseline", "cqt"): 2,
              ("ensemble", "mel+cqt"): 3, ("contrastive", "mel+cqt"): 4}


def export_report(run_dirs: list[Path], out_dir) -> dict:
    """Write results.csv / results.json across runs, with ensemble rows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = _read_runs(run_dirs)
    rows = collect_run_rows(runs) + ensemble_rows(runs)
    rows.sort(key=lambda r: (_ROW_ORDER.get((r["method"], r["features"]), 99),
                             r["alpha"], r["seed"]))

    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "features", "seed", "alpha", "accuracy"])
        for r in rows:
            writer.writerow([r["method"], r["features"], r["seed"], r["alpha"],
                             f"{r['accuracy']:.6f}"])

    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["method"], r["features"], r["alpha"]), []).append(r)
    summary = [{
        "method": m, "features": f, "alpha": a,
        "seeds": [r["seed"] for r in g],
        "accuracies": [r["accuracy"] for r in g],
        "mean_accuracy": float(np.mean([r["accuracy"] for r in g])),
    } for (m, f, a), g in sorted(groups.items(),
                                 key=lambda kv: (_ROW_ORDER.get(kv[0][:2], 99), kv[0][2]))]
    doc = {"rows": rows, "summary": summary}
    write_json(out_dir / "results.json", doc)
    return doc
