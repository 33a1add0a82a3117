"""Correctness checks on the artifacts each pipeline command writes.

Every check raises ``CheckError`` naming the first fault it finds. The
checks compare against computations in ``reference`` (made apart from
the program) or against properties the method must have; none compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref

PROB_TOL = 1e-9


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _geometry(cfg: dict, sr: int) -> dict:
    feats, seg = cfg["features"], cfg["segmentation"]
    frame = round(feats["frame_len_ms"] * 1e-3 * sr)
    cqt = feats["cqt"]
    return {
        "frame": frame,
        "shift": max(1, round(feats["frame_shift_ms"] * 1e-3 * sr)),
        "nfft": feats["fft_size"],
        "seg": round(seg["segment_len"] * sr),
        "hop": max(1, round((seg["segment_len"] - seg["overlap"]) * sr)),
        "n_mel": feats["mel"]["n_filters"],
        "cqt_args": (cqt["f_min"], cqt["f_max"] or 0.95 * sr / 2, cqt["bins_per_octave"]),
    }


def _matches_float32(cached: np.ndarray, exact: np.ndarray, what: str) -> None:
    """cached must be exact rounded to float32: within half a float32 ulp."""
    _require(cached.shape == exact.shape, f"{what}: shape {cached.shape} vs {exact.shape}")
    ulp = np.spacing(np.abs(exact).astype(np.float32)).astype(np.float64)
    tol = 0.501 * ulp + 1e-12 * np.abs(exact).max()
    bad = np.abs(cached.astype(np.float64) - exact) > tol
    if bad.any():
        i = tuple(int(v) for v in np.argwhere(bad)[0])
        raise CheckError(f"{what}: value at {i} is {cached[i]!r}, definition gives {exact[i]!r}")


def check_synth(cfg: dict, out_dir) -> None:
    """One WAV per (class, track) of the requested length, labels matching ids."""
    out_dir = Path(out_dir)
    syn = cfg["dataset"]["synthesis"]
    tracks = json.loads((out_dir / "manifest.json").read_text())["tracks"]
    _require(len(tracks) == syn["n_classes"] * syn["tracks_per_class"],
             f"manifest lists {len(tracks)} tracks")
    for entry in tracks:
        _require(entry["label"] == ref.class_of(entry["track_id"]),
                 f"manifest label {entry['label']} for {entry['track_id']}")
        samples, sr = ref.read_wav_pcm16(out_dir / entry["path"])
        _require(sr == syn["sample_rate"], f"{entry['path']}: rate {sr}")
        _require(samples.size == round(syn["track_duration"] * sr),
                 f"{entry['path']}: {samples.size} samples")


def check_extract(cfg: dict, out_dir, index: dict, sample_ids) -> None:
    """Segment and frame counts, cached labels, and sampled values by definition."""
    out_dir = Path(out_dir)
    sr = index["sample_rate"]
    g = _geometry(cfg, sr)
    manifest = json.loads((out_dir / "manifest.json").read_text())["tracks"]
    wav_of = {e["track_id"]: out_dir / e["path"] for e in manifest}
    audio = {tid: ref.read_wav_pcm16(path)[0] for tid, path in wav_of.items()}

    by_track: dict[str, list[dict]] = {}
    for seg in index["segments"]:
        by_track.setdefault(seg["track"], []).append(seg)
    for tid, samples in audio.items():
        segs = by_track.get(tid, [])
        expect = ref.frame_count(samples.size, g["seg"], g["hop"])
        _require(len(segs) == expect, f"track {tid}: {len(segs)} segments, formula gives {expect}")
        for i, seg in enumerate(segs):
            _require(round(seg["offset"] * sr) == i * g["hop"], f"segment {seg['id']}: offset")
            _require(seg["label"] == ref.class_of(tid), f"segment {seg['id']}: index label")

    n_frames = ref.frame_count(g["seg"], g["frame"], g["shift"])
    n_bins = {"mel": g["n_mel"], "cqt": len(ref.cqt_frequencies(*g["cqt_args"]))}
    for kind in index["kinds"]:
        geo = index["feature_geometry"][kind]
        _require(geo["n_frames"] == n_frames,
                 f"{kind}: {geo['n_frames']} frames, formula gives {n_frames}")
        if kind in n_bins:
            _require(geo["n_bins"] == n_bins[kind], f"{kind}: {geo['n_bins']} bins")
        for seg in index["segments"]:
            kind_read, label, frames, bins = ref.read_iclf_header(
                out_dir / "features" / kind / f"{seg['id']}.iclf")
            _require(kind_read == kind and (frames, bins) == (geo["n_frames"], geo["n_bins"]),
                     f"{kind}/{seg['id']}: header {kind_read} {frames}x{bins}")
            _require(label == ref.class_of(seg["track"]),
                     f"{kind}/{seg['id']}: cached label {label}, track id says "
                     f"{ref.class_of(seg['track'])}")

    segs = {s["id"]: s for s in index["segments"]}
    for sid in sample_ids:
        seg = segs[sid]
        start = round(seg["offset"] * sr)
        x = audio[seg["track"]][start:start + g["seg"]]
        exact = {
            "mel": lambda: ref.mel_reference(x, sr, g["frame"], g["shift"], g["nfft"], g["n_mel"]),
            "cqt": lambda: ref.cqt_reference(x, sr, g["frame"], g["shift"], g["nfft"],
                                             *g["cqt_args"]),
        }
        for kind in ("mel", "cqt"):
            if kind in index["kinds"]:
                _, _, cached = ref.read_iclf(out_dir / "features" / kind / f"{sid}.iclf")
                _matches_float32(cached, exact[kind](), f"{kind}/{sid}")


def split_assignment(cfg: dict, out_dir):
    """The program's track-disjoint split of the cached segments."""
    from icl import audio

    index = json.loads((Path(out_dir) / "features" / "index.json").read_text())
    refs = [SimpleNamespace(parent_track_id=s["track"], label=s["label"], segment_id=s["id"])
            for s in index["segments"]]
    return audio.split_track_disjoint(refs, tuple(cfg["split"]["ratios"]), seed=cfg["seed"])


def _normalized(out_dir: Path, run_dir: Path, kind: str, ids: list[str]) -> np.ndarray:
    stats = json.loads((run_dir / "stats.json").read_text())[kind]
    mats = [ref.read_iclf(out_dir / "features" / kind / f"{sid}.iclf")[2] for sid in ids]
    return ((np.stack(mats).astype(np.float64) - stats["mean"]) / stats["std"])[:, None]


def check_train(cfg: dict, out_dir, run_dir, converged: bool) -> None:
    """Loss identities, finiteness and the checkpoint's validation accuracy.

    ``converged`` adds the checks that need several epochs: the last
    epoch's loss is below the first's and the kept model beats chance.
    """
    out_dir, run_dir = Path(out_dir), Path(run_dir)
    tr = cfg["training"]
    alpha = tr["alpha"] if tr["mode"] == "icl" else 0.0
    history = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
    _require(len(history) == tr["epochs"], f"metrics.jsonl has {len(history)} epochs")
    for rec in history:
        values = [rec["ce"], rec["icl"], rec["total"], rec["val_accuracy"]]
        _require(all(math.isfinite(v) for v in values), f"epoch {rec['epoch']}: non-finite {rec}")
        expect = rec["ce"] + alpha * rec["icl"]
        _require(abs(rec["total"] - expect) <= 1e-9 * max(1.0, abs(expect)),
                 f"epoch {rec['epoch']}: total {rec['total']!r} != ce + {alpha} * icl = {expect!r}")

    run = json.loads((run_dir / "run.json").read_text())
    kinds = run["feature_kinds"]
    assignment = split_assignment(cfg, out_dir)
    val_ids = [s.segment_id for s in assignment.val]
    labels = np.array([ref.class_of(sid) for sid in val_ids])
    params = ref.read_iclc(run_dir / "checkpoint.iclc")
    z = ref.logits(params, {k: _normalized(out_dir, run_dir, k, val_ids) for k in kinds})
    acc = float(np.mean(np.argmax(z, axis=1) == labels))
    _require(acc == run["best_val_accuracy"],
             f"run.json best_val_accuracy {run['best_val_accuracy']!r}, checkpoint gives {acc!r}")
    _require(history[run["best_epoch"] - 1]["val_accuracy"] == acc,
             f"best epoch {run['best_epoch']} logged a different validation accuracy")
    if converged:
        _require(history[-1]["total"] < history[0]["total"],
                 f"loss did not fall: {history[0]['total']!r} -> {history[-1]['total']!r}")
        _require(acc > 1.0 / run["n_classes"], f"validation accuracy {acc} is not above chance")


def check_eval(cfg: dict, out_dir, run_dir) -> dict:
    """Probabilities, predictions, accuracy, confusion and split disjointness."""
    doc = json.loads((Path(run_dir) / "eval.json").read_text())
    n_classes = len(doc["confusion"])
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for s in doc["samples"]:
        probs = np.array(s["probs"])
        _require(abs(probs.sum() - 1.0) <= PROB_TOL, f"{s['segment_id']}: probs sum {probs.sum()!r}")
        _require(s["pred"] == int(np.argmax(probs)), f"{s['segment_id']}: pred is not the argmax")
        _require(s["label"] == ref.class_of(s["segment_id"]), f"{s['segment_id']}: label")
        confusion[s["label"], s["pred"]] += 1
    n = len(doc["samples"])
    _require(doc["n_test"] == n, f"n_test {doc['n_test']} vs {n} samples")
    correct = sum(s["pred"] == ref.class_of(s["segment_id"]) for s in doc["samples"])
    _require(doc["accuracy"] == correct / n, f"accuracy {doc['accuracy']!r} vs {correct}/{n}")
    _require(confusion.tolist() == doc["confusion"], "confusion matrix does not match samples")

    assignment = split_assignment(cfg, out_dir)
    train_tracks = assignment.track_ids("train")
    test_ids = {s.segment_id for s in assignment.test}
    _require({s["segment_id"] for s in doc["samples"]} == test_ids,
             "evaluated segments are not the test split")
    leaked = assignment.track_ids("test") & train_tracks
    _require(not leaked, f"test tracks also in train: {sorted(leaked)}")
    return doc


def check_cam_identity(run_dir, eval_doc: dict, segment_ids, kinds) -> None:
    """softmax_c(sum over encoders of mean raw CAM_c + head/b[c]) == eval probs."""
    run_dir = Path(run_dir)
    bias = ref.read_iclc(run_dir / "checkpoint.iclc")["head/b"]
    probs = {s["segment_id"]: np.array(s["probs"]) for s in eval_doc["samples"]}
    for sid in segment_ids:
        z = bias.copy()
        for c in range(bias.size):
            for kind in kinds:
                path = run_dir / f"cam_{sid}_{kind}_c{c}.csv"
                _require(path.exists(), f"missing CAM for class {c}: {path.name}")
                z[c] += np.loadtxt(path, delimiter=",", ndmin=2).mean()
        err = np.abs(ref.softmax(z) - probs[sid]).max()
        _require(err <= PROB_TOL, f"{sid}: CAM pooling identity off by {err:.3g}")
