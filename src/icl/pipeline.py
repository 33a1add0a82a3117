"""End-to-end plumbing: synth -> extract -> train -> eval -> cam -> report.

Each stage reads and writes plain artifacts under one output directory:

    out/
      manifest.json            synthesized dataset description + WAV paths
      wavs/*.wav               synthesized tracks (16-bit PCM)
      features/index.json      segment table, feature geometry and the
                               features/segmentation config that made them
      features/<kind>/*.iclf   cached feature matrices
      runs/<name>/             per-run: resolved_config.json, metrics.jsonl
                               (the one per-epoch record), checkpoint.iclc,
                               stats.json, run.json, eval.json, confusion +
                               CAM exports
      report/results.{csv,json}

Each command reads only the cache rows it uses: train the train and val
splits, eval the test split, cam one segment. Every row read is checked
against the index: its kind and its shape.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import audio, features, metrics, model, reporting, training
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (encoder_configs, frame_config, synthesis_spec, train_settings,
                     validate_config)
from .errors import IclError, is_int, read_json, write_json


class PipelineError(IclError):
    pass


# Config blocks that decide the cached feature values. Extract records them
# in the index; every reader refuses a cache made under other values, except
# for ``features.kinds``: it only decides which kinds are cached, and a
# missing kind is refused on its own.
_CACHE_BLOCKS = ("features", "segmentation")


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def cmd_synth(cfg: dict, out_dir) -> Path:
    """Generate the synthetic dataset as WAV files plus a manifest."""
    spec = synthesis_spec(cfg)
    out_dir = Path(out_dir)
    (out_dir / "wavs").mkdir(parents=True, exist_ok=True)
    entries = []
    for track in audio.synthesize_dataset(spec):
        rel = f"wavs/{track.track_id}.wav"
        audio.wavio.write_wav(out_dir / rel, track.samples, track.sample_rate)
        entries.append({"track_id": track.track_id, "path": rel, "label": track.label})
    manifest = out_dir / "manifest.json"
    audio.write_manifest(manifest, entries, synthesis=spec)
    write_json(out_dir / "resolved_config.json", cfg)
    return manifest


def cmd_extract(cfg: dict, out_dir) -> dict:
    """Segment the tracks of the manifest (``dataset.manifest``, or else the
    one ``icl synth`` wrote) and cache every configured feature kind."""
    out_dir = Path(out_dir)
    manifest = cfg["dataset"]["manifest"]
    if manifest is None and not (out_dir / "manifest.json").exists():
        raise PipelineError(f"no {out_dir / 'manifest.json'}; run `icl synth` first "
                            "or set dataset.manifest")
    tracks = audio.load_manifest(out_dir / "manifest.json" if manifest is None else manifest)
    seg_cfg = cfg["segmentation"]
    segments, skipped = audio.segment_tracks(tracks, seg_cfg["segment_len"], seg_cfg["overlap"])
    if not segments:
        raise PipelineError("no segments produced; tracks shorter than segment_len?")
    # One filter bank and one frequency axis serve every segment.
    rates = {seg.sample_rate: seg.parent_track_id for seg in segments}
    if len(rates) > 1:
        raise PipelineError("tracks have mixed sample rates: " + ", ".join(
            f"{rate} Hz (track {tid})" for rate, tid in sorted(rates.items())))
    sample_rate = segments[0].sample_rate
    feats = cfg["features"]
    kinds = list(feats["kinds"])
    frame = frame_config(cfg)
    # One transform per kind, its bank built once. The calls go through the
    # ``features`` module so that a wrapper installed there sees them.
    transforms = {"stft": lambda x: features.stft(x, sample_rate, frame)}
    if "mel" in kinds:
        bank = features.build_mel_filterbank(feats["mel"]["n_filters"], frame, sample_rate)
        transforms["mel"] = lambda x: features.mel_spectrogram(x, sample_rate, frame, bank)
    if "cqt" in kinds:
        c = feats["cqt"]
        kernels = features.build_cqt_kernels(frame, sample_rate, f_min=c["f_min"],
                                             f_max=c["f_max"], bins_per_octave=c["bins_per_octave"])
        transforms["cqt"] = lambda x: features.cqt_spectrogram(x, sample_rate, frame, kernels)
    feat_dir = out_dir / "features"
    for kind in kinds:
        (feat_dir / kind).mkdir(parents=True, exist_ok=True)

    geometry: dict[str, dict] = {}
    for seg in segments:
        for kind in kinds:
            values = transforms[kind](seg.samples)
            geometry.setdefault(kind, {"n_frames": values.shape[0], "n_bins": values.shape[1]})
            features.write_feature_cache(
                feat_dir / kind / f"{seg.segment_id}.iclf", values, kind, seg.label)

    labels = sorted({s.label for s in segments})
    index = {
        "sample_rate": sample_rate,
        "kinds": kinds,
        "n_classes": max(labels) + 1,
        "skipped_tracks": skipped,
        "feature_geometry": geometry,
        "config": {block: cfg[block] for block in _CACHE_BLOCKS},
        "segments": [{"id": s.segment_id, "track": s.parent_track_id,
                      "label": s.label, "offset": s.offset} for s in segments],
    }
    write_json(feat_dir / "index.json", index)
    write_json(out_dir / "resolved_config.json", cfg)
    return index


def _parse_index(index: dict):
    refs = [SimpleNamespace(parent_track_id=s["track"], label=s["label"], segment_id=s["id"])
            for s in index["segments"]]
    n_classes = index["n_classes"]
    if not is_int(n_classes):
        raise ValueError(f"n_classes must be an integer, got {n_classes!r}")
    if not refs or not all(isinstance(r.segment_id, str) and isinstance(r.parent_track_id, str)
                           and is_int(r.label) and 0 <= r.label < n_classes for r in refs):
        raise ValueError("segments need string ids and tracks and integer labels "
                         "in [0, n_classes)")
    kinds = index["kinds"]
    if not all(k in features.KINDS for k in kinds):
        raise ValueError(f"kinds must list stft|mel|cqt, got {kinds!r}")
    recorded = _flatten(index["config"]) if "config" in index else None
    geo = index["feature_geometry"]
    geometry = {k: (geo[k]["n_frames"], geo[k]["n_bins"]) for k in kinds}
    return refs, n_classes, geometry, recorded


def _read_index(cfg: dict, out_dir: Path, kinds: tuple[str, ...]
                ) -> tuple[audio.SplitAssignment, int, dict[str, tuple]]:
    """The cache's track-disjoint split, class count and matrix shape per
    kind, after checking the index against the kinds and config asked for."""
    index_path = out_dir / "features" / "index.json"
    if not index_path.exists():
        raise PipelineError(f"missing feature cache index {index_path}; run `icl extract` first")
    refs, n_classes, geometry, cached = read_json(index_path, _parse_index)
    for kind in kinds:
        if kind not in geometry:
            raise PipelineError(f"feature kind {kind!r} was not extracted "
                                f"(have {sorted(geometry)})")
    if cached is None:
        raise PipelineError(f"{index_path} does not record the config it was extracted with; "
                            "re-run `icl extract`")
    wanted = _flatten({block: cfg[block] for block in _CACHE_BLOCKS})
    differ = [key for key in sorted(cached.keys() | wanted.keys())
              if key != "features.kinds" and cached.get(key) != wanted.get(key)]
    if differ:
        detail = ", ".join(f"{key} (cache {cached.get(key)!r}, config {wanted.get(key)!r})"
                           for key in differ)
        raise PipelineError(f"feature cache {index_path} was extracted with a different config: "
                            f"{detail}; re-run `icl extract`")
    split = audio.split_track_disjoint(refs, tuple(cfg["split"]["ratios"]), seed=cfg["seed"])
    return split, n_classes, geometry


def _read_rows(out_dir: Path, kind: str, refs, shape: tuple) -> np.ndarray:
    """The cached features of refs as one float64 stack; each file's kind,
    label and matrix shape checked against the index."""
    rows = []
    for ref in refs:
        path = out_dir / "features" / kind / f"{ref.segment_id}.iclf"
        kind_read, label, values = features.read_feature_cache(path)
        if kind_read != kind:
            raise PipelineError(f"feature cache {path} holds {kind_read} features, not {kind}")
        if values.shape != shape:
            raise PipelineError(f"feature cache {path} holds a {values.shape[0]}x{values.shape[1]} "
                                f"matrix; the index records {shape[0]}x{shape[1]} for {kind}")
        if label != ref.label:
            raise PipelineError(f"label mismatch for {ref.segment_id} in {kind} cache")
        rows.append(values)
    return np.stack(rows).astype(np.float64)


def _read_normalized(out_dir: Path, kinds: tuple[str, ...], refs, geometry: dict,
                     stats: dict[str, features.FeatureStats]) -> dict[str, np.ndarray]:
    """Encoder input [n, 1, H, W] per kind for refs alone, normalized with stats."""
    return {k: features.normalize_features(
        stats[k], _read_rows(out_dir, k, refs, geometry[k]))[:, None] for k in kinds}


def load_dataset(cfg: dict, out_dir, kinds: tuple[str, ...],
                 stats: dict[str, features.FeatureStats] | None = None,
                 ) -> tuple[training.DatasetSplits, dict[str, features.FeatureStats]]:
    """The train and val splits, normalized with the train split's stats
    (or with ``stats`` when given). The test rows are not read."""
    out_dir = Path(out_dir)
    assignment, n_classes, geometry = _read_index(cfg, out_dir, kinds)
    train = {k: _read_rows(out_dir, k, assignment.train, geometry[k]) for k in kinds}
    if stats is None:
        stats = {k: features.compute_feature_stats(train[k], k) for k in kinds}
    val = _read_normalized(out_dir, kinds, assignment.val, geometry, stats)
    feats = {k: {"train": features.normalize_features(stats[k], train[k])[:, None],
                 "val": val[k]} for k in kinds}
    labels = {split: np.array([r.label for r in getattr(assignment, split)], dtype=np.int64)
              for split in ("train", "val")}
    return training.DatasetSplits(features=feats, labels=labels, n_classes=n_classes), stats


def default_run_name(cfg: dict) -> str:
    tr = cfg["training"]
    if tr["mode"] == "icl":
        return f"icl-a{tr['alpha']:g}-s{cfg['seed']}"
    return f"{tr['mode']}-s{cfg['seed']}"


def cmd_train(cfg: dict, out_dir, run_name: str | None = None) -> Path:
    """Train one run and write its artifacts under out/runs/<name>/."""
    out_dir = Path(out_dir)
    settings = train_settings(cfg)
    kinds = settings.feature_kinds
    data, stats = load_dataset(cfg, out_dir, kinds)
    run_dir = out_dir / "runs" / (run_name or default_run_name(cfg))
    run_dir.mkdir(parents=True, exist_ok=True)

    run = training.train(data, encoder_configs(cfg, kinds), settings,
                         log_path=run_dir / "metrics.jsonl")
    save_checkpoint(run_dir / "checkpoint.iclc", run.best_params)
    write_json(run_dir / "resolved_config.json", cfg)
    write_json(run_dir / "stats.json",
               {k: {"mean": s.mean, "std": s.std} for k, s in stats.items()})
    write_json(run_dir / "run.json", {
        "mode": settings.mode, "seed": settings.seed,
        "alpha": settings.alpha if settings.mode == training.MODE_ICL else 0.0,
        "epochs": settings.epochs, "feature_kinds": list(kinds),
        "n_classes": data.n_classes, "best_epoch": run.best_epoch,
        "best_val_accuracy": run.best_val_accuracy,
    })
    return run_dir


def _load_run(out_dir: Path, run_name: str):
    """A run's dir, the cache's split and class count, the encoder configs,
    feature stats and parameters, all checked against the run's config."""
    run_dir = Path(out_dir) / "runs" / run_name
    if not (run_dir / "checkpoint.iclc").exists():
        raise PipelineError(f"run {run_dir} has no checkpoint; train it first")
    cfg = read_json(run_dir / "resolved_config.json", validate_config)
    kinds = train_settings(cfg).feature_kinds
    assignment, n_classes, geometry = _read_index(cfg, Path(out_dir), kinds)
    stats = read_json(run_dir / "stats.json", lambda doc: {
        k: features.FeatureStats(k, doc[k]["mean"], doc[k]["std"]) for k in kinds})
    enc_cfgs = encoder_configs(cfg, kinds)
    shapes = {}
    for kind, enc in enc_cfgs.items():
        shapes.update(model.encoder_param_shapes(enc, prefix=kind))
    shapes.update({"head/w": (n_classes, enc.embedding_dim), "head/b": (n_classes,)})
    params = load_checkpoint(run_dir / "checkpoint.iclc")
    got = {name: p.shape for name, p in params.items()}
    if got != shapes:
        name = min(n for n in shapes.keys() | got.keys() if shapes.get(n) != got.get(n))
        raise PipelineError(f"checkpoint {run_dir / 'checkpoint.iclc'} does not match the run's "
                            f"model config: {name} is {got.get(name)} there, "
                            f"{shapes.get(name)} in the config")
    return run_dir, assignment, n_classes, geometry, enc_cfgs, stats, params


def cmd_eval(out_dir, run_name: str) -> dict:
    """Test-split metrics for a trained run: accuracy, confusion, per-sample probs."""
    out_dir = Path(out_dir)
    run_dir, assignment, n_classes, geometry, enc_cfgs, stats, params = _load_run(out_dir, run_name)
    kinds = tuple(enc_cfgs)
    refs = assignment.test
    probs = training.predict_proba(params, enc_cfgs, kinds,
                                   _read_normalized(out_dir, kinds, refs, geometry, stats))
    preds = np.argmax(probs, axis=1)
    y = np.array([r.label for r in refs], dtype=np.int64)
    acc = metrics.accuracy(preds, y)
    cm = metrics.confusion(preds, y, n_classes)
    reporting.export_confusion(cm, run_dir / "confusion")
    doc = {
        "accuracy": acc,
        "n_test": int(y.size),
        "confusion": cm.counts.tolist(),
        "samples": [{"segment_id": r.segment_id, "label": int(lab), "pred": int(pred),
                     "probs": [float(p) for p in row]}
                    for r, lab, pred, row in zip(refs, y, preds, probs)],
    }
    write_json(run_dir / "eval.json", doc)
    return doc


def cmd_cam(out_dir, run_name: str, split: str = "test", index: int = 0,
            class_index: int | None = None, segment_id: str | None = None) -> list[Path]:
    """Export per-encoder class activation maps for one cached segment.

    Reads only that segment's cache file per kind.
    """
    out_dir = Path(out_dir)
    run_dir, assignment, _, geometry, enc_cfgs, stats, params = _load_run(out_dir, run_name)
    kinds = tuple(enc_cfgs)
    refs = getattr(assignment, split)
    ids = [r.segment_id for r in refs]
    if segment_id is not None:
        if segment_id not in ids:
            raise PipelineError(f"segment {segment_id!r} not in split {split!r}")
        index = ids.index(segment_id)
    if not 0 <= index < len(ids):
        raise PipelineError(f"sample index {index} out of range for split {split!r} ({len(ids)})")
    sid = ids[index]

    tensors = {n: training.Tensor(p) for n, p in params.items()}
    batch = _read_normalized(out_dir, kinds, refs[index: index + 1], geometry, stats)
    logits, outputs = training._forward(tensors, enc_cfgs, kinds, batch)
    target = int(np.argmax(logits.data[0])) if class_index is None else class_index

    written: list[Path] = []
    for kind in kinds:
        maps = outputs[kind].feature_maps.data[0]
        cam = model.compute_cam(maps, params["head/w"], target, batch[kind].shape[2:])
        written += reporting.export_cam(cam, run_dir / f"cam_{sid}_{kind}_c{target}")
    return written


def cmd_report(out_dir) -> dict:
    """Aggregate all evaluated runs into results.csv / results.json."""
    out_dir = Path(out_dir)
    runs_root = out_dir / "runs"
    if not runs_root.exists():
        raise PipelineError(f"no runs directory under {out_dir}")
    run_dirs = sorted(p for p in runs_root.iterdir() if (p / "run.json").exists())
    if not run_dirs:
        raise PipelineError(f"no completed runs under {runs_root}")
    return reporting.export_report(run_dirs, out_dir / "report")
