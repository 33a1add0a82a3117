"""End-to-end plumbing: synth -> extract -> train -> eval -> cam -> report.

Each stage reads and writes plain artifacts under one output directory:

    out/
      manifest.json            synthesized dataset description + WAV paths
      wavs/*.wav               synthesized tracks (16-bit PCM)
      features/index.json      segment table, feature geometry and the
                               features/segmentation config that made them
      features/<kind>/*.iclf   cached feature matrices
      runs/<name>/             per-run: resolved_config.json, metrics.jsonl,
                               checkpoint.iclc, stats.json, run.json, eval.json,
                               confusion + CAM exports
      report/results.{csv,json}
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import audio, features, metrics, model, reporting, training
from .checkpoint import load_checkpoint, save_checkpoint
from .config import save_config


class PipelineError(Exception):
    pass


# Config blocks that decide the cached feature values. Extract records them
# in the index; every reader refuses a cache made under other values, except
# for ``features.kinds``: it only decides which kinds are cached, and a
# missing kind is refused on its own.
_CACHE_BLOCKS = ("features", "segmentation")


def _cache_config(cfg: dict) -> dict:
    # The JSON round trip makes it compare equal to the recorded copy.
    return json.loads(json.dumps({block: cfg[block] for block in _CACHE_BLOCKS}))


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict) and value:
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def synthesis_spec_from_config(cfg: dict) -> audio.SynthesisSpec:
    syn = cfg["dataset"]["synthesis"]
    if syn is None:
        raise PipelineError("config has no dataset.synthesis block")
    return audio.spec_from_dict({**syn, "seed": cfg["seed"]})


def cmd_synth(cfg: dict, out_dir) -> Path:
    """Generate the synthetic dataset as WAV files plus a manifest."""
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wavs"
    wav_dir.mkdir(parents=True, exist_ok=True)
    spec = synthesis_spec_from_config(cfg)
    entries = []
    for track in audio.synthesize_dataset(spec):
        rel = f"wavs/{track.track_id}.wav"
        audio.wavio.write_wav(out_dir / rel, track.samples, track.sample_rate)
        entries.append({"track_id": track.track_id, "path": rel, "label": track.label})
    manifest = out_dir / "manifest.json"
    audio.write_manifest(manifest, entries, synthesis=spec)
    save_config(cfg, out_dir / "resolved_config.json")
    return manifest


def _load_tracks(cfg: dict, out_dir: Path) -> list[audio.AudioTrack]:
    if cfg["dataset"]["manifest"] is not None:
        return audio.load_manifest(cfg["dataset"]["manifest"])
    local = Path(out_dir) / "manifest.json"
    if local.exists():
        return audio.load_manifest(local)
    if cfg["dataset"]["synthesis"] is not None:
        return audio.synthesize_dataset(synthesis_spec_from_config(cfg))
    raise PipelineError("no manifest found and no synthesis parameters configured")


def frame_config(cfg: dict, kind: str) -> features.FrameConfig:
    feats = cfg["features"]
    base = {"frame_len_ms": feats["frame_len_ms"],
            "frame_shift_ms": feats["frame_shift_ms"],
            "fft_size": feats["fft_size"]}
    if kind == "cqt" and feats.get("cqt_frame"):
        base.update(feats["cqt_frame"])
    return features.FrameConfig(**base)


def _build_banks(cfg: dict, sample_rate: float) -> dict:
    banks = {}
    kinds = cfg["features"]["kinds"]
    if "mel" in kinds:
        banks["mel"] = features.build_mel_filterbank(
            cfg["features"]["mel"]["n_filters"], frame_config(cfg, "mel"), sample_rate)
    if "cqt" in kinds:
        c = cfg["features"]["cqt"]
        banks["cqt"] = features.build_cqt_kernels(
            frame_config(cfg, "cqt"), sample_rate, f_min=c["f_min"],
            f_max=c["f_max"], bins_per_octave=c["bins_per_octave"])
    return banks


def extract_segment(seg: audio.AudioSegment, kind: str, cfg: dict, banks: dict) -> np.ndarray:
    if kind == "stft":
        return features.stft(seg, frame_config(cfg, "stft")).values
    if kind == "mel":
        return features.mel_spectrogram(seg, frame_config(cfg, "mel"), bank=banks["mel"]).values
    if kind == "cqt":
        return features.cqt_spectrogram(seg, frame_config(cfg, "cqt"), kernels=banks["cqt"]).values
    raise PipelineError(f"unknown feature kind {kind!r}")


def cmd_extract(cfg: dict, out_dir, jobs: int = 1) -> dict:
    """Segment all tracks and cache every configured feature kind."""
    out_dir = Path(out_dir)
    tracks = _load_tracks(cfg, out_dir)
    seg_cfg = cfg["segmentation"]
    segments, skipped = audio.segment_tracks(tracks, seg_cfg["segment_len"], seg_cfg["overlap"])
    if not segments:
        raise PipelineError("no segments produced; tracks shorter than segment_len?")
    sample_rate = segments[0].sample_rate
    kinds = list(cfg["features"]["kinds"])
    banks = _build_banks(cfg, sample_rate)
    feat_dir = out_dir / "features"
    for kind in kinds:
        (feat_dir / kind).mkdir(parents=True, exist_ok=True)

    geometry: dict[str, dict] = {}

    def process(seg: audio.AudioSegment) -> None:
        for kind in kinds:
            values = extract_segment(seg, kind, cfg, banks)
            geometry.setdefault(kind, {"n_frames": values.shape[0], "n_bins": values.shape[1]})
            features.write_feature_cache(
                feat_dir / kind / f"{seg.segment_id}.iclf", values, kind, seg.label)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(process, segments))
    else:
        for seg in segments:
            process(seg)

    labels = sorted({s.label for s in segments})
    index = {
        "sample_rate": sample_rate,
        "kinds": kinds,
        "n_classes": max(labels) + 1,
        "skipped_tracks": skipped,
        "feature_geometry": geometry,
        "config": _cache_config(cfg),
        "segments": [{"id": s.segment_id, "track": s.parent_track_id,
                      "label": s.label, "offset": s.offset} for s in segments],
    }
    (feat_dir / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    save_config(cfg, out_dir / "resolved_config.json")
    return index


SPLITS = ("train", "val", "test")


def _split_index(cfg: dict, index: dict) -> audio.SplitAssignment:
    refs = [SimpleNamespace(parent_track_id=s["track"], label=s["label"], segment_id=s["id"])
            for s in index["segments"]]
    return audio.split_track_disjoint(refs, tuple(cfg["split"]["ratios"]), seed=cfg["seed"])


def _read_index(cfg: dict, out_dir: Path, kinds: tuple[str, ...]) -> dict:
    """The feature cache index, checked against the kinds and config asked for."""
    index_path = out_dir / "features" / "index.json"
    if not index_path.exists():
        raise PipelineError(f"missing feature cache index {index_path}; run `icl extract` first")
    index = json.loads(index_path.read_text())
    for kind in kinds:
        if kind not in index["kinds"]:
            raise PipelineError(f"feature kind {kind!r} was not extracted (have {index['kinds']})")
    if "config" not in index:
        raise PipelineError(f"{index_path} does not record the config it was extracted with; "
                            "re-run `icl extract`")
    cached, wanted = _flatten(index["config"]), _flatten(_cache_config(cfg))
    differ = [key for key in sorted(cached.keys() | wanted.keys())
              if key != "features.kinds" and cached.get(key) != wanted.get(key)]
    if differ:
        detail = ", ".join(f"{key} (cache {cached.get(key)!r}, config {wanted.get(key)!r})"
                           for key in differ)
        raise PipelineError(f"feature cache {index_path} was extracted with a different config: "
                            f"{detail}; re-run `icl extract`")
    return index


def _read_row(out_dir: Path, kind: str, ref) -> np.ndarray:
    """One segment's cached feature matrix, its label checked against the index."""
    _, label, values = features.read_feature_cache(
        out_dir / "features" / kind / f"{ref.segment_id}.iclf")
    if label != ref.label:
        raise PipelineError(f"label mismatch for {ref.segment_id} in {kind} cache")
    return values


def load_dataset(cfg: dict, out_dir, kinds: tuple[str, ...],
                 stats: dict[str, features.FeatureStats] | None = None,
                 ) -> tuple[training.DatasetSplits, dict[str, features.FeatureStats]]:
    """Read cached features, split track-disjointly, normalize with train stats."""
    out_dir = Path(out_dir)
    index = _read_index(cfg, out_dir, kinds)
    assignment = _split_index(cfg, index)

    raw: dict[str, dict[str, np.ndarray]] = {k: {} for k in kinds}
    labels: dict[str, np.ndarray] = {}
    segment_ids: dict[str, list[str]] = {}
    for split in SPLITS:
        refs = getattr(assignment, split)
        segment_ids[split] = [r.segment_id for r in refs]
        labels[split] = np.array([r.label for r in refs], dtype=np.int64)
        for kind in kinds:
            raw[kind][split] = np.stack(
                [_read_row(out_dir, kind, r) for r in refs]).astype(np.float64)

    if stats is None:
        stats = {k: features.compute_feature_stats(list(raw[k]["train"]), k) for k in kinds}
    feats = {k: {split: features.normalize_features(stats[k], raw[k][split])[:, None, :, :]
                 for split in SPLITS} for k in kinds}
    data = training.DatasetSplits(features=feats, labels=labels,
                                  n_classes=index["n_classes"], segment_ids=segment_ids)
    return data, stats


def default_run_name(cfg: dict) -> str:
    tr = cfg["training"]
    if tr["mode"] == "icl":
        return f"icl-a{tr['alpha']:g}-s{cfg['seed']}"
    return f"{tr['mode']}-s{cfg['seed']}"


def encoder_configs(cfg: dict, kinds: tuple[str, ...]) -> dict[str, model.EncoderConfig]:
    enc = cfg["encoder"]
    return {kind: model.EncoderConfig(
        input_kind=kind,
        stem_channels=enc["stem_channels"],
        blocks_per_stage=tuple(enc["blocks_per_stage"]),
        channel_widths=tuple(enc["channel_widths"]),
        embedding_dim=enc["embedding_dim"]) for kind in kinds}


def cmd_train(cfg: dict, out_dir, run_name: str | None = None) -> Path:
    """Train one run and write its artifacts under out/runs/<name>/."""
    out_dir = Path(out_dir)
    tr = cfg["training"]
    settings = training.TrainSettings(
        mode=tr["mode"], epochs=tr["epochs"], batch_size=tr["batch_size"], lr=tr["lr"],
        weight_decay=tr["weight_decay"], alpha=tr["alpha"], seed=cfg["seed"],
        symmetric_icl=tr["symmetric_icl"])
    kinds = settings.feature_kinds
    data, stats = load_dataset(cfg, out_dir, kinds)
    run_dir = out_dir / "runs" / (run_name or default_run_name(cfg))
    run_dir.mkdir(parents=True, exist_ok=True)

    run = training.train(data, encoder_configs(cfg, kinds), settings,
                         log_path=run_dir / "metrics.jsonl")
    save_checkpoint(run_dir / "checkpoint.iclc", run.best_params)
    save_config(cfg, run_dir / "resolved_config.json")
    (run_dir / "stats.json").write_text(json.dumps(
        {k: {"mean": s.mean, "std": s.std} for k, s in stats.items()},
        indent=2, sort_keys=True) + "\n")
    (run_dir / "run.json").write_text(json.dumps({
        "mode": settings.mode, "seed": settings.seed,
        "alpha": settings.alpha if settings.mode == training.MODE_ICL else 0.0,
        "epochs": settings.epochs, "feature_kinds": list(kinds),
        "n_classes": data.n_classes, "best_epoch": run.best_epoch,
        "best_val_accuracy": run.best_val_accuracy,
    }, indent=2, sort_keys=True) + "\n")
    return run_dir


def _load_run(out_dir: Path, run_name: str):
    run_dir = Path(out_dir) / "runs" / run_name
    if not (run_dir / "checkpoint.iclc").exists():
        raise PipelineError(f"run {run_dir} has no checkpoint; train it first")
    cfg = json.loads((run_dir / "resolved_config.json").read_text())
    info = json.loads((run_dir / "run.json").read_text())
    stats_doc = json.loads((run_dir / "stats.json").read_text())
    stats = {k: features.FeatureStats(k, v["mean"], v["std"]) for k, v in stats_doc.items()}
    params = load_checkpoint(run_dir / "checkpoint.iclc")
    return run_dir, cfg, info, stats, params


def cmd_eval(out_dir, run_name: str) -> dict:
    """Test-split metrics for a trained run: accuracy, confusion, per-sample probs."""
    out_dir = Path(out_dir)
    run_dir, cfg, info, stats, params = _load_run(out_dir, run_name)
    kinds = tuple(info["feature_kinds"])
    data, _ = load_dataset(cfg, out_dir, kinds, stats=stats)
    probs = training.predict_proba(params, encoder_configs(cfg, kinds), kinds,
                                   {k: data.features[k]["test"] for k in kinds})
    preds = np.argmax(probs, axis=1)
    y = data.labels["test"]
    acc = metrics.accuracy(preds, y)
    cm = metrics.confusion(preds, y, info["n_classes"])
    reporting.export_confusion(cm, run_dir / "confusion")
    doc = {
        "accuracy": acc,
        "n_test": int(y.size),
        "confusion": cm.counts.tolist(),
        "samples": [{"segment_id": sid, "label": int(lab), "pred": int(pred),
                     "probs": [float(p) for p in row]}
                    for sid, lab, pred, row in zip(data.segment_ids["test"], y, preds, probs)],
    }
    (run_dir / "eval.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def cmd_cam(out_dir, run_name: str, split: str = "test", index: int = 0,
            class_index: int | None = None, segment_id: str | None = None) -> list[Path]:
    """Export per-encoder class activation maps for one cached segment.

    Reads only that segment's cache file per kind, normalized with the
    run's training statistics exactly as ``load_dataset`` would.
    """
    out_dir = Path(out_dir)
    run_dir, cfg, info, stats, params = _load_run(out_dir, run_name)
    kinds = tuple(info["feature_kinds"])
    refs = getattr(_split_index(cfg, _read_index(cfg, out_dir, kinds)), split)
    ids = [r.segment_id for r in refs]
    if segment_id is not None:
        if segment_id not in ids:
            raise PipelineError(f"segment {segment_id!r} not in split {split!r}")
        index = ids.index(segment_id)
    if not 0 <= index < len(ids):
        raise PipelineError(f"sample index {index} out of range for split {split!r} ({len(ids)})")
    sid = ids[index]

    enc_cfgs = encoder_configs(cfg, kinds)
    tensors = {n: training.Tensor(p) for n, p in params.items()}
    batch = {k: features.normalize_features(
        stats[k], _read_row(out_dir, k, refs[index]))[None, None] for k in kinds}
    logits, outputs = training._forward(tensors, enc_cfgs, kinds, batch)
    target = int(np.argmax(logits.data[0])) if class_index is None else class_index

    written: list[Path] = []
    for kind in kinds:
        maps = outputs[kind].feature_maps.data[0]
        cam = model.compute_cam(maps, params["head/w"], target,
                                batch[kind].shape[2:], kind=kind)
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
