"""Run configuration: defaults, presets, file/flag overlays, validation.

A run is described by one JSON document. Flags may override any leaf
through dotted paths (``training.alpha=2``); a key the defaults do not
have is refused rather than ignored. Every command writes
the fully resolved document next to its outputs so a run can be
reproduced from that file alone. The typed settings built here from the
document check their own fields.
"""

from __future__ import annotations

import copy
import json
import os
from contextlib import contextmanager
from pathlib import Path

from . import audio, features, model, training
from .errors import IclError, is_finite, is_int, read_json


class ConfigError(IclError):
    pass


DEFAULT_CONFIG: dict = {
    "seed": 0,
    "dataset": {
        "manifest": None,      # path to a manifest JSON, or null
        "synthesis": None,     # synthetic-dataset parameters, or null
    },
    "segmentation": {"segment_len": 30.0, "overlap": 15.0},
    "split": {"ratios": [0.7, 0.15, 0.15]},
    "features": {
        "frame_len_ms": 50.0,
        "frame_shift_ms": 25.0,
        "fft_size": None,
        "kinds": ["mel", "cqt"],
        "mel": {"n_filters": 300},
        "cqt": {"bins_per_octave": 36, "f_min": 50.0, "f_max": None},
    },
    "encoder": {
        "stem_channels": 128,
        "blocks_per_stage": [2, 2, 2],
        "channel_widths": [128, 256, 512],
        "embedding_dim": 512,
    },
    "training": {
        "mode": "icl",
        "epochs": 200,
        "batch_size": 32,
        "lr": 5e-4,
        "weight_decay": 1e-5,
        "alpha": 0.5,
    },
}

# Laptop-scale preset: a 4-class synthetic set whose tonal-line cue lives
# below the CQT range (Mel-only) and whose envelope-rate cue lives in the
# high band (CQT-friendly), two line layouts x two rates.
DESK_PRESET: dict = {
    "dataset": {
        "synthesis": {
            "n_classes": 4,
            "line_freqs": [[60.0, 95.0, 130.0], [60.0, 95.0, 130.0],
                           [75.0, 110.0, 145.0], [75.0, 110.0, 145.0]],
            "mod_rates": [4.5, 9.0, 4.5, 9.0],
            "mod_depth": 0.8,
            "carrier_band": [400.0, 900.0],
            "snr_db": 10.0,
            "tracks_per_class": 8,
            "track_duration": 12.0,
            "sample_rate": 2000,
        },
    },
    "segmentation": {"segment_len": 3.0, "overlap": 1.5},
    "features": {
        "fft_size": 256,
        "mel": {"n_filters": 48},
        "cqt": {"bins_per_octave": 18, "f_min": 200.0, "f_max": None},
    },
    "encoder": {
        "stem_channels": 16,
        "blocks_per_stage": [2, 2, 2],
        "channel_widths": [16, 32, 64],
        "embedding_dim": 64,
    },
    "training": {"epochs": 20, "batch_size": 16},
}

PRESETS = {"desk": DESK_PRESET}


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def set_dotted(cfg: dict, path: str, raw_value: str) -> None:
    """Set a leaf by dotted path; values parse as JSON, falling back to text."""
    keys = path.split(".")
    node = cfg
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            node[key] = {}
        node = node[key]
    try:
        node[keys[-1]] = json.loads(raw_value)
    except json.JSONDecodeError:
        node[keys[-1]] = raw_value


def resolve_config(config_path=None, preset: str | None = None,
                   overrides: list[str] | None = None, env=None) -> dict:
    """defaults -> preset -> config file -> --set overrides -> ICL_SEED."""
    env = os.environ if env is None else env
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        cfg = _deep_merge(cfg, PRESETS[preset])
    if config_path is not None:
        path = Path(config_path)
        doc = read_json(path)
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        cfg = _deep_merge(cfg, doc)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key.path=value, got {item!r}")
        key, _, value = item.partition("=")
        set_dotted(cfg, key.strip(), value.strip())
    if "ICL_SEED" in env:
        try:
            cfg["seed"] = int(env["ICL_SEED"])
        except ValueError as exc:
            raise ConfigError(f"ICL_SEED must be an integer, got {env['ICL_SEED']!r}") from exc
    return validate_config(cfg)


@contextmanager
def _block(name: str):
    """Report an error in config block ``name`` as a ConfigError on it. Typed
    settings start each message with the field name: block + message is a dotted path."""
    try:
        yield
    except ConfigError:
        raise
    except IclError as exc:
        raise ConfigError(f"{name}.{exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: malformed value: {exc!r}") from exc


def train_settings(cfg: dict) -> training.TrainSettings:
    with _block("training"):
        tr = cfg["training"]
        return training.TrainSettings(
            mode=tr["mode"], epochs=tr["epochs"], batch_size=tr["batch_size"], lr=tr["lr"],
            weight_decay=tr["weight_decay"], alpha=tr["alpha"], seed=cfg["seed"])


def encoder_configs(cfg: dict, kinds: tuple[str, ...]) -> dict[str, model.EncoderConfig]:
    with _block("encoder"):
        enc = cfg["encoder"]
        return {kind: model.EncoderConfig(
            input_kind=kind,
            stem_channels=enc["stem_channels"],
            blocks_per_stage=tuple(enc["blocks_per_stage"]),
            channel_widths=tuple(enc["channel_widths"]),
            embedding_dim=enc["embedding_dim"]) for kind in kinds}


def frame_config(cfg: dict) -> features.FrameConfig:
    with _block("features"):
        feats = cfg["features"]
        return features.FrameConfig(frame_len_ms=feats["frame_len_ms"],
                                    frame_shift_ms=feats["frame_shift_ms"],
                                    fft_size=feats["fft_size"])


def synthesis_spec(cfg: dict) -> audio.SynthesisSpec:
    with _block("dataset.synthesis"):
        syn = cfg["dataset"]["synthesis"]
        _check(isinstance(syn, dict), "dataset.synthesis", f"must be an object, got {syn!r}")
        for key in syn:  # the spec takes its seed from the top-level one
            _check(key != "seed" and key in audio.SynthesisSpec.__dataclass_fields__,
                   f"dataset.synthesis.{key}", "unknown config key")
        return audio.SynthesisSpec(**syn, seed=cfg["seed"])


def _check(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _check_known(doc: dict, known: dict, prefix: str = "") -> None:
    """Refuse any key the defaults do not have; a key nobody reads is a typo."""
    for key, value in doc.items():
        _check(key in known, f"{prefix}{key}", "unknown config key")
        if isinstance(value, dict) and isinstance(known[key], dict):
            _check_known(value, known[key], f"{prefix}{key}.")


def validate_config(cfg: dict) -> dict:
    """Build the typed settings, then check the facts only this document holds; returns cfg."""
    _check_known(cfg, DEFAULT_CONFIG)
    # A null seed would make the split draw from fresh entropy, unseen.
    _check(is_int(cfg["seed"]) and cfg["seed"] >= 0, "seed",
           f"must be an integer >= 0, got {cfg['seed']!r}")
    settings = train_settings(cfg)
    encoder_configs(cfg, ("mel",))
    frame_config(cfg)
    # Segmentation and the split check their own parameters; on no input
    # they do nothing else.
    with _block("segmentation"):
        audio.segment_tracks([], cfg["segmentation"]["segment_len"], cfg["segmentation"]["overlap"])
    with _block("split"):
        audio.split_track_disjoint([], tuple(cfg["split"]["ratios"]))

    with _block("features"):
        feats = cfg["features"]
        _check(all(k in features.KINDS for k in feats["kinds"]), "features.kinds",
               f"entries must be stft|mel|cqt, got {feats['kinds']}")
        for kind in settings.feature_kinds:
            _check(kind in feats["kinds"], "features.kinds",
                   f"mode {settings.mode!r} needs {kind!r} in extracted kinds {feats['kinds']}")
        for block, key in (("mel", "n_filters"), ("cqt", "bins_per_octave")):
            value = feats[block][key]
            _check(is_int(value), f"features.{block}.{key}", f"must be an integer, got {value!r}")
            _check(value >= 1, f"features.{block}.{key}", "must be >= 1")
        f_min, f_max = feats["cqt"]["f_min"], feats["cqt"]["f_max"]
        _check(is_finite(f_min), "features.cqt.f_min", f"must be a finite number, got {f_min!r}")
        _check(f_max is None or is_finite(f_max), "features.cqt.f_max",
               f"must be a finite number or null, got {f_max!r}")

    with _block("dataset"):
        ds = cfg["dataset"]
        _check(ds["manifest"] is not None or ds["synthesis"] is not None, "dataset",
               "need either a manifest path or synthesis parameters")
        _check(ds["manifest"] is None or isinstance(ds["manifest"], str), "dataset.manifest",
               f"must be a path or null, got {ds['manifest']!r}")
    if cfg["dataset"]["synthesis"] is not None:
        synthesis_spec(cfg)
    return cfg
