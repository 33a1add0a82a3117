"""Training loops for the contrastive two-encoder model and baselines.

One code path serves both: the contrastive mode runs two encoders (one
per feature kind), sums their embeddings for the shared linear head,
and adds the similarity-matrix term with weight alpha; baseline modes
run a single encoder with plain cross-entropy (alpha forced to 0).
Everything is seeded and single-threaded per step, so identical
configurations produce bit-identical histories and checkpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import losses, model
from .autodiff import Tensor
from .optim import AdamW, NonFiniteGradientError

MODE_ICL = "icl"
BASELINE_MODES = ("mel", "cqt", "stft")


class TrainingError(Exception):
    pass


@dataclass(frozen=True)
class TrainSettings:
    mode: str = MODE_ICL
    epochs: int = 200
    batch_size: int = 32
    lr: float = 5e-4
    weight_decay: float = 1e-5
    alpha: float = 0.5
    seed: int = 0
    symmetric_icl: bool = False

    def __post_init__(self):
        if self.mode not in (MODE_ICL,) + BASELINE_MODES:
            raise TrainingError(f"unknown training mode {self.mode!r}")
        if self.mode == MODE_ICL and self.batch_size < 2:
            raise TrainingError("contrastive mode needs batch_size >= 2")
        if self.alpha < 0:
            raise TrainingError(f"alpha must be nonnegative, got {self.alpha}")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")

    @property
    def feature_kinds(self) -> tuple[str, ...]:
        return ("mel", "cqt") if self.mode == MODE_ICL else (self.mode,)


@dataclass
class EpochRecord:
    epoch: int
    ce: float
    icl: float
    total: float
    val_accuracy: float


@dataclass
class TrainRun:
    settings: TrainSettings
    history: list[EpochRecord]
    best_epoch: int
    best_val_accuracy: float
    best_params: dict[str, np.ndarray]
    batch_losses: list[dict] = field(default_factory=list, repr=False)


@dataclass
class DatasetSplits:
    """Normalized feature arrays per kind and split, plus labels."""

    features: dict[str, dict[str, np.ndarray]]  # kind -> split -> [n, 1, H, W]
    labels: dict[str, np.ndarray]               # split -> [n]
    n_classes: int
    segment_ids: dict[str, list[str]] = field(default_factory=dict)

    def split_size(self, split: str) -> int:
        return int(self.labels[split].shape[0])


def init_model_params(kinds: tuple[str, ...], enc_cfgs: dict[str, model.EncoderConfig],
                      n_classes: int, seed: int) -> dict[str, Tensor]:
    dims = {enc_cfgs[k].embedding_dim for k in kinds}
    if len(dims) != 1:
        raise TrainingError(f"encoder embedding dims differ across kinds: {dims}")
    params: dict[str, Tensor] = {}
    for kind in kinds:
        params.update(model.init_encoder_params(enc_cfgs[kind], seed, prefix=kind))
    params.update(model.init_head_params(n_classes, dims.pop(), seed))
    return params


def _forward(params: dict[str, Tensor], enc_cfgs, kinds, batches: dict[str, np.ndarray]):
    """Run every encoder, sum the embeddings, classify."""
    outputs = {}
    embedding = None
    for kind in kinds:
        out = model.encoder_forward(
            {n: t for n, t in params.items() if n.startswith(f"{kind}/")},
            enc_cfgs[kind], Tensor(batches[kind]))
        outputs[kind] = out
        embedding = out.embedding if embedding is None else ad.add(embedding, out.embedding)
    logits = model.classify(embedding, params)
    return logits, outputs


def predict_logits(params, enc_cfgs, kinds, features: dict[str, np.ndarray],
                   batch_size: int = 64) -> np.ndarray:
    """Forward-only logits for a whole split; accepts Tensor or ndarray params.

    Parameters are rewrapped in fresh Tensors that need no gradient, so
    the forward pass builds no graph, even on live training parameters.
    """
    tensors = {n: Tensor(p.data if isinstance(p, Tensor) else p) for n, p in params.items()}
    n = next(iter(features.values())).shape[0]
    chunks = []
    for start in range(0, n, batch_size):
        batch = {k: v[start: start + batch_size] for k, v in features.items()}
        logits, _ = _forward(tensors, enc_cfgs, kinds, batch)
        chunks.append(logits.data)
    return np.concatenate(chunks, axis=0)


def predict_proba(params, enc_cfgs, kinds, features, batch_size: int = 64) -> np.ndarray:
    return ad.softmax(predict_logits(params, enc_cfgs, kinds, features, batch_size))


def train(data: DatasetSplits, enc_cfgs: dict[str, model.EncoderConfig],
          settings: TrainSettings, log_path=None, record_batches: bool = False) -> TrainRun:
    """Seeded training with per-epoch validation and best-checkpoint keeping.

    Emits one JSON line per epoch (epoch, ce, icl, total, val_accuracy)
    when log_path is given. The kept checkpoint is the latest epoch
    attaining the maximum validation accuracy.
    """
    kinds = settings.feature_kinds
    for kind in kinds:
        if kind not in data.features:
            raise TrainingError(f"dataset has no {kind!r} features for mode {settings.mode!r}")
    params = init_model_params(kinds, enc_cfgs, data.n_classes, settings.seed)
    opt = AdamW(params, lr=settings.lr, weight_decay=settings.weight_decay)
    rng = np.random.default_rng([settings.seed, 7151])

    n_train = data.split_size("train")
    y_train = data.labels["train"]
    use_contrastive = settings.mode == MODE_ICL and settings.alpha > 0

    history: list[EpochRecord] = []
    batch_records: list[dict] = []
    best_acc = -1.0
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    log_file = open(log_path, "w") if log_path is not None else None
    try:
        for epoch in range(1, settings.epochs + 1):
            order = rng.permutation(n_train)
            sums = {"ce": 0.0, "icl": 0.0, "total": 0.0}
            for b_idx, start in enumerate(range(0, n_train, settings.batch_size)):
                idx = order[start: start + settings.batch_size]
                batches = {k: data.features[k]["train"][idx] for k in kinds}
                yb = y_train[idx]
                try:
                    logits, outputs = _forward(params, enc_cfgs, kinds, batches)
                    m = None
                    if use_contrastive:
                        m = losses.cosine_similarity_matrix(
                            outputs[kinds[0]].embedding, outputs[kinds[1]].embedding)
                    total, breakdown = losses.combined_loss(
                        logits, yb, m, settings.alpha if use_contrastive else 0.0,
                        symmetric=settings.symmetric_icl)
                    ad.backward(total)
                    opt.step()
                    opt.zero_grad()
                except (ad.NonFiniteError, NonFiniteGradientError) as exc:
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, batch {b_idx}: {exc}") from exc
                w = idx.size
                sums["ce"] += breakdown.ce * w
                sums["icl"] += breakdown.icl * w
                sums["total"] += breakdown.total * w
                if record_batches:
                    batch_records.append({"epoch": epoch, "batch": b_idx,
                                          "ce": breakdown.ce, "icl": breakdown.icl,
                                          "total": breakdown.total})

            val_logits = predict_logits(params, enc_cfgs, kinds, {
                k: data.features[k]["val"] for k in kinds})
            val_acc = float(np.mean(np.argmax(val_logits, axis=1) == data.labels["val"]))
            record = EpochRecord(epoch, sums["ce"] / n_train, sums["icl"] / n_train,
                                 sums["total"] / n_train, val_acc)
            history.append(record)
            if log_file is not None:
                log_file.write(json.dumps({
                    "epoch": record.epoch, "ce": record.ce, "icl": record.icl,
                    "total": record.total, "val_accuracy": record.val_accuracy,
                }, sort_keys=True) + "\n")
            if val_acc >= best_acc:
                best_acc = val_acc
                best_epoch = epoch
                best_params = {n: p.data.copy() for n, p in params.items()}
    finally:
        if log_file is not None:
            log_file.close()

    return TrainRun(settings=settings, history=history, best_epoch=best_epoch,
                    best_val_accuracy=best_acc, best_params=best_params,
                    batch_losses=batch_records)
