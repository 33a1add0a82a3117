"""Training loops for the contrastive two-encoder model and baselines.

One code path serves both: the contrastive mode runs two encoders (one
per feature kind), sums their embeddings for the shared linear head,
and adds the similarity-matrix term with weight alpha; baseline modes
run a single encoder with plain cross-entropy (alpha forced to 0).

A contrastive training step runs the two encoders concurrently, the Mel
encoder on the calling thread and the CQT encoder on one helper thread,
forward and backward; the head, the loss and AdamW run on the calling
thread. The encoders share no tensor, and each one's graph sums the same
terms in the same order as one backward through the whole model, so
identical configurations produce bit-identical logs and checkpoints.

Inference (validation in every epoch, and ``eval``) runs the encoders the
same way: each encodes the whole split in near-equal chunks of at most
``PREDICT_BATCH`` rows, and the calling thread sums the embeddings and
runs the head once. A chunk has one row only when the split has one, so
the logits equal one pass over the whole split. A baseline mode has one
encoder and starts no thread. ``cam`` explains one segment: it runs
``_forward`` on the calling thread, as a one-row chunk runs slower on
two threads.

``train`` writes one JSON line per epoch to its log (``metrics.jsonl`` in
a run); that log is the one per-epoch record. ``TrainRun`` holds only the
kept parameters, their epoch and their validation accuracy.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import autodiff as ad
from . import losses, model
from .autodiff import Tensor
from .errors import IclError, is_finite, is_int
from .optim import AdamW, NonFiniteGradientError

MODE_ICL = "icl"
BASELINE_MODES = ("mel", "cqt", "stft")
PREDICT_BATCH = 8


class TrainingError(IclError):
    pass


@dataclass(frozen=True)
class TrainSettings:
    mode: str
    epochs: int
    batch_size: int
    lr: float
    weight_decay: float
    alpha: float
    seed: int

    def __post_init__(self):
        if self.mode not in (MODE_ICL,) + BASELINE_MODES:
            raise TrainingError(f"mode must be icl|mel|cqt|stft, got {self.mode!r}")
        for name in ("epochs", "batch_size"):
            if not is_int(getattr(self, name)):
                raise TrainingError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("lr", "weight_decay", "alpha"):
            if not is_finite(getattr(self, name)):
                raise TrainingError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        least = 2 if self.mode == MODE_ICL else 1
        if self.batch_size < least:
            raise TrainingError(f"batch_size must be >= {least} in {self.mode} mode, "
                                f"got {self.batch_size}")
        if self.alpha < 0:
            raise TrainingError(f"alpha must be nonnegative, got {self.alpha}")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lr > 0:
            raise TrainingError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise TrainingError(f"weight_decay must be >= 0, got {self.weight_decay}")

    @property
    def feature_kinds(self) -> tuple[str, ...]:
        return ("mel", "cqt") if self.mode == MODE_ICL else (self.mode,)

    @property
    def loss_alpha(self) -> float:
        """The weight of the contrastive term: alpha in icl mode, 0 in a baseline mode."""
        return self.alpha if self.mode == MODE_ICL else 0.0


@dataclass
class TrainRun:
    best_epoch: int
    best_val_accuracy: float
    best_params: dict[str, np.ndarray]


@dataclass
class DatasetSplits:
    """Normalized feature arrays per kind and split, plus labels."""

    features: dict[str, dict[str, np.ndarray]]  # kind -> split -> [n, 1, H, W]
    labels: dict[str, np.ndarray]               # split -> [n]
    n_classes: int

    def split_size(self, split: str) -> int:
        return int(self.labels[split].shape[0])


def init_model_params(kinds: tuple[str, ...], enc_cfgs: dict[str, model.EncoderConfig],
                      n_classes: int, seed: int) -> dict[str, Tensor]:
    dims = {enc_cfgs[k].embedding_dim for k in kinds}
    if len(dims) != 1:
        raise TrainingError(f"encoder embedding dims differ across kinds: {dims}")
    params: dict[str, Tensor] = {}
    for kind in kinds:
        params.update(model.init_encoder_params(enc_cfgs[kind], seed))
    params.update(model.init_head_params(n_classes, dims.pop(), seed))
    return params


def _encoder_params(params: dict[str, Tensor], kind: str) -> dict[str, Tensor]:
    return {n: t for n, t in params.items() if n.startswith(f"{kind}/")}


def _forward(params: dict[str, Tensor], enc_cfgs, kinds, batches: dict[str, np.ndarray]):
    """Run every encoder, sum the embeddings, classify."""
    outputs = {}
    embedding = None
    for kind in kinds:
        out = model.encoder_forward(_encoder_params(params, kind), enc_cfgs[kind],
                                    Tensor(batches[kind]))
        outputs[kind] = out
        embedding = out.embedding if embedding is None else ad.add(embedding, out.embedding)
    logits = model.classify(embedding, params)
    return logits, outputs


def _concurrently(calls: list) -> list:
    """The results of ``calls``: the first runs here, each other one on a
    helper thread. Leaving the pool waits for every helper, so every call
    has finished before this returns or raises the exception of the first
    call in ``calls`` that failed: no thread is still writing ``.grad``
    after a failed step."""
    with ThreadPoolExecutor(max_workers=len(calls)) as pool:
        helpers = [pool.submit(call) for call in calls[1:]]
        first = calls[0]()
    return [first] + [h.result() for h in helpers]


def _backward_from(out: Tensor, grad: np.ndarray) -> None:
    """Backward through ``out``'s graph with ``grad`` as its gradient, exactly:
    d(sum(out * grad))/d(out) is ``1 * grad``."""
    ad.backward(ad.sum_all(ad.mul(out, Tensor(grad))))


def _train_step(params: dict[str, Tensor], enc_cfgs, kinds,
                batches: dict[str, np.ndarray], labels: np.ndarray,
                alpha: float) -> losses.LossBreakdown:
    """Forward and backward of one batch; the parameters' ``.grad`` equal one
    backward through ``_forward``. The encoders run concurrently; the head and
    the loss run on leaf copies of the embeddings, whose gradients then seed
    each encoder's backward. The graph is freed when this returns."""
    embs = [out.embedding for out in _concurrently([
        partial(model.encoder_forward, _encoder_params(params, kind), enc_cfgs[kind],
                Tensor(batches[kind])) for kind in kinds])]
    leaves = [Tensor(e.data, requires_grad=True) for e in embs]
    embedding = leaves[0]
    for leaf in leaves[1:]:
        embedding = ad.add(embedding, leaf)
    m = losses.cosine_similarity_matrix(*leaves) if alpha > 0 else None
    total, breakdown = losses.combined_loss(model.classify(embedding, params), labels, m, alpha)
    ad.backward(total)
    _concurrently([partial(_backward_from, e, leaf.grad) for e, leaf in zip(embs, leaves)])
    return breakdown


def _embed_in_chunks(params: dict[str, Tensor], cfg: model.EncoderConfig,
                     x: np.ndarray) -> np.ndarray:
    """One encoder's embeddings [n, D] of x, in ceil(n / PREDICT_BATCH)
    near-equal chunks: none longer than PREDICT_BATCH, none of one row
    unless n == 1."""
    chunks = np.array_split(x, -(-x.shape[0] // PREDICT_BATCH))
    return np.concatenate([model.encoder_forward(params, cfg, Tensor(c)).embedding.data
                           for c in chunks])


def predict_logits(params, enc_cfgs, kinds, features: dict[str, np.ndarray]) -> np.ndarray:
    """Forward-only logits for a whole split; accepts Tensor or ndarray params.
    The encoders run concurrently, each over the split in chunks (see
    ``_embed_in_chunks``); the head runs once on the summed embeddings.

    Parameters are rewrapped as float64 in fresh Tensors that need no
    gradient, so the forward pass builds no graph, even on live float32
    training parameters, and matches a pass on the saved checkpoint.
    """
    tensors = {n: Tensor(p.data if isinstance(p, Tensor) else p, dtype=np.float64)
               for n, p in params.items()}
    embs = _concurrently([partial(_embed_in_chunks, _encoder_params(tensors, kind),
                                  enc_cfgs[kind], features[kind]) for kind in kinds])
    return model.classify(Tensor(reduce(np.add, embs)), tensors).data


def predict_proba(params, enc_cfgs, kinds, features) -> np.ndarray:
    return ad.softmax(predict_logits(params, enc_cfgs, kinds, features))


def train(data: DatasetSplits, enc_cfgs: dict[str, model.EncoderConfig],
          settings: TrainSettings, log_path) -> TrainRun:
    """Seeded training with per-epoch validation and best-checkpoint keeping.

    Writes one JSON line per epoch (epoch, ce, icl, total, val_accuracy)
    to log_path. The kept checkpoint is the latest epoch attaining the
    maximum validation accuracy.

    Steps run in float32: the float64 initial weights and the train split
    are cast once. Validation runs in float64 on a lossless cast of the
    weights, as ``eval`` does on the checkpoint.
    """
    kinds = settings.feature_kinds
    for kind in kinds:
        if kind not in data.features:
            raise TrainingError(f"dataset has no {kind!r} features for mode {settings.mode!r}")
    params = init_model_params(kinds, enc_cfgs, data.n_classes, settings.seed)
    for p in params.values():
        p.data = p.data.astype(np.float32)
    x_train = {k: data.features[k]["train"].astype(np.float32) for k in kinds}
    opt = AdamW(params, lr=settings.lr, weight_decay=settings.weight_decay)
    rng = np.random.default_rng([settings.seed, 7151])

    n_train = data.split_size("train")
    y_train = data.labels["train"]
    alpha = settings.loss_alpha

    best_acc = -1.0
    best_epoch = -1
    best_params: dict[str, np.ndarray] = {}
    with open(log_path, "w") as log_file:
        for epoch in range(1, settings.epochs + 1):
            order = rng.permutation(n_train)
            sums = {"ce": 0.0, "icl": 0.0, "total": 0.0}
            for b_idx, start in enumerate(range(0, n_train, settings.batch_size)):
                idx = order[start: start + settings.batch_size]
                batches = {k: x_train[k][idx] for k in kinds}
                yb = y_train[idx]
                try:
                    breakdown = _train_step(params, enc_cfgs, kinds, batches, yb, alpha)
                    opt.step()
                    opt.zero_grad()
                except (ad.NonFiniteError, NonFiniteGradientError) as exc:
                    raise TrainingError(
                        f"non-finite loss at epoch {epoch}, batch {b_idx}: {exc}") from exc
                w = idx.size
                sums["ce"] += breakdown.ce * w
                sums["icl"] += breakdown.icl * w
                sums["total"] += breakdown.total * w

            val_logits = predict_logits(params, enc_cfgs, kinds, {
                k: data.features[k]["val"] for k in kinds})
            val_acc = float(np.mean(np.argmax(val_logits, axis=1) == data.labels["val"]))
            means = {name: total / n_train for name, total in sums.items()}
            log_file.write(json.dumps({"epoch": epoch, **means, "val_accuracy": val_acc},
                                      sort_keys=True) + "\n")
            if val_acc >= best_acc:
                best_acc = val_acc
                best_epoch = epoch
                best_params = {n: p.data.astype(np.float64) for n, p in params.items()}

    return TrainRun(best_epoch=best_epoch, best_val_accuracy=best_acc, best_params=best_params)
