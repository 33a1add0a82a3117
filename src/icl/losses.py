"""Contrastive objective over paired embeddings, and the decision ensemble.

The contrastive term compares the batch of embeddings from the first
encoder against the batch from the second: the cosine similarity matrix
between the two (rows from encoder 1, columns from encoder 2) should
look like the identity, i.e. the two views of the same sample agree and
views of different samples do not. That target is scored with row-wise
softmax cross-entropy against the diagonal. The classification and
contrastive terms combine as total = ce + alpha * contrastive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    icl: float
    alpha: float
    total: float


def cosine_similarity_matrix(e1: Tensor, e2: Tensor) -> Tensor:
    """M[i,j] = <e1_i, e2_j> / (|e1_i| |e2_j|), differentiable end-to-end."""
    if e1.data.ndim != 2 or e2.data.ndim != 2 or e1.data.shape[1] != e2.data.shape[1]:
        raise ad.ShapeMismatchError(
            f"cosine_similarity_matrix: shapes {e1.data.shape} vs {e2.data.shape}")
    return ad.matmul(ad.l2_normalize(e1), ad.l2_normalize(e2), transpose_b=True)


def icl_loss(m: Tensor) -> Tensor:
    """Cross-entropy between a similarity matrix and the identity target:
    each row i should put its softmax mass on column i."""
    n, cols = m.data.shape if m.data.ndim == 2 else (0, -1)
    if n != cols or n == 0:
        raise ad.ShapeMismatchError(f"icl_loss requires a square matrix, got {m.data.shape}")
    return ad.softmax_cross_entropy(m, np.arange(n))


def combined_loss(logits: Tensor, labels: np.ndarray, m: Tensor | None,
                  alpha: float) -> tuple[Tensor, LossBreakdown]:
    """total = CE(logits, labels) + alpha * CE(M, I); returns (node, breakdown).

    With alpha = 0 the contrastive branch is not entered at all, so the
    total is bit-identical to the plain classification loss.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    ce = ad.softmax_cross_entropy(logits, labels)
    if alpha == 0 or m is None:
        return ce, LossBreakdown(float(ce.data), 0.0, float(alpha), float(ce.data))
    icl = icl_loss(m)
    total = ad.weighted_sum(ce, 1.0, icl, alpha)
    # From the float terms, so the record's total is exactly ce + alpha*icl in
    # float32 training too; in float64 it equals total.data.
    ce_v, icl_v = float(ce.data), float(icl.data)
    return total, LossBreakdown(ce_v, icl_v, float(alpha), ce_v + alpha * icl_v)


def ensemble_predict(probs_a: np.ndarray, probs_b: np.ndarray) -> int:
    """Decision-level ensemble of two softmax outputs.

    Agreeing argmaxes win outright; on disagreement the more confident
    model (larger max probability) decides; exact ties go to model A.
    """
    pa = np.asarray(probs_a, dtype=np.float64)
    pb = np.asarray(probs_b, dtype=np.float64)
    if pa.shape != pb.shape or pa.ndim != 1:
        raise ValueError(f"probability vectors must match, got {pa.shape} vs {pb.shape}")
    for name, p in (("A", pa), ("B", pb)):
        if abs(p.sum() - 1.0) > 1e-6:
            raise ValueError(f"model {name} probabilities sum to {p.sum()!r}, not 1")
    ca, cb = int(np.argmax(pa)), int(np.argmax(pb))
    if ca == cb:
        return ca
    return ca if pa[ca] >= pb[cb] else cb
