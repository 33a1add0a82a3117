"""Accuracy and confusion-matrix computation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IclError


class MetricsError(IclError):
    pass


@dataclass
class ConfusionMatrix:
    """Integer counts, rows = true labels, columns = predicted labels."""

    counts: np.ndarray

    def row_normalized(self) -> np.ndarray:
        sums = self.counts.sum(axis=1, keepdims=True).astype(np.float64)
        sums[sums == 0] = 1.0
        return self.counts / sums


def accuracy(predictions, labels) -> float:
    preds = np.asarray(predictions)
    labs = np.asarray(labels)
    if preds.size == 0 or preds.shape != labs.shape:
        raise MetricsError(f"predictions {preds.shape} vs labels {labs.shape}, need equal nonempty")
    return float(np.mean(preds == labs))


def confusion(predictions, labels, n_classes: int) -> ConfusionMatrix:
    preds = np.asarray(predictions, dtype=np.int64)
    labs = np.asarray(labels, dtype=np.int64)
    if preds.size == 0 or preds.shape != labs.shape:
        raise MetricsError(f"predictions {preds.shape} vs labels {labs.shape}, need equal nonempty")
    if labs.min() < 0 or labs.max() >= n_classes or preds.min() < 0 or preds.max() >= n_classes:
        raise MetricsError(f"labels/predictions outside [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (labs, preds), 1)
    return ConfusionMatrix(counts=counts)
