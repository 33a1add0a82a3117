"""Accuracy, confusion matrices, and deterministic artifact export."""

import numpy as np
import pytest

from icl.metrics import ConfusionMatrix, MetricsError, accuracy, confusion
from icl.reporting import ReportError, write_matrix_csv, write_pgm, export_confusion

rng = np.random.default_rng(8)


def test_accuracy_all_correct():
    assert accuracy([1, 2, 0], [1, 2, 0]) == 1.0


def test_accuracy_three_quarters():
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75


def test_accuracy_rejects_empty_and_mismatched():
    with pytest.raises(MetricsError):
        accuracy([], [])
    with pytest.raises(MetricsError):
        accuracy([0, 1], [0])


def test_confusion_perfect_classifier_is_diagonal():
    labels = rng.integers(0, 4, 50)
    cm = confusion(labels, labels, 4)
    assert np.array_equal(cm.counts, np.diag(np.bincount(labels, minlength=4)))


def test_confusion_constant_classifier_single_column():
    labels = rng.integers(0, 3, 30)
    cm = confusion(np.zeros(30, dtype=int), labels, 3)
    assert np.all(cm.counts[:, 1:] == 0)
    assert cm.counts[:, 0].sum() == 30


def test_confusion_row_sums_are_class_counts():
    labels = rng.integers(0, 5, 200)
    preds = rng.integers(0, 5, 200)
    cm = confusion(preds, labels, 5)
    assert np.array_equal(cm.counts.sum(axis=1), np.bincount(labels, minlength=5))
    assert cm.counts.sum() == 200


def test_trace_over_total_equals_accuracy_exactly():
    for trial in range(10):
        labels = rng.integers(0, 3, 60)
        preds = rng.integers(0, 3, 60)
        cm = confusion(preds, labels, 3)
        assert np.trace(cm.counts) / cm.counts.sum() == accuracy(preds, labels)


def test_confusion_rejects_out_of_range():
    with pytest.raises(MetricsError, match="outside"):
        confusion([0, 3], [0, 1], 3)


def test_write_pgm_format_and_determinism(tmp_path):
    values = rng.uniform(0, 1, (5, 7))
    write_pgm(tmp_path / "a.pgm", values)
    write_pgm(tmp_path / "b.pgm", values)
    blob = (tmp_path / "a.pgm").read_bytes()
    assert blob == (tmp_path / "b.pgm").read_bytes()
    assert blob.startswith(b"P5\n7 5\n255\n")
    assert len(blob) == len(b"P5\n7 5\n255\n") + 35


def test_write_pgm_inverted_scale(tmp_path):
    write_pgm(tmp_path / "inv.pgm", np.array([[0.0, 1.0]]), invert=True)
    payload = (tmp_path / "inv.pgm").read_bytes()[-2:]
    assert payload == bytes([255, 0])  # low -> light, high -> dark


def test_write_pgm_rejects_bad_input(tmp_path):
    with pytest.raises(ReportError):
        write_pgm(tmp_path / "x.pgm", np.ones((2, 2)) * 3.0)
    with pytest.raises(ReportError):
        write_pgm(tmp_path / "x.pgm", np.ones(5))


def test_export_confusion_files(tmp_path):
    cm = ConfusionMatrix(np.array([[5, 1], [0, 4]]))
    paths = export_confusion(cm, tmp_path / "confusion")
    csv_text = (tmp_path / "confusion.csv").read_text()
    assert csv_text.splitlines() == ["5,1", "0,4"]
    assert (tmp_path / "confusion.pgm").exists()
    assert all(p.exists() for p in paths)


def test_matrix_csv_roundtrip(tmp_path):
    m = rng.standard_normal((4, 3))
    write_matrix_csv(tmp_path / "m.csv", m, fmt="%.17g")
    back = np.loadtxt(tmp_path / "m.csv", delimiter=",")
    assert np.allclose(back, m, atol=0, rtol=0)
