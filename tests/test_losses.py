"""Similarity matrix, contrastive loss, combined loss, decision ensemble."""

import math

import numpy as np
import pytest

import icl.autodiff as ad
from icl.autodiff import Tensor
from icl.losses import combined_loss, cosine_similarity_matrix, ensemble_predict, icl_loss

rng = np.random.default_rng(33)


def cos_matrix(e1, e2):
    return cosine_similarity_matrix(Tensor(e1), Tensor(e2)).data


def test_orthonormal_rows_give_identity():
    e = np.eye(4)[:3]
    assert np.allclose(cos_matrix(e, e), np.eye(3), atol=1e-15)


def test_scale_invariance_of_diagonal():
    e = rng.standard_normal((5, 8))
    m = cos_matrix(3.7 * e, e)
    assert np.allclose(np.diag(m), 1.0, atol=1e-12)
    assert np.allclose(m, cos_matrix(e, e), atol=1e-12)


def test_matches_double_loop_oracle():
    e1 = rng.standard_normal((3, 4))
    e2 = rng.standard_normal((3, 4))
    m = cos_matrix(e1, e2)
    for i in range(3):
        for j in range(3):
            expected = (e1[i] @ e2[j]) / (np.linalg.norm(e1[i]) * np.linalg.norm(e2[j]))
            assert abs(m[i, j] - expected) < 1e-12


def test_entries_bounded_by_one():
    e1 = rng.standard_normal((20, 6)) * 100
    e2 = rng.standard_normal((20, 6)) * 1e-3
    m = cos_matrix(e1, e2)
    assert np.all(np.abs(m) <= 1.0 + 1e-9)


def test_shape_mismatch_rejected():
    with pytest.raises(ad.ShapeMismatchError):
        cosine_similarity_matrix(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 5))))


def test_objective_scale_invariance():
    e1 = rng.standard_normal((6, 5))
    e2 = rng.standard_normal((6, 5))
    for c in (1e-3, 7.0, 1e4):
        m_base = cos_matrix(e1, e2)
        m_scaled = cos_matrix(c * e1, e2)
        assert np.all(np.abs(m_scaled - m_base) < 1e-9)
        lb = float(icl_loss(Tensor(m_base)).data)
        ls = float(icl_loss(Tensor(m_scaled)).data)
        assert abs(lb - ls) < 1e-9


# ---------------------------------------------------------------------------
# Contrastive loss


def test_zero_matrix_loss_is_log_n():
    m = Tensor(np.zeros((32, 32)))
    assert abs(float(icl_loss(m).data) - math.log(32)) < 1e-9


def test_scaled_identity_loss_strictly_decreasing():
    values = [float(icl_loss(Tensor(s * np.eye(8))).data)
              for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_non_square_rejected():
    with pytest.raises(ad.ShapeMismatchError, match="square"):
        icl_loss(Tensor(np.zeros((3, 4))))


def test_gradient_through_similarity_matches_finite_differences():
    e1 = rng.standard_normal((3, 4))
    e2 = rng.standard_normal((3, 4))
    err = ad.grad_check(lambda a, b: icl_loss(cosine_similarity_matrix(a, b)), [e1, e2])
    assert err < 1e-4


# ---------------------------------------------------------------------------
# Combined loss


def make_parts(n=6, c=4, d=5):
    logits = Tensor(rng.standard_normal((n, c)), requires_grad=True)
    y = rng.integers(0, c, n)
    m = cosine_similarity_matrix(Tensor(rng.standard_normal((n, d))),
                                 Tensor(rng.standard_normal((n, d))))
    return logits, y, m


def test_alpha_zero_total_is_ce_bitwise():
    logits, y, m = make_parts()
    total, bd = combined_loss(logits, y, m, 0.0)
    ce = ad.softmax_cross_entropy(logits, y)
    assert total.data == ce.data
    assert bd.total == bd.ce and bd.icl == 0.0


def test_doubling_alpha_doubles_contrastive_term_exactly():
    logits, y, m = make_parts()
    _, bd1 = combined_loss(logits, y, m, 0.5)
    _, bd2 = combined_loss(logits, y, m, 1.0)
    assert bd2.alpha * bd2.icl == 2.0 * (bd1.alpha * bd1.icl)
    assert bd1.ce == bd2.ce


def test_total_is_weighted_sum_and_reported():
    logits, y, m = make_parts()
    total, bd = combined_loss(logits, y, m, 0.7)
    assert bd.total == float(total.data)
    assert abs(bd.total - (bd.ce + 0.7 * bd.icl)) < 1e-12


def test_negative_alpha_rejected():
    logits, y, m = make_parts()
    with pytest.raises(ValueError):
        combined_loss(logits, y, m, -0.1)


# ---------------------------------------------------------------------------
# Decision-level ensemble


def test_ensemble_agreement():
    assert ensemble_predict([0.7, 0.3], [0.6, 0.4]) == 0


def test_ensemble_higher_confidence_wins():
    assert ensemble_predict([0.55, 0.45], [0.1, 0.9]) == 1


def test_ensemble_tie_goes_to_first_model():
    assert ensemble_predict([0.6, 0.4], [0.4, 0.6]) == 0


def test_ensemble_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum"):
        ensemble_predict([0.9, 0.3], [0.5, 0.5])


def test_ensemble_grid_agreement_property():
    grid = np.round(np.arange(0.0, 1.0 + 1e-12, 0.05), 10)
    for p in grid:
        for q in grid:
            a = np.array([p, 1.0 - p])
            b = np.array([q, 1.0 - q])
            got = ensemble_predict(a, b)
            ca, cb = int(np.argmax(a)), int(np.argmax(b))
            if ca == cb:
                assert got == ca
            else:
                assert got == (ca if a[ca] >= b[cb] else cb)
