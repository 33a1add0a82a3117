"""Encoders, classifier head, and class activation mapping."""

from dataclasses import replace

import numpy as np
import pytest

import icl.autodiff as ad
from icl import model
from icl.autodiff import Tensor
from icl.model import (EncoderConfig, ModelError, bilinear_resize,
                       classify, compute_cam, encoder_forward,
                       init_encoder_params, init_head_params)
from icl.optim import AdamW

rng = np.random.default_rng(21)

TINY = EncoderConfig("mel", stem_channels=2, blocks_per_stage=(1, 1),
                     channel_widths=(2, 3), embedding_dim=3)


def tiny_params(seed=0):
    return init_encoder_params(TINY, seed)


def test_config_requires_embedding_to_match_last_width():
    with pytest.raises(ModelError, match="embedding_dim"):
        EncoderConfig("mel", 2, (1, 1), (2, 3), embedding_dim=4)
    with pytest.raises(ModelError, match="equal length"):
        EncoderConfig("mel", 2, (1,), (2, 3), embedding_dim=3)


def test_zero_input_zero_bias_gives_zero_embedding():
    params = tiny_params()
    out = encoder_forward(params, TINY, Tensor(np.zeros((2, 1, 12, 10))))
    assert np.all(out.embedding.data == 0.0)
    assert np.all(out.feature_maps.data == 0.0)


def test_embedding_is_exact_spatial_mean_of_maps():
    params = tiny_params()
    out = encoder_forward(params, TINY, Tensor(rng.standard_normal((3, 1, 14, 9))))
    assert np.array_equal(out.embedding.data, out.feature_maps.data.mean(axis=(2, 3)))


def test_batched_embedding_shape():
    params = tiny_params()
    out = encoder_forward(params, TINY, Tensor(rng.standard_normal((5, 1, 16, 12))))
    assert out.embedding.data.shape == (5, TINY.embedding_dim)


def test_input_below_minimum_rejected():
    params = tiny_params()
    with pytest.raises(ModelError, match="minimum"):
        encoder_forward(params, TINY, Tensor(np.zeros((1, 1, 4, 20))))


def test_two_encoders_share_no_parameters():
    a = init_encoder_params(TINY, 0)
    b = init_encoder_params(replace(TINY, input_kind="cqt"), 0)
    assert not set(a) & set(b)
    # and different input kinds draw different initializations
    assert not np.array_equal(a["mel/stem/w"].data, b["cqt/stem/w"].data)


def test_classify_affine_identities():
    head = init_head_params(4, 3, seed=1)
    w, b = head["head/w"].data, head["head/b"].data
    e1 = rng.standard_normal((2, 3))
    e2 = rng.standard_normal((2, 3))
    out_sum = classify(Tensor(e1 + e2), head).data
    out1 = classify(Tensor(e1), head).data
    out2 = classify(Tensor(e2), head).data
    assert np.allclose(out_sum, out1 + out2 - b, atol=1e-12)
    assert np.array_equal(classify(Tensor(np.zeros((1, 3))), head).data[0], b)
    perm = np.array([2, 0, 3, 1])
    permuted = {"head/w": Tensor(w[perm]), "head/b": Tensor(b[perm])}
    assert np.array_equal(classify(Tensor(e1), permuted).data, out1[:, perm])


# ---------------------------------------------------------------------------
# CAM


def test_cam_mean_equals_head_dot_embedding():
    params = tiny_params(seed=4)
    x = rng.standard_normal((1, 1, 15, 11))
    out = encoder_forward(params, TINY, Tensor(x))
    head = init_head_params(5, TINY.embedding_dim, seed=2)
    for c in range(5):
        cam = compute_cam(out.feature_maps.data[0], head["head/w"].data, c, (15, 11))
        contribution = float(head["head/w"].data[c] @ out.embedding.data[0])
        assert abs(cam.raw.mean() - contribution) < 1e-9


def test_cam_zero_weights_give_flat_half_map():
    maps = rng.standard_normal((3, 4, 5))
    w = np.zeros((2, 3))
    cam = compute_cam(maps, w, 1, (8, 10))
    assert np.all(cam.raw == 0.0)
    assert np.all(cam.heatmap == 0.5)


def test_cam_rejects_bad_class():
    maps = rng.standard_normal((3, 4, 5))
    with pytest.raises(ModelError, match="out of range"):
        compute_cam(maps, np.zeros((2, 3)), 2, (8, 10))


def test_bilinear_resize_basics():
    m = rng.standard_normal((5, 7))
    assert np.allclose(bilinear_resize(m, (5, 7)), m)  # identity at same size
    up = bilinear_resize(m, (9, 13))
    assert up[0, 0] == m[0, 0] and up[-1, -1] == m[-1, -1]  # endpoint aligned
    assert bilinear_resize(np.ones((1, 1)), (4, 4)).shape == (4, 4)


def test_cam_normalized_range():
    maps = rng.standard_normal((3, 6, 4))
    w = rng.standard_normal((2, 3))
    cam = compute_cam(maps, w, 0, (12, 8))
    assert cam.heatmap.min() == 0.0 and cam.heatmap.max() == 1.0


def test_cam_localizes_burst_like_occlusion_oracle():
    """CAM on a trained toy model concentrates on the burst region, and an
    occlusion-sensitivity oracle on the same model agrees."""
    H, W = 32, 24
    region = (slice(10, 18), slice(9, 15))
    n_per = 50
    local = np.random.default_rng(0)
    x0 = local.standard_normal((n_per, 1, H, W)) * 0.3
    x1 = local.standard_normal((n_per, 1, H, W)) * 0.3
    x1[:, 0, region[0], region[1]] += 3.0
    X = np.concatenate([x0, x1])
    y = np.array([0] * n_per + [1] * n_per)

    cfg = EncoderConfig("mel", 8, (1,), (8,), 8)
    params = init_encoder_params(cfg, 0)
    params.update(init_head_params(2, 8, 0))
    opt = AdamW(params, lr=1e-2, weight_decay=1e-4)

    def forward(x):
        enc = {n: p for n, p in params.items() if n.startswith("mel/")}
        return encoder_forward(enc, cfg, Tensor(x))

    for _ in range(120):
        out = forward(X)
        loss = ad.softmax_cross_entropy(classify(out.embedding, params), y)
        ad.backward(loss)
        opt.step()
        opt.zero_grad()
    assert float(loss.data) < 0.05

    mask = np.zeros((H, W), bool)
    mask[region] = True
    sample = X[n_per + 7: n_per + 8]
    out = forward(sample)
    cam = compute_cam(out.feature_maps.data[0], params["head/w"].data, 1, (H, W))
    cam_density = (cam.heatmap[mask].sum() / cam.heatmap.sum()) / mask.mean()
    assert cam_density >= 2.0

    # occlusion oracle: zero out 8x8 patches, record the class-1 logit drop
    def class1_logit(x):
        return float(classify(forward(x).embedding, params).data[0, 1])

    base = class1_logit(sample)
    drops = np.zeros((4, 3))
    for r in range(4):
        for c in range(3):
            occluded = sample.copy()
            occluded[0, 0, r * 8: (r + 1) * 8, c * 8: (c + 1) * 8] = 0.0
            drops[r, c] = base - class1_logit(occluded)
    occ = np.clip(bilinear_resize(drops, (H, W)), 0.0, None)
    occ_density = (occ[mask].sum() / occ.sum()) / mask.mean()
    assert occ_density >= 2.0
    # both attributions peak inside the burst region
    assert mask[np.unravel_index(np.argmax(cam.heatmap), (H, W))]
    assert mask[np.unravel_index(np.argmax(occ), (H, W))]
