"""Forward values and finite-difference gradients for every operator."""

import math

import numpy as np
import pytest

import icl.autodiff as ad
from icl.autodiff import Tensor

rng = np.random.default_rng(42)


def test_relu_forward():
    out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_conv2d_identity_kernel():
    x = Tensor(rng.standard_normal((2, 1, 5, 4)))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = ad.conv2d(x, w, Tensor(np.zeros(1)), 1)
    assert np.array_equal(out.data, x.data)


def test_global_avg_pool_constant():
    x = Tensor(np.full((3, 2, 4, 5), 1.7))
    out = ad.global_avg_pool(x)
    assert np.allclose(out.data, 1.7)
    assert out.data.shape == (3, 2)


def test_sum_backward_is_ones():
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    ad.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_elementwise_square_backward():
    x = Tensor(rng.standard_normal((5,)), requires_grad=True)
    ad.backward(ad.sum_all(ad.mul(x, x)))
    assert np.allclose(x.grad, 2 * x.data)


def test_fanout_gradients_sum_exactly():
    x = Tensor(rng.standard_normal((4,)), requires_grad=True)
    ad.backward(ad.sum_all(ad.add(x, x)))
    assert np.array_equal(x.grad, np.full(4, 2.0))


def test_softmax_ce_uniform_logits_closed_form():
    n, c, t = 1, 5, 2
    logits = Tensor(np.zeros((n, c)), requires_grad=True)
    loss = ad.softmax_cross_entropy(logits, np.array([t]))
    assert math.isclose(float(loss.data), math.log(c), rel_tol=0, abs_tol=1e-12)
    ad.backward(loss)
    expected = np.full(c, 1.0 / c)
    expected[t] -= 1.0
    assert np.allclose(logits.grad[0], expected, atol=1e-15)


def test_backward_requires_scalar_loss():
    x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    with pytest.raises(ad.GraphError, match="scalar"):
        ad.backward(ad.relu(x))


def test_cycle_detection():
    x = Tensor(np.ones(2), requires_grad=True)
    y = ad.relu(x)
    y._parents = (y,)  # manufactured cycle
    with pytest.raises(ad.GraphError, match="cycle"):
        ad.backward(ad.sum_all(y))


def test_shape_mismatch_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeMismatchError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.add(a, b)


def test_nonfinite_output_trips_error():
    big = Tensor(np.array([1e308, 1e308]))
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
        ad.add(big, big)  # overflows to inf


def test_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_grad_accumulates_across_backward_calls():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = ad.sum_all(x)
    ad.backward(loss)
    ad.backward(loss)
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_forward_backward_deterministic():
    def run():
        x = Tensor(np.linspace(-1, 1, 24).reshape(2, 1, 4, 3), requires_grad=True)
        w = Tensor(np.linspace(0.1, 0.9, 9).reshape(1, 1, 3, 3), requires_grad=True)
        loss = ad.sum_all(ad.relu(ad.conv2d(x, w, Tensor(np.zeros(1)), 1)))
        ad.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_float32_storage_mode():
    x = Tensor(rng.standard_normal((3, 3)), dtype=np.float32, requires_grad=True)
    out = ad.relu(x)
    assert out.data.dtype == np.float32
    err = ad.grad_check(lambda t: ad.sum_all(ad.relu(t)),
                        [np.abs(rng.standard_normal((3, 3))) + 0.1], h=1e-2, dtype=np.float32)
    assert err < 1e-3


def test_tensor_keeps_float32_and_makes_float64_of_the_rest():
    assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    for data in ([1, 2], np.ones(2, dtype=np.int64), np.ones(2, dtype=np.float16), 1.5):
        assert Tensor(data).data.dtype == np.float64


def test_l2_normalize_eps_floor_holds_in_float32():
    x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    y = ad.l2_normalize(x)
    ad.backward(ad.sum_all(ad.mul(y, Tensor(np.ones((2, 3), dtype=np.float32)))))
    assert y.data.dtype == x.grad.dtype == np.float32
    assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(x.grad))


# --- gradient checks per operator (64-bit, off-kink inputs) ---

OP_CASES = [
    ("add", lambda a, b: ad.sum_all(ad.mul(ad.add(a, b), ad.add(a, b))),
     [(3, 4), (3, 4)]),
    ("mul", lambda a, b: ad.sum_all(ad.mul(a, b)), [(3, 4), (3, 4)]),
    ("scale", lambda a: ad.sum_all(ad.scale(a, -1.7)), [(4,)]),
    ("weighted_sum", lambda a, b: ad.sum_all(ad.weighted_sum(a, 0.3, b, 1.9)),
     [(2, 3), (2, 3)]),
    ("relu", lambda a: ad.sum_all(ad.relu(a)), [(4, 5)]),
    ("transpose", lambda a: ad.sum_all(ad.mul(ad.transpose(a), ad.transpose(a))), [(3, 2)]),
    ("matmul", lambda a, b: ad.sum_all(ad.matmul(a, b)), [(3, 4), (4, 2)]),
    ("matmul_t", lambda a, b: ad.sum_all(ad.matmul(a, b, transpose_b=True)),
     [(3, 4), (2, 4)]),
    ("linear", lambda x, w, b: ad.sum_all(ad.relu(ad.linear(x, w, b))),
     [(3, 4), (5, 4), (5,)]),
    ("conv2d_same", lambda x, w, b: ad.sum_all(ad.conv2d(x, w, b, 1)),
     [(2, 3, 6, 5), (4, 3, 3, 3), (4,)]),
    ("conv2d_same_s2", lambda x, w, b: ad.sum_all(ad.conv2d(x, w, b, 2)),
     [(2, 3, 7, 6), (4, 3, 3, 3), (4,)]),
    ("conv2d_1x1_s2", lambda x, w, b: ad.sum_all(ad.conv2d(x, w, b, 2)),
     [(2, 3, 6, 5), (4, 3, 1, 1), (4,)]),
    ("global_avg_pool", lambda x: ad.sum_all(ad.mul(ad.global_avg_pool(x),
                                                    ad.global_avg_pool(x))),
     [(2, 3, 4, 5)]),
    ("l2_normalize", lambda x, y: ad.sum_all(ad.mul(ad.l2_normalize(x), y)),
     [(3, 4), (3, 4)]),
]


@pytest.mark.parametrize("name,build,shapes", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_grad_check_per_op(name, build, shapes):
    local = np.random.default_rng(hashsum(name))
    arrays = [off_kink(local, s) for s in shapes]
    assert ad.grad_check(build, arrays) < 1e-6


def test_grad_check_softmax_ce():
    local = np.random.default_rng(7)
    logits = local.standard_normal((4, 3))
    targets = np.array([0, 2, 1, 1])
    err = ad.grad_check(lambda t: ad.softmax_cross_entropy(t, targets), [logits])
    assert err < 1e-6


def hashsum(name: str) -> int:
    return sum(name.encode())


def off_kink(local_rng, shape, margin=0.05):
    """Random values nudged away from zero so relu kinks stay inactive."""
    x = local_rng.standard_normal(shape)
    return x + np.sign(x) * margin


# --- conv2d against a plain tap-sum reference ---


def conv_reference(x, w, b, g, stride):
    """Output and (dx, dW, db) of sum(conv2d(x, w, b) * g), one kernel tap at a time."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = -(-h // stride), -(-wd // stride)
    ph, pw = max((oh - 1) * stride + kh - h, 0), max((ow - 1) * stride + kw - wd, 0)
    top, left = ph // 2, pw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (top, ph - top), (left, pw - left)))
    out = np.zeros((n, f, oh, ow)) + b[None, :, None, None]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + stride * (oh - 1) + 1, stride)
            cols = slice(j, j + stride * (ow - 1) + 1, stride)
            out += np.einsum("nchw,fc->nfhw", xp[:, :, rows, cols], w[:, :, i, j])
            dw[:, :, i, j] = np.einsum("nfhw,nchw->fc", g, xp[:, :, rows, cols])
            dxp[:, :, rows, cols] += np.einsum("nfhw,fc->nchw", g, w[:, :, i, j])
    return out, (dxp[:, :, top: top + h, left: left + wd], dw, g.sum(axis=(0, 2, 3)))


# (7, 6) and (4, 5) flip which axis gets an odd "same" pad at stride 2.
@pytest.mark.parametrize("size", [(7, 6), (4, 5)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [(3, 3), (1, 3), (1, 1)])
@pytest.mark.parametrize("channels", [1, 3])
def test_conv2d_matches_tap_sum_reference(stride, kernel, channels, size):
    local = np.random.default_rng([stride, kernel[0], channels, *size])
    x = Tensor(local.standard_normal((2, channels, *size)), requires_grad=True)
    w = Tensor(local.standard_normal((4, channels, *kernel)), requires_grad=True)
    b = Tensor(local.standard_normal(4), requires_grad=True)
    out = ad.conv2d(x, w, b, stride)
    g = local.standard_normal(out.data.shape)
    ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))

    want_out, want_grads = conv_reference(x.data, w.data, b.data, g, stride)
    np.testing.assert_allclose(out.data, want_out, rtol=1e-12, atol=1e-12)
    for got, want in zip((x.grad, w.grad, b.grad), want_grads):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_ops_on_inputs_without_grad_keep_no_graph():
    x = Tensor(rng.standard_normal((2, 3, 5, 4)))
    w = Tensor(rng.standard_normal((4, 3, 3, 3)))
    b4, b2 = Tensor(np.zeros(4)), Tensor(np.zeros(2))
    for out in (ad.relu(x), ad.conv2d(x, w, b4), ad.conv2d(x, Tensor(np.ones((2, 3, 1, 1))), b2),
                ad.add(ad.relu(x), ad.relu(x))):
        assert out._parents == () and out._backward is None
    # One parent that needs a gradient is enough to keep the graph.
    w.requires_grad = True
    out = ad.conv2d(ad.relu(x), w, b4)
    assert len(out._parents) == 3 and out._backward is not None
