"""Reverse-mode automatic differentiation over dense numpy arrays.

The operator set is sized for residual convolutional encoders and the
losses built on top of them: matmul, conv2d, relu, elementwise add/mul,
global average pooling, linear layers, row-wise L2 normalization and
softmax cross-entropy. Everything runs in float64 by default so
finite-difference gradient checks are meaningful; float32 storage is
available for inference-style use.

Graphs are implicit: each op returns a Tensor holding references to its
parents and a backward rule. ``backward(loss)`` walks the graph in
reverse topological order with a fixed summation order, so repeated runs
on identical inputs are bit-identical.

An op keeps no graph when nothing upstream needs a gradient: if no
parent has ``requires_grad`` or a graph of its own, the returned node
stores no parents and no backward rule, so the rule's closure and the
buffers it holds are freed when the op returns. Inference is therefore
graph-free by construction: wrap parameter arrays in fresh Tensors
without ``requires_grad``. There is no separate no-grad mode.

Convolutions with kernels larger than 1x1 unroll the input channels-last
(im2col, Chellapilla et al. 2006): the column matrix is
``[N*OH*OW, kh*kw*C]`` gathered from an NHWC copy of the padded input,
so every copy moves contiguous rows of channels; the NCHW layout of the
public API is converted once on the way in and once on the way out.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class AutodiffError(Exception):
    """Base class for graph construction and execution errors."""


class ShapeMismatchError(AutodiffError):
    pass


class NonFiniteError(AutodiffError):
    pass


class GraphError(AutodiffError):
    """Non-scalar loss, cycles, or other malformed-graph conditions."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    # One-pass screen: a non-finite entry makes the sum non-finite. The
    # full scan only runs to rule out pure float overflow of the sum.
    if not np.isfinite(arr.sum()) and not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in output of '{op}'")


def _needs_grad(t: "Tensor") -> bool:
    return t.requires_grad or bool(t._parents)


def _require(cond: bool, op: str, msg: str) -> None:
    if not cond:
        raise ShapeMismatchError(f"{op}: {msg}")


class Tensor:
    """N-dimensional value node in a reverse-mode computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._op: str = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = self.name or self._op
        return f"Tensor({tag}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Thin conveniences; the module-level functions are the real API.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)


def _node(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out.name = None
    # With nothing upstream to differentiate, keep no graph: dropping the
    # rule frees its closure (and any im2col buffer) when the op returns.
    if any(_needs_grad(p) for p in parents):
        out._parents = parents
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    out._op = op
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    """Parents-before-consumers ordering; raises GraphError on cycles."""
    order: list[Tensor] = []
    state: dict[int, int] = {id(root): 0}  # 0 = visiting, 1 = done
    stack: list[tuple[Tensor, Iterator[Tensor]]] = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            s = state.get(id(parent))
            if s == 0:
                raise GraphError("cycle detected in computation graph")
            if s is None:
                state[id(parent)] = 0
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            state[id(node)] = 1
            order.append(node)
            stack.pop()
    return order


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every requires_grad tensor.

    Gradients sum over fan-out. Tensors without requires_grad are left
    untouched; repeated calls accumulate into ``.grad``.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# Operators


def add(a: Tensor, b: Tensor) -> Tensor:
    _require(a.data.shape == b.data.shape, "add", f"shapes {a.data.shape} vs {b.data.shape}")
    return _node(a.data + b.data, "add", (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require(a.data.shape == b.data.shape, "mul", f"shapes {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return _node(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.data * c, "scale", (a,), lambda g: (g * c,))


def weighted_sum(a: Tensor, wa: float, b: Tensor, wb: float) -> Tensor:
    """wa*a + wb*b with scalar weights (the combined-loss combiner)."""
    _require(a.data.shape == b.data.shape, "weighted_sum",
             f"shapes {a.data.shape} vs {b.data.shape}")
    wa, wb = float(wa), float(wb)
    return _node(wa * a.data + wb * b.data, "weighted_sum", (a, b),
                 lambda g: (g * wa, g * wb))


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _node(np.asarray(a.data.sum()), "sum_all", (a,),
                 lambda g: (np.broadcast_to(g, shape).copy() if shape else g,))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    mask = out > 0
    return _node(out, "relu", (a,), lambda g: (g * mask,))


def transpose(a: Tensor) -> Tensor:
    _require(a.data.ndim == 2, "transpose", f"expected 2-D input, got {a.data.shape}")
    return _node(np.ascontiguousarray(a.data.T), "transpose", (a,),
                 lambda g: (np.ascontiguousarray(g.T),))


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    _require(a.data.ndim == 2 and b.data.ndim == 2, "matmul",
             f"expected 2-D inputs, got {a.data.shape} and {b.data.shape}")
    ad, bd = a.data, b.data
    if transpose_b:
        _require(ad.shape[1] == bd.shape[1], "matmul",
                 f"shapes {ad.shape} vs {bd.shape}^T")
        out = ad @ bd.T
        return _node(out, "matmul", (a, b), lambda g: (g @ bd, g.T @ ad))
    _require(ad.shape[1] == bd.shape[0], "matmul", f"shapes {ad.shape} vs {bd.shape}")
    out = ad @ bd
    return _node(out, "matmul", (a, b), lambda g: (g @ bd.T, ad.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[N,D] @ w[C,D]^T + b[C]."""
    _require(x.data.ndim == 2 and w.data.ndim == 2, "linear",
             f"expected 2-D x and w, got {x.data.shape} and {w.data.shape}")
    _require(x.data.shape[1] == w.data.shape[1], "linear",
             f"shapes {x.data.shape} vs {w.data.shape}")
    _require(b.data.shape == (w.data.shape[0],), "linear",
             f"bias {b.data.shape} vs weight {w.data.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd.T + b.data
    return _node(out, "linear", (x, w, b),
                 lambda g: (g @ wd, g.T @ xd, g.sum(axis=0)))


def _conv_geometry(h: int, w: int, kh: int, kw: int, sh: int, sw: int, padding: str):
    if padding == "same":
        oh = -(-h // sh)
        ow = -(-w // sw)
        ph = max((oh - 1) * sh + kh - h, 0)
        pw = max((ow - 1) * sw + kw - w, 0)
    elif padding == "valid":
        _require(h >= kh and w >= kw, "conv2d",
                 f"input {h}x{w} smaller than kernel {kh}x{kw}")
        oh = (h - kh) // sh + 1
        ow = (w - kw) // sw + 1
        ph = pw = 0
    else:
        raise ValueError(f"conv2d: unknown padding {padding!r}")
    return oh, ow, (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)


def _conv2d_1x1(x: Tensor, w: Tensor, b: Tensor | None, sh: int, sw: int) -> Tensor:
    """Pointwise convolution as a channel matmul (projection shortcuts)."""
    n, c, h, wid = x.data.shape
    f = w.data.shape[0]
    xs = x.data[:, :, ::sh, ::sw]
    oh, ow = xs.shape[2], xs.shape[3]
    w2 = w.data.reshape(f, c)
    out = np.ascontiguousarray(np.tensordot(xs, w2, axes=([1], [1])).transpose(0, 3, 1, 2))
    if b is not None:
        out += b.data[None, :, None, None]

    def back(g: np.ndarray):
        dx = None
        if _needs_grad(x):
            dxs = np.tensordot(g, w2, axes=([1], [0])).transpose(0, 3, 1, 2)
            dx = np.zeros_like(x.data)
            dx[:, :, ::sh, ::sw] = dxs
        dw = np.einsum("nfhw,nchw->fc", g, xs).reshape(f, c, 1, 1) if _needs_grad(w) else None
        if b is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, "conv2d", parents, back)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int | tuple[int, int] = 1, padding: str = "same") -> Tensor:
    """2-D convolution (cross-correlation), NCHW layout, via im2col.

    The public layout is NCHW, but the unrolled matrix is channels-last:
    ``cols[N*OH*OW, kh*kw*C]`` is gathered from a sliding-window view of
    an NHWC copy of the padded input, so every copy moves a contiguous
    row of C channels, and the weights are read as ``(F, kh, kw, C)`` to
    match. Backward computes dW as ``g2.T @ cols`` and, for dx, adds
    ``g2 @ W[:, i, j]`` one kernel tap at a time into a padded NHWC
    buffer that is transposed back to NCHW once. Kernels of 1x1 with
    ``same`` padding take the pointwise path instead.
    """
    _require(x.data.ndim == 4, "conv2d", f"expected NCHW input, got {x.data.shape}")
    _require(w.data.ndim == 4, "conv2d", f"expected FCKK weights, got {w.data.shape}")
    n, c, h, wid = x.data.shape
    f, cw, kh, kw = w.data.shape
    _require(c == cw, "conv2d", f"input channels {x.data.shape} vs weight {w.data.shape}")
    if b is not None:
        _require(b.data.shape == (f,), "conv2d", f"bias {b.data.shape} vs weight {w.data.shape}")
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    if kh == kw == 1 and padding == "same":
        return _conv2d_1x1(x, w, b, sh, sw)
    oh, ow, (pt, pb), (pl, pr) = _conv_geometry(h, wid, kh, kw, sh, sw, padding)

    padded_shape = (n, h + pt + pb, wid + pl + pr, c)
    xp = np.zeros(padded_shape, dtype=x.data.dtype)
    xp[:, pt: pt + h, pl: pl + wid] = x.data.transpose(0, 2, 3, 1)
    # [N, OH, OW, C, kh, kw] -> [N*OH*OW, kh*kw*C]: one gather whose
    # innermost run is a contiguous row of C channels.
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(f, kh * kw * c)
    out2 = cols @ wmat.T
    out = np.ascontiguousarray(out2.reshape(n, oh, ow, f).transpose(0, 3, 1, 2))
    if b is not None:
        out += b.data[None, :, None, None]

    def back(g: np.ndarray):
        g2 = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
        dw = None
        if _needs_grad(w):
            dw = np.ascontiguousarray(
                (g2.T @ cols).reshape(f, kh, kw, c).transpose(0, 3, 1, 2))
        dx = None
        if _needs_grad(x):
            wtaps = wmat.reshape(f, kh, kw, c)
            dxp = np.zeros(padded_shape, dtype=x.data.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i: i + sh * (oh - 1) + 1: sh, j: j + sw * (ow - 1) + 1: sw] += (
                        g2 @ wtaps[:, i, j]).reshape(n, oh, ow, c)
            dx = np.ascontiguousarray(
                dxp[:, pt: pt + h, pl: pl + wid].transpose(0, 3, 1, 2))
        if b is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, "conv2d", parents, back)


def global_avg_pool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C] channel-wise spatial mean."""
    _require(x.data.ndim == 4, "global_avg_pool", f"expected NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def back(g: np.ndarray):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).copy(),)

    return _node(out, "global_avg_pool", (x,), back)


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise L2 normalization of [N,D]; norms floored at eps."""
    _require(x.data.ndim == 2, "l2_normalize", f"expected 2-D input, got {x.data.shape}")
    norms = np.maximum(np.linalg.norm(x.data, axis=1, keepdims=True), eps)
    y = x.data / norms

    def back(g: np.ndarray):
        # d(x/|x|) treats the eps floor as inactive; callers keep rows off zero.
        dots = (g * y).sum(axis=1, keepdims=True)
        return ((g - y * dots) / norms,)

    return _node(y, "l2_normalize", (x,), back)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax."""
    _require(logits.data.ndim == 2, "softmax_cross_entropy",
             f"expected [N,C] logits, got {logits.data.shape}")
    t = np.asarray(targets)
    n, c = logits.data.shape
    _require(t.shape == (n,), "softmax_cross_entropy",
             f"targets {t.shape} vs logits {logits.data.shape}")
    if t.min() < 0 or t.max() >= c:
        raise ValueError(f"softmax_cross_entropy: target out of range [0, {c})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    nll = -(z[rows, t] - np.log(ez.sum(axis=1)))
    out = np.asarray(nll.mean())

    def back(g: np.ndarray):
        d = probs.copy()
        d[rows, t] -= 1.0
        return (d * (g / n),)

    return _node(out, "softmax_cross_entropy", (logits,), back)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax over the last axis (inference helper)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


def grad_check(build, arrays, h: float = 1e-5, dtype=np.float64) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build`` takes one Tensor per entry of ``arrays`` and returns a scalar
    Tensor. Every supplied array is treated as differentiable. The relative
    error per coordinate is |a - n| / max(1e-8, |a| + |n|). Keep the total
    coordinate count small: each coordinate costs two forward passes.
    """
    tensors = [Tensor(np.array(a, dtype=dtype), requires_grad=True) for a in arrays]
    loss = build(*tensors)
    backward(loss)

    point = [np.array(a, dtype=dtype) for a in arrays]

    def value() -> float:
        return float(build(*[Tensor(p.copy()) for p in point]).data)

    worst = 0.0
    for k, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        it = np.nditer(point[k], flags=["multi_index"])
        for _ in it:
            mi = it.multi_index
            orig = point[k][mi]
            point[k][mi] = orig + h
            fp = value()
            point[k][mi] = orig - h
            fm = value()
            point[k][mi] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(analytic[mi])
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
