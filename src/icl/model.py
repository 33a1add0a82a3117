"""Residual convolutional encoders, linear classifier head, and CAM.

Encoders are plain conv/ReLU residual stacks (no batch norm, so there
is no train/eval statefulness): a strided 3x3 stem, then stages of
two-conv residual blocks where each stage after the first halves the
spatial size and the final stage width equals the embedding dimension.
The embedding is the global average pool of the last feature maps,
which is exactly what class activation mapping needs: the class score
is linear in the pooled maps, so the class-weighted sum of feature maps
localizes the evidence.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import IclError, is_int


class ModelError(IclError):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    input_kind: str = "mel"
    stem_channels: int = 128
    blocks_per_stage: tuple[int, ...] = (2, 2, 2)
    channel_widths: tuple[int, ...] = (128, 256, 512)
    embedding_dim: int = 512

    def __post_init__(self):
        for name in ("stem_channels", "blocks_per_stage", "channel_widths", "embedding_dim"):
            value = getattr(self, name)
            values = value if isinstance(value, (tuple, list)) else (value,)
            if not values or not all(is_int(v) and v >= 1 for v in values):
                raise ModelError(f"{name} must be integers >= 1, got {value!r}")
        if len(self.blocks_per_stage) != len(self.channel_widths):
            raise ModelError("blocks_per_stage and channel_widths must have equal length")
        if self.embedding_dim != self.channel_widths[-1]:
            raise ModelError(
                f"embedding_dim {self.embedding_dim} must equal the last stage width "
                f"{self.channel_widths[-1]} (embedding is the pooled final maps)")

    @property
    def min_input_hw(self) -> int:
        # One stride-2 stem plus one stride-2 block opening each stage.
        return 2 ** (len(self.channel_widths) + 1)


@dataclass
class EncoderOutput:
    feature_maps: Tensor  # [N, C, H', W'] pre-pool
    embedding: Tensor     # [N, embedding_dim]


def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def encoder_param_shapes(cfg: EncoderConfig, prefix: str) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder parameter, in initialization order."""
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name: str, out_ch: int, in_ch: int, k: int) -> None:
        shapes[f"{name}/w"] = (out_ch, in_ch, k, k)
        shapes[f"{name}/b"] = (out_ch,)

    conv(f"{prefix}/stem", cfg.stem_channels, 1, 3)
    in_ch = cfg.stem_channels
    for s, (width, blocks) in enumerate(zip(cfg.channel_widths, cfg.blocks_per_stage)):
        for b in range(blocks):
            base = f"{prefix}/stage{s}/block{b}"
            conv(f"{base}/conv1", width, in_ch, 3)
            conv(f"{base}/conv2", width, width, 3)
            stride = 2 if b == 0 else 1
            if in_ch != width or stride != 1:
                conv(f"{base}/proj", width, in_ch, 1)
            in_ch = width
    return shapes


def init_encoder_params(cfg: EncoderConfig, seed: int, prefix: str) -> dict[str, Tensor]:
    """He-uniform conv weights (fan-in = all but the output axis), drawn in
    the order of ``encoder_param_shapes``; zero biases."""
    rng = np.random.default_rng([seed, zlib.crc32(prefix.encode())])
    return {name: Tensor(_he_uniform(rng, shape, int(np.prod(shape[1:])))
                         if name.endswith("/w") else np.zeros(shape),
                         requires_grad=True, name=name)
            for name, shape in encoder_param_shapes(cfg, prefix).items()}


def encoder_forward(params: dict[str, Tensor], cfg: EncoderConfig, x: Tensor) -> EncoderOutput:
    """Forward pass returning pre-pool feature maps and pooled embedding."""
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise ModelError(f"encoder expects [N, 1, H, W] input, got {x.data.shape}")
    n, _, h, w = x.data.shape
    if h < cfg.min_input_hw or w < cfg.min_input_hw:
        raise ModelError(
            f"input {h}x{w} below minimum {cfg.min_input_hw}x{cfg.min_input_hw} "
            f"for {len(cfg.channel_widths)} stages")

    def conv(name: str, t: Tensor, stride: int) -> Tensor:
        return ad.conv2d(t, params[f"{name}/w"], params[f"{name}/b"], stride)

    prefix = next(iter(params)).split("/")[0]
    out = ad.relu(conv(f"{prefix}/stem", x, 2))
    for s, blocks in enumerate(cfg.blocks_per_stage):
        for b in range(blocks):
            base = f"{prefix}/stage{s}/block{b}"
            stride = 2 if b == 0 else 1
            y = ad.relu(conv(f"{base}/conv1", out, stride))
            y = conv(f"{base}/conv2", y, 1)
            shortcut = conv(f"{base}/proj", out, stride) if f"{base}/proj/w" in params else out
            out = ad.relu(ad.add(y, shortcut))
    return EncoderOutput(feature_maps=out, embedding=ad.global_avg_pool(out))


def init_head_params(n_classes: int, embedding_dim: int, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng([seed, 917])
    w = _he_uniform(rng, (n_classes, embedding_dim), embedding_dim)
    return {
        "head/w": Tensor(w, requires_grad=True, name="head/w"),
        "head/b": Tensor(np.zeros(n_classes), requires_grad=True, name="head/b"),
    }


def classify(embedding: Tensor, params: dict[str, Tensor]) -> Tensor:
    """logits = W @ E + b on the (possibly summed) embedding."""
    return ad.linear(embedding, params["head/w"], params["head/b"])


# ---------------------------------------------------------------------------
# Class activation mapping


@dataclass
class CamMap:
    raw: np.ndarray       # [H', W'] class-weighted sum of feature maps
    heatmap: np.ndarray   # [H, W] bilinear upsample, min-max normalized to [0, 1]
    class_index: int
    kind: str


def bilinear_resize(m: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Endpoint-aligned bilinear interpolation of a 2-D map."""
    out_h, out_w = shape
    h, w = m.shape

    def coords(n_out: int, n_in: int) -> np.ndarray:
        if n_out == 1 or n_in == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * (n_in - 1) / (n_out - 1)

    ys, xs = coords(out_h, h), coords(out_w, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = m[np.ix_(y0, x0)] * (1 - fx) + m[np.ix_(y0, x1)] * fx
    bot = m[np.ix_(y1, x0)] * (1 - fx) + m[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


def compute_cam(feature_maps: np.ndarray, head_w: np.ndarray, class_index: int,
                output_shape: tuple[int, int], kind: str = "mel") -> CamMap:
    """raw[h,w] = sum_ch W[c,ch] * maps[ch,h,w], upsampled and normalized.

    With a summed two-encoder embedding the shared head weights applied to
    one encoder's own maps give that encoder's exact additive contribution
    to the class logit, so per-encoder maps are a decomposition rather than
    an approximation.
    """
    maps = np.asarray(feature_maps, dtype=np.float64)
    if maps.ndim != 3:
        raise ModelError(f"feature maps must be [C, H, W], got {maps.shape}")
    if not 0 <= class_index < head_w.shape[0]:
        raise ModelError(f"class index {class_index} out of range [0, {head_w.shape[0]})")
    if head_w.shape[1] != maps.shape[0]:
        raise ModelError(f"head weights {head_w.shape} vs feature maps {maps.shape}")
    raw = np.einsum("c,chw->hw", head_w[class_index], maps)
    up = bilinear_resize(raw, output_shape)
    lo, hi = up.min(), up.max()
    if hi - lo > 0:
        heat = (up - lo) / (hi - lo)
    else:
        heat = np.full(output_shape, 0.5)
    return CamMap(raw=raw, heatmap=heat, class_index=class_index, kind=kind)
