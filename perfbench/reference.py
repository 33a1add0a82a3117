"""Reference computations made apart from the program under test.

Nothing here imports ``icl``. The readers parse the on-disk formats from
their documented layouts, and the feature and model computations follow
the definitions by a different route than the program takes:

- log-Mel: a direct (non-FFT) DFT of each Hann-windowed frame, then
  triangular weights built from the mel formula.
- pseudo-CQT: the time-domain inner product of each windowed frame with
  every Hann-windowed complex-exponential kernel (the program multiplies
  FFTs instead).
- encoders: convolution as a sum of shifted taps (the program unrolls
  patches into a matrix).
"""

from __future__ import annotations

import math
import re
import struct
from pathlib import Path

import numpy as np

LOG_FLOOR = 1e-10
ICLF_KINDS = {0: "stft", 1: "mel", 2: "cqt"}
ICLF_HEADER = struct.Struct("<4sHBIII")

_TRACK_CLASS = re.compile(r"^synth_c(\d+)_t\d+")


class FormatError(ValueError):
    """A file does not follow its documented layout."""


def class_of(track_or_segment_id: str) -> int:
    """Class index encoded in a synthetic track id (``synth_c<label>_t<i>``)."""
    m = _TRACK_CLASS.match(track_or_segment_id)
    if m is None:
        raise FormatError(f"id {track_or_segment_id!r} does not name a synthetic class")
    return int(m.group(1))


# ---------------------------------------------------------------------------
# Readers


def read_wav_pcm16(path) -> tuple[np.ndarray, int]:
    """Mono 16-bit PCM WAV as (float64 samples scaled by 1/32768, rate)."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise FormatError(f"{path} is not RIFF/WAVE")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(buf):
        cid, size = buf[pos:pos + 4], struct.unpack_from("<I", buf, pos + 4)[0]
        body = buf[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise FormatError(f"{path} lacks a fmt or data chunk")
    tag, channels, rate, _, _, bits = fmt
    if (tag, channels, bits) != (1, 1, 16):
        raise FormatError(f"{path}: expected mono 16-bit PCM, got tag {tag} "
                          f"{channels} ch {bits} bit")
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0, int(rate)


def read_iclf_header(path) -> tuple[str, int, int, int]:
    """(kind, label, n_frames, n_bins) from an ICLF v1 feature file header."""
    with open(path, "rb") as fh:
        head = fh.read(ICLF_HEADER.size)
    if len(head) != ICLF_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, code, n_frames, n_bins, label = ICLF_HEADER.unpack(head)
    if magic != b"ICLF" or version != 1 or code not in ICLF_KINDS:
        raise FormatError(f"{path}: not an ICLF v1 file")
    return ICLF_KINDS[code], label, n_frames, n_bins


def read_iclf(path) -> tuple[str, int, np.ndarray]:
    """(kind, label, float32 [n_frames, n_bins]) from an ICLF v1 file."""
    kind, label, n_frames, n_bins = read_iclf_header(path)
    buf = Path(path).read_bytes()
    if len(buf) != ICLF_HEADER.size + 4 * n_frames * n_bins:
        raise FormatError(f"{path}: payload length does not match the header")
    values = np.frombuffer(buf, dtype="<f4", offset=ICLF_HEADER.size)
    return kind, label, values.reshape(n_frames, n_bins)


def read_iclc(path) -> dict[str, np.ndarray]:
    """Named float64 arrays from an ICLC v1 checkpoint."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"ICLC":
        raise FormatError(f"{path}: not an ICLC file")
    version, count = struct.unpack_from("<HI", buf, 4)
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    pos, params = 10, {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, pos)
        name = buf[pos + 2:pos + 2 + nlen].decode("utf-8")
        pos += 2 + nlen
        ndim = buf[pos]
        shape = struct.unpack_from(f"<{ndim}I", buf, pos + 1)
        pos += 1 + 4 * ndim
        size = math.prod(shape)
        params[name] = np.frombuffer(buf, dtype="<f8", count=size, offset=pos).reshape(shape)
        pos += 8 * size
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes")
    return params


# ---------------------------------------------------------------------------
# Features


def frame_count(n_samples: int, frame: int, shift: int) -> int:
    """floor((N - frame) / shift) + 1."""
    return (n_samples - frame) // shift + 1


def windowed_frames(x: np.ndarray, frame: int, shift: int) -> np.ndarray:
    """[T, frame] frames, each multiplied by a periodic Hann window."""
    n = np.arange(frame)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame)
    count = frame_count(x.size, frame, shift)
    return np.stack([x[t * shift:t * shift + frame] * window for t in range(count)])


def mel_reference(x: np.ndarray, sr: int, frame: int, shift: int, nfft: int,
                  n_filters: int) -> np.ndarray:
    """log10(triangular mel weights @ |direct DFT|^2 + 1e-10), [T, n_filters]."""
    frames = windowed_frames(x, frame, shift)
    k = np.arange(nfft // 2 + 1)[:, None]
    n = np.arange(frame)[None, :]
    dft = np.exp(-2j * np.pi * k * n / nfft)          # zero padding adds nothing
    power = np.abs(frames @ dft.T) ** 2

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    edges_mel = np.linspace(0.0, hz_to_mel(sr / 2.0), n_filters + 2)
    edges = 700.0 * (10.0 ** (edges_mel / 2595.0) - 1.0)
    freqs = np.arange(nfft // 2 + 1) * sr / nfft
    weights = np.zeros((n_filters, freqs.size))
    for m in range(n_filters):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / (mid - lo)
        falling = (hi - freqs) / (hi - mid)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)
        weights[m] /= weights[m].max()
    return np.log10(power @ weights.T + LOG_FLOOR)


def cqt_frequencies(f_min: float, f_max: float, bins_per_octave: int) -> list[float]:
    freqs, k = [], 0
    while f_min * 2.0 ** (k / bins_per_octave) <= f_max * (1 + 1e-12):
        freqs.append(f_min * 2.0 ** (k / bins_per_octave))
        k += 1
    return freqs


def cqt_reference(x: np.ndarray, sr: int, frame: int, shift: int, nfft: int,
                  f_min: float, f_max: float, bins_per_octave: int) -> np.ndarray:
    """|<windowed frame, kernel_k>| in the time domain, [T, n_bins].

    Kernel k is a Hann window of length min(ceil(Q sr / f_k), nfft) times
    exp(2 pi i f_k t), scaled to unit L1 norm, with Q = 1/(2^(1/b) - 1).
    """
    frames = windowed_frames(x, frame, shift)
    q = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    columns = []
    for fk in cqt_frequencies(f_min, f_max, bins_per_octave):
        length = min(math.ceil(q * sr / fk), nfft)
        n = np.arange(length)
        window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
        kernel = window * np.exp(2j * np.pi * fk * n / sr) / window.sum()
        overlap = min(length, frame)
        columns.append(np.abs(frames[:, :overlap] @ np.conj(kernel[:overlap])))
    return np.stack(columns, axis=1)


# ---------------------------------------------------------------------------
# Model


def _conv_same(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int) -> np.ndarray:
    """'same'-padded strided cross-correlation as a sum over kernel taps."""
    n, _, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = -(-h // stride), -(-wd // stride)
    ph = max((oh - 1) * stride + kh - h, 0)
    pw = max((ow - 1) * stride + kw - wd, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)))
    out = np.zeros((n, oh, ow, f))
    for i in range(kh):
        for j in range(kw):
            tap = xp[:, :, i:i + stride * (oh - 1) + 1:stride, j:j + stride * (ow - 1) + 1:stride]
            out += np.tensordot(tap, w[:, :, i, j], axes=([1], [1]))
    return out.transpose(0, 3, 1, 2) + b[None, :, None, None]


def encoder_maps(params: dict[str, np.ndarray], kind: str, x: np.ndarray) -> np.ndarray:
    """Final feature maps of one residual encoder, structure read from names.

    A stride-2 stem, then per stage residual blocks of two 3x3 convs whose
    first block strides by 2; a block with a ``proj`` weight projects its
    shortcut.
    """
    def conv(name, t, stride):
        return _conv_same(t, params[f"{name}/w"], params[f"{name}/b"], stride)

    out = np.maximum(conv(f"{kind}/stem", x, 2), 0.0)
    stage = 0
    while f"{kind}/stage{stage}/block0/conv1/w" in params:
        block = 0
        while f"{kind}/stage{stage}/block{block}/conv1/w" in params:
            base = f"{kind}/stage{stage}/block{block}"
            stride = 2 if block == 0 else 1
            y = np.maximum(conv(f"{base}/conv1", out, stride), 0.0)
            y = conv(f"{base}/conv2", y, 1)
            short = conv(f"{base}/proj", out, stride) if f"{base}/proj/w" in params else out
            out = np.maximum(y + short, 0.0)
            block += 1
        stage += 1
    return out


def logits(params: dict[str, np.ndarray], inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Head applied to the sum over encoders of pooled final maps."""
    embedding = sum(encoder_maps(params, kind, x).mean(axis=(2, 3)) for kind, x in inputs.items())
    return embedding @ params["head/w"].T + params["head/b"]


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
