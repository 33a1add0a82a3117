"""Minimal RIFF/WAVE reader and writer.

Reads PCM format tags 1 (16-bit integer) and 3 (32-bit float), mono or
multichannel. Integer samples are scaled to [-1, 1) by 1/32768. Writing
always produces 16-bit PCM, which round-trips bit-exactly through the
reader. The stdlib wave module is not used because it rejects format
tag 3 and does not separate the failure modes we need to report.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import IclError


class WavError(IclError):
    pass


class WavFormatError(WavError):
    """Malformed, compressed, or unsupported WAV payload."""


class WavEmptyError(WavError):
    """Structurally valid WAV with a zero-length data chunk."""


def read_wav(path) -> tuple[np.ndarray, int]:
    """Read a WAV file as (float64 samples [n, channels], sample_rate)."""
    path = Path(path)
    buf = path.read_bytes()
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise WavFormatError(f"{path} is not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(buf):
        chunk_id = buf[pos: pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        body = buf[pos + 8: pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"truncated chunk {chunk_id!r} in {path}")
        if chunk_id == b"fmt ":
            if size < 16:
                raise WavFormatError(f"fmt chunk too short in {path}")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise WavFormatError(f"missing fmt or data chunk in {path}")
    tag, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels < 1 or rate <= 0:
        raise WavFormatError(f"invalid fmt fields in {path}: channels={channels} rate={rate}")

    if tag == 1 and bits == 16:
        dtype, scale = "<i2", 1.0 / 32768.0
    elif tag == 3 and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise WavFormatError(
            f"unsupported WAV encoding in {path}: format tag {tag}, {bits}-bit "
            "(only 16-bit PCM and 32-bit float are readable)")

    width = (bits // 8) * channels
    n_frames = len(data) // width
    if n_frames == 0:
        raise WavEmptyError(f"zero-length audio payload in {path}")
    raw = np.frombuffer(data, dtype=dtype, count=n_frames * channels)
    samples = raw.astype(np.float64).reshape(n_frames, channels) * scale
    return samples, int(rate)


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono or multichannel float samples in [-1, 1] as 16-bit PCM."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    ints = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    n_frames, channels = ints.shape
    data = ints.tobytes()
    block_align = 2 * channels
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, channels, int(sample_rate),
        int(sample_rate) * block_align, block_align, 16,
        b"data", len(data))
    Path(path).write_bytes(header + data)
