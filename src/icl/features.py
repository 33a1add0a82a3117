"""Frame-based spectrogram features: STFT, log-Mel, and pseudo-CQT.

All three features share one framing scheme (Hann window, zero-padding
to the FFT size). The Mel spectrogram applies a triangular filterbank,
uniform on the Mel axis, to the frame power spectrum and takes log10.
The CQT is the frame-based spectral-kernel variant: each frame's full
FFT is inner-producted with the FFT of a Hann-windowed complex
exponential per geometrically spaced center frequency, and the
magnitude is kept. Each transform takes mono samples, their sample rate,
the framing and, for Mel and CQT, a bank built beforehand for that rate
and FFT size, and returns the [n_frames, n_bins] matrix.

A small binary cache format ("ICLF") stores extracted features as
row-major little-endian float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IclError, is_finite, is_int

LOG_FLOOR = 1e-10

KIND_STFT = "stft"
KIND_MEL = "mel"
KIND_CQT = "cqt"
KINDS = (KIND_STFT, KIND_MEL, KIND_CQT)
_KIND_CODES = {KIND_STFT: 0, KIND_MEL: 1, KIND_CQT: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

CACHE_MAGIC = b"ICLF"
CACHE_VERSION = 1
_CACHE_HEADER = struct.Struct("<HBIII")  # version, kind code, frames, bins, label
CACHE_HEADER_BYTES = len(CACHE_MAGIC) + _CACHE_HEADER.size  # 19
MAX_LABEL = 2**32 - 1  # the largest label the header's u32 holds


class FeatureError(IclError):
    pass


# ---------------------------------------------------------------------------
# Framing


@dataclass(frozen=True)
class FrameConfig:
    """Analysis framing: 50 ms Hann frames with a 25 ms shift by default."""

    frame_len_ms: float = 50.0
    frame_shift_ms: float = 25.0
    fft_size: int | None = None  # next power of two >= frame samples when None

    def __post_init__(self):
        if self.fft_size is not None and not is_int(self.fft_size):
            raise FeatureError(f"fft_size must be an integer or null, got {self.fft_size!r}")
        for name in ("frame_len_ms", "frame_shift_ms"):
            if not is_finite(getattr(self, name)):
                raise FeatureError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not 0 < self.frame_shift_ms <= self.frame_len_ms:
            raise FeatureError(f"frame_shift_ms {self.frame_shift_ms} must be in "
                               f"(0, frame_len_ms {self.frame_len_ms}]")

    def frame_samples(self, sample_rate: float) -> int:
        return int(round(self.frame_len_ms * 1e-3 * sample_rate))

    def shift_samples(self, sample_rate: float) -> int:
        return max(1, int(round(self.frame_shift_ms * 1e-3 * sample_rate)))

    def resolve_fft_size(self, sample_rate: float) -> int:
        frame = self.frame_samples(sample_rate)
        if self.fft_size is not None:
            if self.fft_size < frame:
                raise FeatureError(f"fft_size {self.fft_size} < frame of {frame} samples")
            return self.fft_size
        n = 1
        while n < frame:
            n *= 2
        return n


def frame_count(n_samples: int, frame: int, shift: int) -> int:
    """Number of full frames: floor((N - frame)/shift) + 1 for N >= frame."""
    if n_samples < frame:
        raise FeatureError(f"signal of {n_samples} samples shorter than one {frame}-sample frame")
    return (n_samples - frame) // shift + 1


def hann(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _frames(samples: np.ndarray, sample_rate: float, frame: FrameConfig) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise FeatureError(f"expected mono 1-D samples, got shape {x.shape}")
    size = frame.frame_samples(sample_rate)
    shift = frame.shift_samples(sample_rate)
    n = frame_count(x.size, size, shift)
    return sliding_window_view(x, size)[::shift][:n] * hann(size)


def _check_bank(bank, sample_rate: float, frame: FrameConfig) -> None:
    """A filter or kernel bank serves only the sample rate and FFT size it was built for."""
    if bank.sample_rate != sample_rate or bank.fft_size != frame.resolve_fft_size(sample_rate):
        raise FeatureError(f"{type(bank).__name__} was built for a different sample rate "
                           "or FFT size")


# ---------------------------------------------------------------------------
# STFT


def stft(samples: np.ndarray, sample_rate: float, frame: FrameConfig) -> np.ndarray:
    """One-sided magnitude spectrogram of Hann-windowed frames, shape
    [n_frames, fft_size // 2 + 1]; its bins lie at ``np.fft.rfftfreq``."""
    windowed = _frames(samples, sample_rate, frame)
    return np.abs(np.fft.rfft(windowed, n=frame.resolve_fft_size(sample_rate), axis=1))


# ---------------------------------------------------------------------------
# Mel


def mel_scale(f):
    """Hz -> Mel, 2595 * log10(1 + f/700); strictly increasing, mel(0) = 0."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise FeatureError("mel_scale requires nonnegative frequencies")
    out = 2595.0 * np.log10(1.0 + f / 700.0)
    return float(out) if out.ndim == 0 else out


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    out = 700.0 * (np.power(10.0, m / 2595.0) - 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass
class MelFilterBank:
    """Triangular filters uniform on the Mel axis, each row peaking at 1."""

    weights: np.ndarray  # [n_filters, n_fft_bins]
    center_freqs: np.ndarray
    sample_rate: float
    fft_size: int


def build_mel_filterbank(n_filters: int, cfg: FrameConfig, sample_rate: float,
                         f_min: float = 0.0, f_max: float | None = None) -> MelFilterBank:
    if n_filters < 1:
        raise FeatureError("n_filters must be >= 1")
    nyquist = sample_rate / 2.0
    f_max = nyquist if f_max is None else f_max
    if not 0 <= f_min < f_max <= nyquist:
        raise FeatureError(f"bad mel range [{f_min}, {f_max}] for Nyquist {nyquist}")
    nfft = cfg.resolve_fft_size(sample_rate)
    bin_freqs = np.fft.rfftfreq(nfft, d=1.0 / sample_rate)
    if n_filters > bin_freqs.size:
        raise FeatureError(
            f"{n_filters} mel filters exceed the {bin_freqs.size} available FFT bins")

    grid = mel_to_hz(np.linspace(mel_scale(f_min), mel_scale(f_max), n_filters + 2))
    lower, centers, upper = grid[:-2], grid[1:-1], grid[2:]
    up = (bin_freqs[None, :] - lower[:, None]) / np.maximum(centers - lower, 1e-12)[:, None]
    down = (upper[:, None] - bin_freqs[None, :]) / np.maximum(upper - centers, 1e-12)[:, None]
    weights = np.maximum(0.0, np.minimum(up, down))

    peaks = weights.max(axis=1)
    if np.any(peaks <= 0):
        dead = int(np.argmin(peaks))
        raise FeatureError(
            f"mel filter {dead} covers no FFT bin; increase fft_size or reduce n_filters")
    weights /= peaks[:, None]
    return MelFilterBank(weights, centers, sample_rate, nfft)


def mel_spectrogram(samples: np.ndarray, sample_rate: float, frame: FrameConfig,
                    bank: MelFilterBank) -> np.ndarray:
    """log10(filterbank @ power spectrum + 1e-10), shape [n_frames, n_filters]."""
    _check_bank(bank, sample_rate, frame)
    power = np.square(stft(samples, sample_rate, frame))
    return np.log10(power @ bank.weights.T + LOG_FLOOR)


# ---------------------------------------------------------------------------
# CQT


def cqt_frequencies(f_min: float, f_max: float, bins_per_octave: int) -> np.ndarray:
    """Geometric grid f_k = 2^(k/b) * f_min for every f_k <= f_max."""
    if not 0 < f_min < f_max:
        raise FeatureError(f"bad CQT range [{f_min}, {f_max}]")
    if bins_per_octave < 1:
        raise FeatureError("bins_per_octave must be >= 1")
    n_bins = int(np.floor(bins_per_octave * np.log2(f_max / f_min))) + 1
    freqs = f_min * np.power(2.0, np.arange(n_bins) / bins_per_octave)
    # Guard the top bin against log2 rounding landing just past f_max.
    while freqs.size and freqs[-1] > f_max * (1 + 1e-12):
        freqs = freqs[:-1]
    return freqs


@dataclass
class CqtKernelBank:
    """Spectral-domain CQT kernels for one (sample_rate, fft_size) pair."""

    center_freqs: np.ndarray
    kernels: np.ndarray  # complex [n_bins, fft_size]
    sample_rate: float
    fft_size: int


def build_cqt_kernels(cfg: FrameConfig, sample_rate: float, f_min: float,
                      f_max: float | None, bins_per_octave: int) -> CqtKernelBank:
    """Kernels for bins from f_min up to f_max (0.95 x Nyquist when None)."""
    nyquist = sample_rate / 2.0
    f_max = 0.95 * nyquist if f_max is None else f_max
    if f_max > nyquist:
        raise FeatureError(f"CQT f_max {f_max} Hz above Nyquist {nyquist} Hz")
    freqs = cqt_frequencies(f_min, f_max, bins_per_octave)
    q = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    nfft = cfg.resolve_fft_size(sample_rate)
    kernels = np.zeros((freqs.size, nfft), dtype=np.complex128)
    for k, fk in enumerate(freqs):
        n_k = min(int(np.ceil(q * sample_rate / fk)), nfft)
        t = np.arange(n_k) / sample_rate
        kern = hann(n_k) * np.exp(2j * np.pi * fk * t)
        kern /= np.abs(kern).sum()
        kernels[k, :n_k] = kern
    return CqtKernelBank(freqs, np.fft.fft(kernels, axis=1), sample_rate, nfft)


def cqt_spectrogram(samples: np.ndarray, sample_rate: float, frame: FrameConfig,
                    kernels: CqtKernelBank) -> np.ndarray:
    """|<frame FFT, kernel>| per frame and bin, shape [n_frames, n_bins].

    The frequency-domain product over the full FFT equals the time-domain
    inner product of the windowed frame with each kernel (Parseval), so bins
    respond like matched filters at their center frequencies.
    """
    _check_bank(kernels, sample_rate, frame)
    spectra = np.fft.fft(_frames(samples, sample_rate, frame), n=kernels.fft_size, axis=1)
    return np.abs(spectra @ kernels.kernels.conj().T) / kernels.fft_size


# ---------------------------------------------------------------------------
# Normalization


@dataclass(frozen=True)
class FeatureStats:
    """Global scalar mean/std of one feature kind over the training split."""

    kind: str
    mean: float
    std: float

    def __post_init__(self):
        if not (is_finite(self.mean) and is_finite(self.std) and self.std > 0):
            raise FeatureError(f"{self.kind} stats need a finite mean and a finite std > 0, "
                               f"got mean {self.mean!r}, std {self.std!r}")


def compute_feature_stats(train: np.ndarray, kind: str) -> FeatureStats:
    """Mean and std over every value of the stacked float64 training split."""
    if train.size == 0:
        raise FeatureError("cannot compute feature stats from an empty set")
    return FeatureStats(kind, float(train.mean()), max(float(train.std()), 1e-8))


def normalize_features(stats: FeatureStats, values) -> np.ndarray:
    """(x - mean)/std with train-split statistics."""
    return (np.asarray(values, dtype=np.float64) - stats.mean) / stats.std


# ---------------------------------------------------------------------------
# Binary feature cache


def write_feature_cache(path, values: np.ndarray, kind: str, label: int) -> None:
    """Write one finite feature matrix: magic, version, kind, dims, label, f32 data."""
    arr = np.ascontiguousarray(values, dtype="<f4")
    if arr.ndim != 2:
        raise FeatureError(f"feature cache stores 2-D matrices, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FeatureError(f"non-finite values in the {kind} features for {path}")
    header = CACHE_MAGIC + _CACHE_HEADER.pack(CACHE_VERSION, _KIND_CODES[kind],
                                              arr.shape[0], arr.shape[1], int(label))
    Path(path).write_bytes(header + arr.tobytes())


def read_feature_cache(path) -> tuple[str, int, np.ndarray]:
    """Read a cache file back as (kind, label, float32 matrix)."""
    buf = Path(path).read_bytes()
    if len(buf) < CACHE_HEADER_BYTES:
        raise FeatureError(f"feature cache {path} has {len(buf)} bytes, "
                           f"shorter than its {CACHE_HEADER_BYTES}-byte header")
    if buf[:4] != CACHE_MAGIC:
        raise FeatureError(f"bad feature cache magic in {path}: {buf[:4]!r}")
    version, code, n_frames, n_bins, label = _CACHE_HEADER.unpack_from(buf, 4)
    if version != CACHE_VERSION:
        raise FeatureError(f"unsupported feature cache version {version}")
    if code not in _KIND_NAMES:
        raise FeatureError(f"unknown feature kind code {code} in {path}")
    expected = CACHE_HEADER_BYTES + 4 * n_frames * n_bins
    if len(buf) != expected:
        raise FeatureError(f"feature cache {path} has {len(buf)} bytes, expected {expected}")
    data = np.frombuffer(buf, dtype="<f4", count=n_frames * n_bins, offset=CACHE_HEADER_BYTES)
    return _KIND_NAMES[code], int(label), data.reshape(n_frames, n_bins).copy()
