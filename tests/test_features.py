"""Spectrogram feature extraction: framing, Mel, CQT, normalization, cache.

Every transform takes mono samples, the sample rate, the framing and, for
Mel and CQT, a bank built beforehand; it returns the [n_frames, n_bins]
matrix. Frequency axes come from ``np.fft.rfftfreq`` and ``center_freqs``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl.features import (FeatureError, FrameConfig, build_cqt_kernels,
                          build_mel_filterbank, compute_feature_stats,
                          cqt_frequencies, cqt_spectrogram, frame_count, hann,
                          mel_scale, mel_spectrogram, normalize_features,
                          read_feature_cache, stft, write_feature_cache)

rng = np.random.default_rng(11)


def tone(freq, duration, sr, amp=0.5):
    t = np.arange(int(round(duration * sr))) / sr
    return amp * np.sin(2 * np.pi * freq * t)


# ---------------------------------------------------------------------------
# Mel scale


def test_mel_scale_zero():
    assert mel_scale(0.0) == 0.0


def test_mel_scale_700hz_reference_value():
    # Direct high-precision evaluation: 2595 * log10(2)
    assert math.isclose(mel_scale(700.0), 2595.0 * math.log10(2.0), rel_tol=0, abs_tol=1e-9)
    assert round(mel_scale(700.0), 2) == 781.17


@given(st.floats(0, 5e4), st.floats(1e-6, 5e4))
def test_mel_scale_strictly_increasing(f1, delta):
    assert mel_scale(f1 + delta) > mel_scale(f1)


def test_mel_scale_rejects_negative():
    with pytest.raises(FeatureError):
        mel_scale(-1.0)


# ---------------------------------------------------------------------------
# Framing / STFT


def test_frame_count_formula_30s_paper_framing():
    # 30 s at 50 ms frames / 25 ms shift -> 1199 frames for any sample rate
    for sr in (4000, 16000, 52734):
        cfg = FrameConfig()
        n = frame_count(30 * sr, cfg.frame_samples(sr), cfg.shift_samples(sr))
        assert n == 1199


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 2000), st.integers(1, 400), st.data())
def test_frame_count_formula_property(n_samples, frame, data):
    frame = min(frame, n_samples)
    shift = data.draw(st.integers(1, frame))
    assert frame_count(n_samples, frame, shift) == (n_samples - frame) // shift + 1


def test_stft_shape_and_tone_localization():
    sr = 4000
    cfg = FrameConfig()
    x = tone(1000.0, 2.0, sr)
    values = stft(x, sr, cfg)
    freqs = np.fft.rfftfreq(cfg.resolve_fft_size(sr), d=1.0 / sr)
    assert values.shape == (frame_count(x.size, 200, 100), freqs.size)
    peaks = freqs[np.argmax(values, axis=1)]
    assert np.all(np.abs(peaks - 1000.0) <= freqs[1] - freqs[0])


def test_stft_parseval_against_time_domain_sum():
    sr = 4000
    cfg = FrameConfig()
    x = rng.standard_normal(sr)
    values = stft(x, sr, cfg)
    frame, shift, nfft = cfg.frame_samples(sr), cfg.shift_samples(sr), cfg.resolve_fft_size(sr)
    w = hann(frame)
    for k in (0, 7, values.shape[0] - 1):
        xw = x[k * shift: k * shift + frame] * w
        mags = values[k]
        # reconstruct the full-spectrum energy from the one-sided magnitudes
        full = mags[0] ** 2 + mags[-1] ** 2 + 2 * np.sum(mags[1:-1] ** 2)
        time_energy = np.sum(xw ** 2)
        assert abs(full / nfft - time_energy) <= 1e-6 * time_energy


def test_stft_rejects_short_segment():
    with pytest.raises(FeatureError, match="shorter"):
        stft(np.zeros(10), 4000, FrameConfig())


# ---------------------------------------------------------------------------
# Mel filterbank and spectrogram


def test_mel_filterbank_centers_uniform_on_mel_axis():
    bank = build_mel_filterbank(48, FrameConfig(fft_size=256), 2000)
    spacing = np.diff(mel_scale(bank.center_freqs))
    assert spacing.max() - spacing.min() < 1e-6


def test_mel_filterbank_low_filters_span_fewer_hz():
    bank = build_mel_filterbank(48, FrameConfig(fft_size=256), 2000)
    spans = [np.ptp(bank.weights[i].nonzero()[0]) for i in (0, 47)]
    assert spans[0] < spans[1]
    # Hz support widths grow with center frequency
    grid = np.diff(bank.center_freqs)
    assert np.all(np.diff(grid) > -1e-9)


def test_mel_filterbank_rows_and_columns():
    for n_filters, sr, fft in [(48, 2000, 256), (300, 16000, 8192)]:
        bank = build_mel_filterbank(n_filters, FrameConfig(fft_size=fft), sr)
        assert bank.weights.shape == (n_filters, fft // 2 + 1)
        assert np.all(bank.weights >= 0)
        assert np.allclose(bank.weights.max(axis=1), 1.0)  # peak 1 per row
        assert np.all(bank.weights.sum(axis=0) <= 2.0)     # exhaustive column scan
        # unimodal rows: nonzero support is one contiguous block around the peak
        for row in bank.weights[:: max(1, n_filters // 10)]:
            support = np.flatnonzero(row)
            assert np.array_equal(support, np.arange(support[0], support[-1] + 1))


def test_mel_filterbank_too_many_filters():
    with pytest.raises(FeatureError, match="exceed"):
        build_mel_filterbank(200, FrameConfig(fft_size=128), 2000)
    with pytest.raises(FeatureError, match="covers no FFT bin"):
        build_mel_filterbank(300, FrameConfig(), 16000)  # fft 1024 too coarse


def test_mel_spectrogram_paper_shape():
    sr = 16000
    cfg = FrameConfig(fft_size=8192)
    x = rng.standard_normal(30 * sr) * 0.1
    bank = build_mel_filterbank(300, cfg, sr)
    assert mel_spectrogram(x, sr, cfg, bank).shape == (1199, 300)


def test_mel_spectrogram_silence_hits_log_floor():
    cfg = FrameConfig(fft_size=256)
    values = mel_spectrogram(np.zeros(2000), 2000, cfg, build_mel_filterbank(12, cfg, 2000))
    assert np.allclose(values, -10.0)


def test_mel_spectrogram_tone_at_center_dominates_band():
    sr = 2000
    cfg = FrameConfig(fft_size=256)
    bank = build_mel_filterbank(24, cfg, sr)
    target = 10
    x = tone(bank.center_freqs[target], 2.0, sr)
    values = mel_spectrogram(x, sr, cfg, bank)
    assert np.all(np.argmax(values, axis=1) == target)
    # oracle: direct filter response to the frame power spectrum
    direct = np.log10(np.square(stft(x, sr, cfg)) @ bank.weights.T + 1e-10)
    assert np.allclose(values, direct, atol=1e-12)


# ---------------------------------------------------------------------------
# CQT


def test_cqt_frequencies_reference_points():
    freqs = cqt_frequencies(100.0, 400.0, 36)
    assert math.isclose(freqs[36], 200.0, rel_tol=1e-15)       # one octave doubles
    assert math.isclose(freqs[1], 100.0 * 2 ** (1 / 36), rel_tol=1e-15)
    assert round(freqs[1], 3) == 101.944
    assert len(freqs) == 73  # floor(36 * log2(4)) + 1


def test_cqt_geometric_spacing_machine_precision():
    freqs = cqt_frequencies(50.0, 7000.0, 36)
    ratios = freqs[1:] / freqs[:-1]
    assert np.all(np.abs(ratios - 2 ** (1 / 36)) < 1e-12)


def test_cqt_invalid_ranges():
    with pytest.raises(FeatureError):
        cqt_frequencies(400.0, 100.0, 36)
    with pytest.raises(FeatureError, match="Nyquist"):
        build_cqt_kernels(FrameConfig(), 2000, f_min=100.0, f_max=1500.0)


def test_cqt_tone_hits_matching_bin():
    sr = 2000
    cfg = FrameConfig(fft_size=512)
    bank = build_cqt_kernels(cfg, sr, f_min=100.0, f_max=900.0, bins_per_octave=24)
    k = len(bank.center_freqs) // 2
    values = cqt_spectrogram(tone(bank.center_freqs[k], 1.0, sr), sr, cfg, bank)
    assert np.all(np.argmax(values, axis=1) == k)


def test_cqt_zero_segment_is_zero():
    cfg = FrameConfig(fft_size=256)
    bank = build_cqt_kernels(cfg, 2000, f_min=150.0, f_max=900.0, bins_per_octave=12)
    assert np.all(cqt_spectrogram(np.zeros(2000), 2000, cfg, bank) == 0.0)


def test_cqt_octave_rejection_with_time_domain_oracle():
    sr = 2000
    cfg = FrameConfig(fft_size=512)
    bins_per_octave = 24
    bank = build_cqt_kernels(cfg, sr, f_min=100.0, f_max=900.0, bins_per_octave=bins_per_octave)
    k = len(bank.center_freqs) // 2
    fk = bank.center_freqs[k]
    own = cqt_spectrogram(tone(fk, 1.0, sr), sr, cfg, bank)
    away = cqt_spectrogram(tone(2 * fk, 1.0, sr), sr, cfg, bank)
    assert own[:, k].mean() / away[:, k].mean() > 10

    # oracle: the frame value equals the direct time-domain inner product
    frame_n = cfg.frame_samples(sr)
    nfft = cfg.resolve_fft_size(sr)
    xw = tone(fk, 1.0, sr)[:frame_n] * hann(frame_n)
    q = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)  # constant Q: n_k spans q periods of fk
    n_k = min(math.ceil(q * sr / fk), nfft)
    kern = hann(n_k) * np.exp(2j * np.pi * fk * np.arange(n_k) / sr)
    kern /= np.abs(kern).sum()
    padded = np.zeros(nfft, dtype=complex)
    padded[:n_k] = kern
    x_padded = np.zeros(nfft)
    x_padded[:frame_n] = xw
    oracle = abs(np.vdot(padded, x_padded))
    assert abs(oracle - own[0, k]) < 1e-12


@pytest.mark.parametrize("sample_rate, fft_size", [(4000, 256), (2000, 512)])
@pytest.mark.parametrize("kind", ["mel", "cqt"])
def test_bank_mismatch_detected(kind, sample_rate, fft_size):
    cfg = FrameConfig(fft_size=256)
    if kind == "mel":
        spectrogram, bank = mel_spectrogram, build_mel_filterbank(12, cfg, 2000)
    else:
        spectrogram, bank = cqt_spectrogram, build_cqt_kernels(cfg, 2000, f_min=150.0,
                                                               f_max=900.0, bins_per_octave=12)
    with pytest.raises(FeatureError, match="different sample rate or FFT size"):
        spectrogram(np.zeros(4000), sample_rate, FrameConfig(fft_size=fft_size), bank)


# ---------------------------------------------------------------------------
# Normalization and cache


def test_normalize_train_set_standardizes():
    arrays = [rng.standard_normal((20, 6)) * 3.0 + 5.0 for _ in range(4)]
    stats = compute_feature_stats(np.stack(arrays), "mel")
    normalized = np.concatenate([normalize_features(stats, a).reshape(-1) for a in arrays])
    assert abs(normalized.mean()) < 1e-6
    assert abs(normalized.std() - 1.0) < 1e-6


def test_normalize_constant_input_with_floored_std():
    arrays = [np.full((4, 4), 2.5)]
    stats = compute_feature_stats(np.stack(arrays), "cqt")
    assert stats.std == 1e-8
    assert np.all(normalize_features(stats, arrays[0]) == 0.0)


def test_normalize_is_pure_affine_on_heldout_data():
    train = [rng.standard_normal((10, 5)) for _ in range(3)]
    stats = compute_feature_stats(np.stack(train), "mel")
    val = rng.standard_normal((10, 5))
    out = normalize_features(stats, val)
    corr = np.corrcoef(val.reshape(-1), out.reshape(-1))[0, 1]
    assert abs(corr - 1.0) < 1e-12


def test_feature_cache_roundtrip_bit_exact(tmp_path):
    values = rng.standard_normal((59, 13)).astype(np.float32)
    path = tmp_path / "seg.iclf"
    write_feature_cache(path, values, "cqt", label=3)
    kind, label, loaded = read_feature_cache(path)
    assert kind == "cqt" and label == 3
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded.view(np.uint32), values.view(np.uint32))  # bit equality


def test_feature_cache_rejects_corruption(tmp_path):
    path = tmp_path / "seg.iclf"
    write_feature_cache(path, np.ones((3, 4), dtype=np.float32), "mel", 0)
    blob = path.read_bytes()
    (tmp_path / "bad_magic.iclf").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FeatureError, match="magic"):
        read_feature_cache(tmp_path / "bad_magic.iclf")
    (tmp_path / "short.iclf").write_bytes(blob[:-4])
    with pytest.raises(FeatureError, match="bytes"):
        read_feature_cache(tmp_path / "short.iclf")


@pytest.mark.parametrize("length", range(19))
def test_feature_cache_rejects_truncated_header(tmp_path, length):
    path = tmp_path / "seg.iclf"
    write_feature_cache(path, np.ones((3, 4), dtype=np.float32), "mel", 0)
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(FeatureError, match="header"):
        read_feature_cache(path)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_feature_cache_refuses_nonfinite_values(tmp_path, bad):
    with pytest.raises(FeatureError, match="non-finite"):
        write_feature_cache(tmp_path / "seg.iclf", np.array([[1.0, bad]]), "mel", 0)
    assert not (tmp_path / "seg.iclf").exists()
