"""WAV I/O, synthetic tracks, segmentation, and track-disjoint splits."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icl import audio, wavio
from icl.audio import (AudioError, AudioTrack, SplitError, SynthesisSpec,
                       load_wav, segment_tracks, split_track_disjoint,
                       synthesize_dataset, synthesize_track)


def make_spec(**overrides) -> SynthesisSpec:
    base = dict(
        n_classes=2, line_freqs=[[60.0, 95.0], [75.0, 110.0]], mod_rates=[4.0, 8.0],
        mod_depth=0.8, carrier_band=(400.0, 900.0), snr_db=10.0, tracks_per_class=3,
        track_duration=4.0, sample_rate=2000, seed=9)
    base.update(overrides)
    return SynthesisSpec(**base)


# ---------------------------------------------------------------------------
# WAV I/O


def test_int16_scaling(tmp_path):
    path = tmp_path / "a.wav"
    ints = np.array([0, 16384, -16384], dtype="<i2")
    wavio.write_wav(path, ints / 32768.0, 8000)
    track = load_wav(path)
    assert np.array_equal(track.samples, [0.0, 0.5, -0.5])
    assert track.sample_rate == 8000


def test_stereo_averaged_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    frames = np.column_stack([np.full(5, 0.999969482421875), np.zeros(5)])  # 32767/32768
    wavio.write_wav(path, frames, 8000)
    track = load_wav(path)
    assert np.allclose(track.samples, (32767 / 32768) / 2)


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.9, 0.9, 4000)
    written_ints = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int64)
    path = tmp_path / "rt.wav"
    wavio.write_wav(path, x, 2000)
    track = load_wav(path)
    assert np.array_equal(np.round(track.samples * 32768.0).astype(np.int64), written_ints)
    # write the reloaded samples again: files must be identical
    wavio.write_wav(tmp_path / "rt2.wav", track.samples, 2000)
    assert (tmp_path / "rt.wav").read_bytes() == (tmp_path / "rt2.wav").read_bytes()


def test_float32_wav_read(tmp_path):
    samples = np.array([0.25, -0.5, 1.0], dtype="<f4")
    data = samples.tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
                         b"fmt ", 16, 3, 1, 4000, 4000 * 4, 4, 32, b"data", len(data))
    path = tmp_path / "f32.wav"
    path.write_bytes(header + data)
    track = load_wav(path)
    assert np.allclose(track.samples, samples.astype(np.float64))


def test_wav_error_taxonomy(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "missing.wav")

    not_riff = tmp_path / "not.wav"
    not_riff.write_bytes(b"this is not audio at all")
    with pytest.raises(wavio.WavFormatError):
        load_wav(not_riff)

    # compressed format tag (2 = ADPCM)
    data = b"\x00\x00"
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
                         b"fmt ", 16, 2, 1, 8000, 8000, 1, 4, b"data", len(data))
    compressed = tmp_path / "adpcm.wav"
    compressed.write_bytes(header + data)
    with pytest.raises(wavio.WavFormatError, match="format tag 2"):
        load_wav(compressed)

    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36, b"WAVE",
                         b"fmt ", 16, 1, 1, 8000, 16000, 2, 16, b"data", 0)
    empty = tmp_path / "empty.wav"
    empty.write_bytes(header)
    with pytest.raises(wavio.WavEmptyError):
        load_wav(empty)


# ---------------------------------------------------------------------------
# Synthesis


def test_synthesis_deterministic():
    spec = make_spec()
    a = synthesize_dataset(spec)
    b = synthesize_dataset(spec)
    assert len(a) == len(b) == 6
    for ta, tb in zip(a, b):
        assert ta.track_id == tb.track_id and ta.label == tb.label
        assert np.array_equal(ta.samples, tb.samples)


def test_pure_line_dominates_spectrum_at_infinite_snr():
    spec = make_spec(n_classes=1, line_freqs=[[100.0]], mod_rates=[5.0],
                     mod_depth=0.0, snr_db=math.inf, tracks_per_class=1)
    track = synthesize_track(spec, 0, 0)
    mags = np.abs(np.fft.rfft(track.samples))
    freqs = np.fft.rfftfreq(track.samples.size, 1.0 / spec.sample_rate)
    assert freqs[np.argmax(mags)] == pytest.approx(100.0, abs=0.5)
    assert np.abs(track.samples).max() <= 0.95 + 1e-12


def test_lowest_snr_still_synthesizes_finite_tracks():
    tracks = synthesize_dataset(make_spec(snr_db=-200, tracks_per_class=1))
    assert all(np.all(np.isfinite(t.samples)) and np.abs(t.samples).max() <= 0.95 + 1e-12
               for t in tracks)


def test_envelope_rate_recoverable_by_rectify_and_fft():
    spec = make_spec(n_classes=1, line_freqs=[[100.0]], mod_rates=[5.0],
                     mod_depth=0.8, snr_db=30.0, tracks_per_class=1, track_duration=8.0)
    track = synthesize_track(spec, 0, 0)
    # oracle: band-pass to the carrier band, rectify, FFT the envelope
    spectrum = np.fft.rfft(track.samples)
    freqs = np.fft.rfftfreq(track.samples.size, 1.0 / spec.sample_rate)
    spectrum[(freqs < 400.0) | (freqs > 900.0)] = 0.0
    envelope = np.abs(np.fft.irfft(spectrum, track.samples.size))
    envelope -= envelope.mean()
    emag = np.abs(np.fft.rfft(envelope))
    efreqs = np.fft.rfftfreq(envelope.size, 1.0 / spec.sample_rate)
    band = (efreqs > 0.5) & (efreqs < 20.0)
    assert efreqs[band][np.argmax(emag[band])] == pytest.approx(5.0, abs=0.2)


def test_synthesis_spec_validation():
    with pytest.raises(AudioError):
        make_spec(n_classes=0, line_freqs=[], mod_rates=[])
    with pytest.raises(AudioError, match="below the carrier"):
        make_spec(line_freqs=[[450.0], [60.0]])
    with pytest.raises(AudioError, match="depth"):
        make_spec(mod_depth=1.5)
    with pytest.raises(AudioError, match="duration"):
        make_spec(track_duration=0.0)
    for field, bad, message in [
            ("snr_db", math.nan, "snr_db must be a finite number, got nan"),
            ("snr_db", -math.inf, "snr_db must be a finite number, got -inf"),
            ("snr_db", -200.5, r"snr_db must be >= -200 or \+inf, got -200.5"),
            ("n_classes", 2.0, "n_classes must be an integer, got 2.0"),
            ("seed", True, "seed must be an integer, got True"),
            ("line_gain", "1", "line_gain must be a finite number, got '1'"),
            ("line_freqs", [[60.0], 95.0], r"line_freqs\[1\] must be a list of finite numbers"),
            ("line_freqs", 60.0, "line_freqs must be a list of lists, got 60.0"),
            ("mod_rates", [4.0, math.nan], "mod_rates must be a list of finite numbers"),
            ("carrier_band", (400.0,), r"carrier_band \(400.0,\) invalid")]:
        with pytest.raises(AudioError, match=message):
            make_spec(**{field: bad})


def test_synthesis_spec_stores_reals_as_float():
    spec = make_spec(line_freqs=[[60, 95], [75, 110]], mod_rates=[4, 8], carrier_band=[400, 900],
                     snr_db=10, track_duration=4)
    assert spec.line_freqs == [[60.0, 95.0], [75.0, 110.0]] and spec.carrier_band == (400.0, 900.0)
    assert all(type(v) is float for v in (*spec.line_freqs[0], *spec.mod_rates, *spec.carrier_band,
                                          spec.snr_db, spec.track_duration, spec.mod_depth))
    assert make_spec(snr_db=math.inf).snr_db == math.inf


def test_track_invariants():
    with pytest.raises(AudioError, match="non-empty"):
        AudioTrack("t", np.array([]), 8000, 0)
    with pytest.raises(AudioError, match="positive"):
        AudioTrack("t", np.ones(4), 0, 0)
    with pytest.raises(AudioError, match="finite"):
        AudioTrack("t", np.array([1.0, np.nan]), 8000, 0)


# ---------------------------------------------------------------------------
# Segmentation


def track_of(duration, sr=1000, tid="t0", label=0):
    return AudioTrack(tid, np.ones(int(duration * sr)) * 0.1, sr, label)


def test_segment_exact_fit():
    segs, skipped = segment_tracks([track_of(30)], 30.0, 15.0)
    assert len(segs) == 1 and skipped == 0
    assert segs[0].offset == 0.0 and segs[0].samples.size == 30 * 1000


def test_segment_60s_gives_three_offsets():
    segs, skipped = segment_tracks([track_of(60)], 30.0, 15.0)
    assert [s.offset for s in segs] == [0.0, 15.0, 30.0]  # floor((60-30)/15)+1 = 3
    assert skipped == 0


def test_segment_too_short_is_skipped():
    segs, skipped = segment_tracks([track_of(29)], 30.0, 15.0)
    assert segs == [] and skipped == 1


def test_segment_invalid_overlap():
    with pytest.raises(AudioError):
        segment_tracks([track_of(30)], 30.0, 30.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 60.0), st.floats(0.5, 10.0), st.data())
def test_segment_count_matches_formula(duration, seg_len, data):
    overlap = data.draw(st.floats(0.0, seg_len * 0.9))
    sr = 100
    segs, skipped = segment_tracks([track_of(duration, sr=sr)], seg_len, overlap)
    n = int(duration * sr)
    seg_n = int(round(seg_len * sr))
    hop_n = int(round((seg_len - overlap) * sr))
    expected = (n - seg_n) // hop_n + 1 if n >= seg_n else 0
    assert len(segs) == expected
    assert skipped == (1 if expected == 0 else 0)


# ---------------------------------------------------------------------------
# Track-disjoint splitting


def many_segments(tracks_per_class=10, classes=2, segs_per_track=4):
    segs = []
    for label in range(classes):
        for t in range(tracks_per_class):
            tid = f"c{label}t{t}"
            for k in range(segs_per_track):
                segs.append(audio.AudioSegment(tid, float(k), np.ones(100) * 0.1, label, 100))
    return segs


def test_split_counts_for_ten_tracks():
    assign = split_track_disjoint(many_segments(), (0.7, 0.15, 0.15), seed=0)
    for label in (0, 1):
        counts = [len({s.parent_track_id for s in split if s.label == label})
                  for split in (assign.train, assign.val, assign.test)]
        assert counts in ([7, 1, 2], [7, 2, 1])


def test_split_is_track_disjoint_and_complete():
    assign = split_track_disjoint(many_segments(), (0.7, 0.15, 0.15), seed=3)
    train, val, test = (assign.track_ids(s) for s in ("train", "val", "test"))
    assert not (train & val) and not (train & test) and not (val & test)
    assert len(assign.train) + len(assign.val) + len(assign.test) == 80
    # every segment of a track follows the track
    for split_segs, ids in ((assign.train, train), (assign.val, val), (assign.test, test)):
        assert {s.parent_track_id for s in split_segs} == ids


def test_split_deterministic_per_seed():
    a = split_track_disjoint(many_segments(), (0.7, 0.15, 0.15), seed=5)
    b = split_track_disjoint(many_segments(), (0.7, 0.15, 0.15), seed=5)
    c = split_track_disjoint(many_segments(), (0.7, 0.15, 0.15), seed=6)
    assert [s.parent_track_id for s in a.train] == [s.parent_track_id for s in b.train]
    assert [s.parent_track_id for s in a.train] != [s.parent_track_id for s in c.train]


def test_split_minimum_three_tracks_per_split():
    segs = many_segments(tracks_per_class=3)
    assign = split_track_disjoint(segs, (0.7, 0.15, 0.15), seed=1)
    for split in ("train", "val", "test"):
        assert len(assign.track_ids(split)) == 2  # one track per class per split


def test_split_error_names_starved_class():
    segs = many_segments(tracks_per_class=4, classes=1)
    starved = [audio.AudioSegment(f"solo{t}", 0.0, np.ones(10) * 0.1, 7, 10)
               for t in range(2)]
    with pytest.raises(SplitError, match="class 7"):
        split_track_disjoint(segs + starved, (0.7, 0.15, 0.15), seed=0)


def test_split_ratio_validation():
    segs = many_segments()
    with pytest.raises(SplitError, match="sum to 1"):
        split_track_disjoint(segs, (0.7, 0.2, 0.2), seed=0)
    with pytest.raises(SplitError, match="positive"):
        split_track_disjoint(segs, (1.0, 0.0, 0.0), seed=0)


# ---------------------------------------------------------------------------
# Manifest round-trip


def test_manifest_roundtrip_with_wavs(tmp_path):
    spec = make_spec()
    tracks = synthesize_dataset(spec)
    entries = []
    for tr in tracks:
        rel = f"{tr.track_id}.wav"
        wavio.write_wav(tmp_path / rel, tr.samples, tr.sample_rate)
        entries.append({"track_id": tr.track_id, "path": rel, "label": tr.label})
    audio.write_manifest(tmp_path / "manifest.json", entries, synthesis=spec)
    loaded = audio.load_manifest(tmp_path / "manifest.json")
    assert [t.track_id for t in loaded] == [t.track_id for t in tracks]
    assert all(t.label == o.label for t, o in zip(loaded, tracks))

