"""Audio ingestion, synthetic ship-noise generation, segmentation, splits.

Synthetic tracks combine the two cues the recognizer is built around:
a set of low-frequency tonal lines (machinery "line spectrum") and
band-limited high-frequency noise whose envelope is sinusoidally
amplitude-modulated (propeller-style cavitation modulation), plus white
noise at a configurable SNR. Each class gets its own line layout and
modulation rate, so the low-band cue and the envelope-rate cue carry
complementary information.

Dataset splitting is by parent track, never by segment: all segments of
one recording land in the same split.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import wavio
from .errors import IclError, is_finite, is_int, read_json, write_json
from .features import MAX_LABEL


class AudioError(IclError):
    pass


class SplitError(AudioError):
    pass


@dataclass
class AudioTrack:
    """Mono recording with a stable identity used for disjoint splitting."""

    track_id: str
    samples: np.ndarray
    sample_rate: int
    label: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise AudioError(f"track {self.track_id}: samples must be a non-empty 1-D array")
        if self.sample_rate <= 0:
            raise AudioError(f"track {self.track_id}: sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise AudioError(f"track {self.track_id}: non-finite samples")


@dataclass
class AudioSegment:
    """Fixed-length window cut from a parent track."""

    parent_track_id: str
    offset: float
    samples: np.ndarray
    label: int
    sample_rate: int

    @property
    def segment_id(self) -> str:
        return f"{self.parent_track_id}_o{int(round(self.offset * 1000))}"


@dataclass
class SplitAssignment:
    train: list[AudioSegment]
    val: list[AudioSegment]
    test: list[AudioSegment]

    def track_ids(self, split: str) -> set[str]:
        return {s.parent_track_id for s in getattr(self, split)}


@dataclass
class SynthesisSpec:
    """Generator parameters for the synthetic ship-noise dataset.

    line_freqs holds one list of tonal frequencies per class (the low
    band); mod_rates one envelope rate per class. All line frequencies
    must sit below the carrier band so the two cues stay in separate
    frequency regions. The fields check their own types and store reals
    as float; snr_db is at least -200, or +inf for noise-free tracks.
    """

    n_classes: int
    line_freqs: list[list[float]]
    mod_rates: list[float]
    mod_depth: float
    carrier_band: tuple[float, float]
    snr_db: float
    tracks_per_class: int
    track_duration: float
    sample_rate: int
    seed: int
    line_gain: float = 1.0
    carrier_gain: float = 1.0

    def __post_init__(self):
        for name in ("n_classes", "tracks_per_class", "sample_rate", "seed"):
            if not is_int(getattr(self, name)):
                raise AudioError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("mod_depth", "snr_db", "track_duration", "line_gain", "carrier_gain"):
            value = getattr(self, name)
            if not (is_finite(value) or name == "snr_db" and value == math.inf):
                raise AudioError(f"{name} must be a finite number, got {value!r}")
            setattr(self, name, float(value))
        if self.snr_db < -200:  # the noise gain 10^(-snr_db/20) must stay a finite float
            raise AudioError(f"snr_db must be >= -200 or +inf, got {self.snr_db!r}")
        if not isinstance(self.line_freqs, (list, tuple)):
            raise AudioError(f"line_freqs must be a list of lists, got {self.line_freqs!r}")
        self.line_freqs = [_reals(f"line_freqs[{i}]", fs) for i, fs in enumerate(self.line_freqs)]
        self.mod_rates = _reals("mod_rates", self.mod_rates)
        self.carrier_band = tuple(_reals("carrier_band", self.carrier_band))
        if self.n_classes < 1 or len(self.line_freqs) != self.n_classes \
                or len(self.mod_rates) != self.n_classes:
            raise AudioError(f"n_classes {self.n_classes} must be >= 1 and equal the number of "
                             "line_freqs and of mod_rates")
        if self.tracks_per_class < 1 or self.track_duration <= 0:
            raise AudioError("tracks_per_class and track_duration must be positive")
        if not 0.0 <= self.mod_depth <= 1.0:
            raise AudioError(f"mod_depth {self.mod_depth} outside [0, 1]")
        if len(self.carrier_band) != 2 \
                or not 0 < self.carrier_band[0] < self.carrier_band[1] <= self.sample_rate / 2:
            raise AudioError(f"carrier_band {self.carrier_band} invalid for sr {self.sample_rate}")
        lo = self.carrier_band[0]
        if any(f >= lo for freqs in self.line_freqs for f in freqs):
            raise AudioError("line_freqs must lie below the carrier band")
        if any(r >= lo / 4 for r in self.mod_rates):
            raise AudioError("mod_rates must be far below the carrier frequencies")


def _reals(name: str, values) -> list[float]:
    if not (isinstance(values, (list, tuple)) and all(map(is_finite, values))):
        raise AudioError(f"{name} must be a list of finite numbers, got {values!r}")
    return [float(v) for v in values]


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def synthesize_track(spec: SynthesisSpec, label: int, index: int) -> AudioTrack:
    """One track, fully determined by (spec.seed, label, index)."""
    rng = np.random.default_rng([spec.seed, label, index])
    n = int(round(spec.track_duration * spec.sample_rate))
    t = np.arange(n) / spec.sample_rate

    lines = np.zeros(n)
    freqs = spec.line_freqs[label]
    amps = rng.uniform(0.8, 1.2, size=len(freqs))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(freqs))
    for f, a, ph in zip(freqs, amps, phases):
        lines += a * np.sin(2.0 * np.pi * f * t + ph)

    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    bin_freqs = np.fft.rfftfreq(n, d=1.0 / spec.sample_rate)
    lo, hi = spec.carrier_band
    spectrum[(bin_freqs < lo) | (bin_freqs > hi)] = 0.0
    carrier = np.fft.irfft(spectrum, n)
    envelope = 1.0 + spec.mod_depth * np.sin(
        2.0 * np.pi * spec.mod_rates[label] * t + rng.uniform(0.0, 2.0 * np.pi))
    modulated = carrier * envelope

    clean = np.zeros(n)
    if freqs:
        clean += spec.line_gain * lines / max(_rms(lines), 1e-12)
    clean += spec.carrier_gain * modulated / max(_rms(modulated), 1e-12)

    noise = rng.standard_normal(n)
    if math.isinf(spec.snr_db):
        sigma = 0.0
    else:
        sigma = _rms(clean) * 10.0 ** (-spec.snr_db / 20.0)
    x = clean + sigma * noise
    x *= 0.95 / max(np.abs(x).max(), 1e-12)
    return AudioTrack(f"synth_c{label}_t{index}", x, spec.sample_rate, label)


def synthesize_dataset(spec: SynthesisSpec) -> list[AudioTrack]:
    """All tracks for the spec; deterministic given the seed."""
    return [synthesize_track(spec, label, idx)
            for label in range(spec.n_classes)
            for idx in range(spec.tracks_per_class)]


# ---------------------------------------------------------------------------
# Loading


def load_wav(path, track_id: str | None = None, label: int = -1) -> AudioTrack:
    """Load a WAV file as a mono track (multichannel averaged to mono)."""
    samples, rate = wavio.read_wav(path)
    mono = samples.mean(axis=1)
    tid = track_id if track_id is not None else Path(path).stem
    return AudioTrack(tid, mono, rate, label)


def write_manifest(path, entries: list[dict], synthesis: SynthesisSpec | None = None) -> None:
    """JSON manifest: per-track {track_id, path, label} records, the path
    relative to the manifest; a synthesized set records its spec too."""
    doc = {"tracks": entries}
    if synthesis is not None:
        doc["synthesis_spec"] = asdict(synthesis)
    write_json(path, doc)


def _manifest_entry(e: dict, root: Path) -> tuple:
    if not (is_int(e["label"]) and 0 <= e["label"] <= MAX_LABEL):
        raise AudioError(f"track {e['track_id']!r}: label must be an integer in "
                         f"[0, {MAX_LABEL}], got {e['label']!r}")
    return e["track_id"], e["label"], root / e["path"]


def load_manifest(path) -> list[AudioTrack]:
    """Load every track of a manifest from its WAV file."""
    path = Path(path)
    entries = read_json(path, lambda doc: [_manifest_entry(e, path.parent) for e in doc["tracks"]])
    return [load_wav(wav, track_id=track_id, label=label) for track_id, label, wav in entries]


# ---------------------------------------------------------------------------
# Segmentation and splitting


def segment_tracks(tracks: list[AudioTrack], segment_len: float,
                   overlap: float) -> tuple[list[AudioSegment], int]:
    """Cut tracks into fixed windows; returns (segments, n_skipped_tracks).

    Hop = segment_len - overlap; a trailing remainder shorter than a full
    segment is discarded. Tracks shorter than one segment are skipped and
    counted.
    """
    for name, value in (("segment_len", segment_len), ("overlap", overlap)):
        if not is_finite(value):
            raise AudioError(f"{name} must be a finite number, got {value!r}")
    if not 0 <= overlap < segment_len:
        raise AudioError(f"overlap {overlap} must be in [0, segment_len {segment_len})")
    segments: list[AudioSegment] = []
    skipped = 0
    for track in tracks:
        seg_n = int(round(segment_len * track.sample_rate))
        hop_n = max(1, int(round((segment_len - overlap) * track.sample_rate)))
        if track.samples.size < seg_n:
            skipped += 1
            continue
        count = (track.samples.size - seg_n) // hop_n + 1
        for i in range(count):
            start = i * hop_n
            segments.append(AudioSegment(
                parent_track_id=track.track_id,
                offset=start / track.sample_rate,
                samples=track.samples[start: start + seg_n],
                label=track.label,
                sample_rate=track.sample_rate))
    return segments, skipped


def _allocate_counts(n: int, ratios: tuple[float, float, float]) -> list[int]:
    """Split n tracks into three counts closest to the ratios, each >= 1."""
    exact = [r * n for r in ratios]
    counts = [int(math.floor(e)) for e in exact]
    remainders = [e - c for e, c in zip(exact, counts)]
    for _ in range(n - sum(counts)):
        i = max(range(3), key=lambda j: (remainders[j], -j))
        counts[i] += 1
        remainders[i] = -1.0
    while min(counts) == 0:
        counts[counts.index(max(counts))] -= 1
        counts[counts.index(0)] += 1
    return counts


def split_track_disjoint(segments: list[AudioSegment],
                         ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
                         seed: int = 0) -> SplitAssignment:
    """Assign whole tracks (per class, seeded shuffle) to train/val/test."""
    if len(ratios) != 3 or not all(is_finite(r) and r > 0 for r in ratios):
        raise SplitError(f"ratios must be three positive finite numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios must sum to 1, got sum {sum(ratios)!r}")

    by_class: dict[int, list[str]] = {}
    seen: set[str] = set()
    for seg in segments:
        if seg.parent_track_id not in seen:
            seen.add(seg.parent_track_id)
            by_class.setdefault(seg.label, []).append(seg.parent_track_id)

    rng = np.random.default_rng(seed)
    membership: dict[str, int] = {}
    for label in sorted(by_class):
        tids = sorted(by_class[label])
        if len(tids) < 3:
            raise SplitError(
                f"class {label} has only {len(tids)} track(s); at least 3 are needed "
                "to populate train/val/test")
        order = [tids[i] for i in rng.permutation(len(tids))]
        n_train, n_val, _ = _allocate_counts(len(tids), tuple(ratios))
        for i, tid in enumerate(order):
            membership[tid] = 0 if i < n_train else (1 if i < n_train + n_val else 2)

    splits: tuple[list, list, list] = ([], [], [])
    for seg in segments:
        splits[membership[seg.parent_track_id]].append(seg)
    return SplitAssignment(train=splits[0], val=splits[1], test=splits[2])
