"""Deterministic synthetic fixtures: waveform events and feature clouds.

The waveform surrogate is not physiological. A false-alarm event is two
harmonic "ECG" channels plus one pulsatile channel with additive noise;
a true-alarm event adds a fast oscillation burst (3-8 Hz, i.e. well
above 100 cycles/min) from the alarm onset onward, with amplitude
proportional to the separability knob. Every event also carries a
single-sample impulse at the onset so window-extraction tests can
locate the alarm by argmax; tests relying on that uniqueness assume
separability <= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import workers
from .errors import InvalidConfig, check_count
from .rng import STREAM_SYNTH, derive_rng
from .wfdb_io import (
    FMT16,
    POST_ALARM_S,
    PRE_ALARM_S,
    RecordHeader,
    SignalSpec,
    WaveformRecord,
    save_record,
    write_alarm_index,
)

DURATION_S = 420.0
# Seconds between an alarm window and either end of its record.
ALARM_MARGIN_S = 5.0
MARKER_AMPLITUDE = 5.0
NOISE_STD = 0.05
BURST_AMPLITUDE_PER_SEPARABILITY = 0.75


@dataclass(frozen=True)
class SynthConfig:
    n_events: int = 100
    class_ratio: float = 0.3
    fs: float = 50.0
    separability: float = 2.0
    seed: int = 0

    def __post_init__(self):
        check_count("n_events", self.n_events)
        if not 0.0 < self.class_ratio < 1.0:
            raise InvalidConfig(f"class_ratio must be in (0, 1), got {self.class_ratio}")
        if not 50 <= self.fs <= 1000:  # VTaC records are 250 Hz; also refuses NaN
            raise InvalidConfig(f"fs must be in [50, 1000] Hz, got {self.fs}")
        if not 0 <= self.separability < np.inf:  # also refuses NaN
            raise InvalidConfig(f"separability must be finite and >= 0, got {self.separability}")


def _event_rng(config: SynthConfig, event_index: int) -> np.random.Generator:
    # index 0 is reserved for corpus-level draws (label order)
    return derive_rng(config.seed, STREAM_SYNTH, index=event_index + 1)


def generate_waveform_event(
    config: SynthConfig, label: int, event_index: int = 0
) -> tuple[WaveformRecord, float]:
    """One 420 s three-channel record plus its alarm time.

    Channels: two harmonic-series channels (base rate 1.0-1.4 Hz, three
    harmonics), one pulsatile channel. The alarm lands between 305 s and
    355 s, so the surrounding 5+1 minute window fits with ``ALARM_MARGIN_S``
    to spare at either end. Identical
    (config, label, event_index) reproduce the record bit for bit.
    """
    if label not in (0, 1):
        raise InvalidConfig(f"label must be 0 or 1, got {label}")
    rng = _event_rng(config, event_index)
    fs = config.fs
    n = int(round(DURATION_S * fs))
    t = np.arange(n) / fs

    base_hz = rng.uniform(1.0, 1.4)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    alarm_time = rng.uniform(PRE_ALARM_S + ALARM_MARGIN_S, DURATION_S - POST_ALARM_S - ALARM_MARGIN_S)
    onset = int(round(alarm_time * fs))

    channels = []
    for ch in range(2):
        ecg = np.zeros(n)
        for harmonic, amp in enumerate((1.0, 0.4, 0.2), start=1):
            ecg += amp * np.sin(2.0 * np.pi * harmonic * base_hz * t + harmonic * phases[ch])
        channels.append(ecg)
    pulse = 1.2 * np.abs(np.sin(np.pi * base_hz * t + phases[2])) ** 3
    channels.append(pulse)

    if label == 1 and config.separability > 0:
        burst_hz = rng.uniform(3.0, 8.0)
        burst_amp = BURST_AMPLITUDE_PER_SEPARABILITY * config.separability
        burst = burst_amp * np.sin(2.0 * np.pi * burst_hz * t[: n - onset])
        for ch in range(2):
            channels[ch][onset:] += burst

    samples = np.stack(channels, axis=1)
    samples += rng.normal(0.0, NOISE_STD, size=samples.shape)
    samples[onset, :] += MARKER_AMPLITUDE

    record_id = f"ev{event_index:05d}"
    header = RecordHeader(
        record_name=record_id,
        sampling_frequency=fs,
        n_samples=n,
        signals=[
            SignalSpec(file_name=f"{record_id}.dat", storage_format=FMT16, description=desc)
            for desc in ("ECG lead I", "ECG lead II", "PLETH")
        ],
    )
    record = WaveformRecord(
        header=header, samples=samples, missing_mask=np.zeros(samples.shape, dtype=bool)
    )
    return record, float(alarm_time)


def _shuffled_labels(n: int, class_ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Exactly round(n * class_ratio) ones and the rest zeros, in the order one
    ``rng.permutation`` draws; refuses a ratio that leaves a single class."""
    n_true = int(round(n * class_ratio))
    if n_true == 0 or n_true == n:
        raise InvalidConfig(f"class_ratio {class_ratio} leaves a single class at n={n}")
    return rng.permutation(np.concatenate([np.ones(n_true, dtype=np.int64), np.zeros(n - n_true, dtype=np.int64)]))


def corpus_labels(config: SynthConfig) -> np.ndarray:
    """Event labels with exactly round(n_events * class_ratio) true alarms,
    in a seed-determined order."""
    return _shuffled_labels(config.n_events, config.class_ratio, derive_rng(config.seed, STREAM_SYNTH, index=0))


def generate_corpus(config: SynthConfig, out_dir: str | Path) -> list[tuple[str, float, int]]:
    """Write every event's .hea/.dat pair plus the alarms.csv sidecar.

    Each event is one item of :func:`workers.run`: it draws from its own
    stream, so no file's bytes depend on the number of workers, and a
    failing event raises the error a serial loop would. Returns the
    (record_id, alarm_time, label) event list in file order.
    """
    labels = corpus_labels(config)  # refuses a single-class corpus before anything is written
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events = [None] * len(labels)

    def event(_, i: int) -> None:
        record, alarm_time = generate_waveform_event(config, int(labels[i]), i)
        save_record(out_dir, record, fmt=FMT16)
        events[i] = (record.header.record_name, alarm_time, int(labels[i]))

    workers.run(len(labels), lambda: None, event)
    write_alarm_index(out_dir / "alarms.csv", events)
    return events


def generate_feature_dataset(
    n: int, d: int, separability: float, class_ratio: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-covariance Gaussian classes whose means sit ``separability``
    apart along a random unit direction. Exactly round(n * class_ratio)
    rows are labeled 1; row order is a seed-determined shuffle.
    """
    if check_count("n", n) < 20:
        raise InvalidConfig(f"need n >= 20, got {n}")
    if check_count("d", d) < 2:
        raise InvalidConfig(f"need d >= 2, got {d}")
    if not 0.0 < class_ratio < 1.0:
        raise InvalidConfig(f"class_ratio must be in (0, 1), got {class_ratio}")
    if not 0 <= separability < np.inf:
        raise InvalidConfig(f"separability must be finite and >= 0, got {separability}")

    rng = derive_rng(seed, STREAM_SYNTH)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    labels = _shuffled_labels(n, class_ratio, rng)
    features = rng.normal(size=(n, d))
    features[labels == 1] += separability * direction
    return features, labels


__all__ = [
    "SynthConfig",
    "DURATION_S",
    "ALARM_MARGIN_S",
    "MARKER_AMPLITUDE",
    "generate_waveform_event",
    "corpus_labels",
    "generate_corpus",
    "generate_feature_dataset",
]
