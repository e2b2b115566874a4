"""Synthetic corpus generator: determinism, geometry, and class structure."""

import math

import numpy as np
import pytest

from vtalarm.errors import InvalidConfig
from vtalarm.evaluate import roc_auc
from vtalarm.features import SpectralParams, dominant_frequency, welch_psd
from vtalarm.synth import (
    DURATION_S,
    MARKER_AMPLITUDE,
    SynthConfig,
    corpus_labels,
    generate_corpus,
    generate_feature_dataset,
    generate_waveform_event,
)
from vtalarm.wfdb_io import load_record, read_alarm_index


def test_event_is_bit_reproducible(tmp_path):
    config = SynthConfig(n_events=4, seed=42)
    rec_a, time_a = generate_waveform_event(config, 1, event_index=2)
    rec_b, time_b = generate_waveform_event(config, 1, event_index=2)
    assert time_a == time_b
    assert np.array_equal(rec_a.samples, rec_b.samples)
    # and a different event index gives a different draw
    rec_c, _ = generate_waveform_event(config, 1, event_index=3)
    assert not np.array_equal(rec_a.samples, rec_c.samples)


def test_event_geometry():
    config = SynthConfig(n_events=4, fs=62.5, seed=1)
    record, alarm_time = generate_waveform_event(config, 0)
    assert record.samples.shape == (int(DURATION_S * 62.5), 3)
    assert record.header.sampling_frequency == 62.5
    assert 305.0 <= alarm_time <= 355.0
    assert not record.missing_mask.any()


@pytest.mark.parametrize("label", [0, 1])
def test_marker_lands_on_the_alarm_sample(label):
    config = SynthConfig(n_events=4, separability=2.0, seed=9)
    record, alarm_time = generate_waveform_event(config, label, event_index=1)
    onset = int(round(alarm_time * config.fs))
    # the pulse channel is bounded well below the marker amplitude
    assert int(np.argmax(record.samples[:, 2])) == onset
    assert record.samples[onset, 2] > MARKER_AMPLITUDE - 1.0


def test_corpus_label_counts_are_exact():
    config = SynthConfig(n_events=40, class_ratio=0.3, seed=5)
    labels = corpus_labels(config)
    assert labels.sum() == 12
    assert len(labels) == 40
    # order is shuffled, not blocked
    assert labels[:12].sum() != 12


def test_corpus_files_round_trip(tmp_path):
    config = SynthConfig(n_events=6, class_ratio=0.5, seed=3)
    events = generate_corpus(config, tmp_path)
    assert len(events) == 6
    assert sum(lbl for _, _, lbl in events) == 3

    recovered = read_alarm_index(tmp_path / "alarms.csv")
    assert recovered == [(rid, pytest.approx(t, abs=1e-6), lbl) for rid, t, lbl in events]

    rid, alarm_time, _ = events[0]
    record = load_record(tmp_path, rid, verify_checksums=True)
    fresh, _ = generate_waveform_event(config, events[0][2], 0)
    assert record.samples.shape == fresh.samples.shape
    # FMT16 quantization bounds the reconstruction error
    assert np.max(np.abs(record.samples - fresh.samples)) < 1e-2


def test_corpus_generation_is_deterministic(tmp_path):
    config = SynthConfig(n_events=4, class_ratio=0.5, seed=17)
    generate_corpus(config, tmp_path / "a")
    generate_corpus(config, tmp_path / "b")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_burst_separates_dominant_frequency():
    # post-onset spectra: true alarms carry a 3-8 Hz burst, controls stay
    # at the 1.0-1.4 Hz base rhythm. A 2.5 Hz cut should split them.
    config = SynthConfig(n_events=4, fs=50.0, separability=2.0, seed=21)
    params = SpectralParams(segment_length=200, overlap=0.5, fs=50.0)
    correct = 0
    total = 120
    for idx in range(total):
        label = idx % 2
        record, alarm_time = generate_waveform_event(config, label, event_index=idx)
        onset = int(round(alarm_time * config.fs))
        post = record.samples[onset + 1 : onset + 1 + int(60 * config.fs), 0]
        psd = welch_psd(post, params)
        dom = dominant_frequency(psd)
        correct += int((dom >= 2.5) == bool(label))
    assert correct / total >= 0.95


def test_feature_dataset_counts_and_shuffle():
    x, y = generate_feature_dataset(100, 5, 2.0, class_ratio=0.25, seed=0)
    assert x.shape == (100, 5)
    assert y.sum() == 25
    assert y[:25].sum() != 25  # shuffled
    x2, y2 = generate_feature_dataset(100, 5, 2.0, class_ratio=0.25, seed=0)
    assert np.array_equal(x, x2) and np.array_equal(y, y2)


def test_feature_dataset_separability_controls_auc():
    # At separation s the two unit-variance classes projected on the true
    # direction differ by s, so the ideal scorer's AUC is Phi(s / sqrt(2)).
    n = 4000
    x0, y0 = generate_feature_dataset(n, 8, 0.0, class_ratio=0.5, seed=11)
    mu1, mu0 = x0[y0 == 1].mean(axis=0), x0[y0 == 0].mean(axis=0)
    auc0 = roc_auc(x0 @ (mu1 - mu0), y0)
    assert abs(auc0 - 0.5) < 0.05

    x4, y4 = generate_feature_dataset(n, 8, 4.0, class_ratio=0.5, seed=11)
    mu1, mu0 = x4[y4 == 1].mean(axis=0), x4[y4 == 0].mean(axis=0)
    auc4 = roc_auc(x4 @ (mu1 - mu0), y4)
    ideal = 0.5 * (1.0 + math.erf((4.0 / math.sqrt(2.0)) / math.sqrt(2.0)))
    assert auc4 == pytest.approx(ideal, abs=0.02)


def test_config_validation():
    for fs in (25.0, 1000.5, 1e300, float("inf"), float("nan")):
        with pytest.raises(InvalidConfig, match="fs"):
            SynthConfig(n_events=10, fs=fs)
    assert SynthConfig(n_events=10, fs=1000.0).fs == 1000.0
    with pytest.raises(InvalidConfig):
        SynthConfig(n_events=10, class_ratio=0.0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_events=10, class_ratio=1.0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_events=10, separability=-1.0)
    with pytest.raises(InvalidConfig):
        SynthConfig(n_events=0)
    with pytest.raises(InvalidConfig):
        generate_waveform_event(SynthConfig(n_events=4), label=2)
    with pytest.raises(InvalidConfig):
        corpus_labels(SynthConfig(n_events=10, class_ratio=0.01))
    with pytest.raises(InvalidConfig):
        generate_feature_dataset(10, 5, 1.0, 0.5, 0)
    with pytest.raises(InvalidConfig):
        generate_feature_dataset(100, 1, 1.0, 0.5, 0)
    with pytest.raises(InvalidConfig, match="n must"):
        generate_feature_dataset(100.0, 5, 1.0, 0.5, 0)
    with pytest.raises(InvalidConfig, match="d must"):
        generate_feature_dataset(100, 2.5, 1.0, 0.5, 0)


@pytest.mark.parametrize("n_events", [10.0, 2.5, "10", True, -3])
def test_config_refuses_a_non_integer_event_count(n_events):
    with pytest.raises(InvalidConfig, match="n_events"):
        SynthConfig(n_events=n_events)


@pytest.mark.parametrize("separability", [float("nan"), float("inf"), -1.0])
def test_config_refuses_a_separability_that_is_not_finite_and_non_negative(separability):
    """A NaN separability would write a corpus with no burst on any true alarm."""
    with pytest.raises(InvalidConfig, match="separability"):
        SynthConfig(n_events=10, separability=separability)
    with pytest.raises(InvalidConfig, match="separability"):
        generate_feature_dataset(100, 5, separability, 0.5, 0)


def test_config_takes_a_numpy_integer_event_count():
    assert SynthConfig(n_events=np.int64(10)).n_events == 10


@pytest.mark.parametrize("seed", [1.5, 1.0, True, -1, "1", None])
def test_corpus_refuses_a_seed_that_is_not_a_non_negative_integer(tmp_path, seed):
    """A float or bool seed would be truncated into another seed's corpus."""
    with pytest.raises(InvalidConfig, match="seed"):
        generate_corpus(SynthConfig(n_events=4, class_ratio=0.5, seed=seed), tmp_path)
    assert not any(tmp_path.iterdir())
    with pytest.raises(InvalidConfig, match="seed"):
        generate_feature_dataset(100, 5, 1.0, 0.5, seed)


def test_numpy_integer_seed_gives_the_int_seed_labels():
    assert np.array_equal(
        corpus_labels(SynthConfig(n_events=10, class_ratio=0.5, seed=np.uint32(3))),
        corpus_labels(SynthConfig(n_events=10, class_ratio=0.5, seed=3)),
    )
