"""ROC-AUC against a brute-force pair oracle, plus report arithmetic."""

import numpy as np
import pytest
from helpers import auc_pair_oracle

from vtalarm.errors import ShapeMismatch, TooFewSamples, ValueOutOfRange
from vtalarm.evaluate import alerts, classification_metrics, roc_auc


def scored_sample(seed, n=50, with_ties=False):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.normal(size=n) + 0.8 * labels
    if with_ties:
        scores = np.round(scores, 1)  # forces duplicate score values
    return scores, labels


# -------------------------------------------------------------------- roc auc


@pytest.mark.parametrize("seed", range(10))
def test_auc_matches_pair_oracle_exactly(seed):
    scores, labels = scored_sample(seed)
    assert roc_auc(scores, labels) == auc_pair_oracle(scores, labels)


@pytest.mark.parametrize("seed", range(10))
def test_auc_matches_pair_oracle_with_ties(seed):
    scores, labels = scored_sample(seed + 100, with_ties=True)
    assert len(np.unique(scores)) < len(scores)  # ties actually present
    assert roc_auc(scores, labels) == auc_pair_oracle(scores, labels)


def test_auc_invariant_under_monotone_transform():
    scores, labels = scored_sample(7)
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(scores), labels) == base
    assert roc_auc(3.0 * scores - 10.0, labels) == base


def test_auc_complement_when_tie_free():
    scores, labels = scored_sample(8)
    assert len(np.unique(scores)) == len(scores)
    assert roc_auc(-scores, labels) == pytest.approx(1.0 - roc_auc(scores, labels), abs=1e-12)


def test_auc_perfect_and_chance_extremes():
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
    assert roc_auc(np.full(4, 0.5), labels) == 0.5


def test_auc_input_validation():
    with pytest.raises(ShapeMismatch):
        roc_auc(np.zeros(3), np.zeros(4))
    with pytest.raises(TooFewSamples):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(ValueOutOfRange):
        roc_auc(np.array([0.1, np.nan]), np.array([0, 1]))
    with pytest.raises(ValueOutOfRange):
        roc_auc(np.array([0.1, 0.2]), np.array([0, 2]))


# ------------------------------------------------------------- classification


def hand_dataset():
    # 100 true alarms: 93 caught, 7 missed. 100 false alarms: 94 suppressed, 6 raised.
    scores = np.concatenate(
        [np.full(93, 0.9), np.full(7, 0.1), np.full(6, 0.9), np.full(94, 0.1)]
    )
    labels = np.concatenate([np.ones(100, dtype=int), np.zeros(100, dtype=int)])
    return scores, labels


def test_confusion_counts_and_per_class_metrics():
    scores, labels = hand_dataset()
    report = classification_metrics(scores, labels, threshold=0.5)
    assert (report.tp, report.fn, report.fp, report.tn) == (93, 7, 6, 94)
    assert report.n_samples == 200
    assert report.true_alarm.precision == pytest.approx(93 / 99)
    assert report.true_alarm.recall == pytest.approx(0.93)
    assert report.true_alarm.f1 == pytest.approx(2 * (93 / 99) * 0.93 / (93 / 99 + 0.93))
    # the suppression class swaps the roles: tn are its hits, fn its false positives
    assert report.false_alarm.precision == pytest.approx(94 / 101)
    assert report.false_alarm.recall == pytest.approx(0.94)
    assert report.roc_auc == roc_auc(scores, labels)


@pytest.mark.parametrize("seed", range(5))
def test_confusion_matches_recount_oracle(seed):
    scores, labels = scored_sample(seed + 200, n=80)
    threshold = 0.3
    report = classification_metrics(scores, labels, threshold=threshold)
    predicted = scores >= threshold
    assert report.tp == int(np.sum(predicted & (labels == 1)))
    assert report.fp == int(np.sum(predicted & (labels == 0)))
    assert report.tn == int(np.sum(~predicted & (labels == 0)))
    assert report.fn == int(np.sum(~predicted & (labels == 1)))
    assert report.tp + report.fp + report.tn + report.fn == report.n_samples == 80


def test_all_correct_gives_unit_metrics():
    report = classification_metrics(np.array([0.9, 0.9, 0.1]), np.array([1, 1, 0]))
    for cls in (report.true_alarm, report.false_alarm):
        assert cls.precision == cls.recall == cls.f1 == 1.0
        assert cls.precision_defined


def test_undefined_precision_is_flagged_not_faked():
    # nothing predicted positive: true-alarm precision has a 0/0 denominator
    report = classification_metrics(np.array([0.1, 0.2]), np.array([1, 0]))
    assert report.tp == 0 and report.fp == 0
    assert not report.true_alarm.precision_defined
    assert report.true_alarm.precision == 0.0
    assert report.false_alarm.precision_defined


def test_report_dict_shape():
    scores, labels = hand_dataset()
    out = classification_metrics(scores, labels).to_dict()
    assert out["confusion_matrix"] == {"tp": 93, "fp": 6, "tn": 94, "fn": 7}
    assert set(out["per_class"]) == {"true_alarm", "false_alarm"}
    assert out["n_samples"] == 200
    assert out["threshold"] == 0.5
    assert out["per_class"]["true_alarm"]["recall"] == pytest.approx(0.93)


def test_threshold_is_boundary_inclusive_in_metrics():
    report = classification_metrics(np.array([0.5, 0.4]), np.array([1, 0]), threshold=0.5)
    assert report.tp == 1 and report.tn == 1


# -------------------------------------------------------------- alert gating


def test_alerts_boundary_and_sides():
    flags = alerts([0.9, 0.1, 0.5, 0.6], 0.5)
    assert flags.dtype == bool
    assert flags.tolist() == [True, False, True, True]  # a score at the threshold alerts
    assert alerts([0.0, 1.0], 0.0).all() and alerts([1.0], 1.0).all()


def test_alerts_range_checks():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueOutOfRange, match="finite"):
            alerts([0.2, bad], 0.5)
    for threshold in (-0.01, 1.5, float("nan")):
        with pytest.raises(ValueOutOfRange, match="threshold"):
            alerts([0.2, 0.7], threshold)
    assert alerts([-3.0, 7.5], 0.5).tolist() == [False, True]  # any finite score is ranked
