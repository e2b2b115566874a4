"""Classifier metrics and the threshold alert rule.

Scores are P(true alarm); label 1 marks a true alarm. ROC-AUC comes
from the Mann-Whitney rank statistic with average ranks on ties, which
equals pair counting (ties worth 1/2) exactly in 64-bit arithmetic.
Per-class precision/recall/F1 are reported for both the true-alarm and
the false-alarm class, the latter by relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, TooFewSamples, ValueOutOfRange


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise ShapeMismatch("scores and labels must be 1-D")
    if scores.shape[0] != labels.shape[0]:
        raise ShapeMismatch(f"{scores.shape[0]} scores vs {labels.shape[0]} labels")
    if not np.all(np.isfinite(scores)):
        raise ValueOutOfRange("scores must be finite")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueOutOfRange("labels must be 0 or 1")
    if labels.min() == labels.max():
        raise TooFewSamples("need both classes present")
    return scores, labels.astype(np.int64)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts).astype(np.float64)
    avg = ends - (counts - 1) / 2.0
    return avg[inverse]


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative."""
    return _auc(*_check_scores_labels(scores, labels))


def _auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """roc_auc of arrays that passed _check_scores_labels."""
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    rank_sum = _average_ranks(scores)[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    # False when the class received no predictions, making precision 0/0;
    # it is then reported as 0.0 and this flag cleared.
    precision_defined: bool = True


@dataclass(frozen=True)
class EvalReport:
    roc_auc: float
    threshold: float
    n_samples: int
    # Confusion counts with "true alarm" as the positive class.
    tp: int
    fp: int
    tn: int
    fn: int
    true_alarm: ClassMetrics
    false_alarm: ClassMetrics

    def to_dict(self) -> dict:
        return {
            "roc_auc": self.roc_auc,
            "threshold": self.threshold,
            "n_samples": self.n_samples,
            "confusion_matrix": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "per_class": {
                name: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "precision_defined": m.precision_defined,
                }
                for name, m in (("true_alarm", self.true_alarm), ("false_alarm", self.false_alarm))
            },
        }


def _one_class(tp: int, fp: int, fn: int) -> ClassMetrics:
    defined = (tp + fp) > 0
    precision = tp / (tp + fp) if defined else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ClassMetrics(precision, recall, f1, defined)


def classification_metrics(scores, labels, threshold: float = 0.5) -> EvalReport:
    """Threshold the scores and report both classes' metrics plus AUC."""
    scores, labels = _check_scores_labels(scores, labels)
    auc = _auc(scores, labels)
    predicted = alerts(scores, threshold)
    actual = labels == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    tn = int(np.sum(~predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    return EvalReport(
        roc_auc=auc,
        threshold=float(threshold),
        n_samples=int(labels.size),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        true_alarm=_one_class(tp, fp, fn),
        # relabel: the false-alarm class is "positive" when predicted below threshold
        false_alarm=_one_class(tn, fn, fp),
    )


def alerts(scores, threshold: float) -> np.ndarray:
    """The alert rule: True where a score reaches the threshold, the
    boundary included. Scores must be finite, the threshold in [0, 1]."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueOutOfRange("scores must be finite")
    if not 0.0 <= threshold <= 1.0:
        raise ValueOutOfRange(f"threshold must be in [0, 1], got {threshold}")
    return scores >= threshold


__all__ = [
    "ClassMetrics",
    "EvalReport",
    "alerts",
    "roc_auc",
    "classification_metrics",
]
