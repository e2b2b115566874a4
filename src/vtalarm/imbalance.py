"""Minority-class oversampling and class weighting.

SMOTE interpolates new minority samples between a seed point and one of
its k nearest minority neighbors; ADASYN does the same but allocates
more synthetic samples to minority points whose neighborhoods (searched
over all classes) contain more majority points. The target minority
count is ``round(ratio * n_majority)``. Both generators are
deterministic for a given seed and optionally log, per synthetic row,
the (seed index, neighbor index, gap) triple that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, TooFewSamples, check_count
from .preprocess import largest_remainder
from .rng import STREAM_ADASYN, STREAM_SMOTE, derive_rng


@dataclass
class ResampleConfig:
    method: str = "none"  # "smote" | "adasyn" | "none"
    ratio: float = 1.0  # desired n_minority / n_majority
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("smote", "adasyn", "none"):
            raise InvalidConfig(f"unknown resample method {self.method!r}")
        if not 0.0 < self.ratio <= 1.0:
            raise InvalidConfig("ratio must be in (0, 1]")
        check_count("k_neighbors", self.k_neighbors)


@dataclass
class ClassWeights:
    weight_true: float
    weight_false: float

    def for_labels(self, labels: np.ndarray) -> np.ndarray:
        labels = np.asarray(labels)
        return np.where(labels == 1, self.weight_true, self.weight_false).astype(np.float64)


def k_nearest(
    points: np.ndarray,
    query_index: int,
    k: int,
    candidates: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the k nearest candidates by Euclidean distance.

    The query point is excluded from its own neighbor set; distance ties
    break toward the lower index. ``candidates`` optionally restricts
    the search (e.g. to one class).
    """
    points = np.asarray(points, dtype=np.float64)
    if candidates is None:
        candidates = np.arange(points.shape[0])
    candidates = np.asarray(candidates)
    candidates = candidates[candidates != query_index]
    if k > candidates.size:
        raise TooFewSamples(f"asked for {k} neighbors among {candidates.size} candidates")
    diffs = points[candidates]  # fancy indexing copies, so the rest works in place
    diffs -= points[query_index]
    diffs *= diffs
    dists = np.sqrt(np.sum(diffs, axis=1))
    order = np.lexsort((candidates, dists))  # distance first, then index
    return candidates[order[:k]]


def _split_classes(labels: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise TooFewSamples("both classes must be present")
    minority_label = 1 if n_pos <= n_neg else 0
    minority_idx = np.flatnonzero(labels == minority_label)
    majority_idx = np.flatnonzero(labels != minority_label)
    return minority_label, minority_idx, majority_idx


def _interpolation_targets(
    features: np.ndarray, labels: np.ndarray, config: ResampleConfig
) -> tuple[int, np.ndarray, int, list[np.ndarray]]:
    minority_label, minority_idx, majority_idx = _split_classes(labels)
    if minority_idx.size < 2:
        raise TooFewSamples("oversampling needs at least 2 minority samples")
    target = int(round(config.ratio * majority_idx.size))
    n_new = max(0, target - minority_idx.size)
    k = min(config.k_neighbors, minority_idx.size - 1)
    neighbors = [
        k_nearest(features, int(i), k, candidates=minority_idx) for i in minority_idx
    ]
    return minority_label, minority_idx, n_new, neighbors


def _oversampled(features, labels, minority_label, minority_idx, neighbors, seed_draws, rng, return_provenance):
    """The originals in order, then one synthetic row with the minority label
    per entry of seed_draws, each interpolated into its row of the output."""
    n = features.shape[0]
    out_x = np.empty((n + len(seed_draws),) + features.shape[1:])
    out_x[:n] = features
    log = []
    for row, pos in zip(out_x[n:], seed_draws):
        x_idx = int(minority_idx[pos])
        nn_idx = int(neighbors[pos][rng.integers(len(neighbors[pos]))])
        gap = float(rng.random())
        x = features[x_idx]
        row[...] = x + gap * (features[nn_idx] - x)
        log.append((x_idx, nn_idx, gap))
    out_y = np.concatenate([labels, np.full(len(seed_draws), minority_label, dtype=labels.dtype)])
    return (out_x, out_y, log) if return_provenance else (out_x, out_y)


def smote(
    features: np.ndarray,
    labels: np.ndarray,
    config: ResampleConfig,
    return_provenance: bool = False,
):
    """SMOTE oversampling to ``round(ratio * n_majority)`` minority rows.

    Original rows are preserved in order; synthetic rows are appended
    with the minority label. With ``return_provenance=True`` a third
    element lists, per synthetic row, the (seed_index, neighbor_index,
    gap) triple so each row can be re-derived exactly.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    minority_label, minority_idx, n_new, neighbors = _interpolation_targets(features, labels, config)
    rng = derive_rng(config.seed, STREAM_SMOTE)
    seed_draws = rng.integers(minority_idx.size, size=n_new)
    return _oversampled(features, labels, minority_label, minority_idx, neighbors, seed_draws, rng, return_provenance)


def adasyn(
    features: np.ndarray,
    labels: np.ndarray,
    config: ResampleConfig,
    return_provenance: bool = False,
):
    """ADASYN oversampling: allocation follows neighborhood difficulty.

    For each minority point, r_i is the fraction of majority points
    among its k nearest neighbors over the whole dataset; synthetic
    samples are split proportionally to r (largest-remainder rounding),
    falling back to a uniform split when every r_i is zero.
    Interpolation itself works exactly as in SMOTE.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    minority_label, minority_idx, n_new, neighbors = _interpolation_targets(features, labels, config)

    k_all = min(config.k_neighbors, features.shape[0] - 1)
    r = np.empty(minority_idx.size)
    for row, i in enumerate(minority_idx):
        nn = k_nearest(features, int(i), k_all)
        r[row] = np.sum(labels[nn] != minority_label) / k_all
    weights = np.ones_like(r) if r.sum() == 0 else r
    alloc = largest_remainder(weights, n_new)

    rng = derive_rng(config.seed, STREAM_ADASYN)
    seed_draws = np.repeat(np.arange(minority_idx.size), alloc)
    return _oversampled(features, labels, minority_label, minority_idx, neighbors, seed_draws, rng, return_provenance)


def resample(features, labels, config: ResampleConfig):
    """Dispatch on ``config.method``; "none" passes data through."""
    if config.method == "smote":
        return smote(features, labels, config)
    if config.method == "adasyn":
        return adasyn(features, labels, config)
    return np.asarray(features, dtype=np.float64).copy(), np.asarray(labels).copy()


def class_weights(labels: np.ndarray) -> ClassWeights:
    """Balanced weights w_c = N / (2 * N_c); weighted sample count is N."""
    labels = np.asarray(labels)
    n = labels.size
    n_pos = int(np.sum(labels == 1))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise TooFewSamples("both classes must be present")
    return ClassWeights(weight_true=n / (2.0 * n_pos), weight_false=n / (2.0 * n_neg))


__all__ = [
    "ResampleConfig",
    "ClassWeights",
    "k_nearest",
    "smote",
    "adasyn",
    "resample",
    "class_weights",
]
