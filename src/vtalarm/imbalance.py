"""Minority-class oversampling and class weighting.

SMOTE and ADASYN share one interpolation: each synthetic row lies at a
random gap between a minority seed row and one of the seed's k nearest
minority neighbors. They differ only in how they allocate synthetic rows
to seeds: SMOTE draws each seed uniformly, ADASYN gives more to minority
rows whose neighborhoods (searched over all classes) hold more majority
rows. The target minority count is ``round(ratio * n_majority)``. Both
are deterministic for a given seed and optionally log, per synthetic
row, the (seed index, neighbor index, gap) triple that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, TooFewSamples, check_count
from .preprocess import largest_remainder
from .rng import STREAM_ADASYN, STREAM_SMOTE, derive_rng


@dataclass
class ResampleConfig:
    method: str = "none"  # a key of METHODS
    ratio: float = 1.0  # desired n_minority / n_majority
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
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


def _class_counts(labels: np.ndarray) -> tuple[int, int]:
    """(n_true, n_false) of a label vector that holds both classes."""
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise TooFewSamples("both classes must be present")
    return n_pos, n_neg


def _oversample(features, labels, config: ResampleConfig, stream: int, allocate, return_provenance: bool):
    """The originals in order, then synthetic minority rows, each seeded at
    its position in ``minority_idx`` from ``allocate(rng, minority_idx, n_new)``."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos, n_neg = _class_counts(labels)
    minority_label = 1 if n_pos <= n_neg else 0
    minority_idx = np.flatnonzero(labels == minority_label)
    if minority_idx.size < 2:
        raise TooFewSamples("oversampling needs at least 2 minority samples")
    n_new = max(0, int(round(config.ratio * (labels.size - minority_idx.size))) - minority_idx.size)
    k = min(config.k_neighbors, minority_idx.size - 1)
    neighbors = [k_nearest(features, int(i), k, candidates=minority_idx) for i in minority_idx]
    rng = derive_rng(config.seed, stream)
    n = features.shape[0]
    out_x = np.empty((n + n_new,) + features.shape[1:])
    out_x[:n] = features
    log = []
    for row, pos in zip(out_x[n:], allocate(rng, minority_idx, n_new)):
        x_idx = int(minority_idx[pos])
        nn_idx = int(neighbors[pos][rng.integers(k)])
        gap = float(rng.random())
        row[...] = features[x_idx] + gap * (features[nn_idx] - features[x_idx])
        log.append((x_idx, nn_idx, gap))
    out_y = np.concatenate([labels, np.full(n_new, minority_label, dtype=labels.dtype)])
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
    return _oversample(features, labels, config, STREAM_SMOTE, lambda rng, idx, n: rng.integers(idx.size, size=n), return_provenance)


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

    def allocate(rng, minority_idx, n_new):
        k_all = min(config.k_neighbors, features.shape[0] - 1)
        minority_label = labels[minority_idx[0]]
        majority = [np.sum(labels[k_nearest(features, int(i), k_all)] != minority_label) for i in minority_idx]
        r = np.array(majority) / k_all
        return np.repeat(np.arange(minority_idx.size), largest_remainder(r if r.any() else np.ones_like(r), n_new))

    return _oversample(features, labels, config, STREAM_ADASYN, allocate, return_provenance)


def resample(features, labels, config: ResampleConfig):
    """Dispatch on ``config.method``; "none" passes data through."""
    if config.method == "none":
        return np.asarray(features, dtype=np.float64).copy(), np.asarray(labels).copy()
    return METHODS[config.method](features, labels, config)


# Each resample method and the oversampler it runs.
METHODS = {"smote": smote, "adasyn": adasyn, "none": None}


def class_weights(labels: np.ndarray) -> ClassWeights:
    """Balanced weights w_c = N / (2 * N_c); weighted sample count is N."""
    n_pos, n_neg = _class_counts(labels)
    n = n_pos + n_neg
    return ClassWeights(weight_true=n / (2.0 * n_pos), weight_false=n / (2.0 * n_neg))


__all__ = [
    "METHODS",
    "ResampleConfig",
    "ClassWeights",
    "k_nearest",
    "smote",
    "adasyn",
    "resample",
    "class_weights",
]
