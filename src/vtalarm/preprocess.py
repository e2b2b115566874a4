"""Window imputation, min-max scaling and dataset splitting.

The scaler is always fit on training rows only and then applied to
validation/test rows; values outside the fitted range are clamped so the
output stays inside [0, 1]. Splits are stratified by label and fully
determined by the seed (PCG64, see :mod:`vtalarm.rng`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, ShapeMismatch, TooFewSamples
from .rng import STREAM_SPLIT, derive_rng
from .wfdb_io import AlarmWindow, read_utf8


@dataclass
class ScalerParams:
    """Per-feature training minima and maxima."""

    minimum: np.ndarray
    maximum: np.ndarray


@dataclass
class DatasetSplit:
    train_indices: np.ndarray
    val_indices: np.ndarray
    test_indices: np.ndarray
    seed: int


def impute_mean(window: AlarmWindow) -> AlarmWindow:
    """Replace masked samples with their channel's mean over unmasked ones.

    A channel with every sample missing is filled with 0. The returned
    window has an all-false mask; the input is left untouched.
    """
    samples = window.samples.copy()
    mask = window.missing_mask
    for c in range(samples.shape[1]):
        col_mask = mask[:, c]
        if not col_mask.any():
            continue
        good = samples[~col_mask, c]
        fill = good.mean() if good.size else 0.0
        samples[col_mask, c] = fill
    return replace(
        window, samples=samples, missing_mask=np.zeros_like(mask, dtype=bool)
    )


def fit_scaler(features: np.ndarray) -> ScalerParams:
    """Columnwise min/max over the given (training) rows."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise TooFewSamples("fit_scaler needs at least one row")
    return ScalerParams(minimum=features.min(axis=0), maximum=features.max(axis=0))


def apply_scaler(features: np.ndarray, params: ScalerParams) -> np.ndarray:
    """Map each column (the last axis) to [0, 1] via the fitted range,
    clamping outliers, in one new array; ``features`` is left untouched.

    Constant columns (max == min) map to 0.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[-1] != params.minimum.shape[0]:
        raise ShapeMismatch(
            f"got {features.shape[-1]} features, scaler has {params.minimum.shape[0]}"
        )
    span = params.maximum - params.minimum
    scaled = features - params.minimum
    scaled /= np.where(span > 0, span, 1.0)
    scaled[..., ~(span > 0)] = 0.0
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation proportional to weights, largest remainder.

    Sums to exactly ``total``; remainder ties go to the lower index.
    """
    weights = np.asarray(weights, dtype=np.float64)
    quotas = total * weights / weights.sum()
    counts = np.floor(quotas).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        fractions = quotas - counts
        order = np.lexsort((np.arange(weights.size), -fractions))
        counts[order[:short]] += 1
    return counts


def split_dataset(
    labels: np.ndarray, seed: int, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
) -> DatasetSplit:
    """Deterministic stratified 80/10/10 split.

    Validation and test each get ``floor(ratio * n)`` samples overall,
    the remainder goes to training. Per class, val/test quotas are
    proportional with largest-remainder rounding, so every split's class
    ratio matches the full set within one sample per class.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n < 10:
        raise TooFewSamples(f"need at least 10 samples to split, got {n}")
    if len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidConfig(f"split ratios must be three fractions in [0, 1] that sum to 1, got {ratios}")

    rng = derive_rng(seed, STREAM_SPLIT)
    n_val_total = int(np.floor(ratios[1] * n))
    n_test_total = int(np.floor(ratios[2] * n))

    classes, sizes = np.unique(labels, return_counts=True)
    per_class = [rng.permutation(np.flatnonzero(labels == c)) for c in classes]
    val_counts = largest_remainder(sizes, n_val_total)
    test_counts = largest_remainder(sizes, n_test_total)

    val_parts, test_parts, train_parts = [], [], []
    for idx, nv, nt in zip(per_class, val_counts, test_counts):
        val_parts.append(idx[:nv])
        test_parts.append(idx[nv : nv + nt])
        train_parts.append(idx[nv + nt :])

    return DatasetSplit(
        train_indices=np.sort(np.concatenate(train_parts)),
        val_indices=np.sort(np.concatenate(val_parts)),
        test_indices=np.sort(np.concatenate(test_parts)),
        seed=int(seed),
    )


def save_split(path: str | Path, split: DatasetSplit, extra: dict | None = None) -> None:
    """Persist a split as JSON so later stages reuse the same partition."""
    payload = dict(extra or {})
    payload.update(
        {
            "seed": split.seed,
            "train": [int(i) for i in split.train_indices],
            "val": [int(i) for i in split.val_indices],
            "test": [int(i) for i in split.test_indices],
        }
    )
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_split(path: str | Path) -> DatasetSplit:
    """Load a split file; also accepts externally authored benchmark splits."""
    try:
        payload = json.loads(read_utf8(path, InvalidConfig))
    except ValueError as exc:
        raise InvalidConfig(f"split file {path} is not valid JSON: {exc}") from exc
    lists = [payload.get(key) for key in ("train", "val", "test")] if isinstance(payload, dict) else [None]
    if not all(isinstance(idx, list) and all(type(i) is int for i in idx) for idx in lists):
        raise InvalidConfig(f"split file {path} needs train/val/test lists of integer indices")
    seed = payload.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise InvalidConfig(f"split file {path} needs a non-negative integer seed, got {seed!r}")
    try:
        split = DatasetSplit(*(np.asarray(idx, dtype=np.int64) for idx in lists), seed=seed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"split file {path} has an index out of range: {exc}") from exc
    combined = np.concatenate([split.train_indices, split.val_indices, split.test_indices])
    if len(np.unique(combined)) != combined.size:
        raise InvalidConfig(f"split file {path} assigns some index twice")
    return split


__all__ = [
    "ScalerParams",
    "DatasetSplit",
    "impute_mean",
    "fit_scaler",
    "apply_scaler",
    "split_dataset",
    "save_split",
    "load_split",
]
