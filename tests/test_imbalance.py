"""Oversampling and class weighting, including exact benchmark counts."""

import tracemalloc

import numpy as np
import pytest

from vtalarm.errors import InvalidConfig, TooFewSamples
from vtalarm.imbalance import (
    ClassWeights,
    ResampleConfig,
    adasyn,
    class_weights,
    k_nearest,
    resample,
    smote,
)


def two_blob_data(n_min, n_maj, d=5, seed=0, spread=1.0):
    rng = np.random.default_rng(seed)
    minority = rng.normal(loc=3.0, scale=spread, size=(n_min, d))
    majority = rng.normal(loc=0.0, scale=spread, size=(n_maj, d))
    features = np.vstack([minority, majority])
    labels = np.array([1] * n_min + [0] * n_maj, dtype=np.int64)
    perm = rng.permutation(labels.size)
    return features[perm], labels[perm]


# ------------------------------------------------------------------ k nearest


def test_k_nearest_hand_case_and_tie_break():
    points = np.array([[0.0], [1.0], [3.0], [-1.0]])
    # distances from point 0: 1 (idx 1), 3 (idx 2), 1 (idx 3) -> tie between 1 and 3
    assert k_nearest(points, 0, 2).tolist() == [1, 3]
    assert k_nearest(points, 0, 3).tolist() == [1, 3, 2]


def test_k_nearest_excludes_query_and_honors_candidates():
    points = np.array([[0.0], [0.5], [2.0], [5.0]])
    assert 0 not in k_nearest(points, 0, 3).tolist()
    limited = k_nearest(points, 0, 2, candidates=np.array([2, 3]))
    assert limited.tolist() == [2, 3]


def test_k_nearest_not_enough_neighbors():
    with pytest.raises(TooFewSamples):
        k_nearest(np.zeros((3, 2)), 0, 3)


def test_k_nearest_holds_about_one_copy_of_the_candidate_rows():
    points = np.random.default_rng(0).normal(size=(200, 5000))
    candidate_bytes = (len(points) - 1) * points.shape[1] * points.itemsize
    tracemalloc.start()
    try:
        k_nearest(points, 0, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the differences are squared in the one copy of the gathered rows
    assert peak <= 1.2 * candidate_bytes


# ---------------------------------------------------------------------- smote


def test_smote_reaches_benchmark_counts_exactly():
    features, labels = two_blob_data(1441, 3596, seed=1)
    out_x, out_y = smote(features, labels, ResampleConfig(method="smote", ratio=1.0, seed=5))
    assert int(np.sum(out_y == 1)) == 3596
    assert int(np.sum(out_y == 0)) == 3596
    assert out_x.shape[0] == 7192
    assert out_x.shape[0] - features.shape[0] == 2155  # synthetic rows appended


@pytest.mark.parametrize("ratio,expected_minority", [(0.5, 1798), (0.75, 2697)])
def test_smote_partial_ratios(ratio, expected_minority):
    features, labels = two_blob_data(1441, 3596, seed=2)
    _, out_y = smote(features, labels, ResampleConfig(method="smote", ratio=ratio, seed=5))
    assert int(np.sum(out_y == 1)) == expected_minority
    assert int(np.sum(out_y == 0)) == 3596


def test_smote_noop_when_target_already_met():
    features, labels = two_blob_data(50, 60, seed=3)
    out_x, out_y = smote(features, labels, ResampleConfig(method="smote", ratio=0.5, seed=5))
    assert np.array_equal(out_x, features)
    assert np.array_equal(out_y, labels)


def test_smote_synthetic_points_sit_on_parent_segments():
    features, labels = two_blob_data(40, 200, seed=4)
    config = ResampleConfig(method="smote", ratio=0.5, k_neighbors=5, seed=9)
    out_x, out_y, provenance = smote(features, labels, config, return_provenance=True)
    n_new = out_x.shape[0] - features.shape[0]
    assert len(provenance) == n_new
    minority_idx = np.flatnonzero(labels == 1)
    for row, (x_idx, nn_idx, gap) in zip(out_x[features.shape[0] :], provenance):
        assert labels[x_idx] == 1 and labels[nn_idx] == 1
        assert 0.0 <= gap < 1.0
        expected = features[x_idx] + gap * (features[nn_idx] - features[x_idx])
        assert np.max(np.abs(row - expected)) < 1e-12
        # the chosen neighbor is one of the k nearest minority points
        neighbors = k_nearest(features, x_idx, config.k_neighbors, candidates=minority_idx)
        assert nn_idx in neighbors.tolist()


def test_smote_deterministic_and_seed_sensitive():
    features, labels = two_blob_data(30, 100, seed=6)
    config = ResampleConfig(method="smote", ratio=1.0, seed=11)
    a_x, a_y = smote(features, labels, config)
    b_x, b_y = smote(features, labels, config)
    c_x, _ = smote(features, labels, ResampleConfig(method="smote", ratio=1.0, seed=12))
    assert np.array_equal(a_x, b_x) and np.array_equal(a_y, b_y)
    assert not np.array_equal(a_x, c_x)


def test_smote_k_clamped_to_minority_size():
    features, labels = two_blob_data(3, 50, seed=7)
    out_x, out_y = smote(features, labels, ResampleConfig(method="smote", ratio=0.2, k_neighbors=5, seed=1))
    assert int(np.sum(out_y == 1)) == 10


def test_smote_errors():
    features, labels = two_blob_data(30, 100, seed=8)
    with pytest.raises(TooFewSamples):
        smote(features, np.ones_like(labels), ResampleConfig(method="smote"))
    one_minority = np.array([1] + [0] * 29)
    with pytest.raises(TooFewSamples):
        smote(features[:30], one_minority, ResampleConfig(method="smote"))


# --------------------------------------------------------------------- adasyn


def test_adasyn_counts_and_segments():
    features, labels = two_blob_data(60, 240, seed=9, spread=2.0)
    config = ResampleConfig(method="adasyn", ratio=1.0, seed=3)
    out_x, out_y, provenance = adasyn(features, labels, config, return_provenance=True)
    assert int(np.sum(out_y == 1)) == 240  # allocation sums exactly to n_new
    for row, (x_idx, nn_idx, gap) in zip(out_x[features.shape[0] :], provenance):
        assert labels[x_idx] == 1 and labels[nn_idx] == 1
        expected = features[x_idx] + gap * (features[nn_idx] - features[x_idx])
        assert np.max(np.abs(row - expected)) < 1e-12


def test_adasyn_favors_boundary_points():
    # minority points: 30 deep inside the minority blob, 10 inside the majority blob
    rng = np.random.default_rng(10)
    deep = rng.normal(loc=10.0, scale=0.5, size=(30, 3))
    boundary = rng.normal(loc=0.0, scale=0.5, size=(10, 3))
    majority = rng.normal(loc=0.0, scale=0.5, size=(200, 3))
    features = np.vstack([deep, boundary, majority])
    labels = np.array([1] * 40 + [0] * 200)
    config = ResampleConfig(method="adasyn", ratio=0.5, seed=3)
    _, _, provenance = adasyn(features, labels, config, return_provenance=True)
    seeds = np.array([p[0] for p in provenance])
    from_boundary = int(np.sum((seeds >= 30) & (seeds < 40)))
    assert from_boundary > 0.9 * len(provenance)


def test_adasyn_uniform_fallback_when_no_majority_neighbors():
    # minority tightly clustered far from the majority: every r_i is zero
    rng = np.random.default_rng(13)
    minority = rng.normal(loc=100.0, scale=0.1, size=(20, 2))
    majority = rng.normal(loc=0.0, scale=0.1, size=(60, 2))
    features = np.vstack([minority, majority])
    labels = np.array([1] * 20 + [0] * 60)
    _, out_y = adasyn(features, labels, ResampleConfig(method="adasyn", ratio=1.0, seed=2))
    assert int(np.sum(out_y == 1)) == 60


def test_adasyn_deterministic():
    features, labels = two_blob_data(25, 80, seed=14)
    config = ResampleConfig(method="adasyn", ratio=0.8, seed=21)
    a_x, _ = adasyn(features, labels, config)
    b_x, _ = adasyn(features, labels, config)
    assert np.array_equal(a_x, b_x)


# ------------------------------------------------------------------- dispatch


def test_resample_none_returns_copies():
    features, labels = two_blob_data(10, 30, seed=15)
    out_x, out_y = resample(features, labels, ResampleConfig(method="none"))
    assert np.array_equal(out_x, features)
    out_x[0, 0] = 99.0
    assert features[0, 0] != 99.0


def test_resample_config_validation():
    with pytest.raises(InvalidConfig):
        ResampleConfig(method="rose")
    for ratio in (0.0, 1.5, float("nan")):
        with pytest.raises(InvalidConfig):
            ResampleConfig(method="smote", ratio=ratio)
    for k in (0, 2.5, 5.0, "5", True):
        with pytest.raises(InvalidConfig, match="k_neighbors"):
            ResampleConfig(method="smote", k_neighbors=k)
    assert ResampleConfig(method="smote", k_neighbors=np.int64(3)).k_neighbors == 3


@pytest.mark.parametrize("method", ["smote", "adasyn"])
@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_resample_refuses_a_seed_that_is_not_a_non_negative_integer(method, seed):
    features, labels = two_blob_data(20, 60, seed=17)
    with pytest.raises(InvalidConfig, match="seed"):
        resample(features, labels, ResampleConfig(method=method, seed=seed))


# -------------------------------------------------------------- class weights


def test_class_weights_benchmark_values():
    labels = np.array([1] * 1441 + [0] * 3596)
    weights = class_weights(labels)
    assert weights.weight_true == pytest.approx(5037 / (2 * 1441))
    assert weights.weight_false == pytest.approx(5037 / (2 * 3596))


def test_class_weights_sum_identity():
    rng = np.random.default_rng(16)
    for _ in range(5):
        labels = (rng.random(int(rng.integers(20, 500))) < 0.3).astype(int)
        if labels.min() == labels.max():
            continue
        weights = class_weights(labels)
        total = float(np.sum(weights.for_labels(labels)))
        assert total == pytest.approx(labels.size, abs=1e-9)


def test_class_weights_single_class_rejected():
    with pytest.raises(TooFewSamples):
        class_weights(np.ones(10, dtype=int))


def test_class_weights_for_labels_vector():
    weights = ClassWeights(weight_true=2.0, weight_false=0.5)
    out = weights.for_labels(np.array([1, 0, 1]))
    assert out.tolist() == [2.0, 0.5, 2.0]
