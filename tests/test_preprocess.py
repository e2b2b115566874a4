"""Imputation, scaling and stratified splitting."""

import numpy as np
import pytest

from vtalarm.errors import InvalidConfig, ShapeMismatch, TooFewSamples
from vtalarm.preprocess import apply_scaler, fit_scaler, impute_mean, load_split, save_split, split_dataset
from vtalarm.wfdb_io import AlarmWindow


def make_window(samples, mask=None):
    samples = np.asarray(samples, dtype=np.float64)
    if mask is None:
        mask = np.zeros(samples.shape, dtype=bool)
    return AlarmWindow(
        record_id="w0", samples=samples, missing_mask=np.asarray(mask, dtype=bool),
        label=0, alarm_index=0, fs=1.0,
    )


# ------------------------------------------------------------------ imputation


def test_impute_mean_fills_with_channel_mean():
    samples = np.array([[1.0, 10.0], [0.0, 20.0], [3.0, 0.0]])
    mask = np.array([[False, False], [True, False], [False, True]])
    out = impute_mean(make_window(samples, mask))
    assert out.samples[1, 0] == pytest.approx(2.0)  # mean of 1 and 3
    assert out.samples[2, 1] == pytest.approx(15.0)  # mean of 10 and 20
    assert not out.missing_mask.any()


def test_impute_mean_all_missing_channel_becomes_zero():
    samples = np.array([[5.0, 1.0], [7.0, 2.0]])
    mask = np.array([[True, False], [True, False]])
    out = impute_mean(make_window(samples, mask))
    assert np.all(out.samples[:, 0] == 0.0)
    assert np.array_equal(out.samples[:, 1], samples[:, 1])


def test_impute_mean_does_not_mutate_input():
    samples = np.array([[1.0], [2.0]])
    mask = np.array([[True], [False]])
    window = make_window(samples, mask)
    impute_mean(window)
    assert window.missing_mask[0, 0]


# --------------------------------------------------------------------- scaler


def test_scaler_maps_training_extremes_to_unit_interval():
    train = np.array([[0.0, -2.0], [10.0, 2.0], [5.0, 0.0]])
    params = fit_scaler(train)
    scaled = apply_scaler(train, params)
    assert scaled.min(axis=0) == pytest.approx([0.0, 0.0])
    assert scaled.max(axis=0) == pytest.approx([1.0, 1.0])


def test_scaler_clamps_out_of_range_rows():
    params = fit_scaler(np.array([[0.0], [10.0]]))
    scaled = apply_scaler(np.array([[-5.0], [15.0]]), params)
    assert scaled[0, 0] == 0.0
    assert scaled[1, 0] == 1.0
    # an (n, T, C) stack scales as each window's 2-D rows do, and stays as it was
    windows = np.random.default_rng(5).normal(5.0, 8.0, size=(3, 7, 1))
    before = windows.copy()
    want = np.stack([apply_scaler(window, params) for window in windows])
    assert apply_scaler(windows, params).tobytes() == want.tobytes()
    assert windows.tobytes() == before.tobytes()


def test_scaler_constant_feature_maps_to_zero():
    params = fit_scaler(np.array([[3.0], [3.0]]))
    assert np.all(apply_scaler(np.array([[3.0], [8.0]]), params) == 0.0)


def test_scaler_errors():
    with pytest.raises(TooFewSamples):
        fit_scaler(np.empty((0, 3)))
    params = fit_scaler(np.ones((2, 3)))
    with pytest.raises(ShapeMismatch):
        apply_scaler(np.ones((2, 4)), params)


# ---------------------------------------------------------------------- split


def test_split_partitions_every_index():
    labels = np.array([0] * 70 + [1] * 30)
    split = split_dataset(labels, seed=4)
    combined = np.concatenate([split.train_indices, split.val_indices, split.test_indices])
    assert sorted(combined.tolist()) == list(range(100))
    assert split.val_indices.size == 10
    assert split.test_indices.size == 10


def test_split_is_stratified_at_benchmark_scale():
    # 1441 positive / 3596 negative; the 10% test slice should hold
    # close to 1441 * 0.1 = 144 positives
    labels = np.array([1] * 1441 + [0] * 3596)
    split = split_dataset(labels, seed=0)
    n = labels.size
    assert split.val_indices.size == n // 10
    assert split.test_indices.size == n // 10
    for idx in (split.val_indices, split.test_indices):
        positives = int(labels[idx].sum())
        assert abs(positives - 144) <= 1


def test_split_deterministic_in_seed():
    labels = np.array([0, 1] * 50)
    a = split_dataset(labels, seed=7)
    b = split_dataset(labels, seed=7)
    c = split_dataset(labels, seed=8)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert np.array_equal(a.test_indices, b.test_indices)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_split_rejects_tiny_and_bad_ratios():
    with pytest.raises(TooFewSamples):
        split_dataset(np.array([0, 1, 0, 1]), seed=0)
    for ratios in [(0.5, 0.2), (0.5, 0.2, 0.2), (1.2, -0.1, -0.1), (0.8, float("nan"), 0.1)]:
        with pytest.raises(InvalidConfig):
            split_dataset(np.array([0, 1] * 10), seed=0, ratios=ratios)


def test_split_file_round_trip(tmp_path):
    labels = np.array([0, 1] * 20)
    split = split_dataset(labels, seed=3)
    path = tmp_path / "split.json"
    save_split(path, split, extra={"config_hash": "deadbeef"})
    back = load_split(path)
    assert np.array_equal(back.train_indices, split.train_indices)
    assert np.array_equal(back.val_indices, split.val_indices)
    assert np.array_equal(back.test_indices, split.test_indices)
    assert back.seed == 3


@pytest.mark.parametrize("seed", ["1.5", "true", '"3"', "-1", "null", "[1]"])
def test_split_file_rejects_a_seed_that_is_not_a_non_negative_int(seed, tmp_path):
    path = tmp_path / "split.json"
    path.write_text(f'{{"seed": {seed}, "train": [0], "val": [1], "test": [2]}}')
    with pytest.raises(InvalidConfig, match="seed"):
        load_split(path)


def test_split_file_seed_defaults_to_zero(tmp_path):
    path = tmp_path / "split.json"
    path.write_text('{"train": [0], "val": [1], "test": [2]}')
    assert load_split(path).seed == 0


def test_split_file_rejects_duplicates(tmp_path):
    path = tmp_path / "split.json"
    path.write_text('{"seed": 0, "train": [0, 1], "val": [1], "test": [2]}')
    with pytest.raises(InvalidConfig):
        load_split(path)
