"""Model assembly, training loop behavior, and checkpoint format."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import vtalarm

from vtalarm.errors import (
    CorruptCheckpoint,
    DivergedLoss,
    InvalidConfig,
    ShapeMismatch,
    TooFewSamples,
    VersionMismatch,
)
from vtalarm.evaluate import roc_auc
from vtalarm.imbalance import ClassWeights
from vtalarm.nn import (
    TrainConfig,
    build_model,
    deserialize_model,
    load_checkpoint,
    save_checkpoint,
    serialize_model,
    train,
)
from vtalarm.nn.checkpoint import FORMAT_VERSION, MAGIC
from vtalarm.nn import model as nn_model
from vtalarm.nn.layers import sigmoid
from vtalarm.nn.model import CNN_DEFAULTS, FCNN_DEFAULTS, hyperparams_for
from vtalarm.nn.training import _batches
from vtalarm.preprocess import ScalerParams
from vtalarm.synth import generate_feature_dataset


def blobs(n=120, d=17, separability=4.0, seed=3):
    x, y = generate_feature_dataset(n, d, separability, class_ratio=0.5, seed=seed)
    cut = int(0.75 * n)
    return x[:cut], y[:cut], x[cut:], y[cut:]


# ------------------------------------------------------------- model assembly


def test_fcnn_parameter_count_matches_hand_sum():
    model = build_model("fcnn", (17,), seed=0)
    sizes = [17, 256, 192, 128, 64]
    dense = sum(a * b + b for a, b in zip(sizes, sizes[1:])) + (64 * 1 + 1)
    norm = 2 * sum(sizes[1:])
    assert dense == 86977 and norm == 1280
    assert model.parameter_count() == dense + norm == 88257


def test_cnn_parameter_count_matches_hand_sum():
    model = build_model("cnn", (1000, 3), seed=0)
    conv = 32 * 3 * 7 + 32
    norm = 2 * 32
    attention = 4 * 32 * 32
    dense = (32 * 256 + 256) + (256 * 128 + 128) + (128 * 1 + 1)
    assert model.parameter_count() == conv + norm + attention + dense == 46337


def test_build_model_rejects_bad_settings():
    with pytest.raises(InvalidConfig):
        build_model("fcnn", (17,), seed=0, hyperparams={"n_filters": 8})
    with pytest.raises(InvalidConfig):
        build_model("cnn", (500, 3), seed=0, hyperparams={"filter_size": 6})
    with pytest.raises(InvalidConfig):
        build_model("cnn", (500, 3), seed=0, hyperparams={"n_filters": 30, "n_heads": 4})
    with pytest.raises(InvalidConfig):
        build_model("fcnn", (17,), seed=0, hyperparams={"dropout_p": 1.0})
    with pytest.raises(InvalidConfig):
        build_model("transformer", (17,), seed=0)


@pytest.mark.parametrize(
    "arch, shape, hyperparams",
    [
        ("fcnn", (17,), {"hidden_sizes": ["x"]}),
        ("fcnn", (17,), {"hidden_sizes": 16}),
        ("fcnn", (17,), {"dropout_p": "0.3"}),
        ("fcnn", ("x",), {}),
        ("cnn", (500, 3), {"n_filters": "x"}),
        ("cnn", (500, 3), {"dense_sizes": [float("inf")]}),
        ("cnn", (500, 3), {"dense_sizes": [0]}),
        ("fcnn", (17,), [16]),
        ("fcnn", (17,), {"hidden_sizes": [4.7]}),
        ("fcnn", (17,), {"hidden_sizes": [True]}),
        ("fcnn", (17,), {"dropout_p": float("nan")}),
        ("fcnn", (17.0,), {}),
        ("cnn", (500, 3), {"n_filters": "4"}),
        ("cnn", (500, 3), {"n_filters": 4.0}),
        ("cnn", (500, 3), {"decimation": 0}),
        ("cnn", (500, 3), {"decimation": -5}),
        ("cnn", (500, 3), {"decimation": "x"}),
    ],
)
def test_build_model_rejects_values_of_the_wrong_type(arch, shape, hyperparams):
    with pytest.raises(InvalidConfig):
        build_model(arch, shape, seed=0, hyperparams=hyperparams)


def test_hyperparams_for_overlays_the_checked_values_on_the_defaults():
    hp = hyperparams_for("cnn", {"n_filters": 8, "n_heads": 2, "dropout_p": 0})
    assert hp == {**CNN_DEFAULTS, "n_filters": 8, "n_heads": 2, "dropout_p": 0.0}
    assert type(hp["dropout_p"]) is float
    assert hyperparams_for("fcnn", {}) == FCNN_DEFAULTS
    with pytest.raises(InvalidConfig):
        hyperparams_for("cnn", {"decimation": 4.7})


def test_model_forward_shapes():
    fcnn = build_model("fcnn", (17,), seed=1)
    assert fcnn.forward(np.zeros((5, 17))).shape == (5,)
    cnn = build_model("cnn", (64, 3), seed=1)
    assert cnn.forward(np.zeros((4, 64, 3))).shape == (4,)


def test_same_seed_gives_identical_init_different_seed_does_not():
    a = build_model("fcnn", (17,), seed=7)
    b = build_model("fcnn", (17,), seed=7)
    c = build_model("fcnn", (17,), seed=8)
    for (name, pa), (_, pb) in zip(a.named_arrays(), b.named_arrays()):
        assert np.array_equal(pa, pb), name
    first = dict(a.named_arrays())["layer0.W"]
    assert not np.array_equal(first, dict(c.named_arrays())["layer0.W"])


# -------------------------------------------------------------- training loop


def test_batches_merges_lone_trailing_example():
    perm = np.arange(9)
    chunks = _batches(9, 4, perm)
    assert [len(c) for c in chunks] == [4, 5]
    assert np.array_equal(np.sort(np.concatenate(chunks)), perm)
    # no merge needed when the tail is already >= 2
    assert [len(c) for c in _batches(10, 4, np.arange(10))] == [4, 4, 2]
    assert [len(c) for c in _batches(1, 4, np.arange(1))] == [1]


def test_training_overfits_separable_data():
    x_tr, y_tr, x_va, y_va = blobs()
    model = build_model("fcnn", (17,), seed=5, hyperparams={"hidden_sizes": [32, 16], "dropout_p": 0.0})
    history = train(model, x_tr, y_tr, x_va, y_va, TrainConfig(max_epochs=40, seed=5))
    assert history[-1]["epoch"] == len(history)
    assert roc_auc(model.predict(x_tr), y_tr) >= 0.99  # memorizes the training set
    best = max(row["val_auc"] for row in history)
    assert best >= 0.85  # transfers to held-out draws from the same blobs
    assert roc_auc(model.predict(x_va), y_va) == pytest.approx(best, abs=1e-12)


def test_training_is_deterministic_and_seed_sensitive():
    x_tr, y_tr, x_va, y_va = blobs(n=80)
    hp = {"hidden_sizes": [16], "dropout_p": 0.2}

    def run(seed):
        model = build_model("fcnn", (17,), seed=seed, hyperparams=hp)
        history = train(model, x_tr, y_tr, x_va, y_va, TrainConfig(max_epochs=6, patience=50, seed=seed))
        return history, model.predict(x_va)

    h1, p1 = run(9)
    h2, p2 = run(9)
    assert h1 == h2
    assert np.array_equal(p1, p2)
    h3, p3 = run(10)
    assert not np.array_equal(p1, p3)
    assert h1 != h3


def test_early_stopping_restores_best_weights():
    x_tr, y_tr, x_va, y_va = blobs(n=100, separability=3.0)
    model = build_model("fcnn", (17,), seed=2, hyperparams={"hidden_sizes": [16], "dropout_p": 0.3})
    config = TrainConfig(max_epochs=100, patience=3, seed=2)
    history = train(model, x_tr, y_tr, x_va, y_va, config)
    aucs = [row["val_auc"] for row in history]
    best_epoch = int(np.argmax(aucs)) + 1
    # stopped within `patience` epochs of the best, or exhausted the budget
    assert len(history) <= best_epoch + config.patience
    assert roc_auc(model.predict(x_va), y_va) == pytest.approx(max(aucs), abs=1e-12)


def test_early_stopping_restores_every_array_of_the_best_epoch_bit_for_bit():
    """A run that trains past its best epoch ends holding exactly what a run
    stopped at that epoch holds: weights, batch-norm running statistics and
    the input range."""
    x_tr, y_tr, x_va, y_va = blobs(n=100, separability=3.0)

    def run(max_epochs):
        model = build_model("fcnn", (17,), seed=2, hyperparams={"hidden_sizes": [16], "dropout_p": 0.3})
        model.scaler = ScalerParams(x_tr.min(axis=0), x_tr.max(axis=0))
        history = train(model, x_tr, y_tr, x_va, y_va, TrainConfig(max_epochs=max_epochs, patience=3, seed=2))
        return model, history

    full, history = run(100)
    best_epoch = int(np.argmax([row["val_auc"] for row in history])) + 1
    assert best_epoch < len(history)
    stopped, _ = run(best_epoch)
    names = [name for name, _ in full.named_arrays()]
    assert names == [name for name, _ in stopped.named_arrays()]
    assert "layer1.state.running_var" in names and names[-2:] == ["input.minimum", "input.maximum"]
    for (name, kept), (_, expected) in zip(full.named_arrays(), stopped.named_arrays()):
        assert kept.tobytes() == expected.tobytes(), name


def test_diverged_loss_raises():
    x_tr, y_tr, x_va, y_va = blobs(n=40)
    model = build_model("fcnn", (17,), seed=0, hyperparams={"hidden_sizes": [8], "dropout_p": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergedLoss):
            train(model, x_tr, y_tr, x_va, y_va, TrainConfig(learning_rate=1e200, max_epochs=5, seed=0))


def test_train_rejects_mismatched_or_too_few_examples():
    x_tr, y_tr, x_va, y_va = blobs(n=40)
    model = build_model("fcnn", (17,), seed=0, hyperparams={"hidden_sizes": [8]})
    with pytest.raises(ShapeMismatch):
        train(model, x_tr, y_tr[:-1], x_va, y_va, TrainConfig())
    with pytest.raises(ShapeMismatch):
        train(model, x_tr, y_tr, x_va[:, :-1], y_va, TrainConfig())
    with pytest.raises(TooFewSamples):
        train(model, x_tr[:1], y_tr[:1], x_va, y_va, TrainConfig())


def test_train_config_validation():
    with pytest.raises(InvalidConfig):
        TrainConfig(batch_size=1)
    with pytest.raises(InvalidConfig):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InvalidConfig):
        TrainConfig(max_epochs=0)
    with pytest.raises(InvalidConfig):
        TrainConfig(patience=0)


@pytest.mark.parametrize(
    "settings",
    [
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": -1e-3},
        {"learning_rate": True},
        {"learning_rate": "1e-3"},
        {"batch_size": 2.5},
        {"batch_size": 32.0},
        {"batch_size": True},
        {"max_epochs": 1.5},
        {"max_epochs": "3"},
        {"patience": 2.0},
        {"patience": False},
    ],
)
def test_train_config_rejects_values_of_the_wrong_type(settings):
    with pytest.raises(InvalidConfig):
        TrainConfig(**settings)


def test_class_weights_change_the_fit():
    x_tr, y_tr, x_va, y_va = blobs(n=80)
    hp = {"hidden_sizes": [16], "dropout_p": 0.0}
    plain = build_model("fcnn", (17,), seed=4, hyperparams=hp)
    train(plain, x_tr, y_tr, x_va, y_va, TrainConfig(max_epochs=3, patience=50, seed=4))
    weighted = build_model("fcnn", (17,), seed=4, hyperparams=hp)
    train(
        weighted, x_tr, y_tr, x_va, y_va,
        TrainConfig(max_epochs=3, patience=50, seed=4, class_weights=ClassWeights(weight_true=0.5, weight_false=5.0)),
    )
    assert not np.array_equal(plain.predict(x_va), weighted.predict(x_va))


@pytest.mark.parametrize("seed, t, c", [(1, 600, 3), (2, 600, 3), (3, 256, 2)])
def test_cnn_predict_scores_do_not_depend_on_the_batch_size(seed, t, c, monkeypatch):
    model = build_model("cnn", (t, c), seed=seed)
    x = np.random.default_rng(seed).normal(size=(96, t, c))
    model.forward(x[:8])  # move the batch-norm running stats off their start
    whole = sigmoid(nn_model._infer(model.layers, x)[:, 0])  # every row in one batch
    assert np.array_equal(model.predict(x), whole)  # the byte budget's batch
    for batch_size in (1, 5, 27, 47, 48, 64):
        monkeypatch.setattr(nn_model, "PREDICT_BYTES", batch_size * model._row_bytes())
        assert np.array_equal(model.predict(x), whole), batch_size


def test_cnn_predict_peak_stays_near_two_activations_of_one_batch():
    model = build_model("cnn", (600, 3), seed=4)
    x = np.random.default_rng(5).normal(size=(48, 600, 3))
    widest = min(len(x), nn_model.PREDICT_BYTES // model._row_bytes()) * model._row_bytes()
    tracemalloc.start()
    try:
        model.predict(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * widest  # the (batch, T, n_filters) convolution output, about 4.1 MB here


@pytest.mark.parametrize("arch, shape", [("fcnn", (17,)), ("cnn", (64, 3))])
def test_predict_of_no_rows_gives_no_scores_and_still_checks_the_shape(arch, shape):
    model = build_model(arch, shape, seed=6)
    assert model.predict(np.zeros((0,) + shape)).shape == (0,)
    with pytest.raises(ShapeMismatch):
        model.predict(np.zeros((0, 5)))


@pytest.mark.parametrize("arch, shape", [("fcnn", (17,)), ("cnn", (64, 3))])
def test_predict_leaves_the_callers_array_untouched(arch, shape):
    # BatchNorm's and ReLU's inference forwards write into their input, which must never be the caller's;
    # nor may the training forward write into it
    model = build_model(arch, shape, seed=7)
    x = np.random.default_rng(8).normal(size=(5,) + shape)
    before = x.copy()
    model.predict(x)
    model.forward(x)
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("arch, shape", [("fcnn", (17,)), ("cnn", (64, 3))])
def test_predict_leaves_no_activation_on_any_layer(arch, shape):
    model = build_model(arch, shape, seed=2)
    model.set_dropout_rng(np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=(6,) + shape)
    model.backward(np.ones_like(model.forward(x)))
    assert sum(layer._cache is not None for layer in model.layers) > len(model.layers) // 2
    model.predict(x)
    assert [type(layer).__name__ for layer in model.layers if layer._cache is not None] == []


DEFAULT_CNN_STEP = """
import json, resource
import numpy as np
from vtalarm.nn import TrainConfig, build_model, train
rng = np.random.default_rng(0)
model = build_model("cnn", (4500, 3), seed=0)
x, y = rng.normal(size=(36, 4500, 3)), np.arange(36) % 2
history = train(model, x[:32], y[:32], x[32:], y[32:], TrainConfig(max_epochs=1, batch_size=32, seed=0))
print(json.dumps({"loss": history[0]["train_loss"],
                  "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def test_default_cnn_trains_one_step_at_batch_32_within_1_gb():
    """2250 attention tokens at batch 32: dense (B, H, T, T) scores would need ~25 GB."""
    env = dict(os.environ, PYTHONPATH=str(Path(vtalarm.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", DEFAULT_CNN_STEP], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert np.isfinite(result["loss"])
    assert result["max_rss_kb"] <= 1 << 20  # ru_maxrss is in KiB on Linux


# ----------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_preserves_everything():
    model = build_model("cnn", (96, 3), seed=6, hyperparams={"n_filters": 8, "n_heads": 2, "dense_sizes": [16], "decimation": 2})
    x = np.random.default_rng(0).normal(size=(3, 96, 3))
    model.forward(x)  # populate batch-norm running stats
    blob = serialize_model(model)
    clone = deserialize_model(blob)
    assert clone.architecture == model.architecture
    assert clone.input_shape == model.input_shape
    assert clone.hyperparams == model.hyperparams
    originals = dict(model.named_arrays())
    for name, arr in clone.named_arrays():
        assert np.array_equal(arr, originals[name]), name
    assert np.array_equal(clone.predict(x), model.predict(x))


def test_checkpoint_file_round_trip(tmp_path):
    model = build_model("fcnn", (17,), seed=1, hyperparams={"hidden_sizes": [8]})
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    x = np.random.default_rng(1).normal(size=(4, 17))
    assert np.array_equal(loaded.predict(x), model.predict(x))


def test_checkpoint_rejects_corruption():
    model = build_model("fcnn", (5,), seed=0, hyperparams={"hidden_sizes": [4]})
    blob = serialize_model(model)

    with pytest.raises(CorruptCheckpoint):
        deserialize_model(b"XXXX" + blob[4:])
    bad_version = blob[:4] + (FORMAT_VERSION + 1).to_bytes(4, "little") + blob[8:]
    with pytest.raises(VersionMismatch):
        deserialize_model(bad_version)
    with pytest.raises(CorruptCheckpoint):
        deserialize_model(blob[:-16])
    with pytest.raises(CorruptCheckpoint):
        deserialize_model(blob + b"\x00" * 8)
    with pytest.raises(CorruptCheckpoint):
        deserialize_model(blob[:10])
    assert blob[:4] == MAGIC


def _with_header_edited(blob, edit):
    """``blob`` with ``edit`` applied to its header and the payload kept."""
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + n])
    edit(header)
    raw = json.dumps(header).encode()
    return blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :]


@pytest.mark.parametrize("entry", [{"name": "bogus", "shape": [2]}, {"name": "input.maximum", "shape": [2]}], ids=["an-unknown-name", "a-repeated-name"])
def test_checkpoint_refuses_an_array_the_model_does_not_hold_once(entry):
    model = build_model("fcnn", (2,), seed=0, hyperparams={"hidden_sizes": [4]})
    model.scaler = ScalerParams(np.array([0.0, 1.0]), np.array([2.0, 3.0]))
    blob = serialize_model(model)
    assert deserialize_model(blob).scaler.maximum.tolist() == [2.0, 3.0]
    one_more = _with_header_edited(blob, lambda header: header["arrays"].append(entry))
    with pytest.raises(CorruptCheckpoint):
        deserialize_model(one_more + np.array([2.0, 3.0]).astype("<f8").tobytes())


def test_checkpoint_takes_the_input_range_whole_or_not_at_all():
    model = build_model("fcnn", (2,), seed=0, hyperparams={"hidden_sizes": [4]})
    assert deserialize_model(serialize_model(model)).scaler is None
    model.scaler = ScalerParams(np.zeros(2), np.ones(2))
    blob = serialize_model(model)
    loaded = deserialize_model(blob)
    assert loaded.scaler.maximum.tolist() == [1.0, 1.0]
    assert [name for name, _ in loaded.named_arrays()][-2:] == ["input.minimum", "input.maximum"]
    with pytest.raises(CorruptCheckpoint):
        deserialize_model(_with_header_edited(blob, lambda header: header["arrays"].pop())[:-16])


def test_checkpoint_refuses_an_array_of_another_shape_even_of_the_same_size():
    model = build_model("fcnn", (5,), seed=0, hyperparams={"hidden_sizes": [4]})
    blob = serialize_model(model)
    assert model.named_arrays()[0][1].shape == (4, 5)

    def transpose_the_first(header):
        header["arrays"][0]["shape"] = [5, 4]

    with pytest.raises(CorruptCheckpoint):
        deserialize_model(_with_header_edited(blob, transpose_the_first))


def test_checkpoint_refuses_same_shape_arrays_listed_in_another_order():
    """Swapped batch-norm statistics fit every name and shape and the byte
    count; only their order tells the values would land exchanged."""
    model = build_model("fcnn", (5,), seed=0, hyperparams={"hidden_sizes": [4]})
    blob = serialize_model(model)

    def swap_the_running_stats(header):
        names = [entry["name"] for entry in header["arrays"]]
        i, j = names.index("layer1.state.running_mean"), names.index("layer1.state.running_var")
        header["arrays"][i]["name"], header["arrays"][j]["name"] = names[j], names[i]

    with pytest.raises(CorruptCheckpoint):
        deserialize_model(_with_header_edited(blob, swap_the_running_stats))
