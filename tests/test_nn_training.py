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
from helpers import read_history

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
    write_history,
)
from vtalarm.nn.checkpoint import FORMAT_VERSION, MAGIC
from vtalarm.nn import model as nn_model
from vtalarm.nn.layers import sigmoid
from vtalarm.nn.model import CNN_DEFAULTS, FCNN_DEFAULTS, hyperparams_for
from vtalarm.nn.training import _batches
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
    assert fcnn.forward(np.zeros((5, 17)), train=False).shape == (5,)
    cnn = build_model("cnn", (64, 3), seed=1)
    assert cnn.forward(np.zeros((4, 64, 3)), train=False).shape == (4,)


def test_same_seed_gives_identical_init_different_seed_does_not():
    a = build_model("fcnn", (17,), seed=7)
    b = build_model("fcnn", (17,), seed=7)
    c = build_model("fcnn", (17,), seed=8)
    for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa, pb), name
    first = dict(a.named_parameters())["layer0.W"]
    assert not np.array_equal(first, dict(c.named_parameters())["layer0.W"])


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
    model.forward(x[:8], train=True)  # move the batch-norm running stats off their start
    whole = sigmoid(model.forward(x, train=False))
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
    # BatchNorm's and ReLU's inference forwards write into their input, which must never be the caller's
    model = build_model(arch, shape, seed=7)
    x = np.random.default_rng(8).normal(size=(5,) + shape)
    before = x.copy()
    model.predict(x)
    model.forward(x, train=False)
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("arch, shape", [("fcnn", (17,)), ("cnn", (64, 3))])
def test_predict_leaves_no_activation_on_any_layer(arch, shape):
    model = build_model(arch, shape, seed=2)
    model.set_dropout_rng(np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=(6,) + shape)
    model.backward(np.ones_like(model.forward(x, train=True)))
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
    model.forward(x, train=True)  # populate batch-norm running stats
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


def test_load_arrays_shape_check():
    model = build_model("fcnn", (5,), seed=0, hyperparams={"hidden_sizes": [4]})
    arrays = dict(model.named_arrays())
    name = next(iter(arrays))
    arrays[name] = np.zeros(np.asarray(arrays[name]).size + 1)
    with pytest.raises(ShapeMismatch):
        model.load_arrays(arrays)


# -------------------------------------------------------------------- history


def test_history_csv_round_trip(tmp_path):
    history = [
        {"epoch": 1, "train_loss": 0.6931471805599453, "val_auc": 0.5},
        {"epoch": 2, "train_loss": 0.25, "val_auc": 0.9874999999999999},
    ]
    path = tmp_path / "history.csv"
    write_history(path, history, comment="config=abc123 seed=0")
    text = path.read_text()
    assert text.startswith("# config=abc123 seed=0\n")
    assert read_history(path) == history
