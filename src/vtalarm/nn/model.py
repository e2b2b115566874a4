"""Model assembly: two fixed architectures over the layer library.

"fcnn" consumes flat feature vectors (B, D); "cnn" consumes raw
multichannel windows (B, T, C). Both end in a single logit; predict()
applies the sigmoid. Weights are drawn from a dedicated init stream so
two models built with the same seed are bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidConfig, ShapeMismatch, check_count
from ..preprocess import ScalerParams
from ..rng import STREAM_DROPOUT, STREAM_INIT, derive_rng
from .layers import (
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    GlobalAvgPool,
    MaxPool1D,
    MultiHeadAttention,
    ReLU,
    sigmoid,
)

ARCHITECTURES = ("fcnn", "cnn")
PREDICT_BYTES = 4 << 20  # bytes of the widest activation in one predict batch

FCNN_DEFAULTS = {"hidden_sizes": [256, 192, 128, 64], "dropout_p": 0.3}
CNN_DEFAULTS = {
    "n_filters": 32,
    "filter_size": 7,
    "n_heads": 4,
    "dense_sizes": [256, 128],
    "dropout_p": 0.3,
    "decimation": 4,
}


class Model:
    """A layer stack plus the metadata needed to rebuild it from disk. ``scaler``
    is the input range the caller scales by (``predict`` does not); it is
    ``None`` until training assigns the one it fits."""

    def __init__(self, architecture: str, input_shape: tuple, hyperparams: dict, layers: list):
        self.architecture = architecture
        self.input_shape = tuple(input_shape)
        self.hyperparams = hyperparams
        self.layers = layers
        self.scaler: ScalerParams | None = None

    def set_dropout_rng(self, rng: np.random.Generator) -> None:
        for layer in self.layers:
            if isinstance(layer, Dropout):
                layer.rng = rng

    def _checked(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1:] != self.input_shape:
            raise ShapeMismatch(f"expected input {(-1,) + self.input_shape}, got {x.shape}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the stack in training mode; returns one logit per example, shape (B,)."""
        x = self._checked(x)
        for layer in self.layers:
            x = layer.forward(x, train=True)
        return x[:, 0]

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        dout = dlogits[:, None]
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Everything a checkpoint holds, in payload order: each layer's
        parameters, then each layer's persistent state (batch-norm running
        stats), then ``input.minimum`` and ``input.maximum`` when ``scaler``
        is set."""
        layers = list(enumerate(self.layers))
        out = [(f"layer{i}.{key}", layer.params[key]) for i, layer in layers for key in sorted(layer.params)]
        out += [(f"layer{i}.state.{key}", layer.state[key]) for i, layer in layers for key in sorted(layer.state)]
        if self.scaler is not None:
            out += [("input.minimum", self.scaler.minimum), ("input.maximum", self.scaler.maximum)]
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy in exactly what ``named_arrays`` lists: every layer array, and
        the input range whole or not at all, which sets ``scaler`` or leaves
        it ``None``. Any other name, a missing name or a wrong shape raises
        ``ShapeMismatch`` and leaves the model partly loaded."""
        width = self.input_shape[-1]
        ranged = "input.minimum" in arrays or "input.maximum" in arrays
        self.scaler = ScalerParams(np.empty(width), np.empty(width)) if ranged else None
        targets = self.named_arrays()
        names, given = {name for name, _ in targets}, set(arrays)
        if given != names:
            raise ShapeMismatch(f"missing arrays {sorted(names - given)}, unknown arrays {sorted(given - names)}")
        for name, target in targets:
            src = arrays[name]
            if src.shape != target.shape:
                raise ShapeMismatch(f"{name}: expected {target.shape}, got {src.shape}")
            target[...] = src

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.named_arrays()}

    def parameter_count(self) -> int:
        return int(sum(arr.size for layer in self.layers for arr in layer.params.values()))

    def _row_bytes(self) -> int:
        """Bytes of one example's widest batched activation: the input or the
        widest dense layer for the fcnn, the (T, n_filters) convolution output
        for the cnn."""
        hp = self.hyperparams
        if self.architecture == "fcnn":
            return 8 * max([self.input_shape[0]] + hp["hidden_sizes"])
        t, c = self.input_shape
        return 8 * t * max(c, hp["n_filters"])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode probabilities in [0, 1], shape (B,).

        The layers up to the last ``GlobalAvgPool`` run in batches that keep
        their widest activation within ``PREDICT_BYTES``; the layers after it
        run once over every pooled row, a few KB each. A stack without
        pooling (the fcnn) runs whole in those batches. Dense layers are the
        only ones whose bits depend on the batch size, so a cnn's scores
        equal one whole-stack forward's whatever the budget.
        """
        x = self._checked(x)
        pools = [i for i, layer in enumerate(self.layers) if isinstance(layer, GlobalAvgPool)]
        split = pools[-1] + 1 if pools else len(self.layers)
        batch_size = max(1, PREDICT_BYTES // self._row_bytes())
        # an empty x still runs one (empty) batch, which gives the pooled width
        starts = range(0, max(x.shape[0], 1), batch_size)
        pooled = np.concatenate([_infer(self.layers[:split], x[s : s + batch_size]) for s in starts])
        return sigmoid(_infer(self.layers[split:], pooled)[:, 0])


def _infer(layers: list, x: np.ndarray) -> np.ndarray:
    for layer in layers:
        x = layer.forward(x, train=False)
    return x


def _fcnn_layers(n_features: int, hp: dict, rng) -> list:
    layers = []
    prev = n_features
    for size in hp["hidden_sizes"]:
        layers += [
            Dense(prev, size, rng),
            BatchNorm(size),
            ReLU(),
            Dropout(hp["dropout_p"]),
        ]
        prev = size
    layers.append(Dense(prev, 1, rng))
    return layers


def _cnn_layers(n_channels: int, hp: dict, rng) -> list:
    k = hp["n_filters"]
    layers = [
        Conv1D(n_channels, k, hp["filter_size"], rng),
        BatchNorm(k),
        ReLU(),
        MaxPool1D(),
        MultiHeadAttention(k, hp["n_heads"], rng),
        GlobalAvgPool(),
    ]
    prev = k
    for size in hp["dense_sizes"]:
        layers += [Dense(prev, size, rng), ReLU(), Dropout(hp["dropout_p"])]
        prev = size
    layers.append(Dense(prev, 1, rng))
    return layers


def hyperparams_for(architecture: str, hyperparams: dict) -> dict:
    """The defaults of ``architecture`` overlaid with ``hyperparams``. Unknown
    keys are rejected; every count must be a positive int and ``dropout_p``
    a number in [0, 1)."""
    if architecture not in ARCHITECTURES:
        raise InvalidConfig(f"unknown architecture {architecture!r}")
    if not isinstance(hyperparams, dict):
        raise InvalidConfig(f"{architecture} hyperparameters must be a mapping, got {hyperparams!r}")
    defaults = FCNN_DEFAULTS if architecture == "fcnn" else CNN_DEFAULTS
    for key in hyperparams:
        if key not in defaults:
            raise InvalidConfig(f"unknown hyperparameter {key!r} for {architecture}")
    hp = {**defaults, **hyperparams}
    p = hp["dropout_p"]
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p < 1.0:
        raise InvalidConfig(f"dropout_p must be a number in [0, 1), got {p!r}")
    hp["dropout_p"] = float(p)
    sizes = "hidden_sizes" if architecture == "fcnn" else "dense_sizes"
    if not isinstance(hp[sizes], (list, tuple)) or (architecture == "fcnn" and not hp[sizes]):
        raise InvalidConfig(f"bad {sizes} {hp[sizes]!r}")
    hp[sizes] = [check_count(sizes, s) for s in hp[sizes]]
    if architecture == "fcnn":
        return hp
    for key in ("n_filters", "filter_size", "n_heads", "decimation"):
        hp[key] = check_count(key, hp[key])
    if hp["filter_size"] % 2 != 1:
        raise InvalidConfig(f"filter_size must be odd, got {hp['filter_size']}")
    if hp["n_filters"] % hp["n_heads"] != 0:
        raise InvalidConfig(f"n_filters {hp['n_filters']} not divisible by n_heads {hp['n_heads']}")
    return hp


def build_model(
    architecture: str,
    input_shape: tuple,
    seed: int,
    hyperparams: dict | None = None,
) -> Model:
    """Construct a model with freshly initialized weights.

    ``input_shape`` is per-example: (n_features,) for "fcnn",
    (n_samples, n_channels) for "cnn". ``hyperparams`` are checked by
    :func:`hyperparams_for`.
    """
    hp = hyperparams_for(architecture, {} if hyperparams is None else hyperparams)
    input_shape = tuple(check_count("every input dimension", v) for v in input_shape)
    if architecture == "fcnn" and len(input_shape) != 1:
        raise InvalidConfig(f"fcnn input shape must be (n_features,), got {input_shape}")
    if architecture == "cnn" and len(input_shape) != 2:
        raise InvalidConfig(f"cnn input shape must be (n_samples, n_channels), got {input_shape}")
    if architecture == "cnn" and input_shape[0] < 2 * hp["filter_size"]:
        raise InvalidConfig(
            f"window of {input_shape[0]} samples is too short for filter_size {hp['filter_size']} plus pooling"
        )
    rng = derive_rng(seed, STREAM_INIT)
    layers = (_fcnn_layers if architecture == "fcnn" else _cnn_layers)(input_shape[-1], hp, rng)
    model = Model(architecture, input_shape, hp, layers)
    model.set_dropout_rng(derive_rng(seed, STREAM_DROPOUT))
    return model


__all__ = ["Model", "build_model", "hyperparams_for", "ARCHITECTURES", "FCNN_DEFAULTS", "CNN_DEFAULTS"]
