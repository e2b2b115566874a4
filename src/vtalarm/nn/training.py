"""Minibatch training with Adam and validation-AUC early stopping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DivergedLoss, InvalidConfig, ShapeMismatch, TooFewSamples, check_count
from ..evaluate import roc_auc
from ..imbalance import ClassWeights
from ..rng import STREAM_DROPOUT, STREAM_SHUFFLE, derive_rng
from .layers import Adam, weighted_bce_with_logits
from .model import Model


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    class_weights: ClassWeights | None = None

    def __post_init__(self):
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr <= np.finfo(float).max:
            raise InvalidConfig(f"learning_rate must be a finite positive number, got {lr!r}")
        for name in ("batch_size", "max_epochs", "patience"):
            check_count(name, getattr(self, name))
        if self.batch_size < 2:
            # train-mode batchnorm cannot normalize a single example
            raise InvalidConfig(f"batch_size must be >= 2, got {self.batch_size}")


def _batches(n: int, batch_size: int, perm: np.ndarray) -> list[np.ndarray]:
    chunks = [perm[s : s + batch_size] for s in range(0, n, batch_size)]
    if len(chunks) > 1 and len(chunks[-1]) == 1:
        # a lone trailing example cannot be batch-normalized; fold it in
        tail = chunks.pop()
        chunks[-1] = np.concatenate([chunks[-1], tail])
    return chunks


def train(
    model: Model,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> list[dict]:
    """Fit in place; returns one history row per completed epoch.

    Each epoch reshuffles the training set from a seed-derived stream,
    runs Adam over the minibatches, then scores the validation set in
    inference mode. The weights that achieved the best validation
    ROC-AUC are restored before returning; training stops early once
    that best has not improved for ``config.patience`` epochs. A
    non-finite training loss aborts immediately.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train)
    x_val = np.asarray(x_val, dtype=np.float64)
    y_val = np.asarray(y_val)
    if x_train.shape[0] != y_train.shape[0] or x_val.shape[0] != y_val.shape[0]:
        raise ShapeMismatch("sample/label counts disagree")
    if x_train.shape[1:] != x_val.shape[1:]:
        raise ShapeMismatch(f"train {x_train.shape[1:]} vs val {x_val.shape[1:]}")
    n = x_train.shape[0]
    if n < 2:
        raise TooFewSamples("need at least 2 training examples")

    sample_w = np.ones(n) if config.class_weights is None else config.class_weights.for_labels(y_train)

    shuffle_rng = derive_rng(config.seed, STREAM_SHUFFLE)
    model.set_dropout_rng(derive_rng(config.seed, STREAM_DROPOUT))
    optimizer = Adam(lr=config.learning_rate)

    history: list[dict] = []
    best_auc = -np.inf  # any AUC beats it, so epoch 1 always takes the first snapshot
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for batch in _batches(n, config.batch_size, perm):
            logits = model.forward(x_train[batch])
            loss, dlogits = weighted_bce_with_logits(logits, y_train[batch], sample_w[batch])
            if not np.isfinite(loss):
                raise DivergedLoss(f"non-finite training loss at epoch {epoch}")
            model.backward(dlogits)
            optimizer.step(model.layers)
            loss_sum += loss * len(batch)

        val_scores = model.predict(x_val)
        if not np.all(np.isfinite(val_scores)):
            # weights blew up between loss checks; surface it the same way
            raise DivergedLoss(f"non-finite validation scores at epoch {epoch}")
        val_auc = roc_auc(val_scores, y_val)
        history.append(
            {"epoch": epoch, "train_loss": loss_sum / n, "val_auc": float(val_auc)}
        )

        if val_auc > best_auc:
            best_auc = val_auc
            best_snapshot = model.snapshot()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    model.load_arrays(best_snapshot)
    return history


__all__ = ["TrainConfig", "train"]
