from .checkpoint import deserialize_model, load_checkpoint, save_checkpoint, serialize_model
from .layers import Adam, adam_step, sigmoid, weighted_bce_with_logits
from .model import Model, build_model
from .training import TrainConfig, train

__all__ = [
    "Adam",
    "Model",
    "TrainConfig",
    "adam_step",
    "build_model",
    "deserialize_model",
    "load_checkpoint",
    "save_checkpoint",
    "serialize_model",
    "sigmoid",
    "train",
    "weighted_bce_with_logits",
]
