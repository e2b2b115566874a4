from .checkpoint import deserialize_model, load_checkpoint, save_checkpoint, serialize_model
from .model import build_model
from .training import TrainConfig, train

__all__ = [
    "TrainConfig",
    "build_model",
    "deserialize_model",
    "load_checkpoint",
    "save_checkpoint",
    "serialize_model",
    "train",
]
