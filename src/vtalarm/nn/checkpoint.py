"""Single-file binary model checkpoints.

Layout: magic ``VTCK`` | u32 format version | u64 header length | JSON
header | concatenated float64 little-endian arrays. The header records
the architecture, input shape, hyperparameters, and the name/shape of
every array in payload order, so a checkpoint is sufficient to rebuild
the model without any other context. The arrays are
``Model.named_arrays()`` in its order; a name the model does not have,
or one listed twice, is refused.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..errors import CorruptCheckpoint, InvalidConfig, ShapeMismatch, VersionMismatch
from .model import Model, build_model

MAGIC = b"VTCK"
FORMAT_VERSION = 1


def serialize_model(model: Model) -> bytes:
    arrays = model.named_arrays()
    header = {
        "architecture": model.architecture,
        "input_shape": list(model.input_shape),
        "hyperparams": model.hyperparams,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(header_bytes)), header_bytes]
    for _, arr in arrays:
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def deserialize_model(data: bytes) -> Model:
    if len(data) < 16 or data[:4] != MAGIC:
        raise CorruptCheckpoint("bad magic; not a model checkpoint")
    (version,) = struct.unpack("<I", data[4:8])
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"checkpoint format {version}, reader supports {FORMAT_VERSION}")
    (header_len,) = struct.unpack("<Q", data[8:16])
    if len(data) < 16 + header_len:
        raise CorruptCheckpoint("truncated header")
    try:
        header = json.loads(data[16 : 16 + header_len].decode("utf-8"))
        architecture = header["architecture"]
        input_shape = tuple(header["input_shape"])
        hyperparams = header["hyperparams"]
        entries = [(e["name"], tuple(int(v) for v in e["shape"])) for e in header["arrays"]]
        if any(not isinstance(name, str) or min(shape, default=0) < 0 for name, shape in entries):
            raise ValueError("every array needs a name and a non-negative shape")
        if len({name for name, _ in entries}) != len(entries):
            raise ValueError("an array name is listed twice")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CorruptCheckpoint(f"unreadable header: {exc}") from exc

    payload = data[16 + header_len :]
    total = sum(math.prod(shape) for _, shape in entries)
    if len(payload) != total * 8:
        raise CorruptCheckpoint(f"payload holds {len(payload)} bytes, header promises {total * 8}")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in entries:
        size = math.prod(shape)
        arrays[name] = np.frombuffer(payload, dtype="<f8", count=size, offset=offset * 8).reshape(shape).copy()
        offset += size

    try:
        model = build_model(architecture, input_shape, seed=0, hyperparams=hyperparams)
        model.load_arrays(arrays)
    except ShapeMismatch as exc:
        raise CorruptCheckpoint(f"arrays do not fit the declared model: {exc}") from exc
    except InvalidConfig as exc:
        raise CorruptCheckpoint(f"header declares no valid model: {exc}") from exc
    return model


def save_checkpoint(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())


__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "serialize_model",
    "deserialize_model",
    "save_checkpoint",
    "load_checkpoint",
]
