"""Single-file binary model checkpoints.

Layout: magic ``VTCK`` | u32 format version | u64 header length | JSON
header | concatenated float64 little-endian arrays. The header records
the architecture, input shape, hyperparameters, and the name/shape of
every array in payload order, so a checkpoint is sufficient to rebuild
the model without any other context. The arrays are
``Model.named_arrays()`` in its order. Loading builds the declared model
and requires the header's list to equal its ``named_arrays()`` in names,
shapes and order, with or without the trailing input range, and the
payload to be exactly 8 bytes per float of those arrays.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..errors import CorruptCheckpoint, InvalidConfig, VersionMismatch
from ..preprocess import ScalerParams
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
        model = build_model(header["architecture"], tuple(header["input_shape"]), seed=0, hyperparams=header["hyperparams"])
        listed = [(entry["name"], entry["shape"]) for entry in header["arrays"]]
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CorruptCheckpoint(f"unreadable header: {exc}") from exc
    except InvalidConfig as exc:
        raise CorruptCheckpoint(f"header declares no valid model: {exc}") from exc

    if [name for name, _ in listed[-2:]] == ["input.minimum", "input.maximum"]:
        width = model.input_shape[-1]
        model.scaler = ScalerParams(np.empty(width), np.empty(width))
    arrays = model.named_arrays()
    expected = [(name, list(arr.shape)) for name, arr in arrays]
    if listed != expected:
        i = next(i for i in range(len(listed) + 1) if listed[i : i + 1] != expected[i : i + 1])
        raise CorruptCheckpoint(f"header lists {listed[i : i + 1]} as array {i}, the declared model holds {expected[i : i + 1]}")

    payload = data[16 + header_len :]
    total = sum(arr.size for _, arr in arrays)
    if len(payload) != 8 * total:
        raise CorruptCheckpoint(f"payload holds {len(payload)} bytes, the declared model's {total} floats take {8 * total}")
    values = np.frombuffer(payload, dtype="<f8")
    offset = 0
    for _, arr in arrays:
        arr[...] = values[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
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
