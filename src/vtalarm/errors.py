"""Exception taxonomy for the vtalarm package.

Every error raised by the library is a subclass of ``VtalarmError`` so
callers can catch the whole family with one except clause.
"""

import numpy as np


class VtalarmError(Exception):
    """Base class for all vtalarm errors."""


# --- WFDB ingest ---

class MalformedHeader(VtalarmError):
    """Header text is missing fields or contains non-numeric counts."""


class UnsupportedFormat(VtalarmError):
    """Storage format other than 16 or 212."""


class TruncatedData(VtalarmError):
    """Signal file byte count does not match the header."""


class ChecksumMismatch(VtalarmError):
    """Stored per-channel checksum disagrees with the decoded samples."""


class WindowOutOfBounds(VtalarmError):
    """Not enough pre/post context around the alarm to carve a window."""


class ValueOutOfRange(VtalarmError):
    """A value is outside its valid range: a quantized ADC value beyond the
    target format's range, a label other than 0/1, a missing sample, a
    score, feature or model input that is not finite, or a threshold
    outside [0, 1]."""


# --- any stage ---

class TooFewSamples(VtalarmError):
    """The data is too small for the operation: no alarms or rows, a dataset
    too small to split or to train on, a signal shorter than a segment or a
    wavelet, too few neighbours or minority samples, a single class where
    both are needed, or a batch too small to normalize."""


class ShapeMismatch(VtalarmError):
    """Array shapes disagree: a record to write with no signals, or whose
    samples or mask are not its header's (n_samples, n_signals), tensors
    that do not chain, paired channels, scores and labels of different
    lengths, or a feature count other than the fitted one."""


# --- neural network ---

class DivergedLoss(VtalarmError):
    """Training loss became non-finite."""


class CorruptCheckpoint(VtalarmError):
    """Checkpoint bytes are truncated or malformed, or a checkpoint to score
    with carries no input range."""


class VersionMismatch(VtalarmError):
    """Checkpoint written in a format version this reader does not know."""


# --- pipeline / CLI ---

class MissingInput(VtalarmError):
    """A required upstream artifact is absent."""


class InvalidConfig(VtalarmError):
    """A setting is invalid: a config file or flag, a split file, a feature
    table, an ingest output, or the settings of synthetic data, feature
    extraction, resampling, a model or its training."""


def check_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int if it is an integer of at least ``minimum`` (0 or
    1); a bool, a float or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        kind = "a positive integer" if minimum else "a non-negative integer"
        raise InvalidConfig(f"{name} must be {kind}, got {value!r}")
    return int(value)
