"""Exception taxonomy for the vtalarm package.

Every error raised by the library is a subclass of ``VtalarmError`` so
callers can catch the whole family with one except clause.
"""


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
    score, feature or model input that is not finite, or a score or
    threshold outside [0, 1]."""


# --- preprocessing ---

class EmptyInput(VtalarmError):
    """Operation requires at least one row."""


class TooFewSamples(VtalarmError):
    """Dataset too small to split or to train on."""


# --- feature extraction ---

class TooShort(VtalarmError):
    """Signal shorter than the operation requires."""


# --- imbalance handling ---

class NotEnoughNeighbors(VtalarmError):
    """Fewer candidate points than requested neighbors."""


class MinorityTooSmall(VtalarmError):
    """Oversampling needs at least two minority samples."""


class SingleClass(VtalarmError):
    """Operation requires both classes to be present."""


# --- neural network ---

class ShapeMismatch(VtalarmError):
    """Array shapes disagree: tensors that do not chain, paired channels,
    scores and labels of different lengths, or a feature count other
    than the fitted one."""


class InvalidHyperparams(VtalarmError):
    """Model hyperparameters fail validation, including a head count that
    does not divide the model dimension and an even filter size."""


class BatchTooSmall(VtalarmError):
    """Train-mode batch statistics need at least two elements per feature."""


class DivergedLoss(VtalarmError):
    """Training loss became non-finite."""


class CorruptCheckpoint(VtalarmError):
    """Checkpoint bytes are truncated or malformed, or a checkpoint to score
    with carries no input range."""


class VersionMismatch(VtalarmError):
    """Checkpoint written in a format version this reader does not know."""


class ArchitectureMismatch(VtalarmError):
    """Checkpoint holds a different architecture than expected."""


# --- pipeline / CLI ---

class MissingInput(VtalarmError):
    """A required upstream artifact is absent."""


class InvalidConfig(VtalarmError):
    """Pipeline configuration is invalid: a config file or flag, a split
    file, a feature table, or synthetic-data, feature-extraction or
    resampling settings."""
