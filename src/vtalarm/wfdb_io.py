"""Reading and writing WFDB-style waveform records.

A record is a text header (``.hea``) plus one packed binary signal file
(``.dat``). Only storage formats 16 (16-bit little-endian two's
complement) and 212 (two 12-bit samples packed into 3 bytes) are
supported; everything else raises :class:`~vtalarm.errors.UnsupportedFormat`.
Missing samples are encoded with the format's minimum value (-32768 for
format 16, -2048 for format 212) and surface as ``missing_mask`` entries
rather than NaN so downstream imputation can see them.

Alarm onsets live in a sidecar CSV (``record_id,alarm_time_s,label``)
because the record files themselves carry no event markers. An alarm's
window is a record too: the record's rows around the onset, which
:func:`extract_alarm_window` cuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    ChecksumMismatch,
    MalformedHeader,
    ShapeMismatch,
    TruncatedData,
    UnsupportedFormat,
    ValueOutOfRange,
    VtalarmError,
    WindowOutOfBounds,
)

FMT16 = 16
FMT212 = 212

_SENTINEL = {FMT16: -32768, FMT212: -2048}
# Valid digital range excludes the sentinel.
_ADC_MIN = {FMT16: -32767, FMT212: -2047}
_ADC_MAX = {FMT16: 32767, FMT212: 2047}

# Seconds of context kept around every alarm onset.
PRE_ALARM_S = 300.0
POST_ALARM_S = 60.0
WINDOW_S = PRE_ALARM_S + POST_ALARM_S


@dataclass
class SignalSpec:
    """Per-channel metadata from one header signal line."""

    file_name: str
    storage_format: int
    adc_gain: float = 200.0
    baseline: int = 0
    units: str = "mV"
    description: str = ""
    checksum: int | None = None


@dataclass
class RecordHeader:
    record_name: str
    sampling_frequency: float
    n_samples: int
    signals: list[SignalSpec] = field(default_factory=list)

    @property
    def n_signals(self) -> int:
        return len(self.signals)


@dataclass
class WaveformRecord:
    """Multichannel signal in physical units, shape (n_samples, n_signals).
    An alarm window is one too: the record's rows around the onset."""

    header: RecordHeader
    samples: np.ndarray
    missing_mask: np.ndarray


def _parse_number(token: str, kind, what: str):
    try:
        return kind(token)
    except ValueError:
        raise MalformedHeader(f"non-numeric {what}: {token!r}") from None


def _bare_name(name: str, what: str) -> str:
    """``name`` if it names a file directly inside the directory it is read
    from: no path separator, and neither ``.`` nor ``..``."""
    if name in (".", "..") or Path(name).name != name:
        raise MalformedHeader(f"{what} must be a bare file name, got {name!r}")
    return name


def _parse_gain_token(token: str) -> tuple[float, int | None, str]:
    """Split a WFDB gain field ``gain(baseline)/units`` into its parts."""
    units = "mV"
    if "/" in token:
        token, units = token.split("/", 1)
    baseline = None
    if "(" in token:
        if not token.endswith(")"):
            raise MalformedHeader(f"unbalanced baseline in gain field: {token!r}")
        token, base_part = token[:-1].split("(", 1)
        baseline = _parse_number(base_part, int, "baseline")
    gain = _parse_number(token, float, "adc gain")
    if not np.isfinite(gain):
        raise MalformedHeader(f"adc gain must be finite, got {token!r}")
    if gain == 0:
        gain = 200.0  # WFDB convention: 0 means the default gain
    return gain, baseline, units


def parse_header(text: str) -> RecordHeader:
    """Parse ``.hea`` contents into a :class:`RecordHeader`.

    Comment lines (leading ``#``) are ignored. Raises MalformedHeader on
    missing fields or a signal file outside the header's directory, and
    UnsupportedFormat for storage formats other than 16/212 or
    multi-segment records.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise MalformedHeader("header is empty")

    first = lines[0].split()
    if len(first) < 4:
        raise MalformedHeader(f"record line needs 4 fields, got {len(first)}")
    record_name = first[0]
    if "/" in record_name:
        raise UnsupportedFormat("multi-segment records are not supported")
    n_signals = _parse_number(first[1], int, "signal count")
    fs_token = first[2].split("/", 1)[0]  # strip counter frequency if present
    fs = _parse_number(fs_token, float, "sampling frequency")
    n_samples = _parse_number(first[3], int, "sample count")
    if n_signals <= 0:
        raise MalformedHeader(f"signal count must be positive, got {n_signals}")
    if not 0 < fs < np.inf:
        raise MalformedHeader(f"sampling frequency must be positive and finite, got {fs}")
    if n_samples < 0:
        raise MalformedHeader(f"sample count must be non-negative, got {n_samples}")

    signal_lines = lines[1:]
    if len(signal_lines) < n_signals:
        raise MalformedHeader(
            f"header declares {n_signals} signals but has {len(signal_lines)} signal lines"
        )

    signals = []
    for ln in signal_lines[:n_signals]:
        tokens = ln.split()
        if len(tokens) < 2:
            raise MalformedHeader(f"signal line needs file name and format: {ln!r}")
        file_name = _bare_name(tokens[0], "signal file name")
        fmt_token = tokens[1]
        if fmt_token not in ("16", "212"):
            raise UnsupportedFormat(f"storage format {fmt_token!r} not supported")
        fmt = int(fmt_token)

        gain, baseline, units = 200.0, None, "mV"
        if len(tokens) > 2:
            gain, baseline, units = _parse_gain_token(tokens[2])

        # Optional integer fields after gain: adc_res adc_zero init_value
        # checksum block_size. Description is whatever follows.
        ints = []
        rest = tokens[3:]
        while rest and len(ints) < 5:
            try:
                ints.append(int(rest[0]))
            except ValueError:
                break
            rest = rest[1:]
        description = " ".join(rest)
        adc_zero = ints[1] if len(ints) >= 2 else 0
        checksum = ints[3] if len(ints) >= 4 else None
        if baseline is None:
            baseline = adc_zero
        if not -(2**31) <= baseline < 2**31:
            raise MalformedHeader(f"baseline must fit in 32 bits, got {baseline}")
        if not np.isfinite(2.0**32 / gain):  # bounds (ADC code - baseline) / gain
            raise MalformedHeader(f"adc gain {gain} is too small to give finite samples")

        signals.append(
            SignalSpec(
                file_name=file_name,
                storage_format=fmt,
                adc_gain=gain,
                baseline=baseline,
                units=units,
                description=description,
                checksum=checksum,
            )
        )
    return RecordHeader(record_name, fs, n_samples, signals)


def _record_format(header: RecordHeader) -> int:
    fmts = {s.storage_format for s in header.signals}
    files = {s.file_name for s in header.signals}
    if len(fmts) != 1 or len(files) != 1:
        raise UnsupportedFormat("all signals must share one file and one format")
    return fmts.pop()


def _decode_fmt16(data: bytes, total: int) -> np.ndarray:
    expected = 2 * total
    if len(data) != expected:
        raise TruncatedData(f"format 16 expects {expected} bytes, got {len(data)}")
    return np.frombuffer(data, dtype="<i2").astype(np.int32)


def _decode_fmt212(data: bytes, total: int) -> np.ndarray:
    n_pairs, odd = divmod(total, 2)
    expected = n_pairs * 3 + (2 if odd else 0)
    if len(data) != expected:
        raise TruncatedData(f"format 212 expects {expected} bytes, got {len(data)}")
    raw = np.frombuffer(data, dtype=np.uint8)
    body = raw[: n_pairs * 3].reshape(n_pairs, 3)
    adc = np.empty(total, dtype=np.int32)
    pairs = adc[: 2 * n_pairs].reshape(n_pairs, 2)
    # A pair's samples take the middle byte's low and high nibble as bits
    # 8-11, and the first and third byte as bits 0-7.
    np.bitwise_and(body[:, 1], 0x0F, out=pairs[:, 0])
    np.right_shift(body[:, 1], 4, out=pairs[:, 1])
    pairs <<= 8
    pairs |= body[:, ::2]
    if odd:
        adc[-1] = int(raw[-2]) | (int(raw[-1]) & 0x0F) << 8
    adc <<= 20  # 12-bit two's complement: bit 11 becomes the sign bit
    adc >>= 20
    return adc


def _checksums(adc: np.ndarray) -> list[int]:
    """WFDB checksums of an (n, C) array of digital samples: each channel's
    int64 sum as a 16-bit signed integer. One sum per column: numpy's
    axis-0 sum of an (n, 3) array is about 8x slower."""
    totals = [int(column.sum(dtype=np.int64)) & 0xFFFF for column in adc.T]
    return [t - 0x10000 if t >= 0x8000 else t for t in totals]


def read_signal(
    header: RecordHeader, data: bytes, verify_checksums: bool = False
) -> WaveformRecord:
    """Decode ``.dat`` contents into physical units.

    Samples are interleaved by channel. Sentinel values mark missing
    samples: they set ``missing_mask`` and a physical value of 0.
    """
    fmt = _record_format(header)
    total = header.n_samples * header.n_signals
    if fmt == FMT16:
        adc = _decode_fmt16(data, total)
    else:
        adc = _decode_fmt212(data, total)
    adc = adc.reshape(header.n_samples, header.n_signals)

    missing = adc == _SENTINEL[fmt]
    if verify_checksums:
        for c, (spec, got) in enumerate(zip(header.signals, _checksums(adc))):
            if spec.checksum is not None and got != spec.checksum:
                raise ChecksumMismatch(
                    f"channel {c}: stored checksum {spec.checksum}, computed {got}"
                )

    physical = adc.astype(np.float64)
    for column, spec in zip(physical.T, header.signals):  # in place: no (n, C) temporaries
        column -= spec.baseline
        column /= spec.adc_gain
    physical[missing] = 0.0
    return WaveformRecord(header=header, samples=physical, missing_mask=missing)


def _encode_fmt212(adc: np.ndarray) -> bytes:
    flat = adc.ravel()
    unsigned = (flat & 0xFFF).astype(np.uint32)
    n_pairs, odd = divmod(flat.size, 2)
    u1 = unsigned[0 : 2 * n_pairs : 2]
    u2 = unsigned[1 : 2 * n_pairs : 2]
    out = np.empty(n_pairs * 3 + (2 if odd else 0), dtype=np.uint8)
    body = out[: n_pairs * 3]
    body[0::3] = u1 & 0xFF
    body[1::3] = ((u1 >> 8) & 0x0F) | (((u2 >> 8) & 0x0F) << 4)
    body[2::3] = u2 & 0xFF
    if odd:
        out[-2] = unsigned[-1] & 0xFF
        out[-1] = (unsigned[-1] >> 8) & 0x0F
    return out.tobytes()


def write_record(record: WaveformRecord, fmt: int = FMT16) -> tuple[str, bytes]:
    """Serialize a record to (header text, signal bytes).

    Physical values are quantized with each channel's gain/baseline;
    unmasked values whose quantized ADC code is not finite or leaves the
    format's range raise ValueOutOfRange. Masked samples become the
    format's sentinel, whatever they hold. A header with no signals, or
    samples and mask that are not its (n_samples, n_signals), raise
    ShapeMismatch.
    """
    if fmt not in (FMT16, FMT212):
        raise UnsupportedFormat(f"storage format {fmt} not supported")
    header = record.header
    shape = (header.n_samples, header.n_signals)
    if not (header.signals and record.samples.shape == record.missing_mask.shape == shape):
        raise ShapeMismatch(f"header counts {shape}, samples are {record.samples.shape}, mask {record.missing_mask.shape}")
    gains = np.array([spec.adc_gain for spec in header.signals], dtype=np.float64)
    baselines = np.array([spec.baseline for spec in header.signals], dtype=np.float64)
    missing = record.missing_mask
    masked = missing.any()
    with np.errstate(over="ignore", invalid="ignore"):  # a masked sample may hold anything
        scaled = record.samples * gains
        scaled += baselines
        np.rint(scaled, out=scaled)
    if masked:
        scaled[missing] = 0.0
    if scaled.size:
        low, high = scaled.min(), scaled.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueOutOfRange("an unmasked sample quantizes to a non-finite value")
        if low < _ADC_MIN[fmt] or high > _ADC_MAX[fmt]:
            raise ValueOutOfRange(
                f"quantized value outside [{_ADC_MIN[fmt]}, {_ADC_MAX[fmt]}] for format {fmt}"
            )
    adc = scaled.astype("<i2")
    if masked:
        adc[missing] = _SENTINEL[fmt]

    dat_name = header.signals[0].file_name
    lines = [
        f"{header.record_name} {header.n_signals} "
        f"{_format_number(header.sampling_frequency)} {header.n_samples}"
    ]
    adc_res = 16 if fmt == FMT16 else 12
    for c, (spec, checksum) in enumerate(zip(header.signals, _checksums(adc))):
        init_value = int(adc[0, c]) if header.n_samples else 0
        lines.append(
            f"{dat_name} {fmt} {_format_number(spec.adc_gain)}({spec.baseline})/{spec.units} "
            f"{adc_res} {spec.baseline} {init_value} {checksum} 0 {spec.description}".rstrip()
        )
    header_text = "\n".join(lines) + "\n"

    if fmt == FMT16:
        signal_bytes = adc.tobytes()
    else:
        signal_bytes = _encode_fmt212(adc)
    return header_text, signal_bytes


def _format_number(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def window_bounds(fs: float) -> tuple[int, int]:
    """(n_pre, n_post): the samples an alarm window at ``fs`` Hz keeps before
    the onset and from it on. A window has n_pre + n_post samples, which
    may differ by one from round(WINDOW_S * fs)."""
    return int(round(PRE_ALARM_S * fs)), int(round(POST_ALARM_S * fs))


def extract_alarm_window(record: WaveformRecord, alarm_time: float) -> WaveformRecord:
    """The record's rows [onset - n_pre, onset + n_post) around an alarm
    onset, as :func:`window_bounds` counts them: the onset is row n_pre.

    The window's header is the record's with the window's ``n_samples``
    and no stored checksums, which covered the whole record.
    """
    fs = record.header.sampling_frequency
    n_pre, n_post = window_bounds(fs)
    if not np.isfinite(alarm_time * fs):
        raise WindowOutOfBounds(f"alarm at {alarm_time} s lies outside any record at {fs} Hz")
    onset = int(round(alarm_time * fs))
    start, end = onset - n_pre, onset + n_post
    if start < 0 or end > record.header.n_samples:
        raise WindowOutOfBounds(
            f"alarm at {alarm_time} s needs samples [{start}, {end}) but record has "
            f"{record.header.n_samples}"
        )
    signals = [replace(spec, checksum=None) for spec in record.header.signals]
    return WaveformRecord(
        header=replace(record.header, n_samples=end - start, signals=signals),
        samples=record.samples[start:end].copy(),
        missing_mask=record.missing_mask[start:end].copy(),
    )


# --- alarm index sidecar ---

def read_utf8(path: str | Path, error: type[VtalarmError]) -> str:
    """The text of ``path``, without a leading byte-order mark; bytes that
    are not UTF-8 raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def read_alarm_index(path: str | Path) -> list[tuple[str, float, int]]:
    """Read the sidecar CSV: one ``record_id,alarm_time_s,label`` per event,
    after a header line if the first line that is not a comment is one. A
    record id with a path separator or a ``..`` raises MalformedHeader."""
    lines = [line.strip() for line in read_utf8(path, MalformedHeader).splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if lines and lines[0].split(",")[0].strip() == "record_id":
        del lines[0]
    events = []
    for line in lines:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise MalformedHeader(f"alarm index line needs 3 fields: {line!r}")
        record_id, time_s, label = parts
        _bare_name(record_id, "record id")
        if label.lower() not in ("true", "false"):
            raise MalformedHeader(f"alarm label must be true/false, got {label!r}")
        alarm_time = _parse_number(time_s, float, "alarm time")
        if not np.isfinite(alarm_time):
            raise MalformedHeader(f"alarm time must be finite, got {time_s!r}")
        events.append((record_id, alarm_time, 1 if label.lower() == "true" else 0))
    return events


def write_alarm_index(path: str | Path, events: list[tuple[str, float, int]]) -> None:
    lines = ["record_id,alarm_time_s,label"]
    for record_id, time_s, label in events:
        lines.append(f"{record_id},{_format_number(time_s)},{'true' if label else 'false'}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_record(data_dir: str | Path, record_id: str, verify_checksums: bool = False) -> WaveformRecord:
    """Read ``<data_dir>/<record_id>.hea`` and its ``.dat`` from disk. A
    record id with a path separator or a ``..`` raises MalformedHeader."""
    data_dir = Path(data_dir)
    _bare_name(record_id, "record id")
    header = parse_header(read_utf8(data_dir / f"{record_id}.hea", MalformedHeader))
    dat = (data_dir / header.signals[0].file_name).read_bytes()
    return read_signal(header, dat, verify_checksums=verify_checksums)


def save_record(data_dir: str | Path, record: WaveformRecord, fmt: int = FMT16) -> None:
    """Write a record's ``.hea``/``.dat`` pair into ``data_dir``."""
    data_dir = Path(data_dir)
    header_text, signal_bytes = write_record(record, fmt)
    (data_dir / f"{record.header.record_name}.hea").write_text(header_text)
    (data_dir / record.header.signals[0].file_name).write_bytes(signal_bytes)


__all__ = [
    "FMT16",
    "FMT212",
    "PRE_ALARM_S",
    "POST_ALARM_S",
    "WINDOW_S",
    "SignalSpec",
    "RecordHeader",
    "WaveformRecord",
    "parse_header",
    "read_signal",
    "write_record",
    "window_bounds",
    "extract_alarm_window",
    "read_utf8",
    "read_alarm_index",
    "write_alarm_index",
    "load_record",
    "save_record",
]
