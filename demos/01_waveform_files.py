"""
Reading and writing waveform record files
=========================================

A record is a text header (.hea) next to a packed binary signal file
(.dat). This walk-through builds a two-channel record in memory, saves
it in both supported sample encodings, and reads it back.
"""

import tempfile
from pathlib import Path

import numpy as np

from vtalarm.wfdb_io import (
    FMT16,
    FMT212,
    RecordHeader,
    SignalSpec,
    WaveformRecord,
    load_record,
    parse_header,
    read_signal,
    save_record,
)

rng = np.random.default_rng(0)

# Two seconds of a 125 Hz sine pair, in physical units (say millivolts).
fs = 125.0
t = np.arange(int(2 * fs)) / fs
samples = np.stack([np.sin(2 * np.pi * 1.0 * t), 0.5 * np.cos(2 * np.pi * 2.0 * t)], axis=1)

header = RecordHeader(
    record_name="demo0",
    sampling_frequency=fs,
    n_samples=samples.shape[0],
    signals=[
        SignalSpec(file_name="demo0.dat", storage_format=FMT16, adc_gain=200.0, description="sine 1 Hz"),
        SignalSpec(file_name="demo0.dat", storage_format=FMT16, adc_gain=200.0, description="cosine 2 Hz"),
    ],
)
record = WaveformRecord(header=header, samples=samples, missing_mask=np.zeros(samples.shape, dtype=bool))

with tempfile.TemporaryDirectory() as tmp:
    # FMT16 stores one little-endian int16 per sample.
    save_record(tmp, record, fmt=FMT16)
    back16 = load_record(tmp, "demo0", verify_checksums=True)
    print("fmt16 shape:", back16.samples.shape)
    print("fmt16 worst error:", float(np.max(np.abs(back16.samples - samples))))

    # FMT212 packs two 12-bit samples into three bytes, so the dat file
    # is 25% smaller and the quantization step is coarser.
    save_record(tmp, record, fmt=FMT212)
    back212 = load_record(tmp, "demo0", verify_checksums=True)
    size16 = len(samples.ravel()) * 2
    size212 = Path(tmp, "demo0.dat").stat().st_size
    print("fmt212 bytes:", size212, "vs fmt16 bytes:", size16)
    print("fmt212 worst error:", float(np.max(np.abs(back212.samples - samples))))

# The 12-bit packing is easy to verify by hand. Three bytes hold two
# samples: the first is byte0 plus the low nibble of byte1, the second
# is byte2 plus the high nibble of byte1.
hand = parse_header("hand 1 125 2\nhand.dat 212 200(0)/mV\n")
decoded = read_signal(hand, bytes([0x34, 0x12, 0x56]))
adc = [int(v) for v in np.rint(decoded.samples[:, 0] * 200)]
print("bytes 34 12 56 decode to adc codes:", adc)  # [564, 342]

# Sentinel codes mark unusable samples. They come back as 0.0 with the
# missing mask set, so downstream code can impute them explicitly.
mask = np.zeros(samples.shape, dtype=bool)
mask[10:14, 0] = True
gappy = WaveformRecord(header=header, samples=samples, missing_mask=mask)
with tempfile.TemporaryDirectory() as tmp:
    save_record(tmp, gappy, fmt=FMT16)
    back = load_record(tmp, "demo0")
    print("missing samples round-tripped:", int(back.missing_mask.sum()))
    print("masked values are zeroed:", bool(np.all(back.samples[mask] == 0.0)))
