"""Record container: header parsing, both sample packings, windowing."""

import numpy as np
import pytest

from vtalarm.errors import (
    ChecksumMismatch,
    MalformedHeader,
    TruncatedData,
    UnsupportedFormat,
    ValueOutOfRange,
    WindowOutOfBounds,
)
from vtalarm.wfdb_io import (
    FMT16,
    FMT212,
    AlarmWindow,
    RecordHeader,
    SignalSpec,
    WaveformRecord,
    _decode_fmt212,
    _encode_fmt212,
    extract_alarm_window,
    load_record,
    parse_header,
    read_alarm_index,
    read_signal,
    save_record,
    write_alarm_index,
    write_record,
)


def make_record(samples, fs=125.0, fmt=FMT16, gains=None, baselines=None, mask=None, name="rec0"):
    samples = np.asarray(samples, dtype=np.float64)
    n, c = samples.shape
    gains = gains or [200.0] * c
    baselines = baselines or [0] * c
    header = RecordHeader(
        record_name=name,
        n_signals=c,
        sampling_frequency=fs,
        n_samples=n,
        signals=[
            SignalSpec(file_name=f"{name}.dat", storage_format=fmt, adc_gain=gains[i], baseline=baselines[i])
            for i in range(c)
        ],
    )
    if mask is None:
        mask = np.zeros(samples.shape, dtype=bool)
    return WaveformRecord(header=header, samples=samples, missing_mask=mask)


# ------------------------------------------------------------- header parsing


def test_parse_minimal_header():
    header = parse_header("rec1 2 250 1000\nrec1.dat 16 200(0)/mV\nrec1.dat 16 100(5)/uV 16 5 0 0 0 lead II\n")
    assert header.record_name == "rec1"
    assert header.n_signals == 2
    assert header.sampling_frequency == 250.0
    assert header.n_samples == 1000
    assert header.signals[0].adc_gain == 200.0
    assert header.signals[1].adc_gain == 100.0
    assert header.signals[1].baseline == 5
    assert header.signals[1].units == "uV"
    assert header.signals[1].description == "lead II"


def test_parse_header_skips_comments_and_counter_frequency():
    header = parse_header("# a comment\nrec1 1 360/1000 100\nrec1.dat 212 200\n")
    assert header.sampling_frequency == 360.0
    assert header.signals[0].storage_format == 212


def test_parse_header_gain_zero_means_default():
    header = parse_header("r 1 125 10\nr.dat 16 0(0)/mV\n")
    assert header.signals[0].adc_gain == 200.0


def test_parse_header_baseline_falls_back_to_adc_zero():
    # no (baseline) in the gain field; the second optional int is adc_zero
    header = parse_header("r 1 125 10\nr.dat 16 200/mV 16 7 0 0 0\n")
    assert header.signals[0].baseline == 7


def test_parse_header_rejects_malformed():
    with pytest.raises(MalformedHeader):
        parse_header("")
    with pytest.raises(MalformedHeader):
        parse_header("rec1 2 250\n")
    with pytest.raises(MalformedHeader):
        parse_header("rec1 x 250 100\nrec1.dat 16\n")
    with pytest.raises(MalformedHeader):
        parse_header("rec1 2 250 100\nrec1.dat 16\n")  # one signal line short


@pytest.mark.parametrize(
    "text",
    [
        "rec1 1 nan 100\nrec1.dat 16 200\n",
        "rec1 1 inf 100\nrec1.dat 16 200\n",
        "rec1 1 -inf 100\nrec1.dat 16 200\n",
        "rec1 1 250 100\nrec1.dat 16 nan\n",
        "rec1 1 250 100\nrec1.dat 16 inf(0)/mV\n",
        "rec1 1 250 100\nrec1.dat 16 1e-320(0)/mV\n",  # a 30000 ADC code would be 3e324
        "rec1 1 250 100\nrec1.dat 16 200(2147483648)/mV\n",
        "rec1 1 250 100\nrec1.dat 16 200/mV 16 -2147483649\n",  # adc_zero stands in for the baseline
        "rec1 1 250 100\nrec1.dat 16 200(" + "9" * 400 + ")/mV\n",  # too large for a float
    ],
)
def test_parse_header_rejects_non_finite_values(text):
    with pytest.raises(MalformedHeader):
        parse_header(text)


@pytest.mark.parametrize("file_name", ["/etc/hostname", "../raw/rec1.dat", "sub/rec1.dat", "rec1.dat/", ".", ".."])
def test_parse_header_refuses_a_signal_file_outside_the_record_directory(file_name):
    with pytest.raises(MalformedHeader, match="bare file name"):
        parse_header(f"rec1 1 250 100\n{file_name} 16 200\n")


def test_parse_header_rejects_unsupported():
    with pytest.raises(UnsupportedFormat):
        parse_header("rec1/3 1 250 100\nrec1.dat 16\n")  # multi-segment
    with pytest.raises(UnsupportedFormat):
        parse_header("rec1 1 250 100\nrec1.dat 80 200\n")  # format 80


# ------------------------------------------------------------ sample packing


def test_fmt212_hand_decoded_triplet():
    # bytes 0x34 0x12 0x56: low nibble of 0x12 extends 0x34, high nibble 0x56
    header = parse_header("r 1 125 2\nr.dat 212 200(0)/mV\n")
    record = read_signal(header, bytes([0x34, 0x12, 0x56]))
    adc = np.rint(record.samples[:, 0] * 200).astype(int)
    assert list(adc) == [564, 342]


def test_fmt212_twos_complement_wraparound():
    # 0xFFF encodes -1; pack s1=0xFFF, s2=0
    header = parse_header("r 1 125 2\nr.dat 212 200(0)/mV\n")
    record = read_signal(header, bytes([0xFF, 0x0F, 0x00]))
    adc = np.rint(record.samples[:, 0] * 200).astype(int)
    assert list(adc) == [-1, 0]


def test_fmt212_decodes_every_12_bit_code():
    codes = np.arange(-2048, 2048, dtype=np.int32)  # -2048 is the missing-sample sentinel
    for adc in (codes, codes[:-1]):  # an even and an odd sample count
        assert _decode_fmt212(_encode_fmt212(adc), adc.size).tobytes() == adc.tobytes()


def test_fmt212_odd_sample_count_padding():
    samples = np.array([[0.5], [-0.25], [1.0]])
    header_text, data = write_record(make_record(samples, fmt=FMT212), fmt=FMT212)
    assert len(data) == 3 + 2  # one pair + padded single
    back = read_signal(parse_header(header_text), data)
    assert np.allclose(back.samples, samples, atol=0.5 / 200)


def test_truncated_data_raises():
    header = parse_header("r 1 125 4\nr.dat 16 200(0)/mV\n")
    with pytest.raises(TruncatedData):
        read_signal(header, b"\x00" * 7)
    header212 = parse_header("r 1 125 4\nr.dat 212 200(0)/mV\n")
    with pytest.raises(TruncatedData):
        read_signal(header212, b"\x00" * 5)


@pytest.mark.parametrize("fmt", [FMT16, FMT212])
def test_round_trip_100_random_records(fmt):
    rng = np.random.default_rng(101 if fmt == FMT16 else 202)
    limit = 32767 if fmt == FMT16 else 2047
    for _ in range(100):
        n = int(rng.integers(3, 40))
        c = int(rng.integers(1, 4))
        gains = [float(rng.uniform(50, 400)) for _ in range(c)]
        baselines = [int(rng.integers(-20, 20)) for _ in range(c)]
        # keep quantized codes safely inside the format's range
        samples = np.stack(
            [rng.uniform(-0.8, 0.8, size=n) * limit / gains[i] for i in range(c)], axis=1
        )
        mask = rng.random(samples.shape) < 0.1
        record = make_record(samples, fmt=fmt, gains=gains, baselines=baselines, mask=mask)
        header_text, data = write_record(record, fmt=fmt)
        back = read_signal(parse_header(header_text), data, verify_checksums=True)

        assert np.array_equal(back.missing_mask, mask)
        present = ~mask
        for i in range(c):
            keep = present[:, i]
            err = np.abs(back.samples[:, i][keep] - samples[:, i][keep])
            assert err.max() <= 0.5 / gains[i] + 1e-12
        assert np.all(back.samples[mask] == 0.0)


def test_checksum_mismatch_detected():
    samples = np.linspace(-0.5, 0.5, 20).reshape(-1, 2)
    header_text, data = write_record(make_record(samples))
    corrupted = bytearray(data)
    corrupted[5] ^= 0xFF
    with pytest.raises(ChecksumMismatch):
        read_signal(parse_header(header_text), bytes(corrupted), verify_checksums=True)
    # without verification the corrupted bytes still decode
    read_signal(parse_header(header_text), bytes(corrupted))


def test_write_record_rejects_out_of_range():
    record = make_record(np.array([[200.0]]))  # 200 mV * gain 200 = 40000 > 32767
    with pytest.raises(ValueOutOfRange):
        write_record(record, fmt=FMT16)
    record212 = make_record(np.array([[11.0]]), fmt=FMT212)  # 2200 > 2047
    with pytest.raises(ValueOutOfRange):
        write_record(record212, fmt=FMT212)


def test_header_survives_round_trip_fields():
    samples = np.zeros((10, 2))
    record = make_record(samples, fs=360.0, gains=[100.0, 250.0], baselines=[3, -4])
    record.header.signals[0].description = "ECG lead II"
    header_text, _ = write_record(record)
    back = parse_header(header_text)
    assert back.sampling_frequency == 360.0
    assert back.n_samples == 10
    assert [s.adc_gain for s in back.signals] == [100.0, 250.0]
    assert [s.baseline for s in back.signals] == [3, -4]
    assert back.signals[0].description == "ECG lead II"


def test_disk_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    samples = rng.uniform(-1, 1, size=(30, 3))
    record = make_record(samples, name="disk0")
    save_record(tmp_path, record)
    back = load_record(tmp_path, "disk0", verify_checksums=True)
    assert np.allclose(back.samples, samples, atol=0.5 / 200)


# ------------------------------------------------------------------ windowing


def test_extract_alarm_window_geometry():
    fs = 2.0
    n = 760  # 380 s
    samples = np.arange(n, dtype=np.float64).reshape(-1, 1) / 100.0
    record = make_record(samples, fs=fs)
    window = extract_alarm_window(record, alarm_time=310.0, label=1)
    assert isinstance(window, AlarmWindow)
    assert window.samples.shape == (720, 1)  # 360 s * 2 Hz
    assert window.alarm_index == 600  # 300 s * 2 Hz
    onset = int(round(310.0 * fs))
    assert window.samples[window.alarm_index, 0] == samples[onset, 0]
    assert window.label == 1
    assert window.fs == fs


def test_extract_alarm_window_bounds():
    record = make_record(np.zeros((760, 1)), fs=2.0)
    with pytest.raises(WindowOutOfBounds):
        extract_alarm_window(record, alarm_time=299.0, label=0)  # needs 300 s before
    with pytest.raises(WindowOutOfBounds):
        extract_alarm_window(record, alarm_time=321.0, label=0)  # needs 60 s after


def test_window_copies_do_not_alias():
    record = make_record(np.zeros((760, 1)), fs=2.0)
    window = extract_alarm_window(record, alarm_time=310.0, label=0)
    window.samples[0, 0] = 99.0
    assert record.samples[20, 0] == 0.0


# ----------------------------------------------------------------- alarm index


def test_alarm_index_round_trip(tmp_path):
    events = [("rec_a", 312.5, 1), ("rec_b", 305.0, 0)]
    path = tmp_path / "alarms.csv"
    write_alarm_index(path, events)
    assert read_alarm_index(path) == events
    text = path.read_text()
    assert "true" in text and "false" in text


def test_alarm_index_rejects_bad_label(tmp_path):
    path = tmp_path / "alarms.csv"
    path.write_text("record_id,alarm_time_s,label\nrec_a,300.0,maybe\n")
    with pytest.raises(MalformedHeader):
        read_alarm_index(path)


@pytest.mark.parametrize("record_id", ["../raw/ev00001", "sub/ev00001", "/srv/ev00001", ".."])
def test_alarm_index_refuses_a_record_outside_the_corpus_directory(tmp_path, record_id):
    path = tmp_path / "alarms.csv"
    path.write_text(f"record_id,alarm_time_s,label\n{record_id},320,true\n")
    with pytest.raises(MalformedHeader, match="bare file name"):
        read_alarm_index(path)
