"""Mutated input files either load or raise a VtalarmError, never anything else.

Each property starts from a valid file written by the package itself (or,
for the text formats read from outside, a hand-written one), applies a
few random edits, and feeds the result to the matching loader. Any finite
alarm time, as the alarm index lets through, cuts a window or raises a
VtalarmError too. Examples are derandomized, so every run checks the same
inputs.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtalarm.cli import _load_features_csv, _write_features_csv, resolve_config
from vtalarm.errors import VtalarmError
from vtalarm.nn import build_model, deserialize_model, serialize_model
from vtalarm.preprocess import ScalerParams, load_split, save_split, split_dataset
from vtalarm.wfdb_io import extract_alarm_window, parse_header, read_alarm_index, read_signal

FUZZ = settings(max_examples=150, deadline=None, derandomize=True)

# Characters that carry meaning in at least one of the text formats.
SYNTAX = list("0123456789-+.,=:#/()[]{}\"' \n\teEnaifx")


def mutations(source, units):
    """``source`` after up to four replace, insert or delete edits drawn from ``units``."""
    edit = st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, len(source)), units)

    def apply(edits):
        out = source
        for op, pos, unit in edits:
            pos = min(pos, len(out))
            if op == "insert":
                out = out[:pos] + unit + out[pos:]
            elif pos < len(out):
                out = out[:pos] + (unit if op == "replace" else unit[:0]) + out[pos + 1 :]
        return out

    return st.lists(edit, max_size=4).map(apply)


def text_mutations(source):
    return mutations(source, st.one_of(st.sampled_from(SYNTAX), st.characters(min_codepoint=1, max_codepoint=127)))


def byte_mutations(source):
    """Edits of the UTF-8 bytes of ``source``, with any byte value, 0xff among them."""
    units = st.one_of(st.sampled_from([c.encode() for c in SYNTAX]), st.integers(1, 255).map(lambda b: bytes([b])))
    return mutations(source.encode(), units)


def loads_or_raises_vtalarm_error(load, *args):
    try:
        load(*args)
    except VtalarmError:
        pass


def _written(writer):
    """The text ``writer(path)`` puts in a file, read back from ``path``."""

    def source(tmp_path):
        path = tmp_path / "seed"
        writer(path)
        return path.read_text()

    return source


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


HEADER = "rec1 2 250 1000\nrec1.dat 16 200(0)/mV 16 0 12 3456 0 II\nrec1.dat 16 100(5)/uV 16 5 0 0 0 V\n"
ALARMS = "record_id,alarm_time_s,label\nr001,300,true\nr002,312.5,false\n"
CONFIG = json.dumps(
    {"seed": 3, "train": {"max_epochs": 7}, "model": {"cnn": {"n_filters": 8}}, "split": {"ratios": [0.6, 0.2, 0.2]}}
)
FEATURES = np.array([[0.5, 1e-3, -2.0], [1.5, 2e-3, -1.0]])


def _small_fcnn_with_an_input_range():
    """A small fcnn, so that no mutation of its header can ask for a large model."""
    model = build_model("fcnn", (5,), seed=0, hyperparams={"hidden_sizes": [4, 3], "dropout_p": 0.0})
    model.scaler = ScalerParams(minimum=np.array([0.1, -2.5, 3.0, 0.0, -1.0]), maximum=np.array([0.9, 3.75, 3.0, 1.0, 2.0]))
    return model


CHECKPOINT = serialize_model(_small_fcnn_with_an_input_range())
# Byte edits leave out digits and exponents: they can shrink or merge the
# header's numbers but never grow them into a model too large to build.
CHECKPOINT_BYTES = st.integers(0, 255).filter(lambda b: chr(b) not in "0123456789eE").map(lambda b: bytes([b]))


def test_the_unmutated_header_and_checkpoint_load():
    parse_header(HEADER)
    assert deserialize_model(CHECKPOINT).scaler.maximum.tolist() == [0.9, 3.75, 3.0, 1.0, 2.0]


@FUZZ
@given(text_mutations(HEADER))
def test_parse_header_fuzz(text):
    loads_or_raises_vtalarm_error(parse_header, text)


@FUZZ
@given(mutations(CHECKPOINT, CHECKPOINT_BYTES))
def test_deserialize_model_fuzz(blob):
    loads_or_raises_vtalarm_error(deserialize_model, blob)


@st.composite
def signal_files(draw):
    """A format 16 or 212 header of 1-3 channels, with or without
    checksums, and signal bytes of the length it asks for or of any length.
    One channel may carry a gain or baseline at the edge of what parses."""
    fmt = draw(st.sampled_from(["16", "212"]))
    n_signals, n_samples = draw(st.integers(1, 3)), draw(st.integers(0, 7))
    edge = draw(st.one_of(st.none(), st.sampled_from([(1e-300, 2**31 - 1), (1e-320, 0), (1e300, -(2**31)), (200.0, 2**31), (200.0, 10**400)])))
    lines = [f"r {n_signals} 250 {n_samples}"]
    for c in range(n_signals):
        gain, baseline = edge if c == 0 and edge else (draw(st.floats(-1e6, 1e6)), draw(st.integers(-4096, 4096)))
        checksum = draw(st.one_of(st.none(), st.just(0), st.integers(-(2**15), 2**15 - 1)))
        fields = f"r.dat {fmt} {gain!r}({baseline})/mV 16 0 0"
        lines.append(f"{fields} II" if checksum is None else f"{fields} {checksum} 0 II")
    total = n_samples * n_signals
    size = 2 * total if fmt == "16" else 3 * (total // 2) + 2 * (total % 2)
    data = draw(st.one_of(st.binary(min_size=size, max_size=size), st.just(bytes(size)), st.binary(max_size=size + 4)))
    return "\n".join(lines) + "\n", data, draw(st.booleans())


@FUZZ
@given(signal_files())
def test_read_signal_fuzz(signal_file):
    text, data, verify = signal_file
    try:
        header = parse_header(text)
        record = read_signal(header, data, verify_checksums=verify)
    except VtalarmError:
        return
    assert record.samples.shape == record.missing_mask.shape == (header.n_samples, header.n_signals)
    assert np.all(np.isfinite(record.samples))


# 380 s at 2 Hz: the alarm times in [300, 320] s have their whole window.
SMALL_RECORD = read_signal(parse_header("r 1 2 760\nr.dat 16 200(0)/mV 16 0 0 II\n"), bytes(2 * 760))


@FUZZ
@given(st.floats(allow_nan=False, allow_infinity=False) | st.floats(300.0, 320.0))
def test_extract_alarm_window_fuzz(alarm_time):
    try:
        window = extract_alarm_window(SMALL_RECORD, alarm_time, 1)
    except VtalarmError:
        return
    assert window.samples.shape == (720, 1)


@pytest.mark.parametrize(
    "source, load",
    [
        (lambda _: ALARMS, read_alarm_index),
        (lambda _: CONFIG, lambda path: resolve_config(str(path))),
        (_written(lambda p: save_split(p, split_dataset(np.array([0, 1] * 6), seed=1))), load_split),
        (
            _written(lambda p: _write_features_csv(p, ["r1", "r2"], [1, 0], FEATURES, ["a", "b", "c"], "c")),
            _load_features_csv,
        ),
    ],
    ids=["read_alarm_index", "resolve_config", "load_split", "load_features_csv"],
)
def test_file_loader_fuzz(scratch, source, load):
    path = scratch / "input"
    text = source(scratch)
    path.write_text(text)
    load(path)  # the unmutated file loads

    @FUZZ
    @given(byte_mutations(text))
    def check(mutated):
        path.write_bytes(mutated)
        loads_or_raises_vtalarm_error(load, path)

    check()
