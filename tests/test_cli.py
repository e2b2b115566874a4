"""Config resolution, the argument parser and the command-line pipeline end to end."""

import argparse
import dataclasses
import inspect
import json
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from vtalarm import cli, wfdb_io
from vtalarm.cli import DEFAULT_CONFIG, config_hash, main, resolve_config
from vtalarm.errors import InvalidConfig
from vtalarm.evaluate import classification_metrics, roc_auc
from vtalarm.features import morlet_scales, spectral_params_for
from vtalarm.imbalance import ResampleConfig
from vtalarm.nn.checkpoint import load_checkpoint, save_checkpoint
from vtalarm.nn.model import Model, hyperparams_for
from vtalarm.nn.training import TrainConfig
from vtalarm.preprocess import ScalerParams, fit_scaler, split_dataset
from vtalarm.synth import SynthConfig


def run(*argv):
    return main(list(argv))


# --------------------------------------------------------------------- config


def test_resolve_config_defaults():
    config = resolve_config(None)
    assert config["architecture"] == "fcnn"
    assert config["threshold"] == 0.5
    assert config["split"]["ratios"] == [0.8, 0.1, 0.1]
    assert config is not DEFAULT_CONFIG


def test_resolve_config_merges_file_then_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 3, "train": {"max_epochs": 7}}))
    config = resolve_config(str(cfg))
    assert config["seed"] == 3
    assert config["train"]["max_epochs"] == 7
    assert config["train"]["batch_size"] == DEFAULT_CONFIG["train"]["batch_size"]

    # dotted overrides win over the file
    config = resolve_config(str(cfg), {"seed": 9, "train.max_epochs": 2})
    assert config["seed"] == 9
    assert config["train"]["max_epochs"] == 2


def test_resolve_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}))
    with pytest.raises(InvalidConfig):
        resolve_config(str(cfg))
    cfg.write_text(json.dumps({"train": {"epochs": 5}}))
    with pytest.raises(InvalidConfig):
        resolve_config(str(cfg))
    with pytest.raises(InvalidConfig, match="train.epochs"):
        resolve_config(None, {"train.epochs": 5})


def test_resolve_config_types_each_setting_against_its_default():
    config = resolve_config(None, {"threshold": 1, "split.ratios": [1, 0, 0], "features.analysis_span": [0, 60]})
    assert config["threshold"] == 1.0 and type(config["threshold"]) is float
    assert config["split"]["ratios"] == [1.0, 0.0, 0.0] and all(type(r) is float for r in config["split"]["ratios"])
    assert config["features"]["analysis_span"] == [0.0, 60.0]
    assert resolve_config(None, {"data_dir": "raw", "split.file": "split.json"})["split"]["file"] == "split.json"
    assert config_hash(resolve_config(None, {"seed": 0, "threshold": 0.5})) == config_hash(resolve_config(None))


@pytest.mark.parametrize(
    "overrides",
    [
        {"train.batch_size": 4.9},
        {"train.batch_size": True},
        {"train.use_class_weights": "false"},
        {"train.use_class_weights": 1},
        {"train.learning_rate": float("nan")},
        {"synth.fs": float("inf")},
        {"synth.fs": 10**400},
        {"seed": 1.7},
        {"seed": -1},
        {"threshold": "0.5"},
        {"architecture": 1},
        {"split.ratios": [0.5, 0.5]},
        {"split.ratios": "0.8"},
        {"split.file": 3},
        {"features.analysis_span": [0, "60"]},
        {"seed.x": 1},
        {"train": 5},
    ],
)
def test_resolve_config_rejects_a_value_of_the_wrong_type(overrides):
    with pytest.raises(InvalidConfig):
        resolve_config(None, overrides)


def test_config_hash_is_stable_and_sensitive():
    a = resolve_config(None)
    b = resolve_config(None)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    c = resolve_config(None, {"seed": 1})
    assert config_hash(a) != config_hash(c)


def test_every_config_flag_overrides_the_config_key_it_names():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command in commands.values():
        for action in command._actions:
            if action.option_strings and action.dest not in ("help", "config", "out", "subset"):
                default = DEFAULT_CONFIG
                for part in action.dest.split("."):
                    default = default[part]
                assert resolve_config(None, {action.dest: default}) == resolve_config(None), action.dest


def _defaults(function) -> dict:
    return {name: p.default for name, p in inspect.signature(function).parameters.items() if p.default is not p.empty}


def test_every_default_config_value_is_the_library_default_it_mirrors():
    """A setting's default lives in the library and again in DEFAULT_CONFIG;
    the two must not drift apart."""
    c = DEFAULT_CONFIG
    mirrors = {
        SynthConfig: dict(c["synth"], seed=c["seed"]),
        ResampleConfig: dict(c["resample"], seed=c["seed"]),
        TrainConfig: {k: v for k, v in dict(c["train"], seed=c["seed"]).items() if k != "use_class_weights"},
    }
    for cls, settings in mirrors.items():
        library = {f.name: f.default for f in dataclasses.fields(cls)}
        assert {k: library[k] for k in settings} == settings, cls.__name__
    assert TrainConfig().class_weights is None and c["train"]["use_class_weights"] is False
    spectral = _defaults(spectral_params_for)
    assert {"segment_seconds": spectral["seconds"], "overlap": spectral["overlap"]} == c["spectral"]
    assert _defaults(morlet_scales) == c["wavelet"]
    assert list(_defaults(split_dataset)["ratios"]) == c["split"]["ratios"]
    assert _defaults(classification_metrics)["threshold"] == c["threshold"]


def test_coherence_mode_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "mode.json"
    cfg.write_text(json.dumps({"features": {"coherence_mode": "per_pair"}}))
    assert run("featurize", str(tmp_path), "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    assert "InvalidConfig: unknown config key 'features.coherence_mode'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> ingest -> featurize -> train once; several tests read it."""
    root = tmp_path_factory.mktemp("cli")
    raw, work, model = root / "raw", root / "work", root / "model"
    assert run("synth", "--n-events", "24", "--separability", "4.0",
               "--class-ratio", "0.5", "--seed", "6", "--out", str(raw)) == 0
    assert run("ingest", str(raw), "--seed", "6", "--out", str(work)) == 0
    assert run("featurize", str(work), "--seed", "6", "--out", str(work)) == 0
    cfg = root / "train.json"
    cfg.write_text(json.dumps({
        "seed": 6,
        "train": {"max_epochs": 12, "patience": 12, "batch_size": 8, "learning_rate": 0.01},
        "model": {"fcnn": {"hidden_sizes": [16], "dropout_p": 0.0}},
        "split": {"ratios": [0.6, 0.2, 0.2]},
    }))
    assert run("train", str(work), "--config", str(cfg), "--out", str(model)) == 0
    return root, raw, work, model, cfg


def test_synth_and_ingest_outputs(pipeline):
    root, raw, work, model, cfg = pipeline
    assert (raw / "alarms.csv").exists()
    assert len(list(raw.glob("*.hea"))) == 24
    meta = json.loads((work / "meta.json").read_text())
    assert sorted(meta) == ["alarm_index", "channels", "config_hash", "fs", "record_ids", "seed", "window_samples"]
    assert meta["seed"] == 6
    assert len(meta["record_ids"]) == 24
    windows = np.load(work / "windows.npy")
    assert windows.shape == (24, int(360 * meta["fs"]), 3)
    labels = np.load(work / "labels.npy")
    assert labels.sum() == 12
    assert meta["channels"] == ["ECG lead I", "ECG lead II", "PLETH"]


def test_a_rate_at_which_the_sides_round_apart_runs_end_to_end(tmp_path):
    """At 50.0015 Hz a window has round(300 fs) + round(60 fs) = 18000 samples
    but round(360 fs) = 18001. Ingest, its meta.json and featurize all count
    the window as extract_alarm_window cuts it."""
    raw, work = tmp_path / "raw", tmp_path / "work"
    assert run("synth", "--n-events", "4", "--class-ratio", "0.5", "--fs", "50.0015", "--out", str(raw)) == 0
    assert run("ingest", str(raw), "--out", str(work)) == 0
    assert run("featurize", str(work), "--out", str(work)) == 0
    meta = json.loads((work / "meta.json").read_text())
    record_id, alarm_time, _ = wfdb_io.read_alarm_index(raw / "alarms.csv")[0]
    window = wfdb_io.extract_alarm_window(wfdb_io.load_record(raw, record_id), alarm_time)
    onset = wfdb_io.window_bounds(window.header.sampling_frequency)[0]
    assert (meta["alarm_index"], meta["window_samples"]) == (onset, len(window.samples)) == (15000, 18000)
    assert np.load(work / "windows.npy", mmap_mode="r").shape == (4, 18000, 3)
    assert len((work / "features.csv").read_text().splitlines()) == 2 + 4


def test_featurize_output(pipeline):
    root, raw, work, model, cfg = pipeline
    lines = (work / "features.csv").read_text().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    assert header[:2] == ["record_id", "label"]
    assert len(header) == 2 + 27  # 8 per channel plus 3 pairwise couplings
    assert len(lines) == 2 + 24


def test_train_outputs(pipeline):
    root, raw, work, model, cfg = pipeline
    for name in ("model.ckpt", "history.csv", "split.json"):
        assert (model / name).exists(), name
    assert not (model / "scaler.txt").exists()  # the input range is in model.ckpt
    split = json.loads((model / "split.json").read_text())
    counts = {k: len(split[k]) for k in ("train", "val", "test")}
    assert sum(counts.values()) == 24
    assert counts["val"] >= 2 and counts["test"] >= 2
    history = (model / "history.csv").read_text()
    assert history.startswith("# config=")


@pytest.fixture(scope="module")
def cnn_model(pipeline):
    """A small cnn trained on the pipeline's windows."""
    root, raw, work, model, cfg = pipeline
    cnn = root / "cnn.json"
    cnn.write_text(json.dumps({
        **json.loads(cfg.read_text()),
        "architecture": "cnn",
        "train": {"max_epochs": 1, "patience": 1, "batch_size": 8},
        "model": {"cnn": {"n_filters": 8, "n_heads": 2, "dense_sizes": [8], "decimation": 150, "dropout_p": 0.0}},
    }))
    out = root / "cnn_model"
    assert run("train", str(work), "--config", str(cnn), "--out", str(out)) == 0
    return out


def _feature_rows(work, idx):
    return np.loadtxt(work / "features.csv", delimiter=",", skiprows=2, usecols=range(2, 2 + 27))[idx]


@pytest.mark.parametrize("arch", ["fcnn", "cnn"])
def test_the_checkpoint_carries_the_range_fit_on_the_train_rows(pipeline, cnn_model, arch):
    root, raw, work, model, cfg = pipeline
    model_dir = model if arch == "fcnn" else cnn_model
    loaded = load_checkpoint(model_dir / "model.ckpt")
    train_rows = json.loads((model_dir / "split.json").read_text())["train"]
    if arch == "fcnn":
        x = _feature_rows(work, train_rows)
    else:
        windows = np.load(work / "windows.npy")[train_rows, :: loaded.hyperparams["decimation"]].astype(np.float64)
        x = windows.reshape(-1, windows.shape[-1])
    want = fit_scaler(x)
    assert loaded.scaler.minimum.tobytes() == want.minimum.tobytes()
    assert loaded.scaler.maximum.tobytes() == want.maximum.tobytes()


def test_a_scaler_file_beside_the_checkpoint_is_not_read(pipeline, tmp_path):
    root, raw, work, model, cfg = pipeline
    stale = tmp_path / "model"
    shutil.copytree(model, stale)
    # a range another run could have written in the old text format
    other = fit_scaler(_feature_rows(work, json.loads((model / "split.json").read_text())["test"]))
    (stale / "scaler.txt").write_text("\n".join([
        "scaler_version=1",
        f"n_features={other.minimum.size}",
        "min=" + ",".join(repr(float(v)) for v in other.minimum),
        "max=" + ",".join(repr(float(v)) for v in other.maximum),
    ]) + "\n")
    for model_dir, out in ((model, tmp_path / "a"), (stale, tmp_path / "b")):
        assert run("evaluate", str(model_dir), str(work), "--config", str(cfg), "--split", "all", "--out", str(out)) == 0
    assert (tmp_path / "a" / "scores.csv").read_bytes() == (tmp_path / "b" / "scores.csv").read_bytes()


def test_evaluate_writes_report_and_is_repeatable(pipeline):
    root, raw, work, model, cfg = pipeline
    eval_a, eval_b = root / "eval_a", root / "eval_b"
    for out in (eval_a, eval_b):
        assert run("evaluate", str(model), str(work), "--config", str(cfg),
                   "--split", "all", "--out", str(out)) == 0
    assert (eval_a / "report.json").read_bytes() == (eval_b / "report.json").read_bytes()
    assert (eval_a / "scores.csv").read_bytes() == (eval_b / "scores.csv").read_bytes()

    report = json.loads((eval_a / "report.json").read_text())
    assert report["subset"] == "all"
    assert report["n_samples"] == 24
    assert set(report["per_class"]) == {"true_alarm", "false_alarm"}
    assert report["config_hash"] == config_hash(resolve_config(str(cfg)))
    assert 0.0 <= report["roc_auc"] <= 1.0


def test_evaluate_default_subset_is_test(pipeline):
    root, raw, work, model, cfg = pipeline
    out = root / "eval_test"
    assert run("evaluate", str(model), str(work), "--config", str(cfg), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    split = json.loads((model / "split.json").read_text())
    assert report["subset"] == "test"
    assert report["n_samples"] == len(split["test"])


def test_predict_emits_one_decision_per_row(pipeline):
    root, raw, work, model, cfg = pipeline
    out = root / "pred"
    assert run("predict", str(model), str(work), "--config", str(cfg), "--out", str(out)) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert len(lines) == 2 + 24
    for line in lines[2:]:
        rid, score, alert = line.split(",")
        assert 0.0 <= float(score) <= 1.0
        assert alert in ("true", "false")


def test_the_fixture_model_ranks_every_true_alarm_above_every_false_one(pipeline):
    """The fixture's separability-4 corpus is easy, so a model that learns it
    scores AUC 1 in train's history, evaluate's report and predict's rows; an
    inverted score would read 0 and a constant one 0.5."""
    root, raw, work, model, cfg = pipeline
    history = (model / "history.csv").read_text().splitlines()[2:]
    assert max(float(line.split(",")[2]) for line in history) == 1.0
    out = root / "eval_auc"
    assert run("evaluate", str(model), str(work), "--config", str(cfg), "--out", str(out)) == 0
    assert json.loads((out / "report.json").read_text())["roc_auc"] == 1.0
    assert run("predict", str(model), str(work), "--config", str(cfg), "--out", str(out)) == 0
    scores = [float(line.split(",")[1]) for line in (out / "predictions.csv").read_text().splitlines()[2:]]
    assert roc_auc(np.array(scores), np.load(work / "labels.npy")) == 1.0


def test_predict_alerts_exactly_the_rows_whose_score_reaches_the_threshold(pipeline, tmp_path, capsys):
    root, raw, work, model, cfg = pipeline

    def predict(out, *flags):
        assert run("predict", str(model), str(work), "--config", str(cfg), "--out", str(out), *flags) == 0
        rows = [line.split(",") for line in (out / "predictions.csv").read_text().splitlines()[2:]]
        return rows, capsys.readouterr().out

    rows, _ = predict(tmp_path / "first")
    # the row of the median score becomes the threshold, which it must reach
    k = sorted(range(len(rows)), key=lambda i: float(rows[i][1]))[len(rows) // 2]
    threshold = float(rows[k][1])
    rows, printed = predict(tmp_path / "second", "--threshold", repr(threshold))
    assert rows[k][2] == "true"
    assert all(alert == ("true" if float(score) >= threshold else "false") for _, score, alert in rows)
    n_alerts = sum(alert == "true" for _, _, alert in rows)
    assert 0 < n_alerts < len(rows)
    assert f"scored {len(rows)} events, {n_alerts} alerts at threshold {threshold} " in printed


def test_cnn_training_path(tmp_path):
    raw, work, model = tmp_path / "raw", tmp_path / "work", tmp_path / "model"
    assert run("synth", "--n-events", "12", "--separability", "4.0",
               "--class-ratio", "0.5", "--seed", "2", "--out", str(raw)) == 0
    assert run("ingest", str(raw), "--seed", "2", "--out", str(work)) == 0
    cfg = tmp_path / "cnn.json"
    cfg.write_text(json.dumps({
        "seed": 2,
        "architecture": "cnn",
        "train": {"max_epochs": 2, "patience": 5, "batch_size": 4},
        "model": {"cnn": {"n_filters": 8, "n_heads": 2, "dense_sizes": [16],
                          "decimation": 150, "dropout_p": 0.0}},
        "split": {"ratios": [0.5, 0.25, 0.25]},
    }))
    assert run("train", str(work), "--config", str(cfg), "--out", str(model)) == 0
    out = tmp_path / "eval"
    assert run("evaluate", str(model), str(work), "--config", str(cfg),
               "--split", "all", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_samples"] == 12


@pytest.mark.parametrize("decimation", [4, 150])
def test_cnn_inputs_are_the_decimated_windows(pipeline, decimation):
    root, raw, work, model, cfg = pipeline
    _, labels, rows = cli._prepare_arrays(work, "cnn", {"decimation": decimation})
    x = rows(np.arange(len(labels)))
    want = np.load(work / "windows.npy")[:, ::decimation].astype(np.float64)
    assert x.shape == want.shape
    assert x.tobytes() == want.tobytes()


class _AtFirstStep(Exception):
    pass


@pytest.mark.parametrize("method, peak, held", [("none", 2.0, 1.1), ("smote", 2.3, 1.5)], ids=["none", "smote"])
def test_cnn_train_holds_its_inputs_about_once_at_the_first_step(pipeline, tmp_path, monkeypatch, method, peak, held):
    root, raw, work, model, cfg = pipeline
    seen = {}

    def first_step(*args):
        seen["held"], seen["peak"] = tracemalloc.get_traced_memory()
        raise _AtFirstStep

    monkeypatch.setattr(cli, "train", first_step)
    config = resolve_config(str(cfg), {"architecture": "cnn", "resample.method": method})
    n_windows, n_samples, n_channels = np.load(work / "windows.npy", mmap_mode="r").shape
    step = hyperparams_for("cnn", config["model"]["cnn"])["decimation"]
    x_bytes = n_windows * len(range(0, n_samples, step)) * n_channels * 8  # every window as float64
    tracemalloc.start()
    try:
        with pytest.raises(_AtFirstStep):
            cli.cmd_train(config, work, tmp_path / "m")
    finally:
        tracemalloc.stop()
    # the train and val rows, each scaled once; the old path held the whole
    # stack, a scaled copy and its row copies (3.7x, 4.0x with SMOTE)
    assert seen["peak"] <= peak * x_bytes
    assert seen["held"] <= held * x_bytes


def test_evaluate_scores_only_the_subset_rows(pipeline, monkeypatch):
    root, raw, work, model, cfg = pipeline
    scored, predict = [], Model.predict

    def counting_predict(self, x, **kwargs):
        scored.append(len(x))
        return predict(self, x, **kwargs)

    monkeypatch.setattr(Model, "predict", counting_predict)
    assert run("evaluate", str(model), str(work), "--config", str(cfg), "--out", str(root / "eval_rows")) == 0
    split = json.loads((model / "split.json").read_text())
    assert scored == [len(split["test"])]


# --------------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "command, flag",
    [
        ("synth", ["--arch", "cnn"]),
        ("ingest", ["--threshold", "0.9"]),
        ("featurize", ["--k", "3"]),
        ("train", ["--threshold", "0.2"]),
        ("evaluate", ["--resample", "smote"]),
        ("predict", ["--class-weights"]),
    ],
)
def test_a_flag_the_command_does_not_read_is_refused(pipeline, tmp_path, capsys, command, flag):
    root, raw, work, model, cfg = pipeline
    argv = {
        "synth": ["--n-events", "12"],
        "ingest": [str(raw)],
        "featurize": [str(work)],
        "train": [str(work), "--config", str(cfg)],
        "evaluate": [str(model), str(work), "--config", str(cfg)],
        "predict": [str(model), str(work), "--config", str(cfg)],
    }[command]
    with pytest.raises(SystemExit) as exited:
        run(command, *argv, *flag, "--out", str(tmp_path / "out"))
    assert exited.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_an_out_of_range_threshold_exits_before_the_model_is_read(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run(command, str(tmp_path / "no-model"), str(tmp_path), "--threshold", "1.5", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: ValueOutOfRange:")
    assert not out.exists()


def test_missing_input_exits_nonzero(tmp_path, capsys):
    assert run("train", str(tmp_path), "--out", str(tmp_path / "m")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MissingInput:")


@pytest.mark.parametrize("empty", ["val", "test"])
def test_train_with_an_empty_split_list_exits_nonzero(pipeline, tmp_path, capsys, empty):
    root, raw, work, model, cfg = pipeline
    lists = {"train": list(range(16)), "val": list(range(16, 20)), "test": list(range(20, 24))}
    lists[empty] = []
    split = tmp_path / "split.json"
    split.write_text(json.dumps(lists))
    bad = tmp_path / "train.json"
    bad.write_text(json.dumps({**json.loads(cfg.read_text()), "split": {"file": str(split)}}))
    assert run("train", str(work), "--config", str(bad), "--out", str(tmp_path / "m")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig:")
    assert f"empty {empty} list" in err


def test_train_with_a_one_class_val_list_exits_before_training(pipeline, tmp_path, capsys, monkeypatch):
    root, raw, work, model, cfg = pipeline
    labels = np.load(work / "labels.npy")
    false_rows = np.flatnonzero(labels == 0)
    val = false_rows[:3].tolist()
    rest = [i for i in range(labels.size) if i not in val]
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"train": rest[:-4], "val": val, "test": rest[-4:]}))
    bad = tmp_path / "train.json"
    bad.write_text(json.dumps({**json.loads(cfg.read_text()), "split": {"file": str(split)}}))
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("training started"))
    assert run("train", str(work), "--config", str(bad), "--out", str(tmp_path / "m")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig:")
    assert "0 true and 3 false alarms" in err


@pytest.mark.parametrize(
    "settings, error",
    [
        ({"split": {"ratios": [0.5, 0.2, 0.2]}}, "InvalidConfig"),
        ({"split": {"ratios": ["half", 0.2, 0.3]}}, "InvalidConfig"),
        ({"resample": {"method": "smote", "ratio": 1.5}}, "InvalidConfig"),
        ({"model": {"fcnn": {"hidden_sizes": ["x"]}}}, "InvalidConfig"),
        ({"architecture": "cnn", "model": {"cnn": {"n_filters": "x"}}}, "InvalidConfig"),
        ({"train": {"batch_size": 4.9}}, "InvalidConfig"),
        ({"train": {"use_class_weights": "false"}}, "InvalidConfig"),
        ({"train": {"learning_rate": float("nan")}}, "InvalidConfig"),
        ({"seed": 1.7}, "InvalidConfig"),
        ({"seed": "x"}, "InvalidConfig"),
        ({"threshold": "x"}, "InvalidConfig"),
        ({"data_dir": 5}, "InvalidConfig"),
        ({"split": {"file": 3}}, "InvalidConfig"),
        ({"architecture": "cnn", "model": {"cnn": {"n_filters": "4"}}}, "InvalidConfig"),
        ({"architecture": "cnn", "model": {"cnn": {"decimation": 0}}}, "InvalidConfig"),
        ({"architecture": "cnn", "model": {"cnn": {"decimation": -5}}}, "InvalidConfig"),
        ({"architecture": "cnn", "model": {"cnn": {"decimation": "x"}}}, "InvalidConfig"),
    ],
)
def test_train_with_invalid_settings_exits_nonzero(pipeline, tmp_path, capsys, monkeypatch, settings, error):
    root, raw, work, model, cfg = pipeline
    bad = tmp_path / "train.json"
    bad.write_text(json.dumps({**json.loads(cfg.read_text()), **settings}))  # json writes nan as NaN
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("training started"))
    assert run("train", str(work), "--config", str(bad), "--out", str(tmp_path / "m")) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}:")


@pytest.mark.parametrize(
    "command, settings, error",
    [
        ("synth", {"seed": 1.7}, "InvalidConfig"),
        ("synth", {"synth": {"n_events": "24"}}, "InvalidConfig"),
        ("featurize", {"wavelet": {"n_scales": 24.0}}, "InvalidConfig"),
        ("featurize", {"features": {"analysis_span": [0, "60"]}}, "InvalidConfig"),
        ("train", {"model": {"fcnn": {"hidden_sizes": [4.7]}}}, "InvalidConfig"),
        ("train", {"architecture": "cnn", "model": {"cnn": {"decimation": 0}}}, "InvalidConfig"),
        ("evaluate", {"threshold": "x"}, "InvalidConfig"),
        ("evaluate", {"threshold": float("inf")}, "InvalidConfig"),
    ],
)
def test_ill_typed_settings_exit_before_any_data_is_read(tmp_path, capsys, monkeypatch, command, settings, error):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(settings))
    monkeypatch.setattr(cli, "_require", lambda *args: pytest.fail("a data file was read"))
    argv = {"synth": [], "featurize": ["data"], "train": ["data"], "evaluate": ["model", "data"]}[command]
    assert run(command, *argv, "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}:")


@pytest.mark.parametrize("argv", [["synth"], ["train", "data", "--arch", "fcnn"]], ids=["synth", "train-fcnn"])
def test_a_misspelled_hyperparameter_of_either_architecture_exits_nonzero(tmp_path, capsys, monkeypatch, argv):
    cfg = tmp_path / "typo.json"
    cfg.write_text(json.dumps({"model": {"cnn": {"n_filter": 8}}}))
    monkeypatch.setattr(cli, "_require", lambda *args: pytest.fail("a data file was read"))
    assert run(*argv, "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == ["error: InvalidConfig: unknown hyperparameter 'n_filter' for cnn"]
    assert not (tmp_path / "out").exists()


def test_train_of_an_unknown_architecture_exits_before_any_data_is_read(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "rnn.json"
    cfg.write_text(json.dumps({"architecture": "rnn"}))
    monkeypatch.setattr(cli, "_require", lambda *args: pytest.fail("a data file was read"))
    assert run("train", "data", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidConfig:") and "'rnn'" in err[0], err
    assert not (tmp_path / "out").exists()


def test_a_negative_seed_flag_exits_nonzero(tmp_path, capsys):
    assert run("synth", "--seed", "-1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig:")
    assert not list(tmp_path.iterdir())


def test_synth_with_a_huge_fs_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "fs.json"
    cfg.write_text(json.dumps({"synth": {"fs": 1e300}}))
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_synth_of_a_single_class_corpus_exits_nonzero(tmp_path, capsys):
    assert run("synth", "--n-events", "2", "--class-ratio", "0.1", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig:")
    assert not (tmp_path / "out").exists()


def test_class_weights_and_resampling_conflict(tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    assert run("train", str(work), "--class-weights", "--resample", "smote",
               "--out", str(tmp_path / "m")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig:")


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"speed": 1}))
    assert run("synth", "--config", str(cfg), "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig:")


def test_ingest_of_an_empty_alarm_index_exits_nonzero(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "alarms.csv").write_text("record_id,alarm_time_s,label\n")
    assert run("ingest", str(raw), "--out", str(tmp_path / "work")) == 1
    assert capsys.readouterr().err.startswith("error: TooFewSamples:")
    assert not (tmp_path / "work" / "windows.npy").exists()


def test_featurize_with_a_span_outside_the_window_exits_nonzero(pipeline, capsys):
    root, raw, work, model, cfg = pipeline
    bad = root / "span.json"
    bad.write_text(json.dumps({"features": {"analysis_span": [0, 1000]}}))
    assert run("featurize", str(work), "--config", str(bad), "--out", str(root / "span")) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig:")


def test_featurize_refuses_a_wavelet_too_wide_to_plan(pipeline, capsys):
    """f_min 1e-3 Hz at 50 Hz asks for a 190985-sample kernel half-width,
    whose edge Gram would take 272 GiB: refused before any is built."""
    root, raw, work, model, cfg = pipeline
    wide = root / "wide.json"
    wide.write_text(json.dumps({"wavelet": {"f_min": 1e-3}}))
    assert run("featurize", str(work), "--config", str(wide), "--out", str(root / "wide")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidConfig: the widest Morlet kernel is 190985 samples"), err
    assert "wavelet.f_min" in err[0]
    assert not (root / "wide" / "features.csv").exists()


def test_featurize_refuses_more_scales_than_a_plan_may_build(pipeline, capsys):
    """10**12 scales would ask np.logspace for 7.28 TiB: refused first."""
    root, raw, work, model, cfg = pipeline
    many = root / "many_scales.json"
    many.write_text(json.dumps({"wavelet": {"n_scales": 10**12}}))
    assert run("featurize", str(work), "--config", str(many), "--out", str(root / "many_scales")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidConfig:") and "wavelet.n_scales" in err[0], err
    assert not (root / "many_scales" / "features.csv").exists()


def test_featurize_refuses_a_welch_workspace_too_large(pipeline, capsys):
    """180 s segments with overlap 0.9999 at 50 Hz would give each worker a
    (3, 9001, 9000) segment copy and its spectra, 3.6 GiB."""
    root, raw, work, model, cfg = pipeline
    dense = root / "dense_welch.json"
    dense.write_text(json.dumps({"spectral": {"segment_seconds": 180.0, "overlap": 0.9999}}))
    assert run("featurize", str(work), "--config", str(dense), "--out", str(root / "dense_welch")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidConfig:"), err
    assert "spectral.segment_seconds" in err[0] and "spectral.overlap" in err[0]
    assert not (root / "dense_welch" / "features.csv").exists()


@pytest.mark.parametrize("option, rows", [(["--resample", "adasyn"], 16), (["--class-weights"], 11)], ids=["adasyn", "class-weights"])
def test_train_with_each_imbalance_option_then_evaluate(pipeline, capsys, option, rows):
    """The fixture's train rows minus 5 true alarms, 3 true and 8 false:
    ADASYN adds 5 true rows, class weights weigh the 11 rows."""
    root, raw, work, model, cfg = pipeline
    name = option[-1].lstrip("-")
    split = json.loads((model / "split.json").read_text())
    labels = np.load(work / "labels.npy")
    dropped = [i for i in split["train"] if labels[i] == 1][:5]
    split["train"] = [i for i in split["train"] if i not in dropped]
    (root / f"split_{name}.json").write_text(json.dumps(split))
    config = root / f"train_{name}.json"
    config.write_text(json.dumps(dict(json.loads(cfg.read_text()), split={"file": str(root / f"split_{name}.json")})))
    trained, scored = root / f"model_{name}", root / f"eval_{name}"
    capsys.readouterr()
    assert run("train", str(work), "--config", str(config), *option, "--out", str(trained)) == 0
    assert f" on {rows} rows," in capsys.readouterr().out
    assert run("evaluate", str(trained), str(work), "--config", str(config), "--out", str(scored)) == 0
    report = json.loads((scored / "report.json").read_text())
    assert report["n_samples"] == 4 and 0.0 <= report["roc_auc"] <= 1.0


def test_failed_ingest_leaves_no_windows_file(pipeline, tmp_path, capsys):
    root, raw, work, model, cfg = pipeline
    broken = tmp_path / "raw"
    broken.mkdir()
    for path in raw.iterdir():
        (broken / path.name).write_bytes(path.read_bytes())
    lines = (raw / "alarms.csv").read_text().splitlines()
    (broken / "alarms.csv").write_text("\n".join(lines + ["missing_record,300,true"]) + "\n")
    out = tmp_path / "work"
    assert run("ingest", str(broken), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: MissingInput:")
    assert not (out / "windows.npy").exists()
    assert not (out / "windows.npy.partial").exists()


def test_an_alarm_index_saved_with_a_byte_order_mark_ingests_the_same(pipeline, tmp_path):
    root, raw, work, model, cfg = pipeline
    marked = tmp_path / "raw"
    shutil.copytree(raw, marked)
    (marked / "alarms.csv").write_bytes(b"\xef\xbb\xbf" + (raw / "alarms.csv").read_bytes())
    out = tmp_path / "work"
    assert run("ingest", str(marked), "--seed", "6", "--out", str(out)) == 0
    for name in ("windows.npy", "labels.npy", "meta.json"):
        assert (out / name).read_bytes() == (work / name).read_bytes(), name


def test_a_config_file_saved_with_a_byte_order_mark_resolves(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 3}).encode())
    assert resolve_config(str(cfg))["seed"] == 3


def test_ingest_of_a_record_with_its_channels_in_another_order_exits_nonzero(pipeline, tmp_path, capsys):
    root, raw, work, model, cfg = pipeline
    shuffled = tmp_path / "raw"
    shutil.copytree(raw, shuffled)
    record = wfdb_io.load_record(raw, "ev00003")
    order = [2, 1, 0]
    record.header.signals = [record.header.signals[c] for c in order]
    record.samples, record.missing_mask = record.samples[:, order], record.missing_mask[:, order]
    wfdb_io.save_record(shuffled, record)
    out = tmp_path / "work"
    assert run("ingest", str(shuffled), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidConfig: ev00003 has channels ['PLETH', 'ECG lead II', 'ECG lead I']")
    assert len(err.splitlines()) == 1
    assert not (out / "windows.npy").exists()


def _first_train_row(pipeline) -> int:
    root, raw, work, model, cfg = pipeline
    return json.loads((model / "split.json").read_text())["train"][0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_feature_exits_nonzero(pipeline, tmp_path, capsys, monkeypatch, value):
    root, raw, work, model, cfg = pipeline
    row = _first_train_row(pipeline)
    data = tmp_path / "work"
    shutil.copytree(work, data)
    lines = (data / "features.csv").read_text().splitlines()
    fields = lines[2 + row].split(",")
    fields[5] = value
    lines[2 + row] = ",".join(fields)
    (data / "features.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("training started"))
    assert run("train", str(data), "--config", str(cfg), "--out", str(tmp_path / "m")) == 1
    assert run("evaluate", str(model), str(data), "--split", "all", "--out", str(tmp_path / "eval")) == 1
    err = capsys.readouterr().err.splitlines()
    want = f"error: ValueOutOfRange: record {fields[0]} has a non-finite model input"
    assert err == [want, want]


def test_a_nan_sample_in_the_cnn_windows_exits_nonzero(pipeline, tmp_path, capsys, monkeypatch):
    root, raw, work, model, cfg = pipeline
    row = _first_train_row(pipeline)
    data = tmp_path / "work"
    shutil.copytree(work, data)
    windows = np.load(data / "windows.npy")
    windows[row, 0, 1] = np.nan  # sample 0 survives any decimation
    np.save(data / "windows.npy", windows)
    cnn = tmp_path / "cnn.json"
    cnn.write_text(json.dumps({**json.loads(cfg.read_text()), "architecture": "cnn"}))
    monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("training started"))
    assert run("train", str(data), "--config", str(cnn), "--out", str(tmp_path / "m")) == 1
    record_id = json.loads((data / "meta.json").read_text())["record_ids"][row]
    assert capsys.readouterr().err.splitlines() == [f"error: ValueOutOfRange: record {record_id} has a non-finite model input"]


# ------------------------------------------------------ malformed input files


def _rewrite(path, pattern, replacement):
    text = path.read_text()
    edited = re.sub(pattern, replacement, text, count=1)
    assert edited != text
    path.write_text(edited)


def _evaluate_with_edited(pipeline, tmp_path, capsys, name, edit):
    """Evaluate after ``edit(path)`` of one file in a copy of the trained model."""
    root, raw, work, model, cfg = pipeline
    bad = tmp_path / "model"
    shutil.copytree(model, bad)
    edit(bad / name)
    assert run("evaluate", str(bad), str(work), "--out", str(tmp_path / "eval")) == 1
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "pattern, replacement",
    [
        (r"\{", "{{"),
        (r'"test": \[[^\]]*\]', '"test": [[0, 1], [2, 3]]'),
        (r'("train": \[\s*\d+)', r"\1.5"),  # an index that would truncate to itself
    ],
    ids=["not-json", "nested-lists", "non-integer-entry"],
)
def test_evaluate_with_a_malformed_split_file_exits_nonzero(pipeline, tmp_path, capsys, pattern, replacement):
    err = _evaluate_with_edited(pipeline, tmp_path, capsys, "split.json", lambda p: _rewrite(p, pattern, replacement))
    assert err.startswith("error: InvalidConfig:")


def _edit_checkpoint_header(path, edit):
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + n])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :])


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.update(hyperparams=[16]),
        lambda h: h.update(input_shape=["x"]),
        lambda h: h["hyperparams"].update(hidden_sizes=["x"]),
    ],
    ids=["hyperparams-not-an-object", "non-integer-input-shape", "non-integer-hyperparameter"],
)
def test_evaluate_with_a_malformed_checkpoint_header_exits_nonzero(pipeline, tmp_path, capsys, edit):
    err = _evaluate_with_edited(pipeline, tmp_path, capsys, "model.ckpt", lambda p: _edit_checkpoint_header(p, edit))
    assert err.startswith("error: CorruptCheckpoint:")


def _without_a_range(path):
    model = load_checkpoint(path)
    model.scaler = None
    save_checkpoint(model, path)


def _with_a_range_one_column_short(path):
    model = load_checkpoint(path)
    model.scaler = ScalerParams(model.scaler.minimum[:-1], model.scaler.maximum[:-1])
    save_checkpoint(model, path)


def _with_only_the_minimum(path):
    width = load_checkpoint(path).input_shape[-1]

    def drop_the_maximum(header):
        assert header["arrays"].pop() == {"name": "input.maximum", "shape": [width]}

    _edit_checkpoint_header(path, drop_the_maximum)
    path.write_bytes(path.read_bytes()[: -8 * width])


@pytest.mark.parametrize("damage", [_without_a_range, _with_a_range_one_column_short, _with_only_the_minimum])
@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_scoring_with_a_checkpoint_without_a_whole_input_range_exits_nonzero(pipeline, tmp_path, capsys, command, damage):
    root, raw, work, model, cfg = pipeline
    bad = tmp_path / "model"
    shutil.copytree(model, bad)
    damage(bad / "model.ckpt")
    assert run(command, str(bad), str(work), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: CorruptCheckpoint:")
    if damage is _without_a_range:
        assert str(bad / "model.ckpt") in err[0]
    assert not (tmp_path / "out").exists()


def _one_error_line(capsys, kind, path):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {kind}:") and str(path) in err[0], err


def test_a_config_path_that_is_a_directory_exits_nonzero(pipeline, tmp_path, capsys):
    root, raw, work, model, cfg = pipeline
    assert run("train", str(work), "--config", str(tmp_path), "--out", str(tmp_path / "m")) == 1
    _one_error_line(capsys, "IsADirectoryError", tmp_path)


def test_a_checkpoint_path_that_is_a_directory_exits_nonzero(pipeline, tmp_path, capsys):
    root, raw, work, model, cfg = pipeline
    bad = tmp_path / "model"
    (bad / "model.ckpt").mkdir(parents=True)
    assert run("evaluate", str(bad), str(work), "--out", str(tmp_path / "out")) == 1
    _one_error_line(capsys, "IsADirectoryError", bad / "model.ckpt")


def test_ingest_of_a_signal_file_that_is_a_directory_exits_nonzero(pipeline, tmp_path, capsys):
    root, raw, work, model, cfg = pipeline
    broken = tmp_path / "raw"
    shutil.copytree(raw, broken)
    last = (raw / "alarms.csv").read_text().splitlines()[-1].split(",")[0]
    signal = broken / f"{last}.dat"  # the file its header names
    signal.unlink()
    signal.mkdir()
    out = tmp_path / "work"
    assert run("ingest", str(broken), "--out", str(out)) == 1
    _one_error_line(capsys, "IsADirectoryError", signal)
    assert not (out / "windows.npy").exists()
    assert not (out / "windows.npy.partial").exists()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "record_id,label,a,b\nr1,1,0.5,x\n",  # non-numeric value
        "record_id,label,a,b\nr1,1,0.5\n",  # a row shorter than the header
        "record_id,label,a,b\nr1,1,0.5,0.5\nr2,2,0.5,0.5\n",  # a label other than 0 or 1
    ],
    ids=["empty", "non-numeric", "short-row", "label-2"],
)
def test_evaluate_with_a_malformed_feature_table_exits_nonzero(pipeline, tmp_path, capsys, text):
    root, raw, work, model, cfg = pipeline
    data = tmp_path / "data"
    data.mkdir()
    (data / "features.csv").write_text(text)
    assert run("evaluate", str(model), str(data), "--out", str(tmp_path / "eval")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: InvalidConfig: {data / 'features.csv'} ")


def _number_the_record_ids(path):
    meta = json.loads(path.read_text())
    path.write_text(json.dumps({**meta, "record_ids": list(range(len(meta["record_ids"])))}))


def _double_the_rate(path):
    meta = json.loads(path.read_text())
    path.write_text(json.dumps({**meta, "fs": 2 * meta["fs"]}))


def _label_the_first_window_2(path):
    labels = np.load(path)
    labels[0] = 2
    np.save(path, labels)


@pytest.mark.parametrize(
    "name, damage",
    [
        ("meta.json", lambda p: p.write_text("{")),
        ("meta.json", lambda p: p.write_text("{}")),
        ("meta.json", _number_the_record_ids),
        ("meta.json", _double_the_rate),
        ("windows.npy", lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2])),
        ("labels.npy", lambda p: np.save(p, np.load(p).astype(np.float64))),
        ("labels.npy", _label_the_first_window_2),
    ],
    ids=["meta-not-json", "meta-without-fields", "meta-with-numeric-record-ids", "meta-at-another-rate",
         "truncated-windows", "float-labels", "a-label-of-2"],
)
def test_featurize_of_a_damaged_ingest_output_exits_nonzero(pipeline, tmp_path, capsys, name, damage):
    root, raw, work, model, cfg = pipeline
    data = tmp_path / "work"
    shutil.copytree(work, data)
    damage(data / name)
    assert run("featurize", str(data), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: InvalidConfig: {data}")


def test_featurize_of_windows_cut_short_after_loading_exits_nonzero(pipeline, tmp_path, capsys, monkeypatch):
    """windows.npy loses its last bytes after featurize has checked it: the
    read of the last window names the file and the window."""
    root, raw, work, model, cfg = pipeline
    data = tmp_path / "work"
    shutil.copytree(work, data)
    path = data / "windows.npy"
    n_windows = np.load(path, mmap_mode="r").shape[0]
    load = cli._load_windows

    def load_then_cut(data_dir):
        loaded = load(data_dir)
        path.write_bytes(path.read_bytes()[:-8])
        return loaded

    monkeypatch.setattr(cli, "_load_windows", load_then_cut)
    assert run("featurize", str(data), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: InvalidConfig: {path} ends inside window {n_windows - 1};")


@pytest.mark.parametrize(
    "command, pattern, error",
    [
        ("ingest", "raw/alarms.csv", "MalformedHeader"),
        ("ingest", "raw/*.hea", "MalformedHeader"),
        ("evaluate", "work/features.csv", "InvalidConfig"),
    ],
)
def test_a_text_file_that_is_not_utf8_exits_nonzero(pipeline, tmp_path, capsys, command, pattern, error):
    root, raw, work, model, cfg = pipeline
    for src in (raw, work, model):
        shutil.copytree(src, tmp_path / src.name)
    for path in tmp_path.glob(pattern):
        path.write_bytes(b"\xff" + path.read_bytes())
    argv = {"ingest": ["raw"], "evaluate": ["model", "work"]}[command]
    assert run(command, *(str(tmp_path / a) for a in argv), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}:")


def test_ingest_of_a_record_in_another_directory_exits_nonzero(pipeline, tmp_path, capsys):
    root, raw, work, model, cfg = pipeline
    shutil.copytree(raw, tmp_path / "raw")
    other = tmp_path / "other"
    other.mkdir()
    (other / "alarms.csv").write_text("record_id,alarm_time_s,label\n../raw/ev00000,320,true\n")
    assert run("ingest", str(other), "--out", str(tmp_path / "work")) == 1
    assert capsys.readouterr().err.startswith("error: MalformedHeader: record id must be a bare file name")
    assert not (tmp_path / "work").exists()


def test_ingest_with_a_huge_alarm_time_exits_nonzero(pipeline, tmp_path, capsys):
    root, raw, work, model, cfg = pipeline
    huge = tmp_path / "raw"
    huge.mkdir()
    for name in ("ev00000.hea", "ev00000.dat"):
        shutil.copy(raw / name, huge / name)
    (huge / "alarms.csv").write_text("record_id,alarm_time_s,label\nev00000,1e308,true\n")
    assert run("ingest", str(huge), "--out", str(tmp_path / "work")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: WindowOutOfBounds:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("alarm_time", ["soon", "nan", "inf"])
def test_ingest_with_a_malformed_alarm_time_exits_nonzero(tmp_path, capsys, alarm_time):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "alarms.csv").write_text(f"record_id,alarm_time_s,label\nr1,{alarm_time},true\n")
    assert run("ingest", str(raw), "--out", str(tmp_path / "work")) == 1
    assert capsys.readouterr().err.startswith("error: MalformedHeader:")
