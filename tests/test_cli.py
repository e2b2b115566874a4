"""Config resolution and the command-line pipeline end to end."""

import json
import re
import shutil

import numpy as np
import pytest

from vtalarm import cli
from vtalarm.cli import DEFAULT_CONFIG, config_hash, main, resolve_config
from vtalarm.errors import InvalidConfig
from vtalarm.nn.model import Model


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
        "train": {"max_epochs": 12, "patience": 12, "batch_size": 8},
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
    assert meta["seed"] == 6
    assert len(meta["record_ids"]) == 24
    windows = np.load(work / "windows.npy")
    assert windows.shape == (24, int(360 * meta["fs"]), 3)
    labels = np.load(work / "labels.npy")
    assert labels.sum() == 12


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
    for name in ("model.ckpt", "history.csv", "scaler.txt", "split.json"):
        assert (model / name).exists(), name
    split = json.loads((model / "split.json").read_text())
    counts = {k: len(split[k]) for k in ("train", "val", "test")}
    assert sum(counts.values()) == 24
    assert counts["val"] >= 2 and counts["test"] >= 2
    history = (model / "history.csv").read_text()
    assert history.startswith("# config=")


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
    _, _, x = cli._prepare_arrays(work, "cnn", {"decimation": decimation})
    want = np.load(work / "windows.npy")[:, ::decimation].astype(np.float64)
    assert x.shape == want.shape
    assert x.tobytes() == want.tobytes()


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
        ({"model": {"fcnn": {"hidden_sizes": ["x"]}}}, "InvalidHyperparams"),
        ({"architecture": "cnn", "model": {"cnn": {"n_filters": "x"}}}, "InvalidHyperparams"),
        ({"train": {"batch_size": 4.9}}, "InvalidConfig"),
        ({"train": {"use_class_weights": "false"}}, "InvalidConfig"),
        ({"train": {"learning_rate": float("nan")}}, "InvalidConfig"),
        ({"seed": 1.7}, "InvalidConfig"),
        ({"seed": "x"}, "InvalidConfig"),
        ({"threshold": "x"}, "InvalidConfig"),
        ({"data_dir": 5}, "InvalidConfig"),
        ({"split": {"file": 3}}, "InvalidConfig"),
        ({"architecture": "cnn", "model": {"cnn": {"n_filters": "4"}}}, "InvalidHyperparams"),
        ({"architecture": "cnn", "model": {"cnn": {"decimation": 0}}}, "InvalidHyperparams"),
        ({"architecture": "cnn", "model": {"cnn": {"decimation": -5}}}, "InvalidHyperparams"),
        ({"architecture": "cnn", "model": {"cnn": {"decimation": "x"}}}, "InvalidHyperparams"),
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
        ("train", {"model": {"fcnn": {"hidden_sizes": [4.7]}}}, "InvalidHyperparams"),
        ("train", {"architecture": "cnn", "model": {"cnn": {"decimation": 0}}}, "InvalidHyperparams"),
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


def test_a_negative_seed_flag_exits_nonzero(tmp_path, capsys):
    assert run("synth", "--seed", "-1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig:")
    assert not list(tmp_path.iterdir())


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
    assert capsys.readouterr().err.startswith("error: EmptyInput:")
    assert not (tmp_path / "work" / "windows.npy").exists()


def test_featurize_with_a_span_outside_the_window_exits_nonzero(pipeline, capsys):
    root, raw, work, model, cfg = pipeline
    bad = root / "span.json"
    bad.write_text(json.dumps({"features": {"analysis_span": [0, 1000]}}))
    assert run("featurize", str(work), "--config", str(bad), "--out", str(root / "span")) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig:")


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
        (r"min=", "min=x"),
        (r"min=.*\n", ""),
        (r"n_features=\d+", "n_features=2.5"),
        (r"(max=.*),[^,\n]*\n", r"\1\n"),
    ],
    ids=["non-numeric", "no-min", "non-integer-count", "one-max-fewer"],
)
def test_evaluate_with_a_malformed_scaler_file_exits_nonzero(pipeline, tmp_path, capsys, pattern, replacement):
    err = _evaluate_with_edited(pipeline, tmp_path, capsys, "scaler.txt", lambda p: _rewrite(p, pattern, replacement))
    assert err.startswith("error: CorruptCheckpoint:")


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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "record_id,label,a,b\nr1,1,0.5,x\n",  # non-numeric value
        "record_id,label,a,b\nr1,1,0.5\n",  # a row shorter than the header
    ],
    ids=["empty", "non-numeric", "short-row"],
)
def test_evaluate_with_a_malformed_feature_table_exits_nonzero(pipeline, tmp_path, capsys, text):
    root, raw, work, model, cfg = pipeline
    data = tmp_path / "data"
    data.mkdir()
    (data / "features.csv").write_text(text)
    assert run("evaluate", str(model), str(data), "--out", str(tmp_path / "eval")) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig:")


@pytest.mark.parametrize(
    "name, damage",
    [
        ("meta.json", lambda p: p.write_text("{")),
        ("meta.json", lambda p: p.write_text("{}")),
        ("windows.npy", lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2])),
    ],
    ids=["meta-not-json", "meta-without-fields", "truncated-windows"],
)
def test_featurize_of_a_damaged_ingest_output_exits_nonzero(pipeline, tmp_path, capsys, name, damage):
    root, raw, work, model, cfg = pipeline
    data = tmp_path / "work"
    shutil.copytree(work, data)
    damage(data / name)
    assert run("featurize", str(data), "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig:")


@pytest.mark.parametrize(
    "command, pattern, error",
    [
        ("ingest", "raw/alarms.csv", "MalformedHeader"),
        ("ingest", "raw/*.hea", "MalformedHeader"),
        ("evaluate", "work/features.csv", "InvalidConfig"),
        ("evaluate", "model/scaler.txt", "CorruptCheckpoint"),
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


@pytest.mark.parametrize("alarm_time", ["soon", "nan", "inf"])
def test_ingest_with_a_malformed_alarm_time_exits_nonzero(tmp_path, capsys, alarm_time):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "alarms.csv").write_text(f"record_id,alarm_time_s,label\nr1,{alarm_time},true\n")
    assert run("ingest", str(raw), "--out", str(tmp_path / "work")) == 1
    assert capsys.readouterr().err.startswith("error: MalformedHeader:")
