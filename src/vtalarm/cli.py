"""Command-line pipeline: synth, ingest, featurize, train, evaluate, predict.

Configuration comes from a JSON file plus flag overrides (flags win).
Every run resolves to one canonical config whose SHA-256 prefix is
stamped, with the seed, into each text output's header comment and each
JSON output's fields, so artifacts can be traced to the exact settings
that produced them. Identical config and seed reproduce every output
byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpoint, InvalidConfig, MissingInput, TooFewSamples, ValueOutOfRange, VtalarmError
from .evaluate import alerts, classification_metrics
from .features import (  # noqa: F401  build_feature_vector stays importable from vtalarm.cli
    FeaturePlan,
    build_feature_vector,
    feature_matrix,
    feature_names,
    morlet_scales,
    spectral_params_for,
)
from .imbalance import METHODS, ResampleConfig, class_weights, resample
from .nn.checkpoint import load_checkpoint, save_checkpoint
from .nn.model import build_model, hyperparams_for
from .nn.training import TrainConfig, train
from .preprocess import apply_scaler, fit_scaler, impute_mean, load_split, split_dataset, split_json
from .synth import SynthConfig, generate_corpus
from .wfdb_io import extract_alarm_window, load_record, read_alarm_index, read_utf8, window_bounds

DEFAULT_CONFIG = {
    "seed": 0,
    "data_dir": None,
    "out_dir": ".",
    "architecture": "fcnn",
    "threshold": 0.5,
    "synth": {"n_events": 100, "class_ratio": 0.3, "fs": 50.0, "separability": 2.0},
    "spectral": {"segment_seconds": 4.0, "overlap": 0.5},
    "wavelet": {"f_min": 0.5, "f_max": 40.0, "n_scales": 24, "omega0": 6.0},
    "features": {"analysis_span": None},
    "split": {"ratios": [0.8, 0.1, 0.1], "file": None},
    "resample": {"method": "none", "ratio": 1.0, "k_neighbors": 5},
    "train": {
        "learning_rate": 1e-3,
        "batch_size": 32,
        "max_epochs": 100,
        "patience": 10,
        "use_class_weights": False,
    },
    "model": {"fcnn": {}, "cnn": {}},
}


# The type of each setting whose default is null, as a template value.
_NULL_DEFAULT_TYPES = {"data_dir": "", "split.file": "", "features.analysis_span": [0.0, 0.0]}
_KINDS = {int: "an integer", bool: "true or false", str: "a string"}


def _typed(where: str, template, value):
    """``value`` if it has the type of ``template``: an int takes only an int,
    a float any finite number (returned as a float), a list as many values
    as the template's."""
    if isinstance(template, list):
        if isinstance(value, list) and len(value) == len(template):
            return [_typed(where, t, v) for t, v in zip(template, value)]
        kind = f"a list of {len(template)} numbers"
    elif type(template) is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
        kind = "a finite number"
    elif type(value) is type(template) and not (where == "seed" and value < 0):
        return value
    else:
        kind = "a non-negative integer" if where == "seed" else _KINDS[type(template)]
    raise InvalidConfig(f"config key {where!r} must be {kind}, got {value!r}")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """Deep-merge ``override`` into ``base``; unknown keys and values of the
    wrong type are rejected, and so are hyperparameters either architecture
    would refuse."""
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise InvalidConfig(f"unknown config key {where!r}")
        if key == "model":
            maps = isinstance(value, dict) and all(isinstance(v, dict) for v in value.values())
            if not maps or not set(value) <= {"fcnn", "cnn"}:
                raise InvalidConfig("config key 'model' must map fcnn/cnn to hyperparameters")
            out[key] = {k: dict(base[key].get(k, {}), **value.get(k, {})) for k in ("fcnn", "cnn")}
            for arch, hyperparams in out[key].items():
                hyperparams_for(arch, hyperparams)
        elif isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise InvalidConfig(f"config key {where!r} must be a mapping")
            out[key] = _merge(base[key], value, where)
        elif value is None and where in _NULL_DEFAULT_TYPES:
            out[key] = None
        else:
            out[key] = _typed(where, _NULL_DEFAULT_TYPES.get(where, base[key]), value)
    return out


def resolve_config(config_path: str | None, overrides: dict | None = None) -> dict:
    """defaults <- config file <- flag overrides, whose dotted keys name nested
    settings. Every value is checked against the type of its default."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise MissingInput(f"config file {path} does not exist")
        try:
            loaded = json.loads(read_utf8(path, InvalidConfig))
        except ValueError as exc:
            raise InvalidConfig(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise InvalidConfig(f"config file {path} must hold a JSON object")
        config = _merge(config, loaded)
    for dotted, value in (overrides or {}).items():
        if value is not None:
            for part in reversed(dotted.split(".")):
                value = {part: value}
            config = _merge(config, value)
    return config


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _stamp(config: dict) -> str:
    return f"config={config_hash(config)} seed={config['seed']}"


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise MissingInput(f"{path} not found; {hint}")
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_csv(path: Path, stamp: str, header: list[str], rows) -> None:
    """A stamped CSV artifact: the ``# config=... seed=...`` line, the header,
    then one line per row of already-formatted cells, each ending in LF."""
    lines = [f"# {stamp}", ",".join(header), *map(",".join, rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _score_table(record_ids, scores, flags) -> tuple[list[str], list[list[str]]]:
    """The header and rows of scores.csv and predictions.csv."""
    rows = [[rid, repr(float(s)), "true" if a else "false"] for rid, s, a in zip(record_ids, scores, flags)]
    return ["record_id", "score", "alert"], rows


# ---------------------------------------------------------------- features csv


def _load_features_csv(path):
    rows = [line for line in read_utf8(path, InvalidConfig).splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",") if rows else []
    if header[:2] != ["record_id", "label"]:
        raise InvalidConfig(f"{path} is not a feature table (header {header[:2]})")
    names = header[2:]
    record_ids, labels, data = [], [], []
    for line in rows[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise InvalidConfig(f"{path} has a row of {len(parts)} fields, its header has {len(header)}")
        if parts[1] not in ("0", "1"):
            raise InvalidConfig(f"{path} gives record {parts[0]!r} the label {parts[1]!r}; a label is 0 or 1")
        labels.append(int(parts[1]))
        try:
            data.append([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise InvalidConfig(f"{path} has a non-numeric value in row {line!r}") from exc
        record_ids.append(parts[0])
    return record_ids, np.asarray(labels, dtype=np.int64), np.asarray(data, dtype=np.float64), names


def _load_windows(data_dir: Path):
    """windows.npy as a _WindowFile, with its labels and meta. Files that
    ingest did not write whole, or a rate at which ingest would have cut
    windows of another length, raise InvalidConfig."""
    paths = [_require(data_dir / name, "run ingest first") for name in ("windows.npy", "labels.npy", "meta.json")]
    try:
        windows = np.load(paths[0], mmap_mode="r")
        labels = np.load(paths[1])
        meta = json.loads(read_utf8(paths[2], InvalidConfig))
        fs = meta["fs"] = float(meta["fs"])
        record_ids = meta["record_ids"]
        counts = {len(windows), len(labels), len(record_ids)}
    except (ValueError, TypeError, KeyError, EOFError) as exc:
        raise InvalidConfig(f"{data_dir} holds a damaged ingest output: {exc!r}") from exc
    if labels.ndim != 1 or labels.dtype.kind not in "iu" or not np.isin(labels, (0, 1)).all():
        raise InvalidConfig(f"{paths[1]} must hold a 1-D integer array of 0/1 labels")
    if not (isinstance(record_ids, list) and all(isinstance(r, str) for r in record_ids)):
        raise InvalidConfig(f"{data_dir}/meta.json record_ids must be a list of strings")
    if len(counts) != 1 or not 0.0 < fs < np.inf:
        raise InvalidConfig(f"{data_dir}/meta.json does not describe windows.npy and labels.npy")
    windows = _WindowFile(windows)
    n_samples = sum(window_bounds(fs))
    if windows.shape[1] != n_samples:
        raise InvalidConfig(
            f"{data_dir}/meta.json gives fs {fs:g} Hz, at which a window has {n_samples} samples; "
            f"windows.npy holds {windows.shape[1]}"
        )
    return windows, labels.astype(np.int64), meta


class _WindowFile:
    """A (windows, samples, channels) .npy file that reads from disk only the
    window it is indexed by. Pages of a memory map stay resident once read;
    through this, featurize and the cnn inputs hold one window at a time."""

    def __init__(self, mapped: np.memmap):
        if mapped.ndim != 3 or not mapped.flags.c_contiguous or mapped.dtype.kind not in "fiu":
            raise InvalidConfig(f"{mapped.filename} must hold a C-ordered (windows, samples, channels) array of real numbers")
        self.path, self.shape, self.dtype, self.offset = mapped.filename, mapped.shape, mapped.dtype, mapped.offset

    def __getitem__(self, i: int) -> np.ndarray:
        per_window = self.shape[1] * self.shape[2]
        with open(self.path, "rb") as fh:
            fh.seek(self.offset + i * per_window * self.dtype.itemsize)
            window = np.fromfile(fh, dtype=self.dtype, count=per_window)
        if window.size != per_window:
            raise InvalidConfig(f"{self.path} ends inside window {i}; run ingest again")
        return window.reshape(self.shape[1:])


# ------------------------------------------------------------------- commands


def cmd_synth(config: dict, out_dir: Path) -> None:
    events = generate_corpus(SynthConfig(**config["synth"], seed=config["seed"]), out_dir)
    n_true = sum(label for _, _, label in events)
    print(
        f"synth: wrote {len(events)} records ({n_true} true / {len(events) - n_true} false) "
        f"to {out_dir} [{_stamp(config)}]"
    )


def cmd_ingest(config: dict, data_dir: Path, out_dir: Path) -> None:
    index = _require(Path(data_dir) / "alarms.csv", "synth or supply an alarm index")
    events = read_alarm_index(index)
    if not events:
        raise TooFewSamples(f"{index} lists no alarms")
    out_dir.mkdir(parents=True, exist_ok=True)
    # Each window goes to disk as soon as it is cut, so ingest never holds
    # the whole stack; the file only takes its name once it is complete.
    partial = out_dir / "windows.npy.partial"
    shape = None  # (n_events, n, C), fixed by the first window
    labels, record_ids = [], []
    fs = channels = None  # fixed by the first record
    try:
        with open(partial, "wb") as fh:
            for record_id, alarm_time, label in events:
                record = load_record(data_dir, record_id, verify_checksums=True)
                names = [signal.description for signal in record.header.signals]
                if fs is None:
                    fs, channels = record.header.sampling_frequency, names
                elif record.header.sampling_frequency != fs:
                    raise InvalidConfig(f"{record_id} samples at {record.header.sampling_frequency} Hz, corpus at {fs} Hz")
                elif names != channels:
                    raise InvalidConfig(f"{record_id} has channels {names}, corpus has {channels}")
                window = impute_mean(extract_alarm_window(record, alarm_time))
                if shape is None:
                    shape = (len(events),) + window.samples.shape
                    np.lib.format.write_array_header_1_0(fh, {"descr": "<f4", "fortran_order": False, "shape": shape})
                fh.write(window.samples.astype("<f4").tobytes())
                labels.append(label)
                record_ids.append(record_id)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    partial.replace(out_dir / "windows.npy")
    np.save(out_dir / "labels.npy", np.asarray(labels, dtype=np.int64))
    _write_json(
        out_dir / "meta.json",
        {
            "config_hash": config_hash(config),
            "seed": config["seed"],
            "record_ids": record_ids,
            "fs": fs,
            "channels": channels,
            "alarm_index": window_bounds(fs)[0],
            "window_samples": shape[1],
        },
    )
    print(f"ingest: {shape[0]} windows of {shape[1]}x{shape[2]} -> {out_dir} [{_stamp(config)}]")


def cmd_featurize(config: dict, data_dir: Path, out_dir: Path) -> None:
    windows, labels, meta = _load_windows(Path(data_dir))
    fs = meta["fs"]
    spectral = spectral_params_for(fs, seconds=config["spectral"]["segment_seconds"], overlap=config["spectral"]["overlap"])
    wavelet = morlet_scales(fs, **config["wavelet"])
    plan = FeaturePlan.build(windows.shape[1], spectral, wavelet, config["features"]["analysis_span"])
    matrix = feature_matrix(windows, plan)
    names = feature_names(windows.shape[2])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ([rid, str(int(y)), *map(repr, row.tolist())] for rid, y, row in zip(meta["record_ids"], labels, matrix))
    _write_csv(out_dir / "features.csv", _stamp(config), ["record_id", "label", *names], rows)
    print(f"featurize: {len(matrix)} x {len(names)} feature matrix -> {out_dir / 'features.csv'} [{_stamp(config)}]")


def _get_split(config: dict, labels: np.ndarray):
    if config["split"]["file"]:
        return load_split(_require(Path(config["split"]["file"]), "split file from config"))
    return split_dataset(labels, seed=config["seed"], ratios=config["split"]["ratios"])


def _prepare_arrays(data_dir: Path, arch: str, hyperparams: dict):
    """Returns (record_ids, labels, rows): rows(idx) builds the unscaled
    float64 model inputs of only the rows idx.

    fcnn consumes the feature table; cnn consumes raw windows, decimated
    by the architecture's stride. A row with a non-finite input raises
    ValueOutOfRange naming its record.
    """
    data_dir = Path(data_dir)
    if arch == "fcnn":
        ids, labels, table, _ = _load_features_csv(_require(data_dir / "features.csv", "run featurize first"))
        build = table.__getitem__
    else:
        windows, labels, meta = _load_windows(data_dir)
        ids, step = meta["record_ids"], hyperparams["decimation"]

        def build(idx):
            # one window at a time through file reads: decimating the memory
            # map would touch, and keep resident, every page of windows.npy
            x = np.empty((len(idx), len(range(0, windows.shape[1], step)), windows.shape[2]))
            for row, i in zip(x, idx):
                row[...] = windows[i][::step]
            return x

    def rows(idx: np.ndarray) -> np.ndarray:
        x = build(idx)
        for i, row in zip(idx, x):
            if not np.isfinite(row).all():
                raise ValueOutOfRange(f"record {ids[i]} has a non-finite model input")
        return x

    return ids, labels, rows


def cmd_train(config: dict, data_dir: Path, out_dir: Path) -> None:
    arch, seed = config["architecture"], config["seed"]
    hyperparams = hyperparams_for(arch, config["model"].get(arch, {}))
    rcfg = ResampleConfig(**config["resample"], seed=seed)
    use_weights = config["train"]["use_class_weights"]
    if use_weights and rcfg.method != "none":
        raise InvalidConfig("class weights and resampling are mutually exclusive; pick one")
    _, labels, rows = _prepare_arrays(data_dir, arch, hyperparams)
    split = _get_split(config, labels)
    train_idx, val_idx, _ = (_split_rows(split, which, len(labels)) for which in ("train", "val", "test"))
    val_labels = labels[val_idx]
    n_true, n_false = int(np.sum(val_labels == 1)), int(np.sum(val_labels == 0))
    if not (n_true and n_false):
        raise InvalidConfig(f"the val list needs both classes to score AUC; it holds {n_true} true and {n_false} false alarms")

    x_train, y_train = rows(train_idx), labels[train_idx]
    scaler = fit_scaler(x_train.reshape(-1, x_train.shape[-1]))
    x_train = apply_scaler(x_train, scaler)
    x_val = apply_scaler(rows(val_idx), scaler)
    if rcfg.method != "none":
        flat, y_train = resample(x_train.reshape(len(x_train), -1), y_train, rcfg)
        x_train = flat.reshape((len(flat),) + x_val.shape[1:])

    t = config["train"]
    train_config = TrainConfig(
        learning_rate=t["learning_rate"],
        batch_size=t["batch_size"],
        max_epochs=t["max_epochs"],
        patience=t["patience"],
        seed=seed,
        class_weights=class_weights(y_train) if use_weights else None,
    )
    model = build_model(arch, x_val.shape[1:], seed=seed, hyperparams=hyperparams)
    model.scaler = scaler
    history = train(model, x_train, y_train, x_val, val_labels, train_config)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out_dir / "model.ckpt")
    rows = ([str(r["epoch"]), repr(float(r["train_loss"])), repr(float(r["val_auc"]))] for r in history)
    _write_csv(out_dir / "history.csv", _stamp(config), ["epoch", "train_loss", "val_auc"], rows)
    _write_json(out_dir / "split.json", {"config_hash": config_hash(config), **split_json(split)})
    best = max(row["val_auc"] for row in history)
    print(
        f"train: {arch} for {len(history)} epochs on {x_train.shape[0]} rows, "
        f"best val auc {best:.4f} -> {out_dir / 'model.ckpt'} [{_stamp(config)}]"
    )


def _split_rows(split, which: str, n: int) -> np.ndarray:
    """One of a split's lists, checked to be non-empty and within n rows."""
    idx = {"train": split.train_indices, "val": split.val_indices, "test": split.test_indices}[which]
    if idx.size == 0:
        raise InvalidConfig(f"split has an empty {which} list")
    if int(idx.min()) < 0 or int(idx.max()) >= n:
        raise InvalidConfig(f"split {which} indices fall outside the dataset ({n} rows)")
    return idx


def _scored_rows(model_dir: Path, data_dir: Path, subset: str, threshold: float):
    """Shared by evaluate/predict: refuse a threshold outside [0, 1] before
    anything is read, then load the model and score only the rows of
    ``subset`` (a split list, or "all"). Returns (model, record_ids,
    labels, scores) for those rows. The inputs are scaled by the range the
    checkpoint carries."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueOutOfRange(f"threshold must be in [0, 1], got {threshold}")
    path = _require(Path(model_dir) / "model.ckpt", "run train first")
    model = load_checkpoint(path)
    if model.scaler is None:
        raise CorruptCheckpoint(f"{path} carries no input range; retrain to write one")
    ids, labels, rows = _prepare_arrays(data_dir, model.architecture, model.hyperparams)
    if subset == "all":
        idx = np.arange(len(ids))
    else:
        idx = _split_rows(load_split(_require(Path(model_dir) / "split.json", "run train first")), subset, len(ids))
    scores = model.predict(apply_scaler(rows(idx), model.scaler))
    return model, [ids[i] for i in idx], labels[idx], scores


def cmd_evaluate(config: dict, model_dir: Path, data_dir: Path, out_dir: Path, subset: str = "test") -> None:
    threshold = config["threshold"]
    model, ids, labels, scores = _scored_rows(model_dir, data_dir, subset, threshold)
    report = classification_metrics(scores, labels, threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"config_hash": config_hash(config), "seed": config["seed"], "subset": subset, **asdict(report)}
    _write_json(out_dir / "report.json", payload)
    _write_csv(out_dir / "scores.csv", _stamp(config), *_score_table(ids, scores, alerts(scores, threshold)))
    print(
        f"evaluate: {model.architecture} on {len(ids)} {subset} rows, auc {report.roc_auc:.4f} "
        f"-> {out_dir / 'report.json'} [{_stamp(config)}]"
    )


def cmd_predict(config: dict, model_dir: Path, data_dir: Path, out_dir: Path) -> None:
    threshold = config["threshold"]
    model, ids, _, scores = _scored_rows(model_dir, data_dir, "all", threshold)
    out_dir.mkdir(parents=True, exist_ok=True)
    flags = alerts(scores, threshold)
    _write_csv(out_dir / "predictions.csv", _stamp(config), *_score_table(ids, scores, flags))
    print(
        f"predict: {model.architecture} scored {len(ids)} events, {int(flags.sum())} alerts at "
        f"threshold {threshold} -> {out_dir / 'predictions.csv'} [{_stamp(config)}]"
    )


# ------------------------------------------------------------------ arguments


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding only the flags its cmd_* reads.
    A config flag's dest is the dotted config key it overrides; the
    directories and --split take the names of the cmd_* parameters they fill."""
    parser = argparse.ArgumentParser(prog="vtalarm", description="Alarm classification pipeline")
    sub = parser.add_subparsers(required=True)

    def command(name: str, run, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, help="master seed for every derived random stream")
        p.add_argument("--out", help="output directory")
        return p

    p = command("synth", cmd_synth, "generate a synthetic corpus")
    p.add_argument("--n-events", dest="synth.n_events", metavar="N", type=int, help="number of alarm events")
    p.add_argument("--class-ratio", dest="synth.class_ratio", metavar="FRACTION", type=float, help="fraction of true alarms")
    p.add_argument("--fs", dest="synth.fs", metavar="HZ", type=float, help="sampling frequency in Hz")
    p.add_argument("--separability", dest="synth.separability", metavar="STRENGTH", type=float, help="class separation strength")

    p = command("ingest", cmd_ingest, "extract alarm windows from records")
    p.add_argument("data_dir", nargs="?", help="directory of .hea/.dat files plus alarms.csv")

    p = command("featurize", cmd_featurize, "compute the feature matrix")
    p.add_argument("data_dir", nargs="?", help="directory produced by ingest")

    p = command("train", cmd_train, "fit a model")
    p.add_argument("data_dir", nargs="?", help="featurize output (fcnn) or ingest output (cnn)")
    p.add_argument("--arch", dest="architecture", choices=["fcnn", "cnn"], help="model architecture")
    p.add_argument("--resample", dest="resample.method", choices=METHODS, help="training-set oversampling method")
    p.add_argument("--ratio", dest="resample.ratio", metavar="RATIO", type=float, help="target minority/majority ratio for oversampling")
    p.add_argument("--k", dest="resample.k_neighbors", metavar="K", type=int, help="neighbor count for smote/adasyn")
    p.add_argument("--class-weights", dest="train.use_class_weights", action="store_true", default=None, help="weight the loss by inverse class frequency")

    p = command("evaluate", cmd_evaluate, "score a trained model")
    p.add_argument("model_dir", type=Path, help="directory produced by train")
    p.add_argument("data_dir", nargs="?", help="feature/window directory to score")
    p.add_argument("--threshold", type=float, help="alert probability threshold")
    p.add_argument("--split", dest="subset", choices=["train", "val", "test", "all"], default="test", help="rows to evaluate")

    p = command("predict", cmd_predict, "emit alert decisions")
    p.add_argument("model_dir", type=Path, help="directory produced by train")
    p.add_argument("data_dir", nargs="?", help="feature/window directory to score")
    p.add_argument("--threshold", type=float, help="alert probability threshold")
    return parser


def _data_dir(chosen: str | None, config: dict) -> Path:
    chosen = chosen or config["data_dir"]
    if chosen is None:
        raise InvalidConfig("no data directory: pass it as an argument or set data_dir in the config")
    return Path(chosen)


def main(argv: list[str] | None = None) -> int:
    settings = vars(_build_parser().parse_args(argv))
    run, config_path, out = settings.pop("run"), settings.pop("config"), settings.pop("out")
    inputs = {name: settings.pop(name) for name in ("model_dir", "data_dir", "subset") if name in settings}
    try:
        config = resolve_config(config_path, settings)
        if "data_dir" in inputs:
            inputs["data_dir"] = _data_dir(inputs["data_dir"], config)
        run(config, out_dir=Path(out if out is not None else config["out_dir"]), **inputs)
    except (VtalarmError, OSError) as exc:
        # a file that is not there reads like the MissingInput of _require
        name = "MissingInput" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
