"""The benchmark's workloads: set-up, timed loop and output checks.

Every call into vtalarm goes through a module attribute (``cli.cmd_train``,
never a name imported into this file), so the tracer's wrappers see it.

- ``corpus-fcnn``: a batch job through the ``cmd_*`` functions on a 50 Hz
  format-16 corpus: ingest, featurize, train the fcnn with SMOTE, evaluate.
- ``cnn-train``: the same batch job without featurize, training the cnn on
  decimated windows with class weights and capped epochs. Its corpus is
  written in format 212 with runs of missing samples, so ingest decodes
  212 and imputes.

A timed loop runs two passes, then as many more as bring it nearest to
``seconds`` at the mean pass time. ``fixed`` asks for one pass instead.
Repeated passes must reproduce the first one byte for byte.

Quality is the median over ``quality_splits`` train/test splits of one
corpus. Pass ``i`` trains and evaluates on split ``i % quality_splits``;
a split no timed pass reached is trained and evaluated after the clock,
on the first pass's features. A small validation split can stop
training at an under-trained epoch, so the recall of a single split
swings between seeds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vtalarm import cli, preprocess, synth, wfdb_io

from perfbench.measure import Operations, file_digest, tree_digest

SIZES = {
    "full": {
        "corpus-fcnn": {"n_events": 140, "class_ratio": 0.3, "fs": 50.0, "separability": 0.5,
                        "split": [0.4, 0.1, 0.5], "resample": "smote", "ratio": 0.75, "quality_splits": 5,
                        "gapped_212": False},
        "cnn-train": {"n_events": 120, "class_ratio": 0.3, "fs": 50.0, "separability": 6.0,
                      "split": [0.45, 0.15, 0.4], "decimation": 30, "max_epochs": 14, "patience": 14,
                      "batch_size": 4, "learning_rate": 3e-3, "quality_splits": 3, "gapped_212": True},
    },
    "smoke": {
        "corpus-fcnn": {"n_events": 20, "class_ratio": 0.3, "fs": 50.0, "separability": 2.0,
                        "split": [0.5, 0.2, 0.3], "resample": "smote", "ratio": 0.75, "quality_splits": 3,
                        "gapped_212": False},
        "cnn-train": {"n_events": 20, "class_ratio": 0.3, "fs": 50.0, "separability": 3.0,
                      "split": [0.5, 0.2, 0.3], "decimation": 150, "max_epochs": 2, "patience": 2,
                      "batch_size": 4, "learning_rate": 3e-3, "quality_splits": 2, "gapped_212": True},
    },
}

THRESHOLD = 0.5
SPLIT_SEED_STRIDE = 100_003


@contextlib.contextmanager
def quiet():
    """Swallow the one-line summaries the cmd_* functions print."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


@dataclass
class Timing:
    """What one timed loop produced: per-operation latencies and counts."""

    latencies_s: list = field(default_factory=list)
    events: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)


class BatchJob:
    """``corpus-fcnn`` and ``cnn-train``: the pipeline run as whole passes."""

    min_passes = 2

    def __init__(self, name: str, size: dict, seed: int, root: Path):
        self.name, self.size, self.seed, self.root = name, size, seed, Path(root)
        self.arch = "fcnn" if name == "corpus-fcnn" else "cnn"
        overrides = {
            "seed": seed,
            "architecture": self.arch,
            "threshold": THRESHOLD,
            "synth.n_events": size["n_events"],
            "synth.class_ratio": size["class_ratio"],
            "synth.fs": size["fs"],
            "synth.separability": size["separability"],
            "split.ratios": size["split"],
        }
        if self.arch == "fcnn":
            overrides.update({"resample.method": size["resample"], "resample.ratio": size["ratio"]})
        else:
            overrides.update({
                "train.use_class_weights": True,
                "train.max_epochs": size["max_epochs"],
                "train.patience": size["patience"],
                "train.batch_size": size["batch_size"],
                "train.learning_rate": size["learning_rate"],
            })
        self.config = cli.resolve_config(None, overrides)
        if self.arch == "cnn":
            self.config["model"]["cnn"]["decimation"] = size["decimation"]
        self.raw = self.root / "raw"
        self.first_data = self.root / "first-data"  # the first pass's ingest and features, for the quality splits
        self.setup_digest = None
        self.reference: dict[str, str] = {}
        self.split_quality: dict[int, dict] = {}
        self.passes = 0

    def setup(self, ops: Operations) -> None:
        shutil.rmtree(self.raw, ignore_errors=True)
        if self.size["gapped_212"]:
            self._write_gapped_212()
        else:
            with quiet():
                cli.cmd_synth(self.config, self.raw)
        digest = tree_digest(self.raw)
        self.setup_digest = self.setup_digest or digest
        ops.record("setup", [] if digest == self.setup_digest else ["corpus differs from the first set-up"])

    def _write_gapped_212(self) -> None:
        """The corpus cmd_synth writes, but in format 212 and with 0-2 runs of
        0.2-4 s of missing samples per channel inside each alarm window."""
        s = self.size
        config = synth.SynthConfig(n_events=s["n_events"], class_ratio=s["class_ratio"], fs=s["fs"],
                                   separability=s["separability"], seed=self.seed)
        fs = s["fs"]
        self.raw.mkdir(parents=True)
        events = []
        for i, label in enumerate(synth.corpus_labels(config)):
            record, alarm_time = synth.generate_waveform_event(config, int(label), i)
            rng = np.random.default_rng((self.seed, i))
            lo = int((alarm_time - wfdb_io.PRE_ALARM_S) * fs)
            for c in range(record.samples.shape[1]):
                for _ in range(rng.integers(0, 3)):
                    length = int(rng.uniform(0.2, 4.0) * fs)
                    start = lo + int(rng.integers(0, int(wfdb_io.WINDOW_S * fs) - length))
                    record.missing_mask[start:start + length, c] = True
            wfdb_io.save_record(self.raw, record, fmt=wfdb_io.FMT212)
            events.append((record.header.record_name, alarm_time, int(label)))
        wfdb_io.write_alarm_index(self.raw / "alarms.csv", events)

    def _split_config(self, k: int) -> dict:
        """Split ``k`` draws its train/val/test split, oversampling and initial
        weights from seed + k * SPLIT_SEED_STRIDE; ingest and featurize keep the seed."""
        config = copy.deepcopy(self.config)
        config["seed"] = self.seed + k * SPLIT_SEED_STRIDE
        return config

    def _stages(self, work: Path, k: int):
        data, model, out = work / "data", work / "model", work / "eval"
        split = self._split_config(k)
        stages = [("ingest", lambda: cli.cmd_ingest(self.config, self.raw, data))]
        if self.arch == "fcnn":
            stages.append(("featurize", lambda: cli.cmd_featurize(self.config, data, data)))
        stages.append(("train", lambda: cli.cmd_train(split, data, model)))
        stages.append(("evaluate", lambda: cli.cmd_evaluate(split, model, data, out)))
        return stages

    def run_pass(self, ops: Operations, timing: Timing) -> None:
        work = self.root / f"pass{self.passes}"
        k = self.passes % self.size["quality_splits"]
        self.passes += 1
        stages = self._stages(work, k)
        done = []
        start = time.perf_counter()
        for name, call in stages:
            try:
                with quiet():
                    call()
            except Exception as exc:  # a failing stage is counted, and ends the pass
                ops.record(name, [f"{type(exc).__name__}: {exc}"])
                break
            done.append(name)
        elapsed = time.perf_counter() - start
        complete = len(done) == len(stages)
        for name in done:
            try:
                problems = self._check(name, work, k)
            except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or unreadable output
                problems = [f"cannot check output: {type(exc).__name__}: {exc}"]
            ops.record(name, problems)
        if complete:
            timing.latencies_s.append(elapsed)
            timing.events += self.size["n_events"]
            if k not in self.split_quality:
                report = json.loads((work / "eval" / "report.json").read_text())
                self.split_quality[k] = _summary(self._split_config(k)["seed"], report)
            if not self.first_data.exists():
                (work / "data").rename(self.first_data)
        shutil.rmtree(work, ignore_errors=True)

    def _same_as_first(self, key: str, path: Path) -> list[str]:
        digest = file_digest(path)
        first = self.reference.setdefault(key, digest)
        return [] if digest == first else [f"{path.name} differs from the first pass"]

    def _check(self, stage: str, work: Path, k: int) -> list[str]:
        n = self.size["n_events"]
        data = work / "data"
        if stage == "ingest":
            rows = np.load(data / "windows.npy", mmap_mode="r").shape[0]
            labels = np.load(data / "labels.npy").shape[0]
            return [] if rows == labels == n else [f"{rows} windows and {labels} labels for {n} events"]
        if stage == "featurize":
            path = data / "features.csv"
            rows = sum(1 for line in path.read_text().splitlines() if line and not line.startswith("#")) - 1
            problems = [] if rows == n else [f"{rows} feature rows for {n} events"]
            return problems + self._same_as_first("features", path)
        if stage == "train":
            return self._same_as_first(f"model.split{k}", work / "model" / "model.ckpt")
        return self._check_evaluation(work, k)

    def _check_evaluation(self, work: Path, k: int) -> list[str]:
        """Scores in range, row counts equal, and report and scores the same as
        the first evaluation of split ``k`` in this run or an earlier one."""
        eval_dir = work / "eval"
        report = json.loads((eval_dir / "report.json").read_text())
        n_test = preprocess.load_split(work / "model" / "split.json").test_indices.size
        scores = [float(line.split(",")[1]) for line in (eval_dir / "scores.csv").read_text().splitlines()[2:]]
        problems = score_problems(scores)
        if not report["n_samples"] == len(scores) == n_test:
            problems.append(f"report has {report['n_samples']} rows, scores.csv {len(scores)}, test split {n_test}")
        return (problems + self._same_as_first(f"report.split{k}", eval_dir / "report.json")
                + self._same_as_first(f"scores.split{k}", eval_dir / "scores.csv"))

    def timed(self, ops: Operations, seconds: float, fixed: bool) -> Timing:
        timing = Timing()
        start = time.perf_counter()
        if fixed:
            self.run_pass(ops, timing)
            return timing
        attempts = 0
        # another pass if at least half of it, at the mean pass time, falls within seconds
        while attempts < self.min_passes or (time.perf_counter() - start) * (attempts + 0.5) / attempts <= seconds:
            self.run_pass(ops, timing)
            attempts += 1
        return timing

    def quality(self, ops: Operations) -> dict:
        """test_auc and true_alarm_recall: medians over the quality splits. A split
        no timed pass reached trains and evaluates here, checked like a pass."""
        for k in range(self.size["quality_splits"]):
            if k in self.split_quality:
                continue
            config = self._split_config(k)
            work = self.root / f"split{k}"
            try:
                with quiet():
                    cli.cmd_train(config, self.first_data, work / "model")
                    cli.cmd_evaluate(config, work / "model", self.first_data, work / "eval")
                problems = self._same_as_first(f"model.split{k}", work / "model" / "model.ckpt") + self._check_evaluation(work, k)
                report = json.loads((work / "eval" / "report.json").read_text())
            except Exception as exc:  # a failing split is counted; the others still give the medians
                problems = [f"{type(exc).__name__}: {exc}"]
            shutil.rmtree(work, ignore_errors=True)
            if ops.record(f"quality split {k}", problems):
                self.split_quality[k] = _summary(config["seed"], report)
        values = [self.split_quality[k] for k in sorted(self.split_quality)]
        return {m: statistics.median(q[m] for q in values) for m in ("test_auc", "true_alarm_recall")}

    def digests(self) -> dict:
        return {"corpus": self.setup_digest, **self.reference}


def _summary(seed: int, report: dict) -> dict:
    return {"seed": seed, "test_auc": report["roc_auc"], "true_alarm_recall": report["per_class"]["true_alarm"]["recall"]}


def score_problems(scores) -> list[str]:
    bad = [s for s in scores if not (np.isfinite(s) and 0.0 <= s <= 1.0)]
    return [f"{len(bad)} scores not finite or outside [0, 1]"] if bad else []


WORKLOADS = {"corpus-fcnn": BatchJob, "cnn-train": BatchJob}


def make(name: str, size: str, seed: int, root: Path):
    return WORKLOADS[name](name, SIZES[size][name], seed, root)
