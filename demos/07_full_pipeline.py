"""
The whole pipeline in one sitting
=================================

Corpus generation, window extraction, feature computation, training,
and evaluation are also exposed as command functions (the same ones the
``vtalarm`` executable dispatches to). Chaining them end to end on a
small synthetic corpus takes under a minute and leaves every artifact
on disk for inspection.
"""

import json
import tempfile
from pathlib import Path

from vtalarm.cli import (
    cmd_evaluate,
    cmd_featurize,
    cmd_ingest,
    cmd_predict,
    cmd_synth,
    cmd_train,
    config_hash,
    resolve_config,
)

# One config object flows through every stage. Its hash is stamped into
# each output file, so artifacts from mismatched runs are easy to spot.
config = resolve_config(None, {
    "seed": 3,
    "synth.n_events": 60,
    "synth.separability": 3.0,
    "train.max_epochs": 10,
    "train.batch_size": 8,
    "split.ratios": [0.7, 0.15, 0.15],
})
print("config hash:", config_hash(config))

with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    raw, work, model, ev = root / "raw", root / "work", root / "model", root / "eval"
    raw.mkdir()

    # 60 seven-minute three-channel events, 30% true alarms by default.
    cmd_synth(config, raw)

    # Cut the 360 s window around each alarm and stack them into one
    # array next to the label vector.
    cmd_ingest(config, raw, work)

    # 27 features per event: 8 per channel plus 3 pairwise couplings.
    cmd_featurize(config, work, work)

    # Fit the dense net on the training split; the checkpoint (which
    # carries the input range), split, and learning curve land in the
    # model directory.
    cmd_train(config, work, model)
    print("model artifacts:", sorted(p.name for p in model.iterdir()))

    # Score the held-out test rows and write the full report.
    cmd_evaluate(config, model, work, ev, subset="test")
    report = json.loads((ev / "report.json").read_text())
    print("test auc:", report["roc_auc"])
    print("confusion:", report["confusion_matrix"])
    print("true-alarm recall:", report["per_class"]["true_alarm"]["recall"])

    # Predict emits one score and alert decision per event.
    cmd_predict(config, model, work, ev)
    lines = (ev / "predictions.csv").read_text().splitlines()
    print("first prediction rows:")
    for line in lines[2:5]:
        print(" ", line)
