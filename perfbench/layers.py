"""Which vtalarm calls the traced run wraps, and the per-layer metrics read from them.

The layers are the package modules that do the work. ``rng`` and
``errors`` do no measurable work and are not wrapped. Where a unit is
ms or s it is per call and the median over calls, except for the
``nn.layers.<Class>.forward/backward`` sums, which add up every call of
the traced run. Call counts go into the result file beside each value.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from vtalarm.nn import model as nn_model

from perfbench.trace import Probe, SpanStats, Tracer

LAYER_CLASSES = ("Dense", "BatchNorm", "ReLU", "Dropout", "Conv1D", "MaxPool1D", "MultiHeadAttention", "GlobalAvgPool")
CLI_COMMANDS = ("cmd_ingest", "cmd_featurize", "cmd_train", "cmd_evaluate")
FEATURE_KERNELS = ("build_feature_vector", "time_domain_stats", "welch_psd", "coherence", "cwt_morlet", "wavelet_energy")


def _dat_bytes(record, args, kwargs):
    data_dir = args[0] if args else kwargs["data_dir"]
    return {"dat_bytes": os.path.getsize(Path(data_dir) / record.header.signals[0].file_name)}


def _masked(result, args, kwargs):
    mask = (args[0] if args else kwargs["window"]).missing_mask
    return {"masked": int(mask.sum()), "samples": int(mask.size)}


def _rows_added(result, args, kwargs):
    return {"rows_added": int(result[0].shape[0] - np.shape(args[0])[0])}


def _rows(result, args, kwargs):
    return {"rows": int(np.shape(result)[0])}


def _epochs(result, args, kwargs):
    return {"epochs": len(result)}


PROBES = (
    [Probe(f"cli.{c}", f"vtalarm.cli:{c}") for c in CLI_COMMANDS]
    + [
        Probe("synth.generate_corpus", "vtalarm.synth:generate_corpus"),
        Probe("wfdb_io.load_record", "vtalarm.wfdb_io:load_record", attrs=_dat_bytes),
        Probe("wfdb_io.extract_alarm_window", "vtalarm.wfdb_io:extract_alarm_window"),
        Probe("wfdb_io.save_record", "vtalarm.wfdb_io:save_record"),
        Probe("preprocess.impute_mean", "vtalarm.preprocess:impute_mean", attrs=_masked),
        Probe("preprocess.apply_scaler", "vtalarm.preprocess:apply_scaler"),
    ]
    + [Probe(f"features.{k}", f"vtalarm.features:{k}", peak=k == "cwt_morlet") for k in FEATURE_KERNELS]
    + [Probe("imbalance.resample", "vtalarm.imbalance:resample", attrs=_rows_added)]
    + [
        Probe(f"nn.layers.{cls}.{method}", f"vtalarm.nn.layers:{cls}.{method}",
              peak=(cls, method) == ("MultiHeadAttention", "forward"))
        for cls in LAYER_CLASSES
        for method in ("forward", "backward")
    ]
    + [
        Probe("nn.layers.Adam.step", "vtalarm.nn.layers:Adam.step"),
        Probe("nn.model.predict", "vtalarm.nn.model:Model.predict", attrs=_rows),
        Probe("nn.training.train", "vtalarm.nn.training:train", attrs=_epochs),
        Probe("nn.checkpoint.save", "vtalarm.nn.checkpoint:save_checkpoint"),
        Probe("nn.checkpoint.load", "vtalarm.nn.checkpoint:load_checkpoint"),
        Probe("evaluate.classification_metrics", "vtalarm.evaluate:classification_metrics"),
    ]
)

PROBE_BATCH = 2  # batch 32 at this shape needs about 25 GB and is never run
PROBE_REPEATS = 3


def cnn_default_probe(tracer: Tracer) -> None:
    """Conv1D and MultiHeadAttention forward and backward at the default cnn
    input (4500x3 after decimation 4, 2250 attention tokens), batch 2."""
    model = nn_model.build_model("cnn", (4500, 3), seed=0)
    x = np.random.default_rng(0).standard_normal((PROBE_BATCH, 4500, 3))
    tokens = x
    for layer in model.layers[:4]:  # conv, batchnorm, relu, pool: the attention input
        tokens = layer.forward(tokens, train=True)
    for name, layer, inputs in (("Conv1D", model.layers[0], x), ("MultiHeadAttention", model.layers[4], tokens)):
        for _ in range(PROBE_REPEATS):
            with tracer.span(f"probe.cnn_default.{name}.forward", peak=True):
                out = layer.forward(inputs, train=True)
            with tracer.span(f"probe.cnn_default.{name}.backward", peak=True):
                layer.backward(np.ones_like(out))
            del out


def _median_ms(s: SpanStats) -> float:
    return s.median_s * 1e3


def _peak_mb(s: SpanStats) -> float:
    return s.attrs.get("peak_bytes", 0) / 1e6


# metric name -> (span name, unit, reader)
LAYER_METRICS = {}
for c in CLI_COMMANDS:
    LAYER_METRICS[f"cli.{c}.s"] = (f"cli.{c}", "s", lambda s: s.median_s)
    LAYER_METRICS[f"cli.{c}.self_s"] = (f"cli.{c}", "s", lambda s: s.median_self_s)
LAYER_METRICS.update({
    "synth.generate_corpus.s": ("synth.generate_corpus", "s", lambda s: s.median_s),
    "wfdb_io.load_record.ms": ("wfdb_io.load_record", "ms", _median_ms),
    "wfdb_io.load_record.mb_per_s": ("wfdb_io.load_record", "MB/s", lambda s: s.attrs["dat_bytes"] / s.total_s / 1e6),
    "wfdb_io.extract_alarm_window.ms": ("wfdb_io.extract_alarm_window", "ms", _median_ms),
    "wfdb_io.save_record.ms": ("wfdb_io.save_record", "ms", _median_ms),
    "preprocess.impute_mean.ms": ("preprocess.impute_mean", "ms", _median_ms),
    "preprocess.imputed_frac": ("preprocess.impute_mean", "fraction", lambda s: s.attrs["masked"] / s.attrs["samples"]),
    "preprocess.apply_scaler.ms": ("preprocess.apply_scaler", "ms", _median_ms),
})
for k in FEATURE_KERNELS:
    LAYER_METRICS[f"features.{k}.ms"] = (f"features.{k}", "ms", _median_ms)
LAYER_METRICS.update({
    "features.cwt_morlet.peak_mb": ("features.cwt_morlet", "MB", _peak_mb),
    "features.windows": ("features.build_feature_vector", "count", lambda s: s.calls),
    "imbalance.resample.ms": ("imbalance.resample", "ms", _median_ms),
    "imbalance.rows_added": ("imbalance.resample", "count", lambda s: s.attrs["rows_added"]),
})
for cls in LAYER_CLASSES:
    for method in ("forward", "backward"):
        name = f"nn.layers.{cls}.{method}"
        LAYER_METRICS[f"{name}.ms"] = (name, "ms", lambda s: s.total_s * 1e3)
LAYER_METRICS.update({
    "nn.layers.MultiHeadAttention.forward.peak_mb": ("nn.layers.MultiHeadAttention.forward", "MB", _peak_mb),
    "nn.layers.Adam.step.ms": ("nn.layers.Adam.step", "ms", _median_ms),
    "nn.model.predict.ms": ("nn.model.predict", "ms", _median_ms),
    "nn.model.predict.rows": ("nn.model.predict", "count", lambda s: s.attrs["rows"]),
    "nn.training.train.s": ("nn.training.train", "s", lambda s: s.median_s),
    "nn.training.epochs": ("nn.training.train", "count", lambda s: s.attrs["epochs"] / s.calls),
    "nn.checkpoint.save.ms": ("nn.checkpoint.save", "ms", _median_ms),
    "nn.checkpoint.load.ms": ("nn.checkpoint.load", "ms", _median_ms),
    "evaluate.classification_metrics.ms": ("evaluate.classification_metrics", "ms", _median_ms),
})
for name in ("Conv1D", "MultiHeadAttention"):
    for method in ("forward", "backward"):
        span = f"probe.cnn_default.{name}.{method}"
        LAYER_METRICS[f"{span}.ms"] = (span, "ms", _median_ms)
        LAYER_METRICS[f"{span}.peak_mb"] = (span, "MB", _peak_mb)


def layer_metrics(summary: dict[str, SpanStats]) -> tuple[dict, dict]:
    """Every per-layer metric as ``{name: (value, unit)}``, plus the call count
    behind each. A layer the workload never called reads 0 with 0 calls."""
    values, calls = {}, {}
    for metric, (span, unit, read) in LAYER_METRICS.items():
        stats = summary.get(span)
        values[metric] = (float(read(stats)) if stats else 0.0, unit)
        calls[metric] = stats.calls if stats else 0
    return values, calls
