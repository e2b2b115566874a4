"""
From a long recording to a fixed alarm window
=============================================

Classification looks at the six minutes around each alarm: five minutes
of context before it and one minute after. This script generates one
synthetic bedside event, cuts that window out, and prepares it for a
model with mean imputation and min-max scaling.
"""

from dataclasses import replace

import numpy as np

from vtalarm.preprocess import apply_scaler, fit_scaler, impute_mean, split_dataset
from vtalarm.synth import SynthConfig, generate_waveform_event
from vtalarm.wfdb_io import extract_alarm_window, window_bounds

config = SynthConfig(n_events=1, fs=50.0, separability=2.0, seed=4)
record, alarm_time = generate_waveform_event(config, label=1)
print("recording:", record.samples.shape, "at", record.header.sampling_frequency, "Hz")
print("alarm fired at", round(alarm_time, 2), "s")

# The window is always 300 s before and 60 s after the alarm, so every
# event yields the same array shape regardless of recording length. It is
# a record itself: the recording's rows around the onset, under a header
# that counts the window's samples.
window = extract_alarm_window(record, alarm_time)
fs = window.header.sampling_frequency
print("window:", window.samples.shape, "=", window.header.n_samples, "samples")
print("alarm sample inside the window:", window_bounds(fs)[0], "== 300 s x", fs, "Hz")

# Suppose the pulse sensor dropped out for 60 samples. Masked samples
# get that channel's mean over the samples that do exist.
mask = np.zeros(window.samples.shape, dtype=bool)
mask[100:160, 2] = True
damaged = replace(window, missing_mask=mask)
filled = impute_mean(damaged)
print("imputed span mean:", round(float(filled.samples[100:160, 2].mean()), 4),
      "vs surviving-channel mean:", round(float(window.samples[~mask[:, 2], 2].mean()), 4))
print("mask cleared after imputation:", not filled.missing_mask.any())

# Feature scaling is fit on training rows only, then applied everywhere,
# so held-out data never leaks into the statistics. The split itself is
# stratified: each part keeps the corpus class ratio within one sample.
labels = np.array([1] * 30 + [0] * 70)
features = np.random.default_rng(4).normal(size=(100, 5)) * 7 + 3
split = split_dataset(labels, seed=4)
scaler = fit_scaler(features[split.train_indices])
scaled = apply_scaler(features, scaler)
print("split sizes:", len(split.train_indices), len(split.val_indices), len(split.test_indices))
print("true alarms in val:", int(labels[split.val_indices].sum()),
      "and in test:", int(labels[split.test_indices].sum()))
print("scaled training range: [",
      round(float(scaled[split.train_indices].min()), 3), ",",
      round(float(scaled[split.train_indices].max()), 3), "]")
