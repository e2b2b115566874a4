"""Classify ventricular-tachycardia ICU alarms as true or false.

The pipeline reads multichannel waveform records, carves a six-minute
window around each alarm, extracts time/frequency/wavelet features,
rebalances the training set, and trains one of two from-scratch neural
networks whose probability output drives a thresholded alert decision.
"""

from . import errors
from .evaluate import EvalReport, alerts, classification_metrics, roc_auc
from .features import (
    FeaturePlan,
    FeatureVector,
    SpectralParams,
    WaveletConfig,
    build_feature_vector,
    coherence,
    cwt_morlet,
    dominant_frequency,
    feature_matrix,
    feature_names,
    morlet_scales,
    spectral_entropy,
    spectral_params_for,
    welch_psd,
)
from .imbalance import ClassWeights, ResampleConfig, adasyn, class_weights, resample, smote
from .nn import TrainConfig, build_model, load_checkpoint, save_checkpoint, train
from .preprocess import (
    DatasetSplit,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    impute_mean,
    split_dataset,
)
from .rng import derive_rng
from .synth import SynthConfig, generate_corpus, generate_feature_dataset, generate_waveform_event
from .wfdb_io import (
    RecordHeader,
    SignalSpec,
    WaveformRecord,
    extract_alarm_window,
    load_record,
    parse_header,
    read_signal,
    save_record,
    write_record,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "EvalReport",
    "alerts",
    "classification_metrics",
    "roc_auc",
    "FeaturePlan",
    "FeatureVector",
    "SpectralParams",
    "WaveletConfig",
    "build_feature_vector",
    "coherence",
    "cwt_morlet",
    "dominant_frequency",
    "feature_matrix",
    "feature_names",
    "morlet_scales",
    "spectral_entropy",
    "spectral_params_for",
    "welch_psd",
    "ClassWeights",
    "ResampleConfig",
    "adasyn",
    "class_weights",
    "resample",
    "smote",
    "TrainConfig",
    "build_model",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "DatasetSplit",
    "ScalerParams",
    "apply_scaler",
    "fit_scaler",
    "impute_mean",
    "split_dataset",
    "derive_rng",
    "SynthConfig",
    "generate_corpus",
    "generate_feature_dataset",
    "generate_waveform_event",
    "RecordHeader",
    "SignalSpec",
    "WaveformRecord",
    "extract_alarm_window",
    "load_record",
    "parse_header",
    "read_signal",
    "save_record",
    "write_record",
    "__version__",
]
