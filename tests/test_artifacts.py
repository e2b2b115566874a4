"""Golden bytes of the stamped artifacts the commands write.

Stand-ins take the place of the computing layers, so each test pins only
how a command lays out what it is handed: the stamp line, the header, the
formatting of every value and the line ends.
"""

import types

import numpy as np
import pytest
from helpers import read_history
from test_eval import hand_dataset

from vtalarm import cli
from vtalarm.cli import config_hash, main, resolve_config


def stamp(**overrides) -> str:
    """The first line of an artifact written with these config flags."""
    config = resolve_config(None, overrides)
    return f"# config={config_hash(config)} seed={config['seed']}\n"


def scored_by(monkeypatch, ids, labels, scores):
    """evaluate and predict score ``ids`` as given instead of loading a model."""
    model = types.SimpleNamespace(architecture="fcnn")
    monkeypatch.setattr(cli, "_scored_rows", lambda *args: (model, ids, np.asarray(labels), np.asarray(scores)))


def test_features_csv(tmp_path, monkeypatch):
    raw, work = tmp_path / "raw", tmp_path / "work"
    assert main(["synth", "--n-events", "2", "--class-ratio", "0.5", "--out", str(raw)]) == 0
    assert main(["ingest", str(raw), "--out", str(work)]) == 0
    row = [1 / 3, -0.0, 1e-20, 100.0, 12345678.9] + [0.5] * 22
    monkeypatch.setattr(cli, "feature_matrix", lambda windows, plan: np.array([row, [-v for v in row]]))
    assert main(["featurize", str(work), "--out", str(work)]) == 0
    assert (work / "features.csv").read_bytes().decode() == stamp() + (
        "record_id,label,"
        "ch0_mean,ch0_std,ch0_skewness,ch0_kurtosis_excess,ch0_rms,ch0_dominant_freq_hz,ch0_spectral_entropy,ch0_wavelet_energy,"
        "ch1_mean,ch1_std,ch1_skewness,ch1_kurtosis_excess,ch1_rms,ch1_dominant_freq_hz,ch1_spectral_entropy,ch1_wavelet_energy,"
        "ch2_mean,ch2_std,ch2_skewness,ch2_kurtosis_excess,ch2_rms,ch2_dominant_freq_hz,ch2_spectral_entropy,ch2_wavelet_energy,"
        "coherence_ch0_ch1,coherence_ch0_ch2,coherence_ch1_ch2\n"
        "ev00000,1,0.3333333333333333,-0.0,1e-20,100.0,12345678.9" + ",0.5" * 22 + "\n"
        "ev00001,0,-0.3333333333333333,0.0,-1e-20,-100.0,-12345678.9" + ",-0.5" * 22 + "\n"
    )


def test_history_csv_ends_every_line_in_lf(tmp_path):
    path = tmp_path / "history.csv"
    cli._write_csv(path, "c", ["epoch", "train_loss", "val_auc"], [["1", "0.5", "0.75"]])
    assert path.read_bytes() == b"# c\nepoch,train_loss,val_auc\n1,0.5,0.75\n"


def test_history_csv(tmp_path, monkeypatch):
    work, model = tmp_path / "work", tmp_path / "model"
    work.mkdir()
    (work / "features.csv").write_text(
        "record_id,label,a,b\n" + "".join(f"r{i},{i % 2},{i}.0,{19 - i}.0\n" for i in range(20))
    )
    history = [
        {"epoch": 1, "train_loss": 0.6931471805599453, "val_auc": 0.5},
        {"epoch": 2, "train_loss": 0.25, "val_auc": 0.9874999999999999},
    ]
    monkeypatch.setattr(cli, "train", lambda *args: history)
    assert main(["train", str(work), "--out", str(model)]) == 0
    assert (model / "history.csv").read_bytes().decode() == stamp() + (
        "epoch,train_loss,val_auc\n"
        "1,0.6931471805599453,0.5\n"
        "2,0.25,0.9874999999999999\n"
    )
    assert read_history(model / "history.csv") == history


@pytest.mark.parametrize("command, name", [("evaluate", "scores.csv"), ("predict", "predictions.csv")])
def test_scores_and_predictions_csv(tmp_path, monkeypatch, capsys, command, name):
    scored_by(monkeypatch, ["r1", "r2", "r3", "r4"], [1, 0, 1, 0], [0.9, 0.1, 0.5, 0.30000000000000004])
    assert main([command, "model", "data", "--threshold", "0.5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / name).read_bytes().decode() == stamp(threshold=0.5) + (
        "record_id,score,alert\n"
        "r1,0.9,true\n"
        "r2,0.1,false\n"
        "r3,0.5,true\n"
        "r4,0.30000000000000004,false\n"
    )
    if command == "predict":
        assert "scored 4 events, 2 alerts at threshold 0.5 " in capsys.readouterr().out


def test_report_json_of_the_hand_dataset(tmp_path, monkeypatch):
    scores, labels = hand_dataset()
    scored_by(monkeypatch, [f"r{i:03d}" for i in range(len(labels))], labels, scores)
    assert main(["evaluate", "model", "data", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").read_bytes().decode() == """{
 "config_hash": "HASH",
 "confusion_matrix": {
  "fn": 7,
  "fp": 6,
  "tn": 94,
  "tp": 93
 },
 "n_samples": 200,
 "per_class": {
  "false_alarm": {
   "f1": 0.9353233830845772,
   "precision": 0.9306930693069307,
   "precision_defined": true,
   "recall": 0.94
  },
  "true_alarm": {
   "f1": 0.9346733668341709,
   "precision": 0.9393939393939394,
   "precision_defined": true,
   "recall": 0.93
  }
 },
 "roc_auc": 0.935,
 "seed": 0,
 "subset": "test",
 "threshold": 0.5
}
""".replace("HASH", config_hash(resolve_config(None)))
