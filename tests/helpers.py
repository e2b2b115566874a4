"""Shared oracles and finite-difference machinery for the test suite.

Everything here is deliberately naive: direct DFT sums, O(n^2) pair
counting, elementwise central differences. The implementations under
test must agree with these, not the other way around.
"""

from __future__ import annotations

import csv
from itertools import combinations

import numpy as np

from vtalarm.errors import UnsupportedFormat, ValueOutOfRange
from vtalarm.features import (
    SpectralParams,
    WaveletConfig,
    _morlet_kernels,
    _segment_step,
    _taper,
    coherence,
    cwt_morlet,
    dominant_frequency,
    spectral_entropy,
    time_domain_stats,
    wavelet_energy,
    welch_psd,
)
from vtalarm.nn.layers import Dropout
from vtalarm.wfdb_io import (
    _ADC_MAX,
    _ADC_MIN,
    _SENTINEL,
    FMT16,
    FMT212,
    WaveformRecord,
    _encode_fmt212,
    _format_number,
)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax; invariant to per-row constant shifts."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def read_history(path) -> list[dict]:
    """The rows of a history.csv that ``vtalarm train`` wrote."""
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return [
        {"epoch": int(r["epoch"]), "train_loss": float(r["train_loss"]), "val_auc": float(r["val_auc"])}
        for r in csv.DictReader(rows)
    ]


def segment_gather_oracle(x: np.ndarray, params: SpectralParams) -> np.ndarray:
    """(..., n) -> (..., n_segments, segment_length): every segment gathered
    through an explicit table of sample indices, one row per segment."""
    seg = params.segment_length
    starts = np.arange(0, x.shape[-1] - seg + 1, _segment_step(x.shape[-1], params))
    return np.take(x, starts[:, None] + np.arange(seg), axis=-1)


def welch_psd_oracle(x: np.ndarray, params: SpectralParams) -> np.ndarray:
    """Welch PSD via an explicit DFT matrix instead of an FFT."""
    x = np.asarray(x, dtype=np.float64)
    seg = params.segment_length
    w = _taper(params)
    segments = segment_gather_oracle(x, params)
    n_bins = seg // 2 + 1
    k = np.arange(n_bins)[:, None]
    n = np.arange(seg)[None, :]
    dft = np.exp(-2j * np.pi * k * n / seg)
    acc = np.zeros(n_bins)
    for segment in segments:
        segment = (segment - segment.mean()) * w
        spectrum = dft @ segment
        acc += np.abs(spectrum) ** 2
    power = acc / len(segments) / (params.fs * np.sum(w**2))
    power[1:] *= 2.0
    if seg % 2 == 0:
        power[-1] /= 2.0
    return power


def feature_vector_oracle(
    samples: np.ndarray,
    fs: float,
    spectral: SpectralParams,
    wavelet: WaveletConfig,
    analysis_span: tuple[float, float] | None = None,
) -> np.ndarray:
    """One window's features the long way round: per channel a Welch pass
    and the whole (n_scales, n) scalogram summed for the wavelet energy;
    per pair a coherence call that redoes both channels' segment FFTs."""
    samples = np.asarray(samples, dtype=np.float64)
    if analysis_span is not None:
        samples = samples[int(round(analysis_span[0] * fs)) : int(round(analysis_span[1] * fs))]
    values = []
    for c in range(samples.shape[1]):
        x = samples[:, c]
        values.extend(time_domain_stats(x))
        psd = welch_psd(x, spectral)
        values.append(dominant_frequency(psd))
        values.append(spectral_entropy(psd))
        values.append(wavelet_energy(cwt_morlet(x, wavelet))[0])
    values.extend(coherence(samples[:, i], samples[:, j], spectral) for i, j in combinations(range(samples.shape[1]), 2))
    return np.asarray(values)


def _edge_gram_upper(taps: np.ndarray) -> np.ndarray:
    """Upper triangle of the real symmetric G with
    sum_q |sum_p z_p taps[q + p]|^2 = z^T G z over q + p < len(taps), for real z,
    as its own (h, h) matrix: the running sum over r of
    Re(conj(taps[r]) taps[r + d]) per lag d, row by row from the last."""
    h = taps.size
    padded = np.concatenate([taps, np.zeros_like(taps)])
    upper = np.zeros((h, h))
    suffix = np.zeros(h)
    for p in range(h - 1, -1, -1):
        suffix += (np.conj(taps[p]) * padded[p : p + h]).real
        upper[p, p:] = suffix[: h - p]
    return upper


def tail_gram_oracle(wavelet: WaveletConfig) -> np.ndarray:
    """The Gram of the edge outputs that the same-length crop drops at the
    end of a channel, built from each kernel's own tail taps, one (h, h)
    matrix per kernel summed and mirrored with ``np.triu``. The plan builds
    one Gram in place from the head taps and uses it for both edges."""
    kernels = _morlet_kernels(wavelet)
    edge = max(psi.size // 2 for psi in kernels)
    gram = np.zeros((edge, edge))
    for psi in kernels:
        half = psi.size // 2
        gram[:half, :half] += _edge_gram_upper(np.conj(psi[::-1])[half + 1 :])
    gram += np.triu(gram, 1).T
    return gram


def write_record_oracle(record: WaveformRecord, fmt: int = FMT16) -> tuple[str, bytes]:
    """``write_record`` one channel at a time: per-column gain and baseline
    passes on a copy, the range check on a boolean-indexed copy of the
    unmasked codes, and each checksum from an int64 copy of its column."""
    if fmt not in (FMT16, FMT212):
        raise UnsupportedFormat(f"storage format {fmt} not supported")
    header = record.header
    scaled = record.samples.astype(np.float64)
    for column, spec in zip(scaled.T, header.signals):
        column *= spec.adc_gain
        column += spec.baseline
    adc = np.rint(scaled, out=scaled).astype(np.int64)
    valid = ~record.missing_mask
    if np.any((adc[valid] < _ADC_MIN[fmt]) | (adc[valid] > _ADC_MAX[fmt])):
        raise ValueOutOfRange(f"quantized value outside [{_ADC_MIN[fmt]}, {_ADC_MAX[fmt]}] for format {fmt}")
    adc = adc.astype(np.int32)
    adc[record.missing_mask] = _SENTINEL[fmt]

    dat_name = header.signals[0].file_name if header.signals else f"{header.record_name}.dat"
    lines = [f"{header.record_name} {header.n_signals} {_format_number(header.sampling_frequency)} {header.n_samples}"]
    adc_res = 16 if fmt == FMT16 else 12
    for c, spec in enumerate(header.signals):
        init_value = int(adc[0, c]) if header.n_samples else 0
        total = int(adc[:, c].astype(np.int64).sum()) & 0xFFFF
        checksum = total - 0x10000 if total >= 0x8000 else total
        lines.append(
            f"{dat_name} {fmt} {_format_number(spec.adc_gain)}({spec.baseline})/{spec.units} "
            f"{adc_res} {spec.baseline} {init_value} {checksum} 0 {spec.description}".rstrip()
        )
    signal_bytes = adc.astype("<i2").tobytes() if fmt == FMT16 else _encode_fmt212(adc)
    return "\n".join(lines) + "\n", signal_bytes


def auc_pair_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mean over all (positive, negative) pairs: win = 1, tie = 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def dense_attention_oracle(layer, x: np.ndarray, dout: np.ndarray):
    """A MultiHeadAttention layer's forward and backward with every
    (B, H, T, T) score, probability and gradient array held whole.

    Returns (output, input gradient, parameter gradients) for the
    objective sum(output * dout), using the layer's parameters.
    """
    p, n_heads, d_k = layer.params, layer.n_heads, layer.d_k

    def split(a):
        b, t, _ = a.shape
        return a.reshape(b, t, n_heads, d_k).transpose(0, 2, 1, 3)

    def merge(a):
        b, h, t, d = a.shape
        return a.transpose(0, 2, 1, 3).reshape(b, t, h * d)

    q, k, v = split(x @ p["Wq"]), split(x @ p["Wk"]), split(x @ p["Wv"])
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(d_k)
    attn = softmax(scores, axis=-1)
    merged = merge(attn @ v)
    out = merged @ p["Wo"]

    d_heads = split(dout @ p["Wo"].T)
    d_attn = d_heads @ v.swapaxes(-1, -2)
    d_v = attn.swapaxes(-1, -2) @ d_heads
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    d_scores /= np.sqrt(d_k)
    d_q = d_scores @ k
    d_k_ = d_scores.swapaxes(-1, -2) @ q
    dq_full, dk_full, dv_full = (merge(g) for g in (d_q, d_k_, d_v))
    grads = {
        "Wq": np.einsum("bti,btj->ij", x, dq_full),
        "Wk": np.einsum("bti,btj->ij", x, dk_full),
        "Wv": np.einsum("bti,btj->ij", x, dv_full),
        "Wo": np.einsum("bti,btj->ij", merged, dout),
    }
    dx = dq_full @ p["Wq"].T + dk_full @ p["Wk"].T + dv_full @ p["Wv"].T
    return out, dx, grads


def conv1d_weight_grad_oracle(layer, x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """A Conv1D layer's weight gradient for input ``x``, one filter tap at a
    time over the zero-padded input."""
    b, t, c = x.shape
    pad = (layer.f - 1) // 2
    x_pad = np.zeros((b, t + 2 * pad, c))
    x_pad[:, pad : pad + t, :] = x
    dw = np.empty_like(layer.params["W"])
    for f in range(layer.f):
        dw[:, f, :] = np.einsum("btk,btc->kc", dout, x_pad[:, f : f + t, :])
    return dw


def maxpool_argmax_oracle(x: np.ndarray, dout: np.ndarray):
    """MaxPool1D's output and input gradient through argmax over each
    window of 2 (the first maximum wins ties); an odd tail gets no gradient."""
    b, t, k = x.shape
    t2 = t // 2
    view = x[:, : 2 * t2, :].reshape(b, t2, 2, k)
    argmax = view.argmax(axis=2)
    out = np.take_along_axis(view, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    dview = np.zeros((b, t2, 2, k))
    np.put_along_axis(dview, argmax[:, :, None, :], dout[:, :, None, :], axis=2)
    dx = np.zeros((b, t, k))
    dx[:, : 2 * t2, :] = dview.reshape(b, 2 * t2, k)
    return out, dx


def dropout(x: np.ndarray, p: float, train: bool, rng) -> np.ndarray:
    """Functional inverted dropout; ``rng`` is a Generator or an int seed."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.PCG64(rng))
    layer = Dropout(p, rng)
    return layer.forward(np.asarray(x, dtype=np.float64), train)


def numeric_input_grad(layer, x: np.ndarray, dout: np.ndarray, train: bool = True, eps: float = 1e-6):
    """Central finite differences of sum(forward(x) * dout) w.r.t. x."""

    def objective(xv):
        return float(np.sum(layer.forward(xv, train) * dout))

    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        grad[i] = (objective(xp) - objective(xm)) / (2 * eps)
    return grad


def numeric_param_grads(layer, x: np.ndarray, dout: np.ndarray, train: bool = True, eps: float = 1e-6):
    """Same objective, differentiated w.r.t. each parameter tensor."""

    def objective():
        return float(np.sum(layer.forward(x, train) * dout))

    grads = {}
    for key, param in layer.params.items():
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            original = param[i]
            param[i] = original + eps
            plus = objective()
            param[i] = original - eps
            minus = objective()
            param[i] = original
            grad[i] = (plus - minus) / (2 * eps)
        grads[key] = grad
    return grads


def max_rel_error(numeric: np.ndarray, analytic: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(numeric - analytic))) / scale


def check_layer_gradients(layer, x: np.ndarray, rng: np.random.Generator, train: bool = True) -> float:
    """Forward/backward once, then compare every gradient to central FD.

    Returns the worst relative error across the input and all parameters.
    """
    out = layer.forward(x, train)
    dout = rng.normal(size=out.shape)
    dx = layer.backward(dout)
    worst = max_rel_error(numeric_input_grad(layer, x, dout, train), dx)
    numeric = numeric_param_grads(layer, x, dout, train)
    for key, grad in numeric.items():
        worst = max(worst, max_rel_error(grad, layer.grads[key]))
    return worst
