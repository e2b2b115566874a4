"""Per-channel time/frequency/wavelet features for alarm windows.

Each channel contributes eight scalars: five time-domain statistics
(mean, standard deviation, skewness, excess kurtosis, RMS), the dominant
frequency and normalized spectral entropy of a Welch power spectral
density estimate, and the total energy of a Morlet continuous wavelet
transform. Channel pairs contribute magnitude-squared coherence averaged
over frequency. The concatenation order is fixed: channels in record
order, statistics in the order above, pairs lexicographic, so feature
names and vector length depend only on the channel count and the
configuration.

:func:`feature_matrix` computes the features of a whole stack of windows
from one :class:`FeaturePlan`, on one worker thread per CPU the process
may use. Welch and coherence share one segment-FFT pass per channel, and
the wavelet energy comes from Parseval's identity without building the
scalogram. :func:`cwt_morlet` stays as the reference transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import combinations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import workers
from .errors import InvalidConfig, ShapeMismatch, TooFewSamples, ValueOutOfRange, check_count
from .wfdb_io import WaveformRecord

@dataclass
class SpectralParams:
    """Welch configuration.

    Parameters
    ----------
    segment_length : int
        Samples per segment, at least 8.
    overlap : float
        Fractional overlap between consecutive segments, in [0, 1).
    window : str
        Taper applied to each segment: "hann" (default) or "rect".
        The rectangular option exists for Parseval-style diagnostics.
    fs : float
        Sampling frequency in Hz.
    """

    segment_length: int
    fs: float
    overlap: float = 0.5
    window: str = "hann"

    def __post_init__(self):
        if check_count("segment_length", self.segment_length) < 8:
            raise InvalidConfig("segment_length must be at least 8")
        if not 0.0 <= self.overlap < 1.0:
            raise InvalidConfig("overlap must be in [0, 1)")
        if self.window not in ("hann", "rect"):
            raise InvalidConfig(f"unknown window {self.window!r}")
        if not 0.0 < self.fs < np.inf:
            raise InvalidConfig("fs must be positive and finite")


@dataclass
class PsdEstimate:
    frequencies: np.ndarray
    power: np.ndarray
    df: float


# The most bytes a plan's float64 edge Gram, or any Welch call's segment copy and spectra
# (one feature_matrix worker's window, say), may take: a widest Morlet kernel of 11585
# samples each side, where the defaults need 381 at 50 Hz and 7639 at 1000 Hz.
_ARRAY_BYTES = 2**30

# The most scales morlet_scales gives: FeaturePlan.build makes one fft_len FFT and one
# edge-Gram pass a scale, 3.7-5.0 ms at 250 Hz (Xeon, one BLAS thread), so under a minute.
_MAX_SCALES = 10**4


@dataclass
class WaveletConfig:
    """Morlet CWT configuration: center parameter and ascending scales."""

    omega0: float
    scales: np.ndarray

    def __post_init__(self):
        self.scales = np.asarray(self.scales, dtype=np.float64)
        if not 0.0 < self.omega0 < np.inf:
            raise InvalidConfig("omega0 must be positive and finite")
        if self.scales.ndim != 1 or self.scales.size == 0:
            raise InvalidConfig("scales must be a non-empty vector")
        if self.scales.size > _MAX_SCALES:
            raise InvalidConfig(f"{self.scales.size} scales are over the {_MAX_SCALES} a plan may build: lower wavelet.n_scales")
        if not (np.all(np.isfinite(self.scales)) and np.all(self.scales > 0) and np.all(np.diff(self.scales) > 0)):
            raise InvalidConfig("scales must be finite, positive and strictly ascending")
        half = math.floor(4 * Decimal(float(self.scales[-1])))  # _morlet_kernels' widest, exact at any scale
        if half > math.isqrt(_ARRAY_BYTES // 8):
            raise InvalidConfig(
                f"the widest Morlet kernel is {Decimal(half):.6g} samples each side, so its edge Gram needs"
                f" {Decimal(8 * half * half):.3g} bytes, over {_ARRAY_BYTES}: raise wavelet.f_min or lower wavelet.omega0"
            )


@dataclass
class FeatureVector:
    values: np.ndarray
    names: list[str]


def spectral_params_for(fs: float, seconds: float = 4.0, overlap: float = 0.5) -> SpectralParams:
    """Default Welch setup: 4 s Hann segments with 50% overlap."""
    if not np.isfinite(seconds * fs):
        raise InvalidConfig(f"a segment of {seconds} s at {fs} Hz is not a finite number of samples")
    return SpectralParams(segment_length=int(round(seconds * fs)), fs=fs, overlap=overlap)


def morlet_scales(
    fs: float,
    f_min: float = 0.5,
    f_max: float = 40.0,
    n_scales: int = 24,
    omega0: float = 6.0,
) -> WaveletConfig:
    """Log-spaced scales whose pseudo-frequencies span [f_min, f_max].

    The scale-frequency map is f = omega0 * fs / (2 pi s); descending
    frequencies give ascending scales.
    """
    if check_count("n_scales", n_scales) > _MAX_SCALES:
        raise InvalidConfig(f"{n_scales} scales are over the {_MAX_SCALES} a plan may build: lower wavelet.n_scales")
    if min(f_min, f_max) <= 0:
        raise InvalidConfig(f"need positive frequencies, got {f_min}, {f_max}")
    freqs = np.logspace(np.log10(f_max), np.log10(f_min), n_scales)
    scales = omega0 * fs / (2.0 * np.pi * freqs)
    return WaveletConfig(omega0=omega0, scales=scales)


# ------------------------------------------------------------ shared kernels
#
# Each works along the last axis (or the last two) and broadcasts over any
# leading axes, so one channel and the channels of a window take the same
# path. Intermediates as large as the input go into arrays the caller
# passes: feature_matrix's workspace, or fresh arrays for the single-channel
# API.


def _moments(x: np.ndarray, centered: np.ndarray, squared: np.ndarray) -> np.ndarray:
    """(..., n) -> (..., 5): mean, std, skewness, excess kurtosis, rms.

    ``centered`` and ``squared`` are scratch arrays of x's shape. Each
    product is rounded once whichever array it lands in, so writing it
    over an input gives the bits a fresh array would.
    """
    mean = x.mean(axis=-1, keepdims=True)
    np.subtract(x, mean, out=centered)
    np.multiply(centered, centered, out=squared)  # products, not pow(): several times faster
    m2 = np.mean(squared, axis=-1)
    centered *= squared
    m3 = np.mean(centered, axis=-1)
    squared *= squared
    m4 = np.mean(squared, axis=-1)
    rms = np.sqrt(np.mean(np.multiply(x, x, out=centered), axis=-1))
    flat = m2 == 0.0
    safe = np.where(flat, 1.0, m2)
    skew = np.where(flat, 0.0, m3 / safe**1.5)
    kurt = np.where(flat, 0.0, m4 / safe**2 - 3.0)
    return np.stack([mean[..., 0], np.sqrt(m2), skew, kurt, rms], axis=-1)


def _taper(params: SpectralParams) -> np.ndarray:
    n = params.segment_length
    if params.window == "hann":
        # Periodic Hann, the spectral-analysis convention.
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    return np.ones(n)


def _segment_step(n: int, params: SpectralParams, rows: int = 1) -> int:
    """Samples between the starts of consecutive Welch segments of ``rows`` signals of
    n samples. Every Welch path comes here, which refuses a signal shorter than a segment,
    coherence (rows > 1) from one segment, and segment copies and spectra over _ARRAY_BYTES."""
    seg = params.segment_length
    if n < seg:
        raise TooFewSamples(f"signal of {n} samples shorter than segment_length {seg}")
    step = max(1, int(round(seg * (1.0 - params.overlap))))
    n_segments = (n - seg) // step + 1
    if rows > 1 and n_segments < 2:
        raise TooFewSamples("coherence needs at least 2 segments")
    welch_bytes = rows * n_segments * (8 * seg + 16 * (seg // 2 + 1))
    if welch_bytes > _ARRAY_BYTES:
        raise InvalidConfig(
            f"{rows} x {n_segments} Welch segments of {seg} samples and their spectra need {welch_bytes:.3g}"
            f" bytes, over {_ARRAY_BYTES}: lower spectral.segment_seconds or spectral.overlap"
        )
    return step


def _segments(x: np.ndarray, params: SpectralParams) -> np.ndarray:
    """(..., n) -> a read-only view (..., n_segments, segment_length) of x's segments."""
    step = _segment_step(x.shape[-1], params, math.prod(x.shape[:-1]))
    return sliding_window_view(x, params.segment_length, axis=-1)[..., ::step, :]


def _segment_spectra(segments: np.ndarray, taper: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(..., n_segments, n_taper) segments -> (..., n_segments, n_bins) rFFTs of
    the demeaned, tapered segments, which are demeaned and tapered in place."""
    segments -= segments.mean(axis=-1, keepdims=True)
    segments *= taper
    return np.fft.rfft(segments, axis=-1, out=out)


def _segment_mean(values: np.ndarray) -> np.ndarray:
    """Mean over segments (axis -2). numpy may lay a reduction's output out
    in any order; C order keeps the later sums over bins one row at a time."""
    return np.ascontiguousarray(values.mean(axis=-2))


def _mean_power(spectra: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Auto-spectrum averaged over segments, before density scaling.
    ``out`` (real, spectra's shape) takes |spectra|^2."""
    np.abs(spectra, out=out)
    out *= out
    return _segment_mean(out)


def _mean_cross(spectra_a: np.ndarray, spectra_b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cross-spectrum a * conj(b) averaged over segments; ``out`` (complex,
    spectra_b's shape) takes the products. The operands go in one fixed order:
    with fused multiply-add, conj(b) * a and a * conj(b) round the imaginary
    part differently, and numpy's elision of large temporaries would pick
    the order by the array's size."""
    np.conjugate(spectra_b, out=out)
    out *= spectra_a
    return _segment_mean(out)


def _density(power: np.ndarray, params: SpectralParams, taper: np.ndarray) -> np.ndarray:
    """One-sided PSD: scale by 1/(fs sum w^2), double all bins but DC and Nyquist."""
    psd = power / (params.fs * np.sum(taper**2))
    psd[..., 1:] *= 2.0
    if params.segment_length % 2 == 0:
        psd[..., -1] /= 2.0  # Nyquist bin is not mirrored
    return psd


def _entropy(psd: np.ndarray) -> np.ndarray:
    total = psd.sum(axis=-1, keepdims=True)
    p = psd / np.where(total > 0.0, total, 1.0)
    h = -np.sum(p * np.log(np.where(psd > 0.0, p, 1.0)), axis=-1)
    return h / np.log(psd.shape[-1])


def _mean_coherence(power_a: np.ndarray, power_b: np.ndarray, cross: np.ndarray) -> np.ndarray:
    denom = (power_a * power_b)[..., 1:]
    num = (np.abs(cross) ** 2)[..., 1:]
    keep = denom > 0
    ratio = np.where(keep, num / np.where(keep, denom, 1.0), 0.0)
    count = keep.sum(axis=-1)
    return np.where(count > 0, ratio.sum(axis=-1) / np.maximum(count, 1), 0.0)


# ------------------------------------------------------ single-channel API


def time_domain_stats(channel: np.ndarray) -> tuple[float, float, float, float, float]:
    """(mean, std, skewness, excess kurtosis, rms) of one channel.

    Population standard deviation; skewness m3/m2^(3/2) and excess
    kurtosis m4/m2^2 - 3 from central moments. A zero-variance input
    yields skewness = kurtosis = 0 by convention.
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.size < 2:
        raise TooFewSamples(f"need at least 2 samples, got {x.size}")
    return tuple(float(v) for v in _moments(x, np.empty_like(x), np.empty_like(x)))


def welch_psd(channel: np.ndarray, params: SpectralParams) -> PsdEstimate:
    """Averaged-periodogram PSD estimate.

    The signal is cut into overlapping segments; each is demeaned,
    tapered, transformed, and scaled by 1/(fs * sum(w^2)). One-sided
    output doubles every bin except DC and (for even segment lengths)
    Nyquist, then periodograms are averaged across segments.
    """
    x = np.asarray(channel, dtype=np.float64)
    taper = _taper(params)
    spectra = _segment_spectra(_segments(x, params).copy(), taper)
    freqs = np.fft.rfftfreq(params.segment_length, d=1.0 / params.fs)
    power = _density(_mean_power(spectra, np.empty(spectra.shape)), params, taper)
    return PsdEstimate(frequencies=freqs, power=power, df=params.fs / params.segment_length)


def dominant_frequency(psd: PsdEstimate) -> float:
    """Frequency of the strongest non-DC bin; ties go to the lower bin."""
    if psd.power.size < 2:
        raise TooFewSamples("PSD needs at least 2 bins")
    return float(psd.frequencies[1 + int(np.argmax(psd.power[1:]))])


def spectral_entropy(psd: PsdEstimate) -> float:
    """Shannon entropy of the normalized PSD, scaled into [0, 1].

    Normalization runs over all bins (DC included); zero-power bins are
    skipped in the sum. An all-zero spectrum returns 0.
    """
    if psd.power.size < 2:
        raise TooFewSamples("PSD needs at least 2 bins")
    return float(_entropy(np.asarray(psd.power, dtype=np.float64)))


def coherence(a: np.ndarray, b: np.ndarray, params: SpectralParams) -> float:
    """Mean magnitude-squared coherence between two channels.

    Welch auto- and cross-spectra share segmentation and taper; per bin
    C(f) = |S_ab|^2 / (S_aa * S_bb), and the result is the unweighted
    mean over non-DC bins. Bins with zero auto-power product are
    skipped; at least two segments are required for the estimate to be
    non-degenerate.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size != b.size:
        raise ShapeMismatch(f"channel lengths differ: {a.size} vs {b.size}")
    spectra = _segment_spectra(_segments(np.stack([a, b]), params).copy(), _taper(params))
    power = _mean_power(spectra, np.empty(spectra.shape))
    return float(_mean_coherence(power[0], power[1], _mean_cross(spectra[0], spectra[1], np.empty_like(spectra[1]))))


def _morlet_kernels(config: WaveletConfig) -> list[np.ndarray]:
    """Unit-L2-norm sampled Morlet kernels, one per scale."""
    kernels = []
    for s in config.scales:
        half = int(np.floor(4.0 * s))
        t = np.arange(-half, half + 1) / s
        psi = np.pi**-0.25 * np.exp(1j * config.omega0 * t) * np.exp(-0.5 * t**2)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2))
        kernels.append(psi)
    return kernels


def cwt_morlet(channel: np.ndarray, config: WaveletConfig) -> np.ndarray:
    """Continuous wavelet transform, returning (n_scales, n_samples).

    Per scale s the signal is correlated with the conjugate of the
    analytic Morlet wavelet pi^(-1/4) exp(i omega0 t) exp(-t^2/2)
    sampled at t = (k - center)/s, truncated at |t| <= 4 and normalized
    to unit discrete L2 norm. Edges are zero-padded; the output keeps
    the input length. This is the reference transform, used for plots;
    feature extraction gets the same energy from a :class:`FeaturePlan`.
    """
    x = np.asarray(channel, dtype=np.float64)
    if x.size < 16:
        raise TooFewSamples(f"CWT needs at least 16 samples, got {x.size}")
    kernels = _morlet_kernels(config)
    n = x.size
    max_len = max(k.size for k in kernels)
    fft_len = 1 << int(np.ceil(np.log2(n + max_len - 1)))
    fx = np.fft.fft(x, fft_len)
    out = np.empty((len(kernels), n), dtype=np.complex128)
    for i, psi in enumerate(kernels):
        half = psi.size // 2
        # corr(x, psi) == conv(x, reversed conjugate kernel)
        full = np.fft.ifft(fx * np.fft.fft(np.conj(psi[::-1]), fft_len))
        out[i] = full[half : half + n]
    return out


def wavelet_energy(coeffs: np.ndarray) -> tuple[float, np.ndarray]:
    """Total and per-scale mean-square coefficient energy."""
    coeffs = np.asarray(coeffs)
    if coeffs.size == 0:
        raise TooFewSamples("empty coefficient matrix")
    per_scale = (np.abs(coeffs) ** 2).sum(axis=1) / coeffs.shape[1]
    return float(per_scale.sum()), per_scale


# ------------------------------------------------------------ feature plan


def _fast_len(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length the FFT handles quickly."""
    best = 1 << max(0, m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _edge_gram(gram: np.ndarray, taps: np.ndarray) -> None:
    """Add to the upper triangle of ``gram[:h, :h]``, h = len(taps), that of
    the real symmetric G with
    sum_q |sum_p z_p taps[q + p]|^2 = z^T G z over q + p < h, for real z.

    G[p, p + d] = sum_{r >= p} Re(conj(taps[r]) taps[r + d]): one running
    sum over r per lag d, so G costs O(h^2) rather than a product of two
    Hankel matrices.
    """
    h = taps.size
    padded = np.concatenate([taps, np.zeros_like(taps)])
    suffix = np.zeros(h)
    for p in range(h - 1, -1, -1):
        suffix += (np.conj(taps[p]) * padded[p : p + h]).real
        gram[p, p:h] += suffix[: h - p]


@dataclass(eq=False)
class FeaturePlan:
    """What feature extraction precomputes for one window length and configuration.

    Build it once with :meth:`build` and pass it to :func:`feature_matrix`.

    The wavelet energy of a channel x of n samples is the energy of its
    full linear correlation with every kernel, minus the edge outputs
    that ``cwt_morlet``'s same-length crop drops, over n. By Parseval the
    first term is sum_k |X_k|^2 * ``weights[k]`` for the one-sided rFFT X
    of length ``fft_len``, where ``weights`` folds sum_s |Psi_s,k|^2 / N
    onto the non-negative bins. Each dropped edge output depends only on
    the first (or, reversed, the last) ``edge`` samples, so their energy
    is a quadratic form with ``edge_gram`` on x[:edge] and on
    x[::-1][:edge] (zero-padded when n < ``edge``). One Gram serves both
    edges because every kernel is conjugate-symmetric, psi[::-1] ==
    conj(psi), which makes the tail's taps the head's reversed. It is the
    plan's one large array (29.2 MB at 250 Hz); segments are cut from each
    window through a strided view, so no index table is kept.
    """

    n_samples: int
    span: slice
    spectral: SpectralParams
    wavelet: WaveletConfig
    taper: np.ndarray
    frequencies: np.ndarray
    fft_len: int
    weights: np.ndarray
    edge_gram: np.ndarray

    @classmethod
    def build(
        cls,
        n_samples: int,
        spectral: SpectralParams,
        wavelet: WaveletConfig,
        analysis_span: tuple[float, float] | None = None,
    ) -> FeaturePlan:
        """Validate the configuration against windows of ``n_samples`` at
        ``spectral.fs``.

        ``analysis_span`` optionally restricts extraction to a sub-window
        given in seconds relative to the window start.
        """
        fs = spectral.fs
        lo, hi = 0, n_samples
        if analysis_span is not None:
            lo = int(round(analysis_span[0] * fs))
            hi = int(round(analysis_span[1] * fs))
            if not 0 <= lo < hi <= n_samples:
                raise InvalidConfig(f"analysis_span {analysis_span} outside the {n_samples / fs:g} s window")
        n = hi - lo
        if n < 16:
            raise TooFewSamples(f"CWT needs at least 16 samples, got {n}")
        _segment_step(n, spectral)  # refuses a span shorter than one segment, or too many segments

        kernels = _morlet_kernels(wavelet)
        edge = max(psi.size // 2 for psi in kernels)
        fft_len = _fast_len(n + 2 * edge)
        power = np.zeros(fft_len)
        edge_gram = np.zeros((edge, edge))
        for psi in kernels:
            half = psi.size // 2
            taps = np.conj(psi[::-1])  # the correlation filter cwt_morlet convolves with
            power += np.abs(np.fft.fft(taps, fft_len)) ** 2
            _edge_gram(edge_gram, taps[:half][::-1])
        for p in range(edge - 1):  # mirror row by row: no second Gram-sized array
            edge_gram[p + 1 :, p] = edge_gram[p, p + 1 :]
        k = np.arange(fft_len // 2 + 1)
        mirror = (fft_len - k) % fft_len
        weights = np.where(mirror == k, power[k], power[k] + power[mirror]) / fft_len

        return cls(
            n_samples=n_samples,
            span=slice(lo, hi),
            spectral=spectral,
            wavelet=wavelet,
            taper=_taper(spectral),
            frequencies=np.fft.rfftfreq(spectral.segment_length, d=1.0 / spectral.fs),
            fft_len=fft_len,
            weights=weights,
            edge_gram=edge_gram,
        )


@dataclass
class _Workspace:
    """Every window-sized array one :func:`feature_matrix` worker writes.

    Each worker allocates one and every window it claims overwrites it, so
    no window allocates an array of its own size. Only ``x`` (the window)
    and ``spectra`` (its segment spectra) live through a whole window. The
    other window-sized arrays live one after another, so they are C-ordered
    views of the head of one float64 scratch array, in the order
    :func:`_window_features` uses them: ``segments`` (a copy of the strided
    segment view), ``power`` (|spectra|^2), ``centered`` and ``squared``
    (the moments), ``wavelet_spectrum`` (which also holds the wavelet power
    in its real halves) and ``cross`` (one channel pair's cross-spectrum).
    ``edges`` holds the head and the reversed tail the wavelet edge
    correction reads, and ``edge_product`` their product with the edge Gram.
    """

    x: np.ndarray
    spectra: np.ndarray
    segments: np.ndarray
    power: np.ndarray
    centered: np.ndarray
    squared: np.ndarray
    wavelet_spectrum: np.ndarray
    cross: np.ndarray
    edges: np.ndarray
    edge_product: np.ndarray

    @classmethod
    def allocate(cls, plan: FeaturePlan, n_channels: int) -> _Workspace:
        """Arrays for one window of ``n_channels``."""
        x = np.empty((n_channels, plan.span.stop - plan.span.start))
        segments = _segments(x, plan.spectral).shape
        bins = segments[:-1] + (plan.frequencies.size,)
        shapes = {
            "segments": (segments, np.float64),
            "power": (bins, np.float64),
            "moments": ((2,) + x.shape, np.float64),
            "wavelet_spectrum": ((n_channels, plan.fft_len // 2 + 1), np.complex128),
            "cross": (bins[1:], np.complex128),
        }
        words = {k: math.prod(shape) * np.dtype(dtype).itemsize // 8 for k, (shape, dtype) in shapes.items()}
        scratch = np.empty(max(words.values()))
        views = {k: scratch[: words[k]].view(dtype).reshape(shape) for k, (shape, dtype) in shapes.items()}
        centered, squared = views.pop("moments")
        return cls(
            x=x,
            spectra=np.empty(bins, np.complex128),
            centered=centered,
            squared=squared,
            edges=np.empty((2, n_channels, plan.edge_gram.shape[0])),
            edge_product=np.empty((2, n_channels, plan.edge_gram.shape[0])),
            **views,
        )


# Multiply-adds in a matrix product small enough that OpenBLAS runs it on
# the calling thread (OpenBLAS 0.3.31 splits a product with M = 3 rows only
# past about 10**6). A larger one wakes OpenBLAS's own threads, which then
# compete with feature_matrix's workers for the same CPUs.
_SERIAL_PRODUCT = 2**19


def _total_wavelet_energy(x: np.ndarray, plan: FeaturePlan, ws: _Workspace) -> np.ndarray:
    """(..., n) -> (...): sum over scales of the mean-square CWT coefficient.
    |X|^2 lands in the real halves of ``ws.wavelet_spectrum``. ``ws.edges``
    (2, ..., edge) takes the head, then the reversed tail, zero-padded past
    n. Their product with the edge Gram goes into ``ws.edge_product`` as
    column blocks of at most ``_SERIAL_PRODUCT`` multiply-adds, each the
    transpose of a contiguous row block of the symmetric Gram, so every
    product runs on the calling thread. Measured on OpenBLAS 0.3.31
    (scipy-openblas, AVX-512 Xeon), one BLAS thread or the default: at
    50 Hz, windows of 2-4 channels get the rows of one whole product bit
    for bit, and a one-channel window's wavelet energy may move by one ulp."""
    n = x.shape[-1]
    np.fft.rfft(x, plan.fft_len, axis=-1, out=ws.wavelet_spectrum)
    parts = ws.wavelet_spectrum.view(np.float64)  # re, im, re, im, ...
    parts *= parts
    power = parts[..., 0::2]
    power += parts[..., 1::2]
    power *= plan.weights
    full = power.sum(axis=-1)
    edges, product = ws.edges, ws.edge_product
    edge = edges.shape[-1]
    m = min(n, edge)
    edges[0, ..., :m] = x[..., :m]
    edges[1, ..., :m] = x[..., ::-1][..., :m]
    edges[..., m:] = 0.0
    rows = 2 * math.prod(x.shape[:-1])
    step = max(1, _SERIAL_PRODUCT // (rows * max(edge, 1)))  # edge is 0 when every kernel is one tap
    flat, out = edges.reshape(rows, edge), product.reshape(rows, edge)
    for j in range(0, edge, step):
        np.matmul(flat, plan.edge_gram[j : j + step].T, out=out[:, j : j + step])
    product *= edges
    head, tail = product.sum(axis=-1)
    return (full - (head + tail)) / n


def _window_features(window: np.ndarray, plan: FeaturePlan, ws: _Workspace) -> np.ndarray:
    """(n_samples, C) window -> its (n_features,) feature row, computed in ``ws``."""
    x = ws.x  # (C, n)
    np.copyto(x, window[plan.span].T)
    np.copyto(ws.segments, _segments(x, plan.spectral))
    spectra = _segment_spectra(ws.segments, plan.taper, ws.spectra)
    power = _mean_power(spectra, ws.power)
    psd = _density(power, plan.spectral, plan.taper)
    per_channel = np.concatenate(
        [
            _moments(x, ws.centered, ws.squared),
            plan.frequencies[1 + np.argmax(psd[..., 1:], axis=-1)][..., None],
            _entropy(psd)[..., None],
            _total_wavelet_energy(x, plan, ws)[..., None],
        ],
        axis=-1,
    )
    coh = [
        _mean_coherence(power[i], power[j], _mean_cross(spectra[i], spectra[j], ws.cross))
        for i, j in combinations(range(len(x)), 2)
    ]
    return np.concatenate([per_channel.ravel(), np.asarray(coh, dtype=np.float64)])


def feature_matrix(windows: np.ndarray, plan: FeaturePlan) -> np.ndarray:
    """Feature rows of a (n_windows, n_samples, n_channels) stack of imputed windows.

    Each window is one item of :func:`workers.run`, so each worker thread
    computes its windows in its own workspace: working memory is one
    window's per worker, and no window allocates afresh. A failing window
    raises the error a serial loop would. ``windows`` needs only a
    ``shape`` and indexing by window, so a reader that loads each window
    from disk works too; each window becomes float64 on its own, so the
    windows may stay float32 as ingest stores them. A window's row does
    not depend on its place in the stack or on the number of workers.
    """
    n_windows, n_samples, n_channels = np.shape(windows)
    if n_samples != plan.n_samples:
        raise ShapeMismatch(f"windows have {n_samples} samples, the plan was built for {plan.n_samples}")
    _segment_step(plan.span.stop - plan.span.start, plan.spectral, n_channels)  # each worker's Welch limits
    out = np.empty((n_windows, len(feature_names(n_channels))))

    def window(ws: _Workspace, i: int) -> None:
        out[i] = _window_features(windows[i], plan, ws)

    with np.errstate(all="ignore"):  # a non-finite window is reported below, not warned about
        workers.run(n_windows, lambda: _Workspace.allocate(plan, n_channels), window)
    bad = np.flatnonzero(~np.all(np.isfinite(out), axis=1))
    if bad.size:
        raise ValueOutOfRange(f"window {bad[0]} has a non-finite feature value")
    return out


_STAT_NAMES = ("mean", "std", "skewness", "kurtosis_excess", "rms")


def feature_names(n_channels: int) -> list[str]:
    """Deterministic feature naming for a given channel count."""
    names = []
    for c in range(n_channels):
        names.extend(f"ch{c}_{s}" for s in _STAT_NAMES)
        names.append(f"ch{c}_dominant_freq_hz")
        names.append(f"ch{c}_spectral_entropy")
        names.append(f"ch{c}_wavelet_energy")
    names.extend(f"coherence_ch{i}_ch{j}" for i, j in combinations(range(n_channels), 2))
    return names


def build_feature_vector(
    window: WaveformRecord,
    spectral: SpectralParams,
    wavelet: WaveletConfig,
    analysis_span: tuple[float, float] | None = None,
) -> FeatureVector:
    """Features of one window: :func:`feature_matrix` on a stack of one.

    ``analysis_span`` optionally restricts extraction to a sub-window
    given in seconds relative to the window start; the default uses the
    full 6 minutes. The window must already be imputed.
    """
    if window.missing_mask.any():
        raise ValueOutOfRange("window has missing samples; run impute_mean first")
    fs = window.header.sampling_frequency
    if spectral.fs != fs:
        raise InvalidConfig(f"the window samples at {fs} Hz, the spectral settings at {spectral.fs} Hz")
    samples = np.asarray(window.samples, dtype=np.float64)
    plan = FeaturePlan.build(samples.shape[0], spectral, wavelet, analysis_span)
    values = feature_matrix(samples[None], plan)[0]
    return FeatureVector(values=values, names=feature_names(samples.shape[1]))


__all__ = [
    "SpectralParams",
    "PsdEstimate",
    "WaveletConfig",
    "FeatureVector",
    "FeaturePlan",
    "spectral_params_for",
    "morlet_scales",
    "time_domain_stats",
    "welch_psd",
    "dominant_frequency",
    "spectral_entropy",
    "coherence",
    "cwt_morlet",
    "wavelet_energy",
    "feature_matrix",
    "feature_names",
    "build_feature_vector",
]
