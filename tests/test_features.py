"""Spectral, wavelet and statistical features against naive oracles."""

import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from helpers import feature_vector_oracle, tail_gram_oracle, welch_psd_oracle
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vtalarm.errors import InvalidConfig, ShapeMismatch, TooFewSamples, ValueOutOfRange
from vtalarm.features import (
    FeaturePlan,
    PsdEstimate,
    SpectralParams,
    WaveletConfig,
    _morlet_kernels,
    _Workspace,
    build_feature_vector,
    coherence,
    cwt_morlet,
    dominant_frequency,
    feature_matrix,
    feature_names,
    morlet_scales,
    spectral_entropy,
    spectral_params_for,
    time_domain_stats,
    welch_psd,
    wavelet_energy,
)
from vtalarm.wfdb_io import AlarmWindow


def make_window(samples, fs):
    samples = np.asarray(samples, dtype=np.float64)
    return AlarmWindow(
        record_id="w", samples=samples, missing_mask=np.zeros(samples.shape, dtype=bool),
        label=0, alarm_index=0, fs=fs,
    )


# ---------------------------------------------------------------------- welch


def test_welch_matches_direct_dft_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(200, 4097))
        seg = int(rng.choice([64, 128, 200, 256, 500]))
        seg = min(seg, n)
        overlap = float(rng.choice([0.0, 0.25, 0.5]))
        window = str(rng.choice(["hann", "rect"]))
        params = SpectralParams(segment_length=seg, fs=float(rng.uniform(50, 500)), overlap=overlap, window=window)
        x = rng.normal(size=n) + np.sin(2 * np.pi * 0.1 * np.arange(n))
        got = welch_psd(x, params)
        expected = welch_psd_oracle(x, params)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got.power - expected)) <= 1e-9 * scale


def test_welch_parseval_single_rect_segment():
    rng = np.random.default_rng(3)
    for n in (64, 127, 500):
        x = rng.normal(size=n)
        params = SpectralParams(segment_length=n, fs=100.0, overlap=0.0, window="rect")
        psd = welch_psd(x, params)
        total_power = float(np.sum(psd.power) * psd.df)
        variance = float(np.var(x))  # segments are demeaned before the DFT
        assert total_power == pytest.approx(variance, rel=1e-9)


def test_welch_pure_tone_lands_on_its_bin():
    fs, seg = 100.0, 200
    params = SpectralParams(segment_length=seg, fs=fs, overlap=0.5)
    t = np.arange(1000) / fs
    x = np.sin(2 * np.pi * 10.0 * t)  # exactly bin 20 of a 200-sample segment
    psd = welch_psd(x, params)
    assert psd.frequencies[np.argmax(psd.power)] == pytest.approx(10.0)


def test_welch_frequency_grid_and_df():
    params = SpectralParams(segment_length=128, fs=64.0)
    psd = welch_psd(np.random.default_rng(0).normal(size=256), params)
    assert psd.df == pytest.approx(0.5)
    assert psd.frequencies[0] == 0.0
    assert psd.frequencies[-1] == pytest.approx(32.0)
    assert psd.power.shape == (65,)


def test_welch_too_short_signal():
    params = SpectralParams(segment_length=64, fs=10.0)
    with pytest.raises(TooFewSamples):
        welch_psd(np.zeros(32), params)


def test_spectral_params_validation():
    with pytest.raises(InvalidConfig):
        SpectralParams(segment_length=4, fs=10.0)
    with pytest.raises(InvalidConfig):
        SpectralParams(segment_length=64, fs=10.0, overlap=1.0)
    with pytest.raises(InvalidConfig):
        SpectralParams(segment_length=64, fs=10.0, window="hamming")
    with pytest.raises(InvalidConfig):
        SpectralParams(segment_length=64, fs=float("nan"))
    with pytest.raises(InvalidConfig, match="segment_length"):
        SpectralParams(segment_length=64.5, fs=10.0)
    assert spectral_params_for(125.0).segment_length == 500


@pytest.mark.parametrize("seconds, fs", [(float("inf"), 50.0), (float("nan"), 50.0), (4.0, float("inf"))])
def test_spectral_params_for_refuses_a_segment_that_is_not_a_finite_length(seconds, fs):
    with pytest.raises(InvalidConfig, match="finite number of samples"):
        spectral_params_for(fs, seconds=seconds)


# ----------------------------------------------------- derived psd quantities


def test_dominant_frequency_skips_dc_and_breaks_ties_low():
    psd = PsdEstimate(frequencies=np.array([0.0, 1.0, 2.0, 3.0]), power=np.array([9.0, 2.0, 5.0, 5.0]), df=1.0)
    assert dominant_frequency(psd) == 2.0  # DC excluded; tie 2 vs 3 Hz -> lower


def test_spectral_entropy_extremes():
    flat = PsdEstimate(frequencies=np.arange(8.0), power=np.ones(8), df=1.0)
    assert spectral_entropy(flat) == pytest.approx(1.0)
    single = PsdEstimate(frequencies=np.arange(8.0), power=np.eye(8)[3], df=1.0)
    assert spectral_entropy(single) == 0.0
    silent = PsdEstimate(frequencies=np.arange(8.0), power=np.zeros(8), df=1.0)
    assert spectral_entropy(silent) == 0.0


def test_spectral_entropy_orders_narrow_vs_broad():
    rng = np.random.default_rng(9)
    fs = 100.0
    t = np.arange(2000) / fs
    params = spectral_params_for(fs, seconds=2.0)
    tone = spectral_entropy(welch_psd(np.sin(2 * np.pi * 7 * t), params))
    noise = spectral_entropy(welch_psd(rng.normal(size=t.size), params))
    assert tone < noise


# ------------------------------------------------------------------ coherence


def test_coherence_of_linearly_related_signals_is_one():
    rng = np.random.default_rng(21)
    x = rng.normal(size=1024)
    params = SpectralParams(segment_length=128, fs=64.0)
    assert coherence(x, 3.0 * x, params) == pytest.approx(1.0)


def test_coherence_of_independent_noise_shows_segment_bias():
    rng = np.random.default_rng(22)
    params = SpectralParams(segment_length=256, fs=64.0, overlap=0.0)
    a = rng.normal(size=256 * 16)
    b = rng.normal(size=256 * 16)
    c = coherence(a, b, params)
    assert 0.0 < c < 3.0 / 16.0  # bias is about 1/n_segments


def test_coherence_requires_two_segments_and_equal_lengths():
    params = SpectralParams(segment_length=128, fs=64.0, overlap=0.0)
    with pytest.raises(TooFewSamples):
        coherence(np.zeros(128), np.zeros(128), params)
    with pytest.raises(ShapeMismatch):
        coherence(np.zeros(512), np.zeros(510), params)


def test_coherence_in_unit_interval():
    rng = np.random.default_rng(23)
    params = SpectralParams(segment_length=64, fs=32.0)
    for _ in range(10):
        shared = rng.normal(size=512)
        a = shared + rng.normal(size=512)
        b = shared + rng.normal(size=512)
        assert 0.0 <= coherence(a, b, params) <= 1.0


# -------------------------------------------------------------------- wavelet


def test_morlet_kernels_have_unit_l2_norm():
    config = morlet_scales(fs=50.0)
    for kernel in _morlet_kernels(config):
        assert np.sum(np.abs(kernel) ** 2) == pytest.approx(1.0)
    assert len(config.scales) == 24


def test_morlet_scale_frequency_map_endpoints():
    fs, omega0 = 50.0, 6.0
    config = morlet_scales(fs=fs, f_min=0.5, f_max=40.0, omega0=omega0)
    pseudo = omega0 * fs / (2 * np.pi * config.scales)
    assert pseudo[0] == pytest.approx(40.0)
    assert pseudo[-1] == pytest.approx(0.5)
    assert np.all(np.diff(config.scales) > 0)


def test_cwt_localizes_a_pure_tone():
    fs = 50.0
    t = np.arange(2000) / fs
    x = np.sin(2 * np.pi * 5.0 * t)
    config = morlet_scales(fs=fs)
    coeffs = cwt_morlet(x, config)
    assert coeffs.shape == (24, 2000)
    # ignore edges where the kernel hangs off the signal
    core = np.abs(coeffs[:, 400:1600]).mean(axis=1)
    pseudo = config.omega0 * fs / (2 * np.pi * config.scales)
    best = pseudo[np.argmax(core)]
    assert abs(best - 5.0) / 5.0 < 0.2  # within the log-spaced grid spacing


def test_cwt_energy_scales_quadratically_with_amplitude():
    fs = 50.0
    t = np.arange(1500) / fs
    config = morlet_scales(fs=fs)
    e1, _ = wavelet_energy(cwt_morlet(np.sin(2 * np.pi * 3 * t), config))
    e2, _ = wavelet_energy(cwt_morlet(2.0 * np.sin(2 * np.pi * 3 * t), config))
    assert e2 / e1 == pytest.approx(4.0, rel=1e-6)


def test_cwt_minimum_length():
    with pytest.raises(TooFewSamples):
        cwt_morlet(np.zeros(15), morlet_scales(fs=50.0))


def test_wavelet_config_validation():
    with pytest.raises(InvalidConfig):
        WaveletConfig(omega0=6.0, scales=np.array([2.0, 1.0]))
    with pytest.raises(InvalidConfig):
        WaveletConfig(omega0=0.0, scales=np.array([1.0]))
    with pytest.raises(InvalidConfig):
        WaveletConfig(omega0=6.0, scales=np.array([1.0, np.nan]))


@pytest.mark.parametrize(
    "settings", [{"n_scales": -1}, {"n_scales": 0}, {"f_min": -1.0}, {"f_max": 0.0}, {"n_scales": 24.0}, {"n_scales": 2.5}]
)
def test_morlet_scales_rejects_a_bad_setting(settings):
    with pytest.raises(InvalidConfig):
        morlet_scales(fs=50.0, **settings)


# ------------------------------------------------------------------ statistics


def test_time_domain_stats_against_moment_oracle():
    rng = np.random.default_rng(31)
    x = rng.gamma(2.0, size=500)  # skewed on purpose
    mean, std, skew, kurt, rms = time_domain_stats(x)
    centered = x - x.mean()
    m2, m3, m4 = (np.mean(centered**k) for k in (2, 3, 4))
    assert mean == pytest.approx(np.mean(x))
    assert std == pytest.approx(np.sqrt(m2))
    assert skew == pytest.approx(m3 / m2**1.5)
    assert kurt == pytest.approx(m4 / m2**2 - 3.0)
    assert rms == pytest.approx(np.sqrt(np.mean(x**2)))


def test_time_domain_stats_constant_input():
    mean, std, skew, kurt, rms = time_domain_stats(np.full(10, 2.0))
    assert (mean, std, skew, kurt) == (2.0, 0.0, 0.0, 0.0)
    assert rms == pytest.approx(2.0)


def test_time_domain_stats_gaussian_shape():
    x = np.random.default_rng(32).normal(size=20000)
    _, _, skew, kurt, _ = time_domain_stats(x)
    assert abs(skew) < 0.1
    assert abs(kurt) < 0.1


# -------------------------------------------------------------- feature vector


def test_feature_vector_layout_and_names():
    fs = 50.0
    rng = np.random.default_rng(41)
    window = make_window(rng.normal(size=(1000, 3)), fs)
    spectral = spectral_params_for(fs)
    wavelet = morlet_scales(fs)
    vec = build_feature_vector(window, spectral, wavelet)
    assert vec.values.shape == (8 * 3 + 3,)
    assert vec.names == feature_names(3)
    assert np.all(np.isfinite(vec.values))
    assert vec.names[0] == "ch0_mean"
    assert vec.names[-1] == "coherence_ch1_ch2"


def test_feature_vector_analysis_span_equals_manual_slice():
    fs = 50.0
    rng = np.random.default_rng(43)
    samples = rng.normal(size=(2000, 2))
    spectral = spectral_params_for(fs)
    wavelet = morlet_scales(fs)
    spanned = build_feature_vector(make_window(samples, fs), spectral, wavelet, analysis_span=(10.0, 30.0))
    sliced = build_feature_vector(make_window(samples[500:1500], fs), spectral, wavelet)
    assert np.array_equal(spanned.values, sliced.values)


def test_feature_vector_rejects_unimputed_window():
    window = make_window(np.zeros((600, 2)), 50.0)
    window.missing_mask[3, 1] = True
    with pytest.raises(ValueOutOfRange):
        build_feature_vector(window, spectral_params_for(50.0), morlet_scales(50.0))


def test_feature_names_counts():
    assert len(feature_names(2)) == 17
    assert len(feature_names(3)) == 27


# ------------------------------------------------------------- feature plan


def test_feature_plan_validates_once():
    spectral, wavelet = spectral_params_for(50.0), morlet_scales(50.0)
    with pytest.raises(InvalidConfig):
        FeaturePlan.build(1000, spectral, wavelet, analysis_span=(0.0, 1000.0))
    with pytest.raises(InvalidConfig):
        FeaturePlan.build(1000, spectral, wavelet, analysis_span=(12.0, 4.0))
    with pytest.raises(TooFewSamples):
        FeaturePlan.build(1000, spectral, wavelet, analysis_span=(0.0, 2.0))  # 100 samples < one segment
    plan = FeaturePlan.build(1000, spectral, wavelet)
    with pytest.raises(ShapeMismatch):
        feature_matrix(np.zeros((2, 999, 3)), plan)


def test_feature_vector_refuses_spectral_settings_at_another_rate():
    window = make_window(np.random.default_rng(45).normal(size=(2500, 2)), 250.0)
    with pytest.raises(InvalidConfig, match="250.0 Hz.*50.0 Hz"):
        build_feature_vector(window, spectral_params_for(50.0), morlet_scales(250.0))


def test_feature_matrix_rejects_non_finite_windows():
    plan = FeaturePlan.build(1000, spectral_params_for(50.0), morlet_scales(50.0))
    windows = np.random.default_rng(44).normal(size=(3, 1000, 2))
    windows[2, 10, 1] = np.inf
    with pytest.raises(ValueOutOfRange, match="window 2"):
        feature_matrix(windows, plan)


@pytest.mark.parametrize("fs", [50.0, 125.0, 250.0])
def test_one_edge_gram_serves_the_tail_bit_for_bit(fs):
    plan = FeaturePlan.build(int(20 * fs), spectral_params_for(fs), morlet_scales(fs))
    assert np.array_equal(tail_gram_oracle(morlet_scales(fs)), plan.edge_gram)


def test_fft_length_is_five_smooth():
    plan = FeaturePlan.build(18000, spectral_params_for(50.0), morlet_scales(50.0))
    assert plan.edge_gram.shape == (381, 381)
    assert plan.fft_len == 19200  # >= 18000 + 2 * 381, where the next power of two is 32768


def _relative_error(got, want):
    """Worst |got - want| / |want| over the features; a zero needs an exact zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(got == want, 0.0, np.abs(got - want) / np.abs(want))
    return float(np.max(rel))


@st.composite
def feature_cases(draw):
    """A stack of float32 windows (as ingest stores them) and their settings."""
    fs = draw(st.sampled_from([50.0, 125.0, 250.0]))
    spectral = spectral_params_for(fs, seconds=draw(st.sampled_from([1.0, 2.0, 4.0])))
    wavelet = morlet_scales(fs)
    seg = spectral.segment_length
    longest_kernel = _morlet_kernels(wavelet)[-1].size
    n = draw(st.integers(2 * seg, 2 * longest_kernel))
    n_channels = draw(st.integers(1, 3))
    span = None
    if draw(st.booleans()):
        lo = draw(st.integers(0, n - 2 * seg))
        hi = draw(st.integers(lo + 2 * seg, n))
        span = (lo / fs, hi / fs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.integers(1, 7))
    t = np.arange(n) / fs
    windows = (
        rng.normal(size=(batch, n, n_channels)) * rng.uniform(0.1, 50.0, size=n_channels)
        + rng.uniform(-100.0, 100.0, size=n_channels)
        + np.sin(2 * np.pi * rng.uniform(0.5, 10.0) * t)[None, :, None]
    ).astype(np.float32)
    flat = draw(st.none() | st.integers(0, n_channels - 1))
    if flat is not None:
        windows[:, :, flat] = np.float32(rng.uniform(-5.0, 5.0))  # a zero-variance channel
    return windows, fs, spectral, span


@settings(max_examples=25, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(feature_cases())
def test_feature_matrix_matches_per_window_oracle(case):
    """The stack path against the scalogram oracle: every fs, n above and
    below the longest kernel, with and without a span, a constant channel."""
    windows, fs, spectral, span = case
    wavelet = morlet_scales(fs)
    plan = FeaturePlan.build(windows.shape[1], spectral, wavelet, span)
    rows = feature_matrix(windows, plan)
    shifted = feature_matrix(np.roll(windows, 1, axis=0), plan)
    for i, window in enumerate(windows):
        want = feature_vector_oracle(window, fs, spectral, wavelet, span)
        assert _relative_error(rows[i], want) <= 1e-12
        # the same bytes alone and at any place in the stack
        assert rows[i].tobytes() == feature_matrix(window[None], plan)[0].tobytes()
        assert rows[i].tobytes() == shifted[(i + 1) % len(windows)].tobytes()


def test_feature_matrix_default_chunks_at_full_window_length():
    fs = 50.0
    windows = np.random.default_rng(45).normal(size=(5, 18000, 3)).astype(np.float32)
    plan = FeaturePlan.build(18000, spectral_params_for(fs), morlet_scales(fs))
    rows = feature_matrix(windows, plan)
    for i in (0, 4):
        want = feature_vector_oracle(windows[i], fs, plan.spectral, plan.wavelet)
        assert _relative_error(rows[i], want) <= 1e-12
        assert rows[i].tobytes() == feature_matrix(windows[i : i + 1], plan)[0].tobytes()


def _correlated_windows(rng, n_windows, n):
    """(n_windows, n, 3) float32 windows whose channels share a weak common component."""
    common = rng.normal(size=(n_windows, n, 1))
    return (0.3 * common + rng.normal(size=(n_windows, n, 3)) + [60.0, -3.0, 12.0]).astype(np.float32)


@pytest.mark.parametrize("n", [9000, 15000, 17000])
def test_row_bytes_do_not_depend_on_the_stack(n):
    """A window alone and in a stack of 4 give the same bytes. One channel pair's
    cross-spectrum takes 140, 235 and 267 KiB here: on both sides of the 256 KiB
    at which numpy elides a temporary, which would flip the operands of the
    product that makes it."""
    fs = 50.0
    windows = _correlated_windows(np.random.default_rng(n), 4, n)
    plan = FeaturePlan.build(n, spectral_params_for(fs), morlet_scales(fs))
    rows = feature_matrix(windows, plan)
    for i, window in enumerate(windows):
        assert rows[i].tobytes() == feature_matrix(window[None], plan)[0].tobytes()


def test_workspace_leaks_nothing_between_windows():
    """A zero-variance channel in the third and the last of 5 windows, each
    right after a window of normal variance in the same workspace."""
    fs, n = 50.0, 1500
    windows = _correlated_windows(np.random.default_rng(48), 5, n)
    windows[2, :, 1] = 4.0
    windows[4, :, 0] = -1.5
    plan = FeaturePlan.build(n, spectral_params_for(fs), morlet_scales(fs))
    allocate = _Workspace.allocate

    def poisoned(plan, n_channels):
        """A workspace filled with NaN, so a read of anything not yet written shows."""
        ws = allocate(plan, n_channels)
        for f in fields(ws):
            getattr(ws, f.name).fill(np.nan)
        return ws

    with mock.patch.object(_Workspace, "allocate", poisoned):
        rows = feature_matrix(windows, plan)
    for i, window in enumerate(windows):
        assert rows[i].tobytes() == feature_matrix(window[None], plan)[0].tobytes()
        assert _relative_error(rows[i], feature_vector_oracle(window, fs, plan.spectral, plan.wavelet)) <= 1e-12
    names = feature_names(3)
    for i, c in ((2, 1), (4, 0)):
        assert rows[i, names.index(f"ch{c}_std")] == 0.0
        assert rows[i, names.index(f"ch{c}_skewness")] == rows[i, names.index(f"ch{c}_kurtosis_excess")] == 0.0


def test_one_plan_gives_the_same_bytes_twice():
    fs, n = 50.0, 3000
    windows = _correlated_windows(np.random.default_rng(49), 5, n)
    plan = FeaturePlan.build(n, spectral_params_for(fs), morlet_scales(fs))
    assert feature_matrix(windows, plan).tobytes() == feature_matrix(windows, plan).tobytes()


def test_feature_matrix_memory_stays_within_chunk_bytes():
    """Working memory is one window's workspace (4.3 MiB here), not the stack's."""
    fs = 50.0
    windows = np.random.default_rng(50).normal(size=(20, 18000, 3)).astype(np.float32)
    plan = FeaturePlan.build(18000, spectral_params_for(fs), morlet_scales(fs))
    tracemalloc.start()
    try:
        feature_matrix(windows, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 << 20


def test_build_feature_vector_is_one_row_of_feature_matrix():
    fs = 50.0
    samples = np.random.default_rng(46).normal(size=(1500, 3))
    spectral, wavelet = spectral_params_for(fs), morlet_scales(fs)
    vec = build_feature_vector(make_window(samples, fs), spectral, wavelet, analysis_span=(2.0, 28.0))
    plan = FeaturePlan.build(1500, spectral, wavelet, analysis_span=(2.0, 28.0))
    assert vec.values.tobytes() == feature_matrix(samples[None], plan)[0].tobytes()


# ------------------------------------------------------------- scipy oracle


def test_welch_and_coherence_match_scipy():
    pytest.importorskip("scipy")
    from scipy import signal

    rng = np.random.default_rng(47)
    for _ in range(20):
        seg = int(rng.choice([64, 128, 200, 256, 500]))
        overlap = float(rng.choice([0.0, 0.25, 0.5]))
        window = str(rng.choice(["hann", "rect"]))
        fs = float(rng.uniform(50, 500))
        params = SpectralParams(segment_length=seg, fs=fs, overlap=overlap, window=window)
        step = max(1, int(round(seg * (1.0 - overlap))))
        n = int(rng.integers(seg + step, 4097))
        a = rng.normal(size=n) + np.sin(2 * np.pi * 0.1 * np.arange(n))
        b = 0.5 * a + rng.normal(size=n)
        kwargs = {"fs": fs, "window": "hann" if window == "hann" else "boxcar", "nperseg": seg, "noverlap": seg - step}

        _, expected = signal.welch(a, detrend="constant", scaling="density", **kwargs)
        assert np.max(np.abs(welch_psd(a, params).power - expected)) <= 1e-12 * np.max(expected)
        _, cxy = signal.coherence(a, b, **kwargs)
        assert coherence(a, b, params) == pytest.approx(np.mean(cxy[1:]), rel=1e-12, abs=1e-15)
