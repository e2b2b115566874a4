"""
Wavelet energy and the scalogram
================================

The wavelet transform correlates the signal with stretched copies of a
Morlet kernel, giving a time-frequency picture. The feature kept per
channel is the total energy of that picture, which responds to bursts
that a global spectrum would average away.

``cwt_morlet`` builds the picture and remains the reference transform;
this demo plots with it. ``featurize`` never builds it: by Parseval's
identity it gets the same energy from one FFT of the channel, weighted
by the kernels' power spectra, minus the edge samples the crop drops.
"""

import numpy as np

from vtalarm.features import FeaturePlan, cwt_morlet, feature_matrix, morlet_scales, spectral_params_for, wavelet_energy

fs = 125.0
t = np.arange(int(8 * fs)) / fs
config = morlet_scales(fs, f_min=0.5, f_max=40.0, n_scales=24)

# Each scale corresponds to a pseudo-frequency; 24 of them cover half a
# hertz up to 40 Hz, geometrically spaced.
freqs = config.omega0 * fs / (2 * np.pi * config.scales)
print("scales cover", round(float(freqs.min()), 2), "to", round(float(freqs.max()), 2), "Hz")

# A signal that switches from 2 Hz to 20 Hz halfway through.
switch = t.size // 2
x = np.where(np.arange(t.size) < switch,
             np.sin(2 * np.pi * 2.0 * t),
             np.sin(2 * np.pi * 20.0 * t))

coeffs = cwt_morlet(x, config)
print("scalogram:", coeffs.shape, "(scales x time)")

# The magnitude concentrates at the 2 Hz rows early and the 20 Hz rows
# late. Checking the strongest scale in each half shows the switch.
power = np.abs(coeffs) ** 2
early = int(np.argmax(power[:, : switch - 125].sum(axis=1)))
late = int(np.argmax(power[:, switch + 125 :].sum(axis=1)))
print("strongest scale early:", round(float(freqs[early]), 2), "Hz")
print("strongest scale late:", round(float(freqs[late]), 2), "Hz")

# Total energy scales with amplitude squared, so a doubled signal is
# four times as energetic.
energy1, per_scale = wavelet_energy(coeffs)
energy2, _ = wavelet_energy(cwt_morlet(2.0 * x, config))
print("energy ratio for doubled amplitude:", round(energy2 / energy1, 4))
print("per-scale energies:", per_scale.shape)

# featurize gets the same total without the scalogram. Column 7 of a
# one-channel feature row is that channel's wavelet energy.
plan = FeaturePlan.build(t.size, spectral_params_for(fs), config)
direct = feature_matrix(x[None, :, None], plan)[0, 7]
print("energy without the scalogram:", round(float(direct), 6), "vs", round(energy1, 6))
