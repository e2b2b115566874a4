"""Classify ventricular-tachycardia ICU alarms as true or false.

The pipeline reads multichannel waveform records, carves a six-minute
window around each alarm, extracts time/frequency/wavelet features,
rebalances the training set, and trains one of two from-scratch neural
networks whose probability output drives a thresholded alert decision.
Each name is imported from the module that defines it, not from here.
"""
