"""Filter design, zero-phase filtering, windows, and STFT frame spectra.

The magnitude oracle used here evaluates the designed transfer function on
the unit circle by direct summation, independently of the implementation's
own polynomial evaluation.
"""

import warnings

import numpy as np
import pytest

from ecgid.detect import detect_r_peaks
from ecgid.dsp import (
    FilterCoefficients,
    design_butterworth_bandpass,
    filter_zero_phase,
    hamming_window,
    preprocess_ecg,
)
from ecgid.errors import (
    InvalidBand,
    InvariantViolation,
    NonFiniteSample,
    SignalTooShort,
)
from ecgid.features import stft_of_window


def unit_circle_mag(b, a, f_hz, fs_hz):
    # independent oracle: H(e^{jw}) = sum b_k e^{-jwk} / sum a_k e^{-jwk}
    w = 2.0 * np.pi * f_hz / fs_hz
    num = sum(bk * np.exp(-1j * w * k) for k, bk in enumerate(b))
    den = sum(ak * np.exp(-1j * w * k) for k, ak in enumerate(a))
    return abs(num / den)


def measured_gain(coeffs, f_hz, fs_hz, seconds=20.0):
    # empirical steady-state amplitude ratio through the double-pass filter
    t = np.arange(int(seconds * fs_hz)) / fs_hz
    x = np.sin(2.0 * np.pi * f_hz * t)
    y = filter_zero_phase(coeffs, x)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    return np.max(np.abs(y[mid]))


# ===== design =============================================================

def test_design_rejects_bad_bands():
    with pytest.raises(InvalidBand):
        design_butterworth_bandpass(4, 40.0, 0.5, 300.0)
    with pytest.raises(InvalidBand):
        design_butterworth_bandpass(4, 0.5, 150.0, 300.0)  # hi at Nyquist
    with pytest.raises(InvalidBand):
        design_butterworth_bandpass(4, 0.0, 40.0, 300.0)
    with pytest.raises(InvalidBand):
        design_butterworth_bandpass(3, 0.5, 40.0, 300.0)  # odd order
    with pytest.raises(InvalidBand):
        design_butterworth_bandpass(0, 0.5, 40.0, 300.0)


@pytest.mark.parametrize("lo, hi, fs", [
    ("1", 10.0, 300.0), (1.0, None, 300.0), (1.0, 10.0, None),
    (1.0, 10.0, "300"), (1.0, 10.0, np.inf), (np.nan, 10.0, 300.0),
    (1.0, 10.0, 10**400), (1.0, 10**400, np.float64(300.0))],
    ids=["str-lo", "none-hi", "none-fs", "str-fs", "inf-fs", "nan-lo",
         "int-fs-above-any-float", "int-hi-above-any-float"])
def test_design_rejects_edges_and_rates_that_are_no_finite_reals(lo, hi, fs):
    # an infinite rate used to pass the band check and fail in the design,
    # with RuntimeWarnings first; here a warning fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidBand, match="need real 0 < lo < hi"):
            design_butterworth_bandpass(4, lo, hi, fs)
        with pytest.raises(InvalidBand, match="need real 0 < lo < hi"):
            preprocess_ecg(np.zeros(600), fs, lo, hi)


@pytest.mark.parametrize("order, fs", [
    (4, 1e200), (4, 1e300), (4, np.float64(1e200)), (2, 1e300), (20, 1e16)])
def test_design_rejects_a_rate_whose_gain_overflows(order, fs):
    # these raised a raw OverflowError (a Python float rate), or designed
    # through RuntimeWarnings into a LinAlgError or NaN coefficients
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidBand, match="too high for order %d" % order):
            design_butterworth_bandpass(order, 0.1 * fs, 0.2 * fs, fs)
        if order == 4:
            with pytest.raises(InvalidBand, match="too high for order 4"):
                preprocess_ecg(np.zeros(1000), fs)


@pytest.mark.parametrize("order, fs", [(2, 2.07e151), (4, 2.46e75)])
def test_design_rejects_non_finite_coefficients(order, fs):
    # rates under the bound, with the band next to Nyquist: the first gave
    # a raw LinAlgError from np.roots, the second NaN numerator taps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InvalidBand, match="coefficients must be finite"):
            design_butterworth_bandpass(order, 0.4 * fs, 0.4999 * fs, fs)


def test_design_rejects_an_all_zero_numerator():
    # a rate under the bound whose gain underflows: the design came back
    # with taps [0, 0, -0], a filter that passes nothing
    fs = 4.14e153
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(InvalidBand, match="b not all zero"):
            design_butterworth_bandpass(2, 0.2 * fs, 0.3 * fs, fs)
    with pytest.raises(InvalidBand, match="b not all zero"):
        FilterCoefficients(np.zeros(3), np.array([1.0, 0.0, 0.25]), 2)


def test_design_scales_with_the_rate_up_to_the_bound():
    # the band-pass depends on the edges over the rate alone, and rates
    # far above any ECG's but under the bound still design it
    for order, fs in ((4, 1e70), (2, 1e150), (8, 1e37)):
        ref = design_butterworth_bandpass(order, 30.0, 60.0, 300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = design_butterworth_bandpass(order, 0.1 * fs, 0.2 * fs, fs)
        assert np.allclose(c.numerator, ref.numerator, rtol=1e-9, atol=1e-12)
        assert np.allclose(c.denominator, ref.denominator, rtol=1e-9)


def test_design_normalized_and_sized():
    c = design_butterworth_bandpass(4, 0.5, 40.0, 300.0)
    assert c.denominator[0] == 1.0
    assert len(c.numerator) == 5 and len(c.denominator) == 5
    assert c.order == 4


def test_unit_circle_probes_main_band():
    c = design_butterworth_bandpass(4, 0.5, 40.0, 300.0)
    b, a = c.numerator, c.denominator
    assert unit_circle_mag(b, a, 0.0, 300.0) < 1e-3
    assert 0.95 <= unit_circle_mag(b, a, 4.47, 300.0) <= 1.05
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert abs(unit_circle_mag(b, a, 40.0, 300.0) - inv_sqrt2) < 0.05
    assert abs(unit_circle_mag(b, a, 0.5, 300.0) - inv_sqrt2) < 0.05


def test_stability_roots_every_design():
    for order, lo, hi, fs in [(4, 0.5, 40, 300), (4, 5, 15, 300),
                              (4, 10, 40, 300), (2, 1, 30, 250),
                              (6, 0.5, 40, 300)]:
        c = design_butterworth_bandpass(order, float(lo), float(hi), float(fs))
        roots = np.roots(c.denominator)
        assert np.max(np.abs(roots)) < 1.0 - 1e-8


# ===== zero-phase filtering ===============================================

def test_zero_phase_passband_amplitude_and_phase():
    c = design_butterworth_bandpass(4, 0.5, 40.0, 300.0)
    fs = 300.0
    t = np.arange(int(20 * fs)) / fs
    x = np.sin(2.0 * np.pi * 10.0 * t)
    y = filter_zero_phase(c, x)
    mid = slice(len(t) // 4, 3 * len(t) // 4)
    assert abs(np.max(np.abs(y[mid])) - 1.0) < 0.02
    # zero phase: peak positions coincide
    xi = np.argmax(x[mid])
    window = y[mid][max(0, xi - 3):xi + 4]
    assert np.argmax(window) == min(xi, 3)


def test_zero_phase_60hz_attenuated():
    c = design_butterworth_bandpass(4, 0.5, 40.0, 300.0)
    fs = 300.0
    t = np.arange(int(10 * fs)) / fs
    x = np.sin(2.0 * np.pi * 60.0 * t)
    y = filter_zero_phase(c, x)
    assert np.sqrt(np.mean(y ** 2)) < 0.2 * np.sqrt(np.mean(x ** 2))


def test_zero_phase_blocks_dc_and_preserves_length():
    c = design_butterworth_bandpass(4, 0.5, 40.0, 300.0)
    x = np.ones(6000)
    y = filter_zero_phase(c, x)
    assert y.shape == x.shape
    assert np.max(np.abs(y[2500:3500])) < 1e-3


def test_zero_phase_zero_in_zero_out():
    c = design_butterworth_bandpass(4, 0.5, 40.0, 300.0)
    y = filter_zero_phase(c, np.zeros(100))
    assert np.allclose(y, 0.0)


def test_zero_phase_too_short():
    c = design_butterworth_bandpass(4, 0.5, 40.0, 300.0)
    with pytest.raises(SignalTooShort):
        filter_zero_phase(c, np.zeros(12))  # needs > 3*order = 12


FILTER_ENTRIES = {
    "filter_zero_phase": lambda x: filter_zero_phase(
        design_butterworth_bandpass(4, 0.5, 40.0, 300.0), x),
    "preprocess_ecg": lambda x: preprocess_ecg(x, 300.0),
    "detect_r_peaks": lambda x: detect_r_peaks(x, 300.0),
}


@pytest.mark.parametrize("entry", sorted(FILTER_ENTRIES))
def test_filtering_rejects_a_signal_that_is_not_1d(entry):
    # a 2-D signal used to come back from preprocess_ecg as a (0, 3000) array
    for x in (np.zeros((2, 3000)), np.zeros((3000, 1)), np.float64(1.0)):
        with pytest.raises(InvariantViolation, match="need a 1-D signal"):
            FILTER_ENTRIES[entry](x)


@pytest.mark.parametrize("entry", sorted(FILTER_ENTRIES))
def test_filtering_rejects_non_finite_samples(entry):
    # an all-NaN signal used to come back all NaN, and one NaN sample made
    # detect_r_peaks raise NoBeatsFound
    t = np.arange(3000) / 300.0
    x = np.sin(2.0 * np.pi * 1.2 * t)
    for bad in (np.nan, np.inf, -np.inf):
        for where in (slice(None), slice(1500, 1501)):
            y = x.copy()
            y[where] = bad
            with pytest.raises(NonFiniteSample, match="NaN or infinite"):
                FILTER_ENTRIES[entry](y)


@pytest.mark.parametrize("entry", sorted(FILTER_ENTRIES))
def test_filtering_rejects_a_signal_that_is_not_numeric(entry):
    # these raised a raw ValueError, TypeError and OverflowError from
    # np.asarray
    for x in (["a"] * 100, [object()] * 100, [[1.0, 2.0], [3.0]],
              [10**400] * 100):
        with pytest.raises(InvariantViolation, match="need a numeric signal"):
            FILTER_ENTRIES[entry](x)


def test_zero_phase_linearity():
    c = design_butterworth_bandpass(4, 0.5, 40.0, 300.0)
    rng = np.random.default_rng(11)
    x = rng.normal(size=600)
    y = rng.normal(size=600)
    lhs = filter_zero_phase(c, 2.5 * x - 1.75 * y)
    rhs = 2.5 * filter_zero_phase(c, x) - 1.75 * filter_zero_phase(c, y)
    scale = np.max(np.abs(rhs)) + 1e-30
    assert np.max(np.abs(lhs - rhs)) / scale < 1e-9


# ===== windows ============================================================

def test_hamming_degenerate_single_point():
    assert hamming_window(1).tolist() == [1.0]


def test_hamming_three_points():
    w = hamming_window(3)
    assert np.allclose(w, [0.08, 1.0, 0.08], atol=1e-15)


def test_hamming_symmetry_and_edges():
    for n in range(2, 34):
        w = hamming_window(n)
        assert np.allclose(w, w[::-1], atol=1e-15)
        assert abs(w[0] - 0.08) < 1e-15
        assert np.argmax(w) in (n // 2, (n - 1) // 2)


# ===== frame spectra ======================================================
# The STFT front end (22 Hamming-weighted 16-sample frames, hop 13, each
# zero-padded to 50 points) is where the package takes frame spectra.

def direct_dft_mags(frame, nfft):
    # O(n^2) literal DFT summation, one-sided
    x = np.zeros(nfft)
    x[:len(frame)] = frame
    out = []
    for k in range(nfft // 2 + 1):
        acc = 0.0 + 0.0j
        for n in range(nfft):
            acc += x[n] * np.exp(-2j * np.pi * k * n / nfft)
        out.append(abs(acc))
    return np.array(out)


def stft_frames(w):
    return stft_of_window(w).reshape(22, 26)


def test_spectrum_constant_frame():
    frames = stft_frames(np.full(300, 0.7))
    dc = 0.7 * np.sum(hamming_window(16))
    assert np.max(np.abs(frames[:, 0] - dc)) < 1e-9
    assert np.all(np.argmax(frames, axis=1) == 0)
    assert np.array_equal(frames, np.broadcast_to(frames[0], frames.shape))


def test_spectrum_impulse_flat():
    w = np.zeros(300)
    w[5] = 1.0  # inside frame 0 only (frames start every 13 samples)
    frames = stft_frames(w)
    assert np.allclose(frames[0], hamming_window(16)[5], atol=1e-12)
    assert np.all(frames[1:] == 0.0)


def test_spectrum_pure_cosine_bin():
    # bins are 300/50 = 6 Hz apart
    n = np.arange(300)
    for k in range(4, 22):
        frames = stft_frames(np.cos(2.0 * np.pi * 6.0 * k * n / 300.0))
        assert np.all(np.argmax(frames, axis=1) == k)


def test_spectrum_matches_direct_dft_oracle():
    rng = np.random.default_rng(5)
    ham = hamming_window(16)
    for _ in range(3):
        w = rng.normal(size=300)
        frames = stft_frames(w)
        for f, start in enumerate(range(0, 300 - 15, 13)):
            oracle = direct_dft_mags(ham * w[start:start + 16], 50)
            scale = np.max(oracle) + 1e-30
            assert np.max(np.abs(frames[f] - oracle)) / scale < 1e-9


def test_spectrum_parseval_consistency():
    rng = np.random.default_rng(6)
    w = rng.normal(size=300)
    ham = hamming_window(16)
    for f, m in enumerate(stft_frames(w)):
        frame = ham * w[13 * f:13 * f + 16]
        full_energy = m[0] ** 2 + 2 * np.sum(m[1:-1] ** 2) + m[-1] ** 2
        assert abs(full_energy - 50 * np.sum(frame ** 2)) < 1e-6


def test_filter_coefficients_validation():
    with pytest.raises(InvalidBand):
        FilterCoefficients(np.array([1.0, 0.0]), np.array([2.0, 0.0]), 1)
