"""Detection chain stages against direct-convolution oracles, plus
end-to-end accuracy on synthetic records with known R positions."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from conftest import FS, fixed_params, match_peaks
from detect_oracle import clamp_width, reference_detect_r_peaks

from ecgid.detect import (
    QrsDetection,
    _clamp_widths,
    derivative_filter,
    detect_r_peaks,
    moving_window_integrate,
    pt_bandpass,
    qrs_width_bounds,
    square_signal,
)
from ecgid.dsp import preprocess_ecg
from ecgid.errors import (
    InvalidBand,
    InvariantViolation,
    NoBeatsFound,
    SignalTooShort,
    WindowTooLong,
)
from ecgid.ingest import build_cohort, synthesize_record


def preprocessed(params, condition, duration_s, noise_on, seed):
    rec, truth = synthesize_record(params, condition, duration_s, noise_on, seed)
    return preprocess_ecg(rec.samples, FS), truth


# ===== derivative =========================================================

def test_derivative_impulse_response():
    x = np.zeros(10)
    x[0] = 1.0
    y = derivative_filter(x)
    expected = [2 / 8, 1 / 8, 0.0, -1 / 8, -2 / 8, 0, 0, 0, 0, 0]
    assert np.allclose(y, expected, atol=1e-15)


def test_derivative_constant_and_ramp():
    y_const = derivative_filter(np.full(50, 3.7))
    assert np.allclose(y_const[4:], 0.0, atol=1e-12)
    y_ramp = derivative_filter(np.arange(50, dtype=float))
    assert np.allclose(y_ramp[4:], 1.25, atol=1e-12)


def test_derivative_matches_direct_formula():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(200)
    y = derivative_filter(x)
    xp = np.concatenate([np.zeros(4), x])  # zero-initialized history
    for n in range(200):
        direct = (2 * xp[n + 4] + xp[n + 3] - xp[n + 1] - 2 * xp[n]) / 8.0
        assert abs(y[n] - direct) < 1e-12


def test_derivative_too_short():
    with pytest.raises(SignalTooShort):
        derivative_filter(np.zeros(4))


# ===== squaring ===========================================================

def test_square_frozen_and_oracle():
    assert square_signal(np.array([-2.0, 3.0])).tolist() == [4.0, 9.0]
    rng = np.random.default_rng(2)
    x = rng.standard_normal(100)
    assert np.array_equal(square_signal(x), x * x)
    assert np.all(square_signal(x) >= 0)


# ===== moving-window integration ==========================================

def test_mwi_constant_steady_state():
    y = moving_window_integrate(np.full(100, 2.5), 30)
    assert np.allclose(y[29:], 2.5, atol=1e-12)


def test_mwi_impulse():
    x = np.zeros(8)
    x[0] = 1.0
    y = moving_window_integrate(x, 3)
    assert np.allclose(y, [1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0, 0], atol=1e-15)


def test_mwi_matches_brute_force():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(150)
    n_win = 45
    y = moving_window_integrate(x, n_win)
    xp = np.concatenate([np.zeros(n_win - 1), x])
    for n in range(150):
        assert abs(y[n] - np.mean(xp[n:n + n_win])) < 1e-12


def test_mwi_window_too_long():
    with pytest.raises(WindowTooLong):
        moving_window_integrate(np.zeros(10), 11)


# ===== QRS band filter ====================================================

def test_pt_bandpass_passes_10hz_blocks_drift():
    t = np.arange(int(20 * FS)) / FS
    tone = np.sin(2 * np.pi * 10.0 * t)
    y = pt_bandpass(tone, FS)
    mid = slice(int(5 * FS), int(15 * FS))
    assert abs(np.max(y[mid]) - 1.0) < 0.05

    drift = np.sin(2 * np.pi * 0.2 * t)
    y2 = pt_bandpass(drift, FS)
    assert np.sqrt(np.mean(y2[mid] ** 2)) < 0.05 * np.sqrt(np.mean(drift ** 2))

    assert np.allclose(pt_bandpass(np.zeros(3000), FS), 0.0)


# ===== end-to-end detection ===============================================

def test_detects_hr60_within_3_samples():
    x, truth = preprocessed(fixed_params(), "rest", 30.0, False, 5)
    det = detect_r_peaks(x, FS)
    assert abs(len(det) - 30) <= 1
    tp, n_det, n_truth = match_peaks(det.r_peaks, truth, tol=3)
    assert tp == n_truth == n_det


def test_detects_hr150_mean_rr():
    params = fixed_params(rest_hr=70.0, ex_hr=150.0)
    x, truth = preprocessed(params, "post_exercise", 30.0, False, 6)
    det = detect_r_peaks(x, FS)
    mean_rr = float(np.mean(np.diff(det.r_peaks))) / FS
    assert abs(mean_rr - 0.4) < 0.02 * 0.4


def test_flat_zero_raises():
    with pytest.raises(NoBeatsFound):
        detect_r_peaks(np.zeros(int(10 * FS)), FS)


def test_too_short_raises():
    with pytest.raises(SignalTooShort):
        detect_r_peaks(np.zeros(100), FS)


@pytest.mark.parametrize("fs", [0, -300, 0.5, np.nan, np.inf, None, "300"],
                         ids=["0", "-300", "0.5", "nan", "inf", "None", "str"])
def test_a_rate_that_is_no_finite_real_above_30_hz_raises(fs):
    with pytest.raises(InvalidBand, match="need real 0 < lo < hi"):
        detect_r_peaks(np.zeros(int(10 * FS)), fs)


def test_detection_deterministic():
    params = fixed_params(jitter=0.03)
    x, _ = preprocessed(params, "rest", 20.0, True, 7)
    d1 = detect_r_peaks(x, FS)
    d2 = detect_r_peaks(np.array(x), FS)
    assert np.array_equal(d1.r_peaks, d2.r_peaks)
    assert np.array_equal(d1.qrs_onsets, d2.qrs_onsets)
    assert np.array_equal(d1.qrs_offsets, d2.qrs_offsets)


def test_scale_invariance_exact():
    params = fixed_params(jitter=0.03)
    x, _ = preprocessed(params, "rest", 20.0, True, 8)
    base = detect_r_peaks(x, FS)
    for alpha in (1e-3, 0.5, 50.0):
        scaled = detect_r_peaks(alpha * x, FS)
        assert np.array_equal(base.r_peaks, scaled.r_peaks)
        assert np.array_equal(base.qrs_onsets, scaled.qrs_onsets)
        assert np.array_equal(base.qrs_offsets, scaled.qrs_offsets)


def test_sensitivity_and_ppv_on_noise_off_records():
    for seed in (11, 12):
        params = dataclasses.replace(
            fixed_params(rest_hr=72.0, ex_hr=120.0, jitter=0.03), waves={
                **fixed_params().waves,
            })
        x, truth = preprocessed(params, "rest", 30.0, False, seed)
        det = detect_r_peaks(x, FS)
        tp, n_det, n_truth = match_peaks(det.r_peaks, truth, tol=3)
        assert tp / n_truth >= 0.99
        assert tp / n_det >= 0.99


def test_refractory_and_width_invariants_on_noisy_record():
    params = fixed_params(rest_hr=75.0, ex_hr=140.0, jitter=0.03)
    x, _ = preprocessed(params, "post_exercise", 30.0, True, 13)
    det = detect_r_peaks(x, FS)
    assert np.all(np.diff(det.r_peaks) >= 0.2 * FS)
    assert np.all(det.qrs_onsets < det.r_peaks)
    assert np.all(det.qrs_offsets > det.r_peaks)
    w_min, w_max = qrs_width_bounds(FS)
    widths = det.qrs_offsets - det.qrs_onsets
    assert np.all((widths >= w_min) & (widths <= w_max))


def test_qrsdetection_invariant_checks():
    ok = QrsDetection(np.array([100, 200]), np.array([90, 190]),
                      np.array([110, 210]), FS)
    assert len(ok) == 2
    with pytest.raises(InvariantViolation):  # refractory violated
        QrsDetection(np.array([100, 130]), np.array([90, 120]),
                     np.array([110, 140]), FS)
    with pytest.raises(InvariantViolation):  # onset after R
        QrsDetection(np.array([100, 200]), np.array([105, 190]),
                     np.array([110, 210]), FS)
    with pytest.raises(InvariantViolation):  # width above the band
        QrsDetection(np.array([100, 300]), np.array([40, 290]),
                     np.array([160, 310]), FS)


# ===== array form against the per-candidate reference =====================

def test_clamp_widths_match_scalar_reference():
    # every bracket a walk can return on a 40-sample record, including the
    # -1 and n sentinels, under a small band, a one-sample band and the
    # 300 Hz band
    n = 40
    onset, r, offset = (a.ravel() for a in np.meshgrid(
        np.arange(-1, n), np.arange(n), np.arange(n + 1), indexing="ij"))
    walk = (onset < r) & (r < offset)
    onset, r, offset = onset[walk], r[walk], offset[walk]
    for w_min, w_max in ((6, 11), (1, 1), (10, 50)):
        on, off, valid = _clamp_widths(onset, offset, r, n, w_min, w_max)
        want = [clamp_width(*bracket, n, w_min, w_max) for bracket in
                zip(onset.tolist(), offset.tolist(), r.tolist())]
        assert valid.tolist() == [w is not None for w in want]
        assert list(zip(on[valid].tolist(), off[valid].tolist())) == \
            [w for w in want if w is not None]


def assert_same_as_reference(x):
    det = detect_r_peaks(x, FS)
    ref = reference_detect_r_peaks(x, FS)
    assert np.array_equal(det.r_peaks, ref.r_peaks)
    assert np.array_equal(det.qrs_onsets, ref.qrs_onsets)
    assert np.array_equal(det.qrs_offsets, ref.qrs_offsets)
    return det


def attenuated_hr60_record(scale):
    rec, truth = synthesize_record(fixed_params(), "rest", 30.0, False, 5)
    x = rec.samples.copy()
    x[truth[15] - 60:truth[15] + 60] *= scale
    return preprocess_ecg(x, FS), truth


def burst_hr60_record():
    """Beat 15 at 0.35 of its amplitude, plus a 0.2 s, 18 Hz burst 0.5 s
    after it."""
    rec, truth = synthesize_record(fixed_params(), "rest", 30.0, False, 5)
    x = rec.samples.copy()
    x[truth[15] - 60:truth[15] + 60] *= 0.35
    t = np.arange(x.size) / FS - (truth[15] / FS + 0.5)
    burst = np.abs(t) < 0.1
    x[burst] += 0.4 * np.sin(2 * np.pi * 18.0 * t[burst])
    return preprocess_ecg(x, FS), truth


def random_pulse_record(seed):
    """Gaussian pulses of random width, sign and spacing at 250-500 Hz, with
    baseline drift, white noise, broad T-like waves and spikes."""
    rng = np.random.default_rng(seed)
    fs = float(rng.choice([250.0, 300.0, 360.0, 500.0]))
    t = np.arange(int(rng.uniform(4.0, 20.0) * fs)) / fs
    x = rng.normal(0.0, rng.uniform(0.0, 0.3), t.size)
    x += rng.uniform(0.0, 2.0) * np.sin(
        2 * np.pi * rng.uniform(0.05, 0.6) * t + rng.uniform(0.0, 6.0))
    rr, at, width = rng.uniform(0.25, 1.6), rng.uniform(-0.3, 0.5), \
        rng.uniform(0.003, 0.06)
    while at < t[-1] + 0.3:
        amp = rng.uniform(0.2, 2.0) * (1 if rng.random() < 0.85 else -1)
        w = width * rng.uniform(0.5, 2.0)
        x += amp * np.exp(-0.5 * ((t - at) / w) ** 2)
        if rng.random() < 0.3:
            x += 0.3 * amp * np.exp(
                -0.5 * ((t - at - 0.25) / (4 * w + 0.02)) ** 2)
        at += rr * rng.uniform(0.6, 1.5)
    spikes = rng.integers(0, t.size, size=rng.integers(0, 8))
    x[spikes] += rng.uniform(-5.0, 5.0, size=spikes.size)
    return preprocess_ecg(x, fs), fs


def test_matches_reference_on_hr60_and_hr150():
    x, _ = preprocessed(fixed_params(), "rest", 30.0, False, 5)
    assert_same_as_reference(x)
    x, _ = preprocessed(fixed_params(rest_hr=70.0, ex_hr=150.0),
                        "post_exercise", 30.0, False, 6)
    assert_same_as_reference(x)


def test_search_back_recovers_weak_beat_like_reference():
    # at 0.3 of its amplitude beat 15 clears only the halved search-back
    # thresholds; at 0.25 it clears neither
    x, truth = attenuated_hr60_record(0.3)
    det = assert_same_as_reference(x)
    assert match_peaks(det.r_peaks, truth, tol=3) == (29, 29, 29)
    x, truth = attenuated_hr60_record(0.25)
    det = assert_same_as_reference(x)
    assert match_peaks(det.r_peaks, truth, tol=3) == (28, 28, 29)


def test_search_back_takes_strongest_candidate_that_clears_both_thresholds():
    # in the gap after the weak beat 15, the burst has the larger integrator
    # peak but its filtered peak fails the halved threshold, so search-back
    # must recover beat 15 rather than the burst
    x, truth = burst_hr60_record()
    det = assert_same_as_reference(x)
    assert truth[15] in det.r_peaks
    assert match_peaks(det.r_peaks, truth, tol=3) == (29, 29, 29)


def test_matches_reference_on_random_pulse_records():
    # four rates, drift and spikes; the records reach every width-clamp
    # outcome of the reference's scalar clamp
    clamps = Counter()
    for seed in range(60):
        x, fs = random_pulse_record(seed)
        try:
            ref = reference_detect_r_peaks(x, fs, clamps)
        except NoBeatsFound:
            with pytest.raises(NoBeatsFound):
                detect_r_peaks(x, fs)
            continue
        det = detect_r_peaks(x, fs)
        assert np.array_equal(det.r_peaks, ref.r_peaks)
        assert np.array_equal(det.qrs_onsets, ref.qrs_onsets)
        assert np.array_equal(det.qrs_offsets, ref.qrs_offsets)
    assert min(clamps[k] for k in ("in_band", "wide", "narrow", "dropped")) > 0


def test_matches_reference_on_noisy_cohort_with_dropouts():
    rng = np.random.default_rng(17)
    for rec, truth in build_cohort(6, 31, rest_duration_s=30.0,
                                   ex_duration_s=20.0, noise_on=True):
        assert_same_as_reference(preprocess_ecg(rec.samples, FS))
        x = rec.samples.copy()
        for r in rng.choice(truth[2:-1], size=3, replace=False):
            x[r - 30:r + 30] *= rng.uniform(0.2, 0.5)
        assert_same_as_reference(preprocess_ecg(x, FS))


def test_matches_reference_on_white_noise():
    # no beats: candidates are dense and irregular, so the RR average and
    # the integrator-window edges decide many more of them
    rng = np.random.default_rng(5)
    for _ in range(12):
        assert_same_as_reference(preprocess_ecg(rng.standard_normal(6000), FS))
