"""Reference per-beat, per-wave synthesis for synthesize_record.

This is the loop form of `ecgid.ingest.synthesize_record`: for each beat and
each of the P, Q, R, S and T waves an if-chain picks the period the wave
scales with and its amplitude factor, and `_add_gaussian` adds that one
Gaussian over its own +/-6 sigma span. The sampling rate and the exercise
factors are this module's own constants. The library's one-pass form must
give byte-identical samples and the same truth indices.
"""

import numpy as np

from ecgid.errors import InvariantViolation
from ecgid.ingest import CONDITIONS, WAVE_ORDER, EcgRecord

FS_HZ = 300.0
EX_P_FACTOR = 1.3
EX_T_FACTOR = 0.6


def _add_gaussian(samples, fs_hz, amp, mu_s, sigma_s):
    # accumulate only within +/- 6 sigma; contributions beyond are < 2e-8 amp
    if amp == 0.0 or sigma_s <= 0.0:
        return
    lo = max(0, int(np.floor((mu_s - 6 * sigma_s) * fs_hz)))
    hi = min(samples.size, int(np.ceil((mu_s + 6 * sigma_s) * fs_hz)) + 1)
    if hi <= lo:
        return
    t = np.arange(lo, hi) / fs_hz
    samples[lo:hi] += amp * np.exp(-((t - mu_s) ** 2) / (2.0 * sigma_s ** 2))


def reference_synthesize_record(params, condition, duration_s, noise_on,
                                rng_seed, fs_hz=FS_HZ, p_factor=EX_P_FACTOR,
                                t_factor=EX_T_FACTOR):
    """(EcgRecord, truth R indices) built one Gaussian at a time."""
    if condition not in CONDITIONS:
        raise InvariantViolation("unknown condition %r" % (condition,))
    rng = np.random.default_rng(rng_seed)
    n = int(round(duration_s * fs_hz))
    samples = np.zeros(n)

    hr = params.ex_hr_bpm if condition == "post_exercise" else params.rest_hr_bpm
    base_period = 60.0 / hr
    rest_ref_period = 60.0 / params.rest_hr_bpm
    p_amp_factor = p_factor if condition == "post_exercise" else 1.0
    t_amp_factor = t_factor if condition == "post_exercise" else 1.0

    r_times = []
    periods = []
    t_r = 0.5
    while t_r < duration_s - 0.5:
        r_times.append(t_r)
        period = base_period * (1.0 + params.hr_jitter_frac *
                                float(np.clip(rng.standard_normal(), -2.5, 2.5)))
        periods.append(period)
        t_r += period

    for k, t_k in enumerate(r_times):
        gap_after = periods[k]
        gap_before = periods[k - 1] if k > 0 else periods[0]
        for name in WAVE_ORDER:
            w = params.waves[name]
            if name in ("Q", "R", "S"):
                scale = rest_ref_period
                amp = w.amplitude_mv
            elif name == "P":
                scale = gap_before
                amp = w.amplitude_mv * p_amp_factor
            else:
                scale = gap_after
                amp = w.amplitude_mv * t_amp_factor
            _add_gaussian(samples, fs_hz, amp,
                          t_k + w.center_frac * scale, w.width_frac * scale)

    if noise_on:
        t = np.arange(n) / fs_hz
        ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
        samples += params.baseline_mv * np.sin(2 * np.pi * 0.25 * t + ph1)
        samples += params.powerline_mv * np.sin(2 * np.pi * 50.0 * t + ph2)
        samples += params.white_mv * rng.standard_normal(n)

    record = EcgRecord("synthetic", condition, fs_hz, samples)
    truth = np.array([int(round(t_k * fs_hz)) for t_k in r_times], dtype=int)
    return record, truth
