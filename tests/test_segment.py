"""Window arithmetic, resampling oracles, and the canonical-beat pipeline."""

import numpy as np
import pytest
from conftest import FS, fixed_params
from pqrst_oracle import (
    SKIP_REASONS,
    reference_beat_rows,
    reference_pqrst_rows,
    reference_qrs_rows,
)

from ecgid.detect import QrsDetection, detect_r_peaks
from ecgid.dsp import preprocess_ecg
from ecgid.errors import (
    EcgidError,
    InvariantViolation,
    OutOfTable,
    SegmentTooShort,
    TooFewBeats,
    TooFewRows,
)
from ecgid.features import beat_features, pqrst_features, qrs_features
from ecgid.ingest import EcgRecord, build_cohort, synthesize_record
from ecgid.segment import (
    dt_threshold,
    ms_to_samples,
    pqrst_windows,
    resample_rows,
    resample_to_length,
    segment_beats_midpoint,
)


def ramp_record(n=3000):
    return EcgRecord("s01", "rest", FS, np.arange(n, dtype=float))


# ===== resampling =========================================================

def test_resample_identity_and_frozen_case():
    y = np.array([3.0, -1.0, 4.0, 1.5])
    assert np.array_equal(resample_to_length(y, 4), y)
    out = resample_to_length(np.array([0.0, 1.0, 2.0, 3.0]), 7)
    assert np.allclose(out, [0, 0.5, 1, 1.5, 2, 2.5, 3], atol=1e-15)


def test_resample_preserves_affine_signals():
    y = 2.5 * np.arange(50) - 7.0
    for n in (2, 13, 50, 177):
        out = resample_to_length(y, n)
        line = 2.5 * (np.arange(n) * (49 / (n - 1))) - 7.0
        assert np.max(np.abs(out - line)) < 1e-12


def test_resample_endpoints_exact_and_range_bounded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.standard_normal(rng.integers(2, 40)) * 1e6
        n = int(rng.integers(2, 80))
        out = resample_to_length(y, n)
        assert out[0] == y[0] and out[-1] == y[-1]
        assert out.min() >= y.min() - 1e-9 and out.max() <= y.max() + 1e-9


def test_resample_round_trip_on_affine():
    y = -0.75 * np.arange(30) + 2.0
    back = resample_to_length(resample_to_length(y, 97), 30)
    assert np.max(np.abs(back - y)) < 1e-12


def test_resample_too_short():
    with pytest.raises(SegmentTooShort):
        resample_to_length(np.array([1.0]), 10)
    with pytest.raises(InvariantViolation):
        resample_to_length(np.arange(5.0), 1)


def test_resample_matches_interp_oracle():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(23)
    n = 61
    out = resample_to_length(y, n)
    oracle = np.interp(np.arange(n) * (22 / 60), np.arange(23), y)
    assert np.allclose(out, oracle, atol=1e-12)


def test_resample_rows_match_one_row_calls():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(200)
    starts = rng.integers(0, 150, size=9)
    lengths = rng.integers(2, 50, size=9)
    rows = resample_rows(x, starts, lengths, 17)
    assert rows.shape == (9, 17)
    for row, a, n in zip(rows, starts, lengths):
        assert row.tobytes() == resample_to_length(x[a:a + n], 17).tobytes()
    assert resample_rows(x, [], [], 17).shape == (0, 17)


def test_resample_rows_errors():
    x = np.arange(10.0)
    with pytest.raises(SegmentTooShort):
        resample_rows(x, [0, 4], [5, 1], 8)
    with pytest.raises(InvariantViolation):
        resample_rows(x, [0], [5], 1)
    with pytest.raises(InvariantViolation):
        resample_rows(x, [6], [5], 8)  # runs past the end
    with pytest.raises(InvariantViolation):
        resample_rows(x, [-1], [5], 8)  # starts before the signal


# ===== the PQ-shift table =================================================

def test_dt_threshold_all_bracket_boundaries():
    assert dt_threshold(30.0) == -10.0
    assert dt_threshold(65.0) == 0.0
    assert dt_threshold(80.0) == 10.0
    assert dt_threshold(95.0) == 20.0
    assert dt_threshold(110.0) == 30.0
    assert dt_threshold(125.0) == 40.0
    assert dt_threshold(140.0) == 50.0
    assert dt_threshold(154.999) == 50.0
    assert dt_threshold(64.999) == -10.0
    assert dt_threshold(70.0) == 0.0
    assert dt_threshold(150.0) == 50.0
    with pytest.raises(OutOfTable):
        dt_threshold(155.0)
    with pytest.raises(OutOfTable):
        dt_threshold(29.9)


def test_dt_threshold_rejects_a_rate_that_is_not_a_number():
    # these raised a raw OverflowError, ValueError and TypeError
    for hr in (10**400, "a", object(), [70.0, "a"]):
        with pytest.raises(InvariantViolation, match="numeric heart rate"):
            dt_threshold(hr)


def test_dt_threshold_monotone():
    grid = np.linspace(30, 154.99, 500)
    vals = [dt_threshold(h) for h in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert np.array_equal(dt_threshold(grid), vals)
    with pytest.raises(OutOfTable, match="155 bpm"):
        dt_threshold(np.array([70.0, 155.0]))


def test_ms_to_samples_rounds_halves_up():
    assert ms_to_samples(450, FS) == 135 and ms_to_samples(110, FS) == 33
    assert np.array_equal(ms_to_samples(np.array([-90.0, 5.0, 15.0]), 100.0),
                          [-9, 1, 2])


# ===== midpoint segmentation ==============================================

def det_for(peaks):
    peaks = np.asarray(peaks)
    return QrsDetection(peaks, peaks - 10, peaks + 10, FS)


def test_midpoint_frozen_example():
    starts, lengths = segment_beats_midpoint(det_for([100, 200, 300]))
    assert starts.tolist() == [150] and lengths.tolist() == [100]
    m = beat_features(ramp_record(600), det_for([100, 200, 300]))
    assert np.allclose(m.values[0], np.linspace(150.0, 249.0, 300))


def test_midpoint_too_few_and_uniform_rr():
    with pytest.raises(TooFewBeats):
        segment_beats_midpoint(det_for([100, 200]))
    for d in (100, 101):  # even and odd spacing both give length d
        peaks = 100 + d * np.arange(6)
        starts, lengths = segment_beats_midpoint(det_for(peaks))
        assert starts.size == 4 and np.all(lengths == d)


# ===== PQRST windows ======================================================
# Bounds rows are [pq_lo, pq_hi, qrs_hi, st_hi, t_hi]; on a ramp record
# each sample equals its index, so a bound is also the sample it selects.

def windows_for(peaks, n=3000):
    return pqrst_windows(ramp_record(n), det_for(peaks))


def test_pqrst_window_lengths_at_hr70():
    bounds, skipped = windows_for([1500 - 257, 1500, 1500 + 257])  # 70.0 bpm
    assert skipped == 0
    assert bounds.tolist() == [[1500 - 69, 1473, 1530, 1551, 1608]]
    # PQ spans 140 ms (dt 0) and QRS 190 ms; the parts are contiguous
    assert np.diff(bounds[0])[:2].tolist() == [42, 57]


def test_pqrst_window_lengths_at_rr1():
    bounds, _ = windows_for([1200, 1500, 1800])
    pq_lo, pq_hi, qrs_hi, st_hi, t_hi = bounds[0]
    assert pq_lo == 1500 - 72  # 60 bpm: dt -10 ms
    assert st_hi - qrs_hi == 24  # 0.08 RR = 80 ms
    assert t_hi - st_hi == 72  # up to 0.42 RR: 420 - 180 ms = 240 ms
    # the T window may end at the record's end, not past it
    assert windows_for([1200, 1500, 1800], n=t_hi)[1] == 0
    assert windows_for([1200, 1500, 1800], n=t_hi - 1)[1] == 1


def test_pqrst_hr100_shifts_pq_start():
    (b70,), _ = windows_for([1500 - 257, 1500, 1500 + 257])
    (b100,), _ = windows_for([1320, 1500, 1680])
    # dt goes 0 -> 20 ms, so the PQ start moves +6 samples and spans 120 ms
    assert b100[0] - b70[0] == 6
    assert b100[1] - b100[0] == 36


def test_pqrst_uses_supplied_hr_for_lookup():
    # same preceding RR (0.6 s); the later RR sets the heart rate of the
    # lookup, 70 against 100 bpm, so only the PQ start changes
    (a,), _ = windows_for([1320, 1500, 1500 + 334])
    (b,), _ = windows_for([1320, 1500, 1680])
    assert b[0] - a[0] == 6
    assert np.array_equal(a[1:], b[1:])


def test_heart_rate_from_rr():
    # the heart rate is 60 over the mean of the beat's two RR intervals,
    # and only a preceding RR inside [0.2, 3] s is accepted
    (b60,), _ = windows_for([1200, 1500, 1800])  # 60 bpm: dt -10 ms
    (b120,), _ = windows_for([1350, 1500, 1650])  # 120 bpm: dt 30 ms
    assert b120[0] - b60[0] == 12
    assert windows_for([600, 1500, 1800])[1] == 0  # RR 3 s, 30 bpm
    assert windows_for([450, 1500, 1650])[1] == 1  # RR 3.5 s


# one peak triple per skip rule; each beat's other rules hold
SKIP_CASES = [
    ("implausible_rr", [450, 1500, 1650], 3000),  # RR 3.5 s, 30 bpm
    ("out_of_table", [1410, 1500, 1590], 3000),  # 200 bpm
    ("empty_t", [1425, 1500, 1660], 3000),  # RR 0.25 s: T ends before ST
    ("out_of_bounds", [-270, 30, 330], 900),  # PQ starts before sample 0
    ("out_of_bounds", [500, 800, 880], 900),  # T ends past the record
    ("part_too_short", [1410, 1500, 1650], 3000),  # RR 0.3 s: 1-sample T
]


def test_pqrst_error_paths():
    for reason, peaks, n in SKIP_CASES:
        bounds, skipped = windows_for(peaks, n)
        assert bounds.shape == (0, 5) and skipped == 1
        rows, skips = reference_pqrst_rows(ramp_record(n), det_for(peaks))
        assert rows == [] and skips == {reason: 1}
        with pytest.raises(TooFewRows):
            pqrst_features(ramp_record(n), det_for(peaks))


# ===== canonical beat =====================================================

def test_reconstruct_lengths_and_zero_mean():
    m = pqrst_features(ramp_record(), det_for([1200, 1500, 1800]))
    assert m.values.shape == (1, 240) and m.skipped == 0
    assert abs(m.values[0].mean()) < 1e-12
    assert m.layout_id == "pqrst240" and m.subject_ids == ("s01",)
    # the QRS part is kept as-is: samples 1473..1529 of the ramp
    qrs = m.values[0, 135:192]
    assert np.allclose(np.diff(qrs), 1.0) and np.allclose(qrs - qrs[0],
                                                          np.arange(57.0))


def test_reconstruct_constant_parts():
    rec = EcgRecord("s01", "rest", FS, np.full(3000, 2.0))
    m = pqrst_features(rec, det_for([1200, 1500, 1800]))
    assert np.allclose(m.values, 0.0, atol=1e-12)


def test_reconstruct_empty_part():
    # the beat at 1500 has a 1-sample T part and is skipped; the next one
    # is kept
    m = pqrst_features(ramp_record(), det_for([1410, 1500, 1650, 1950]))
    assert (m.n_rows, m.skipped) == (1, 1)


# ===== batched beat stages against the per-beat oracle ====================

def stage_outcomes(record, det):
    """{stage: (values bytes, shape, skipped) or error type}, from the
    library and from the oracle."""
    def run(fn):
        try:
            return fn()
        except EcgidError as exc:
            return type(exc)

    def library(extract):
        m = extract(record, det)
        return m.values.tobytes(), m.values.shape, m.skipped

    def oracle(rows, skipped=0):
        if not rows:
            raise TooFewRows("no usable row")
        values = np.array(rows)
        return values.tobytes(), values.shape, skipped

    def oracle_pqrst():
        rows, skips = reference_pqrst_rows(record, det)
        return oracle(rows, sum(skips.values()))

    lib = {"qrs30": run(lambda: library(qrs_features)),
           "beat300": run(lambda: library(beat_features)),
           "pqrst240": run(lambda: library(pqrst_features))}
    ref = {"qrs30": run(lambda: oracle(reference_qrs_rows(record, det))),
           "beat300": run(lambda: oracle(reference_beat_rows(record, det))),
           "pqrst240": run(oracle_pqrst)}
    return lib, ref


def test_beat_stages_match_oracle_on_cohort():
    compared = 0
    for rec, _ in build_cohort(3, 1, rest_duration_s=30.0, ex_duration_s=20.0):
        x = preprocess_ecg(rec.samples, FS)
        prepared = EcgRecord(rec.subject_id, rec.condition, FS, x)
        lib, ref = stage_outcomes(prepared, detect_r_peaks(x, FS))
        assert lib == ref
        compared += sum(isinstance(v, tuple) for v in lib.values())
    assert compared == 18


def random_peak_records(n_records, seed):
    """Noise records with seeded peaks; gaps of 0.28-0.31 s are common, so
    that 1-sample T parts occur."""
    rng = np.random.default_rng(seed)
    for _ in range(n_records):
        n = int(rng.integers(600, 3000))
        gaps = np.where(rng.random(12) < 0.15, rng.integers(85, 93, 12),
                        rng.integers(60, 1000, 12))
        peaks = np.concatenate([[0], np.cumsum(gaps)]) + rng.integers(15, 300)
        peaks = peaks[peaks < n - 15]
        det = QrsDetection(peaks, peaks - rng.integers(5, 15, peaks.size),
                           peaks + rng.integers(5, 15, peaks.size), FS)
        yield EcgRecord("s01", "rest", FS, rng.standard_normal(n)), det


def test_beat_stages_match_oracle_on_random_peaks():
    reasons = dict.fromkeys(SKIP_REASONS, 0)
    errors = set()
    for rec, det in random_peak_records(300, 17):
        lib, ref = stage_outcomes(rec, det)
        assert lib == ref
        errors.update(v for v in lib.values() if not isinstance(v, tuple))
        for reason, count in reference_pqrst_rows(rec, det)[1].items():
            reasons[reason] += count
    assert min(reasons.values()) >= 3, reasons
    assert errors == {TooFewBeats, TooFewRows}


# ===== end to end =========================================================

def test_pqrst_beats_peak_inside_qrs_region():
    rec, _ = synthesize_record(fixed_params(jitter=0.02), "rest", 30.0, False, 21)
    x = preprocess_ecg(rec.samples, FS)
    filtered = EcgRecord(rec.subject_id, rec.condition, FS, x)
    m = pqrst_features(filtered, detect_r_peaks(x, FS))
    peaks = np.argmax(np.abs(m.values), axis=1)
    assert np.all((135 <= peaks) & (peaks < 192))
    assert m.n_rows >= 20
