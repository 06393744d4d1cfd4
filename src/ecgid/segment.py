"""Beat extraction: midpoint segmentation, morphology-preserving resampling,
and heart-rate-adaptive PQRST re-windowing into a canonical 240-sample beat.

The PQRST windows are placed relative to the R peak: PQ and QRS use fixed
millisecond offsets (PQ's start shifted by a heart-rate lookup), while ST
and T ends scale with the preceding RR interval. Each part is resampled to
a fixed share of an 800 ms beat (PQ 450 ms, QRS kept, ST 110 ms, T 50 ms)
and the result is normalized to zero mean.

A beat is a row of window boundaries into its record, not an object, and
each function handles all beats of a record with array operations.
"""

import numpy as np

from .errors import (
    InvariantViolation,
    OutOfTable,
    SegmentTooShort,
    TooFewBeats,
)

# window geometry in milliseconds relative to R (Eqs. below in comments are
# the PQ/QRS/ST/T bracket rules; RR-dependent ends are fractions of RR)
PQ_START_MS = -230.0
PQ_END_MS = -90.0
QRS_END_MS = 100.0
ST_RR_FRAC = 0.08
T_END_RR_FRAC = 0.42

# plausible RR interval in seconds
RR_MIN_S = 0.2
RR_MAX_S = 3.0

# PQ-start shift: a heart rate in [_DT_EDGES[i], _DT_EDGES[i + 1]) bpm
# shifts the PQ start by _DT_MS[i] milliseconds
_DT_EDGES = (30.0, 65.0, 80.0, 95.0, 110.0, 125.0, 140.0, 155.0)
_DT_MS = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 50.0)


def ms_to_samples(ms, fs_hz):
    """Millisecond offset(s) to samples, rounding halves up."""
    return np.floor(ms * fs_hz / 1000.0 + 0.5).astype(int)


def _in_dt_table(hr_bpm):
    return (_DT_EDGES[0] <= hr_bpm) & (hr_bpm < _DT_EDGES[-1])


def dt_threshold(hr_bpm):
    """PQ-start shift in milliseconds as a piecewise-constant lookup of a
    heart rate, or of an array of them."""
    try:
        hr = np.asarray(hr_bpm, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise InvariantViolation("need a numeric heart rate: %s" % e) from None
    outside = ~_in_dt_table(hr)
    if np.any(outside):
        raise OutOfTable("heart rate %g bpm outside table domain [30, 155)"
                         % hr[outside].flat[0])
    return np.take(_DT_MS, np.searchsorted(_DT_EDGES, hr, side="right") - 1)


def resample_rows(x, starts, lengths, n):
    """Row k is x[starts[k]:starts[k] + lengths[k]] linearly resampled to n
    samples, with both endpoints kept exact."""
    x = np.asarray(x, dtype=float)
    starts = np.asarray(starts, dtype=int)[:, None]
    lengths = np.asarray(lengths, dtype=int)[:, None]
    if np.any(lengths < 2):
        raise SegmentTooShort("resampling needs >= 2 input samples")
    if n < 2:
        raise InvariantViolation("target length must be >= 2")
    if np.any(starts < 0) or np.any(starts + lengths > x.size):
        raise InvariantViolation("resampled rows must lie inside the signal")
    r = np.arange(n) * ((lengths - 1) / (n - 1))
    j = np.minimum(np.floor(r).astype(int), lengths - 2)
    lo, hi = x[starts + j], x[starts + j + 1]
    out = lo + (hi - lo) * (r - j)
    out[:, 0], out[:, -1] = lo[:, 0], hi[:, -1]
    return out


def resample_to_length(y, n):
    """Linear-interpolation resampling preserving endpoints exactly."""
    y = np.asarray(y, dtype=float)
    return resample_rows(y, [0], [y.size], n)[0]


def segment_beats_midpoint(det):
    """(starts, lengths) of one raw segment per interior R peak, spanning
    midpoint to midpoint."""
    r = det.r_peaks
    if r.size < 3:
        raise TooFewBeats("midpoint segmentation needs >= 3 peaks")
    mid = (r[:-1] + r[1:]) // 2
    return mid[:-1], np.diff(mid)


def pqrst_windows(record, det):
    """(bounds, skipped): one row [pq_lo, pq_hi, qrs_hi, st_hi, t_hi] of
    sample indices per usable interior beat, in R order, and the number of
    interior beats skipped.

    ST and T ends scale with the beat's preceding RR interval; the PQ
    start shifts with the heart rate of the mean of its two RR intervals.
    A beat is skipped when its preceding RR lies outside [0.2, 3] s, its
    heart rate lies outside the dt table, its T window is empty, its
    windows leave the record, or its PQ, ST or T part has fewer than 2
    samples.
    """
    r = det.r_peaks
    fs = record.sampling_rate_hz
    rk = r[1:-1]
    rr = (rk - r[:-2]) / fs
    hr = 60.0 / ((rr + (r[2:] - rk) / fs) / 2.0)
    keep = (RR_MIN_S <= rr) & (rr <= RR_MAX_S) & _in_dt_table(hr)
    rr = rr[keep]
    offsets_ms = np.broadcast_arrays(
        PQ_START_MS + dt_threshold(hr[keep]), PQ_END_MS, QRS_END_MS,
        QRS_END_MS + ST_RR_FRAC * rr * 1000.0, T_END_RR_FRAC * rr * 1000.0)
    bounds = rk[keep][:, None] + ms_to_samples(np.stack(offsets_ms, 1), fs)
    parts = np.diff(bounds, axis=1)
    usable = ((bounds[:, 0] >= 0) & (bounds[:, 4] <= record.samples.size)
              & np.all(parts[:, [0, 2, 3]] >= 2, axis=1))
    return bounds[usable], rk.size - int(np.count_nonzero(usable))
