"""Reference per-beat loops for the qrs30, beat300 and pqrst240 stages.

This is the per-beat form of `ecgid.features.qrs_features`,
`beat_features` and `pqrst_features`: every beat is sliced and resampled
on its own, and each PQRST beat runs the window rules one after another,
recording why it was skipped. The library's batched form must give
identical rows and skip counts.
"""

from collections import Counter

import numpy as np

from ecgid.errors import OutOfTable, SegmentTooShort, TooFewBeats

DT_TABLE = (
    (30.0, 65.0, -10.0),
    (65.0, 80.0, 0.0),
    (80.0, 95.0, 10.0),
    (95.0, 110.0, 20.0),
    (110.0, 125.0, 30.0),
    (125.0, 140.0, 40.0),
    (140.0, 155.0, 50.0),
)

SKIP_REASONS = ("implausible_rr", "out_of_table", "empty_t",
                "out_of_bounds", "part_too_short")


class Skip(Exception):
    """One beat rejected by a window rule; args[0] is its reason."""


def ms_to_samples(ms, fs_hz):
    return int(np.floor(ms * fs_hz / 1000.0 + 0.5))


def dt_threshold(hr_bpm):
    for lo, hi, dt in DT_TABLE:
        if lo <= hr_bpm < hi:
            return dt
    raise OutOfTable("heart rate %g bpm outside table domain" % hr_bpm)


def resample_to_length(y, n):
    y = np.asarray(y, dtype=float)
    n_star = y.size
    if n_star < 2:
        raise SegmentTooShort("resampling needs >= 2 input samples")
    r = np.arange(n) * ((n_star - 1) / (n - 1))
    j = np.minimum(np.floor(r).astype(int), n_star - 2)
    out = y[j] + (y[j + 1] - y[j]) * (r - j)
    out[0] = y[0]
    out[-1] = y[-1]
    return out


def reference_qrs_rows(record, det):
    return [resample_to_length(record.samples[on:off], 30)
            for on, off in zip(det.qrs_onsets, det.qrs_offsets)]


def reference_beat_rows(record, det):
    r = det.r_peaks
    if r.size < 3:
        raise TooFewBeats("midpoint segmentation needs >= 3 peaks")
    rows = []
    for k in range(1, r.size - 1):
        lo = (int(r[k - 1]) + int(r[k])) // 2
        hi = (int(r[k]) + int(r[k + 1])) // 2
        rows.append(resample_to_length(record.samples[lo:hi], 300))
    return rows


def extract_pqrst(record, r_index, rr_s, hr_bpm):
    """(pq, qrs, st, t) slices around one R peak, or Skip."""
    if not (0.2 <= rr_s <= 3.0):
        raise Skip("implausible_rr")
    try:
        dt = dt_threshold(hr_bpm)
    except OutOfTable:
        raise Skip("out_of_table")
    fs = record.sampling_rate_hz
    pq_lo = r_index + ms_to_samples(-230.0 + dt, fs)
    pq_hi = r_index + ms_to_samples(-90.0, fs)
    qrs_hi = r_index + ms_to_samples(100.0, fs)
    st_hi = r_index + ms_to_samples(100.0 + 0.08 * rr_s * 1000.0, fs)
    t_hi = r_index + ms_to_samples(0.42 * rr_s * 1000.0, fs)
    if t_hi <= st_hi:
        raise Skip("empty_t")
    if pq_lo < 0 or t_hi > record.samples.size:
        raise Skip("out_of_bounds")
    s = record.samples
    return s[pq_lo:pq_hi], s[pq_hi:qrs_hi], s[qrs_hi:st_hi], s[st_hi:t_hi]


def reconstruct_beat(parts, fs_hz):
    pq, qrs, st, t = parts
    try:
        pq = resample_to_length(pq, ms_to_samples(450.0, fs_hz))
        st = resample_to_length(st, ms_to_samples(110.0, fs_hz))
        t = resample_to_length(t, ms_to_samples(50.0, fs_hz))
    except SegmentTooShort:
        raise Skip("part_too_short")
    beat = np.concatenate([pq, qrs, st, t])
    return beat - beat.mean()


def reference_pqrst_rows(record, det):
    """(rows, Counter of skip reasons) for one record."""
    r = det.r_peaks
    fs = record.sampling_rate_hz
    rows = []
    skips = Counter()
    for k in range(1, r.size - 1):
        rr_prev = (int(r[k]) - int(r[k - 1])) / fs
        rr_next = (int(r[k + 1]) - int(r[k])) / fs
        hr = 60.0 / ((rr_prev + rr_next) / 2.0)
        try:
            parts = extract_pqrst(record, int(r[k]), rr_prev, hr)
            rows.append(reconstruct_beat(parts, fs))
        except Skip as exc:
            skips[exc.args[0]] += 1
    return rows, skips
