"""QRS detection: derivative, squaring, moving-window integration, and an
adaptive dual-threshold peak decision with search-back.

Thresholds are estimated from the data itself (running signal/noise level
means), so detection is invariant to positive rescaling of the input. Each
integrator peak is confirmed against the 5-15 Hz filtered waveform, then the
R fiducial is refined to the extremum of the preprocessed input, removing
the integrator's group delay before segmentation.

Python loops are left only where each step depends on the last: the
threshold update over integrator peaks and the refractory pass over refined
beats. Everything else is array operations over all candidates or beats.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import design_butterworth_bandpass, filter_zero_phase
from .errors import (
    InvariantViolation,
    NoBeatsFound,
    SignalTooShort,
    WindowTooLong,
)

# fractional width bounds, in samples at 300 Hz (scaled for other rates)
QRS_WIDTH_MIN_300 = 10
QRS_WIDTH_MAX_300 = 50
REFRACTORY_S = 0.2
INTEGRATION_WINDOW_S = 0.15
REFINE_HALF_S = 0.05
SEARCHBACK_RR_FACTOR = 1.66


@dataclass(frozen=True)
class QrsDetection:
    """Accepted beats: R indices with QRS onset/offset boundaries."""

    r_peaks: np.ndarray
    qrs_onsets: np.ndarray
    qrs_offsets: np.ndarray
    fs_hz: float

    def __post_init__(self):
        r = np.asarray(self.r_peaks, dtype=int)
        on = np.asarray(self.qrs_onsets, dtype=int)
        off = np.asarray(self.qrs_offsets, dtype=int)
        object.__setattr__(self, "r_peaks", r)
        object.__setattr__(self, "qrs_onsets", on)
        object.__setattr__(self, "qrs_offsets", off)
        if not (r.size == on.size == off.size):
            raise InvariantViolation("peak/onset/offset arrays differ in length")
        if r.size and np.any(np.diff(r) < REFRACTORY_S * self.fs_hz):
            raise InvariantViolation("peaks violate the 0.2 s refractory spacing")
        if np.any(on >= r) or np.any(off <= r):
            raise InvariantViolation("onset/offset must bracket each R peak")
        widths = off - on
        w_min, w_max = qrs_width_bounds(self.fs_hz)
        if r.size and (widths.min() < w_min or widths.max() > w_max):
            raise InvariantViolation(
                "QRS width outside plausibility band [%d, %d]" % (w_min, w_max)
            )

    def __len__(self):
        return int(self.r_peaks.size)


def qrs_width_bounds(fs_hz):
    return (int(round(QRS_WIDTH_MIN_300 * fs_hz / 300.0)),
            int(round(QRS_WIDTH_MAX_300 * fs_hz / 300.0)))


def pt_bandpass(x, fs_hz):
    """Zero-phase order-4 band-pass over the 5-15 Hz QRS energy band."""
    coeffs = design_butterworth_bandpass(4, 5.0, 15.0, fs_hz)
    return filter_zero_phase(coeffs, np.asarray(x, dtype=float))


def derivative_filter(x):
    """Five-point slope estimator y[n] = (2x[n]+x[n-1]-x[n-3]-2x[n-4])/8."""
    x = np.asarray(x, dtype=float)
    if x.size < 5:
        raise SignalTooShort("derivative filter needs >= 5 samples")
    kernel = np.array([2.0, 1.0, 0.0, -1.0, -2.0]) / 8.0
    return np.convolve(x, kernel, mode="full")[: x.size]


def square_signal(x):
    x = np.asarray(x, dtype=float)
    return x * x


def moving_window_integrate(x, window_n):
    """Trailing mean over the last window_n samples, zero-initialized."""
    x = np.asarray(x, dtype=float)
    if window_n < 1:
        raise InvariantViolation("window must be a positive integer")
    if window_n > x.size:
        raise WindowTooLong(
            "window %d exceeds signal length %d" % (window_n, x.size)
        )
    kernel = np.full(window_n, 1.0 / window_n)
    return np.convolve(x, kernel, mode="full")[: x.size]


def _local_maxima(y):
    # strict rise then non-rise; flat signals produce no candidates
    idx = np.flatnonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])) + 1
    return idx


def _qrs_bounds(mwi, r, thr):
    """First sample on each side of each r where mwi drops below that beat's
    thr (-1 or mwi.size past the record). The walks advance together, 32
    samples a step, so memory stays at beats x 32 however long they are.
    """
    n = mwi.size
    edged = np.concatenate([[-np.inf], mwi, [-np.inf]])  # the ends stop a walk
    step, thr = np.repeat([-1, 1], r.size), np.tile(thr, 2)
    pos, todo = np.tile(r, 2) + step, np.arange(2 * r.size)
    out = np.empty(2 * r.size, dtype=int)
    while todo.size:
        idx = np.clip(pos[:, None] + step[todo, None] * np.arange(32), -1, n)
        below = edged[idx + 1] < thr[todo, None]
        hit = below.any(axis=1)
        out[todo[hit]] = idx[hit, below[hit].argmax(axis=1)]
        todo, pos = todo[~hit], idx[~hit, -1] + step[todo[~hit]]
    return out[:r.size], out[r.size:]


def _clamp_widths(onset, offset, r, n, w_min, w_max):
    """Clamp each [onset, offset] to the width band; valid is False where
    the clamped QRS leaves the record.

    A wide QRS keeps its left share of w_max around r, at least one sample;
    a narrow one grows right up to the last sample, then left.
    """
    width = offset - onset
    # r - onset < width keeps the floor below w_max, so the right side keeps
    # a sample (at w_max = 1 no beat is valid either way)
    left = np.floor((r - onset) * (w_max / width)).astype(int)
    left = np.maximum(left, 1)
    need = w_min - width
    grow_right = np.minimum(need, (n - 1) - offset)
    cases = [width > w_max, width < w_min]
    onset = np.select(cases, [r - left, onset - (need - grow_right)], onset)
    offset = np.select(cases, [r + w_max - left, offset + grow_right], offset)
    valid = (onset >= 0) & (offset < n) & (onset < r) & (r < offset)
    return onset, offset, valid


def detect_r_peaks(x, fs_hz):
    """Run the full detection chain on a preprocessed ECG.

    Parameters
    ----------
    x : array_like
        Preprocessed (0.5-40 Hz band-passed) ECG samples, >= 2 s.
    fs_hz : float
        Sampling rate.

    Returns
    -------
    QrsDetection
        Strictly increasing R indices with onset/offset boundaries, each
        refined to the extremum of `x` within +/-0.05 s of the filtered-
        domain fiducial.

    Raises
    ------
    NoBeatsFound
        Fewer than two beats survive acceptance and boundary clamping.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    init_n = int(round(2 * fs_hz))
    if n < init_n:
        raise SignalTooShort("detection needs at least 2 s of signal")

    filtered = pt_bandpass(x, fs_hz)
    window_n = int(round(INTEGRATION_WINDOW_S * fs_hz))
    mwi = moving_window_integrate(square_signal(derivative_filter(filtered)), window_n)
    abs_f = np.abs(filtered)

    # running level estimates, initialized from the first two seconds
    spki = float(np.max(mwi[:init_n]))
    npki = float(np.mean(mwi[:init_n]))
    spkf = float(np.max(abs_f[:init_n]))
    npkf = float(np.mean(abs_f[:init_n]))

    refractory_n = REFRACTORY_S * fs_hz
    candidates = _local_maxima(mwi)
    cand_mwi = mwi[candidates]
    # |filtered| over each sample's integrator window; the -1 pad never wins
    # against a magnitude
    windows = sliding_window_view(
        np.pad(abs_f, (window_n, 0), constant_values=-1.0), window_n + 1)
    fpeaks = windows[candidates].max(axis=1)

    accepted = []        # decision-point indices into mwi
    accepted_thr = []    # primary integrator threshold at acceptance time
    rr_history = []      # integer sample gaps, so their mean is exact

    def accept(pos, pki, fpk, weight):
        nonlocal spki, spkf
        spki = weight * pki + (1 - weight) * spki
        spkf = weight * fpk + (1 - weight) * spkf
        if accepted:
            rr_history.append(pos - accepted[-1])
        accepted.append(pos)
        accepted_thr.append(npki + 0.25 * (spki - npki))

    for ci, i in enumerate(candidates):
        pki = cand_mwi[ci]
        fpk = fpeaks[ci]
        thr1 = npki + 0.25 * (spki - npki)
        thrf1 = npkf + 0.25 * (spkf - npkf)

        # search-back: a long gap means a beat was likely missed; take the
        # strongest candidate past the last beat's refractory window that
        # clears the halved thresholds
        recent = rr_history[-8:]
        if recent and (i - accepted[-1]) > \
                SEARCHBACK_RR_FACTOR * (sum(recent) / len(recent)):
            lo = int(np.searchsorted(candidates, accepted[-1] + refractory_n,
                                     "right"))
            ok = (cand_mwi[lo:ci] > 0.5 * thr1) & (fpeaks[lo:ci] > 0.5 * thrf1)
            if ok.any():
                cj = lo + int(np.argmax(np.where(ok, cand_mwi[lo:ci], -np.inf)))
                accept(int(candidates[cj]), cand_mwi[cj], fpeaks[cj],
                       weight=0.25)

        if accepted and i - accepted[-1] < refractory_n:
            continue
        if pki > thr1 and fpk > thrf1:
            accept(int(i), pki, fpk, weight=0.125)
        else:
            npki = 0.125 * pki + 0.875 * npki
            npkf = 0.125 * fpk + 0.875 * npkf

    # refine decision points: filtered-domain fiducial j inside the
    # integrator window, then the preprocessed-signal extremum r within
    # +/-0.05 s of j. The -1 pads stand for samples past the record: they
    # lose to every magnitude and keep argmax's first-maximum tie rule.
    pos = np.array(accepted, dtype=int)
    j = pos - window_n + windows[pos].argmax(axis=1)
    h = int(round(REFINE_HALF_S * fs_hz))
    padded_x = np.pad(np.abs(x), h, constant_values=-1.0)
    r = j - h + sliding_window_view(padded_x, 2 * h + 1)[j].argmax(axis=1)
    onset, offset = _qrs_bounds(mwi, r, np.array(accepted_thr))
    onset, offset, valid = _clamp_widths(onset, offset, r, n,
                                         *qrs_width_bounds(fs_hz))

    # refinement can only shrink inter-peak gaps slightly; drop any beat that
    # lands inside the refractory window of the previous kept beat
    kept = []
    for k in np.flatnonzero(valid).tolist():
        if kept and r[k] - r[kept[-1]] < refractory_n:
            continue
        kept.append(k)

    if len(kept) < 2:
        raise NoBeatsFound("fewer than 2 beats accepted")
    return QrsDetection(r[kept], onset[kept], offset[kept], float(fs_hz))
