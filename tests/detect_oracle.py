"""Reference Pan-Tompkins decision loop for detect_r_peaks.

This is the per-candidate form of `ecgid.detect.detect_r_peaks`: each
candidate's filtered peak is its own `np.max`, the RR average is an
`np.mean`, and search-back rescans every earlier candidate. The library's
array form must give identical beats.
"""

import numpy as np

from ecgid.detect import (
    INTEGRATION_WINDOW_S,
    REFINE_HALF_S,
    REFRACTORY_S,
    SEARCHBACK_RR_FACTOR,
    QrsDetection,
    _clamp_width,
    _local_maxima,
    derivative_filter,
    moving_window_integrate,
    pt_bandpass,
    qrs_width_bounds,
    square_signal,
)
from ecgid.errors import NoBeatsFound, SignalTooShort


def reference_detect_r_peaks(x, fs_hz):
    """detect_r_peaks as a per-candidate loop; see the module docstring."""
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
    fpeaks = np.array([
        np.max(abs_f[max(0, i - window_n):i + 1]) for i in candidates
    ]) if candidates.size else np.zeros(0)

    accepted = []        # decision-point indices into mwi
    accepted_thr = []    # primary integrator threshold at acceptance time
    accepted_set = set()
    rr_history = []

    def rr_average():
        if not rr_history:
            return None
        recent = rr_history[-8:]
        return float(np.mean(recent))

    def accept(pos, pki, fpk, weight):
        nonlocal spki, spkf
        spki = weight * pki + (1 - weight) * spki
        spkf = weight * fpk + (1 - weight) * spkf
        if accepted:
            rr_history.append(pos - accepted[-1])
        accepted.append(pos)
        accepted_thr.append(npki + 0.25 * (spki - npki))
        accepted_set.add(pos)

    for ci, i in enumerate(candidates):
        pki = mwi[i]
        fpk = fpeaks[ci]
        thr1 = npki + 0.25 * (spki - npki)
        thrf1 = npkf + 0.25 * (spkf - npkf)

        # search-back: a long gap means a beat was likely missed; rescan the
        # gap's candidates against the halved thresholds
        rr_avg = rr_average()
        if accepted and rr_avg is not None and \
                (i - accepted[-1]) > SEARCHBACK_RR_FACTOR * rr_avg:
            best = None
            for cj in range(ci):
                j = candidates[cj]
                if j <= accepted[-1] + refractory_n or j in accepted_set:
                    continue
                if mwi[j] > 0.5 * thr1 and fpeaks[cj] > 0.5 * thrf1:
                    if best is None or mwi[j] > mwi[best[0]]:
                        best = (j, cj)
            if best is not None:
                j, cj = best
                accept(int(j), mwi[j], fpeaks[cj], weight=0.25)

        if accepted and i - accepted[-1] < refractory_n:
            continue
        if pki > thr1 and fpk > thrf1:
            accept(int(i), pki, fpk, weight=0.125)
        else:
            npki = 0.125 * pki + 0.875 * npki
            npkf = 0.125 * fpk + 0.875 * npkf

    # refine decision points: filtered-domain fiducial inside the integrator
    # window, then the preprocessed-signal extremum within +/-0.05 s
    refine_half = int(round(REFINE_HALF_S * fs_hz))
    w_min, w_max = qrs_width_bounds(fs_hz)
    beats = []
    abs_x = np.abs(x)
    for pos, thr in zip(accepted, accepted_thr):
        a = max(0, pos - window_n)
        j = a + int(np.argmax(abs_f[a:pos + 1]))
        lo = max(0, j - refine_half)
        hi = min(n, j + refine_half + 1)
        r = lo + int(np.argmax(abs_x[lo:hi]))

        k = r - 1
        while k >= 0 and mwi[k] >= thr:
            k -= 1
        onset = k
        k = r + 1
        while k < n and mwi[k] >= thr:
            k += 1
        offset = k
        clamped = _clamp_width(onset, offset, r, n, w_min, w_max)
        if clamped is None:
            continue
        beats.append((r, clamped[0], clamped[1]))

    # refinement can only shrink inter-peak gaps slightly; drop any beat that
    # lands inside the refractory window of the previous kept beat
    kept = []
    for beat in beats:
        if kept and beat[0] - kept[-1][0] < refractory_n:
            continue
        kept.append(beat)

    if len(kept) < 2:
        raise NoBeatsFound("fewer than 2 beats accepted")
    r_peaks = np.array([b[0] for b in kept], dtype=int)
    onsets = np.array([b[1] for b in kept], dtype=int)
    offsets = np.array([b[2] for b in kept], dtype=int)
    return QrsDetection(r_peaks, onsets, offsets, float(fs_hz))
