"""Per-beat feature extraction and normalization.

Extractors turn one record plus its detection into a feature matrix with
one row per usable beat, in r_index order. Beats whose analysis windows
fall outside the record are skipped and counted, never padded.
"""

import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len

from .dsp import hamming_window
from .errors import (
    DegenerateWindow,
    DimensionMismatch,
    InvariantViolation,
    MalformedFile,
    SignalTooShort,
    TooFewRows,
    WindowTooLong,
)
from .ingest import CONDITIONS, _parse_finite, _read_text, _write_lines
from .segment import pqrst_windows, resample_rows, segment_beats_midpoint
from .wavelets import wavelet_kernel

LAYOUT_DIMS = {
    "qrs30": 30,
    "beat300": 300,
    "pqrst240": 240,
    "stft": 572,
    "cwt": 9600,
    "fused": 10252,
}

STFT_WINDOW_N = 16
STFT_HOP = 13
STFT_NFFT = 50
CWT_SCALES = 32
AC_LAGS = 80


def declared_dim(layout_id):
    """Declared dimension for a known layout id, else None."""
    if layout_id in LAYOUT_DIMS:
        return LAYOUT_DIMS[layout_id]
    # ac<n> and ac<n>_beat only: a derived layout such as ac80>pca5 has
    # its own width
    m = re.match(r"^ac(\d+)(?:_beat)?$", layout_id)
    if m:
        return int(m.group(1))
    return None


@dataclass(frozen=True)
class FeatureMatrix:
    """Rows sharing one layout; labels are the per-row subject ids.

    `skipped` counts beats dropped during extraction (diagnostic only, not
    part of persistence).
    """

    values: np.ndarray
    subject_ids: tuple
    conditions: tuple
    layout_id: str
    skipped: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0:
            raise InvariantViolation("feature matrix must be non-empty and 2-D")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        object.__setattr__(self, "conditions", tuple(self.conditions))
        if len(self.subject_ids) != v.shape[0] or len(self.conditions) != v.shape[0]:
            raise InvariantViolation("row labels must align with rows")
        for c in self.conditions:
            if c not in CONDITIONS:
                raise InvariantViolation("unknown condition %r" % (c,))
        want = declared_dim(self.layout_id)
        if want is not None and v.shape[1] != want:
            raise InvariantViolation(
                "layout %s declares dim %d, matrix has %d"
                % (self.layout_id, want, v.shape[1])
            )
        if not np.all(np.isfinite(v)):
            raise InvariantViolation("feature matrix contains non-finite values")

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]


def take_rows(m, index):
    """Row-subset preserving labels and layout; it counts no skipped beats,
    which belong to the whole matrix."""
    index = np.asarray(index)
    if index.ndim != 1:
        raise InvariantViolation("row index is %d-D, not 1-D" % index.ndim)
    if not index.size:
        raise InvariantViolation("no row index to take")
    if index.dtype.kind not in "iu":
        raise InvariantViolation(
            "row index %r is not an integer" % index.ravel()[0].item())
    out = (index < -m.n_rows) | (index >= m.n_rows)
    if out.any():
        raise InvariantViolation(
            "row index %d is outside %d rows" % (index[out][0], m.n_rows))
    return FeatureMatrix(
        m.values[index],
        tuple(m.subject_ids[i] for i in index),
        tuple(m.conditions[i] for i in index),
        m.layout_id,
    )


def concat_matrices(parts):
    """Stack matrices of one layout, preserving row order."""
    layouts = {p.layout_id for p in parts}
    if len(layouts) != 1:
        raise DimensionMismatch("cannot concatenate mixed layouts %s" % layouts)
    return FeatureMatrix(
        np.vstack([p.values for p in parts]),
        tuple(s for p in parts for s in p.subject_ids),
        tuple(c for p in parts for c in p.conditions),
        parts[0].layout_id,
        sum(p.skipped for p in parts),
    )


# ===== window transforms ==================================================
# Each transform takes one window or a stack of windows (time on the last
# axis) and returns one feature row per window.

def stft_of_window(w):
    """Concatenated one-sided magnitudes of Hamming-weighted frames."""
    w = np.asarray(w, dtype=float)
    n = w.shape[-1] if w.ndim else 0
    if n < STFT_WINDOW_N:
        raise SignalTooShort("STFT needs a window of >= %d samples, got %d"
                             % (STFT_WINDOW_N, n))
    starts = np.arange(0, n - STFT_WINDOW_N + 1, STFT_HOP)
    frames = w[..., starts[:, None] + np.arange(STFT_WINDOW_N)]
    frames = frames * hamming_window(STFT_WINDOW_N)
    mags = np.abs(np.fft.rfft(frames, n=STFT_NFFT, axis=-1))
    return mags.reshape(w.shape[:-1] + (mags.shape[-2] * mags.shape[-1],))


@lru_cache(maxsize=4)
def _cwt_spectra(length):
    """(nfft, spectra): per scale 1..CWT_SCALES, the spectrum of the wavelet
    kernel reversed and centred on index 0, so that a length-nfft circular
    convolution with it gives a window's zero-padded same-length
    correlation in its first `length` samples. nfft covers the full linear
    convolution with the widest kernel, so nothing wraps around."""
    kernels = [wavelet_kernel(float(a)) for a in range(1, CWT_SCALES + 1)]
    nfft = next_fast_len(length + kernels[-1].size - 1, real=True)
    flipped = [np.roll(np.pad(k[::-1], (0, nfft - k.size)), -(k.size // 2))
               for k in kernels]
    return nfft, np.fft.rfft(flipped, axis=-1)


def cwt_of_window(w):
    """Wavelet coefficients at integer scales 1..CWT_SCALES, concatenated."""
    w = np.asarray(w, dtype=float)
    n = w.shape[-1] if w.ndim else 0
    if n < 1:
        raise SignalTooShort("wavelet transform of an empty window")
    nfft, spectra = _cwt_spectra(n)
    full = np.fft.irfft(np.fft.rfft(w, nfft)[..., None, :] * spectra, nfft)
    return full[..., :n].reshape(w.shape[:-1] + (CWT_SCALES * n,))


def _lagged_dot(x, m):
    """sum_i x[i] x[i+m] along the last axis, one BLAS dot per window."""
    return (x[..., None, :x.shape[-1] - m] @ x[..., m:, None])[..., 0, 0]


def autocorr_features(x, n_lags):
    """Normalized autocorrelation at lags 1..n_lags (lag 0 is excluded).

    Parameters
    ----------
    x : array_like
        One analysis window, or a stack of them along the first axes.
    n_lags : int
        Number of lags; must satisfy n_lags <= len(window)/2.

    Returns
    -------
    ndarray of shape x.shape[:-1] + (n_lags,).
    """
    x = np.asarray(x, dtype=float)
    if not (isinstance(n_lags, (int, np.integer)) and n_lags >= 1):
        raise InvariantViolation("n_lags must be an integer >= 1")
    n = x.shape[-1] if x.ndim else 0
    if n_lags > n // 2:
        raise WindowTooLong(
            "n_lags %d exceeds half the window length %d" % (n_lags, n))
    r0 = _lagged_dot(x, 0)
    if np.any(r0 == 0.0):
        raise DegenerateWindow("all-zero window has no autocorrelation scale")
    lags = np.stack([_lagged_dot(x, m) for m in range(1, n_lags + 1)],
                    axis=-1)
    return lags / r0[..., None]


# ===== matrix builders ====================================================

def _require_fs300(record, layout):
    if int(round(record.sampling_rate_hz)) != 300:
        raise InvariantViolation(
            "%s layout dimensions are pinned to fs=300" % layout
        )


def _record_matrix(record, rows, layout, skipped=0):
    """One record's feature rows, labelled with its subject and condition."""
    n = len(rows)
    if n == 0:
        raise TooFewRows("no usable %s row in %s/%s"
                         % (layout, record.subject_id, record.condition))
    return FeatureMatrix(np.asarray(rows, dtype=float),
                         (record.subject_id,) * n, (record.condition,) * n,
                         layout, skipped)


def _centered_windows(record, det, window_len):
    """(windows, skipped): the window_len samples around each R peak, one
    row per peak whose window lies inside the record."""
    lo = det.r_peaks - window_len // 2
    fits = (lo >= 0) & (lo + window_len <= record.samples.size)
    windows = record.samples[lo[fits, None] + np.arange(window_len)]
    return windows, int(np.count_nonzero(~fits))


def _with_energy(windows):
    """(windows, dropped): the rows with nonzero energy, which have an
    autocorrelation scale, and how many were dropped."""
    keep = _lagged_dot(windows, 0) != 0.0
    return windows[keep], int(np.count_nonzero(~keep))


def qrs_features(record, det):
    """Per beat, the [onset, offset) slice resampled to 30 samples."""
    rows = resample_rows(record.samples, det.qrs_onsets,
                         det.qrs_offsets - det.qrs_onsets, 30)
    return _record_matrix(record, rows, "qrs30")


def beat_features(record, det):
    """Midpoint-to-midpoint beats resampled to 300 samples."""
    starts, lengths = segment_beats_midpoint(det)
    return _record_matrix(record, resample_rows(record.samples, starts,
                                                lengths, 300), "beat300")


def pqrst_features(record, det):
    """Heart-rate-corrected 240-sample canonical beats, zero-meaned."""
    _require_fs300(record, "pqrst240")
    bounds, skipped = pqrst_windows(record, det)
    pq_lo, pq_hi, qrs_hi, st_hi, t_hi = bounds.T
    s = record.samples
    # at 300 Hz: PQ to 450 ms, the 190 ms QRS kept, ST to 110 ms, T to 50 ms
    rows = np.hstack([resample_rows(s, pq_lo, pq_hi - pq_lo, 135),
                      s[pq_hi[:, None] + np.arange(57)],
                      resample_rows(s, qrs_hi, st_hi - qrs_hi, 33),
                      resample_rows(s, st_hi, t_hi - st_hi, 15)])
    return _record_matrix(record, rows - rows.mean(axis=1, keepdims=True),
                          "pqrst240", skipped)


def stft_features(record, det):
    """Spectrogram magnitudes over the 1 s window centered at each R."""
    _require_fs300(record, "stft")
    windows, skipped = _centered_windows(record, det, 300)
    return _record_matrix(record, stft_of_window(windows), "stft", skipped)


def cwt_features(record, det):
    """Wavelet coefficients over the 1 s window centered at each R."""
    _require_fs300(record, "cwt")
    windows, skipped = _centered_windows(record, det, 300)
    return _record_matrix(record, cwt_of_window(windows), "cwt", skipped)


def ac_features(record, det, n_lags=AC_LAGS, window_s=1.0):
    """Autocorrelation features over windows of window_s seconds."""
    # a window longer than the record fits nowhere; the cap keeps a huge
    # window_s from overflowing the sample arithmetic
    window_len = min(int(round(window_s * record.sampling_rate_hz)),
                     record.samples.size + 1)
    windows, skipped = _centered_windows(record, det, window_len)
    windows, dropped = _with_energy(windows)
    return _record_matrix(record, autocorr_features(windows, n_lags),
                          "ac%d" % n_lags, skipped + dropped)


def ac_beat_features(record, det):
    """80-lag autocorrelation of the 300-sample beat vectors."""
    beats = beat_features(record, det)
    rows, dropped = _with_energy(beats.values)
    return _record_matrix(record, autocorr_features(rows, AC_LAGS),
                          "ac%d_beat" % AC_LAGS, beats.skipped + dropped)


def fused_features(record, det):
    """stft (572) then cwt (9600) then 80-lag AC per 1 s window: 10252."""
    _require_fs300(record, "fused")
    windows, skipped = _centered_windows(record, det, 300)
    windows, dropped = _with_energy(windows)
    rows = np.hstack([stft_of_window(windows), cwt_of_window(windows),
                      autocorr_features(windows, AC_LAGS)])
    return _record_matrix(record, rows, "fused", skipped + dropped)


FUSED_BLOCKS = {"stft": (0, 572), "cwt": (572, 10172), "ac": (10172, 10252)}


# ===== z-score ============================================================

@dataclass(frozen=True)
class ZScoreParams:
    """Per-feature mean/stddev of the fit population."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if np.any(self.std < 0):
            raise InvariantViolation("stddev entries must be >= 0")

    @property
    def degenerate(self):
        return self.std < 1e-12


def zscore_fit(m):
    if m.n_rows < 2:
        raise TooFewRows("z-score fit needs >= 2 rows")
    mean = m.values.mean(axis=0)
    std = m.values.std(axis=0)  # population stddev
    return ZScoreParams(mean, std)


def zscore_apply(params, m, out=None):
    """Z-score m's rows into `out`, as in numpy: m.values works in place."""
    if m.dim != params.mean.size:
        raise DimensionMismatch(
            "matrix dim %d vs params dim %d" % (m.dim, params.mean.size)
        )
    safe = np.where(params.degenerate, 1.0, params.std)
    out = np.subtract(m.values, params.mean, out=out)
    out /= safe
    out[:, params.degenerate] = 0.0
    return replace(m, values=out)


# ===== persistence ========================================================

def save_feature_matrix(m, path):
    lines = ["layout=%s,dim=%d" % (m.layout_id, m.dim)]
    for sid, cond, row in zip(m.subject_ids, m.conditions, m.values.tolist()):
        lines.append(",".join([sid, cond, *map(repr, row)]))
    _write_lines(path, lines)


def load_feature_matrix(path):
    """Parse a feature file; empty lines are skipped, and each rejection
    names its 1-based line in the file."""
    numbered = [(i, ln) for i, ln in
                enumerate(_read_text(path).split("\n"), start=1) if ln]
    if not numbered:
        raise MalformedFile("%s: empty feature file" % path)
    m = re.match(r"^layout=([^,]+),dim=(\d+)$", numbered[0][1])
    if not m:
        raise MalformedFile("%s line %d: expected `layout=<id>,dim=<n>`"
                            % (path, numbered[0][0]))
    layout, dim = m.group(1), int(m.group(2))
    want = declared_dim(layout)
    if want not in (None, dim):
        raise MalformedFile("%s line %d: layout %s declares dim %d, header "
                            "has %d"
                            % (path, numbered[0][0], layout, want, dim))
    line_nos = [i for i, _ in numbered[1:]]
    rows = [line.split(",") for _, line in numbered[1:]]
    for i, parts in zip(line_nos, rows):
        if len(parts) != dim + 2:
            raise MalformedFile(
                "%s line %d: expected %d fields, got %d"
                % (path, i, dim + 2, len(parts))
            )
        if parts[1] not in CONDITIONS:
            raise MalformedFile("%s line %d: unknown condition %r"
                                % (path, i, parts[1]))
    if not rows:
        raise MalformedFile("%s: feature file has no rows" % path)
    values = _parse_finite(path, [parts[2:] for parts in rows], line_nos)
    return FeatureMatrix(values, tuple(p[0] for p in rows),
                         tuple(p[1] for p in rows), layout)
