"""Per-beat feature extraction and normalization.

Extractors turn one record plus its detection into a feature matrix with
one row per usable beat, in r_index order. Beats whose analysis windows
fall outside the record are skipped and counted, never padded.
"""

import re
from dataclasses import dataclass

import numpy as np

from .dsp import frame_magnitude_spectrum, hamming_window
from .errors import (
    DegenerateWindow,
    DimensionMismatch,
    EcgidError,
    InvariantViolation,
    MalformedFile,
    TooFewRows,
    WindowTooLong,
)
from .ingest import CONDITIONS
from .segment import (
    extract_pqrst,
    reconstruct_beat,
    resample_to_length,
    segment_beats_midpoint,
)
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
class FeatureVector:
    """One beat's features under a named layout."""

    values: np.ndarray
    layout_id: str
    subject_id: str
    condition: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        want = declared_dim(self.layout_id)
        if want is not None and v.size != want:
            raise InvariantViolation(
                "layout %s declares %d values, got %d"
                % (self.layout_id, want, v.size)
            )
        if not np.all(np.isfinite(v)):
            raise InvariantViolation("feature vector contains non-finite values")


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

    @property
    def labels(self):
        return np.array(self.subject_ids)


def take_rows(m, index):
    """Row-subset preserving labels and layout."""
    index = np.asarray(index)
    return FeatureMatrix(
        m.values[index],
        tuple(m.subject_ids[i] for i in index),
        tuple(m.conditions[i] for i in index),
        m.layout_id,
        m.skipped,
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


# ===== per-window helpers =================================================

def _require_fs300(record, layout):
    if int(round(record.sampling_rate_hz)) != 300:
        raise InvariantViolation(
            "%s layout dimensions are pinned to fs=300" % layout
        )


def _window_bounds(r, half_lo, half_hi, n):
    lo, hi = r - half_lo, r + half_hi
    if lo < 0 or hi > n:
        return None
    return lo, hi


def stft_of_window(w, window_n=STFT_WINDOW_N, hop=STFT_HOP, nfft=STFT_NFFT):
    """Concatenated one-sided magnitudes of Hamming-weighted frames."""
    w = np.asarray(w, dtype=float)
    ham = hamming_window(window_n)
    mags = []
    for offset in range(0, w.size - window_n + 1, hop):
        frame = ham * w[offset:offset + window_n]
        mags.append(frame_magnitude_spectrum(frame, nfft).magnitudes)
    return np.concatenate(mags)


def _same_length_correlate(w, kernel):
    # correlation with zero-padded borders; handles kernels longer than w
    half = kernel.size // 2
    full = np.convolve(w, kernel[::-1], mode="full")
    return full[half:half + w.size]


def cwt_of_window(w, n_scales=CWT_SCALES):
    """Wavelet coefficients at integer scales 1..n_scales, concatenated."""
    w = np.asarray(w, dtype=float)
    rows = [
        _same_length_correlate(w, wavelet_kernel(float(a)))
        for a in range(1, n_scales + 1)
    ]
    return np.concatenate(rows)


def autocorr_features(x, n_lags, subject_id="", condition="rest"):
    """Normalized autocorrelation at lags 1..n_lags (lag 0 is excluded).

    Parameters
    ----------
    x : array_like
        Analysis window.
    n_lags : int
        Number of lags; must satisfy n_lags <= len(x)/2.

    Returns
    -------
    FeatureVector with layout ``ac<n_lags>``.
    """
    x = np.asarray(x, dtype=float)
    if n_lags < 1:
        raise InvariantViolation("n_lags must be >= 1")
    if n_lags > x.size // 2:
        raise WindowTooLong(
            "n_lags %d exceeds half the window length %d" % (n_lags, x.size)
        )
    r0 = float(np.dot(x, x))
    if r0 == 0.0:
        raise DegenerateWindow("all-zero window has no autocorrelation scale")
    vals = np.array([float(np.dot(x[:x.size - m], x[m:])) for m in
                     range(1, n_lags + 1)]) / r0
    return FeatureVector(vals, "ac%d" % n_lags, subject_id, condition)


# ===== matrix builders ====================================================

def qrs_features(record, det):
    """Per beat, the [onset, offset) slice resampled to 30 samples."""
    rows = [
        resample_to_length(record.samples[on:off], 30)
        for on, off in zip(det.qrs_onsets, det.qrs_offsets)
    ]
    n = len(rows)
    return FeatureMatrix(np.vstack(rows), (record.subject_id,) * n,
                         (record.condition,) * n, "qrs30")


def beat_features(record, det):
    """Midpoint-to-midpoint beats resampled to 300 samples."""
    beats = segment_beats_midpoint(record, det)
    rows = [resample_to_length(b.samples, 300) for b in beats]
    n = len(rows)
    return FeatureMatrix(np.vstack(rows), (record.subject_id,) * n,
                         (record.condition,) * n, "beat300")


def pqrst_features(record, det):
    """Heart-rate-corrected 240-sample canonical beats."""
    r = det.r_peaks
    fs = record.sampling_rate_hz
    rows = []
    skipped = 0
    for k in range(1, r.size - 1):
        rr_prev = (int(r[k]) - int(r[k - 1])) / fs
        rr_next = (int(r[k + 1]) - int(r[k])) / fs
        hr = 60.0 / ((rr_prev + rr_next) / 2.0)
        try:
            parts = extract_pqrst(record, int(r[k]), rr_prev, hr_bpm=hr)
            beat = reconstruct_beat(parts, fs, record.subject_id,
                                    record.condition, int(r[k]))
        except EcgidError:
            skipped += 1
            continue
        rows.append(beat.samples)
    if not rows:
        raise TooFewRows("no beat produced a valid PQRST window")
    n = len(rows)
    return FeatureMatrix(np.vstack(rows), (record.subject_id,) * n,
                         (record.condition,) * n, "pqrst240", skipped)


def _centered_windows(record, det, window_len):
    half = window_len // 2
    n = record.samples.size
    out = []
    skipped = 0
    for r in det.r_peaks:
        bounds = _window_bounds(int(r), half, window_len - half, n)
        if bounds is None:
            skipped += 1
            continue
        out.append(record.samples[bounds[0]:bounds[1]])
    return out, skipped


def stft_features(record, det, window_n=STFT_WINDOW_N, hop=STFT_HOP,
                  nfft=STFT_NFFT):
    """Spectrogram magnitudes over the 1 s window centered at each R."""
    _require_fs300(record, "stft")
    windows, skipped = _centered_windows(record, det, 300)
    rows = [stft_of_window(w, window_n, hop, nfft) for w in windows]
    n = len(rows)
    return FeatureMatrix(np.vstack(rows), (record.subject_id,) * n,
                         (record.condition,) * n, "stft", skipped)


def cwt_features(record, det, n_scales=CWT_SCALES):
    """Wavelet coefficients over the 1 s window centered at each R."""
    _require_fs300(record, "cwt")
    windows, skipped = _centered_windows(record, det, 300)
    rows = [cwt_of_window(w, n_scales) for w in windows]
    n = len(rows)
    return FeatureMatrix(np.vstack(rows), (record.subject_id,) * n,
                         (record.condition,) * n, "cwt", skipped)


def ac_features(record, det, n_lags=AC_LAGS, window_s=1.0):
    """Autocorrelation features over windows of window_s seconds."""
    fs = record.sampling_rate_hz
    window_len = int(round(window_s * fs))
    windows, skipped = _centered_windows(record, det, window_len)
    rows = []
    for w in windows:
        try:
            rows.append(autocorr_features(w, n_lags).values)
        except DegenerateWindow:
            skipped += 1
    if not rows:
        raise TooFewRows("no usable autocorrelation window")
    n = len(rows)
    return FeatureMatrix(np.vstack(rows), (record.subject_id,) * n,
                         (record.condition,) * n, "ac%d" % n_lags, skipped)


def ac_beat_features(record, det, n_lags=AC_LAGS):
    """Autocorrelation of the 300-sample beat vectors."""
    beats = beat_features(record, det)
    rows = []
    skipped = beats.skipped
    for row in beats.values:
        try:
            rows.append(autocorr_features(row, n_lags).values)
        except DegenerateWindow:
            skipped += 1
    if not rows:
        raise TooFewRows("no usable beat for autocorrelation")
    n = len(rows)
    return FeatureMatrix(np.vstack(rows), (record.subject_id,) * n,
                         (record.condition,) * n, "ac%d_beat" % n_lags, skipped)


def fused_features(record, det):
    """stft (572) then cwt (9600) then 80-lag AC per 1 s window: 10252."""
    _require_fs300(record, "fused")
    windows, skipped = _centered_windows(record, det, 300)
    rows = []
    for w in windows:
        try:
            ac = autocorr_features(w, AC_LAGS).values
        except DegenerateWindow:
            skipped += 1
            continue
        rows.append(np.concatenate([stft_of_window(w), cwt_of_window(w), ac]))
    if not rows:
        raise TooFewRows("no usable fused window")
    n = len(rows)
    return FeatureMatrix(np.vstack(rows), (record.subject_id,) * n,
                         (record.condition,) * n, "fused", skipped)


FUSED_BLOCKS = {"stft": (0, 572), "cwt": (572, 10172), "ac": (10172, 10252)}


# ===== z-score ============================================================

@dataclass(frozen=True)
class ZScoreParams:
    """Per-feature mean/stddev of the fit population."""

    mean: np.ndarray
    std: np.ndarray
    n_fit: int

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
    return ZScoreParams(mean, std, m.n_rows)


def zscore_apply(params, m):
    if m.dim != params.mean.size:
        raise DimensionMismatch(
            "matrix dim %d vs params dim %d" % (m.dim, params.mean.size)
        )
    safe = np.where(params.degenerate, 1.0, params.std)
    out = (m.values - params.mean) / safe
    out[:, params.degenerate] = 0.0
    return FeatureMatrix(out, m.subject_ids, m.conditions, m.layout_id,
                         m.skipped)


# ===== persistence ========================================================

def save_feature_matrix(m, path):
    lines = ["layout=%s,dim=%d" % (m.layout_id, m.dim)]
    for sid, cond, row in zip(m.subject_ids, m.conditions, m.values):
        lines.append("%s,%s,%s" % (sid, cond,
                                   ",".join(repr(float(v)) for v in row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def load_feature_matrix(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise MalformedFile("%s: empty feature file" % path)
    m = re.match(r"^layout=([^,]+),dim=(\d+)$", lines[0])
    if not m:
        raise MalformedFile("%s line 1: expected `layout=<id>,dim=<n>`" % path)
    layout, dim = m.group(1), int(m.group(2))
    ids, conds, rows = [], [], []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise MalformedFile(
                "%s line %d: expected %d fields, got %d"
                % (path, i, dim + 2, len(parts))
            )
        ids.append(parts[0])
        conds.append(parts[1])
        try:
            rows.append([float(v) for v in parts[2:]])
        except ValueError:
            raise MalformedFile("%s line %d: non-numeric value" % (path, i))
    if not rows:
        raise MalformedFile("%s: feature file has no rows" % path)
    return FeatureMatrix(np.array(rows), tuple(ids), tuple(conds), layout)
