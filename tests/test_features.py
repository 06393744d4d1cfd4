"""Extractor dimensions, window-level oracles, z-score, and persistence."""

import math
import os
import tempfile

import numpy as np
import pytest
from conftest import FS, fixed_params
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ecgid.detect import QrsDetection, detect_r_peaks
from ecgid.dsp import hamming_window, preprocess_ecg
from ecgid.errors import (
    DegenerateWindow,
    DimensionMismatch,
    EcgidError,
    InvariantViolation,
    IoFailure,
    MalformedFile,
    NonFiniteSample,
    TooFewRows,
    WindowTooLong,
)
from ecgid.features import (
    FUSED_BLOCKS,
    FeatureMatrix,
    ac_beat_features,
    ac_features,
    autocorr_features,
    beat_features,
    concat_matrices,
    cwt_features,
    cwt_of_window,
    fused_features,
    load_feature_matrix,
    pqrst_features,
    qrs_features,
    save_feature_matrix,
    stft_features,
    stft_of_window,
    take_rows,
    zscore_apply,
    zscore_fit,
)
from ecgid.ingest import (
    EcgRecord,
    derive_seed,
    generate_subject_params,
    synthesize_record,
)
from ecgid.wavelets import mother_wavelet, wavelet_kernel


def synth_prepared(condition="rest", duration=30.0, seed=31, jitter=0.0,
                   rest_hr=60.0, ex_hr=100.0):
    params = fixed_params(rest_hr=rest_hr, ex_hr=ex_hr, jitter=jitter)
    rec, truth = synthesize_record(params, condition, duration, False, seed)
    x = preprocess_ecg(rec.samples, FS)
    prepared = EcgRecord("s01", condition, FS, x)
    det = detect_r_peaks(x, FS)
    return prepared, det, truth


# ===== type validation ====================================================

def test_feature_matrix_validation():
    with pytest.raises(InvariantViolation):
        FeatureMatrix(np.zeros((1, 29)), ("s",), ("rest",), "qrs30")
    with pytest.raises(InvariantViolation):
        FeatureMatrix(np.zeros((1, 4)), ("s",), ("rest",), "ac5")
    with pytest.raises(InvariantViolation):
        FeatureMatrix(np.full((1, 30), np.nan), ("s",), ("rest",), "qrs30")
    with pytest.raises(InvariantViolation):
        FeatureMatrix(np.zeros((2, 30)), ("a",), ("rest", "rest"), "qrs30")
    with pytest.raises(InvariantViolation):
        FeatureMatrix(np.zeros((1, 30)), ("a",), ("nap",), "qrs30")
    with pytest.raises(InvariantViolation):
        FeatureMatrix(np.zeros((0, 30)), (), (), "qrs30")


# ===== STFT window ========================================================

def test_stft_window_dimension_and_zero():
    assert stft_of_window(np.zeros(300)).size == 572
    assert np.allclose(stft_of_window(np.zeros(300)), 0.0)


def test_stft_pure_tone_bin():
    t = np.arange(300) / FS
    w = np.cos(2 * np.pi * 30.0 * t)
    vec = stft_of_window(w).reshape(22, 26)
    for frame in vec:
        assert int(np.argmax(frame)) == 5  # 30 Hz -> bin 30*50/300


def test_stft_homogeneous_degree_one():
    rng = np.random.default_rng(6)
    w = rng.standard_normal(300)
    base = stft_of_window(w)
    assert np.allclose(stft_of_window(2.5 * w), 2.5 * base, rtol=1e-12, atol=0)


# ===== CWT window =========================================================

def test_cwt_window_dimension_zero_linearity():
    assert cwt_of_window(np.zeros(300)).size == 9600
    assert np.allclose(cwt_of_window(np.zeros(300)), 0.0)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(300)
    base = cwt_of_window(w)
    scaled = cwt_of_window(3.0 * w)
    assert np.max(np.abs(scaled - 3.0 * base)) < 1e-9 * np.max(np.abs(base))


def test_cwt_matches_brute_force_on_toy_window():
    rng = np.random.default_rng(8)
    w = rng.standard_normal(32)
    out = cwt_of_window(w).reshape(32, 32)
    t = np.arange(32)
    for a in range(1, 33):
        for tau in range(32):
            direct = np.sum(w * mother_wavelet((t - tau) / a)) / np.sqrt(a)
            assert abs(out[a - 1, tau] - direct) < 1e-9


# ===== autocorrelation ====================================================

def test_autocorr_impulse_and_frozen_case():
    imp = np.zeros(10)
    imp[0] = 1.0
    assert np.allclose(autocorr_features(imp, 5), 0.0)
    vec = autocorr_features(np.ones(4), 2)
    assert vec[0] == 0.75
    rec, det, _ = synth_prepared()
    assert ac_features(rec, det).layout_id == "ac80"


def test_autocorr_exact_on_integer_windows():
    # integer-valued inputs make every partial sum exactly representable, so
    # the direct-summation oracle must agree bit for bit
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.integers(-8, 9, size=40).astype(float)
        if not np.any(x):
            x[0] = 1.0
        vec = autocorr_features(x, 20)
        r0 = sum(v * v for v in x)
        for m in range(1, 21):
            direct = sum(x[i] * x[i + m] for i in range(40 - m)) / r0
            assert vec[m - 1] == direct


def test_autocorr_bounds_and_scale_invariance():
    rng = np.random.default_rng(10)
    for _ in range(30):
        x = rng.standard_normal(40)
        vec = autocorr_features(x, 20)
        assert np.all(vec >= -1.0 - 1e-12) and np.all(vec <= 1.0 + 1e-12)
        scaled = autocorr_features(7.5 * x, 20)
        assert np.allclose(vec, scaled, rtol=1e-12, atol=1e-15)


def test_autocorr_errors():
    with pytest.raises(WindowTooLong):
        autocorr_features(np.ones(10), 6)
    with pytest.raises(DegenerateWindow):
        autocorr_features(np.zeros(10), 5)


# ===== matrix builders on synthetic data ==================================

def test_qrs_features_shape_and_peak_position():
    rec, det, _ = synth_prepared()
    m = qrs_features(rec, det)
    assert m.dim == 30 and m.layout_id == "qrs30"
    assert m.n_rows == len(det)
    argmaxes = np.argmax(np.abs(m.values), axis=1)
    med = np.median(argmaxes)
    assert np.all(np.abs(argmaxes - med) <= 2)


def test_beat_features_adjacent_correlation():
    rec, det, _ = synth_prepared()
    m = beat_features(rec, det)
    assert m.dim == 300
    for a, b in zip(m.values[:-1], m.values[1:]):
        c = np.corrcoef(a, b)[0, 1]
        assert c > 0.99


def test_pqrst_features_shape():
    rec, det, _ = synth_prepared(jitter=0.02)
    m = pqrst_features(rec, det)
    assert m.dim == 240
    assert m.n_rows >= 20


def test_transform_feature_dimensions():
    rec, det, _ = synth_prepared()
    stft = stft_features(rec, det)
    cwt = cwt_features(rec, det)
    ac = ac_features(rec, det)
    fused = fused_features(rec, det)
    assert stft.dim == 572 and cwt.dim == 9600 and ac.dim == 80
    assert fused.dim == 10252
    lo, hi = FUSED_BLOCKS["stft"]
    assert np.array_equal(fused.values[:, lo:hi], stft.values)
    lo, hi = FUSED_BLOCKS["cwt"]
    assert np.array_equal(fused.values[:, lo:hi], cwt.values)
    lo, hi = FUSED_BLOCKS["ac"]
    assert np.array_equal(fused.values[:, lo:hi], ac.values)


def test_window_skip_counting():
    samples = np.zeros(900)
    for r in (100, 450, 800):
        samples[r] = 1.0
    rec = EcgRecord("s01", "rest", FS, samples)
    det = QrsDetection(np.array([100, 450, 800]), np.array([90, 440, 790]),
                       np.array([110, 460, 810]), FS)
    m = stft_features(rec, det)
    assert m.n_rows == 1 and m.skipped == 2


def test_window_skip_counting_degenerate_windows():
    # the windows at 300 and 700 are all zero: no autocorrelation scale
    samples = np.zeros(1500)
    samples[1200] = 1.0
    rec = EcgRecord("s01", "rest", FS, samples)
    peaks = np.array([300, 700, 1200])
    det = QrsDetection(peaks, peaks - 10, peaks + 10, FS)
    for build in (ac_features, fused_features):
        m = build(rec, det)
        assert (m.n_rows, m.skipped) == (1, 2)
    for build in (stft_features, cwt_features):
        m = build(rec, det)
        assert (m.n_rows, m.skipped) == (3, 0)


def test_no_fitting_window_is_a_typed_error():
    samples = np.zeros(900)
    samples[[100, 800]] = 1.0
    rec = EcgRecord("s01", "rest", FS, samples)
    peaks = np.array([100, 800])
    det = QrsDetection(peaks, peaks - 10, peaks + 10, FS)
    for build in (stft_features, cwt_features, ac_features, fused_features):
        with pytest.raises(TooFewRows):
            build(rec, det)


def _per_window_oracle(w):
    # one window at a time, as the stft, cwt and ac stages once computed it
    ham = hamming_window(16)
    stft = np.concatenate([np.abs(np.fft.rfft(ham * w[o:o + 16], n=50))
                           for o in range(0, w.size - 15, 13)])
    cwt = []
    for a in range(1, 33):
        kernel = wavelet_kernel(float(a))
        half = kernel.size // 2
        full = np.convolve(w, kernel[::-1], mode="full")
        cwt.append(full[half:half + w.size])
    r0 = float(np.dot(w, w))
    ac = np.array([float(np.dot(w[:w.size - m], w[m:]))
                   for m in range(1, 81)]) / r0
    return stft, np.concatenate(cwt), ac


def test_window_stages_match_per_window_oracle():
    params = generate_subject_params("s01", 1)
    rec, _ = synthesize_record(params, "rest", 20.0, False,
                               rng_seed=derive_seed("record", 1, "s01", "rest"))
    det = detect_r_peaks(preprocess_ecg(rec.samples, FS), FS)
    windows = [rec.samples[r - 150:r + 150] for r in det.r_peaks
               if 150 <= r <= rec.samples.size - 150]
    stft = stft_features(rec, det).values
    cwt = cwt_features(rec, det).values
    ac = ac_features(rec, det).values
    assert len(windows) == stft.shape[0] == cwt.shape[0] == ac.shape[0] > 10
    for i, w in enumerate(windows):
        want_stft, want_cwt, want_ac = _per_window_oracle(w)
        assert np.array_equal(stft[i], want_stft)
        assert np.max(np.abs(cwt[i] - want_cwt)) <= 1e-10
        assert np.array_equal(ac[i], want_ac)


def test_fs300_requirement():
    rec = EcgRecord("s01", "rest", 250.0, np.zeros(1000))
    det = QrsDetection(np.array([300, 500]), np.array([290, 490]),
                       np.array([310, 510]), 250.0)
    with pytest.raises(InvariantViolation):
        stft_features(rec, det)
    with pytest.raises(InvariantViolation):
        cwt_features(rec, det)
    with pytest.raises(InvariantViolation, match="pqrst240"):
        pqrst_features(rec, det)
    with pytest.raises(InvariantViolation, match="fused"):
        fused_features(rec, det)


# ===== z-score ============================================================

def test_zscore_frozen_and_degenerate():
    m = FeatureMatrix(np.array([[1.0, 5.0], [3.0, 5.0]]), ("a", "b"),
                      ("rest", "rest"), "toy2")
    params = zscore_fit(m)
    out = zscore_apply(params, m)
    assert np.allclose(out.values[:, 0], [-1.0, 1.0], atol=1e-12)
    assert np.allclose(out.values[:, 1], 0.0)  # constant column degenerates


def test_zscore_normalizes_fit_population():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((40, 7)) * 5 + 3
    m = FeatureMatrix(vals, ("s",) * 40, ("rest",) * 40, "toy7")
    out = zscore_apply(zscore_fit(m), m)
    assert np.max(np.abs(out.values.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.values.var(axis=0) - 1.0)) < 1e-6


def test_zscore_affine_and_errors():
    rng = np.random.default_rng(12)
    fit = FeatureMatrix(rng.standard_normal((10, 3)), ("s",) * 10,
                        ("rest",) * 10, "toy3")
    params = zscore_fit(fit)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    ma = FeatureMatrix(a, ("s",) * 4, ("rest",) * 4, "toy3")
    mb = FeatureMatrix(b, ("s",) * 4, ("rest",) * 4, "toy3")
    mab = FeatureMatrix(a + b, ("s",) * 4, ("rest",) * 4, "toy3")
    za = zscore_apply(params, ma).values
    zb = zscore_apply(params, mb).values
    zab = zscore_apply(params, mab).values
    mu = params.mean / np.where(params.degenerate, 1.0, params.std)
    assert np.allclose(zab, za + zb + mu, atol=1e-9)

    with pytest.raises(TooFewRows):
        zscore_fit(take_rows(fit, [0]))
    bad = FeatureMatrix(np.zeros((2, 5)), ("s", "s"), ("rest", "rest"), "toy5")
    with pytest.raises(DimensionMismatch):
        zscore_apply(params, bad)


# ===== subsetting, concatenation, persistence =============================

def test_take_rows_and_concat():
    vals = np.arange(12.0).reshape(4, 3)
    m = FeatureMatrix(vals, ("a", "b", "c", "d"),
                      ("rest", "rest", "post_exercise", "rest"), "toy3")
    sub = take_rows(m, [2, 0])
    assert sub.subject_ids == ("c", "a")
    assert np.array_equal(sub.values, vals[[2, 0]])
    with pytest.raises(InvariantViolation, match="no row index"):
        take_rows(m, [])
    both = concat_matrices([sub, sub])
    assert both.n_rows == 4
    with pytest.raises(DimensionMismatch):
        concat_matrices([m, FeatureMatrix(np.zeros((1, 3)), ("x",),
                                          ("rest",), "other3")])


def test_feature_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    vals = rng.standard_normal((5, 8)) * 1e3
    m = FeatureMatrix(vals, ("s1", "s1", "s2", "s2", "s3"),
                      ("rest", "post_exercise") * 2 + ("rest",), "toy8")
    path = tmp_path / "feat.csv"
    save_feature_matrix(m, path)
    back = load_feature_matrix(path)
    assert back.layout_id == "toy8"
    assert back.subject_ids == m.subject_ids
    assert back.conditions == m.conditions
    assert np.array_equal(back.values, m.values)


def test_feature_matrix_load_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nonsense\n")
    with pytest.raises(MalformedFile):
        load_feature_matrix(p)
    p.write_text("layout=toy3,dim=3\ns1,rest,1.0,2.0\n")
    with pytest.raises(MalformedFile) as exc:
        load_feature_matrix(p)
    assert "line 2" in str(exc.value)
    p.write_text("layout=toy3,dim=3\ns1,rest,1.0,2.0,oops\n")
    with pytest.raises(MalformedFile):
        load_feature_matrix(p)
    p.write_text("layout=toy3,dim=3\ns1,rest,1,2,3\ns1,rest,1.0,nan,3\n")
    with pytest.raises(NonFiniteSample, match=r"bad\.csv line 3:"):
        load_feature_matrix(p)
    with pytest.raises(IoFailure, match=r"cannot read .*missing\.csv"):
        load_feature_matrix(tmp_path / "missing.csv")
    # blank lines count: the bad row is line 4 of the file
    p.write_text("layout=toy3,dim=3\ns1,rest,1,2,3\n\ns1,rest,1,x,3\n")
    with pytest.raises(MalformedFile, match=r"bad\.csv line 4:"):
        load_feature_matrix(p)
    p.write_text("layout=toy3,dim=3\n\ns1,rest,1,2\n")
    with pytest.raises(MalformedFile, match=r"bad\.csv line 3: expected 5"):
        load_feature_matrix(p)
    p.write_text("layout=toy3,dim=3\ns1,walk,1,2,3\n")
    with pytest.raises(MalformedFile, match=r"bad\.csv line 2: unknown"):
        load_feature_matrix(p)
    # the header's dim must be the layout's declared width
    p.write_text("layout=qrs30,dim=3\ns1,rest,1,2,3\n")
    with pytest.raises(MalformedFile, match=r"bad\.csv line 1: layout qrs30"):
        load_feature_matrix(p)


def per_line_float_load_matrix(path, dim):
    """Reference reader for a feature file whose line 1 is a valid header:
    (values, None) on success, else (None, (error type, 1-based line)).
    Field counts and conditions are checked on every row before any value
    is read; line None means the file has no rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    rows = [(i, line.split(",")) for i, line in enumerate(lines[1:], start=2)
            if line]
    for i, parts in rows:
        if len(parts) != dim + 2 or parts[1] not in ("rest", "post_exercise"):
            return None, (MalformedFile, i)
    if not rows:
        return None, (MalformedFile, None)
    values = []
    for i, parts in rows:
        for field in parts[2:]:
            try:
                v = float(field)
            except ValueError:
                return None, (MalformedFile, i)
            if not math.isfinite(v):
                return None, (NonFiniteSample, i)
            values.append(v)
    return np.array(values).reshape(len(rows), dim), None


FEATURE_FIELDS = st.one_of(
    st.floats().map(repr), st.text(alphabet="0123456789.e+-_x ", max_size=5),
    st.sampled_from(["nan", "-inf", "1e400", "-0.0", "5e-324", "1_0", ""]))
FEATURE_ROWS = st.builds(
    lambda sid, cond, vals: ",".join([sid, cond] + vals),
    st.sampled_from(["s1", "s2", ""]),
    st.sampled_from(["rest", "post_exercise", "walk"]),
    st.lists(FEATURE_FIELDS, min_size=2, max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(FEATURE_ROWS, st.sampled_from(["", " ", "\r"]),
                          st.text(max_size=8)), max_size=12))
@example(["s1,rest,1,2,3", "", "s1,rest,1,x,3"])
@example(["", "s1,rest,1,2"])
def test_load_feature_matrix_matches_per_line_float_oracle(lines):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.csv")
        with open(path, "wb") as fh:
            fh.write(("layout=toy3,dim=3\n" + "\n".join(lines) + "\n")
                     .encode("utf-8"))
        want, fault = per_line_float_load_matrix(path, 3)
        if fault is None:
            got = load_feature_matrix(path).values
            assert got.tobytes() == want.tobytes()
        else:
            with pytest.raises(EcgidError) as exc:
                load_feature_matrix(path)
            assert type(exc.value) is fault[0]
            if fault[1] is not None:
                assert "line %d:" % fault[1] in str(exc.value)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(0, 6)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[-0.0, 5e-324, -2.2250738585072014e-308,
                    1.7976931348623157e308]]))
def test_save_load_feature_matrix_is_identity(values):
    n = values.shape[0]
    m = FeatureMatrix(values, ["s%d" % i for i in range(n)],
                      ["rest", "post_exercise"] * (n // 2) + ["rest"] * (n % 2),
                      "toy")
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.csv")
        save_feature_matrix(m, path)
        back = load_feature_matrix(path)
    assert (back.subject_ids, back.conditions, back.layout_id) \
        == (m.subject_ids, m.conditions, m.layout_id)
    assert back.values.tobytes() == values.tobytes()
