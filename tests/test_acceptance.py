"""Acceptance gates, one test per criterion with one printed summary line.

Run `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines;
criterion 6 synthesizes the full 45-subject reference cohort and dominates
the runtime (a few minutes on one core).
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from conftest import FS, match_peaks, write_cohort

from ecgid.bench import (
    PipelineConfig,
    _split_indices,
    aux_eval_split,
    cohort_matrix,
    fit_pipeline_state,
    run_pipeline,
    split_protocol,
    state_fingerprint,
    sweep_top_n,
)
from ecgid.classify import knn_predict, svm_predict, svm_train
from ecgid.cli import cli_main
from ecgid.detect import (
    derivative_filter,
    detect_r_peaks,
    moving_window_integrate,
    square_signal,
)
from ecgid.dsp import (
    design_butterworth_bandpass,
    filter_zero_phase,
    preprocess_ecg,
)
from ecgid.errors import OutOfTable
from ecgid.features import (
    FeatureMatrix,
    ac_features,
    autocorr_features,
    beat_features,
    cwt_features,
    fused_features,
    pqrst_features,
    qrs_features,
    stft_features,
    take_rows,
)
from ecgid.ingest import (
    build_cohort,
    derive_seed,
    generate_subject_params,
    load_manifest,
    synthesize_record,
)
from ecgid.segment import dt_threshold, resample_to_length
from ecgid.select import apply_selection, kl_sym, select_features

# Reference cohort for the qualitative-replication gate. The thresholds
# below are frozen together with this seed from its first oracle run;
# changing either invalidates the other.
REFERENCE_SEED = 8


def _emit(num, ok, detail):
    print("\n[criterion %d] %s %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (num, detail)


def _toy_matrix(values, labels, layout="toy"):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(values, tuple(labels),
                         tuple("rest" for _ in labels), layout)


def _reference_record(duration_s=20.0, noise_on=False):
    params = generate_subject_params("s01", 1)
    record, truth = synthesize_record(
        params, "rest", duration_s, noise_on,
        rng_seed=derive_seed("record", 1, "s01", "rest"))
    y = preprocess_ecg(record.samples, record.sampling_rate_hz)
    det = detect_r_peaks(y, record.sampling_rate_hz)
    return record, det, truth


# ===== 1: feature dimensions ==============================================

def test_criterion_1_feature_dimensions():
    t0 = time.monotonic()
    record, det, _ = _reference_record()
    dims = {
        "stft": stft_features(record, det).dim,
        "cwt": cwt_features(record, det).dim,
        "ac": ac_features(record, det, n_lags=80, window_s=1.0).dim,
        "fused": fused_features(record, det).dim,
        "qrs": qrs_features(record, det).dim,
        "beat": beat_features(record, det).dim,
        "pqrst": pqrst_features(record, det).dim,
    }
    expected = {"stft": 572, "cwt": 9600, "ac": 80, "fused": 10252,
                "qrs": 30, "beat": 300, "pqrst": 240}
    elapsed = time.monotonic() - t0
    ok = dims == expected and elapsed < 1.0
    _emit(1, ok, "feature dims %s (expected %s); %.2f s (< 1 s)"
          % (dims, expected, elapsed))


# ===== 2: formula oracles =================================================

def _direct_derivative(x):
    xp = np.concatenate([np.zeros(4), x])
    return np.array([(2.0 * xp[n + 4] + xp[n + 3] - xp[n + 1] - 2.0 * xp[n])
                     / 8.0 for n in range(x.size)])


def _direct_mwi(x, w):
    return np.array([np.sum(x[max(0, n - w + 1):n + 1]) / w
                     for n in range(x.size)])


def test_criterion_2_formula_oracles():
    failures = []

    # piecewise-linear resampler: hand values and affine preservation
    out = resample_to_length(np.array([0.0, 1.0, 2.0, 3.0]), 7)
    if np.max(np.abs(out - np.array([0, 0.5, 1, 1.5, 2, 2.5, 3]))) > 1e-9:
        failures.append("resampler hand values")
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.normal(size=rng.integers(4, 40))
        n = int(rng.integers(2, 60))
        a, b = rng.normal(), rng.normal()
        lhs = resample_to_length(a * y + b, n)
        rhs = a * resample_to_length(y, n) + b
        if np.max(np.abs(lhs - rhs)) > 1e-9:
            failures.append("resampler affine preservation")
            break

    # normalized autocorrelation: bit-exact against direct summation on
    # integer windows (every partial sum exactly representable)
    for _ in range(10):
        x = rng.integers(-8, 9, size=40).astype(float)
        if not np.any(x):
            x[0] = 1.0
        vec = autocorr_features(x, 20)
        r0 = sum(v * v for v in x)
        for m in range(1, 21):
            if vec[m - 1] != sum(x[i] * x[i + m] for i in range(40 - m)) / r0:
                failures.append("autocorrelation direct summation")
                break

    # symmetric Gaussian divergence closed forms
    if kl_sym(0.7, 1.3, 0.7, 1.3) != 0.0:
        failures.append("kl_sym zero case")
    if abs(kl_sym(0.0, 1.0, 1.0, 1.0) - 1.0) > 1e-9:
        failures.append("kl_sym unit mean shift")
    if abs(kl_sym(0.0, 1.0, 0.0, 2.0) - 1.125) > 1e-9:
        failures.append("kl_sym sigma ratio two")

    # selection weight identity w = lam*w1 - (1-lam)*w2 to 1e-12
    vals = rng.normal(size=(24, 6))
    sids = tuple("s%d" % (i % 3) for i in range(24))
    conds = tuple("rest" if (i // 3) % 2 == 0 else "post_exercise"
                  for i in range(24))
    aux = FeatureMatrix(vals, sids, conds, "toy")
    for lam in (0.0, 0.3, 1.0):
        sel = select_features(aux, lam, top_n=3)
        ident = lam * sel.w1 - (1.0 - lam) * sel.w2
        if np.max(np.abs(sel.w - ident)) > 1e-12:
            failures.append("selection weight identity at lam=%g" % lam)

    # heart-rate lookup: exact at all bracket boundaries, error past the end
    table = {30.0: -10.0, 65.0: 0.0, 80.0: 10.0, 95.0: 20.0,
             110.0: 30.0, 125.0: 40.0, 140.0: 50.0}
    for hr, want in table.items():
        if dt_threshold(hr) != want:
            failures.append("dt_threshold(%g)" % hr)
    with pytest.raises(OutOfTable):
        dt_threshold(155.0)

    # detection chain stages against direct convolution oracles
    x = rng.normal(size=400)
    if np.max(np.abs(derivative_filter(x) - _direct_derivative(x))) > 1e-9:
        failures.append("derivative oracle")
    if np.max(np.abs(square_signal(x) - x * x)) > 0.0:
        failures.append("squaring oracle")
    if np.max(np.abs(moving_window_integrate(x, 45)
                     - _direct_mwi(x, 45))) > 1e-9:
        failures.append("integration oracle")
    chain = moving_window_integrate(square_signal(derivative_filter(x)), 45)
    direct = _direct_mwi(_direct_derivative(x) ** 2, 45)
    if np.max(np.abs(chain - direct)) > 1e-9:
        failures.append("chain oracle")

    _emit(2, not failures,
          "resampler, autocorrelation, divergence, weight identity, "
          "rate table, detection chain all within stated tolerances"
          if not failures else "failed: %s" % ", ".join(failures))


# ===== 3: filter correctness ==============================================

def _unit_circle_mag(b, a, f_hz, fs_hz):
    w = 2.0 * np.pi * f_hz / fs_hz
    num = sum(bk * np.exp(-1j * w * k) for k, bk in enumerate(b))
    den = sum(ak * np.exp(-1j * w * k) for k, ak in enumerate(a))
    return abs(num / den)


def test_criterion_3_filter_magnitude_and_stability():
    c = design_butterworth_bandpass(4, 0.5, 40.0, FS)
    t = np.arange(int(20 * FS)) / FS
    mid = slice(t.size // 4, 3 * t.size // 4)
    worst = 0.0
    for f in (0.0, 0.5, 4.47, 40.0, 60.0):
        x = np.ones(t.size) if f == 0.0 else np.sin(2.0 * np.pi * f * t)
        measured = float(np.max(np.abs(filter_zero_phase(c, x)[mid])))
        # double-pass filtering squares the single-pass magnitude
        analytic = _unit_circle_mag(c.numerator, c.denominator, f, FS) ** 2
        worst = max(worst, abs(measured - analytic))
    stable = True
    for order, lo, hi, fs in [(4, 0.5, 40.0, 300.0), (4, 5.0, 15.0, 300.0),
                              (4, 10.0, 40.0, 300.0), (2, 1.0, 30.0, 250.0),
                              (6, 0.5, 40.0, 300.0)]:
        d = design_butterworth_bandpass(order, lo, hi, fs)
        if np.max(np.abs(np.roots(d.denominator))) >= 1.0 - 1e-8:
            stable = False
    ok = worst <= 0.05 and stable
    _emit(3, ok, "worst magnitude error %.4f (<= 0.05) at probes "
          "{0, 0.5, 4.47, 40, 60} Hz; all designs stable: %s"
          % (worst, stable))


# ===== 4: detection =======================================================

def test_criterion_4_detection_quality():
    t0 = time.monotonic()
    tp_all = det_all = truth_all = 0
    for seed in (101, 202, 303):
        cohort = build_cohort(10, seed, rest_duration_s=60.0,
                              ex_duration_s=60.0, noise_on=False)
        for record, truth in cohort:
            y = preprocess_ecg(record.samples, record.sampling_rate_hz)
            det = detect_r_peaks(y, record.sampling_rate_hz)
            tp, nd, nt = match_peaks(det.r_peaks, truth, tol=3)
            tp_all += tp
            det_all += nd
            truth_all += nt
    sens = tp_all / truth_all
    ppv = tp_all / det_all

    params = generate_subject_params("s01", 404)
    record, _ = synthesize_record(params, "rest", 30.0, False, 404)
    y = preprocess_ecg(record.samples, record.sampling_rate_hz)
    base = detect_r_peaks(y, record.sampling_rate_hz)
    scale_ok = True
    for alpha in (0.5, 50.0):
        scaled = detect_r_peaks(alpha * y, record.sampling_rate_hz)
        scale_ok = scale_ok and (
            np.array_equal(base.r_peaks, scaled.r_peaks)
            and np.array_equal(base.qrs_onsets, scaled.qrs_onsets)
            and np.array_equal(base.qrs_offsets, scaled.qrs_offsets))
    elapsed = time.monotonic() - t0
    ok = sens >= 0.99 and ppv >= 0.99 and scale_ok and elapsed < 30.0
    _emit(4, ok, "sensitivity %.4f ppv %.4f (>= 0.99 at +-3 samples, "
          "%d beats); scale invariance exact: %s; %.1f s (< 30 s)"
          % (sens, ppv, truth_all, scale_ok, elapsed))


# ===== 5: classifier ======================================================

def test_criterion_5_classifier_fixtures():
    failures = []

    centers = [(-4.0, 0.0), (0.0, 4.0), (4.0, 0.0)]
    rng = np.random.default_rng(5)
    vals, labels = [], []
    for (cx, cy), lab in zip(centers, "abc"):
        vals.append(rng.normal((cx, cy), 0.2, size=(8, 2)))
        labels += [lab] * 8
    separable = _toy_matrix(np.vstack(vals), labels)
    model = svm_train(separable)
    pred = svm_predict(model, separable)
    if list(pred.labels) != list(separable.subject_ids):
        failures.append("separable training accuracy")
    if not all(p.converged and p.kkt_violation <= 1e-3 for p in model.pairs):
        failures.append("separable convergence")

    xor_vals, xor_labels = [], []
    for (cx, cy), lab in zip([(1, 1), (-1, -1), (1, -1), (-1, 1)], "aabb"):
        xor_vals.append(rng.normal((cx, cy), 0.1, size=(10, 2)))
        xor_labels += [lab] * 10
    xor = _toy_matrix(np.vstack(xor_vals), xor_labels)
    model = svm_train(xor, c=100.0, gamma=1.0)
    pred = svm_predict(model, xor)
    if list(pred.labels) != list(xor.subject_ids):
        failures.append("xor training accuracy")
    if not all(p.converged and p.kkt_violation <= 1e-3 for p in model.pairs):
        failures.append("xor convergence")

    for seed in range(3):
        rng = np.random.default_rng(seed)
        train_vals = rng.normal(size=(20, 3))
        labels = [rng.choice(["a", "b", "c"]) for _ in range(20)]
        test_vals = rng.normal(size=(12, 3))
        train = _toy_matrix(train_vals, labels)
        probes = _toy_matrix(test_vals, ["a"] * 12)
        for k in (1, 3, 7):
            got = list(knn_predict(train, probes, k=k).labels)
            expected = []
            for tv in test_vals:
                d2 = sorted((float(np.sum((tv - tr) ** 2)), i)
                            for i, tr in enumerate(train_vals))
                near = [labels[i] for _, i in d2[:k]]
                expected.append(sorted(set(near),
                                       key=lambda s: (-near.count(s), s))[0])
            if got != expected:
                failures.append("knn oracle seed %d k %d" % (seed, k))

    _emit(5, not failures,
          "separable and xor fixtures converge at kkt <= 1e-3 with 100%% "
          "training accuracy; knn matches brute force on 20-row sets"
          if not failures else "failed: %s" % ", ".join(failures))


# ===== 6: qualitative replication on the reference cohort ================

def test_criterion_6_qualitative_replication(tmp_path):
    t0 = time.monotonic()
    manifest = write_cohort(str(tmp_path), 45, REFERENCE_SEED,
                            rest_s=300.0, ex_s=150.0, noise_on=True)
    cache = {}
    cfg = PipelineConfig(stage="qrs30", reduction="pca")
    rest_rest = run_pipeline(manifest, cfg, "rest_rest", REFERENCE_SEED,
                             cache=cache)
    rest_ex = run_pipeline(manifest, cfg, "rest_ex", REFERENCE_SEED,
                           cache=cache)

    fused_cfg = PipelineConfig(stage="fused", normalize=True,
                               max_beats_per_subject=40)
    fused = run_pipeline(manifest, fused_cfg, "rest_ex", REFERENCE_SEED,
                         cache=cache)
    kl_cfg = dataclasses.replace(fused_cfg, stage="fused_kl", lam=0.3)
    sweep = sweep_top_n(manifest, kl_cfg, "rest_ex", REFERENCE_SEED,
                        (50, 100, 200, 400, 800), cache=cache)
    best = max(sweep, key=lambda r: r.test_accuracy)

    ex_first = run_pipeline(manifest, cfg, "ex_first70", REFERENCE_SEED,
                            cache=cache)
    ex_last = run_pipeline(manifest, cfg, "ex_last70", REFERENCE_SEED,
                           cache=cache)
    elapsed = time.monotonic() - t0

    gap_ab = rest_rest.test_accuracy - rest_ex.test_accuracy
    gap_kl = best.test_accuracy - fused.test_accuracy
    ok = (rest_rest.test_accuracy >= 0.90 and gap_ab >= 0.30
          and gap_kl >= 0.15 and elapsed <= 300.0)
    _emit(6, ok,
          "rest_rest %.3f (>= 0.90); rest_ex %.3f, gap %.3f (>= 0.30); "
          "fused %.3f vs best %s %.3f, gap %.3f (>= 0.15); "
          "ex_first70 %.3f / ex_last70 %.3f (ordering not asserted); "
          "%.0f s (<= 300 s)"
          % (rest_rest.test_accuracy, rest_ex.test_accuracy, gap_ab,
             fused.test_accuracy, best.pipeline, best.test_accuracy, gap_kl,
             ex_first.test_accuracy, ex_last.test_accuracy, elapsed))


# ===== 7: CLI determinism =================================================

def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _dir_bytes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        out[name] = _read(os.path.join(d, name))
    return out


def test_criterion_7_cli_determinism(tmp_path):
    failures = []

    gen_a = str(tmp_path / "gen_a")
    gen_b = str(tmp_path / "gen_b")
    for out in (gen_a, gen_b):
        args = ["gen", "--subjects", "3", "--seed", "5", "--out", out,
                "--rest-duration", "30", "--ex-duration", "20"]
        if cli_main(args) != 0:
            failures.append("gen exit code")
    if _dir_bytes(gen_a) != _dir_bytes(gen_b):
        failures.append("gen outputs")
    manifest = os.path.join(gen_a, "manifest.txt")
    record = os.path.join(gen_a, "s01_rest.txt")

    pairs = {
        "detect": ["detect", "--record", record, "--subject", "s01",
                   "--condition", "rest"],
        "featurize": ["featurize", "--manifest", manifest, "--stage", "ac"],
        "run": ["run", "--manifest", manifest, "--protocol", "rest_rest",
                "--seed", "5"],
    }
    outputs = {}
    for name, args in pairs.items():
        paths = [str(tmp_path / ("%s_%d.txt" % (name, i))) for i in (0, 1)]
        for p in paths:
            if cli_main(args + ["--out", p]) != 0:
                failures.append("%s exit code" % name)
        if _read(paths[0]) != _read(paths[1]):
            failures.append("%s outputs" % name)
        outputs[name] = paths[0]

    sel = [str(tmp_path / ("sel_%d.txt" % i)) for i in (0, 1)]
    for p in sel:
        code = cli_main(["select", "--features", outputs["featurize"],
                         "--lam", "0.3", "--top-n", "10", "--out", p])
        if code != 0:
            failures.append("select exit code")
    if _read(sel[0]) != _read(sel[1]):
        failures.append("select outputs")

    rep = [str(tmp_path / ("rep_%d.csv" % i)) for i in (0, 1)]
    for p in rep:
        code = cli_main(["report", "--inputs", outputs["run"],
                         outputs["run"], "--out", p])
        if code != 0:
            failures.append("report exit code")
    if _read(rep[0]) != _read(rep[1]):
        failures.append("report outputs")

    _emit(7, not failures,
          "gen, detect, featurize, select, run, report byte-identical "
          "across repeated invocations"
          if not failures else "failed: %s" % ", ".join(failures))


# ===== 8: no leakage ======================================================

def _leak_check(manifest, config, protocol, seed, cache):
    """Fingerprint of the fitted state must ignore test-side values."""
    report = run_pipeline(manifest, config, protocol, seed, cache=cache)
    matrix, _ = cohort_matrix(manifest, config, protocol, seed, cache)

    def fit_fingerprint(m):
        selection = None
        if config.stage == "fused_kl":
            man = load_manifest(manifest)
            aux_sids, eval_sids = aux_eval_split(man.subject_ids, seed)
            sid = np.array(m.subject_ids)
            aux = take_rows(m, np.flatnonzero(np.isin(sid, aux_sids)))
            selection = select_features(aux, config.lam, config.top_n)
            m = apply_selection(selection,
                                take_rows(m, np.flatnonzero(
                                    np.isin(sid, eval_sids))))
        split = split_protocol(m, protocol)
        return state_fingerprint(
            fit_pipeline_state(split.train, config, selection))

    if fit_fingerprint(matrix) != report.state_fingerprint:
        return "refit differs"

    # poison every row that only ever appears on the test side
    sid = np.array(matrix.subject_ids)
    cond = np.array(matrix.conditions)
    poison = []
    if protocol == "rest_ex":
        keep = set(matrix.subject_ids)
        if config.stage == "fused_kl":
            man = load_manifest(manifest)
            keep = set(aux_eval_split(man.subject_ids, seed)[1])
        poison = np.flatnonzero(np.isin(sid, sorted(keep))
                                & (cond == "post_exercise"))
    else:
        base = "rest" if protocol == "rest_rest" else "post_exercise"
        for s in sorted(set(matrix.subject_ids)):
            rows = np.flatnonzero((sid == s) & (cond == base))
            _, test_idx = _split_indices(rows.size, protocol)
            poison.extend(rows[test_idx])
        poison = np.array(sorted(poison), dtype=int)
    values = matrix.values.copy()
    values[poison] = np.random.default_rng(99).normal(
        size=(len(poison), matrix.dim))
    poisoned = FeatureMatrix(values, matrix.subject_ids, matrix.conditions,
                             matrix.layout_id)
    if fit_fingerprint(poisoned) != report.state_fingerprint:
        return "poisoned test rows moved the fitted state"
    return None


def test_criterion_8_no_leakage(tmp_path):
    manifest = write_cohort(str(tmp_path), 4, 11, rest_s=30.0, ex_s=20.0)
    cache = {}
    cases = [
        (PipelineConfig(stage="qrs30"), "rest_rest"),
        (PipelineConfig(stage="beat300", normalize=True, classifier="knn",
                        knn_k=3), "rest_rest"),
        (PipelineConfig(stage="pqrst240", reduction="pca"), "rest_rest"),
        (PipelineConfig(stage="bandpass10_40+beat300"), "rest_rest"),
        (PipelineConfig(stage="stft", reduction="pca"), "ex_first70"),
        (PipelineConfig(stage="cwt", reduction="pca"), "rest_rest"),
        (PipelineConfig(stage="ac", classifier="knn"), "ex_last70"),
        (PipelineConfig(stage="ac_beat"), "rest_rest"),
        (PipelineConfig(stage="fused", normalize=True), "rest_ex"),
        (PipelineConfig(stage="fused_kl", normalize=True, top_n=20),
         "rest_ex"),
    ]
    failures = []
    for config, protocol in cases:
        problem = _leak_check(manifest, config, protocol, 3, cache)
        if problem:
            failures.append("%s/%s: %s"
                            % (config.pipeline_id, protocol, problem))
    _emit(8, not failures,
          "fitted-state fingerprints unchanged under test-row poisoning "
          "for %d pipeline configs" % len(cases)
          if not failures else "failed: %s" % "; ".join(failures))
