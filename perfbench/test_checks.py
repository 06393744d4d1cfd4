"""Each benchmark check accepts a right output and rejects a wrong one.

Run from the root of the checkout: python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import sys
from types import SimpleNamespace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from ecgid import bench, classify  # noqa: E402
from ecgid.cli import cli_main  # noqa: E402
from ecgid.features import FeatureMatrix  # noqa: E402
from ecgid.select import save_selection_weights, select_features  # noqa: E402


def _clusters(n_per, dim, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for k, sid in enumerate(("s01", "s02", "s03")):
        rows.append(rng.normal(3.0 * k, spread, size=(n_per, dim)))
        labels += [sid] * n_per
    return FeatureMatrix(np.vstack(rows), tuple(labels), ("rest",) * len(labels),
                         "toy")


# ===== R peaks ============================================================

def test_peaks_within_tolerance_pass_and_past_it_fail():
    truth = np.arange(150, 30000, 260)
    tol = checks.PEAK_TOL_SAMPLES
    assert checks.peak_failures("r", truth + tol, truth) == []
    assert checks.peak_failures("r", truth - tol, truth) == []
    assert checks.peak_failures("r", truth + tol + 1, truth)
    assert checks.peak_failures("r", truth - tol - 1, truth)


def test_missed_and_extra_peaks_fail():
    truth = np.arange(150, 30000, 260)
    assert checks.peak_failures("r", truth[::2], truth)       # sensitivity
    extra = np.sort(np.concatenate([truth, truth[::2] + 130]))
    assert checks.peak_failures("r", extra, truth)           # ppv


def test_peak_file_parses_detect_output():
    assert checks.parse_peak_file("12\n340\n\n") == [12, 340]


# ===== paper replication ==================================================

def _rep(acc, converged=True):
    return SimpleNamespace(test_accuracy=acc, converged=converged,
                           pipeline="p", protocol="q")


def test_paper_claims_accept_the_criterion_6_shape():
    sweep = [_rep(0.9), _rep(0.3)]
    assert checks.paper_claim_failures(_rep(0.99), _rep(0.65), _rep(0.02),
                                       sweep) == []


def test_report_with_rest_ex_not_below_rest_rest_fails():
    sweep = [_rep(0.9)]
    assert checks.paper_claim_failures(_rep(0.95), _rep(0.95), _rep(0.02),
                                       sweep)
    assert checks.paper_claim_failures(_rep(0.90), _rep(0.99), _rep(0.02),
                                       sweep)
    assert checks.survey_gap_failures({"qrs30": (0.9, 0.9)})
    assert checks.survey_gap_failures({"cwt": (0.8, 0.85)})
    assert checks.survey_gap_failures({"cwt": (0.9, 0.3)}) == []


def test_small_kl_gap_and_unconverged_reports_fail():
    assert checks.paper_claim_failures(_rep(0.99), _rep(0.6), _rep(0.5),
                                       [_rep(0.6)])
    assert checks.converged_failures([_rep(0.9, converged=False)])


def test_svm_check_accepts_a_trained_model_and_rejects_a_bad_bias():
    m = _clusters(8, 4, seed=1, spread=2.0)
    model = classify.svm_train(m, c=10.0, gamma=0.5, tol=1e-3)
    every_pair = range(len(model.pairs))
    assert checks.svm_model_failures(model, m.subject_ids, 1e-3,
                                     every_pair) == []
    pair = dataclasses.replace(model.pairs[0], bias=model.pairs[0].bias + 0.5)
    bad = dataclasses.replace(model, pairs=(pair,) + model.pairs[1:])
    assert checks.svm_model_failures(bad, m.subject_ids, 1e-3, [0])


def test_svm_check_rejects_an_unconverged_pair():
    m = _clusters(8, 4, seed=1, spread=2.0)
    model = classify.svm_train(m, c=10.0, gamma=0.5, tol=1e-3)
    pair = dataclasses.replace(model.pairs[1], converged=False,
                               kkt_violation=0.5)
    bad = dataclasses.replace(model, pairs=(model.pairs[0], pair)
                              + model.pairs[2:])
    assert checks.svm_model_failures(bad, m.subject_ids, 1e-3, [])


# ===== method survey ======================================================

def test_one_flipped_knn_label_fails():
    train = _clusters(10, 6, seed=2)
    test = _clusters(4, 6, seed=3)
    pred = classify.knn_predict(train, test, k=1).labels
    rows = range(test.n_rows)
    assert checks.knn_failures(train, test, pred, rows) == []
    flipped = list(pred)
    flipped[5] = "s03" if pred[5] != "s03" else "s01"
    assert checks.knn_failures(train, test, flipped, rows)


def test_knn_exact_tie_goes_to_the_lowest_train_row():
    train = FeatureMatrix(np.array([[1.0], [-1.0], [5.0]]), ("s02", "s01", "s03"),
                          ("rest",) * 3, "toy")
    test = FeatureMatrix(np.array([[0.0]]), ("s01",), ("rest",), "toy")
    assert checks.nearest_label(train.values, list(train.subject_ids),
                                test.values[0])[0] == "s02"
    assert checks.knn_failures(train, test, ["s02"], [0]) == []
    assert checks.knn_failures(train, test, ["s03"], [0])


def test_widths_follow_the_declared_layouts():
    assert checks.width_failures("fused", "fused", 10252) == []
    assert checks.width_failures("ac", "ac80", 80) == []
    assert checks.width_failures("cwt", "cwt", 9599)
    assert checks.width_failures("qrs30", "beat300", 30)


# ===== CLI walkthrough ====================================================

def test_nonzero_cli_exit_fails(tmp_path):
    assert checks.exit_code_failures([(["run"], 0), (["sweep"], 0)]) == []
    code = cli_main(["run", "--manifest", str(tmp_path / "missing.txt"),
                     "--protocol", "rest_rest"])
    assert code != 0
    assert checks.exit_code_failures([(["run"], code)])


def test_weights_file_must_flag_exactly_the_top_n(tmp_path):
    aux = FeatureMatrix(
        np.random.default_rng(4).normal(size=(12, 10)),
        tuple("s%02d" % (i % 3) for i in range(12)),
        tuple("rest" if i < 6 else "post_exercise" for i in range(12)), "toy")
    path = str(tmp_path / "w.txt")
    save_selection_weights(select_features(aux, 0.3, 4), path)
    with open(path) as fh:
        text = fh.read()
    assert checks.weights_failures(text, 4) == []
    assert checks.weights_failures(text, 5)
    lines = text.split("\n")
    i = next(k for k, ln in enumerate(lines[1:], 1) if ln.endswith(",1"))
    lines[i] = lines[i][:-1] + "0"
    assert checks.weights_failures("\n".join(lines), 4)


def _lib_report(pipeline, protocol, acc):
    return SimpleNamespace(pipeline=pipeline, protocol=protocol,
                           train_accuracy=1.0, test_accuracy=acc,
                           subject_majority_accuracy=1.0, n_subjects=3,
                           train_beats=10, test_beats=4, skipped_beats=0,
                           converged=True)


def test_merged_report_must_agree_with_the_library():
    reps = [_lib_report("qrs30+svm", "rest_rest", 0.75),
            _lib_report("qrs30+svm", "rest_ex", 0.5)]
    rows = [tuple(r) for r in (
        ("qrs30+svm", "rest_ex", "100.0%", "50.0%", "3", "10", "4", "0", "1",
         "100.0%"),
        ("qrs30+svm", "rest_rest", "100.0%", "75.0%", "3", "10", "4", "0",
         "1", "100.0%"))]
    text = bench.render_rows(rows, "markdown")
    parsed = checks.parse_markdown_report(text)
    assert checks.report_failures(parsed, reps) == []
    assert checks.report_failures(parsed[:1], reps)
    wrong = [dict(parsed[0], test_acc_pct="51.0%"), parsed[1]]
    assert checks.report_failures(wrong, reps)


# ===== benchmark definition and tracing ===================================

def test_benchmark_json_names_the_metrics_the_code_reports():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == tracing.PER_LAYER)


def test_tracer_wraps_names_imported_by_the_caller_and_restores_them():
    import ecgid.bench
    import ecgid.dsp
    original = ecgid.dsp.preprocess_ecg
    tracer = tracing.Tracer()
    with tracer.installed():
        assert ecgid.bench.preprocess_ecg is ecgid.dsp.preprocess_ecg
        assert ecgid.bench.preprocess_ecg is not original
        ecgid.bench.preprocess_ecg(np.random.default_rng(0).normal(size=900),
                                   300.0)
    assert ecgid.bench.preprocess_ecg is original
    assert [s[0] for s in tracer.spans] == ["dsp.preprocess_ecg"]
    metrics = tracer.metrics()
    assert metrics["dsp.preprocess_ecg_calls"] == 1
    assert metrics["dsp.preprocess_ecg_s"] > 0
