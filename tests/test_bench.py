"""Tests for the experiment harness: config, splits, runs, reports."""

import dataclasses
import inspect
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import write_cohort
import ecgid.bench as bench
from ecgid.bench import (
    CLASSIFIERS,
    REDUCTIONS,
    REPORT_COLUMNS,
    STAGES,
    ExperimentReport,
    PipelineConfig,
    aux_eval_split,
    cohort_matrix,
    config_to_text,
    featurize_cohort,
    fit_pipeline_state,
    parse_config,
    parse_report_csv,
    render_report,
    render_rows,
    run_pipeline,
    split_protocol,
    state_fingerprint,
    subject_majority_accuracy,
    sweep_top_n,
    _split_indices,
)
from ecgid.classify import PredictionResult
from ecgid.cli import cli_main
from ecgid.errors import (
    EcgidError,
    EmptyCohort,
    InvariantViolation,
    IoFailure,
    MalformedFile,
    NoBeatsFound,
    StageFailure,
)
from ecgid.features import FeatureMatrix
from ecgid.ingest import EcgRecord, save_record


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    d = tmp_path_factory.mktemp("cohort3")
    return write_cohort(str(d), n_subjects=3, seed=5)


@pytest.fixture(scope="module")
def fused_manifest(tmp_path_factory):
    d = tmp_path_factory.mktemp("cohort4")
    return write_cohort(str(d), n_subjects=4, seed=11)


def toy_matrix(per_subject_rows, layout="toy"):
    """per_subject_rows: list of (sid, condition, n_rows); values encode the
    global row ordinal so chronology is checkable."""
    vals, sids, conds = [], [], []
    at = 0
    for sid, cond, n in per_subject_rows:
        for _ in range(n):
            vals.append([float(at)])
            sids.append(sid)
            conds.append(cond)
            at += 1
    return FeatureMatrix(np.array(vals), tuple(sids), tuple(conds), layout)


# ===== config =============================================================

def test_config_round_trip():
    cfg = PipelineConfig(stage="ac", n_lags=40, window_s=1.0,
                         reduction="pca", normalize=True, classifier="knn",
                         knn_k=3, max_beats_per_subject=50)
    back = parse_config(config_to_text(cfg))
    assert back == cfg


def test_config_parse_ignores_comments_and_blanks():
    cfg = parse_config("# comment\n\nstage=cwt\n normalize = on \n")
    assert cfg.stage == "cwt"
    assert cfg.normalize is True


def test_config_parse_rejects_bad_lines():
    with pytest.raises(MalformedFile):
        parse_config("stage qrs30\n")
    with pytest.raises(MalformedFile):
        parse_config("no_such_key=1\n")
    with pytest.raises(MalformedFile):
        parse_config("top_n=abc\n")


def test_config_validation():
    with pytest.raises(InvariantViolation):
        PipelineConfig(stage="nope")
    with pytest.raises(InvariantViolation):
        PipelineConfig(reduction="lda")
    with pytest.raises(InvariantViolation):
        PipelineConfig(classifier="forest")
    with pytest.raises(InvariantViolation):
        PipelineConfig(lam=1.5)
    with pytest.raises(InvariantViolation):
        PipelineConfig(stage="ac", n_lags=200, window_s=1.0)
    for name in ("c", "gamma", "tol", "window_s"):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvariantViolation, match=name):
                PipelineConfig(**{name: bad})
    for bad in (0, -1):
        with pytest.raises(InvariantViolation, match="max_epochs"):
            PipelineConfig(max_epochs=bad)
    PipelineConfig(c=1e-3, gamma=1e-9, tol=1e-12, max_epochs=1)


CONFIG_KEYS = [f.name for f in dataclasses.fields(PipelineConfig)]
CONFIG_VALUES = list(STAGES + REDUCTIONS + CLASSIFIERS) + [
    "on", "OFF", "true", "0", "1", "-1", "80", "0.5", "1e300", "inf", "nan",
    "1_0", " 2 ", ""]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.builds("{}={}".format, st.sampled_from(CONFIG_KEYS),
              st.one_of(st.sampled_from(CONFIG_VALUES), st.text(max_size=6))),
    st.sampled_from(["", "# note", "=1", "stage"]),
    st.text(max_size=12)), max_size=8).map("\n".join))
def test_parse_config_parses_or_raises_typed(text):
    try:
        cfg = parse_config(text)
    except EcgidError:
        return
    assert isinstance(cfg, PipelineConfig)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def pipeline_configs(draw):
    """Any config PipelineConfig accepts, over the full range of each
    field it leaves to later stages."""
    values = dict(
        stage=draw(st.sampled_from(STAGES)), n_lags=draw(st.integers()),
        window_s=draw(POSITIVE), lam=draw(st.floats(0.0, 1.0)),
        top_n=draw(st.integers()), reduction=draw(st.sampled_from(REDUCTIONS)),
        normalize=draw(st.booleans()),
        classifier=draw(st.sampled_from(CLASSIFIERS)), c=draw(POSITIVE),
        gamma=draw(POSITIVE), tol=draw(POSITIVE),
        max_epochs=draw(st.integers(min_value=1)), knn_k=draw(st.integers()),
        max_beats_per_subject=draw(st.integers(min_value=1)))
    assume(values["stage"] != "ac"
           or values["n_lags"] < values["window_s"] * 300.0 / 2)
    return PipelineConfig(**values)


@settings(max_examples=200, deadline=None)
@given(pipeline_configs())
def test_config_text_round_trip(cfg):
    assert parse_config(config_to_text(cfg)) == cfg


def test_pipeline_ids():
    assert PipelineConfig(stage="qrs30", reduction="pca").pipeline_id \
        == "qrs30+pca+svm"
    assert PipelineConfig(stage="fused_kl", lam=0.3, top_n=200,
                          normalize=True).pipeline_id \
        == "fused_kl(0.3,200)+zscore+svm"
    assert PipelineConfig(stage="ac", n_lags=80,
                          classifier="knn").pipeline_id == "ac(80,1)+knn1"


# ===== protocol split =====================================================

def test_split_indices_arithmetic():
    tr, te = _split_indices(10, "rest_rest")
    assert list(tr) == list(range(7)) and list(te) == [7, 8, 9]
    tr, te = _split_indices(10, "ex_first70")
    assert list(tr) == list(range(7)) and list(te) == [7, 8, 9]
    tr, te = _split_indices(10, "ex_last70")
    assert list(tr) == [3, 4, 5, 6, 7, 8, 9] and list(te) == [0, 1, 2]


def test_split_rest_rest_chronological():
    m = toy_matrix([("s00", "rest", 20), ("s01", "rest", 20)])
    split = split_protocol(m, "rest_rest")
    assert split.n_subjects == 2
    assert split.train.n_rows == 28 and split.test.n_rows == 12
    s0_train = [v for v, s in zip(split.train.values[:, 0],
                                  split.train.subject_ids) if s == "s00"]
    assert s0_train == [float(i) for i in range(14)]
    s0_test = [v for v, s in zip(split.test.values[:, 0],
                                 split.test.subject_ids) if s == "s00"]
    assert s0_test == [float(i) for i in range(14, 20)]


def test_split_ex_last70_takes_late_rows_for_training():
    m = toy_matrix([("s00", "post_exercise", 20)])
    split = split_protocol(m, "ex_last70")
    assert list(split.train.values[:, 0]) == [float(i) for i in range(6, 20)]
    assert list(split.test.values[:, 0]) == [float(i) for i in range(6)]


def test_split_rest_ex_whole_conditions():
    m = toy_matrix([("s00", "rest", 15), ("s00", "post_exercise", 12),
                    ("s01", "rest", 15), ("s01", "post_exercise", 12)])
    split = split_protocol(m, "rest_ex")
    assert split.train.n_rows == 30 and split.test.n_rows == 24
    assert set(split.train.conditions) == {"rest"}
    assert set(split.test.conditions) == {"post_exercise"}


def test_split_drops_short_subjects_with_counter():
    # 10 rest rows give only 7 training rows, below the 10-row floor
    m = toy_matrix([("s00", "rest", 30), ("s01", "rest", 10)])
    split = split_protocol(m, "rest_rest")
    assert split.dropped_subjects == ("s01",)
    assert split.n_subjects == 1
    assert set(split.train.subject_ids) == {"s00"}


def test_split_empty_cohort_raises():
    m = toy_matrix([("s00", "rest", 10), ("s01", "rest", 9)])
    with pytest.raises(EmptyCohort):
        split_protocol(m, "rest_rest")


def test_split_unknown_protocol():
    m = toy_matrix([("s00", "rest", 30)])
    with pytest.raises(InvariantViolation):
        split_protocol(m, "kfold")


def test_aux_eval_split_partitions():
    subjects = ["s%02d" % i for i in range(9)]
    aux, eval_ = aux_eval_split(subjects, seed=7)
    assert len(aux) == 4 and len(eval_) == 5
    assert sorted(aux + eval_) == subjects
    assert aux_eval_split(subjects, seed=7) == (aux, eval_)
    assert aux_eval_split(subjects, seed=8) != (aux, eval_)


# ===== pipeline runs ======================================================

def test_run_pipeline_qrs30_rest_rest(small_manifest):
    cfg = PipelineConfig(stage="qrs30", reduction="pca")
    report = run_pipeline(small_manifest, cfg, "rest_rest", seed=1)
    assert report.pipeline == "qrs30+pca+svm"
    assert report.protocol == "rest_rest"
    assert report.n_subjects == 3
    assert report.train_beats >= 30 and report.test_beats >= 9
    assert 0.0 <= report.test_accuracy <= 1.0
    # three well-separated synthetic subjects at rest are easy
    assert report.test_accuracy >= 0.8
    assert report.train_accuracy >= 0.8
    assert report.converged
    assert sum(n for (_, _, n) in report.confusion) == report.test_beats


def test_run_pipeline_deterministic_and_cacheable(small_manifest):
    cfg = PipelineConfig(stage="qrs30", reduction="pca")
    cache = {}
    a = run_pipeline(small_manifest, cfg, "rest_rest", seed=1, cache=cache)
    b = run_pipeline(small_manifest, cfg, "rest_rest", seed=1, cache=cache)
    c = run_pipeline(small_manifest, cfg, "rest_rest", seed=1)
    assert a == b == c


def test_run_without_cache_loads_each_record_once(small_manifest,
                                                 monkeypatch):
    loads = []
    real_load = bench.load_record

    def counting_load(path, sid, cond):
        loads.append((sid, cond))
        return real_load(path, sid, cond)
    monkeypatch.setattr(bench, "load_record", counting_load)
    cfg = PipelineConfig(stage="qrs30")
    run_pipeline(small_manifest, cfg, "rest_rest", seed=1)
    assert sorted(loads) == [("s01", "rest"), ("s02", "rest"), ("s03", "rest")]
    loads.clear()
    featurize_cohort(small_manifest, cfg, [("s02", "post_exercise")])
    assert loads == [("s02", "post_exercise")]


# a second valid value of each field an extractor reads
OTHER_VALUE = {"n_lags": 10, "window_s": 1.0}


@pytest.mark.parametrize("stage,field", [
    (stage, field) for stage, (_, reads) in bench.STAGE_EXTRACTORS.items()
    for field in reads])
def test_cached_rows_are_keyed_by_the_fields_their_extractor_reads(
        small_manifest, stage, field):
    cfg = PipelineConfig(stage=stage, n_lags=20, window_s=0.5,
                         classifier="knn")
    warm = dataclasses.replace(cfg, **{field: OTHER_VALUE[field]})
    cache = {}
    warm_report = run_pipeline(small_manifest, warm, "rest_rest", 1,
                               cache=cache)
    fresh = run_pipeline(small_manifest, cfg, "rest_rest", 1)
    assert warm_report.state_fingerprint != fresh.state_fingerprint
    assert run_pipeline(small_manifest, cfg, "rest_rest", 1,
                        cache=cache) == fresh


def test_stage_table_names_every_parameter_its_extractor_takes():
    # a parameter left out of the table would run at its default and be
    # missing from the cache key
    for stage, (name, reads) in bench.STAGE_EXTRACTORS.items():
        params = inspect.signature(getattr(bench._features, name)).parameters
        assert list(params) == ["record", "det", *reads], stage


def test_stages_share_cached_rows_only_on_the_same_extractor_and_band(
        small_manifest):
    entries = [("s01", "rest"), ("s02", "post_exercise")]
    beat = PipelineConfig(stage="beat300", classifier="knn")
    narrow = PipelineConfig(stage="bandpass10_40+beat300", classifier="knn")
    cache = {}
    run_pipeline(small_manifest, beat, "rest_rest", 1, cache=cache)
    assert run_pipeline(small_manifest, narrow, "rest_rest", 1,
                        cache=cache) \
        == run_pipeline(small_manifest, narrow, "rest_rest", 1)
    assert not np.array_equal(
        featurize_cohort(small_manifest, beat, entries, cache).values,
        featurize_cohort(small_manifest, narrow, entries, cache).values)
    # fused and fused_kl read the same signal with the same extractor
    featurize_cohort(small_manifest, PipelineConfig(stage="fused"), entries,
                     cache)
    n = len(cache)
    featurize_cohort(small_manifest, PipelineConfig(stage="fused_kl"),
                     entries, cache)
    assert len(cache) == n


def test_run_pipeline_ac_pca_knn(small_manifest):
    cfg = PipelineConfig(stage="ac", reduction="pca", classifier="knn")
    report = run_pipeline(small_manifest, cfg, "rest_rest", seed=1)
    assert report.pipeline == cfg.pipeline_id
    assert 0.0 <= report.test_accuracy <= 1.0


def test_run_pipeline_knn(small_manifest):
    cfg = PipelineConfig(stage="qrs30", classifier="knn", knn_k=1)
    report = run_pipeline(small_manifest, cfg, "rest_rest", seed=1)
    assert report.converged
    assert report.pipeline == "qrs30+knn1"
    assert 0.0 <= report.test_accuracy <= 1.0


def test_run_pipeline_rest_ex_uses_whole_conditions(small_manifest):
    cfg = PipelineConfig(stage="beat300", normalize=True)
    cache = {}
    report = run_pipeline(small_manifest, cfg, "rest_ex", seed=1, cache=cache)
    rest_rows, _ = cohort_matrix(small_manifest, cfg, "rest_rest", 1, cache)
    assert report.train_beats == rest_rows.n_rows
    assert report.test_beats >= 3


def test_featurize_cohort_stacks_entries_in_order(small_manifest):
    cfg = PipelineConfig(stage="qrs30")
    cache = {}
    matrix, skipped = cohort_matrix(small_manifest, cfg, "rest_rest", 1, cache)
    rest = [("s01", "rest"), ("s02", "rest"), ("s03", "rest")]
    m = featurize_cohort(small_manifest, cfg, rest, cache)
    assert np.array_equal(m.values, matrix.values)
    assert m.subject_ids == matrix.subject_ids and m.skipped == skipped
    back = featurize_cohort(small_manifest, cfg, rest[::-1], cache)
    assert back.subject_ids[0] == "s03" and back.subject_ids[-1] == "s01"
    with pytest.raises(EmptyCohort, match="s09/rest"):
        featurize_cohort(small_manifest, cfg, [("s09", "rest")], cache)


def test_run_pipeline_band_variant(small_manifest):
    cfg = PipelineConfig(stage="bandpass10_40+beat300", normalize=True)
    report = run_pipeline(small_manifest, cfg, "rest_rest", seed=1)
    assert report.pipeline == "bandpass10_40+beat300+zscore+svm"
    assert report.train_beats >= 30


def test_run_pipeline_unknown_protocol(small_manifest):
    with pytest.raises(InvariantViolation):
        run_pipeline(small_manifest, PipelineConfig(), "loocv", seed=1)


def test_detection_failure_names_its_record(tmp_path):
    manifest = write_cohort(str(tmp_path), n_subjects=3, seed=5)
    save_record(EcgRecord("s02", "post_exercise", 300.0, np.zeros(6000)),
                str(tmp_path / "s02_post_exercise.txt"))
    with pytest.raises(StageFailure, match=r"subject s02/post_exercise ") as exc:
        run_pipeline(manifest, PipelineConfig(), "rest_ex", seed=1)
    assert isinstance(exc.value.__cause__, NoBeatsFound)
    assert cli_main(["run", "--manifest", manifest, "--protocol",
                     "rest_ex"]) == 2


def test_missing_manifest_or_record_is_a_typed_error(tmp_path):
    missing = str(tmp_path / "absent" / "manifest.txt")
    with pytest.raises(IoFailure, match=r"absent"):
        run_pipeline(missing, PipelineConfig(), "rest_rest", seed=1)
    manifest = write_cohort(str(tmp_path), n_subjects=3, seed=5)
    os.remove(str(tmp_path / "s03_rest.txt"))
    with pytest.raises(StageFailure, match=r"s03/rest .*s03_rest\.txt") as exc:
        run_pipeline(manifest, PipelineConfig(), "rest_rest", seed=1)
    assert isinstance(exc.value.__cause__, IoFailure)


def test_fused_kl_run_and_sweep(fused_manifest, capsys):
    cfg = PipelineConfig(stage="fused_kl", lam=0.3, top_n=20, normalize=True,
                         max_beats_per_subject=15)
    cache = {}
    report = run_pipeline(fused_manifest, cfg, "rest_ex", seed=2, cache=cache)
    # two of four subjects are held out for evaluation
    assert report.n_subjects == 2
    assert report.pipeline == "fused_kl(0.3,20)+zscore+svm"

    reports = sweep_top_n(fused_manifest, cfg, "rest_ex", 2, [10, 20],
                          cache=cache)
    assert [r.pipeline for r in reports] == [
        "fused_kl(0.3,10)+zscore+svm", "fused_kl(0.3,20)+zscore+svm"]
    assert reports[1] == report  # same config, same seed, shared cache

    # unsorted with a duplicate: each report is a standalone run at its top_n
    reports = sweep_top_n(fused_manifest, cfg, "rest_ex", 2, [20, 10, 10],
                          cache=cache)
    assert reports == [
        run_pipeline(fused_manifest, dataclasses.replace(cfg, top_n=n),
                     "rest_ex", 2) for n in (20, 10, 10)]
    assert sweep_top_n(fused_manifest, cfg, "rest_ex", 2, [], cache=cache) \
        == []
    dim = cohort_matrix(fused_manifest, cfg, "rest_ex", 2, cache)[0].dim
    for bad in (0, -5, dim + 1):
        with pytest.raises(InvariantViolation, match=r"top_n must lie"):
            sweep_top_n(fused_manifest, cfg, "rest_ex", 2, [bad], cache=cache)
    assert cli_main(["sweep", "--manifest", fused_manifest, "--protocol",
                     "rest_ex", "--top-n-list=,"]) == 2
    assert "no reports to render" in capsys.readouterr().err


def test_sweep_featurizes_and_selects_once(fused_manifest, monkeypatch):
    calls = {"cohort_matrix": 0, "select_features": 0, "svm_train": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(bench, "cohort_matrix")
    counting(bench._select, "select_features")
    counting(bench._classify, "svm_train")
    cfg = PipelineConfig(stage="fused_kl", normalize=True,
                         max_beats_per_subject=15)
    assert sweep_top_n(fused_manifest, cfg, "rest_ex", 2, []) == []
    assert calls == {"cohort_matrix": 0, "select_features": 0, "svm_train": 0}
    reports = sweep_top_n(fused_manifest, cfg, "rest_ex", 2, [5, 20, 10])
    assert len(reports) == 3
    assert calls == {"cohort_matrix": 1, "select_features": 1, "svm_train": 3}


def test_warm_fused_run_keeps_one_copy_of_its_rows(fused_manifest):
    # The tracemalloc peak of a run on a warm cache, in units of its
    # split's row bytes, is 2.54 here. It was 3.54 while the stacked cohort
    # outlived the split; one more copy of the training rows in any step
    # also crosses the bound.
    cfg = PipelineConfig(stage="fused", normalize=True)
    cache = {}
    run_pipeline(fused_manifest, cfg, "rest_ex", 0, cache=cache)
    split = split_protocol(
        cohort_matrix(fused_manifest, cfg, "rest_ex", 0, cache)[0], "rest_ex")
    row_bytes = split.train.values.nbytes + split.test.values.nbytes
    del split
    tracemalloc.start()
    try:
        run_pipeline(fused_manifest, cfg, "rest_ex", 0, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * row_bytes, peak / row_bytes


def test_sweep_requires_fused_kl(small_manifest):
    with pytest.raises(InvariantViolation):
        sweep_top_n(small_manifest, PipelineConfig(stage="qrs30"),
                    "rest_rest", 1, [10])


def test_no_leakage_fingerprint(small_manifest):
    cfg = PipelineConfig(stage="qrs30", normalize=True, reduction="pca")
    cache = {}
    report = run_pipeline(small_manifest, cfg, "rest_rest", seed=3,
                          cache=cache)
    matrix, _ = cohort_matrix(small_manifest, cfg, "rest_rest", 3, cache)
    split = split_protocol(matrix, "rest_rest")
    state = fit_pipeline_state(split.train, cfg)
    assert state_fingerprint(state) == report.state_fingerprint

    # corrupt every test row; the fitted state must not move
    sid = np.array(matrix.subject_ids)
    cond = np.array(matrix.conditions)
    poisoned = matrix.values.copy()
    rng = np.random.default_rng(0)
    for s in sorted(set(matrix.subject_ids)):
        rows = np.flatnonzero((sid == s) & (cond == "rest"))
        n_train = int(np.floor(0.7 * rows.size))
        poisoned[rows[n_train:]] = rng.normal(size=(rows.size - n_train,
                                                    matrix.dim))
    poisoned_m = FeatureMatrix(poisoned, matrix.subject_ids,
                               matrix.conditions, matrix.layout_id)
    split_p = split_protocol(poisoned_m, "rest_rest")
    state_p = fit_pipeline_state(split_p.train, cfg)
    assert state_fingerprint(state_p) == report.state_fingerprint


# ===== reports ============================================================

def fake_report(pipeline="qrs30+pca+svm", protocol="rest_rest",
                train=0.95, test=0.921, majority=1.0, n_test=10):
    return ExperimentReport(
        pipeline=pipeline, protocol=protocol, train_accuracy=train,
        test_accuracy=test, subject_majority_accuracy=majority,
        n_subjects=2, train_beats=20, test_beats=n_test, skipped_beats=0,
        dropped_subjects=(), converged=True, seed=0,
        confusion=(("s00", "s00", n_test),), state_fingerprint="ab12")


def test_render_report_csv_formatting():
    text = render_report([fake_report()], "csv")
    lines = text.strip().split("\n")
    assert lines[0] == ("pipeline,protocol,train_acc_pct,test_acc_pct,"
                        "subjects,train_beats,test_beats,skipped_beats,"
                        "converged,subject_majority_acc_pct")
    assert lines[1].startswith("qrs30+pca+svm,rest_rest,95.0%,92.1%,")


def test_render_report_sorted_and_parse_back():
    reports = [fake_report(pipeline="cwt+svm", protocol="rest_rest"),
               fake_report(pipeline="ac(80,1)+svm", protocol="rest_ex"),
               fake_report(pipeline="ac(80,1)+svm", protocol="rest_rest")]
    text = render_report(reports, "csv")
    rows = parse_report_csv(text)
    assert [(r["pipeline"], r["protocol"]) for r in rows] == [
        ("ac(80,1)+svm", "rest_ex"), ("ac(80,1)+svm", "rest_rest"),
        ("cwt+svm", "rest_rest")]


def test_render_report_quotes_comma_pipeline_ids():
    rep = fake_report(pipeline="fused_kl(0.3,200)+zscore+svm")
    rows = parse_report_csv(render_report([rep], "csv"))
    assert rows[0]["pipeline"] == "fused_kl(0.3,200)+zscore+svm"


def test_render_report_markdown():
    text = render_report([fake_report()], "markdown")
    lines = text.strip().split("\n")
    assert lines[0].startswith("| pipeline | protocol |")
    assert len(lines) == 3
    assert "95.0%" in lines[2]


def test_render_report_validations():
    with pytest.raises(InvariantViolation):
        render_report([], "csv")
    with pytest.raises(InvariantViolation):
        render_report([fake_report()], "html")
    with pytest.raises(InvariantViolation, match="csv or markdown"):
        render_rows([tuple("x" for _ in REPORT_COLUMNS)], "html")


def test_subject_majority_accuracy_of_an_empty_prediction_is_a_typed_error():
    empty = PredictionResult((), np.zeros((0, 2), dtype=int), ("a", "b"))
    with pytest.raises(InvariantViolation, match="no predictions"):
        subject_majority_accuracy(empty, ())


def test_report_invariants():
    with pytest.raises(InvariantViolation):
        fake_report(test=1.5)
    with pytest.raises(InvariantViolation):
        dataclasses.replace(fake_report(), test_beats=99)


def test_parse_report_rejects_wrong_header():
    with pytest.raises(MalformedFile):
        parse_report_csv("a,b,c\n1,2,3\n")
