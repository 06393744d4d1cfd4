"""The per-change evidence tool: pair summaries, report comparison and the
round counts it reads from the benchmark's stderr."""

import importlib.util
import os

import pytest

EVIDENCE = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "tools", "evidence.py")


@pytest.fixture(scope="module")
def evidence():
    spec = importlib.util.spec_from_file_location("evidence", EVIDENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(value, rounds=2, correct=True, attempted=20, failed=0):
    return {"w": {"correct": correct, "attempted": attempted,
                  "failed": failed, "rounds": rounds,
                  "metrics": {m: {"value": value, "unit": "s"}
                              for m in ("setup_s", "run_s", "peak_rss_mb")}}}


def test_summary_counts_wins_ties_and_quartiles(evidence):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 1.0, 2.5]  # lower in 3, tie in 1, higher in 1
    pairs = [{"parent": _run(p, rounds=2), "change": _run(c, rounds=i)}
             for i, (p, c) in enumerate(zip(parent, change))]
    pairs[1]["change"]["w"]["failed"] = 3
    pairs[4]["parent"]["w"]["correct"] = False
    out = evidence._summary(pairs, "w")
    assert out["parent_runs"] == {"correct": False, "attempted": [20],
                                  "failed": 0, "rounds": [2] * 5}
    assert out["change_runs"] == {"correct": True, "attempted": [20],
                                  "failed": 3, "rounds": [0, 1, 2, 3, 4]}
    m = out["run_s"]
    assert m["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert m["change"] == {"median": 2.0, "q1": 1.0, "q3": 2.5}
    assert (m["change_wins"], m["parent_wins"]) == (3, 1)
    assert m["ratio_of_medians"] == pytest.approx(2.0 / 3.0)
    # a gap of 1.0 is not more than the parent's spread of 2.0
    assert m["median_gap_exceeds_parent_iqr"] is False


def test_summary_flags_a_median_gap_beyond_the_parent_spread(evidence):
    pairs = [{"parent": _run(10.0 + 0.1 * i), "change": _run(5.0)}
             for i in range(10)]
    m = evidence._summary(pairs, "w")["peak_rss_mb"]
    assert m["median_gap_exceeds_parent_iqr"] is True
    assert (m["change_wins"], m["parent_wins"]) == (10, 0)


def test_first_report_difference_names_the_report_and_key(evidence):
    a = {"pipeline": "qrs30+pca+svm", "protocol": "rest_ex",
         "test_accuracy": 0.5, "state_fingerprint": "ab"}
    b = dict(a, test_accuracy=0.25)
    assert evidence._first_report_difference([a, a], [a, dict(a)]) is None
    assert evidence._first_report_difference([a, a], [a]) == \
        "2 reports vs 1"
    diff = evidence._first_report_difference([a, a], [a, b])
    assert diff.startswith("report 1 (qrs30+pca+svm / rest_ex), "
                           "test_accuracy:")
    assert "base:   0.5" in diff and "change: 0.25" in diff
    # a key only one side has is a difference too
    diff = evidence._first_report_difference([a], [dict(a, extra=1)])
    assert "extra" in diff and "base:   None" in diff


def test_rounds_regex_reads_each_workload_round_line(evidence):
    stderr = (
        "perfbench: paper_replication setups ['1.584', '1.600'] s, "
        "rounds ['7.888', '8.014'] s\n"
        "perfbench: paper_replication trace overhead -1.670 s (traced "
        "['7.1'], untraced ['8.8']); wrote perfbench/results/x.json\n"
        "perfbench: method_survey setups ['0.255'] s, rounds ['1.542', "
        "'1.541', '1.600'] s\n")
    found = evidence.ROUNDS.findall(stderr)
    assert [(name, len(r.split(","))) for name, r in found] == [
        ("paper_replication", 2), ("method_survey", 3)]


def _traced(values, correct=True):
    return {"correct": correct, "attempted": 20, "failed": 0,
            "metrics": {m: {"value": v, "unit": "s" if m.endswith("_s")
                            else "count"} for m, v in values.items()}}


def test_layers_pair_each_traced_metric_of_the_two_checkouts(evidence):
    traced = {
        "parent": {"w": _traced({"classify.svm_decision_values_s": 2.3,
                                 "classify.support_vectors": 7}),
                   "v": _traced({"trace.overhead_s": 0.1})},
        "change": {"w": _traced({"classify.svm_decision_values_s": 1.4,
                                 "classify.support_vectors": 7,
                                 "bench.new_layer_s": 0.2})}}
    layers = evidence._layers(traced)
    assert layers["w"] == {
        "bench.new_layer_s": {"unit": "s", "parent": None, "change": 0.2},
        "classify.support_vectors": {"unit": "count", "parent": 7,
                                     "change": 7},
        "classify.svm_decision_values_s": {"unit": "s", "parent": 2.3,
                                           "change": 1.4}}
    # a workload only the parent traced keeps its values beside None
    assert layers["v"] == {
        "trace.overhead_s": {"unit": "s", "parent": 0.1, "change": None}}


def test_run_passes_the_trace_flag_and_reads_the_last_line(evidence,
                                                          monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        out = '{"w": {"correct": true, "attempted": 1, "failed": 0, ' \
              '"metrics": {}}}'
        return type("P", (), {"stdout": "table\n" + out + "\n",
                              "stderr": ""})()

    monkeypatch.setattr(evidence.subprocess, "run", fake_run)
    assert evidence._run("/checkout", trace=1)["w"]["correct"] is True
    assert calls[-1][-2:] == ["--trace", "1"]
    evidence._run("/checkout")
    assert calls[-1][-2:] == ["--trace", "0"]
