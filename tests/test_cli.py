"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgid.bench import REPORT_COLUMNS, parse_report_csv
from ecgid.cli import cli_main
from ecgid.errors import EcgidError, InvariantViolation
from ecgid.features import load_feature_matrix
from ecgid.ingest import load_manifest


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("cli_cohort"))
    code = cli_main(["gen", "--subjects", "3", "--seed", "5", "--out", d,
                     "--rest-duration", "30", "--ex-duration", "20"])
    assert code == 0
    return d


def manifest_of(gen_dir):
    return os.path.join(gen_dir, "manifest.txt")


def test_gen_writes_manifest_and_records(gen_dir):
    man = load_manifest(manifest_of(gen_dir))
    assert len(man.entries) == 6  # 3 subjects x 2 conditions
    assert man.seed == 5
    for (_, _, rel, _) in man.entries:
        assert os.path.exists(os.path.join(gen_dir, rel))


def test_gen_is_reproducible(gen_dir, tmp_path):
    other = str(tmp_path / "again")
    assert cli_main(["gen", "--subjects", "3", "--seed", "5", "--out", other,
                     "--rest-duration", "30", "--ex-duration", "20"]) == 0
    for name in sorted(os.listdir(gen_dir)):
        with open(os.path.join(gen_dir, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(other, name), "rb") as fh:
            second = fh.read()
        assert first == second, name


@pytest.mark.parametrize("flag", ["--rest-duration", "--ex-duration"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_gen_rejects_non_finite_durations(tmp_path, capsys, flag, value):
    out = tmp_path / "cohort"
    assert cli_main(["gen", "--subjects", "2", "--seed", "1", "--out",
                     str(out), "%s=%s" % (flag, value)]) == 2
    assert "duration must be finite and >= 2 s" in capsys.readouterr().err
    assert not out.exists()


def test_detect_emits_indices(gen_dir, tmp_path, capsys):
    record = os.path.join(gen_dir, "s01_rest.txt")
    out = str(tmp_path / "peaks.txt")
    assert cli_main(["detect", "--record", record, "--out", out]) == 0
    lines = open(out, encoding="utf-8").read().strip().split("\n")
    assert len(lines) >= 25  # ~30 s of beats
    assert all(int(b) > int(a) for a, b in zip(lines, lines[1:]))

    assert cli_main(["detect", "--record", record]) == 0
    stdout = capsys.readouterr().out
    assert stdout.strip().split("\n") == lines


def test_featurize_and_select(gen_dir, tmp_path):
    feats = str(tmp_path / "ac.csv")
    assert cli_main(["featurize", "--manifest", manifest_of(gen_dir),
                     "--stage", "ac", "--out", feats]) == 0
    m = load_feature_matrix(feats)
    assert m.dim == 80
    assert set(m.conditions) == {"rest", "post_exercise"}

    weights = str(tmp_path / "weights.csv")
    assert cli_main(["select", "--features", feats, "--lam", "0.3",
                     "--top-n", "10", "--out", weights]) == 0
    head, *rows = open(weights, encoding="utf-8").read().split("\n")[:-1]
    assert head == "lambda=0.3,top_n=10"
    assert len(rows) == 80
    assert sum(row.endswith(",1") for row in rows) == 10


def test_run_writes_report(gen_dir, tmp_path):
    out = str(tmp_path / "report.csv")
    assert cli_main(["run", "--manifest", manifest_of(gen_dir),
                     "--protocol", "rest_rest", "--stage", "qrs30",
                     "--seed", "1", "--out", out]) == 0
    rows = parse_report_csv(open(out, encoding="utf-8").read())
    assert len(rows) == 1
    assert rows[0]["protocol"] == "rest_rest"
    assert rows[0]["pipeline"] == "qrs30+svm"


def test_run_repeat_is_byte_identical(gen_dir, tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    flags = ["run", "--manifest", manifest_of(gen_dir), "--protocol",
             "rest_rest", "--stage", "qrs30", "--seed", "1"]
    assert cli_main(flags + ["--out", a]) == 0
    assert cli_main(flags + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_run_with_config_file(gen_dir, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("stage=beat300\nnormalize=on\nclassifier=knn\nknn_k=1\n",
                   encoding="utf-8")
    out = str(tmp_path / "report.csv")
    assert cli_main(["run", "--manifest", manifest_of(gen_dir),
                     "--protocol", "rest_rest", "--config", str(cfg),
                     "--seed", "1", "--out", out]) == 0
    rows = parse_report_csv(open(out, encoding="utf-8").read())
    assert rows[0]["pipeline"] == "beat300+zscore+knn1"


def test_usage_errors_exit_1(capsys):
    assert cli_main(["run", "--manifest", "x", "--protocol", "loocv"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert "protocol" in err
    assert cli_main(["frobnicate"]) == 1
    assert cli_main([]) == 1


def test_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope" / "manifest.txt")
    assert cli_main(["run", "--manifest", missing, "--protocol",
                     "rest_rest"]) == 2
    assert "error" in capsys.readouterr().err

    bad_cfg = tmp_path / "bad.txt"
    bad_cfg.write_text("junk=1\n", encoding="utf-8")
    assert cli_main(["run", "--manifest", missing, "--protocol", "rest_rest",
                     "--config", str(bad_cfg)]) == 2
    bad_cfg.write_text("gamma=-1\n", encoding="utf-8")
    assert cli_main(["run", "--manifest", missing, "--protocol", "rest_rest",
                     "--config", str(bad_cfg)]) == 2
    assert "gamma must be finite and > 0" in capsys.readouterr().err


def test_run_rejects_infinite_or_huge_ac_window(gen_dir, tmp_path, capsys):
    # an infinite window fails the config check; a finite window longer
    # than every record leaves no usable row
    cfg = tmp_path / "ac.txt"
    for window_s, message in (("inf", "window_s must be finite and > 0"),
                              ("1e300", "no usable ac80 row")):
        cfg.write_text("stage=ac\nwindow_s=%s\n" % window_s, encoding="utf-8")
        assert cli_main(["run", "--manifest", manifest_of(gen_dir),
                         "--protocol", "rest_rest", "--config", str(cfg),
                         "--out", str(tmp_path / "r.csv")]) == 2
        assert message in capsys.readouterr().err


def test_non_utf8_inputs_exit_2(gen_dir, tmp_path, capsys):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"stage=\xff\n")
    assert cli_main(["run", "--manifest", manifest_of(gen_dir), "--protocol",
                     "rest_rest", "--config", str(binary)]) == 2
    assert cli_main(["report", "--inputs", str(binary)]) == 2
    assert "binary.txt: not UTF-8" in capsys.readouterr().err


def test_duplicate_manifest_record_exits_2(gen_dir, tmp_path, capsys):
    man = load_manifest(manifest_of(gen_dir))
    lines = ["%s,%s,%s,%s" % (sid, cond, os.path.join(gen_dir, rel), dur)
             for (sid, cond, rel, dur) in man.entries]
    # a second file for s01/rest: ambiguous, whichever file would be read
    lines.append("s01,rest,%s,30.0" % os.path.join(gen_dir, "s02_rest.txt"))
    path = tmp_path / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(InvariantViolation, match="s01"):
        load_manifest(str(path))
    assert cli_main(["run", "--manifest", str(path), "--protocol",
                     "rest_rest", "--stage", "qrs30"]) == 2
    assert "error" in capsys.readouterr().err


def test_report_merges_and_sorts(gen_dir, tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    base = ["run", "--manifest", manifest_of(gen_dir), "--protocol",
            "rest_rest", "--seed", "1"]
    assert cli_main(base + ["--stage", "qrs30", "--out", a]) == 0
    assert cli_main(base + ["--stage", "beat300", "--out", b]) == 0
    merged = str(tmp_path / "merged.csv")
    assert cli_main(["report", "--inputs", b, a, "--out", merged]) == 0
    rows = parse_report_csv(open(merged, encoding="utf-8").read())
    assert [r["pipeline"] for r in rows] == ["beat300+svm", "qrs30+svm"]

    md = str(tmp_path / "merged.md")
    assert cli_main(["report", "--inputs", a, b, "--format", "markdown",
                     "--out", md]) == 0
    assert open(md, encoding="utf-8").read().startswith("| pipeline |")


def test_report_rejects_rows_of_the_wrong_width(tmp_path, capsys):
    # the bad file is the second input, and the error names it
    header = ",".join(REPORT_COLUMNS)
    good = "qrs30+svm,rest_rest,90.0%,80.0%,3,30,12,0,1,100.0%"
    first = tmp_path / "good.csv"
    first.write_text("\n".join([header, good]) + "\n", encoding="utf-8")
    path = tmp_path / "bad.csv"
    for row in ("qrs30+svm,rest_rest", good + ",x,y,z"):
        path.write_text("\n".join([header, good, "", row]) + "\n",
                        encoding="utf-8")
        assert cli_main(["report", "--inputs", str(first), str(path)]) == 2
        err = capsys.readouterr().err
        assert "%s line 4: expected 10 fields" % path in err
        assert str(first) not in err
    path.write_text("\n".join([header, "", good]) + "\n", encoding="utf-8")
    assert cli_main(["report", "--inputs", str(path),
                     "--out", str(tmp_path / "ok.csv")]) == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.just(",".join(REPORT_COLUMNS)),
    st.lists(st.text(alphabet="ab,\"\r 0%", max_size=4), min_size=8,
             max_size=12).map(",".join),
    st.text(max_size=12)), max_size=6).map("\n".join))
def test_parse_report_csv_rows_or_typed_error(text):
    try:
        rows = parse_report_csv(text)
    except EcgidError:
        return
    assert all(tuple(row) == REPORT_COLUMNS for row in rows)
    # no field is dropped: the values are every non-blank csv row after
    # the header
    records = [r for r in csv.reader(io.StringIO(text)) if r]
    assert [list(row.values()) for row in rows] == records[1:]


def test_sweep_cli(tmp_path):
    # the auxiliary split needs >= 2 subjects per half, so 4 subjects
    d = str(tmp_path / "cohort4")
    assert cli_main(["gen", "--subjects", "4", "--seed", "9", "--out", d,
                     "--rest-duration", "30", "--ex-duration", "20"]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("normalize=on\nmax_beats_per_subject=15\nlam=0.3\n",
                   encoding="utf-8")
    out = str(tmp_path / "sweep.csv")
    assert cli_main(["sweep", "--manifest", os.path.join(d, "manifest.txt"),
                     "--protocol", "rest_ex", "--seed", "2",
                     "--config", str(cfg), "--top-n-list", "5,10",
                     "--out", out]) == 0
    rows = parse_report_csv(open(out, encoding="utf-8").read())
    assert [r["pipeline"] for r in rows] == [
        "fused_kl(0.3,10)+zscore+svm", "fused_kl(0.3,5)+zscore+svm"]


def test_sweep_bad_top_n_list_exits_1(gen_dir, capsys):
    assert cli_main(["sweep", "--manifest", manifest_of(gen_dir),
                     "--protocol", "rest_ex", "--top-n-list", "5,x"]) == 1
    assert "integers" in capsys.readouterr().err
