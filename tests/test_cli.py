"""End-to-end tests of the command-line interface and its exit codes."""

import csv
import dataclasses
import filecmp
import io
import os

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ecgid import bench, features
from ecgid.bench import REPORT_COLUMNS, PipelineConfig, parse_report_csv
from ecgid.cli import cli_main
from ecgid.errors import EcgidError, InvariantViolation, IoFailure
from ecgid.features import load_feature_matrix
from ecgid.ingest import load_manifest, write_cohort


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


def test_gen_rejects_a_duration_too_long_to_allocate(tmp_path, capsys):
    # numpy refuses this size before allocating anything
    out = tmp_path / "cohort"
    assert cli_main(["gen", "--subjects", "1", "--seed", "1", "--out",
                     str(out), "--rest-duration", "1e300"]) == 2
    assert "duration 1e+300 s is too long" in capsys.readouterr().err
    assert not out.exists()


def test_gen_into_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(IoFailure, match="cannot create"):
        write_cohort(str(taken), 1, 1, 10.0, 8.0)
    assert cli_main(["gen", "--subjects", "1", "--seed", "1", "--out",
                     str(taken), "--rest-duration", "10",
                     "--ex-duration", "8"]) == 2
    assert "cannot create %s" % taken in capsys.readouterr().err


def test_write_cohort_writes_the_bytes_gen_writes(gen_dir, tmp_path):
    # gen_dir holds `gen --subjects 3 --seed 5` at 30 s / 20 s, noise on
    out = str(tmp_path / "lib")
    assert write_cohort(out, 3, 5, 30.0, 20.0) == manifest_of(out)
    names = sorted(os.listdir(gen_dir))
    assert sorted(os.listdir(out)) == names
    assert filecmp.cmpfiles(gen_dir, out, names, shallow=False)[0] == names


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


def test_detect_prints_the_peaks_a_run_uses(gen_dir, capsys):
    record = os.path.join(gen_dir, "s02_post_exercise.txt")
    assert cli_main(["detect", "--record", record, "--subject", "s02",
                     "--condition", "post_exercise"]) == 0
    det = bench.read_record(record, "s02", "post_exercise")[2]
    assert capsys.readouterr().out.split() == [str(r) for r in det.r_peaks]
    # and a run reads the same detection for the manifest's entry
    run_det = bench._record({}, os.path.abspath(manifest_of(gen_dir)), "s02",
                            "post_exercise")[2]
    assert np.array_equal(run_det.r_peaks, det.r_peaks)


def test_run_to_an_unwritable_path_exits_2(gen_dir, tmp_path, capsys):
    assert cli_main(["run", "--manifest", manifest_of(gen_dir), "--protocol",
                     "rest_rest", "--out", str(tmp_path)]) == 2
    assert "cannot write %s" % tmp_path in capsys.readouterr().err


def test_featurize_takes_the_stage_of_its_config(gen_dir, tmp_path):
    cfg = tmp_path / "ac.cfg"
    cfg.write_text("stage=ac\n", encoding="utf-8")
    feats = str(tmp_path / "features.txt")
    args = ["featurize", "--manifest", manifest_of(gen_dir), "--config",
            str(cfg), "--out", feats]
    assert cli_main(args) == 0
    assert load_feature_matrix(feats).layout_id == "ac80"
    # a --stage on the command line wins over the file's
    assert cli_main(args + ["--stage", "qrs30"]) == 0
    assert load_feature_matrix(feats).layout_id == "qrs30"


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


def test_select_on_feature_values_too_large_to_score_exits_2(tmp_path, capsys):
    feats = tmp_path / "huge.csv"
    lines = ["layout=toy2,dim=2"]
    for i, (sid, cond) in enumerate(
            (s, c) for s in ("s1", "s2") for c in ("rest", "post_exercise")
            for _ in range(3)):
        sign = 1 if i % 2 else -1
        lines.append("%s,%s,%r,%r" % (sid, cond, sign * 1e200 * (1 + i),
                                      -sign * 1e200))
    feats.write_text("\n".join(lines) + "\n")
    weights = tmp_path / "weights.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli_main(["select", "--features", str(feats), "--lam", "0.3",
                         "--top-n", "1", "--out", str(weights)])
    assert code == 2
    assert "not finite: the feature values are too large" in \
        capsys.readouterr().err
    assert not weights.exists()


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


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli_main(["run", "--manifest", "x", "--protocol", "loocv"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert "protocol" in err
    assert cli_main(["frobnicate"]) == 1
    assert cli_main([]) == 1
    # detect takes the pipeline's band, dsp.BAND_HZ
    assert cli_main(["detect", "--record", "x", "--lo", "0.5"]) == 1
    assert "unrecognized arguments: --lo" in capsys.readouterr().err
    # gen always writes noisy records
    assert cli_main(["gen", "--subjects", "2", "--seed", "1", "--out",
                     str(tmp_path / "gen"), "--rest-duration", "10",
                     "--ex-duration", "10", "--noise", "off"]) == 1
    assert "unrecognized arguments: --noise" in capsys.readouterr().err


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


@pytest.mark.parametrize("key", ["lo_hz", "hi_hz", "variance_retained",
                                 "tol", "max_epochs"])
def test_config_keys_of_the_fixed_band_and_pca_exit_2(gen_dir, tmp_path,
                                                      capsys, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("%s=0.9\n" % key, encoding="utf-8")
    assert cli_main(["run", "--manifest", manifest_of(gen_dir), "--protocol",
                     "rest_rest", "--config", str(cfg)]) == 2
    assert "unknown key %r" % key in capsys.readouterr().err


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


def test_sweep_warns_that_it_ignores_the_stage_of_its_config(tmp_path,
                                                            capsys):
    d = str(tmp_path / "cohort4")
    assert cli_main(["gen", "--subjects", "4", "--seed", "9", "--out", d,
                     "--rest-duration", "30", "--ex-duration", "20"]) == 0
    outs, errs = {}, {}
    for stage in ("qrs30", "fused_kl", "unset"):
        cfg = tmp_path / ("%s.cfg" % stage)
        cfg.write_text("max_beats_per_subject=15\n" if stage == "unset" else
                       "stage=%s\nmax_beats_per_subject=15\n" % stage,
                       encoding="utf-8")
        out = tmp_path / ("%s.csv" % stage)
        capsys.readouterr()
        assert cli_main(["sweep", "--manifest",
                         os.path.join(d, "manifest.txt"), "--protocol",
                         "rest_ex", "--config", str(cfg), "--top-n-list", "5",
                         "--out", str(out)]) == 0
        outs[stage], errs[stage] = out.read_bytes(), capsys.readouterr().err
    # the sweep runs fused_kl each time, and says so once for the file that
    # names qrs30; a file without a stage line is not warned about
    assert outs["qrs30"] == outs["fused_kl"] == outs["unset"]
    assert b"fused_kl(0.3,5)+svm" in outs["qrs30"]
    assert errs["fused_kl"] == errs["unset"] == ""
    lines = errs["qrs30"].splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert "stage qrs30" in lines[0] and "qrs30.cfg" in lines[0]


@pytest.mark.parametrize("n_subjects", [1, 2])
def test_fused_kl_with_one_auxiliary_subject_exits_2(tmp_path, capsys,
                                                     monkeypatch, n_subjects):
    # the auxiliary half is n_subjects // 2 subjects: 0 or 1 here
    d = str(tmp_path / "cohort")
    assert cli_main(["gen", "--subjects", str(n_subjects), "--seed", "9",
                     "--out", d, "--rest-duration", "20",
                     "--ex-duration", "15"]) == 0
    featurized = []
    real = features.fused_features
    monkeypatch.setattr(features, "fused_features",
                        lambda *a: featurized.append(a) or real(*a))
    capsys.readouterr()
    assert cli_main(["run", "--manifest", os.path.join(d, "manifest.txt"),
                     "--protocol", "rest_ex", "--stage", "fused_kl",
                     "--out", str(tmp_path / "r.csv")]) == 2
    assert "selection needs >= 2 auxiliary subjects" in capsys.readouterr().err
    assert featurized == []


def test_sweep_bad_top_n_list_exits_1(gen_dir, capsys):
    assert cli_main(["sweep", "--manifest", manifest_of(gen_dir),
                     "--protocol", "rest_ex", "--top-n-list", "5,x"]) == 1
    assert "integers" in capsys.readouterr().err


# ===== fuzzed input files =================================================
# Each call writes one input file, valid text with up to two lines or
# fields fuzzed, and runs the subcommand that reads it. Whatever the file
# holds, the CLI returns 0, 1 or 2 and raises nothing.

FUZZ_SUBJECTS = ("s01", "s02", "s03")
FUZZ_TOKENS = st.one_of(st.sampled_from([
    "0", "1.5", "-2", "1e300", "1e400", "nan", "inf", "x", "", " 3 ", "1_0",
    "1,2", "s04", "rest", "post_exercise", "absent.txt", "manifest.txt", "#",
    "fs=81", "fs=0", "layout=toy,dim=3", "stage=ac_beat"]),
    st.text(max_size=6))
CONFIG_KEYS = [f.name for f in dataclasses.fields(PipelineConfig)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # not gen_dir: the fuzzed files would join the cohort that
    # test_gen_is_reproducible compares file by file
    d = str(tmp_path_factory.mktemp("fuzz_cohort"))
    assert cli_main(["gen", "--subjects", "3", "--seed", "5", "--out", d,
                     "--rest-duration", "20", "--ex-duration", "15"]) == 0
    return d


@st.composite
def mutated(draw, lines):
    """The lines joined, after up to two fuzzed edits: a line inserted,
    replaced or dropped, or one comma-separated field replaced."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        how = draw(st.sampled_from(["insert", "replace", "drop", "field"]))
        token = draw(FUZZ_TOKENS)
        if how == "insert" or i == len(lines):
            lines.insert(i, token)
        elif how == "replace":
            lines[i] = token
        elif how == "drop":
            del lines[i]
        else:
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = token
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def fuzzed_records(draw):
    period = draw(st.integers(40, 150))  # 0.4-1.5 s beats at 100 Hz
    body = ["1.0" if i % period == 0 else "0.0"
            for i in range(draw(st.integers(150, 1200)))]
    return ({"record.txt": draw(mutated(["fs=100"] + body))},
            ["detect", "--record", "record.txt"])


@st.composite
def fuzzed_manifests(draw):
    lines = ["# seed=5"] + ["%s,%s,%s_%s.txt,20.0" % (s, c, s, c)
                            for s in FUZZ_SUBJECTS
                            for c in ("rest", "post_exercise")]
    stage = draw(st.sampled_from(["qrs30", "pqrst240", "ac_beat", "stft"]))
    return ({"fuzzed_manifest.txt": draw(mutated(lines))},
            ["featurize", "--manifest", "fuzzed_manifest.txt", "--stage",
             stage, "--out", "features.txt"])


@st.composite
def fuzzed_feature_files(draw):
    value = st.integers(-3, 3).map(str)
    rows = ["%s,%s,%s,%s" % (s, c, draw(value), draw(value))
            for s in FUZZ_SUBJECTS[:2] for c in ("rest", "post_exercise")
            for _ in range(draw(st.integers(1, 3)))]
    return ({"features.txt": draw(mutated(["layout=toy,dim=2"] + rows))},
            ["select", "--features", "features.txt",
             "--lam", draw(st.sampled_from(["0.3", "0", "1", "2", "nan"])),
             "--top-n", draw(st.sampled_from(["1", "2", "0", "3"])),
             "--out", "weights.txt"])


@st.composite
def fuzzed_configs(draw):
    values = ["qrs30", "ac", "ac_beat", "fused_kl", "pca", "knn", "svm",
              "on", "off", "1", "2", "20", "80", "-1", "0", "0.5", "1e300",
              "inf", "nan"]
    lines = draw(st.lists(st.builds(
        "{}={}".format, st.sampled_from(CONFIG_KEYS + ["lo_hz"]),
        st.sampled_from(values)), max_size=2))
    return ({"config.txt": draw(mutated(lines))},
            ["run", "--manifest", "manifest.txt", "--protocol",
             draw(st.sampled_from(["rest_rest", "ex_last70", "rest_ex"])),
             "--config", "config.txt", "--out", "run.csv"])


@st.composite
def fuzzed_reports(draw):
    lines = [",".join(REPORT_COLUMNS),
             "qrs30+svm,rest_rest,90.0%,80.0%,3,30,12,0,1,100.0%",
             '"ac(80,1)+knn1",rest_ex,99.0%,50.0%,3,30,12,1,1,66.7%']
    return ({"good.csv": "\n".join(lines) + "\n",
             "fuzzed.csv": draw(mutated(lines))},
            ["report", "--inputs", "good.csv", "fuzzed.csv",
             "--format", draw(st.sampled_from(["csv", "markdown"])),
             "--out", "merged.txt"])


@settings(max_examples=150, deadline=None)
@given(st.one_of(fuzzed_records(), fuzzed_manifests(), fuzzed_feature_files(),
                 fuzzed_configs(), fuzzed_reports()))
def test_cli_on_fuzzed_files_exits_0_1_or_2(fuzz_dir, call):
    files, argv = call
    for name, text in files.items():
        with open(os.path.join(fuzz_dir, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
    paths = set(files) | {"manifest.txt", "features.txt", "weights.txt",
                          "run.csv", "merged.txt"}
    argv = [os.path.join(fuzz_dir, a) if a in paths else a for a in argv]
    code = cli_main(argv)
    event("%s exits %d" % (argv[0], code))
    assert code in (0, 1, 2)
