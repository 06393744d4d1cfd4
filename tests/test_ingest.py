"""Generator geometry, record/manifest round trips, and validation errors."""

import dataclasses
import math
import os
import string
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from synth_oracle import reference_synthesize_record

import ecgid.ingest as ingest
from ecgid.errors import (
    EcgidError,
    InvariantViolation,
    IoFailure,
    MalformedFile,
    NonFiniteSample,
    TooShort,
)
from ecgid.ingest import (
    CONDITIONS,
    DatasetManifest,
    EcgRecord,
    Wave,
    build_cohort,
    generate_subject_params,
    load_manifest,
    load_record,
    save_manifest,
    save_record,
    synthesize_record,
)

FS = 300.0


def clean_params(rest_hr=60.0, ex_hr=100.0, jitter=0.0):
    """Grid-friendly params: fixed waves, no jitter unless asked."""
    waves = {
        "P": Wave(0.15, -0.22, 0.020),
        "Q": Wave(-0.10, -0.05, 0.009),
        "R": Wave(1.2, 0.0, 0.011),
        "S": Wave(-0.15, 0.05, 0.009),
        "T": Wave(0.30, 0.28, 0.038),
    }
    return dataclasses.replace(
        generate_subject_params("sX", 0),
        waves=waves, rest_hr_bpm=rest_hr, ex_hr_bpm=ex_hr, hr_jitter_frac=jitter,
    )


# ===== parameter generation ==============================================

def test_params_deterministic_and_distinct():
    a1 = generate_subject_params("s01", 7)
    a2 = generate_subject_params("s01", 7)
    b = generate_subject_params("s02", 7)
    c = generate_subject_params("s01", 8)
    assert a1 == a2
    assert a1 != b and a1 != c


def test_params_within_ranges():
    for i in range(30):
        p = generate_subject_params("s%02d" % i, 123)
        assert 64.0 <= p.rest_hr_bpm <= 76.0
        assert 90.0 <= p.ex_hr_bpm <= 150.0
        assert 0.9 <= p.waves["R"].amplitude_mv <= 1.8
        assert -0.24 <= p.waves["P"].center_frac <= -0.20
        assert 0.255 <= p.waves["T"].center_frac <= 0.305
        assert p.waves["Q"].amplitude_mv < 0 and p.waves["S"].amplitude_mv < 0


def test_params_invariants_enforced():
    p = clean_params()
    bad = dict(p.waves)
    bad["P"] = Wave(0.15, 0.10, 0.02)  # P center after R
    with pytest.raises(InvariantViolation):
        dataclasses.replace(p, waves=bad)
    weak = dict(p.waves)
    weak["R"] = Wave(0.2, 0.0, 0.011)  # R no longer dominant over T
    with pytest.raises(InvariantViolation):
        dataclasses.replace(p, waves=weak)
    with pytest.raises(InvariantViolation):
        dataclasses.replace(p, ex_hr_bpm=50.0)  # below rest HR
    # a zero or negative beat period would never end the beat grid
    for rates in ({"ex_hr_bpm": math.inf}, {"rest_hr_bpm": -70.0},
                  {"rest_hr_bpm": 0.0}):
        with pytest.raises(InvariantViolation, match="heart rates"):
            dataclasses.replace(p, **rates)
    for field, value in (("width_frac", math.nan), ("width_frac", math.inf),
                         ("center_frac", -math.inf)):
        waves = dict(p.waves, P=dataclasses.replace(p.waves["P"],
                                                    **{field: value}))
        with pytest.raises(InvariantViolation, match="must be finite"):
            dataclasses.replace(p, waves=waves)


# ===== beat grid ==========================================================

def test_hr60_gives_one_peak_per_second_on_grid():
    rec, truth = synthesize_record(clean_params(), "rest", 10.0, False, 5)
    # first R at 0.5 s, period exactly 1 s, beats placed strictly before 9.5 s
    assert truth.tolist() == [150, 450, 750, 1050, 1350, 1650, 1950, 2250, 2550]
    for r in truth:
        local = rec.samples[r - 5:r + 6]
        assert abs(int(np.argmax(local)) - 5) <= 1
        assert rec.samples[r] > 1.0  # R amplitude 1.2 dominates


def test_truth_matches_signal_argmax_with_jitter_and_noise():
    params = clean_params(jitter=0.03)
    rec, truth = synthesize_record(params, "rest", 20.0, True, 11)
    assert len(truth) >= 18
    for r in truth:
        local = rec.samples[r - 5:r + 6]
        assert abs(int(np.argmax(local)) - 5) <= 1


def test_synthesis_deterministic_per_seed():
    p = clean_params(jitter=0.03)
    r1, t1 = synthesize_record(p, "rest", 10.0, True, 42)
    r2, t2 = synthesize_record(p, "rest", 10.0, True, 42)
    r3, t3 = synthesize_record(p, "rest", 10.0, True, 43)
    assert np.array_equal(r1.samples, r2.samples) and np.array_equal(t1, t2)
    assert not np.array_equal(r1.samples, r3.samples)


def test_noise_off_baseline_is_flat_between_beats():
    rec, truth = synthesize_record(clean_params(), "rest", 10.0, False, 5)
    # midway between T end and next P start the model is a sum of far tails
    probe = truth[:-1] + 180  # 0.6 s after R at HR 60
    assert np.all(np.abs(rec.samples[probe]) < 1e-3)


def clean_params_with(**waves):
    """clean_params with some waves' fields replaced, e.g. P={"width_frac": 0}."""
    p = clean_params()
    return dataclasses.replace(p, waves={
        name: dataclasses.replace(w, **waves.get(name, {}))
        for name, w in p.waves.items()})


ORACLE_CASES = [
    pytest.param(generate_subject_params(sid, seed), cond, dur, noise,
                 id="seed%d-%s-%gs-noise_%s" % (seed, cond, dur, noise))
    # each of these subjects has a wave width whose square in libm's pow
    # differs in the last bit from numpy's x * x
    for seed, sid in ((8, "s08"), (42, "s12"))
    for cond, dur in (("rest", 120.0), ("post_exercise", 90.0),
                      ("rest", 2.0), ("post_exercise", 2.0))
    for noise in (True, False)
] + [
    pytest.param(params, cond, dur, False, id="%s-%s-%gs" % (name, cond, dur))
    for name, params in (
        ("zero_amp_P", clean_params_with(P={"amplitude_mv": 0.0})),
        ("zero_width_T", clean_params_with(T={"width_frac": 0.0})),
        # spans cut by the record's first and last samples
        ("wide_P_T", clean_params_with(P={"width_frac": 0.15},
                                       T={"width_frac": 0.25})),
        # the first P ends before sample 0
        ("early_P", clean_params_with(P={"center_frac": -0.7,
                                         "width_frac": 0.01})),
    )
    for cond, dur in (("rest", 2.0), ("post_exercise", 10.0))
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("params,condition,duration_s,noise_on", ORACLE_CASES)
def test_synthesis_matches_the_per_wave_loop_byte_for_byte(
        params, condition, duration_s, noise_on):
    rec, truth = synthesize_record(params, condition, duration_s, noise_on, 17)
    ref, ref_truth = reference_synthesize_record(params, condition,
                                                 duration_s, noise_on, 17)
    assert rec.samples.tobytes() == ref.samples.tobytes()
    assert truth.dtype == ref_truth.dtype
    assert truth.tolist() == ref_truth.tolist()


# ===== exercise geometry ==================================================

def test_exercise_amplitude_factors_exact(monkeypatch):
    p = clean_params()
    waves = dict(p.waves)
    waves["P"] = dataclasses.replace(waves["P"],
                                     amplitude_mv=waves["P"].amplitude_mv * 1.3)
    waves["T"] = dataclasses.replace(waves["T"],
                                     amplitude_mv=waves["T"].amplitude_mv * 0.6)
    pre_scaled = dataclasses.replace(p, waves=waves)
    rec_a, _ = synthesize_record(p, "post_exercise", 10.0, False, 9)
    monkeypatch.setattr(ingest, "EX_P_FACTOR", 1.0)
    monkeypatch.setattr(ingest, "EX_T_FACTOR", 1.0)
    rec_b, _ = synthesize_record(pre_scaled, "post_exercise", 10.0, False, 9)
    assert np.allclose(rec_a.samples, rec_b.samples, rtol=0, atol=1e-12)


def test_qrs_window_identical_across_conditions():
    # HR 60 and 100 both put beats on integer samples with zero jitter, and
    # QRS offsets use the rest period in both conditions, so the windows match
    p = clean_params(rest_hr=60.0, ex_hr=100.0)
    rest, truth_r = synthesize_record(p, "rest", 10.0, False, 3)
    ex, truth_e = synthesize_record(p, "post_exercise", 10.0, False, 3)
    # +/-15 samples covers Q through S but stays clear of the compressed
    # exercise T wave, whose tail reaches past +20 samples
    w_rest = rest.samples[truth_r[3] - 15:truth_r[3] + 16]
    w_ex = ex.samples[truth_e[3] - 15:truth_e[3] + 16]
    assert np.allclose(w_rest, w_ex, rtol=0, atol=1e-5)


def test_p_and_t_positions_compress_with_period():
    p = clean_params(rest_hr=60.0, ex_hr=100.0)
    rest, tr = synthesize_record(p, "rest", 10.0, False, 3)
    ex, te = synthesize_record(p, "post_exercise", 10.0, False, 3)
    # T at +0.28 * period: 84 samples at rest, 50.4 at exercise
    r, e = tr[3], te[3]
    t_rest = int(np.argmax(rest.samples[r + 40:r + 150])) + 40
    t_ex = int(np.argmax(ex.samples[e + 25:e + 90])) + 25
    assert abs(t_rest - 84) <= 1
    assert abs(t_ex - 50) <= 1
    # P at -0.22 * period: 66 samples at rest, 39.6 at exercise
    assert abs(int(np.argmax(rest.samples[r - 90:r - 40])) + (r - 90) - (r - 66)) <= 1
    assert abs(int(np.argmax(ex.samples[e - 60:e - 25])) + (e - 60) - (e - 40)) <= 1


# ===== record round trip ==================================================

def test_record_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(77)
    samples = rng.standard_normal(10_000) * 1.7
    rec = EcgRecord("s01", "rest", FS, samples)
    path = tmp_path / "s01_rest.txt"
    save_record(rec, path)
    back = load_record(path, "s01", "rest")
    assert back.sampling_rate_hz == FS
    assert np.array_equal(back.samples, samples)


def test_record_validation_errors(tmp_path):
    with pytest.raises(TooShort):
        EcgRecord("s", "rest", FS, np.zeros(100))
    with pytest.raises(NonFiniteSample):
        EcgRecord("s", "rest", FS, np.full(1000, np.nan))
    with pytest.raises(InvariantViolation):
        EcgRecord("s", "nap", FS, np.zeros(1000))
    with pytest.raises(InvariantViolation):
        EcgRecord("s", "rest", 60.0, np.zeros(1000))  # under Nyquist bound
    with pytest.raises(InvariantViolation, match="must be finite"):
        EcgRecord("s", "rest", float("inf"), np.zeros(1000))


def test_load_record_error_paths(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("hello\n1.0\n")
    with pytest.raises(MalformedFile):
        load_record(bad_header, "s", "rest")

    bad_line = tmp_path / "b.txt"
    bad_line.write_text("fs=300\n" + "0.1\n" * 700 + "oops\n")
    with pytest.raises(MalformedFile) as exc:
        load_record(bad_line, "s", "rest")
    assert "line 702" in str(exc.value)

    non_finite = tmp_path / "c.txt"
    non_finite.write_text("fs=300\n" + "0.1\n" * 700 + "nan\n")
    with pytest.raises(NonFiniteSample):
        load_record(non_finite, "s", "rest")

    short = tmp_path / "d.txt"
    short.write_text("fs=300\n" + "0.1\n" * 100)
    with pytest.raises(TooShort):
        load_record(short, "s", "rest")


# ===== record file contract ===============================================

PAD = "0.5\n" * 200  # 2 s at the 100 Hz these tests write


def write_record_text(path, body, fs=100):
    with open(path, "wb") as fh:
        fh.write(("fs=%d\n" % fs + body).encode("utf-8"))
    return path


def test_load_record_skips_blank_lines(tmp_path):
    path = write_record_text(tmp_path / "r.txt", "\n\n1.5\n\n \n" + PAD + "\n\n")
    rec = load_record(path, "s", "rest")
    assert rec.samples.size == 201
    assert rec.samples[0] == 1.5


def test_load_record_accepts_surrounding_whitespace_and_crlf(tmp_path):
    body = "  1.5 \r\n\t-2\t\r\n\u00a03\u2003\r\n" + PAD.replace("\n", "\r\n")
    rec = load_record(write_record_text(tmp_path / "r.txt", body), "s", "rest")
    assert rec.samples[:3].tolist() == [1.5, -2.0, 3.0]
    assert rec.samples.size == 203


def test_load_record_reads_underscored_digits_like_float(tmp_path):
    rec = load_record(write_record_text(tmp_path / "r.txt", "1_0\n" + PAD),
                      "s", "rest")
    assert rec.samples[0] == 10.0


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400"])
def test_load_record_non_finite_names_line(tmp_path, text):
    path = write_record_text(tmp_path / "r.txt", PAD + "\n" + text + "\n")
    with pytest.raises(NonFiniteSample, match=r"r\.txt line 203:"):
        load_record(path, "s", "rest")


def test_load_record_non_numeric_names_line(tmp_path):
    # the first bad line is named, whichever kind of fault comes first
    path = write_record_text(tmp_path / "r.txt", "\n1.0 2.0\n" + PAD + "nan\n")
    with pytest.raises(MalformedFile, match=r"r\.txt line 3:"):
        load_record(path, "s", "rest")
    path = write_record_text(tmp_path / "r.txt", PAD + "inf\n0x10\n")
    with pytest.raises(NonFiniteSample, match=r"r\.txt line 202:"):
        load_record(path, "s", "rest")


def test_loaders_report_unreadable_files(tmp_path):
    missing = tmp_path / "missing.txt"
    with pytest.raises(IoFailure, match=r"cannot read .*missing\.txt"):
        load_record(missing, "s", "rest")
    with pytest.raises(IoFailure, match=r"cannot read .*missing\.txt"):
        load_manifest(missing)
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"fs=300\n\xff\xfe\n")
    with pytest.raises(MalformedFile, match=r"binary\.txt: not UTF-8"):
        load_record(binary, "s", "rest")


def per_line_float_load(path):
    """Reference reader, one float() per line: (samples, None) on success,
    else (None, (error type, 1-based line))."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    values = []
    for i, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError:
            return None, (MalformedFile, i)
        if not math.isfinite(v):
            return None, (NonFiniteSample, i)
        values.append(v)
    return np.array(values), None


EDGE_LINES = ["", " ", "\r", "\t", "1_0", "_1", "1__0", "nan", "-inf",
              "1e400", "-0.0", "5e-324", "0x10", "1e", ".5", "5.", "+1",
              "\u0661\u0662", "1,5", "1 2", "\x0c2\x0b"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats().map(repr), st.sampled_from(EDGE_LINES),
                          st.text(max_size=6)), max_size=40))
@example(["-0.0", "5e-324", " 1_0 "])
@example(["1.0", "nan", "oops"])
def test_load_record_matches_per_line_float_oracle(lines):
    with tempfile.TemporaryDirectory() as d:
        path = write_record_text(os.path.join(d, "r.txt"),
                                 PAD + "\n".join(lines) + "\n")
        want, fault = per_line_float_load(path)
        if fault is None:
            got = load_record(path, "s", "rest").samples
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        else:
            with pytest.raises(EcgidError) as exc:
                load_record(path, "s", "rest")
            assert type(exc.value) is fault[0]
            assert "line %d:" % fault[1] in str(exc.value)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(200, 400),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
                  * 50))
def test_save_load_record_is_identity(samples):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "r.txt")
        save_record(EcgRecord("s", "rest", 100.0, samples), path)
        back = load_record(path, "s", "rest")
    assert back.sampling_rate_hz == 100.0
    assert back.samples.tobytes() == samples.tobytes()


# ===== manifest ===========================================================

def test_manifest_round_trip_with_seed(tmp_path):
    m = DatasetManifest(
        (
            ("s01", "rest", "s01_rest.txt", 300.0),
            ("s01", "post_exercise", "s01_ex.txt", 150.0),
            ("s02", "rest", "s02_rest.txt", 300.0),
        ),
        seed=424242,
    )
    path = tmp_path / "manifest.csv"
    save_manifest(m, path)
    back = load_manifest(path)
    assert back.entries == m.entries
    assert back.seed == 424242
    assert back.subject_ids == ["s01", "s02"]


def test_manifest_validation():
    with pytest.raises(InvariantViolation):
        DatasetManifest(())
    with pytest.raises(InvariantViolation):  # s02 lacks a rest entry
        DatasetManifest((
            ("s01", "rest", "a.txt", 10.0),
            ("s02", "post_exercise", "b.txt", 10.0),
        ))
    with pytest.raises(InvariantViolation):  # duplicate triple
        DatasetManifest((
            ("s01", "rest", "a.txt", 10.0),
            ("s01", "rest", "a.txt", 12.0),
        ))


def test_manifest_malformed_lines(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("s01,rest,a.txt\n")
    with pytest.raises(MalformedFile) as exc:
        load_manifest(p)
    assert "line 1" in str(exc.value)
    p.write_text("s01,rest,a.txt,ten\n")
    with pytest.raises(MalformedFile):
        load_manifest(p)


MANIFEST_LINES = st.one_of(
    st.sampled_from(["", " ", "#", "# seed=7", "# seed=-3", "# seed=x",
                     "#seed=1_0", "s1,rest,a.txt,1.0", "s1,post_exercise,b,2"]),
    st.lists(st.one_of(st.sampled_from(CONDITIONS), st.floats().map(repr),
                       st.text(max_size=5)), max_size=5).map(",".join),
    st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.lists(MANIFEST_LINES, max_size=8).map("\n".join))
@example("s1,rest,a,1\rs2,rest,b,2\r\n# seed=3")
def test_load_manifest_parses_or_raises_typed(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            m = load_manifest(path)
        except EcgidError:
            return
    # every line that is neither blank nor a comment is one entry; the file
    # is read with universal newlines
    lines = [ln.strip() for ln in
             text.replace("\r\n", "\n").replace("\r", "\n").split("\n")]
    assert len(m.entries) == sum(1 for ln in lines
                                 if ln and not ln.startswith("#"))


# fields that survive the comma-separated, whitespace-stripped format; a
# subject id that starts with "#" would read back as a comment
FIELD = st.text(alphabet=string.ascii_letters + string.digits + "_-./# ",
                max_size=6).filter(lambda s: s == s.strip())
SUBJECT = FIELD.filter(lambda s: not s.startswith("#"))


@st.composite
def manifests(draw):
    entries = []
    for sid in draw(st.lists(SUBJECT, min_size=1, max_size=5, unique=True)):
        for cond in draw(st.sampled_from([CONDITIONS[:1], CONDITIONS])):
            entries.append((sid, cond, draw(FIELD),
                            draw(st.floats(allow_nan=False))))
    return DatasetManifest(tuple(draw(st.permutations(entries))),
                           draw(st.none() | st.integers()))


@settings(max_examples=200, deadline=None)
@given(manifests())
def test_save_load_manifest_is_identity(manifest):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.txt")
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest



BAD_FIELDS = [
    ("#s2", "a.txt"), (" s2", "a.txt"), ("s2\t", "a.txt"), ("s,2", "a.txt"),
    ("s\n2", "a.txt"), ("s\r2", "a.txt"), ("s2", " a.txt"), ("s2", "a,txt"),
    ("s2", "a\ntxt"), ("s\ud800", "a.txt"), (2, "a.txt"), ("s2", None)]


@pytest.mark.parametrize("entry", [
    pytest.param((sid, "rest", rel, 10.0), id="%s-%s" % (sid, rel))
    for sid, rel in BAD_FIELDS] + [
    pytest.param(("s2", "rest", "a.txt"), id="3-tuple"),
    pytest.param(("s2", "rest", "a.txt", 10.0, 1), id="5-tuple"),
    pytest.param(["s2", "rest", "a.txt", 10.0], id="list"),
    pytest.param("s2", id="str"),
    pytest.param(("s2", "rest", "a.txt", "x"), id="duration-x"),
    pytest.param(("s2", "rest", "a.txt", "10.0"), id="duration-text"),
    pytest.param(("s2", "rest", "a.txt", None), id="duration-None"),
    pytest.param(("s2", "rest", "a.txt", 10 ** 400), id="duration-overflow")])
def test_manifest_rejects_entries_that_would_not_read_back(entry):
    with pytest.raises(InvariantViolation) as exc:
        DatasetManifest((("s1", "rest", "s1.txt", 10.0), entry))
    assert repr(entry) in str(exc.value)


# any text, weighted toward the characters the line format gives meaning
# to, and a lone surrogate that UTF-8 cannot encode
ANY_FIELD = st.text(
    st.characters() | st.sampled_from("#, \t\r\n\x85\u2028\ud800"),
    max_size=6)


@st.composite
def manifest_entries(draw):
    entries = []
    for sid in draw(st.lists(ANY_FIELD, min_size=1, max_size=4, unique=True)):
        for cond in draw(st.sampled_from([CONDITIONS[:1], CONDITIONS])):
            entries.append((sid, cond, draw(ANY_FIELD),
                            draw(st.floats(allow_nan=False))))
    return tuple(draw(st.permutations(entries)))


@settings(max_examples=300, deadline=None)
@given(manifest_entries(), st.none() | st.integers())
@example((("#s1", "rest", "a", 1.0),), None)
@example((("s1", "rest", " a", 1.0),), 3)
@example((("s1", "rest", "a\rb", 1.0),), None)
def test_manifest_builds_only_what_reads_back(entries, seed):
    try:
        manifest = DatasetManifest(entries, seed)
    except EcgidError:
        return
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.txt")
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

# ===== cohort builder =====================================================

def test_build_cohort_shape_and_determinism():
    cohort = build_cohort(3, seed=99, rest_duration_s=10.0, ex_duration_s=8.0,
                          noise_on=False)
    assert len(cohort) == 6
    ids = [rec.subject_id for rec, _ in cohort]
    conds = [rec.condition for rec, _ in cohort]
    assert ids == ["s01", "s01", "s02", "s02", "s03", "s03"]
    assert conds == ["rest", "post_exercise"] * 3
    again = build_cohort(3, seed=99, rest_duration_s=10.0, ex_duration_s=8.0,
                         noise_on=False)
    for (r1, t1), (r2, t2) in zip(cohort, again):
        assert np.array_equal(r1.samples, r2.samples)
        assert np.array_equal(t1, t2)
    assert all(c in CONDITIONS for c in conds)
