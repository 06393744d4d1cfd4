"""Load, store, and synthesize labeled single-lead ECG recordings.

Synthetic records are sum-of-Gaussians beat trains. Wave geometry is stored
as fractions of the beat period; P and T scale with the actual (condition +
jitter) period while Q/R/S always use the subject's rest period, so exercise
compresses P/T toward the R peak but leaves QRS shape untouched. Exercise
additionally scales P amplitude up and T amplitude down by fixed factors.
"""

import hashlib
import numbers
import os
from collections import Counter
from dataclasses import astuple, dataclass, replace

import numpy as np

from .dsp import BAND_HZ
from .errors import (
    InvariantViolation,
    IoFailure,
    MalformedFile,
    NonFiniteSample,
    TooShort,
)

CONDITIONS = ("rest", "post_exercise")

# exercise morphology: P grows, T shrinks, QRS untouched
EX_P_FACTOR = 1.3
EX_T_FACTOR = 0.6

WAVE_ORDER = ("P", "Q", "R", "S", "T")
FS_HZ = 300.0  # sampling rate of every synthetic record
JITTER_CLIP = 2.5  # beat-period jitter draws are clipped to +-this many sd


@dataclass(frozen=True)
class EcgRecord:
    """One subject's single-lead recording under one condition."""

    subject_id: str
    condition: str
    sampling_rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if self.condition not in CONDITIONS:
            raise InvariantViolation("unknown condition %r" % (self.condition,))
        if not 2 * BAND_HZ[1] < self.sampling_rate_hz < np.inf:
            raise InvariantViolation("sampling rate %g must be finite and above "
                                     "the Nyquist bound for the %g Hz cutoff"
                                     % (self.sampling_rate_hz, BAND_HZ[1]))
        if s.size < 2 * self.sampling_rate_hz:
            raise TooShort(
                "record has %d samples, need at least 2 s (%d)"
                % (s.size, int(2 * self.sampling_rate_hz))
            )
        if not np.all(np.isfinite(s)):
            raise NonFiniteSample("record contains NaN or infinite samples")

    @property
    def duration_s(self):
        return self.samples.size / self.sampling_rate_hz


@dataclass(frozen=True)
class Wave:
    """One Gaussian wave: amplitude in mV, center/width as beat fractions."""

    amplitude_mv: float
    center_frac: float
    width_frac: float


@dataclass(frozen=True)
class GeneratorParams:
    """Per-subject synthesis parameters."""

    waves: dict  # name -> Wave, for P, Q, R, S, T
    rest_hr_bpm: float
    ex_hr_bpm: float
    hr_jitter_frac: float
    baseline_mv: float
    powerline_mv: float
    white_mv: float

    def __post_init__(self):
        missing = [w for w in WAVE_ORDER if w not in self.waves]
        if missing:
            raise InvariantViolation("missing waves %r" % (missing,))
        amp, center, width = np.array([astuple(self.waves[w]) for w in WAVE_ORDER]).T
        if not np.isfinite([amp, center, width]).all():
            raise InvariantViolation("wave amplitudes, centers and widths must be finite")
        if not np.all(np.diff(center) > 0):
            raise InvariantViolation("wave centers must be strictly ordered P<Q<R<S<T")
        if not np.all(amp[2] > np.abs(np.delete(amp, 2))):  # WAVE_ORDER[2] is R
            raise InvariantViolation("R amplitude must dominate every other wave")
        if not 0 < self.rest_hr_bpm < self.ex_hr_bpm < np.inf:
            raise InvariantViolation("heart rates must satisfy 0 < rest < exercise < inf")
        if not 0 <= self.hr_jitter_frac * JITTER_CLIP < 1:
            raise InvariantViolation(
                "jitter fraction must satisfy 0 <= hr_jitter_frac * %g < 1, "
                "or a beat period can be zero or negative" % JITTER_CLIP)


def derive_seed(*parts):
    """Stable 64-bit seed from arbitrary labeled parts (order-sensitive)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def generate_subject_params(subject_id, cohort_seed):
    """Deterministic per-subject wave parameters.

    Draws from fixed physiological ranges; distinct subject ids give
    distinct parameter tuples with probability ~1. Rest heart rate is near
    70 bpm, exercise heart rate uniform in [90, 150].
    """
    rng = np.random.default_rng(derive_seed("params", cohort_seed, subject_id))
    u = rng.uniform
    waves = {
        "P": Wave(u(0.10, 0.22), -0.22 + u(-0.02, 0.02), u(0.016, 0.026)),
        "Q": Wave(-u(0.06, 0.16), -0.05 + u(-0.006, 0.006), u(0.007, 0.011)),
        "R": Wave(u(0.9, 1.8), 0.0, u(0.009, 0.014)),
        "S": Wave(-u(0.08, 0.22), 0.05 + u(-0.006, 0.006), u(0.007, 0.011)),
        "T": Wave(u(0.18, 0.40), 0.28 + u(-0.025, 0.025), u(0.030, 0.045)),
    }
    return GeneratorParams(
        waves=waves,
        rest_hr_bpm=u(64.0, 76.0),
        ex_hr_bpm=u(90.0, 150.0),
        hr_jitter_frac=0.03,
        baseline_mv=u(0.03, 0.08),
        powerline_mv=u(0.01, 0.03),
        white_mv=u(0.004, 0.012),
    )


def synthesize_record(params, condition, duration_s, noise_on, rng_seed):
    """Synthesize one record; returns (EcgRecord, ground-truth R indices).

    Parameters
    ----------
    params : GeneratorParams
    condition : str
        "rest" or "post_exercise"; the latter raises heart rate to
        params.ex_hr_bpm and scales P/T amplitude by EX_P_FACTOR/EX_T_FACTOR.
    duration_s : float
        Record length in seconds (finite, >= 2).
    noise_on : bool
        Adds 0.25 Hz baseline wander, 50 Hz powerline, and white noise at
        the parameterized levels.
    rng_seed : int
        Seeds beat jitter, noise phases, and white noise; identical inputs
        give bit-identical output.

    Returns
    -------
    (EcgRecord, numpy.ndarray of int)
        Record at FS_HZ plus analytic R-peak sample indices for oracle use.
    """
    if condition not in CONDITIONS:
        raise InvariantViolation("unknown condition %r" % (condition,))
    if not 2 <= duration_s < np.inf:
        raise InvariantViolation("duration must be finite and >= 2 s, got %r"
                                 % (duration_s,))
    rng = np.random.default_rng(rng_seed)
    n = int(round(duration_s * FS_HZ))
    try:
        samples = np.zeros(n)
    except (ValueError, MemoryError) as exc:
        raise InvariantViolation("duration %r s is too long to synthesize: %s"
                                 % (duration_s, exc)) from exc

    hr = params.ex_hr_bpm if condition == "post_exercise" else params.rest_hr_bpm
    base_period = 60.0 / hr

    # beat grid: jittered periods, first R at 0.5 s, last beat fully inside
    r_times = []
    periods = []
    t_r = 0.5
    while t_r < duration_s - 0.5:
        r_times.append(t_r)
        draw = float(np.clip(rng.standard_normal(), -JITTER_CLIP, JITTER_CLIP))
        period = base_period * (1.0 + params.hr_jitter_frac * draw)
        periods.append(period)
        t_r += period
    r_times, periods = np.array(r_times), np.array(periods)

    # (beats x WAVE_ORDER) period each wave scales with: P the gap before its
    # R, Q/R/S the rest period (QRS shape is condition-free), T the gap after
    scale = np.full((periods.size, len(WAVE_ORDER)), 60.0 / params.rest_hr_bpm)
    scale[:, 0], scale[:, -1] = np.r_[periods[:1], periods[:-1]], periods
    amp, center, width = np.array([astuple(params.waves[w]) for w in WAVE_ORDER]).T
    if condition == "post_exercise":
        amp = amp * [EX_P_FACTOR, 1.0, 1.0, 1.0, EX_T_FACTOR]
    mu = (r_times[:, None] + center * scale).ravel()
    sigma = (width * scale).ravel()
    # each Gaussian is summed within +/- 6 sigma (beyond it < 2e-8 amp);
    # zero-amplitude and non-positive-width waves add nothing
    lo = np.maximum(np.floor((mu - 6 * sigma) * FS_HZ).astype(int), 0)
    hi = np.minimum(np.ceil((mu + 6 * sigma) * FS_HZ).astype(int) + 1, n)
    span = np.where((np.tile(amp, periods.size) != 0.0) & (sigma > 0.0),
                    np.maximum(hi - lo, 0), 0)
    # one term per (Gaussian, sample) in beat-then-PQRST order, so each
    # sample sums its terms in the order of a per-beat, per-wave loop
    g = np.repeat(np.arange(span.size), span)
    i = np.arange(g.size) + np.repeat(lo - np.cumsum(span) + span, span)
    # Python's float ** is libm pow, which differs from numpy's x * x in the
    # last bit of about 1 value in 1100; records keep the former's bytes
    var2 = 2.0 * np.array([s ** 2 for s in sigma.tolist()])
    samples += np.bincount(i, amp[g % len(WAVE_ORDER)] * np.exp(
        -((i / FS_HZ - mu[g]) ** 2) / var2[g]), minlength=n)

    if noise_on:
        t = np.arange(n) / FS_HZ
        ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
        samples += params.baseline_mv * np.sin(2 * np.pi * 0.25 * t + ph1)
        samples += params.powerline_mv * np.sin(2 * np.pi * 50.0 * t + ph2)
        samples += params.white_mv * rng.standard_normal(n)

    record = EcgRecord("synthetic", condition, FS_HZ, samples)
    return record, np.rint(r_times * FS_HZ).astype(int)


def build_cohort(n_subjects, seed, rest_duration_s=300.0, ex_duration_s=150.0,
                 noise_on=True):
    """Synthesize a full cohort in memory.

    Returns a list of (EcgRecord, truth_r_indices) with two records per
    subject (rest then post_exercise); records carry real subject ids.
    """
    out = []
    for i in range(n_subjects):
        sid = "s%02d" % (i + 1)
        params = generate_subject_params(sid, seed)
        for condition, dur in (("rest", rest_duration_s),
                               ("post_exercise", ex_duration_s)):
            rec, truth = synthesize_record(
                params, condition, dur, noise_on,
                rng_seed=derive_seed("record", seed, sid, condition))
            out.append((replace(rec, subject_id=sid), truth))
    return out


# ===== text files =========================================================

def _read_text(path):
    """Whole UTF-8 text file. An unreadable file, or a path that is not one
    (open() would take an int for a descriptor), raises IoFailure."""
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedFile("%s: not UTF-8 text: %s" % (path, exc)) from exc
    except (OSError, TypeError, ValueError) as exc:  # ValueError: a NUL
        raise IoFailure("cannot read %s: %s" % (path, exc)) from exc


def _write_lines(path, lines):
    """Write each line with a newline ending; failures raise as _read_text's."""
    try:
        with open(os.fspath(path), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    except (OSError, TypeError, ValueError) as exc:
        raise IoFailure("cannot write %s: %s" % (path, exc)) from exc


def _parse_finite(path, rows, line_numbers):
    """float64 array of numeric text, one row per line (a field or a list of
    fields), each field read as Python's float() reads it.

    One np.array call parses every row; only if it fails or yields NaN or
    infinity are the fields re-read, to name the first bad one's line from
    `line_numbers` (an iterable aligned with `rows`): MalformedFile for text
    float() rejects, NonFiniteSample for a non-finite value.
    """
    try:
        values = np.array(rows, dtype=float)
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for row, line_no in zip(rows, line_numbers):
        for field in [row] if isinstance(row, str) else row:
            try:
                v = float(field)
            except ValueError:
                raise MalformedFile("%s line %d: non-numeric value %r"
                                    % (path, line_no, field)) from None
            if not np.isfinite(v):
                raise NonFiniteSample("%s line %d: non-finite value %r"
                                      % (path, line_no, field))
    raise InvariantViolation("%s: rows failed to parse as one array" % path)


# ===== record files =======================================================

def save_record(record, path):
    """Write the record format: `fs=<int>` header, one amplitude per line."""
    fs = record.sampling_rate_hz
    if fs != int(fs):
        raise InvariantViolation("record format requires an integer sampling rate")
    _write_lines(path, ["fs=%d" % int(fs), *map(repr, record.samples.tolist())])


def load_record(path, subject_id, condition):
    """Parse a record file; lossless for values written by save_record.

    Blank lines are skipped and each sample line is read as float() reads
    it. A bad line raises MalformedFile or NonFiniteSample naming it.
    """
    lines = _read_text(path).split("\n")
    if not lines[0].startswith("fs="):
        raise MalformedFile("%s line 1: expected `fs=<int>` header" % path)
    try:
        fs = int(lines[0][3:])
    except ValueError:
        raise MalformedFile("%s line 1: bad sampling rate %r" % (path, lines[0]))
    body = lines[1:]
    samples = _parse_finite(path, [ln for ln in body if ln.strip()],
                            (i for i, ln in enumerate(body, 2) if ln.strip()))
    if samples.size < 2 * fs:
        raise TooShort(
            "%s: %d samples is under the 2 s minimum (%d)" % (path, samples.size, 2 * fs)
        )
    return EcgRecord(subject_id, condition, float(fs), samples)


# ===== manifests ==========================================================

@dataclass(frozen=True)
class DatasetManifest:
    """Cohort index: (subject_id, condition, relative_path, duration_s) rows."""

    entries: tuple
    seed: object = None  # int for synthetic cohorts, else None

    def __post_init__(self):
        if not self.entries:
            raise InvariantViolation("manifest has no entries")
        for entry in self.entries:
            if not (isinstance(entry, tuple) and len(entry) == 4):
                raise InvariantViolation("manifest entry %r is not a 4-tuple"
                                         % (entry,))
            sid, cond, rel, dur = entry
            # load_manifest reads a line starting "#" as a comment
            if not (_reads_back(sid) and _reads_back(rel)) \
                    or sid.startswith("#"):
                raise InvariantViolation(
                    "manifest entry %r would not read back as written: its "
                    "subject id and path must be UTF-8 text without "
                    "surrounding whitespace, a comma or a line break, and the "
                    "subject id must not start with '#'" % (entry,))
            if cond not in CONDITIONS:
                raise InvariantViolation("unknown condition %r" % (cond,))
            # save_manifest writes float(dur): only a real number reads back
            try:
                float(dur if isinstance(dur, numbers.Real) else None)
            except (TypeError, OverflowError):
                raise InvariantViolation("manifest entry %r: duration is not "
                                         "a float" % (entry,)) from None
        counts = Counter((s, c) for (s, c, _, _) in self.entries)
        dupes = sorted(p for p, n in counts.items() if n > 1)
        if dupes:
            raise InvariantViolation(
                "one record per (subject, condition) allowed; duplicated: %s"
                % dupes)
        subjects = {s for (s, _, _, _) in self.entries}
        with_rest = {s for (s, c, _, _) in self.entries if c == "rest"}
        if subjects - with_rest:
            raise InvariantViolation(
                "subjects without a rest entry: %s" % sorted(subjects - with_rest)
            )

    @property
    def subject_ids(self):
        return sorted({s for (s, _, _, _) in self.entries})


def _reads_back(field):
    """Whether a text field survives save_manifest's one UTF-8,
    comma-separated line per entry and load_manifest's stripping."""
    if not isinstance(field, str) or field != field.strip() \
            or not set(field).isdisjoint(",\r\n"):
        return False
    try:
        field.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def save_manifest(manifest, path):
    lines = []
    if manifest.seed is not None:
        lines.append("# seed=%d" % manifest.seed)
    for (sid, cond, rel, dur) in manifest.entries:
        lines.append("%s,%s,%s,%s" % (sid, cond, rel, repr(float(dur))))
    _write_lines(path, lines)


def load_manifest(path):
    text = _read_text(path)
    entries = []
    seed = None
    for i, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            # comments are ignored as entries; a `# seed=<int>` directive is
            # still read back so synthetic cohorts stay reproducible
            body = line[1:].strip()
            if body.startswith("seed="):
                try:
                    seed = int(body[5:])
                except ValueError:
                    raise MalformedFile("%s line %d: bad seed directive" % (path, i))
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise MalformedFile(
                "%s line %d: expected subject_id,condition,relative_path,duration_s"
                % (path, i)
            )
        sid, cond, rel, dur_text = (p.strip() for p in parts)
        try:
            dur = float(dur_text)
        except ValueError:
            raise MalformedFile("%s line %d: bad duration %r" % (path, i, dur_text))
        entries.append((sid, cond, rel, dur))
    return DatasetManifest(tuple(entries), seed)


def write_cohort(out_dir, n_subjects, seed, rest_duration_s=300.0,
                 ex_duration_s=150.0, noise_on=True):
    """Write build_cohort's records to out_dir as `<subject>_<condition>.txt`
    and `manifest.txt`; returns the manifest path. Bad arguments fail before
    out_dir is made, and failing to make it raises IoFailure."""
    cohort = build_cohort(n_subjects, seed, rest_duration_s, ex_duration_s,
                          noise_on)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure("cannot create %s: %s" % (out_dir, exc)) from exc
    entries = []
    for rec, _truth in cohort:
        rel = "%s_%s.txt" % (rec.subject_id, rec.condition)
        save_record(rec, os.path.join(out_dir, rel))
        entries.append((rec.subject_id, rec.condition, rel, rec.duration_s))
    path = os.path.join(out_dir, "manifest.txt")
    save_manifest(DatasetManifest(tuple(entries), seed=seed), path)
    return path
