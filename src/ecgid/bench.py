"""Experiment harness: pipeline configuration, train/test protocols,
end-to-end runs over a cohort manifest, and report rendering.

A pipeline is preprocess -> detect -> featurize -> (select / normalize /
reduce, fitted on training or auxiliary rows only) -> classify. Everything
downstream of featurization is fitted exclusively on training data; the
fitted state is fingerprinted so leakage is testable.
"""

import csv
import hashlib
import io
import numbers
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import classify as _classify
from . import features as _features
from . import select as _select
from .detect import detect_r_peaks
from .dsp import BAND_HZ, preprocess_ecg
from .errors import (
    EcgidError,
    EmptyCohort,
    InvariantViolation,
    LengthMismatch,
    MalformedFile,
    StageFailure,
    TooFewSubjects,
)
from .ingest import CONDITIONS, derive_seed, load_manifest, load_record

# protocol -> the conditions it reads: one condition split chronologically,
# or (train condition, test condition)
_REST, _EX = CONDITIONS
PROTOCOL_CONDITIONS = {"rest_rest": (_REST,), "ex_first70": (_EX,),
                       "ex_last70": (_EX,), "rest_ex": (_REST, _EX)}
PROTOCOLS = tuple(PROTOCOL_CONDITIONS)
# stage -> (extractor in ecgid.features, the config fields it reads); the
# build passes exactly these fields, and they are part of the rows' cache key
STAGE_EXTRACTORS = {
    "qrs30": ("qrs_features", ()),
    "beat300": ("beat_features", ()),
    "pqrst240": ("pqrst_features", ()),
    "bandpass10_40+beat300": ("beat_features", ()),
    "stft": ("stft_features", ()),
    "cwt": ("cwt_features", ()),
    "ac": ("ac_features", ("n_lags", "window_s")),
    "ac_beat": ("ac_beat_features", ()),
    "fused": ("fused_features", ()),
    "fused_kl": ("fused_features", ()),
}
STAGES = tuple(STAGE_EXTRACTORS)
# every record is band-passed to dsp.BAND_HZ for detection and features; the
# bandpass10_40+beat300 stage takes its beats from the NARROW_BAND_HZ signal
NARROW_BAND_HZ = (10.0, 40.0)
REDUCTIONS = ("none", "pca")
CLASSIFIERS = ("svm", "knn")
TRAIN_FRACTION = 0.7
MIN_TRAIN_ROWS = 10
MIN_TEST_ROWS = 3

REPORT_COLUMNS = ("pipeline", "protocol", "train_acc_pct", "test_acc_pct",
                  "subjects", "train_beats", "test_beats", "skipped_beats",
                  "converged", "subject_majority_acc_pct")


# ===== configuration ======================================================

# field annotation -> the type its values must have, when not itself
_ADMITS = {int: numbers.Integral, float: numbers.Real}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one experiment needs besides the data and the protocol."""

    stage: str = "qrs30"
    n_lags: int = 80
    window_s: float = 1.0
    lam: float = 0.3
    top_n: int = 200
    reduction: str = "none"
    normalize: bool = False
    classifier: str = "svm"
    c: float = 100.0
    gamma: float = 1.0
    knn_k: int = 1
    max_beats_per_subject: int = 120

    def __post_init__(self):
        for f in fields(self):  # a bool is no int or float here
            v = getattr(self, f.name)
            if (isinstance(v, bool) != (f.type is bool)
                    or not isinstance(v, _ADMITS.get(f.type, f.type))):
                raise InvariantViolation("%s must be of type %s, got %r"
                                         % (f.name, f.type.__name__, v))
        if self.stage not in STAGES:
            raise InvariantViolation("unknown stage %r (one of %s)"
                                     % (self.stage, ", ".join(STAGES)))
        if self.reduction not in REDUCTIONS:
            raise InvariantViolation("unknown reduction %r" % (self.reduction,))
        if self.classifier not in CLASSIFIERS:
            raise InvariantViolation("unknown classifier %r" % (self.classifier,))
        if not 0 <= self.lam <= 1:
            raise InvariantViolation("lam must lie in [0, 1]")
        if self.stage == "ac" and not self.n_lags < self.window_s * 300.0 / 2:
            raise InvariantViolation(
                "ac needs n_lags < window_s * fs / 2 at fs = 300")
        for name in ("c", "gamma", "window_s"):
            if not 0 < getattr(self, name) < np.inf:
                raise InvariantViolation("%s must be finite and > 0" % name)
        for name in ("max_beats_per_subject", "knn_k"):
            if getattr(self, name) < 1:
                raise InvariantViolation("%s must be >= 1" % name)
        if self.stage == "fused_kl" and self.top_n < 1:
            raise InvariantViolation("top_n must lie in [1, dim] for "
                                     "fused_kl, got %r" % self.top_n)

    @property
    def stage_id(self):
        if self.stage == "ac":
            return "ac(%d,%g)" % (self.n_lags, self.window_s)
        if self.stage == "fused_kl":
            return "fused_kl(%g,%d)" % (self.lam, self.top_n)
        return self.stage

    @property
    def pipeline_id(self):
        parts = [self.stage_id]
        if self.normalize:
            parts.append("zscore")
        if self.reduction == "pca":
            parts.append("pca")
        parts.append(self.classifier if self.classifier == "svm"
                     else "knn%d" % self.knn_k)
        return "+".join(parts)


_BOOL_WORDS = {"1": True, "0": False, "true": True, "false": False,
               "on": True, "off": False}
_PARSERS = {bool: lambda v: _BOOL_WORDS[v.lower()], int: int, float: float,
            str: str}


def parse_config(text, base=PipelineConfig()):
    """Build a PipelineConfig from flat `key=value` lines.

    Blank lines and `#` comments are ignored; unknown keys are rejected;
    keys the text does not set keep `base`'s values."""
    types = {f.name: f.type for f in fields(PipelineConfig)}
    values = {}
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedFile("config line %d: expected key=value, got %r"
                                % (i, line))
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in types:
            raise MalformedFile("config line %d: unknown key %r" % (i, key))
        try:
            values[key] = _PARSERS[types[key]](val)
        except (KeyError, ValueError):
            raise MalformedFile("config line %d: bad value %r for %s"
                                % (i, val, key))
    return replace(base, **values)


def config_to_text(config):
    """Inverse of parse_config (up to formatting)."""
    lines = []
    for f in fields(PipelineConfig):
        val = getattr(config, f.name)
        if isinstance(val, bool):
            val = "on" if val else "off"
        lines.append("%s=%s" % (f.name, val))
    return "\n".join(lines) + "\n"


# ===== protocol split =====================================================

@dataclass(frozen=True)
class SplitResult:
    train: object
    test: object
    n_subjects: int
    dropped_subjects: tuple


def _split_indices(n, protocol):
    """(train index array, test index array) over n chronological rows."""
    n_train = int(np.floor(TRAIN_FRACTION * n))
    if protocol in ("rest_rest", "ex_first70"):
        return np.arange(0, n_train), np.arange(n_train, n)
    if protocol == "ex_last70":
        return np.arange(n - n_train, n), np.arange(0, n - n_train)
    raise InvariantViolation("protocol %r has no fraction split" % (protocol,))


def _conditions(protocol):
    if not (isinstance(protocol, str) and protocol in PROTOCOL_CONDITIONS):
        raise InvariantViolation("unknown protocol %r (one of %s)"
                                 % (protocol, ", ".join(PROTOCOLS)))
    return PROTOCOL_CONDITIONS[protocol]


def split_protocol(m, protocol):
    """Train/test split of m's rows; _split_parts states the rules."""
    rows = {}  # Python keys: numpy strings drop an id's trailing NULs
    for i, key in enumerate(zip(m.subject_ids, m.conditions)):
        rows.setdefault(key, []).append(i)
    train, test, dropped = _split_parts([_features.take_rows(m, rows[k])
                                         for k in sorted(rows)], protocol)
    return SplitResult(_features.concat_matrices(train),
                       _features.concat_matrices(test), len(test), dropped)


def _split_parts(parts, protocol):
    """Per-subject chronological train/test split of one matrix per record:
    (train parts, test parts, dropped subjects), one part per kept subject.

    rest_rest: first 70% of rest rows train, last 30% test.
    ex_first70: same over post-exercise rows.
    ex_last70: last 70% of post-exercise rows train, first 30% test.
    rest_ex: all rest rows train, all post-exercise rows test.
    Subjects with < 10 train or < 3 test rows are dropped (counted).
    """
    conds = _conditions(protocol)
    records = {(p.subject_ids[0], p.conditions[0]): p for p in parts}
    kept, dropped = [], []
    for s in sorted({s for s, _ in records}):
        rec = [records.get((s, c)) for c in conds]
        if len(rec) == 1 and rec[0] is not None:  # one record, cut in time
            rec = [_features.take_rows(rec[0], i) if i.size else None
                   for i in _split_indices(rec[0].n_rows, protocol)]
        if None in rec or rec[0].n_rows < MIN_TRAIN_ROWS \
                or rec[1].n_rows < MIN_TEST_ROWS:
            dropped.append(s)
            continue
        kept.append(rec)
    if not kept:
        raise EmptyCohort("no subject kept %d train / %d test rows under %s"
                          % (MIN_TRAIN_ROWS, MIN_TEST_ROWS, protocol))
    return (*zip(*kept), tuple(dropped))


# ===== cohort featurization (cached) ======================================
# Cache keys hold the manifest's absolute path, which each entry point
# takes once.

def _cached(cache, key, build):
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _manifest(cache, path):
    return _cached(cache, ("manifest", path), lambda: load_manifest(path))


def read_record(path, sid, cond):
    """(record as read, its BAND_HZ copy, detect_r_peaks on that copy)."""
    raw = load_record(path, sid, cond)
    fs = raw.sampling_rate_hz
    rec = replace(raw, samples=preprocess_ecg(raw.samples, fs, *BAND_HZ))
    return raw, rec, detect_r_peaks(rec.samples, fs)


def _record(cache, path, sid, cond):
    """read_record of the manifest's sid/cond entry, built once per cache."""
    def build():
        for s, c, rel, _ in _manifest(cache, path).entries:
            if (s, c) == (sid, cond):
                return read_record(os.path.join(os.path.dirname(path), rel),
                                   sid, cond)
        raise EmptyCohort("manifest has no %s/%s record" % (sid, cond))
    return _cached(cache, ("record", path, sid, cond), build)


def _record_stage_matrix(cache, path, sid, cond, config):
    """Stage features for one record, capped at max_beats_per_subject."""
    name, reads = STAGE_EXTRACTORS[config.stage]
    kwargs = {f: getattr(config, f) for f in reads}
    band = (NARROW_BAND_HZ if config.stage == "bandpass10_40+beat300"
            else BAND_HZ)
    n = config.max_beats_per_subject
    key = ("stage", path, sid, cond, name, band, tuple(kwargs.items()), n)

    def build():
        try:
            raw, rec, det = _record(cache, path, sid, cond)
            if band != BAND_HZ:  # made here, so the cache keeps no copy
                rec = replace(raw, samples=preprocess_ecg(
                    raw.samples, raw.sampling_rate_hz, *band))
            det = replace(det, r_peaks=det.r_peaks[:n],
                          qrs_onsets=det.qrs_onsets[:n],
                          qrs_offsets=det.qrs_offsets[:n])
            # looked up per call, so wrappers installed on ecgid.features run
            extract = getattr(_features, name)
            return extract(rec, det, **kwargs)
        except EmptyCohort:
            raise  # the manifest lacks this record; no stage ran
        except EcgidError as exc:
            raise StageFailure("subject %s/%s at stage %s: %s"
                               % (sid, cond, config.stage, exc)) from exc

    return _cached(cache, key, build)


def _required_entries(manifest, protocol, config, seed):
    """(sid, cond) pairs a run actually needs, in deterministic order; an
    unknown protocol raises here, before any record is featurized."""
    base = _conditions(protocol)
    subjects = manifest.subject_ids
    if config.stage == "fused_kl":
        aux, eval_ = aux_eval_split(subjects, seed)
        pairs = [(s, c) for s in aux for c in CONDITIONS]
        pairs += [(s, c) for s in eval_ for c in base]
    else:
        pairs = [(s, c) for s in subjects for c in base]
    have = {(s, c) for (s, c, _, _) in manifest.entries}
    missing = [p for p in pairs if p not in have]
    if missing:
        raise EmptyCohort("manifest lacks required records: %s"
                          % sorted(missing)[:5])
    return sorted(pairs)


def aux_eval_split(subjects, seed):
    """Split subject ids into (auxiliary half, evaluation half) by a seeded
    permutation; the auxiliary half fits selection weights only."""
    subjects = sorted(subjects)
    rng = np.random.default_rng(derive_seed("aux_split", seed))
    perm = rng.permutation(len(subjects))
    n_aux = len(subjects) // 2
    aux = sorted(subjects[i] for i in perm[:n_aux])
    eval_ = sorted(subjects[i] for i in perm[n_aux:])
    return tuple(aux), tuple(eval_)


def featurize_cohort(manifest_path, config, entries, cache=None):
    """Stage features of the given (subject, condition) records, stacked in
    the given order; rows are chronological per record and the matrix's
    `skipped` sums the records' skipped beats. Without a cache, each record
    is still loaded and filtered once."""
    cache = {} if cache is None else cache
    path = os.path.abspath(manifest_path)
    return _features.concat_matrices([
        _record_stage_matrix(cache, path, sid, cond, config)
        for sid, cond in entries])


def cohort_matrix(manifest_path, config, protocol, seed, cache=None):
    """Featurize every record a run needs and stack the rows.

    Returns (matrix, skipped_beats). Rows are chronological per record;
    records are ordered by (subject, condition).
    """
    cache = {} if cache is None else cache
    entries = _required_entries(
        _manifest(cache, os.path.abspath(manifest_path)), protocol, config,
        seed)
    matrix = featurize_cohort(manifest_path, config, entries, cache)
    return matrix, int(matrix.skipped)


# ===== fitting and prediction =============================================

@dataclass(frozen=True)
class FittedState:
    """Everything learned from training (and auxiliary) rows only."""

    config: PipelineConfig
    selection: object = None
    zscore: object = None
    pca: object = None
    svm: object = None
    knn_train: object = None


def fit_pipeline_state(train, config, selection=None):
    """Fit z-score, PCA, and the classifier on training rows only."""
    return _transform(FittedState(config, selection), train, fit=True)[0]


def _transform(state, m, fit=False, out=None):
    """(state, rows): m's rows through the state's z-score and PCA. With
    `fit`, each step the config names, then the classifier, is fitted on the
    rows it gets. The z-score writes `out`: m.values only if none shares it."""
    if fit and state.config.normalize:
        state = replace(state, zscore=_features.zscore_fit(m))
    if state.zscore is not None:
        m = _features.zscore_apply(state.zscore, m, out)
    if fit and state.config.reduction == "pca":
        state = replace(state, pca=_select.pca_fit(m))
    if state.pca is not None:
        m = _select.pca_transform(state.pca, m)
    if fit and state.config.classifier == "knn":
        state = replace(state, knn_train=m)
    elif fit:
        state = replace(state, svm=_classify.svm_train(
            m, c=state.config.c, gamma=state.config.gamma))
    return state, m


def _classify_rows(state, m):
    """Classify rows that the state's z-score and PCA have transformed."""
    if state.svm is not None:
        return _classify.svm_predict(state.svm, m)
    return _classify.knn_predict(state.knn_train, m, k=state.config.knn_k)


def state_fingerprint(state):
    """Stable digest of every fitted parameter; equal fingerprints mean the
    training phase saw identical data."""
    h = hashlib.sha256()

    def put(tag, arr):
        h.update(tag.encode("utf-8"))
        h.update(np.ascontiguousarray(arr, dtype=float))  # no copy

    sel = state.selection
    if sel is not None:
        put("sel.w", sel.w)
        put("sel.idx", np.array(sel.selected, dtype=float))
    if state.zscore is not None:
        put("z.mean", state.zscore.mean)
        put("z.std", state.zscore.std)
    if state.pca is not None:
        put("pca.mean", state.pca.mean)
        put("pca.comp", state.pca.components[:state.pca.k])
        h.update(b"pca.k%d" % state.pca.k)
    if state.svm is not None:
        # every training row once; each pair names its rows by index
        put("sv", state.svm.sv_matrix)
        for pair in state.svm.pairs:
            h.update(("pair:%s|%s" % (pair.label_pos, pair.label_neg))
                     .encode("utf-8"))
            put("sv_idx", pair.sv_idx)
            put("coef", pair.coef)
            put("bias", np.array([pair.bias]))
    if state.knn_train is not None:
        put("knn.x", state.knn_train.values)
        h.update("|".join(state.knn_train.subject_ids).encode("utf-8"))
    return h.hexdigest()


# ===== reports ============================================================

@dataclass(frozen=True)
class ExperimentReport:
    """One pipeline x protocol outcome plus diagnostics."""

    pipeline: str
    protocol: str
    train_accuracy: float
    test_accuracy: float
    subject_majority_accuracy: float
    n_subjects: int
    train_beats: int
    test_beats: int
    skipped_beats: int
    dropped_subjects: tuple
    converged: bool
    seed: int
    confusion: tuple
    state_fingerprint: str

    def __post_init__(self):
        for acc in (self.train_accuracy, self.test_accuracy,
                    self.subject_majority_accuracy):
            if not 0.0 <= acc <= 1.0:
                raise InvariantViolation("accuracy %r outside [0, 1]" % acc)
        total = sum(n for (_, _, n) in self.confusion)
        if total != self.test_beats:
            raise InvariantViolation(
                "confusion counts sum %d, test beats %d"
                % (total, self.test_beats))
        if any(n <= 0 for (_, _, n) in self.confusion):
            raise InvariantViolation("confusion counts must be positive")


def _confusion(pred, truth):
    counts = {}
    for p, t in zip(pred.labels, truth):
        counts[(t, p)] = counts.get((t, p), 0) + 1
    return tuple(sorted((t, p, n) for (t, p), n in counts.items()))


def subject_majority_accuracy(pred, truth):
    """Fraction of subjects whose modal predicted label is their own;
    modal ties break to the ascending label."""
    truth = tuple(truth)
    if len(pred.labels) != len(truth):
        raise LengthMismatch(
            "%d predictions vs %d truth labels" % (len(pred.labels), len(truth)))
    per = {}
    for p, t in zip(pred.labels, truth):
        per.setdefault(t, []).append(p)
    if not per:
        raise InvariantViolation("no predictions to score")
    return sum(min(set(preds), key=lambda lab: (-preds.count(lab), lab)) == t
               for t, preds in per.items()) / len(per)


def _run_top_ns(manifest_path, configs, protocol, seed, cache):
    """One report per config in `configs`, which differ only in top_n. Each
    record is featurized once, and the selection weights are fitted once on
    the stacked auxiliary records; each top_n keeps a prefix of the one
    ranking of the weights.

    No step stacks the whole cohort. Train rows (for fused_kl, the selected
    columns) are stacked, fitted and classified, then test rows once the
    train stack is let go; each stack is z-scored in place. Test parts
    (copies, unless rest_ex without a selection) live through the fit."""
    if not configs:
        return []
    config = configs[0]
    cache = {} if cache is None else cache
    path = os.path.abspath(manifest_path)
    man = _manifest(cache, path)
    aux_sids = aux_eval_split(man.subject_ids, seed)[0]
    if config.stage == "fused_kl" and len(aux_sids) < 2:
        raise TooFewSubjects("selection needs >= 2 auxiliary subjects")
    parts = [_record_stage_matrix(cache, path, sid, cond, config)
             for sid, cond in _required_entries(man, protocol, config, seed)]
    skipped = sum(p.skipped for p in parts)
    selections = [None] * len(configs)
    if config.stage == "fused_kl":
        full = _select.select_features(_features.concat_matrices(
            [p for p in parts if p.subject_ids[0] in aux_sids]),
            config.lam, max(c.top_n for c in configs))
        selections = [replace(full, selected=full.selected[:c.top_n])
                      for c in configs]
        parts = [p for p in parts if p.subject_ids[0] not in aux_sids]
    reports = []
    for cfg, selection in zip(configs, selections):
        train, test, dropped = _split_parts(parts if selection is None else [
            _select.apply_selection(selection, p) for p in parts], protocol)
        n_subjects, train = len(test), _features.concat_matrices(train)
        state, train = _transform(FittedState(cfg, selection), train,
                                  fit=True, out=train.values)
        train_acc = _classify.accuracy(_classify_rows(state, train),
                                       train.subject_ids)
        n_train, train = train.n_rows, None  # lets the train stack go
        test = _features.concat_matrices(test)
        test_pred = _classify_rows(*_transform(state, test, out=test.values))
        reports.append(ExperimentReport(
            pipeline=cfg.pipeline_id,
            protocol=protocol,
            train_accuracy=train_acc,
            test_accuracy=_classify.accuracy(test_pred, test.subject_ids),
            subject_majority_accuracy=subject_majority_accuracy(
                test_pred, test.subject_ids),
            n_subjects=n_subjects,
            train_beats=n_train,
            test_beats=test.n_rows,
            skipped_beats=skipped,
            dropped_subjects=dropped,
            converged=state.svm is None or state.svm.all_converged,
            seed=seed,
            confusion=_confusion(test_pred, test.subject_ids),
            state_fingerprint=state_fingerprint(state),
        ))
    return reports


def run_pipeline(manifest_path, config, protocol, seed, cache=None):
    """Execute one experiment end to end.

    Parameters
    ----------
    manifest_path : str
        Cohort manifest written by the generator (or hand-built).
    config : PipelineConfig
    protocol : str
        One of rest_rest, ex_first70, ex_last70, rest_ex.
    seed : int
        Seeds the auxiliary/evaluation subject split of the fused_kl stage
        and is recorded in the report; no other step of a run is random.
    cache : dict, optional
        Reused across runs to share loaded records, detections, and stage
        features; holds no fitted state, so sharing cannot leak. A run
        without one still loads and filters each record once.

    Returns
    -------
    ExperimentReport
    """
    return _run_top_ns(manifest_path, [config], protocol, seed, cache)[0]


def sweep_top_n(manifest_path, config, protocol, seed, top_n_values,
                cache=None):
    """One fused_kl report per retained-feature count, each equal to
    run_pipeline at that top_n; the selection weights are fitted once."""
    if config.stage != "fused_kl":
        raise InvariantViolation("sweep applies to the fused_kl stage")
    configs = [replace(config, top_n=n) for n in top_n_values]
    return _run_top_ns(manifest_path, configs, protocol, seed, cache)


def render_report(reports, fmt="csv"):
    """Render reports as CSV or a Markdown table through render_rows;
    accuracies print as percentages with one decimal."""
    if not (isinstance(reports, (list, tuple)) and reports and all(
            isinstance(r, ExperimentReport) for r in reports)):
        raise InvariantViolation("no reports to render: need a list of them")
    rows = [(r.pipeline, r.protocol, "%.1f%%" % (100.0 * r.train_accuracy),
             "%.1f%%" % (100.0 * r.test_accuracy), str(r.n_subjects),
             str(r.train_beats), str(r.test_beats), str(r.skipped_beats),
             "1" if r.converged else "0",
             "%.1f%%" % (100.0 * r.subject_majority_accuracy))
            for r in reports]
    return render_rows(rows, fmt)


def render_rows(rows, fmt):
    """Render pre-formatted report rows (tuples of strings) as csv or
    markdown, sorted by (pipeline, protocol)."""
    if fmt not in ("csv", "markdown"):
        raise InvariantViolation("format must be csv or markdown")
    rows = sorted(rows, key=lambda r: (r[0], r[1]))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(REPORT_COLUMNS) + " |",
             "|" + "|".join(" --- " for _ in REPORT_COLUMNS) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def parse_report_csv(text, path="report"):
    """Read a rendered CSV back into row dicts (for report merging). Blank
    lines are skipped; a row without exactly one field per column raises
    MalformedFile naming path and the line the row ends on."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise MalformedFile("%s line %d: %s" % (path, reader.line_num, exc))
    if not rows or tuple(rows[0][1]) != REPORT_COLUMNS:
        raise MalformedFile("%s: header mismatch: %r" % (path, rows[:1]))
    for line, row in rows[1:]:
        if len(row) != len(REPORT_COLUMNS):
            raise MalformedFile("%s line %d: expected %d fields, got %d"
                                % (path, line, len(REPORT_COLUMNS), len(row)))
    return [dict(zip(REPORT_COLUMNS, row)) for _, row in rows[1:]]
