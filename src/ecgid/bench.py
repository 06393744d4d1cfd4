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
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import classify as _classify
from . import features as _features
from . import select as _select
from .detect import detect_r_peaks
from .dsp import preprocess_ecg
from .errors import (
    EcgidError,
    EmptyCohort,
    InvariantViolation,
    MalformedFile,
    StageFailure,
)
from .ingest import EcgRecord, derive_seed, load_manifest, load_record

# protocol -> the conditions it reads: one condition split chronologically,
# or (train condition, test condition)
PROTOCOL_CONDITIONS = {"rest_rest": ("rest",),
                       "ex_first70": ("post_exercise",),
                       "ex_last70": ("post_exercise",),
                       "rest_ex": ("rest", "post_exercise")}
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
    "ac_beat": ("ac_beat_features", ("n_lags",)),
    "fused": ("fused_features", ()),
    "fused_kl": ("fused_features", ()),
}
STAGES = tuple(STAGE_EXTRACTORS)
# every record is band-passed to BAND_HZ for detection and features; the
# bandpass10_40+beat300 stage takes its beats from the NARROW_BAND_HZ signal
BAND_HZ = (0.5, 40.0)
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
    tol: float = 1e-3
    max_epochs: int = 200
    knn_k: int = 1
    max_beats_per_subject: int = 120

    def __post_init__(self):
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
        if self.max_beats_per_subject < 1:
            raise InvariantViolation("max_beats_per_subject must be >= 1")
        for name in ("c", "gamma", "tol", "window_s"):
            if not 0 < getattr(self, name) < np.inf:
                raise InvariantViolation("%s must be finite and > 0" % name)
        if self.max_epochs < 1:
            raise InvariantViolation("max_epochs must be >= 1")

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


def parse_config(text):
    """Build a PipelineConfig from flat `key=value` lines.

    Blank lines and `#` comments are ignored; unknown keys are rejected.
    """
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
            if types[key] is bool or types[key] == "bool":
                values[key] = _BOOL_WORDS[val.lower()]
            elif types[key] is int or types[key] == "int":
                values[key] = int(val)
            elif types[key] is float or types[key] == "float":
                values[key] = float(val)
            else:
                values[key] = val
        except (KeyError, ValueError):
            raise MalformedFile("config line %d: bad value %r for %s"
                                % (i, val, key))
    return PipelineConfig(**values)


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
    if protocol not in PROTOCOL_CONDITIONS:
        raise InvariantViolation("unknown protocol %r (one of %s)"
                                 % (protocol, ", ".join(PROTOCOLS)))
    return PROTOCOL_CONDITIONS[protocol]


def split_protocol(m, protocol):
    """Per-subject chronological train/test split.

    rest_rest: first 70% of rest rows train, last 30% test.
    ex_first70: same over post-exercise rows.
    ex_last70: last 70% of post-exercise rows train, first 30% test.
    rest_ex: all rest rows train, all post-exercise rows test.
    Subjects with < 10 train or < 3 test rows are dropped (counted).
    """
    conds = _conditions(protocol)
    sid = np.array(m.subject_ids)
    cond = np.array(m.conditions)
    train_idx, test_idx, dropped = [], [], []
    for s in sorted(set(m.subject_ids)):
        rows = [np.flatnonzero((sid == s) & (cond == c)) for c in conds]
        if len(rows) == 2:  # one whole condition trains, the other tests
            tr, te = rows
        else:
            tr_local, te_local = _split_indices(rows[0].size, protocol)
            tr, te = rows[0][tr_local], rows[0][te_local]
        if tr.size < MIN_TRAIN_ROWS or te.size < MIN_TEST_ROWS:
            dropped.append(s)
            continue
        train_idx.append(tr)
        test_idx.append(te)
    if not train_idx:
        raise EmptyCohort("no subject kept %d train / %d test rows under %s"
                          % (MIN_TRAIN_ROWS, MIN_TEST_ROWS, protocol))
    train = _features.take_rows(m, np.concatenate(train_idx))
    test = _features.take_rows(m, np.concatenate(test_idx))
    return SplitResult(train, test, len(train_idx), tuple(dropped))


# ===== cohort featurization (cached) ======================================
# Cache keys hold the manifest's absolute path, which each entry point
# takes once.

def _cached(cache, key, build):
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _manifest(cache, path):
    return _cached(cache, ("manifest", path), lambda: load_manifest(path))


def _filtered(cache, path, sid, cond, band):
    """One record band-passed to `band`; the file is read once per cache."""
    def load():
        for s, c, rel, _ in _manifest(cache, path).entries:
            if (s, c) == (sid, cond):
                full = os.path.join(os.path.dirname(path), rel)
                return load_record(full, sid, cond)
        raise EmptyCohort("manifest has no %s/%s record" % (sid, cond))

    def build():
        rec = _cached(cache, ("record", path, sid, cond), load)
        samples = preprocess_ecg(rec.samples, rec.sampling_rate_hz, *band)
        return EcgRecord(sid, cond, rec.sampling_rate_hz, samples)
    return _cached(cache, ("filtered", path, sid, cond, band), build)


def _record_stage_matrix(cache, path, sid, cond, config):
    """Stage features for one record, capped at max_beats_per_subject."""
    name, reads = STAGE_EXTRACTORS[config.stage]
    kwargs = {f: getattr(config, f) for f in reads}
    band = (NARROW_BAND_HZ if config.stage == "bandpass10_40+beat300"
            else BAND_HZ)
    n = config.max_beats_per_subject
    key = ("stage", path, sid, cond, name, band, tuple(kwargs.items()), n)

    def detection():
        rec = _filtered(cache, path, sid, cond, BAND_HZ)
        return detect_r_peaks(rec.samples, rec.sampling_rate_hz)

    def build():
        try:
            det = _cached(cache, ("detection", path, sid, cond), detection)
            det = replace(det, r_peaks=det.r_peaks[:n],
                          qrs_onsets=det.qrs_onsets[:n],
                          qrs_offsets=det.qrs_offsets[:n])
            # looked up per call, so wrappers installed on ecgid.features run
            extract = getattr(_features, name)
            return extract(_filtered(cache, path, sid, cond, band), det,
                           **kwargs)
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
        pairs = [(s, c) for s in aux for c in ("rest", "post_exercise")]
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


def _fit(train, config, selection):
    """fit_pipeline_state, plus the training rows as the classifier saw
    them (z-scored and PCA-projected when the config asks for it)."""
    m = train
    zparams = None
    if config.normalize:
        zparams = _features.zscore_fit(m)
        m = _features.zscore_apply(zparams, m)
    pmodel = None
    if config.reduction == "pca":
        pmodel = _select.pca_fit(m)
        m = _select.pca_transform(pmodel, m)
    if config.classifier == "svm":
        model = _classify.svm_train(m, c=config.c, gamma=config.gamma,
                                    tol=config.tol,
                                    max_epochs=config.max_epochs)
        return FittedState(config, selection, zparams, pmodel, model, None), m
    return FittedState(config, selection, zparams, pmodel, None, m), m


def fit_pipeline_state(train, config, selection=None):
    """Fit z-score, PCA, and the classifier on training rows only."""
    return _fit(train, config, selection)[0]


def _classify_rows(state, m):
    """Classify rows that the fitted z-score and PCA stages already
    transformed."""
    if state.svm is not None:
        return _classify.svm_predict(state.svm, m)
    return _classify.knn_predict(state.knn_train, m, k=state.config.knn_k)


def predict_with_state(state, m):
    """Apply the fitted z-score and PCA stages (selection is applied at the
    cohort level before splitting), then classify."""
    if state.zscore is not None:
        m = _features.zscore_apply(state.zscore, m)
    if state.pca is not None:
        m = _select.pca_transform(state.pca, m)
    return _classify_rows(state, m)


def state_fingerprint(state):
    """Stable digest of every fitted parameter; equal fingerprints mean the
    training phase saw identical data."""
    h = hashlib.sha256()

    def put(tag, arr):
        h.update(tag.encode("utf-8"))
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())

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
    per = {}
    for p, t in zip(pred.labels, truth):
        per.setdefault(t, []).append(p)
    if not per:
        raise InvariantViolation("no predictions to score")
    return sum(min(set(preds), key=lambda lab: (-preds.count(lab), lab)) == t
               for t, preds in per.items()) / len(per)


def _run_top_ns(manifest_path, config, protocol, seed, top_ns, cache):
    """One report per top_n in `top_ns`. Featurizing, the aux/eval split and
    the selection weights happen once, and only the evaluation rows outlive
    them; each top_n keeps a prefix of the one ranking of the weights.

    A step's input rows die once its output rows exist: the stacked cohort
    once the split (for fused_kl, the aux and eval rows) holds them, and
    the z-scored or projected training rows once they are classified."""
    if not top_ns:
        return []
    cache = {} if cache is None else cache
    path = os.path.abspath(manifest_path)
    matrix, skipped = cohort_matrix(path, config, protocol, seed, cache)
    if config.stage == "fused_kl":
        man = _manifest(cache, path)
        aux_sids, eval_sids = aux_eval_split(man.subject_ids, seed)
        sid = np.array(matrix.subject_ids)
        aux = _features.take_rows(matrix,
                                  np.flatnonzero(np.isin(sid, aux_sids)))
        matrix = _features.take_rows(matrix,
                                     np.flatnonzero(np.isin(sid, eval_sids)))
        full = _select.select_features(aux, config.lam, max(top_ns))
        del aux
        selections = [replace(full, selected=full.selected[:n], top_n=n)
                      for n in top_ns]
        matrices = [_select.apply_selection(s, matrix) for s in selections]
    else:
        selections = [None] * len(top_ns)
        matrices = [matrix] * len(top_ns)
    del matrix
    reports = []
    for top_n, selection in zip(top_ns, selections):
        cfg = replace(config, top_n=top_n)
        split = split_protocol(matrices.pop(0), protocol)
        state, fit_rows = _fit(split.train, cfg, selection)
        train_pred = _classify_rows(state, fit_rows)
        del fit_rows
        test_pred = predict_with_state(state, split.test)
        converged = state.svm.all_converged if state.svm is not None else True
        reports.append(ExperimentReport(
            pipeline=cfg.pipeline_id,
            protocol=protocol,
            train_accuracy=_classify.accuracy(train_pred,
                                              split.train.subject_ids),
            test_accuracy=_classify.accuracy(test_pred, split.test.subject_ids),
            subject_majority_accuracy=subject_majority_accuracy(
                test_pred, split.test.subject_ids),
            n_subjects=split.n_subjects,
            train_beats=split.train.n_rows,
            test_beats=split.test.n_rows,
            skipped_beats=skipped,
            dropped_subjects=split.dropped_subjects,
            converged=converged,
            seed=seed,
            confusion=_confusion(test_pred, split.test.subject_ids),
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
    return _run_top_ns(manifest_path, config, protocol, seed,
                       [config.top_n], cache)[0]


def sweep_top_n(manifest_path, config, protocol, seed, top_n_values,
                cache=None):
    """One fused_kl report per retained-feature count, each equal to
    run_pipeline at that top_n; the selection weights are fitted once."""
    if config.stage != "fused_kl":
        raise InvariantViolation("sweep applies to the fused_kl stage")
    return _run_top_ns(manifest_path, config, protocol, seed,
                       [int(n) for n in top_n_values], cache)


def render_report(reports, fmt="csv"):
    """Render reports as CSV or a Markdown table.

    Rows are sorted by (pipeline, protocol); accuracies print as
    percentages with one decimal.
    """
    if not reports:
        raise InvariantViolation("no reports to render")
    rows = []
    for r in sorted(reports, key=lambda r: (r.pipeline, r.protocol)):
        rows.append((r.pipeline, r.protocol,
                     "%.1f%%" % (100.0 * r.train_accuracy),
                     "%.1f%%" % (100.0 * r.test_accuracy),
                     str(r.n_subjects), str(r.train_beats),
                     str(r.test_beats), str(r.skipped_beats),
                     "1" if r.converged else "0",
                     "%.1f%%" % (100.0 * r.subject_majority_accuracy)))
    return render_rows(rows, fmt)


def render_rows(rows, fmt):
    """Render pre-formatted report rows (tuples of strings) as csv or markdown."""
    if fmt not in ("csv", "markdown"):
        raise InvariantViolation("format must be csv or markdown")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)
        return buf.getvalue()
    lines = ["| " + " | ".join(REPORT_COLUMNS) + " |",
             "|" + "|".join(" --- " for _ in REPORT_COLUMNS) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
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
