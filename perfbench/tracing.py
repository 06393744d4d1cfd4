"""Per-layer tracing from outside the program.

The tracer wraps the public functions the pipeline calls. A wrapper is
installed under every name that refers to the function in any loaded
`ecgid` module, so a caller that imported the function by name
(`from .detect import detect_r_peaks`) calls the wrapper too. Spans are
kept in memory and written out by the caller when the run ends.
"""

import contextlib
import os
import sys
import time
from collections import Counter


@contextlib.contextmanager
def patched(replacements):
    """Swap functions for wrappers in every loaded ecgid module.

    `replacements` maps (module name, attribute) to a function that takes
    the original and returns its wrapper. Every module attribute bound to
    the original object is replaced, and restored on exit.
    """
    undo = []
    try:
        for (module, attr), make in replacements.items():
            original = getattr(sys.modules[module], attr)
            wrapper = make(original)
            for name, mod in list(sys.modules.items()):
                if name != "ecgid" and not name.startswith("ecgid."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(undo):
            setattr(mod, key, original)


# ===== layer table ========================================================

EXTRACTORS = ("qrs_features", "beat_features", "pqrst_features",
              "stft_features", "cwt_features", "ac_features",
              "ac_beat_features", "fused_features")
CLI_COMMANDS = ("gen", "detect", "featurize", "select", "run", "sweep",
                "report")


def _count_save_record(tr, args, kwargs, out):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tr.counts["ingest.record_bytes"] += os.path.getsize(path)


def _count_load_record(tr, args, kwargs, out):
    tr.counts["ingest.load_record_calls"] += 1
    tr.counts["ingest.samples_loaded"] += out.samples.size


def _count_preprocess(tr, args, kwargs, out):
    tr.counts["dsp.preprocess_ecg_calls"] += 1


def _count_detect(tr, args, kwargs, out):
    tr.counts["detect.beats_detected"] += len(out.r_peaks)


def _count_extractor(tr, args, kwargs, out):
    # rows and skips count once per record: ac_beat_features calls
    # beat_features, whose rows are not the record's output
    if not any(tr.spans[i][0] in TIMED_EXTRACTOR_SPANS for i in tr.open):
        tr.counts["features.rows"] += out.n_rows
        tr.counts["features.skipped_beats"] += out.skipped


def _count_smo(tr, args, kwargs, out):
    tr.counts["classify.smo_solve_calls"] += 1
    tr.counts["classify.smo_epochs"] += out.epochs_run


def _count_svm_train(tr, args, kwargs, out):
    tr.counts["classify.support_vectors"] += sum(p.sv_idx.size
                                                 for p in out.pairs)


def _count_knn(tr, args, kwargs, out):
    tr.counts["classify.knn_test_rows"] += len(out.labels)


# (module, function, metric prefix, count hook); the time metric is
# `<prefix>_s`, the layer's inclusive seconds
TIMED = [
    ("ecgid.ingest", "build_cohort", "ingest.build_cohort", None),
    ("ecgid.ingest", "save_record", "ingest.save_record", _count_save_record),
    ("ecgid.ingest", "load_record", "ingest.load_record", _count_load_record),
    ("ecgid.dsp", "preprocess_ecg", "dsp.preprocess_ecg", _count_preprocess),
    ("ecgid.detect", "detect_r_peaks", "detect.detect_r_peaks", _count_detect),
] + [
    ("ecgid.features", name, "features." + name, _count_extractor)
    for name in EXTRACTORS
] + [
    ("ecgid.segment", "segment_beats_midpoint",
     "segment.segment_beats_midpoint", None),
    ("ecgid.features", "zscore_fit", "features.zscore_fit", None),
    ("ecgid.features", "zscore_apply", "features.zscore_apply", None),
    ("ecgid.features", "take_rows", "features.take_rows", None),
    ("ecgid.features", "concat_matrices", "features.concat_matrices", None),
    ("ecgid.features", "save_feature_matrix", "features.save_feature_matrix",
     None),
    ("ecgid.features", "load_feature_matrix", "features.load_feature_matrix",
     None),
    ("ecgid.select", "select_features", "select.select_features", None),
    ("ecgid.select", "apply_selection", "select.apply_selection", None),
    ("ecgid.select", "pca_fit", "select.pca_fit", None),
    ("ecgid.select", "pca_transform", "select.pca_transform", None),
    ("ecgid.classify", "svm_train", "classify.svm_train", _count_svm_train),
    ("ecgid.classify", "rbf_gram", "classify.rbf_gram", None),
    ("ecgid.classify", "smo_solve", "classify.smo_solve", _count_smo),
    ("ecgid.classify", "svm_predict", "classify.svm_predict", None),
    ("ecgid.classify", "svm_decision_values", "classify.svm_decision_values",
     None),
    ("ecgid.classify", "knn_predict", "classify.knn_predict", _count_knn),
    ("ecgid.bench", "run_pipeline", "bench.run_pipeline", None),
    ("ecgid.bench", "cohort_matrix", "bench.cohort_matrix", None),
    ("ecgid.bench", "split_protocol", "bench.split_protocol", None),
    ("ecgid.bench", "state_fingerprint", "bench.state_fingerprint", None),
    ("ecgid.bench", "render_report", "bench.render_report", None),
]
TIMED_EXTRACTOR_SPANS = {"features." + name for name in EXTRACTORS}

# called tens of thousands of times per run: counted, not spanned
COUNTED = [("ecgid.features", "wavelet_kernel", "wavelets.wavelet_kernel_calls")]

COUNTS = [
    ("ingest.record_bytes", "B", "lower"),
    ("ingest.load_record_calls", "count", "lower"),
    ("ingest.samples_loaded", "count", "lower"),
    ("dsp.preprocess_ecg_calls", "count", "lower"),
    ("detect.beats_detected", "count", "higher"),
    ("features.rows", "count", "higher"),
    ("features.skipped_beats", "count", "lower"),
    ("wavelets.wavelet_kernel_calls", "count", "lower"),
    ("classify.smo_solve_calls", "count", "lower"),
    ("classify.smo_epochs", "count", "lower"),
    ("classify.support_vectors", "count", "lower"),
    ("classify.knn_test_rows", "count", "lower"),
]

# Every per-layer metric with its unit and better direction, in output order.
PER_LAYER = (
    [(prefix + "_s", "s", "lower") for _, _, prefix, _ in TIMED]
    + [("cli.%s_s" % cmd, "s", "lower") for cmd in CLI_COMMANDS]
    + COUNTS
    + [("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Spans and counts of one traced stretch of work.

    A span is [name, start, end, parent index]; parent is -1 at the top.
    """

    def __init__(self):
        self.spans = []
        self.open = []
        self.counts = Counter()

    def _timed(self, name, fn, count):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.open[-1] if self.open else -1]
            self.spans.append(span)
            self.open.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.open.pop()
            if count is not None:
                count(self, args, kwargs, out)
            return out
        return traced

    def _counted(self, metric, fn):
        def counted(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)
        return counted

    def _cli(self, fn):
        def cli_main(argv=None):
            name = "cli.%s" % (argv[0] if argv else "")
            return self._timed(name, fn, None)(argv)
        return cli_main

    def installed(self):
        """Context manager that routes the pipeline through this tracer."""
        table = {(mod, fn): (lambda orig, p=prefix, c=count:
                             self._timed(p, orig, c))
                 for mod, fn, prefix, count in TIMED}
        table.update({(mod, fn): (lambda orig, m=metric:
                                  self._counted(m, orig))
                      for mod, fn, metric in COUNTED})
        table[("ecgid.cli", "cli_main")] = self._cli
        return patched(table)

    def metrics(self):
        """Inclusive seconds per span name plus the counts.

        A span nested in a span of the same name (recursion) is not added
        again.
        """
        out = dict(self.counts)
        for i, (name, start, end, parent) in enumerate(self.spans):
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                key = name + "_s"
                out[key] = out.get(key, 0.0) + (end - start)
        return out
