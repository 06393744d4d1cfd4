"""The benchmark's three workloads.

Each workload writes a cohort (its set-up), then runs rounds of the same
operations on it. An operation is one experiment report or one CLI
subcommand. A round returns its outputs; the workload's checks turn outputs
into failure messages. Check hooks wrap svm_train and knn_predict during
untraced rounds to verify the models and predictions the pipeline really
produced; the time spent in them is taken out of the round's time.
"""

import contextlib
import dataclasses
import io
import os
import shutil
import sys
import time
import traceback

import numpy as np

import ecgid.bench as bench
import ecgid.cli as cli
import ecgid.detect as detect
import ecgid.dsp as dsp
import ecgid.ingest as ingest

import checks
from tracing import patched

# paper_replication: the seed-8 criterion-6 cohort, cut to the fewest
# subjects on which the paper's rest_ex drop still holds (30 subjects give
# a gap of 0.280, 36 give 0.347). 120 s rest and 90 s post-exercise hold
# the same 120-beat caps as the 300 s / 150 s reference records.
PAPER_COHORT_SEED = 8
PAPER_SUBJECTS = 36
PAPER_REST_S = 120.0
PAPER_EX_S = 90.0
PAPER_TOP_N = (50, 100, 200, 400, 800)

SURVEY_SUBJECTS = 12
SURVEY_REST_S = 60.0
SURVEY_EX_S = 45.0
SURVEY_MAX_BEATS = 40
SURVEY_STAGES = tuple(checks.STAGE_LAYOUTS)

CLI_SUBJECTS = 6
CLI_REST_S = 60.0
CLI_EX_S = 45.0
# every record holds more beats than this, so the rows do not depend on
# the seed's heart rates
CLI_MAX_BEATS = 40
CLI_TOP_N = 40
CLI_SWEEP = "50,100,200"

DETECT_SAMPLE = 8          # records per run whose R peaks are checked
SVM_PAIR_SAMPLE = 2        # pairs per SVM model whose KKT is recomputed
KNN_ROW_SAMPLE = 3         # rows per kNN call recomputed by brute force


@dataclasses.dataclass
class Outcome:
    """What one round produced: outputs by operation, and how many
    operations it attempted and how many raised."""

    outputs: dict
    attempted: int = 0
    failed: int = 0

    def run(self, key, fn, ops=1):
        """Run one operation (or a batch of `ops` reports); an exception
        counts as failed and is reported on stderr."""
        self.attempted += ops
        try:
            self.outputs[key] = fn()
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failed += ops


class CheckHooks:
    """Verifies SVM models and kNN predictions as the pipeline makes them."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)  # picks the rows re-checked
        self.failures = []
        self.seconds = 0.0
        self.stage = None
        self.knn_stages = set()
        self.svm_models = 0

    def _svm(self, original):
        def svm_train(m, *args, **kwargs):
            model = original(m, *args, **kwargs)
            t0 = time.perf_counter()
            tol = kwargs.get("tol", 1e-3)
            sample = self.rng.choice(len(model.pairs),
                                     size=min(SVM_PAIR_SAMPLE, len(model.pairs)),
                                     replace=False)
            self.failures += checks.svm_model_failures(
                model, m.subject_ids, tol, sorted(int(i) for i in sample))
            self.svm_models += 1
            self.seconds += time.perf_counter() - t0
            return model
        return svm_train

    def _knn(self, original):
        def knn_predict(train, test, k=1):
            pred = original(train, test, k=k)
            t0 = time.perf_counter()
            self.failures += checks.width_failures(self.stage, train.layout_id,
                                                   train.dim)
            rows = self.rng.choice(test.n_rows,
                                   size=min(KNN_ROW_SAMPLE, test.n_rows),
                                   replace=False)
            if k != 1:
                self.failures.append("kNN ran with k=%d, not 1" % k)
            self.failures += checks.knn_failures(train, test, pred.labels,
                                                 sorted(int(i) for i in rows))
            self.knn_stages.add(self.stage)
            self.seconds += time.perf_counter() - t0
            return pred
        return knn_predict

    def installed(self):
        return patched({("ecgid.classify", "svm_train"): self._svm,
                        ("ecgid.classify", "knn_predict"): self._knn})


class Rounds:
    """Rounds of one workload, with their checks and operation counts."""

    def __init__(self, workload, state, workdir, seed):
        self.workload = workload
        self.state = state
        self.workdir = workdir
        self.seed = seed
        self.failures = list(workload.setup_failures(state))
        self.attempted = self.failed = 0
        self.first = None
        self.n_rounds = 0

    def round(self, tracer=None):
        """One round; returns its seconds. Untraced rounds carry the check
        hooks, whose own time is subtracted; traced rounds carry the tracer
        and are checked by agreeing with the untraced rounds."""
        hooks = None if tracer else CheckHooks((abs(self.seed),
                                                self.n_rounds))
        with (tracer or hooks).installed():
            t0 = time.perf_counter()
            outcome = self.workload.run_round(self.state, self.workdir, hooks)
            seconds = time.perf_counter() - t0
        if hooks is not None:
            seconds -= hooks.seconds
            self.failures += hooks.failures
        self.n_rounds += 1
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures += self.workload.round_failures(outcome, hooks)
        if self.first is None:
            self.first = outcome
        elif (outcome.failed == 0 and self.first.failed == 0
              and self.workload.signature(outcome)
              != self.workload.signature(self.first)):
            self.failures.append("round %d differs from round 1"
                                 % self.n_rounds)
        return seconds

    def finish(self):
        if self.first is not None and self.first.failed == 0:
            self.failures += self.workload.final_failures(self.state,
                                                          self.first)
        for f in self.failures:
            print("perfbench: CHECK FAILED: %s" % f, file=sys.stderr)
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": self.failed}


def write_cohort(dirpath, n_subjects, seed, rest_s, ex_s):
    """Synthesize a cohort and write its records and manifest.

    Returns (manifest path, [(record, analytic R indices)]).
    """
    os.makedirs(dirpath, exist_ok=True)
    cohort = ingest.build_cohort(n_subjects, seed, rest_duration_s=rest_s,
                                 ex_duration_s=ex_s)
    entries = []
    for record, _truth in cohort:
        rel = "%s_%s.txt" % (record.subject_id, record.condition)
        ingest.save_record(record, os.path.join(dirpath, rel))
        entries.append((record.subject_id, record.condition, rel,
                        record.duration_s))
    path = os.path.join(dirpath, "manifest.txt")
    ingest.save_manifest(ingest.DatasetManifest(tuple(entries), seed=seed),
                         path)
    return path, cohort


def detection_failures(cohort, seed, n_sample):
    """Detect R peaks on a seeded sample of records the way the pipeline
    does (0.5-40 Hz front end) and match them to the analytic R indices."""
    rng = np.random.default_rng(abs(seed))
    picks = rng.choice(len(cohort), size=min(n_sample, len(cohort)),
                       replace=False)
    out = []
    for i in sorted(int(p) for p in picks):
        record, truth = cohort[i]
        x = dsp.preprocess_ecg(record.samples, record.sampling_rate_hz)
        det = detect.detect_r_peaks(x, record.sampling_rate_hz)
        out += checks.peak_failures(
            "%s/%s" % (record.subject_id, record.condition),
            det.r_peaks, truth)
    return out


def _report_key(report):
    return (report.pipeline, report.protocol, report.test_accuracy,
            report.state_fingerprint)


class PaperReplication:
    """The criterion-6 sequence of the acceptance tests on one cache."""

    name = "paper_replication"

    def __init__(self, seed):
        self.seed = seed  # the pipeline seed: the fused_kl auxiliary split

    def setup(self, workdir):
        return write_cohort(workdir, PAPER_SUBJECTS, PAPER_COHORT_SEED,
                            PAPER_REST_S, PAPER_EX_S)

    def setup_failures(self, state):
        return detection_failures(state[1], self.seed, DETECT_SAMPLE)

    def run_round(self, state, workdir, hooks=None):
        manifest = state[0]
        out = Outcome({})
        cache = {}
        qrs = bench.PipelineConfig(stage="qrs30", reduction="pca")
        fused = bench.PipelineConfig(stage="fused", normalize=True,
                                     max_beats_per_subject=40)
        kl = dataclasses.replace(fused, stage="fused_kl", lam=0.3)
        for protocol in ("rest_rest", "rest_ex"):
            out.run(protocol, lambda p=protocol: bench.run_pipeline(
                manifest, qrs, p, self.seed, cache=cache))
        out.run("fused", lambda: bench.run_pipeline(
            manifest, fused, "rest_ex", self.seed, cache=cache))
        out.run("fused_kl", lambda: bench.sweep_top_n(
            manifest, kl, "rest_ex", self.seed, PAPER_TOP_N, cache=cache),
            ops=len(PAPER_TOP_N))
        for protocol in ("ex_first70", "ex_last70"):
            out.run(protocol, lambda p=protocol: bench.run_pipeline(
                manifest, qrs, p, self.seed, cache=cache))
        return out

    def round_failures(self, outcome, hooks):
        o = outcome.outputs
        need = ("rest_rest", "rest_ex", "fused", "fused_kl", "ex_first70",
                "ex_last70")
        if any(k not in o for k in need):
            return ["missing reports: %s" % [k for k in need if k not in o]]
        reports = [o[k] for k in need if k != "fused_kl"] + list(o["fused_kl"])
        failures = checks.paper_claim_failures(o["rest_rest"], o["rest_ex"],
                                               o["fused"], o["fused_kl"])
        failures += checks.converged_failures(reports)
        if hooks is not None and hooks.svm_models != len(reports):
            failures.append("saw %d SVM models for %d reports"
                            % (hooks.svm_models, len(reports)))
        return failures

    def signature(self, outcome):
        o = outcome.outputs
        return tuple(_report_key(r) for k in sorted(o)
                     for r in (o[k] if isinstance(o[k], list) else [o[k]]))

    def final_failures(self, state, outcome):
        return []


class MethodSurvey:
    """Every featurization stage with 1-NN on rest_rest and rest_ex."""

    name = "method_survey"

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir):
        return write_cohort(workdir, SURVEY_SUBJECTS, self.seed,
                            SURVEY_REST_S, SURVEY_EX_S)

    def setup_failures(self, state):
        return detection_failures(state[1], self.seed, DETECT_SAMPLE)

    def run_round(self, state, workdir, hooks=None):
        manifest = state[0]
        out = Outcome({})
        cache = {}
        for stage in SURVEY_STAGES:
            cfg = bench.PipelineConfig(stage=stage, classifier="knn",
                                       max_beats_per_subject=SURVEY_MAX_BEATS)
            if hooks is not None:
                hooks.stage = stage
            for protocol in ("rest_rest", "rest_ex"):
                out.run((stage, protocol), lambda c=cfg, p=protocol:
                        bench.run_pipeline(manifest, c, p, self.seed,
                                           cache=cache))
        return out

    def round_failures(self, outcome, hooks):
        o = outcome.outputs
        failures = []
        acc = {}
        for stage in SURVEY_STAGES:
            pair = (o.get((stage, "rest_rest")), o.get((stage, "rest_ex")))
            if None in pair:
                failures.append("stage %s: missing report" % stage)
                continue
            acc[stage] = tuple(r.test_accuracy for r in pair)
        failures += checks.survey_gap_failures(acc)
        if hooks is not None and hooks.knn_stages != set(SURVEY_STAGES):
            failures.append("no 1-NN call seen for stages %s"
                            % sorted(set(SURVEY_STAGES) - hooks.knn_stages))
        return failures

    def signature(self, outcome):
        o = outcome.outputs
        return tuple(_report_key(o[k]) for k in sorted(o))

    def final_failures(self, state, outcome):
        return []


class CliWalkthrough:
    """The README's command-line sequence, through cli_main in-process."""

    name = "cli_walkthrough"

    def __init__(self, seed):
        self.seed = seed

    def _gen_argv(self, out):
        return ["gen", "--subjects", str(CLI_SUBJECTS), "--seed",
                str(self.seed), "--out", out, "--rest-duration",
                "%g" % CLI_REST_S, "--ex-duration", "%g" % CLI_EX_S]

    def setup(self, workdir):
        cohort = os.path.join(workdir, "cohort")
        code = _quiet_cli(self._gen_argv(cohort))
        if code != 0:
            raise RuntimeError("`ecgid gen` exited %d" % code)
        with open(os.path.join(workdir, "config.txt"), "w") as fh:
            fh.write(bench.config_to_text(self._config()))
        return os.path.join(cohort, "manifest.txt")

    def _config(self):
        return bench.PipelineConfig(max_beats_per_subject=CLI_MAX_BEATS)

    def setup_failures(self, manifest):
        # `gen` writes no truth; the same synthesis in memory gives it
        cohort = ingest.build_cohort(CLI_SUBJECTS, self.seed,
                                     rest_duration_s=CLI_REST_S,
                                     ex_duration_s=CLI_EX_S)
        self.truth = {(r.subject_id, r.condition): t for r, t in cohort}
        return detection_failures(cohort, self.seed, DETECT_SAMPLE)

    def _commands(self, manifest, out):
        cohort = os.path.dirname(manifest)
        config = os.path.join(os.path.dirname(cohort), "config.txt")
        seed = str(self.seed)
        runs = [os.path.join(out, "run_%s.csv" % p) for p in bench.PROTOCOLS]
        sweep = os.path.join(out, "sweep.csv")
        cmds = [
            ("detect", ["detect", "--record",
                        os.path.join(cohort, "s01_rest.txt"), "--subject",
                        "s01", "--condition", "rest", "--out",
                        os.path.join(out, "peaks.txt")]),
            ("featurize", ["featurize", "--manifest", manifest, "--stage",
                           "ac", "--config", config, "--out",
                           os.path.join(out, "ac.txt")]),
            ("select", ["select", "--features", os.path.join(out, "ac.txt"),
                        "--lam", "0.3", "--top-n", str(CLI_TOP_N), "--out",
                        os.path.join(out, "weights.txt")]),
        ]
        cmds += [("run_" + p, ["run", "--manifest", manifest, "--protocol", p,
                               "--seed", seed, "--config", config, "--out",
                               path])
                 for p, path in zip(bench.PROTOCOLS, runs)]
        cmds += [
            ("sweep", ["sweep", "--manifest", manifest, "--protocol",
                       "rest_ex", "--seed", seed, "--config", config,
                       "--top-n-list", CLI_SWEEP, "--out", sweep]),
            ("report", ["report", "--inputs"] + runs + [sweep, "--format",
                        "markdown", "--out", os.path.join(out, "report.md")]),
        ]
        return cmds

    def run_round(self, manifest, workdir, hooks=None):
        out_dir = os.path.join(workdir, "round")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        out = Outcome({})
        for key, argv in self._commands(manifest, out_dir):
            out.run(key, lambda a=argv: (a, _quiet_cli(a)))
        files = {}
        for name in ("peaks.txt", "weights.txt", "report.md"):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    files[name] = fh.read()
        out.outputs["files"] = files
        return out

    def round_failures(self, outcome, hooks):
        o = outcome.outputs
        codes = [v for k, v in o.items() if k != "files"]
        failures = checks.exit_code_failures(codes)
        if len(codes) != outcome.attempted:
            failures.append("%d of %d subcommands raised"
                            % (outcome.attempted - len(codes),
                               outcome.attempted))
        files = o["files"]
        if set(files) != {"peaks.txt", "weights.txt", "report.md"}:
            return failures + ["missing outputs: %s" % sorted(files)]
        failures += checks.peak_failures(
            "ecgid detect s01/rest", checks.parse_peak_file(files["peaks.txt"]),
            self.truth[("s01", "rest")])
        failures += checks.weights_failures(files["weights.txt"], CLI_TOP_N)
        n_rows = len(checks.parse_markdown_report(files["report.md"]))
        want = len(bench.PROTOCOLS) + len(CLI_SWEEP.split(","))
        if n_rows != want:
            failures.append("report has %d rows, expected %d" % (n_rows, want))
        return failures

    def signature(self, outcome):
        return tuple(sorted(outcome.outputs["files"].items()))

    def final_failures(self, manifest, outcome):
        """The merged report agrees with the library on the same inputs."""
        if "report.md" not in outcome.outputs["files"]:
            return []  # already a round failure
        cache = {}
        cfg = self._config()
        reports = [bench.run_pipeline(manifest, cfg, p, self.seed, cache=cache)
                   for p in bench.PROTOCOLS]
        reports += bench.sweep_top_n(
            manifest, dataclasses.replace(cfg, stage="fused_kl"), "rest_ex",
            self.seed, [int(v) for v in CLI_SWEEP.split(",")], cache=cache)
        rows = checks.parse_markdown_report(outcome.outputs["files"]["report.md"])
        return checks.report_failures(rows, reports)


def _quiet_cli(argv):
    """cli_main with the paths it prints kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.cli_main(argv)


WORKLOADS = {w.name: w for w in (PaperReplication, MethodSurvey,
                                 CliWalkthrough)}
