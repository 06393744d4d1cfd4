"""Evidence for a change: same outputs as a base checkout, then benchmark pairs.

    python tools/evidence.py --base PATH/TO/PARENT/CHECKOUT --out BENCH_N.json

Step 1, same bytes (about a minute on a 2-core machine). One fixed workload
runs in each checkout, in one fresh process per checkout with that
checkout's `src` first on PYTHONPATH and one BLAS thread. It writes the 10
criterion-6 reports of `tests/test_acceptance.py` (45 subjects, seed 8),
dumped with `dataclasses.asdict` so that every `state_fingerprint` and
confusion matrix is compared, and the files of a fixed CLI sequence (`gen`,
`detect`, `featurize`, `select`, `run` on every protocol, `sweep` and
`report`), compared with `diff -r`. It also prints each checkout's
`src/ecgid/*.py` line count (as `wc -l` counts it), `PipelineConfig` field
count and CLI options, with the change's delta and the options removed and
added. Identical outputs are removed; on a difference they are kept and
their path is printed. Stdout is line-buffered, so step 1's lines show as
soon as they are known; stopping the run (Ctrl-C) right after them writes
no output file, and leaves nothing behind when the outputs were identical.

Step 2, pairs (about 25 minutes). A fixed protocol, so that every
BENCH_N.json compares alike: 10 pairs, each running `python3
perfbench/run.py --seconds 15 --seed 0` once in each checkout directory
(perfbench/run.py runs with one BLAS thread). Even pairs run the base
first. A pair whose sides fitted a different number of `paper_replication`
rounds gets a warning on stderr: there a second round adds about 29 MB to
`peak_rss_mb` with no code difference. The other workloads fit 5-19
rounds, which differ between the sides in most pairs, and no metric of
theirs is known to step with the count, so their counts are only recorded.

Step 3, layers (about 3 minutes). One traced run, `python3 perfbench/run.py
--trace 1 --seconds 15 --seed 0`, in each checkout, so that a claim's
per-layer evidence comes with its pairs.

The output file holds `description`, `parent_commit` (the base's git HEAD,
or null), `change_tree` (the git tree of this checkout's files as `git add
-A` would stage them, or null), `nproc`, `python`, `numpy`, `blas`;
`workloads`: per workload, each side's `correct` flags, `attempted` and
`failed` counts and round counts, and per end-to-end metric each side's
median and quartiles, the pairs each side won, the ratio of the medians and
whether their gap exceeds the base's spread between quartiles; `pairs`:
every raw run with its round count; `layers`: per workload, each per-layer
metric of step 3 with its unit and the parent's and the change's value;
and `same_bytes`: step 1's results, with `identical` true when the reports
and the CLI files are the same.

A difference in step 1 does not stop the pairs. Exits 0 when the outputs
are identical and every run, traced ones included, was correct, 1 when the
outputs differ or a run was not correct, and 2 when a checkout's workload
failed or a run gave no result.
"""

import argparse
import dataclasses
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(HERE))
REFERENCE_SEED = 8  # criterion 6's cohort and run seed
METRICS = ("setup_s", "run_s", "peak_rss_mb")  # all: lower is better
PAIRS, SECONDS, SEED = 10, 15.0, 0
ROUND_SENSITIVE = "paper_replication"  # its peak_rss_mb steps with rounds
ROUNDS = re.compile(r"^perfbench: (\S+) setups \[.*\] s, rounds \[(.*)\] s$",
                    re.M)


# ===== step 1: same bytes =================================================

def _criterion_6_reports(out_dir):
    from ecgid.bench import PipelineConfig, run_pipeline, sweep_top_n
    from ecgid.cli import cli_main

    cohort = os.path.join(out_dir, "reference_cohort")
    # gen's default durations (300 s rest, 150 s post-exercise) are
    # criterion 6's
    if cli_main(["gen", "--subjects", "45", "--seed", str(REFERENCE_SEED),
                 "--out", cohort]) != 0:
        raise SystemExit("gen of the reference cohort failed")
    manifest = os.path.join(cohort, "manifest.txt")
    cache = {}
    cfg = PipelineConfig(stage="qrs30", reduction="pca")
    fused = PipelineConfig(stage="fused", normalize=True,
                           max_beats_per_subject=40)
    reports = [run_pipeline(manifest, cfg, p, REFERENCE_SEED, cache=cache)
               for p in ("rest_rest", "rest_ex")]
    reports.append(run_pipeline(manifest, fused, "rest_ex", REFERENCE_SEED,
                                cache=cache))
    reports += sweep_top_n(manifest,
                           dataclasses.replace(fused, stage="fused_kl",
                                               lam=0.3),
                           "rest_ex", REFERENCE_SEED,
                           (50, 100, 200, 400, 800), cache=cache)
    reports += [run_pipeline(manifest, cfg, p, REFERENCE_SEED, cache=cache)
                for p in ("ex_first70", "ex_last70")]
    shutil.rmtree(cohort)
    return [dataclasses.asdict(r) for r in reports]


def _cli_artifacts(d):
    from ecgid.cli import cli_main
    from ecgid.ingest import CONDITIONS

    def cli(*args):
        if cli_main(list(args)) != 0:
            raise SystemExit("ecgid %s failed" % " ".join(args))

    os.makedirs(d)
    gen = os.path.join(d, "gen")
    cli("gen", "--subjects", "5", "--seed", "42", "--out", gen,
        "--rest-duration", "60", "--ex-duration", "45")
    manifest = os.path.join(gen, "manifest.txt")
    for cond in CONDITIONS:
        cli("detect", "--record", os.path.join(gen, "s01_%s.txt" % cond),
            "--subject", "s01", "--condition", cond,
            "--out", os.path.join(d, "peaks_s01_%s.txt" % cond))
    cli("featurize", "--manifest", manifest, "--stage", "qrs30",
        "--out", os.path.join(d, "qrs30.csv"))
    cli("select", "--features", os.path.join(d, "qrs30.csv"),
        "--top-n", "10", "--out", os.path.join(d, "weights.csv"))
    reports = []
    runs = [(p, "qrs30") for p in ("rest_rest", "ex_first70", "ex_last70",
                                   "rest_ex")]
    runs += [("rest_ex", "fused"), ("rest_ex", "fused_kl")]
    for protocol, stage in runs:
        reports.append(os.path.join(d, "run_%s_%s.csv" % (stage, protocol)))
        cli("run", "--manifest", manifest, "--protocol", protocol,
            "--stage", stage, "--seed", "42", "--out", reports[-1])
    config = os.path.join(d, "zscore.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write("normalize=on\nmax_beats_per_subject=40\n")
    for name, extra in (("default", []), ("zscore", ["--config", config])):
        reports.append(os.path.join(d, "sweep_%s.csv" % name))
        cli("sweep", "--manifest", manifest, "--protocol", "rest_ex",
            "--seed", "42", "--top-n-list", "50,100,200",
            "--out", reports[-1], *extra)
    for fmt in ("csv", "markdown"):
        cli("report", "--inputs", *reports, "--format", fmt,
            "--out", os.path.join(d, "report.%s" % fmt))


def _workload(out_dir, src):
    """Runs inside the checked process: write facts.json and cli/."""
    import ecgid
    from ecgid.bench import PipelineConfig
    from ecgid.cli import build_parser

    if not os.path.abspath(ecgid.__file__).startswith(src + os.sep):
        raise SystemExit("imported %s, not the checkout's %s"
                         % (ecgid.__file__, src))
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    pkg = os.path.join(src, "ecgid")
    lines = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += fh.read().count("\n")
    facts = {
        "src_lines": lines,
        "config_fields": len(dataclasses.fields(PipelineConfig)),
        "options": sorted("%s %s" % (cmd, s) for cmd, p in sub.choices.items()
                          for a in p._actions for s in a.option_strings),
        "reports": _criterion_6_reports(out_dir)}
    with open(os.path.join(out_dir, "facts.json"), "w",
              encoding="utf-8") as fh:
        json.dump(facts, fh, indent=1, sort_keys=True)
    _cli_artifacts(os.path.join(out_dir, "cli"))


def _run_workload(checkout, out_dir):
    """Run the workload in a fresh process that imports the checkout's `src`
    first and uses one BLAS thread; return its facts, or None."""
    os.makedirs(out_dir)
    src = os.path.join(os.path.abspath(checkout), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, HERE, "--workload", out_dir,
                           "--src", src], env=env, cwd=out_dir,
                          stdout=subprocess.DEVNULL)
    print("%s: workload %s in %.0f s"
          % (checkout, "ok" if proc.returncode == 0 else "FAILED",
             time.monotonic() - t0))
    if proc.returncode != 0:
        return None
    with open(os.path.join(out_dir, "facts.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _first_report_difference(base, change):
    if len(base) != len(change):
        return "%d reports vs %d" % (len(base), len(change))
    for i, (b, c) in enumerate(zip(base, change)):
        for key in sorted(set(b) | set(c)):
            if b.get(key) != c.get(key):
                return ("report %d (%s / %s), %s:\n  base:   %r\n"
                        "  change: %r" % (i, b.get("pipeline"),
                                          b.get("protocol"), key,
                                          b.get(key), c.get(key)))
    return None


def same_bytes(base):
    """Step 1: run the workload in `base` and in this checkout, print the
    comparison and return it as a dict, or None when a workload failed."""
    work = tempfile.mkdtemp(prefix="evidence_")
    outs = {"base": os.path.join(work, "base"),
            "change": os.path.join(work, "change")}
    facts = {side: _run_workload(checkout, outs[side])
             for side, checkout in (("base", base), ("change", ROOT))}
    if None in facts.values():
        print("outputs kept in %s" % work)
        return None
    b, c = facts["base"], facts["change"]
    result = {}
    for key, label in (("src_lines", "src/ecgid/*.py lines"),
                       ("config_fields", "PipelineConfig fields")):
        result[key] = {"base": b[key], "change": c[key]}
        print("%s: base %d, change %d (%+d)"
              % (label, b[key], c[key], c[key] - b[key]))
    removed = sorted(set(b["options"]) - set(c["options"]))
    added = sorted(set(c["options"]) - set(b["options"]))
    result["cli_options"] = {"base": len(b["options"]),
                             "change": len(c["options"]),
                             "removed": removed, "added": added}
    print("CLI options: base %d, change %d (%+d); removed: %s; added: %s"
          % (len(b["options"]), len(c["options"]),
             len(c["options"]) - len(b["options"]),
             ", ".join(removed) or "none", ", ".join(added) or "none"))
    diff = _first_report_difference(b["reports"], c["reports"])
    result["reports"] = {"count": len(c["reports"]), "difference": diff}
    print("criterion-6 reports differ: " + diff if diff else
          "criterion-6 reports: %d identical (every state_fingerprint and "
          "confusion matrix)" % len(c["reports"]))
    proc = subprocess.run(["diff", "-r", os.path.join(outs["base"], "cli"),
                           os.path.join(outs["change"], "cli")],
                          capture_output=True, text=True)
    n_files = sum(len(f) for _, _, f in
                  os.walk(os.path.join(outs["change"], "cli")))
    cli_diff = ("\n".join(proc.stdout.splitlines()[:20]) or proc.stderr
                if proc.returncode else None)
    result["cli_files"] = {"count": n_files, "difference": cli_diff}
    if cli_diff:
        print("CLI artifacts differ (diff -r, first lines):\n" + cli_diff)
    else:
        print("CLI artifacts: diff -r finds no difference in %d files"
              % n_files)
    result["identical"] = diff is None and cli_diff is None
    if result["identical"]:
        shutil.rmtree(work)
    else:
        print("outputs kept in %s" % work)
    return result


# ===== step 2: benchmark pairs ============================================

def _git(checkout, *args, env=None):
    proc = subprocess.run(["git", "-C", checkout, *args], env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _work_tree(checkout):
    """Tree hash of the checkout's files as `git add -A` would stage them,
    made in a scratch index so that the checkout's own index is untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        if _git(checkout, "add", "-A", env=env) is None:
            return None
        return _git(checkout, "write-tree", env=env)


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas["name"], blas["version"])
    except (KeyError, TypeError):
        return "unknown"


def _run(checkout, trace=0):
    """One perfbench run: {workload: result with its `rounds`}, or None."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seconds",
         str(SECONDS), "--seed", str(SEED), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    try:
        results = json.loads(proc.stdout.strip().split("\n")[-1])
    except ValueError:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    for name, rounds in ROUNDS.findall(proc.stderr):
        results[name]["rounds"] = len(rounds.split(","))
    return results


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _summary(pairs, name):
    out = {}
    for side in ("parent", "change"):
        runs = [p[side][name] for p in pairs]
        out[side + "_runs"] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sorted({r["attempted"] for r in runs}),
            "failed": sum(r["failed"] for r in runs),
            "rounds": [r.get("rounds") for r in runs]}
    for metric in METRICS:
        base, change = ([p[side][name]["metrics"][metric]["value"]
                         for p in pairs] for side in ("parent", "change"))
        b, c = _quartiles(base), _quartiles(change)
        out[metric] = {
            "parent": b, "change": c,
            "change_wins": sum(y < x for x, y in zip(base, change)),
            "parent_wins": sum(x < y for x, y in zip(base, change)),
            "ratio_of_medians": c["median"] / b["median"],
            "median_gap_exceeds_parent_iqr":
                abs(c["median"] - b["median"]) > b["q3"] - b["q1"]}
    return out


def _layers(traced):
    """Step 3's per-layer metrics: {workload: {metric: {"unit", "parent",
    "change"}}}, where a side that lacks the metric reads None."""
    out = {}
    for name in traced["parent"]:
        runs = {s: traced[s].get(name, {}).get("metrics", {}) for s in traced}
        out[name] = {}
        for metric in sorted(set().union(*runs.values())):
            got = {s: runs[s].get(metric) for s in runs}
            out[name][metric] = {"unit": next(m["unit"] for m in got.values()
                                              if m)}
            out[name][metric].update((s, m["value"] if m else None)
                                     for s, m in got.items())
    return out


def _pairs(checkouts):
    """Step 2: the runs of the fixed protocol, or None when one gave no
    result."""
    pairs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i, "first": order[0]}
        for side in order:
            t0 = time.monotonic()
            pair[side] = _run(checkouts[side])
            if pair[side] is None:
                print("pair %d: the %s run gave no result" % (i, side),
                      file=sys.stderr)
                return None
            print("pair %d %s: %s in %.0f s" % (
                i, side, ", ".join(
                    "%s %.3f s %.1f MB" % (
                        n, r["metrics"]["run_s"]["value"],
                        r["metrics"]["peak_rss_mb"]["value"])
                    for n, r in pair[side].items()),
                time.monotonic() - t0), file=sys.stderr)
        rounds = [pair[s][ROUND_SENSITIVE].get("rounds") for s in checkouts]
        if rounds[0] != rounds[1]:
            print("warning: pair %d, %s: base fitted %s rounds, change %s; "
                  "peak_rss_mb may differ for that alone"
                  % (i, ROUND_SENSITIVE, rounds[0], rounds[1]),
                  file=sys.stderr)
        pairs.append(pair)
    return pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="checkout to compare against")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        _workload(args.workload, args.src)
        return 0
    if not (args.base and args.out):
        parser.error("--base and --out are required")
    sys.stdout.reconfigure(line_buffering=True)  # step 1 shows at once
    checkouts = {"parent": os.path.abspath(args.base), "change": ROOT}
    same = same_bytes(checkouts["parent"])
    if same is None:
        return 2
    pairs = _pairs(checkouts)
    if pairs is None:
        return 2
    traced = {}
    for side in ("parent", "change"):
        t0 = time.monotonic()
        traced[side] = _run(checkouts[side], trace=1)
        print("traced run, %s: %s in %.0f s"
              % (side, "no result" if traced[side] is None else "done",
                 time.monotonic() - t0), file=sys.stderr)
        if traced[side] is None:
            return 2
    result = {
        "description": (
            "%d alternating parent/change pairs of `python3 perfbench/run.py"
            " --seconds %g` (seed %d, 1 BLAS thread), run by "
            "tools/evidence.py. Even pairs ran the parent first. "
            "Quartiles are numpy's linear 25th and 75th percentiles. A win "
            "is a pair where that side's value is lower; ties count for "
            "neither side. `layers` holds one run with `--trace 1` per side."
            % (PAIRS, SECONDS, SEED)),
        "parent_commit": _git(checkouts["parent"], "rev-parse", "HEAD"),
        "change_tree": _work_tree(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "workloads": {name: _summary(pairs, name)
                      for name in pairs[0]["parent"]},
        "pairs": pairs,
        "layers": _layers(traced),
        "same_bytes": same,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, w in result["workloads"].items():
        for metric in METRICS:
            m = w[metric]
            print("%s %s: median %.4g [%.4g-%.4g] against %.4g [%.4g-%.4g], "
                  "change lower in %d/%d" % (
                      name, metric, m["parent"]["median"], m["parent"]["q1"],
                      m["parent"]["q3"], m["change"]["median"],
                      m["change"]["q1"], m["change"]["q3"], m["change_wins"],
                      len(pairs)))
    correct = (all(w[s + "_runs"]["correct"]
                   for w in result["workloads"].values()
                   for s in ("parent", "change"))
               and all(r["correct"] for t in traced.values()
                       for r in t.values()))
    return 0 if correct and same["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
