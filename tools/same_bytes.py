"""Check that two checkouts give byte-identical reports and CLI artifacts.

    python tools/same_bytes.py --base PATH/TO/PARENT/CHECKOUT [--work DIR]

Runs the same fixed workload once in the base checkout and once in this
one, each in a fresh Python process with that checkout's `src` first on
PYTHONPATH and one BLAS thread, then compares the outputs:

- the 10 criterion-6 reports of `tests/test_acceptance.py` (45 subjects,
  seed 8: qrs30+pca on all four protocols, fused rest_ex and the fused_kl
  sweep over 50-800 retained features), dumped with `dataclasses.asdict`,
  so every `state_fingerprint` and confusion matrix is compared;
- with `diff -r`, the files the CLI writes for `gen --subjects 5 --seed 42
  --rest-duration 60 --ex-duration 45`, `detect` on both records of one
  subject, `featurize` and `select` on the cohort, `run` on all four
  protocols (plus fused and fused_kl on rest_ex), `sweep 50,100,200`
  (default and a z-scored config), and `report` in csv and markdown.

It also prints each checkout's `src/ecgid/*.py` line count, as `wc -l`
counts it, and its settable values: the fields of `PipelineConfig`, and
the option strings of each CLI subcommand, which the checkout's own
process reads from its `build_parser()`. Each comes with the change's
delta against the base, and the options with those removed and added.

Prints the first difference and exits 1; exits 0 when everything is
identical and 2 when a checkout's workload fails. The two checkouts run
one after the other, each in about 30 s on a 2-core machine.
"""

import argparse
import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.abspath(__file__)
REFERENCE_SEED = 8  # criterion 6's cohort and run seed


def _criterion_6_reports(out_dir):
    from ecgid.bench import PipelineConfig, run_pipeline, sweep_top_n
    from ecgid.cli import cli_main

    cohort = os.path.join(out_dir, "reference_cohort")
    # gen's default durations (300 s rest, 150 s post-exercise, noise on)
    # are criterion 6's
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


def _import_checkout(src):
    import ecgid

    if not os.path.abspath(ecgid.__file__).startswith(src + os.sep):
        raise SystemExit("imported %s, not the checkout's %s"
                         % (ecgid.__file__, src))


def _workload(out_dir, src):
    """Runs inside the checked process: write reports.json and cli/."""
    _import_checkout(src)
    with open(os.path.join(out_dir, "reports.json"), "w",
              encoding="utf-8") as fh:
        json.dump(_criterion_6_reports(out_dir), fh, indent=1,
                  sort_keys=True)
    _cli_artifacts(os.path.join(out_dir, "cli"))


def _print_options(src):
    """Runs inside the checked process: print each CLI subcommand's option
    strings as JSON."""
    _import_checkout(src)
    from ecgid.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    json.dump({name: sorted(s for a in p._actions for s in a.option_strings)
               for name, p in sub.choices.items()}, sys.stdout)


def _checkout_process(checkout, *args, **kwargs):
    """Run this script with args in a fresh process that imports the
    checkout's `src` first and uses one BLAS thread."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.run([sys.executable, HERE, *args, "--src", src],
                          env=env, **kwargs)


def _cli_options(checkout):
    """(subcommand, option string) pairs of the checkout's CLI."""
    proc = _checkout_process(checkout, "--options", capture_output=True,
                             text=True, check=True)
    return {(cmd, opt) for cmd, opts in json.loads(proc.stdout).items()
            for opt in opts}


def _run_checkout(checkout, out_dir):
    os.makedirs(out_dir)
    t0 = time.monotonic()
    proc = _checkout_process(checkout, "--workload", out_dir, cwd=out_dir,
                             stdout=subprocess.DEVNULL)
    print("%s: workload %s in %.0f s"
          % (checkout, "ok" if proc.returncode == 0 else "FAILED",
             time.monotonic() - t0))
    return proc.returncode == 0


def _src_lines(checkout):
    """Newlines in the checkout's src/ecgid/*.py, as `wc -l` counts them."""
    src = os.path.join(checkout, "src", "ecgid")
    total = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += fh.read().count("\n")
    return total


def _config_fields(checkout):
    """Annotated fields of PipelineConfig in the checkout's bench.py, read
    from its source so that neither checkout is imported here."""
    with open(os.path.join(checkout, "src", "ecgid", "bench.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef)
               and n.name == "PipelineConfig")
    return sum(isinstance(n, ast.AnnAssign) for n in cls.body)


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="checkout to compare against")
    parser.add_argument("--work", help="directory for the outputs (kept); "
                        "default: a temporary directory, removed")
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    parser.add_argument("--options", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        _workload(args.workload, args.src)
        return 0
    if args.options:
        _print_options(args.src)
        return 0
    if not args.base:
        parser.error("--base is required")
    checkouts = {"base": args.base,
                 "change": os.path.dirname(os.path.dirname(HERE))}
    for label, count in (("src/ecgid/*.py lines", _src_lines),
                         ("PipelineConfig fields", _config_fields)):
        base, change = (count(c) for c in checkouts.values())
        print("%s: base %d, change %d (%+d)"
              % (label, base, change, change - base))
    base, change = (_cli_options(c) for c in checkouts.values())
    print("CLI options: base %d, change %d (%+d); removed: %s; added: %s"
          % (len(base), len(change), len(change) - len(base),
             ", ".join(" ".join(o) for o in sorted(base - change)) or "none",
             ", ".join(" ".join(o) for o in sorted(change - base)) or "none"))
    work = args.work or tempfile.mkdtemp(prefix="same_bytes_")
    try:
        outs = {}
        for side, checkout in checkouts.items():
            outs[side] = os.path.join(work, side)
            if not _run_checkout(checkout, outs[side]):
                return 2
        reports = {}
        for side, out in outs.items():
            with open(os.path.join(out, "reports.json"),
                      encoding="utf-8") as fh:
                reports[side] = json.load(fh)
        diff = _first_report_difference(reports["base"], reports["change"])
        if diff:
            print("criterion-6 reports differ: " + diff)
            return 1
        print("criterion-6 reports: %d identical (every state_fingerprint "
              "and confusion matrix)" % len(reports["change"]))
        proc = subprocess.run(["diff", "-r", os.path.join(outs["base"], "cli"),
                               os.path.join(outs["change"], "cli")],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print("CLI artifacts differ (diff -r, first lines):")
            print("\n".join(proc.stdout.splitlines()[:20]) or proc.stderr)
            return 1
        n_files = sum(len(f) for _, _, f in
                      os.walk(os.path.join(outs["change"], "cli")))
        print("CLI artifacts: diff -r finds no difference in %d files"
              % n_files)
        return 0
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
