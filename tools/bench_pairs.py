"""Run the benchmark in alternating base/change pairs and summarize them.

    python tools/bench_pairs.py --base PATH/TO/PARENT/CHECKOUT \
        --out BENCH_N.json

The protocol is fixed, so that every BENCH_N.json compares alike: 10
pairs, each running `python3 perfbench/run.py --seconds 15 --seed 0` once
in the base checkout and once in this one, each in its own checkout
directory (perfbench/run.py runs with one BLAS thread). Even pairs run
the base first, odd pairs the change. The output file holds:

- `description`, `parent_commit` (the base's git HEAD, or null),
  `change_tree` (the git tree of this checkout's files, untracked ones
  included and ignored ones left out, or null), `nproc`, `python`, `numpy`
  and `blas`;
- `workloads`: per workload, the runs' `correct` flags, `attempted`
  counts, `failed` counts and round counts (one per run, in pair order),
  and per end-to-end metric the median and quartiles of each side, the
  pairs each side won, the ratio of the medians and whether the gap
  between the medians exceeds the base's spread between quartiles;
- `pairs`: every run's raw result, plus the rounds it fitted into the
  time.

A pair whose two sides fitted a different number of rounds of
`paper_replication` gets a warning on stderr: there a second round adds
about 29 MB to `peak_rss_mb` with no code difference, so such a pair
compares more than the code. The other workloads fit 5-19 rounds, which
differ between the sides in most pairs, and no metric of theirs is known
to step with the count, so their round counts are only recorded.

Exits 0 when every run was correct, 1 when one was not, and 2 when a run
gave no result. Ten pairs take about 25 minutes on a 2-core machine.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = ("setup_s", "run_s", "peak_rss_mb")  # all: lower is better
PAIRS, SECONDS, SEED = 10, 15.0, 0
ROUND_SENSITIVE = "paper_replication"  # its peak_rss_mb steps with rounds
ROUNDS = re.compile(r"^perfbench: (\S+) setups \[.*\] s, rounds \[(.*)\] s$",
                    re.M)


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


def _run(checkout):
    """One perfbench run: {workload: result with its `rounds`}, or None."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seconds",
         str(SECONDS), "--seed", str(SEED)],
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="checkout to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.base), "change": ROOT}
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
                return 2
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
    result = {
        "description": (
            "%d alternating parent/change pairs of `python3 perfbench/run.py"
            " --seconds %g` (seed %d, 1 BLAS thread), run by "
            "tools/bench_pairs.py. Even pairs ran the parent first. "
            "Quartiles are numpy's linear 25th and 75th percentiles. A win "
            "is a pair where that side's value is lower; ties count for "
            "neither side." % (PAIRS, SECONDS, SEED)),
        "parent_commit": _git(checkouts["parent"], "rev-parse", "HEAD"),
        "change_tree": _work_tree(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "workloads": {name: _summary(pairs, name)
                      for name in pairs[0]["parent"]},
        "pairs": pairs,
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
    correct = all(w[s + "_runs"]["correct"]
                  for w in result["workloads"].values()
                  for s in ("parent", "change"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
