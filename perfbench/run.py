"""Benchmark of the ecgid pipeline: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py                      # all workloads, one
                                                  # fresh process each
    python3 perfbench/run.py --workload method_survey --seed 3 --seconds 10
    python3 perfbench/run.py --workload paper_replication --trace 1

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics (setup_s, run_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics, which are also written to perfbench/results/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

# Set-up repeats: at least SETUP_MIN_REPEATS, and more while they add up
# to under SETUP_MIN_SECONDS, so that a short set-up still gets a steady
# median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_SECONDS = 3.0
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("paper_replication", "method_survey", "cli_walkthrough")


def _import_program():
    """Import the ecgid package from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ecgid", "__init__.py")):
        sys.exit("perfbench: no ecgid sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import ecgid
    if not os.path.abspath(ecgid.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported ecgid from %s, not %s"
                 % (ecgid.__file__, SRC))


def _timed_setups(workload, workdir, repeats=SETUP_MIN_REPEATS,
                  min_seconds=SETUP_MIN_SECONDS):
    """Set up in fresh directories; keep the last state."""
    times, state = [], None
    while len(times) < repeats or (sum(times) < min_seconds
                                   and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        state = workload.setup(os.path.join(workdir, "setup%d" % len(times)))
        times.append(time.perf_counter() - t0)
    return times, state


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, workdir):
    """The end-to-end run: median set-up, median round, peak RSS."""
    from workloads import Rounds
    setup_times, state = _timed_setups(workload, workdir)
    run = Rounds(workload, state, workdir, seed)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run.round())
    peak = _peak_rss_mb()
    result = run.finish()
    result["metrics"] = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(rounds),
        "peak_rss_mb": peak,
    }
    print("perfbench: %s setups %s s, rounds %s s"
          % (workload.name, ["%.3f" % t for t in setup_times],
             ["%.3f" % t for t in rounds]), file=sys.stderr)
    return result


def trace(workload, seed, seconds, workdir):
    """The traced run: one traced set-up, then untraced and traced rounds
    in turn; per-layer metrics are medians over the traced rounds."""
    from tracing import PER_LAYER, Tracer
    from workloads import Rounds
    setup_tracer = Tracer()
    with setup_tracer.installed():
        _, state = _timed_setups(workload, workdir, repeats=1,
                                 min_seconds=0.0)
    run = Rounds(workload, state, workdir, seed)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run.round())
        tracers.append(Tracer())
        traced.append(run.round(tracers[-1]))
    result = run.finish()
    per_round = [t.metrics() for t in tracers]
    setup_metrics = setup_tracer.metrics()
    metrics = {}
    for name, unit, _better in PER_LAYER:
        values = [m.get(name, 0) for m in per_round]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) == 1:
            value = values[0]
        else:
            result["correct"] = False
            print("perfbench: CHECK FAILED: count %s varies across rounds: %s"
                  % (name, values), file=sys.stderr)
            value = values[0]
        metrics[name] = {"value": setup_metrics.get(name, 0) + value,
                         "unit": unit}
    metrics["trace.overhead_s"]["value"] = (statistics.median(traced)
                                            - statistics.median(plain))
    result["metrics"] = metrics
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "trace-%s-seed%d.json" % (workload.name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "untraced_round_s": plain, "traced_round_s": traced,
                   "metrics": metrics,
                   "setup_spans": setup_tracer.spans,
                   "round_spans": tracers[0].spans}, fh)
    print("perfbench: %s trace overhead %.3f s (traced %s, untraced %s); "
          "wrote %s" % (workload.name, metrics["trace.overhead_s"]["value"],
                        ["%.3f" % t for t in traced],
                        ["%.3f" % t for t in plain], path), file=sys.stderr)
    return result


def run_one(args):
    _import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    try:
        fn = trace if args.trace else measure
        result = fn(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        result["metrics"] = {name: {"value": result["metrics"][name],
                                    "unit": unit}
                             for name, unit in END_TO_END}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process; prints every metric by name."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.exit("perfbench: %s exited %d" % (name, proc.returncode))
        results[name] = json.loads(proc.stdout.strip().split("\n")[-1])
        res = results[name]
        print("%s: correct=%s attempted=%d failed=%d"
              % (name, res["correct"], res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("  %-34s %14.4f %s" % (metric, m["value"], m["unit"]))
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # One BLAS thread, never more than the cores: steadier timings on a
    # shared machine. Set before anything loads numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
