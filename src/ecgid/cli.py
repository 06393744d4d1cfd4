"""Command-line front end.

Subcommands: gen, detect, featurize, select, run, sweep, report.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import bench
from .errors import EcgidError
from .detect import detect_r_peaks
from .dsp import preprocess_ecg
from .features import load_feature_matrix, save_feature_matrix
from .ingest import (
    DatasetManifest,
    _read_text,
    build_cohort,
    load_manifest,
    load_record,
    save_manifest,
    save_record,
)
from .select import save_selection_weights, select_features


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_config(args):
    if getattr(args, "config", None):
        cfg = bench.parse_config(_read_text(args.config))
    else:
        cfg = bench.PipelineConfig()
    if getattr(args, "stage", None):
        cfg = replace(cfg, stage=args.stage)
    return cfg


# ===== subcommands ========================================================

def _cmd_gen(args):
    noise_on = args.noise == "on"
    cohort = build_cohort(args.subjects, args.seed,
                          rest_duration_s=args.rest_duration,
                          ex_duration_s=args.ex_duration,
                          noise_on=noise_on)
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for record, _truth in cohort:
        rel = "%s_%s.txt" % (record.subject_id, record.condition)
        save_record(record, os.path.join(args.out, rel))
        entries.append((record.subject_id, record.condition, rel,
                        record.duration_s))
    manifest_path = os.path.join(args.out, "manifest.txt")
    save_manifest(DatasetManifest(tuple(entries), seed=args.seed),
                  manifest_path)
    print(manifest_path)
    return 0


def _cmd_detect(args):
    record = load_record(args.record, args.subject, args.condition)
    filtered = preprocess_ecg(record.samples, record.sampling_rate_hz,
                              args.lo, args.hi)
    det = detect_r_peaks(filtered, record.sampling_rate_hz)
    text = "\n".join(str(int(r)) for r in det.r_peaks) + "\n"
    _write_text(args.out, text)
    return 0


def _cmd_featurize(args):
    cfg = _load_config(args)
    man = load_manifest(args.manifest)
    entries = sorted((s, c) for (s, c, _, _) in man.entries)
    save_feature_matrix(bench.featurize_cohort(args.manifest, cfg, entries),
                        args.out)
    print(args.out)
    return 0


def _cmd_select(args):
    matrix = load_feature_matrix(args.features)
    weights = select_features(matrix, args.lam, args.top_n)
    save_selection_weights(weights, args.out)
    print(args.out)
    return 0


def _cmd_run(args):
    cfg = _load_config(args)
    report = bench.run_pipeline(args.manifest, cfg, args.protocol, args.seed)
    _write_text(args.out, bench.render_report([report], args.format))
    return 0


def _cmd_sweep(args):
    cfg = replace(_load_config(args), stage="fused_kl")
    reports = bench.sweep_top_n(args.manifest, cfg, args.protocol, args.seed,
                                args.top_n_list)
    _write_text(args.out, bench.render_report(reports, args.format))
    return 0


def _cmd_report(args):
    rows = []
    for path in args.inputs:
        for row in bench.parse_report_csv(_read_text(path), path):
            rows.append(tuple(row[c] for c in bench.REPORT_COLUMNS))
    rows.sort(key=lambda r: (r[0], r[1]))
    _write_text(args.out, bench.render_rows(rows, args.format))
    return 0


# ===== parser =============================================================

def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text)


def build_parser():
    parser = _Parser(prog="ecgid",
                     description="ECG identification benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen", help="synthesize a cohort into a directory")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rest-duration", type=float, default=300.0)
    p.add_argument("--ex-duration", type=float, default=150.0)
    p.add_argument("--noise", choices=("on", "off"), default="on")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("detect", help="R peaks for one record")
    p.add_argument("--record", required=True)
    p.add_argument("--subject", default="s00")
    p.add_argument("--condition", default="rest",
                   choices=("rest", "post_exercise"))
    p.add_argument("--lo", type=float, default=0.5)
    p.add_argument("--hi", type=float, default=40.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("featurize",
                       help="manifest + stage -> feature-matrix file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stage", choices=bench.STAGES, default="qrs30")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("select",
                       help="feature matrix -> selection weights file")
    p.add_argument("--features", required=True)
    p.add_argument("--lam", type=float, default=0.3)
    p.add_argument("--top-n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("run", help="one pipeline x protocol experiment")
    p.add_argument("--manifest", required=True)
    p.add_argument("--protocol", choices=bench.PROTOCOLS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--stage", choices=bench.STAGES, default=None)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="fused_kl top_n sweep")
    p.add_argument("--manifest", required=True)
    p.add_argument("--protocol", choices=bench.PROTOCOLS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--top-n-list", type=_int_list, required=True,
                   help="comma-separated counts, e.g. 50,100,200")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="merge report CSVs into one table")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def cli_main(argv=None):
    """Parse argv and run the selected subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except EcgidError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
