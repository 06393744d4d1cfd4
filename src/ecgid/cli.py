"""Command-line front end.

Subcommands: gen, detect, featurize, select, run, sweep, report.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import sys
from dataclasses import replace

from . import bench
from .errors import EcgidError
from .features import load_feature_matrix, save_feature_matrix
from .ingest import (
    CONDITIONS,
    _read_text,
    _write_lines,
    load_manifest,
    write_cohort,
)
from .select import save_selection_weights, select_features


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _write_text(path, text):
    """text, which ends in a newline, to stdout or to the file at path."""
    if path is None:
        sys.stdout.write(text)
    else:
        _write_lines(path, [text[:-1]])


def _load_config(args, base=bench.PipelineConfig()):
    cfg = bench.parse_config(_read_text(args.config), base) \
        if args.config else base
    if getattr(args, "stage", None):  # sweep has no --stage
        cfg = replace(cfg, stage=args.stage)
    return cfg


# ===== subcommands ========================================================

def _cmd_gen(args):
    print(write_cohort(args.out, args.subjects, args.seed, args.rest_duration,
                       args.ex_duration))
    return 0


def _cmd_detect(args):
    det = bench.read_record(args.record, args.subject, args.condition)[2]
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
    # Unset keys keep fused_kl's values: only a stage the file names warns.
    cfg = _load_config(args, bench.PipelineConfig(stage="fused_kl"))
    if cfg.stage != "fused_kl":
        print("warning: %s: stage %s ignored, sweep runs fused_kl"
              % (args.config, cfg.stage), file=sys.stderr)
        cfg = replace(cfg, stage="fused_kl")
    reports = bench.sweep_top_n(args.manifest, cfg, args.protocol, args.seed,
                                args.top_n_list)
    _write_text(args.out, bench.render_report(reports, args.format))
    return 0


def _cmd_report(args):
    rows = []
    for path in args.inputs:
        for row in bench.parse_report_csv(_read_text(path), path):
            rows.append(tuple(row[c] for c in bench.REPORT_COLUMNS))
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
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("detect", help="R peaks for one record")
    p.add_argument("--record", required=True)
    p.add_argument("--subject", default="s00")
    p.add_argument("--condition", default=CONDITIONS[0], choices=CONDITIONS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("featurize",
                       help="manifest + stage -> feature-matrix file")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stage", choices=bench.STAGES, default=None)
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

    # flags shared by run and sweep (exp) and by run, sweep and report (out)
    exp = argparse.ArgumentParser(add_help=False)
    exp.add_argument("--manifest", required=True)
    exp.add_argument("--protocol", choices=bench.PROTOCOLS, required=True)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--config", default=None)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", choices=("csv", "markdown"), default="csv")
    out.add_argument("--out", default=None)

    p = sub.add_parser("run", help="one pipeline x protocol experiment",
                       parents=[exp, out])
    p.add_argument("--stage", choices=bench.STAGES, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="fused_kl top_n sweep", parents=[exp, out])
    p.add_argument("--top-n-list", type=_int_list, required=True,
                   help="comma-separated counts, e.g. 50,100,200")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="merge report CSVs into one table",
                       parents=[out])
    p.add_argument("--inputs", nargs="+", required=True)
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
    except (EcgidError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
