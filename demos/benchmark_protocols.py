"""Run one pipeline across all four train/test protocols on a small
synthetic cohort and print the merged report.

Mirrors the command line:
    ecgid gen --subjects 5 --seed 42 --out <dir> ...
    ecgid run --manifest <dir>/manifest.txt --protocol rest_rest ...
"""

import tempfile

from ecgid import PipelineConfig, render_report, run_pipeline, write_cohort


def main():
    out = tempfile.mkdtemp(prefix="ecgid_demo_")
    manifest = write_cohort(out, 5, seed=42, rest_duration_s=60.0,
                            ex_duration_s=45.0)
    print("cohort written to %s" % out)

    config = PipelineConfig(stage="qrs30", reduction="pca")
    cache = {}
    reports = [
        run_pipeline(manifest, config, protocol, seed=42, cache=cache)
        for protocol in ("rest_rest", "ex_first70", "ex_last70", "rest_ex")
    ]
    print(render_report(reports, fmt="markdown"))


if __name__ == "__main__":
    main()
