"""Shared synthesis helpers for the test suite."""

import dataclasses

from ecgid import ingest
from ecgid.ingest import Wave, generate_subject_params

FS = 300.0


def write_cohort(dirpath, n_subjects, seed, rest_s=30.0, ex_s=20.0,
                 noise_on=True):
    """ingest.write_cohort with the suite's short default durations."""
    return ingest.write_cohort(dirpath, n_subjects, seed, rest_s, ex_s,
                               noise_on)


def fixed_params(rest_hr=60.0, ex_hr=100.0, jitter=0.0):
    """Deterministic wave set on a grid-friendly heart rate."""
    waves = {
        "P": Wave(0.15, -0.22, 0.020),
        "Q": Wave(-0.10, -0.05, 0.009),
        "R": Wave(1.2, 0.0, 0.011),
        "S": Wave(-0.15, 0.05, 0.009),
        "T": Wave(0.30, 0.28, 0.038),
    }
    return dataclasses.replace(
        generate_subject_params("sX", 0),
        waves=waves, rest_hr_bpm=rest_hr, ex_hr_bpm=ex_hr, hr_jitter_frac=jitter,
    )


def match_peaks(detected, truth, tol):
    """Greedy one-to-one matching; returns (true_pos, n_detected, n_truth)."""
    used = set()
    tp = 0
    for t in truth:
        best = None
        for i, d in enumerate(detected):
            if i in used or abs(int(d) - int(t)) > tol:
                continue
            if best is None or abs(int(d) - int(t)) < abs(int(detected[best]) - int(t)):
                best = i
        if best is not None:
            used.add(best)
            tp += 1
    return tp, len(detected), len(truth)
