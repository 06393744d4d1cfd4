"""Synthesize one subject's rest and post-exercise records, run the
detection front end, and compare detected R peaks against the generator's
ground truth."""

import numpy as np

from ecgid import (
    derive_seed,
    detect_r_peaks,
    generate_subject_params,
    preprocess_ecg,
    synthesize_record,
)
from ecgid.ingest import CONDITIONS


def main():
    params = generate_subject_params("s01", cohort_seed=42)
    print("subject s01: rest %.1f bpm, post-exercise %.1f bpm"
          % (params.rest_hr_bpm, params.ex_hr_bpm))

    for condition in CONDITIONS:
        record, truth = synthesize_record(
            params, condition, duration_s=60.0, noise_on=True,
            rng_seed=derive_seed("record", 42, "s01", condition))
        filtered = preprocess_ecg(record.samples, record.sampling_rate_hz)
        det = detect_r_peaks(filtered, record.sampling_rate_hz)

        rr = np.diff(det.r_peaks) / record.sampling_rate_hz
        hits = 0
        for t in truth:
            if np.min(np.abs(det.r_peaks - t)) <= 3:
                hits += 1
        print("%-14s %3d true beats, %3d detected, %3d matched within "
              "+-3 samples, mean HR %.1f bpm"
              % (condition, truth.size, len(det), hits, 60.0 / rr.mean()))
        widths = (det.qrs_offsets - det.qrs_onsets) / record.sampling_rate_hz
        print("%14s QRS widths %.0f-%.0f ms (median %.0f)"
              % ("", 1000 * widths.min(), 1000 * widths.max(),
                 1000 * np.median(widths)))


if __name__ == "__main__":
    main()
