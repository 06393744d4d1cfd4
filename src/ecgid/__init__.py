"""ECG-based human identification toolkit.

Synthetic lead-II cohorts, QRS detection, beat segmentation, spectral and
autocorrelation features, divergence-weighted feature selection, a
one-vs-one RBF SVM, and a benchmark harness with train/test protocols.
"""

from .errors import EcgidError
from .ingest import (
    DatasetManifest,
    EcgRecord,
    build_cohort,
    derive_seed,
    generate_subject_params,
    load_manifest,
    load_record,
    save_manifest,
    save_record,
    synthesize_record,
    write_cohort,
)
from .dsp import (
    FilterCoefficients,
    design_butterworth_bandpass,
    filter_zero_phase,
    preprocess_ecg,
)
from .detect import QrsDetection, detect_r_peaks
from .segment import (
    dt_threshold,
    pqrst_windows,
    resample_rows,
    resample_to_length,
    segment_beats_midpoint,
)
from .features import (
    FeatureMatrix,
    ac_features,
    autocorr_features,
    beat_features,
    concat_matrices,
    cwt_features,
    fused_features,
    load_feature_matrix,
    pqrst_features,
    qrs_features,
    save_feature_matrix,
    stft_features,
    take_rows,
    zscore_apply,
    zscore_fit,
)
from .select import (
    SelectionWeights,
    apply_selection,
    kl_sym,
    pca_fit,
    pca_transform,
    select_features,
)
from .classify import (
    PredictionResult,
    SvmModel,
    accuracy,
    knn_predict,
    svm_predict,
    svm_train,
)
from .bench import (
    ExperimentReport,
    PipelineConfig,
    parse_config,
    render_report,
    run_pipeline,
    split_protocol,
    sweep_top_n,
)

__all__ = [
    "EcgidError",
    "DatasetManifest", "EcgRecord", "build_cohort", "derive_seed",
    "generate_subject_params", "load_manifest", "load_record",
    "save_manifest", "save_record", "synthesize_record", "write_cohort",
    "FilterCoefficients", "design_butterworth_bandpass",
    "filter_zero_phase", "preprocess_ecg",
    "QrsDetection", "detect_r_peaks",
    "dt_threshold", "pqrst_windows", "resample_rows", "resample_to_length",
    "segment_beats_midpoint",
    "FeatureMatrix", "ac_features", "autocorr_features", "beat_features",
    "concat_matrices", "cwt_features", "fused_features",
    "load_feature_matrix", "pqrst_features", "qrs_features",
    "save_feature_matrix", "stft_features", "take_rows", "zscore_apply",
    "zscore_fit",
    "SelectionWeights", "apply_selection", "kl_sym", "pca_fit",
    "pca_transform", "select_features",
    "PredictionResult", "SvmModel", "accuracy", "knn_predict",
    "svm_predict", "svm_train",
    "ExperimentReport", "PipelineConfig", "parse_config", "render_report",
    "run_pipeline", "split_protocol", "sweep_top_n",
]

__version__ = "0.1.0"
