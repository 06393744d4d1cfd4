"""Extract fused time-frequency features for a small cohort and show how
divergence-based selection reweights them.

The rows are the ones a `fused_kl` run selects on: each record is
band-passed to 0.5-40 Hz before detection and features. The whole small
cohort stands in for the auxiliary subjects the weights are fit on; the
demo prints which feature blocks (spectrogram, wavelet, autocorrelation)
survive at a few retained-feature counts."""

import tempfile

from ecgid import PipelineConfig, load_manifest, select_features, write_cohort
from ecgid.bench import featurize_cohort
from ecgid.features import FUSED_BLOCKS
from ecgid.select import rank_descending


def block_of(index):
    for name, (lo, hi) in FUSED_BLOCKS.items():
        if lo <= index < hi:
            return name
    raise ValueError(index)


def main():
    with tempfile.TemporaryDirectory(prefix="ecgid_demo_") as out:
        manifest = write_cohort(out, 4, seed=42, rest_duration_s=60.0,
                                ex_duration_s=40.0)
        entries = [(sid, cond) for sid, cond, _, _
                   in load_manifest(manifest).entries]
        aux = featurize_cohort(manifest, PipelineConfig(stage="fused"),
                               entries)
    print("auxiliary matrix: %d beats x %d features from %d subjects"
          % (aux.n_rows, aux.dim, len(set(aux.subject_ids))))

    sel = select_features(aux, lam=0.3, top_n=200)
    print("weight range: w1 (subject separability) %.3f..%.3f, "
          "w2 (exercise sensitivity) %.3f..%.3f"
          % (sel.w1.min(), sel.w1.max(), sel.w2.min(), sel.w2.max()))

    ranked = rank_descending(sel.w)
    for top_n in (20, 200, 2000):
        counts = {}
        for idx in ranked[:top_n]:
            name = block_of(int(idx))
            counts[name] = counts.get(name, 0) + 1
        mix = ", ".join("%s %d" % (k, counts.get(k, 0))
                        for k in ("stft", "cwt", "ac"))
        print("top %4d features by weight: %s" % (top_n, mix))


if __name__ == "__main__":
    main()
