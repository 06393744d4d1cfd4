"""Dimensionality reduction and exercise-robust feature selection.

PCA is a plain covariance eigendecomposition (with the Gram-matrix route
when dimensionality exceeds the row count). Feature selection scores each
feature by symmetric KL divergence between per-subject, per-condition, and
population Gaussian fits over an auxiliary cohort: w = lambda*w1 -
(1-lambda)*w2 rewards between-subject separation (w1) and punishes
rest-to-exercise drift (w2).
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    MissingCondition,
    TooFewRows,
    TooFewSubjects,
)
from .features import FeatureMatrix
from .ingest import CONDITIONS, _write_lines

SIGMA_FLOOR = 1e-6
PCA_VARIANCE_RETAINED = 0.99  # the explained-variance share a PCA keeps


# ===== PCA ================================================================

@dataclass(frozen=True)
class PcaModel:
    """Centering mean, orthonormal directions (rows), their variances, k."""

    mean: np.ndarray
    components: np.ndarray
    explained_variances: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, float))
        comp = np.asarray(self.components, float)
        var = np.asarray(self.explained_variances, float)
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "explained_variances", var)
        gram = comp @ comp.T
        if np.max(np.abs(gram - np.eye(comp.shape[0]))) > 1e-8:
            raise InvariantViolation("components must be orthonormal")
        if np.any(var < 0) or np.any(np.diff(var) > 1e-12):
            raise InvariantViolation(
                "explained variances must be non-increasing and >= 0"
            )
        if not 1 <= self.k <= comp.shape[0]:
            raise InvariantViolation("retained count k out of range")


def pca_fit(m):
    """Fit PCA on the rows of FeatureMatrix ``m``.

    k is the smallest component count whose cumulative explained variance
    reaches PCA_VARIANCE_RETAINED, capped at min(dim, rows-1).
    """
    x = m.values
    n, d = x.shape
    if n < 2:
        raise TooFewRows("PCA needs >= 2 rows")
    mean = x.mean(axis=0)
    xc = x - mean
    max_k = min(d, n - 1)

    if d <= n:
        cov = (xc.T @ xc) / (n - 1)
        eigval, eigvec = np.linalg.eigh(cov)
        order = np.argsort(eigval)[::-1]
        var = eigval[order]
        comp = eigvec[:, order].T
    else:
        # Gram route: eigenvectors of (Xc Xc^T)/(n-1) lift to directions
        gram = (xc @ xc.T) / (n - 1)
        eigval, eigvec = np.linalg.eigh(gram)
        order = np.argsort(eigval)[::-1]
        eigval = eigval[order]
        eigvec = eigvec[:, order]
        # lifted eigenvectors lose orthonormality as eigval/eigval_max
        # approaches round-off scale; keep well clear of the 1e-8 invariant
        keep = eigval > max(1e-6 * max(eigval[0], 0.0), 1e-300)
        eigval = eigval[keep]
        eigvec = eigvec[:, keep]
        comp = (xc.T @ eigvec / np.sqrt(eigval * (n - 1))).T
        var = eigval

    comp = comp[:max_k]
    var = np.maximum(var[:max_k], 0.0)
    # deterministic orientation: largest-magnitude entry is positive
    for row in comp:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0

    total = float(np.sum((xc * xc)) / (n - 1))  # trace of the covariance
    if total <= 0.0:
        k = 1
    else:
        frac = np.cumsum(var) / total
        reached = np.flatnonzero(frac >= PCA_VARIANCE_RETAINED - 1e-12)
        k = int(reached[0]) + 1 if reached.size else var.size
    k = max(1, min(k, comp.shape[0]))
    return PcaModel(mean, comp, var, k)


def pca_transform(model, m):
    """Center and project rows onto the k retained directions."""
    if m.dim != model.mean.size:
        raise DimensionMismatch(
            "matrix dim %d vs model dim %d" % (m.dim, model.mean.size)
        )
    proj = (m.values - model.mean) @ model.components[:model.k].T
    layout = "%s>pca%d" % (m.layout_id, model.k)
    return FeatureMatrix(proj, m.subject_ids, m.conditions, layout, m.skipped)


# ===== symmetric KL weights ===============================================

def kl_sym(mu1, sigma1, mu2, sigma2):
    """Symmetric KL divergence of two Gaussians; sigmas floored at 1e-6."""
    s1 = np.maximum(sigma1, SIGMA_FLOOR)
    s2 = np.maximum(sigma2, SIGMA_FLOOR)
    dmu2 = (np.asarray(mu1, float) - np.asarray(mu2, float)) ** 2
    return (s1 ** 2 + dmu2) / (2.0 * s2 ** 2) \
        + (s2 ** 2 + dmu2) / (2.0 * s1 ** 2) - 1.0


def _aux_stats(aux):
    subjects = sorted(set(aux.subject_ids))
    if len(subjects) < 2:
        raise TooFewSubjects("selection needs >= 2 auxiliary subjects")
    # integer codes: numpy strings would drop an id's trailing NULs
    code = {s: i for i, s in enumerate(subjects)}
    sid = np.array([code[s] for s in aux.subject_ids])
    cond = np.array(aux.conditions)
    subj_masks = [sid == i for i in range(len(subjects))]
    for s, mask in zip(subjects, subj_masks):
        if not all(np.any(mask & (cond == c)) for c in CONDITIONS):
            raise MissingCondition("subject %s lacks a condition in aux" % s)
    return subjects, subj_masks, cond


def _weight_vectors(aux):
    """(w1, w2) across all features, vectorized over the feature axis."""
    subjects, subj_masks, cond = _aux_stats(aux)
    x = aux.values
    pop_mean = x.mean(axis=0)
    pop_std = x.std(axis=0)
    w1 = np.zeros(x.shape[1])
    w2 = np.zeros(x.shape[1])
    for mask in subj_masks:
        sub_mean = x[mask].mean(axis=0)
        sub_std = x[mask].std(axis=0)
        w1 += kl_sym(sub_mean, sub_std, pop_mean, pop_std)
        for c in CONDITIONS:
            cmask = mask & (cond == c)
            c_mean = x[cmask].mean(axis=0)
            c_std = x[cmask].std(axis=0)
            w2 += kl_sym(c_mean, c_std, sub_mean, sub_std)
    n = float(len(subjects))
    return w1 / n, w2 / n


@dataclass(frozen=True)
class SelectionWeights:
    """Per-feature scores and the retained index order."""

    w: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    lam: float
    selected: tuple

    def __post_init__(self):
        for name in ("w", "w1", "w2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        object.__setattr__(self, "selected", tuple(int(i) for i in self.selected))
        if not 0 <= self.lam <= 1:
            raise InvariantViolation("lambda must lie in [0, 1]")
        if np.any(self.w1 < 0) or np.any(self.w2 < 0):
            raise InvariantViolation("w1/w2 are sums of divergences, >= 0")
        recomputed = self.lam * self.w1 - (1.0 - self.lam) * self.w2
        if not np.array_equal(recomputed, self.w):
            raise InvariantViolation("w must equal lambda*w1 - (1-lambda)*w2")
        ranked = rank_descending(self.w)
        if not self.selected or \
                list(self.selected) != list(ranked[:len(self.selected)]):
            raise InvariantViolation("selected must be the top weights, ties "
                                     "by ascending index, and not empty")


def rank_descending(w):
    """Indices by descending w; ties broken by ascending index."""
    w = np.asarray(w, float)
    return np.lexsort((np.arange(w.size), -w))


def select_features(aux, lam, top_n):
    """Score every feature on the auxiliary cohort and keep the best.

    Parameters
    ----------
    aux : FeatureMatrix
        Auxiliary cohort with both conditions per subject.
    lam : float in [0, 1]
        Trade-off weight; paper-style default is 0.3.
    top_n : int in [1, aux.dim]
        Number of features kept (by descending w, ties ascending index).

    Returns
    -------
    SelectionWeights
    """
    if not (isinstance(top_n, numbers.Integral) and 1 <= top_n <= aux.dim):
        raise InvariantViolation("top_n must lie in [1, dim]")
    w1, w2 = _weight_vectors(aux)
    w = lam * w1 - (1.0 - lam) * w2
    if not np.isfinite([w1, w2]).all():
        raise InvariantViolation("selection weights are not finite: the "
                                 "feature values are too large to score")
    selected = tuple(int(i) for i in rank_descending(w)[:top_n])
    return SelectionWeights(w, w1, w2, lam, selected)


def apply_selection(weights, m):
    """Column-subset a matrix to the selected features, in selected order."""
    if m.dim != weights.w.size:
        raise DimensionMismatch(
            "matrix dim %d vs weights dim %d" % (m.dim, weights.w.size)
        )
    idx = np.array(weights.selected, dtype=int)
    layout = "%s>kl%d" % (m.layout_id, idx.size)
    # a C-ordered copy, unlike m.values[:, idx]: z-score sums depend on it
    return FeatureMatrix(np.take(m.values, idx, axis=1), m.subject_ids,
                         m.conditions, layout, m.skipped)


# ===== persistence ========================================================

def save_selection_weights(weights, path):
    lines = ["lambda=%s,top_n=%d" % (repr(float(weights.lam)),
                                     len(weights.selected))]
    flags = np.zeros(weights.w.size, dtype=int)
    flags[list(weights.selected)] = 1
    for i in range(weights.w.size):
        lines.append("%d,%s,%s,%s,%d" % (
            i, repr(float(weights.w[i])), repr(float(weights.w1[i])),
            repr(float(weights.w2[i])), flags[i]))
    _write_lines(path, lines)
