"""Multi-class classifiers over feature matrices.

A one-vs-one RBF-kernel SVM trained by sequential minimal optimization,
a k-nearest-neighbor baseline, and accuracy scoring. The SMO solver works
on a precomputed Gram matrix so binary subproblems share one kernel
evaluation; rows are put into a canonical order before training so that
permuting the input rows cannot change the fitted model.
"""

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClass,
    DimensionMismatch,
    InvariantViolation,
    LengthMismatch,
)

ALPHA_EPS = 1e-12
TAU = 1e-12  # floor on the pair curvature a, as in LIBSVM


# ===== kernel =============================================================

def squared_distances(a, b):
    """Pairwise squared Euclidean distances, clipped at zero."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] \
        - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def rbf_kernel(a, b, gamma):
    """exp(-gamma * ||x - y||^2) between the rows of a and b."""
    return np.exp(-gamma * squared_distances(a, b))


def rbf_gram(x, gamma):
    """Symmetric train Gram: K[i,j] == K[j,i] and K[i,i] == 1 exactly."""
    k = rbf_kernel(x, x, gamma)
    iu = np.triu_indices(k.shape[0], 1)
    k[(iu[1], iu[0])] = k[iu]
    np.fill_diagonal(k, 1.0)
    return k


# ===== SMO ================================================================

@dataclass(frozen=True)
class SmoResult:
    alpha: np.ndarray
    bias: float
    converged: bool
    epochs_run: int
    objective_history: np.ndarray
    kkt_violation: float


def _kkt_violation(alpha, y, err, c, eps=ALPHA_EPS):
    """Largest KKT residual: r = y*E must obey the sign of alpha's bound."""
    r = y * err
    v = np.zeros_like(r)
    free = (alpha > eps) & (alpha < c - eps)
    v[free] = np.abs(r[free])
    at_zero = alpha <= eps
    v[at_zero] = np.maximum(0.0, -r[at_zero])
    at_c = alpha >= c - eps
    v[at_c] = np.maximum(0.0, r[at_c])
    return float(np.max(v))


def smo_solve(gram, y, c=100.0, tol=1e-3, max_epochs=200):
    """Maximize the soft-margin SVM dual over a precomputed Gram matrix.

    Each update optimizes one pair of multipliers analytically. The pair is
    chosen by the second-order working-set selection of Fan, Chen & Lin
    (JMLR 6, 2005), as in LIBSVM: with g = y - K(alpha*y), i is the
    maximal violator max g over I_up, and j is the member of I_low with the
    largest gain b^2/a, where b = g_i - g_j > 0 and
    a = K_ii + K_jj - 2 K_ij. Ties go to the lowest index, so the result is
    deterministic.

    Parameters
    ----------
    gram : (n, n) ndarray
        Symmetric kernel matrix of the training rows.
    y : (n,) ndarray of +-1
        Both labels must occur.
    c : float
        Box constraint.
    tol : float
        Stop once max g over I_up minus min g over I_low falls below tol.
    max_epochs : int
        Budget of max_epochs * n pair updates.

    Returns
    -------
    SmoResult
        alpha in [0, c]^n; the bias (mean g over free support vectors, or
        the midpoint of the optimality interval when none is free);
        convergence flag (final KKT violation <= tol); updates run in units
        of n, rounded up; the dual objective after every n updates and at
        the end; and the final KKT violation.
    """
    y = np.asarray(y, float)
    n = y.size
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise InvariantViolation("labels must be +-1, with both present")
    diag = np.diag(gram)
    pos = y > 0
    alpha = np.zeros(n)
    g = y.copy()  # y - K(alpha*y) at alpha = 0
    up = pos.copy()  # I_up: y*alpha may grow
    low = ~pos  # I_low: y*alpha may shrink

    def objective():
        return float(0.5 * np.sum(alpha * (y * g + 1.0)))

    history = []
    updates = 0
    while True:
        g_up = np.where(up, g, -np.inf)
        i = int(np.argmax(g_up))
        g_low = np.where(low, g, np.inf)
        m_up, m_low = g_up[i], float(np.min(g_low))
        # m_up <= m_low is the exact optimum; it also stops a tol <= 0 run
        if m_up - m_low < tol or m_up <= m_low or updates == max_epochs * n:
            break
        b = m_up - g_low
        a = np.maximum(diag[i] + diag - 2.0 * gram[i], TAU)
        j = int(np.argmax(np.where(b > 0.0, b * b / a, -np.inf)))
        # step t along alpha_i += y_i t, alpha_j -= y_j t, clipped to the box
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        if t == room_i:  # land exactly on the bound
            alpha[i] = c if pos[i] else 0.0
        if t == room_j:
            alpha[j] = 0.0 if pos[j] else c
        g -= t * (gram[i] - gram[j])
        for k in (i, j):
            up[k] = alpha[k] < c if pos[k] else alpha[k] > 0.0
            low[k] = alpha[k] > 0.0 if pos[k] else alpha[k] < c
        updates += 1
        if updates % n == 0:
            history.append(objective())
    if updates % n or not updates:
        history.append(objective())
    free = (alpha > ALPHA_EPS) & (alpha < c - ALPHA_EPS)
    bias = float(np.mean(g[free])) if free.any() else 0.5 * (m_up + m_low)
    kkt = _kkt_violation(alpha, y, bias - g, c)
    return SmoResult(alpha, bias, kkt <= tol, -(-updates // n),
                     np.array(history), kkt)


# ===== one-vs-one SVM =====================================================

@dataclass(frozen=True)
class PairModel:
    """One binary decision function: positive side is label_pos.

    sv_idx indexes the shared model-level support matrix, so the many
    pairwise problems of a large class set never copy their rows.
    """

    label_pos: str
    label_neg: str
    sv_idx: np.ndarray
    coef: np.ndarray
    bias: float
    converged: bool
    kkt_violation: float


@dataclass(frozen=True)
class SvmModel:
    """One-vs-one RBF SVM over a fixed class label set."""

    classes: tuple
    c: float
    gamma: float
    sv_matrix: np.ndarray
    pairs: tuple

    def __post_init__(self):
        for pair in self.pairs:
            if np.any(np.abs(pair.coef) > self.c * (1 + 1e-9)):
                raise InvariantViolation("dual coefficients must lie in [0, c]")

    @property
    def dim(self):
        return self.sv_matrix.shape[1]

    @property
    def all_converged(self):
        return all(p.converged for p in self.pairs)


@dataclass(frozen=True)
class PredictionResult:
    """Predicted labels per row plus the pairwise vote tally."""

    labels: tuple
    votes: np.ndarray
    classes: tuple

    def __post_init__(self):
        if len(self.labels) != self.votes.shape[0]:
            raise InvariantViolation("one prediction per vote row required")
        if any(lab not in self.classes for lab in self.labels):
            raise InvariantViolation("predicted label outside class set")


def canonical_order(values, labels):
    """Row order independent of input permutation: by label, then by a
    content hash of the row bytes, then by original position."""
    digests = [hashlib.sha256(np.ascontiguousarray(values[i]).tobytes())
               .hexdigest() for i in range(values.shape[0])]
    return sorted(range(values.shape[0]),
                  key=lambda i: (labels[i], digests[i], i))


def svm_train(m, c=100.0, gamma=1.0, tol=1e-3, max_epochs=200):
    """Train a one-vs-one RBF SVM on the rows of ``m``.

    Parameters
    ----------
    m : FeatureMatrix
        Rows labeled by subject_ids; every class needs >= 2 rows.
    c, gamma : float
        Box constraint and kernel width.
    tol, max_epochs : SMO stopping controls
        tol bounds each pair's KKT violation; max_epochs * n caps the pair
        updates of a binary problem with n rows.

    Returns
    -------
    SvmModel
    """
    labels = list(m.subject_ids)
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise DegenerateClass("need >= 2 classes, got %d" % len(classes))
    for cls in classes:
        if labels.count(cls) < 2:
            raise DegenerateClass("class %r has < 2 rows" % cls)
    order = canonical_order(m.values, labels)
    x = np.ascontiguousarray(m.values[order])
    labs = [labels[i] for i in order]
    gram = rbf_gram(x, gamma)
    idx_by_class = {cls: np.array([i for i, lab in enumerate(labs)
                                   if lab == cls]) for cls in classes}
    pairs = []
    for pos, neg in itertools.combinations(classes, 2):
        idx = np.concatenate([idx_by_class[pos], idx_by_class[neg]])
        y = np.where(np.arange(idx.size) < idx_by_class[pos].size, 1.0, -1.0)
        sub = gram[np.ix_(idx, idx)]
        res = smo_solve(sub, y, c=c, tol=tol, max_epochs=max_epochs)
        keep = res.alpha > ALPHA_EPS
        pairs.append(PairModel(
            pos, neg, idx[keep], res.alpha[keep] * y[keep],
            res.bias, res.converged, res.kkt_violation))
    return SvmModel(classes, float(c), float(gamma), x, tuple(pairs))


def svm_decision_values(model, values):
    """Per-pair decision values f(x) for each row; columns follow
    model.pairs order. One kernel evaluation against the shared support
    matrix serves every pair."""
    k = rbf_kernel(values, model.sv_matrix, model.gamma)
    out = np.zeros((values.shape[0], len(model.pairs)))
    for col, pair in enumerate(model.pairs):
        out[:, col] = k[:, pair.sv_idx] @ pair.coef + pair.bias
    return out


def svm_predict(model, m):
    """Majority vote over pairwise decisions; ties go to the label that
    sorts first."""
    if m.dim != model.dim:
        raise DimensionMismatch(
            "matrix dim %d vs model dim %d" % (m.dim, model.dim))
    dec = svm_decision_values(model, m.values)
    votes = np.zeros((m.n_rows, len(model.classes)), dtype=int)
    col_of = {cls: i for i, cls in enumerate(model.classes)}
    for col, pair in enumerate(model.pairs):
        winners = np.where(dec[:, col] >= 0.0,
                           col_of[pair.label_pos], col_of[pair.label_neg])
        np.add.at(votes, (np.arange(m.n_rows), winners), 1)
    # np.argmax returns the first maximum, i.e. the ascending-order label
    pred = tuple(model.classes[i] for i in np.argmax(votes, axis=1))
    return PredictionResult(pred, votes, model.classes)


# ===== nearest neighbor ===================================================

def knn_predict(train, test, k=1):
    """Euclidean k-nearest-neighbor majority vote.

    Distance ties are broken by ascending train-row index; label ties by
    ascending label order.
    """
    if train.dim != test.dim:
        raise DimensionMismatch(
            "train dim %d vs test dim %d" % (train.dim, test.dim))
    if not 1 <= k <= train.n_rows:
        raise InvariantViolation("k must lie in [1, n_train]")
    classes = tuple(sorted(set(train.subject_ids)))
    col_of = {cls: i for i, cls in enumerate(classes)}
    train_cols = np.array([col_of[s] for s in train.subject_ids])
    # a stable sort keeps distance ties in ascending train-row order
    near = np.argsort(squared_distances(test.values, train.values), axis=1,
                      kind="stable")[:, :k]
    votes = np.zeros((test.n_rows, len(classes)), dtype=int)
    np.add.at(votes, (np.arange(test.n_rows)[:, None], train_cols[near]), 1)
    pred = tuple(classes[i] for i in np.argmax(votes, axis=1))
    return PredictionResult(pred, votes, classes)


def accuracy(pred, truth):
    """Fraction of exact label matches between a prediction and truth."""
    truth = tuple(truth)
    if len(pred.labels) != len(truth):
        raise LengthMismatch(
            "%d predictions vs %d truth labels" % (len(pred.labels), len(truth)))
    hits = sum(1 for a, b in zip(pred.labels, truth) if a == b)
    return hits / len(truth)
