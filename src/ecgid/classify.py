"""Multi-class classifiers over feature matrices.

A one-vs-one RBF-kernel SVM trained by sequential minimal optimization,
a k-nearest-neighbor baseline, and accuracy scoring. The SMO solver works
on a precomputed Gram matrix so binary subproblems share one kernel
evaluation; rows are put into a canonical order before training so that
permuting the input rows cannot change the fitted model.
"""

import hashlib
import itertools
import numbers
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
BLOCK_ROWS = 256  # rows per block of the kernel's norm and exp steps
MAX_EPOCHS = 200  # SMO makes at most MAX_EPOCHS * n pair updates on n rows
EXP_UNDERFLOW = 746.0  # exp(-x) is 0.0 for x > 1075 ln 2 = 745.13


# ===== kernel =============================================================

def _row_norms(a):
    """(a * a).sum(axis=1), one block of rows at a time: the same sums
    without a full-size squared copy of a."""
    out = np.empty(a.shape[0])
    for r in range(0, a.shape[0], BLOCK_ROWS):
        blk = a[r:r + BLOCK_ROWS]
        out[r:r + BLOCK_ROWS] = (blk * blk).sum(axis=1)
    return out


def _kernel_underflows(values, sv, used, na, nb, gamma):
    """Whether exp(-gamma d2), as _rbf_in_place makes it, is 0.0 for all
    rows of values and sv[used]: d2 >= na + nb - 2 a.b, a and b the norms
    of 1, then 64, column blocks. Each bound and d2 lie within (2 dim + 72)
    u (na + nb) of exact, u = eps/2: the slack 4 (dim + 64) eps covers both."""
    slack = 4 * (values.shape[1] + 64) * np.finfo(float).eps
    x, y = np.sqrt(na), np.sort(np.append(np.sqrt(nb), (-np.inf, np.inf)))
    k = np.searchsorted(y, x).clip(1, len(y) - 1)  # y[k - 1] < x <= y[k]
    near = np.minimum(x - y[k - 1], y[k] - x)
    lo = gamma * (near * near - slack * (na + nb.max(initial=0.0)))
    rest = np.flatnonzero(~(lo > EXP_UNDERFLOW))  # NaN proves nothing
    if rest.size in (0, len(values)):  # every row proven, or none
        return rest.size < len(values)
    edges = np.arange(0, values.shape[1], -(-values.shape[1] // 64))
    a, b = (np.sqrt(np.vstack([  # as _row_norms: BLOCK_ROWS rows at a time
        np.add.reduceat(np.square(m[r:r + BLOCK_ROWS]), edges, axis=1)
        for r in range(0, len(m), BLOCK_ROWS)])) for m in (values, sv))
    lo = (na[rest, None] + nb) * (1.0 - slack)
    lo -= 2.0 * (a[rest] @ b[used].T)
    return bool(np.all(gamma * lo > EXP_UNDERFLOW))


def _distances_in_place(ab, na, nb, scratch):
    """Squared distances max(na_i + nb_j - 2 ab_ij, 0) into ab, the dot
    products of rows with squared norms na and nb; kNN and every kernel
    step form them here. scratch, of ab's shape, is overwritten."""
    ab *= 2.0
    np.subtract(np.add(na[:, None], nb, out=scratch), ab, out=ab)
    np.maximum(ab, 0.0, out=ab)


def squared_distances(a, b):
    """Pairwise squared Euclidean distances, clipped at zero."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d2 = a @ b.T
    _distances_in_place(d2, _row_norms(a), _row_norms(b), np.empty_like(d2))
    return d2


def _rbf_in_place(ab, na, nb, gamma, scratch):
    """exp(-gamma * d2) into ab, d2 as _distances_in_place forms it."""
    _distances_in_place(ab, na, nb, scratch)
    ab *= -gamma
    np.exp(ab, out=ab)


def rbf_gram(x, gamma):
    """Symmetric train Gram: K[i,j] == K[j,i] and K[i,i] == 1 exactly.

    Every row of x @ x.T becomes kernel values, a block of rows at a time:
    numpy's x @ x.T of a C-ordered x is symmetric bit for bit, as is the
    kernel step (na_i + nb_j and nb_j + na_i round alike).
    """
    x = np.ascontiguousarray(x, float)
    norms = _row_norms(x)  # first: for wide rows its temporary outweighs k
    k = x @ x.T
    scratch = np.empty((min(len(k), BLOCK_ROWS), len(k)))
    for r in range(0, len(k), BLOCK_ROWS):
        blk = k[r:r + BLOCK_ROWS]
        _rbf_in_place(blk, norms[r:r + BLOCK_ROWS], norms, gamma,
                      scratch[:len(blk)])
    np.fill_diagonal(k, 1.0)
    return k


# ===== SMO ================================================================

@dataclass(frozen=True)
class SmoResult:
    alpha: np.ndarray
    bias: float
    converged: bool
    epochs_run: int
    kkt_violation: float


def _kkt_violation(alpha, y, err, c):
    """Largest KKT residual: r = y*E must obey the sign of alpha's bound."""
    r = y * err
    v = np.zeros_like(r)
    free = (alpha > ALPHA_EPS) & (alpha < c - ALPHA_EPS)
    v[free] = np.abs(r[free])
    at_zero = alpha <= ALPHA_EPS
    v[at_zero] = np.maximum(0.0, -r[at_zero])
    at_c = alpha >= c - ALPHA_EPS
    v[at_c] = np.maximum(0.0, r[at_c])
    return float(np.max(v))


def smo_solve(gram, y, c=100.0, tol=1e-3):
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
        Stop once max g over I_up minus min g over I_low falls below tol,
        or after MAX_EPOCHS * n pair updates.

    Returns
    -------
    SmoResult
        alpha in [0, c]^n; the bias (mean g over free support vectors, or
        the midpoint of the optimality interval when none is free);
        convergence flag (final KKT violation <= tol); updates run in units
        of n, rounded up; and the final KKT violation.
    """
    y = np.asarray(y, float)
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise InvariantViolation("labels must be +-1, with both present")
    return _smo_batch(gram, [np.arange(y.size)], [y], c, tol)[0]


def _smo_batch(gram, idx, y, c, tol):
    """smo_solve for many binary problems over one Gram matrix.

    Problem p trains on the rows idx[p] of gram with labels y[p]. The
    problems advance in lockstep, one pair update each per iteration, and
    each leaves the batch once its own stop test holds. The state is kept
    as (problems x widest problem) arrays whose padding slots belong to
    neither I_up nor I_low; every per-problem operation is elementwise and
    in the order of the one-problem algorithm, so each result equals a
    separate solve on that problem's sub-Gram exactly.
    """
    sizes = np.array([v.size for v in y])
    rows_idx = np.zeros((sizes.size, sizes.max()), dtype=int)
    ys = np.zeros(rows_idx.shape)
    for p, (ix, v) in enumerate(zip(idx, y)):
        rows_idx[p, :ix.size] = ix
        ys[p, :v.size] = v
    diag = np.diag(gram)[rows_idx]
    pos = ys > 0
    alpha = np.zeros(ys.shape)
    g = ys.copy()  # y - K(alpha*y) at alpha = 0
    up = pos.copy()  # I_up: y*alpha may grow
    low = ys < 0  # I_low: y*alpha may shrink
    live = np.arange(sizes.size)  # problem number of each state row
    results = [None] * sizes.size
    updates = 0
    while live.size:
        g_up = np.where(up, g, -np.inf)
        i = np.argmax(g_up, axis=1)
        g_low = np.where(low, g, np.inf)
        m_up, m_low = g_up[np.arange(live.size), i], np.min(g_low, axis=1)
        del g_up
        # m_up <= m_low is the exact optimum; it also stops a tol <= 0 run
        done = ((m_up - m_low < tol) | (m_up <= m_low)
                | (updates == MAX_EPOCHS * sizes[live]))
        if done.any():
            for r in np.flatnonzero(done):
                p = live[r]
                n = int(sizes[p])
                a_r, y_r, g_r = alpha[r, :n].copy(), ys[r, :n], g[r, :n]
                free = (a_r > ALPHA_EPS) & (a_r < c - ALPHA_EPS)
                bias = (float(np.mean(g_r[free])) if free.any()
                        else float(0.5 * (m_up[r] + m_low[r])))
                kkt = _kkt_violation(a_r, y_r, bias - g_r, c)
                results[p] = SmoResult(a_r, bias, kkt <= tol,
                                       -(-updates // n), kkt)
            keep = ~done
            n_live = np.count_nonzero(keep)
            state = (live, rows_idx, ys, diag, pos, alpha, g, up, low, i,
                     g_low, m_up)
            for v in state:  # compact in place: no second copy of the state
                v[:n_live] = v[keep]
            (live, rows_idx, ys, diag, pos, alpha, g, up, low, i, g_low,
             m_up) = (v[:n_live] for v in state)
        rows = np.arange(live.size)
        b = m_up[:, None] - g_low
        del g_low
        k_i = gram[rows_idx[rows, i][:, None], rows_idx]
        a = diag[rows, i][:, None] + diag
        a -= 2.0 * k_i
        np.maximum(a, TAU, out=a)
        gain = b * b
        gain /= a
        gain[~(b > 0.0)] = -np.inf
        j = np.argmax(gain, axis=1)
        del gain
        # step t along alpha_i += y_i t, alpha_j -= y_j t, clipped to the box
        pos_i, pos_j = pos[rows, i], pos[rows, j]
        alpha_i, alpha_j = alpha[rows, i], alpha[rows, j]
        room_i = np.where(pos_i, c - alpha_i, alpha_i)
        room_j = np.where(pos_j, alpha_j, c - alpha_j)
        t = np.minimum(np.minimum(b[rows, j] / a[rows, j], room_i), room_j)
        alpha_i = alpha_i + ys[rows, i] * t
        alpha_j = alpha_j - ys[rows, j] * t
        # land exactly on the bound
        alpha_i = np.where(t == room_i, np.where(pos_i, c, 0.0), alpha_i)
        alpha_j = np.where(t == room_j, np.where(pos_j, 0.0, c), alpha_j)
        alpha[rows, i], alpha[rows, j] = alpha_i, alpha_j
        k_i -= gram[rows_idx[rows, j][:, None], rows_idx]
        k_i *= t[:, None]
        g -= k_i
        # free this update's (problems x width) temporaries before the next
        del b, k_i, a
        for k, pos_k, alpha_k in ((i, pos_i, alpha_i), (j, pos_j, alpha_j)):
            up[rows, k] = np.where(pos_k, alpha_k < c, alpha_k > 0.0)
            low[rows, k] = np.where(pos_k, alpha_k > 0.0, alpha_k < c)
        updates += 1
    return results


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


def svm_train(m, c=100.0, gamma=1.0, tol=1e-3):
    """Train a one-vs-one RBF SVM on the rows of ``m``.

    Parameters
    ----------
    m : FeatureMatrix
        Rows labeled by subject_ids; every class needs >= 2 rows.
    c, gamma : float
        Box constraint and kernel width.
    tol : float
        Bounds each pair's KKT violation; MAX_EPOCHS * n caps the pair
        updates of a binary problem with n rows. All binary problems are
        solved together in one batched SMO loop over the model's Gram
        matrix; each result equals smo_solve on that pair's sub-Gram.

    Returns
    -------
    SvmModel
    """
    for name, value in (("c", c), ("gamma", gamma)):
        if not (isinstance(value, numbers.Real) and 0 < value < np.inf):
            raise InvariantViolation("%s must be finite and > 0" % name)
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
    class_pairs = list(itertools.combinations(classes, 2))
    idx = [np.concatenate([idx_by_class[pos], idx_by_class[neg]])
           for pos, neg in class_pairs]
    ys = [np.where(np.arange(ix.size) < idx_by_class[pos].size, 1.0, -1.0)
          for ix, (pos, _) in zip(idx, class_pairs)]
    results = _smo_batch(gram, idx, ys, c, tol)
    pairs = []
    for (pos, neg), ix, y, res in zip(class_pairs, idx, ys, results):
        keep = res.alpha > ALPHA_EPS
        pairs.append(PairModel(
            pos, neg, ix[keep], res.alpha[keep] * y[keep],
            res.bias, res.converged, res.kkt_violation))
    return SvmModel(classes, float(c), float(gamma), x, tuple(pairs))


def svm_decision_values(model, values):
    """Per-pair decision values f(x) for each row; columns follow
    model.pairs order. Kernel values are made only against rows that are
    some pair's support vector, one such row per line of kt. For the bits
    of a whole-kernel evaluation, the product stays whole and each pair
    reads its lines of kt as a column-major array, as a column gather of
    that kernel gives."""
    values = np.asarray(values, float)
    used = np.unique(np.concatenate([p.sv_idx for p in model.pairs]))
    na, nb = _row_norms(values), _row_norms(model.sv_matrix)[used]
    if _kernel_underflows(values, model.sv_matrix, used, na, nb, model.gamma):
        return np.tile([p.bias for p in model.pairs], (len(values), 1))
    ab = values @ model.sv_matrix.T
    kt = np.empty((used.size, len(values)))
    for r in range(0, len(values), BLOCK_ROWS):
        rows = slice(r, r + BLOCK_ROWS)
        blk = ab[rows][:, used]  # kt[:, rows] is scratch
        _rbf_in_place(blk, na[rows], nb, model.gamma, kt[:, rows].T)
        kt[:, rows], blk = blk.T, None  # one gathered block at a time
    ab = None  # free the product before the pairs gather from kt
    out = np.empty((len(values), len(model.pairs)))
    for col, pair in enumerate(model.pairs):
        out[:, col] = (kt[np.searchsorted(used, pair.sv_idx)].T @ pair.coef
                       + pair.bias)
    return out


def svm_predict(model, m):
    """Majority vote over pairwise decisions; ties go to the label that
    sorts first."""
    if m.dim != model.dim:
        raise DimensionMismatch(
            "matrix dim %d vs model dim %d" % (m.dim, model.dim))
    dec = svm_decision_values(model, m.values)
    col_of = {cls: i for i, cls in enumerate(model.classes)}
    pos, neg = np.array([(col_of[p.label_pos], col_of[p.label_neg])
                         for p in model.pairs]).T
    return _vote(np.where(dec >= 0.0, pos, neg), model.classes)


def _vote(winners, classes):
    """Votes and most-voted label per row of winning class columns."""
    n, k = winners.shape[0], len(classes)
    votes = np.bincount((np.arange(n)[:, None] * k + winners).ravel(),
                        minlength=n * k).reshape(n, k)
    # np.argmax returns the first maximum, i.e. the ascending-order label
    pred = tuple(classes[i] for i in np.argmax(votes, axis=1))
    return PredictionResult(pred, votes, classes)


# ===== nearest neighbor ===================================================

def knn_predict(train, test, k=1):
    """Euclidean k-nearest-neighbor majority vote.

    Distance ties are broken by ascending train-row index; label ties by
    ascending label order.
    """
    if train.dim != test.dim:
        raise DimensionMismatch(
            "train dim %d vs test dim %d" % (train.dim, test.dim))
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= train.n_rows):
        raise InvariantViolation("k must be an integer in [1, n_train]")
    classes = tuple(sorted(set(train.subject_ids)))
    col_of = {cls: i for i, cls in enumerate(classes)}
    train_cols = np.array([col_of[s] for s in train.subject_ids])
    # a stable sort keeps distance ties in ascending train-row order
    near = np.argsort(squared_distances(test.values, train.values), axis=1,
                      kind="stable")[:, :k]
    return _vote(train_cols[near], classes)


def accuracy(pred, truth):
    """Fraction of exact label matches between a prediction and truth."""
    truth = tuple(truth)
    if len(pred.labels) != len(truth):
        raise LengthMismatch(
            "%d predictions vs %d truth labels" % (len(pred.labels), len(truth)))
    if not truth:
        raise InvariantViolation("accuracy of an empty prediction is undefined")
    return sum(a == b for a, b in zip(pred.labels, truth)) / len(truth)
