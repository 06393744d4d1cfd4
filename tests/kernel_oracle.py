"""Reference RBF kernel and SVM decision values for ecgid.classify.

These are the one-expression forms of `squared_distances`, `rbf_kernel`
and `rbf_gram`: full-size row-norm temporaries, an out-of-place exponent,
and a Gram exponentiated whole and mirrored through `np.triu_indices`.
`svm_decision_values` makes the whole test x train kernel and gathers
each pair's support columns from it. The library computes the same
expressions in place, in blocks of rows and only where they are read, and
must give identical arrays.
"""

import numpy as np


def squared_distances(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] \
        - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def rbf_kernel(a, b, gamma):
    return np.exp(-gamma * squared_distances(a, b))


def rbf_gram(x, gamma):
    k = rbf_kernel(x, x, gamma)
    iu = np.triu_indices(k.shape[0], 1)
    k[(iu[1], iu[0])] = k[iu]
    np.fill_diagonal(k, 1.0)
    return k


def svm_decision_values(model, values):
    k = rbf_kernel(values, model.sv_matrix, model.gamma)
    out = np.zeros((values.shape[0], len(model.pairs)))
    for col, pair in enumerate(model.pairs):
        out[:, col] = k[:, pair.sv_idx] @ pair.coef + pair.bias
    return out
