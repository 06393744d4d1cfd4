"""Tests for the SMO-trained one-vs-one SVM and the kNN baseline."""

import kernel_oracle
import numpy as np
import pytest

from ecgid.errors import (
    DegenerateClass,
    DimensionMismatch,
    InvariantViolation,
    LengthMismatch,
)
from ecgid.features import FeatureMatrix
from ecgid.classify import (
    ALPHA_EPS,
    PredictionResult,
    accuracy,
    knn_predict,
    rbf_gram,
    rbf_kernel,
    _smo_batch,
    smo_solve,
    squared_distances,
    svm_decision_values,
    svm_predict,
    svm_train,
)


def toy_matrix(values, labels, layout="toy"):
    values = np.asarray(values, float)
    conds = tuple("rest" for _ in labels)
    return FeatureMatrix(values, tuple(labels), conds, layout)


def separable_matrix(n_per=10):
    x = np.concatenate([np.full(n_per, -1.0), np.full(n_per, 1.0)])
    # tiny deterministic spread so rows are distinct
    x = x + np.linspace(0, 0.01, 2 * n_per)
    labels = ["a"] * n_per + ["b"] * n_per
    return toy_matrix(x[:, None], labels)


def xor_matrix(n_per=10, spread=0.1, seed=0):
    rng = np.random.default_rng(seed)
    centers = [(1, 1), (-1, -1), (1, -1), (-1, 1)]
    labels_per = ["a", "a", "b", "b"]
    vals, labels = [], []
    for (cx, cy), lab in zip(centers, labels_per):
        vals.append(rng.normal((cx, cy), spread, size=(n_per, 2)))
        labels += [lab] * n_per
    return toy_matrix(np.vstack(vals), labels)


# ===== kernel =============================================================

def test_kernel_matches_direct_formula():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(4, 3))
    k = rbf_kernel(a, b, gamma=0.7)
    for i in range(5):
        for j in range(4):
            expect = np.exp(-0.7 * np.sum((a[i] - b[j]) ** 2))
            assert abs(k[i, j] - expect) < 1e-12


def test_gram_symmetric_and_unit_diagonal():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 6))
    k = rbf_gram(x, gamma=1.0)
    assert np.array_equal(k, k.T)
    assert np.array_equal(np.diag(k), np.ones(20))


def test_squared_distances_non_negative():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 4)) * 1e-6
    d2 = squared_distances(x, x)
    assert np.all(d2 >= 0.0)



# row counts at and around the kernel's 256-row blocks
BLOCK_EDGE_ROWS = [1, 255, 256, 257, 513]


@pytest.mark.parametrize("width", [1, 30, 10252])
def test_kernel_is_bit_identical_to_reference(width):
    rng = np.random.default_rng(width)
    x = rng.normal(size=(513, width))
    x[7] = x[3]  # a duplicate row: its distance is clipped at zero
    for n, m in zip(BLOCK_EDGE_ROWS, BLOCK_EDGE_ROWS[1:] + BLOCK_EDGE_ROWS[:1]):
        a, b = x[:n], x[-m:]
        assert np.array_equal(squared_distances(a, b),
                              kernel_oracle.squared_distances(a, b))
        for gamma in (1.0, 1.0 / width):
            assert np.array_equal(rbf_kernel(a, b, gamma),
                                  kernel_oracle.rbf_kernel(a, b, gamma))
            assert np.array_equal(rbf_gram(a, gamma),
                                  kernel_oracle.rbf_gram(a, gamma))

# ===== SMO ================================================================

def test_smo_separable_converges_and_separates():
    m = separable_matrix()
    y = np.where(np.array(m.subject_ids) == "a", 1.0, -1.0)
    gram = rbf_gram(m.values, 1.0)
    res = smo_solve(gram, y, c=100.0, tol=1e-3, max_epochs=200)
    assert res.converged
    assert res.kkt_violation <= 1e-3
    f = (res.alpha * y) @ gram + res.bias
    assert np.all(np.sign(f) == y)


def test_smo_alpha_within_box():
    m = xor_matrix()
    y = np.where(np.array(m.subject_ids) == "a", 1.0, -1.0)
    res = smo_solve(rbf_gram(m.values, 1.0), y, c=5.0)
    assert np.all(res.alpha >= 0.0)
    assert np.all(res.alpha <= 5.0)


def test_smo_objective_non_decreasing():
    # the dual objective sum(alpha) - (alpha*y)' K (alpha*y) / 2 never falls
    # as the update budget grows one epoch at a time; overlapping classes
    # take several epochs to converge
    m = xor_matrix(spread=0.8, seed=3)
    y = np.where(np.array(m.subject_ids) == "a", 1.0, -1.0)
    gram = rbf_gram(m.values, 1.0)
    epochs = smo_solve(gram, y).epochs_run
    dual = []
    for max_epochs in range(1, epochs + 2):
        ay = smo_solve(gram, y, max_epochs=max_epochs).alpha * y
        dual.append(np.sum(np.abs(ay)) - 0.5 * ay @ gram @ ay)
    assert epochs >= 3
    assert np.all(np.diff(dual) >= -1e-8)
    assert dual[0] < dual[-1]


def test_smo_rbf_solves_xor_where_linear_fails():
    m = xor_matrix()
    y = np.where(np.array(m.subject_ids) == "a", 1.0, -1.0)

    rbf = smo_solve(rbf_gram(m.values, 1.0), y)
    f_rbf = (rbf.alpha * y) @ rbf_gram(m.values, 1.0) + rbf.bias
    assert rbf.converged
    assert np.mean(np.sign(f_rbf) == y) == 1.0

    linear = m.values @ m.values.T
    lin = smo_solve(linear, y)
    f_lin = (lin.alpha * y) @ linear + lin.bias
    assert np.mean(np.sign(f_lin) == y) <= 0.75


def test_smo_rejects_bad_labels():
    with pytest.raises(InvariantViolation):
        smo_solve(np.eye(3), np.array([1.0, 0.0, -1.0]))
    with pytest.raises(InvariantViolation):
        smo_solve(np.eye(3), np.ones(3))  # one class: the bias is undefined


def test_smo_unconverged_is_flagged_not_raised():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 2))  # fully overlapping classes
    y = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
    res = smo_solve(rbf_gram(x, 1.0), y, c=100.0, max_epochs=1)
    assert not res.converged
    assert res.kkt_violation > 1e-3
    assert res.epochs_run <= 1  # max_epochs * n pair updates at most


# ===== one-vs-one SVM =====================================================

def test_svm_separable_training_accuracy_100():
    m = separable_matrix()
    model = svm_train(m)
    pred = svm_predict(model, m)
    assert accuracy(pred, m.subject_ids) == 1.0
    assert model.all_converged
    for pair in model.pairs:
        assert pair.kkt_violation <= 1e-3


def test_svm_xor_training_accuracy_100():
    m = xor_matrix()
    model = svm_train(m, gamma=1.0)
    assert accuracy(svm_predict(model, m), m.subject_ids) == 1.0
    assert model.all_converged


def test_svm_probe_equal_to_train_row():
    m = xor_matrix()
    model = svm_train(m)
    probe = toy_matrix(m.values[[0]], [m.subject_ids[0]])
    assert svm_predict(model, probe).labels == (m.subject_ids[0],)


def test_svm_votes_sum_to_pair_count():
    rng = np.random.default_rng(7)
    vals = np.vstack([rng.normal(c, 0.2, size=(8, 2))
                      for c in ((0, 0), (4, 0), (0, 4), (4, 4))])
    labels = sum(([lab] * 8 for lab in "abcd"), [])
    m = toy_matrix(vals, labels)
    model = svm_train(m)
    pred = svm_predict(model, m)
    assert np.all(pred.votes.sum(axis=1) == 6)  # C(4,2)
    assert accuracy(pred, labels) == 1.0


def test_svm_duplicate_rows_leave_decision_unchanged():
    # the shared optimum is only pinned down to the KKT tolerance, so both
    # trainings run well below the comparison tolerance
    m = xor_matrix(n_per=6)
    doubled = toy_matrix(np.vstack([m.values, m.values]),
                         list(m.subject_ids) * 2)
    a = svm_train(m, tol=1e-8)
    b = svm_train(doubled, tol=1e-8)
    rng = np.random.default_rng(8)
    probe = rng.uniform(-2, 2, size=(25, 2))
    da = svm_decision_values(a, probe)
    db = svm_decision_values(b, probe)
    assert np.max(np.abs(da - db)) < 1e-6


def test_svm_row_permutation_changes_nothing():
    m = xor_matrix(n_per=6, seed=9)
    rng = np.random.default_rng(10)
    perm = rng.permutation(m.n_rows)
    m2 = toy_matrix(m.values[perm], [m.subject_ids[i] for i in perm])
    a = svm_train(m)
    b = svm_train(m2)
    probe = toy_matrix(rng.uniform(-2, 2, size=(25, 2)), ["a"] * 25)
    pa = svm_predict(a, probe)
    pb = svm_predict(b, probe)
    assert pa.labels == pb.labels
    assert np.array_equal(pa.votes, pb.votes)
    assert np.array_equal(svm_decision_values(a, probe.values),
                          svm_decision_values(b, probe.values))


def test_svm_degenerate_class_errors():
    with pytest.raises(DegenerateClass):
        svm_train(toy_matrix(np.zeros((4, 1)) + np.arange(4)[:, None],
                             ["a", "a", "a", "a"]))
    with pytest.raises(DegenerateClass):
        svm_train(toy_matrix(np.arange(3)[:, None], ["a", "a", "b"]))


def test_svm_pairs_equal_one_problem_solves():
    # unequal class sizes, so the batched state has padding slots and the
    # pairs stop after different numbers of updates
    rng = np.random.default_rng(12)
    sizes = {"a": 3, "b": 5, "c": 8, "d": 4}
    vals = np.vstack([rng.normal(0.0, 1.0, size=(n, 2))
                      for n in sizes.values()])
    labels = sum(([lab] * n for lab, n in sizes.items()), [])
    m = toy_matrix(vals, labels)
    unconverged = 0
    for max_epochs in (200, 1):
        model = svm_train(m, c=10.0, max_epochs=max_epochs)
        gram = rbf_gram(model.sv_matrix, 1.0)
        rows = {lab: np.flatnonzero(np.array(sorted(labels)) == lab)
                for lab in sizes}
        idx, ys, solo = [], [], []
        for pair in model.pairs:
            ix = np.concatenate([rows[pair.label_pos], rows[pair.label_neg]])
            y = np.where(np.arange(ix.size) < rows[pair.label_pos].size,
                         1.0, -1.0)
            res = smo_solve(gram[np.ix_(ix, ix)], y, c=10.0,
                            max_epochs=max_epochs)
            keep = res.alpha > ALPHA_EPS
            assert np.array_equal(pair.sv_idx, ix[keep])
            assert np.array_equal(pair.coef, res.alpha[keep] * y[keep])
            assert pair.bias == res.bias
            assert pair.converged == res.converged
            assert pair.kkt_violation == res.kkt_violation
            unconverged += not res.converged
            idx.append(ix)
            ys.append(y)
            solo.append(res)
        batch = _smo_batch(gram, idx, ys, 10.0, 1e-3, max_epochs)
        for got, want in zip(batch, solo):
            assert np.array_equal(got.alpha, want.alpha)
            assert got.bias == want.bias
            assert got.converged == want.converged
            assert got.epochs_run == want.epochs_run
            assert got.kkt_violation == want.kkt_violation
    assert unconverged > 0  # the max_epochs=1 budget stops some pairs


def test_svm_predict_dimension_mismatch():
    m = separable_matrix()
    model = svm_train(m)
    with pytest.raises(DimensionMismatch):
        svm_predict(model, toy_matrix(np.zeros((2, 3)), ["a", "b"]))


def test_prediction_result_invariants():
    with pytest.raises(InvariantViolation):
        PredictionResult(("a",), np.zeros((2, 2), dtype=int), ("a", "b"))
    with pytest.raises(InvariantViolation):
        PredictionResult(("z",), np.zeros((1, 2), dtype=int), ("a", "b"))


# ===== kNN ================================================================

def test_knn_exact_match_wins():
    train = toy_matrix([[0.0, 0.0], [5.0, 5.0], [0.1, 0.1], [5.1, 5.1]],
                       ["a", "b", "a", "b"])
    test = toy_matrix([[5.0, 5.0]], ["b"])
    assert knn_predict(train, test, k=1).labels == ("b",)


def test_knn_k_all_rows_gives_majority():
    train = toy_matrix([[0.0], [0.1], [0.2], [10.0], [10.1]],
                       ["a", "a", "a", "b", "b"])
    test = toy_matrix([[9.9], [0.05]], ["b", "a"])
    pred = knn_predict(train, test, k=5)
    assert pred.labels == ("a", "a")


def test_knn_distance_tie_broken_by_train_index():
    train = toy_matrix([[1.0, 0.0], [0.0, 1.0]], ["b", "a"])
    test = toy_matrix([[0.0, 0.0]], ["a"])
    assert knn_predict(train, test, k=1).labels == ("b",)


def test_knn_tie_at_kth_distance_keeps_nearer_rows():
    # row 3 is nearest; rows 0-2 tie at the 2nd distance and row 0 wins it
    train = toy_matrix([[1.0], [-1.0], [1.0], [0.5]], ["b", "a", "a", "c"])
    pred = knn_predict(train, toy_matrix([[0.0]], ["a"]), k=2)
    assert pred.labels == ("b",)
    assert pred.votes.tolist() == [[0, 1, 1]]


def test_knn_matches_brute_force_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        train_vals = rng.normal(size=(20, 3))
        labels = [rng.choice(["a", "b", "c"]) for _ in range(20)]
        test_vals = rng.normal(size=(12, 3))
        train = toy_matrix(train_vals, labels)
        test = toy_matrix(test_vals, ["a"] * 12)
        for k in (1, 3, 7):
            pred = knn_predict(train, test, k=k)
            expected = []
            for t in test_vals:
                d2 = [(float(np.sum((t - tr) ** 2)), i)
                      for i, tr in enumerate(train_vals)]
                d2.sort()
                near = [labels[i] for _, i in d2[:k]]
                counts = sorted(set(near),
                                key=lambda lab: (-near.count(lab), lab))
                expected.append(counts[0])
            assert list(pred.labels) == expected


def test_knn_validates_inputs():
    train = toy_matrix([[0.0], [1.0]], ["a", "b"])
    with pytest.raises(DimensionMismatch):
        knn_predict(train, toy_matrix([[0.0, 1.0]], ["a"]))
    with pytest.raises(InvariantViolation):
        knn_predict(train, toy_matrix([[0.0]], ["a"]), k=3)


# ===== accuracy ===========================================================

def test_accuracy_counting():
    pred = PredictionResult(("a", "b", "a", "b", "a", "a", "b", "a", "b", "a"),
                            np.zeros((10, 1), dtype=int), ("a", "b"))
    truth = ["a", "b", "a", "b", "a", "a", "b", "b", "a", "b"]
    assert accuracy(pred, truth) == 0.7
    assert accuracy(pred, pred.labels) == 1.0
    flipped = ["b" if t == "a" else "a" for t in pred.labels]
    assert accuracy(pred, flipped) == 0.0
    with pytest.raises(LengthMismatch):
        accuracy(pred, truth[:5])
    empty = PredictionResult((), np.zeros((0, 2), dtype=int), ("a", "b"))
    with pytest.raises(InvariantViolation, match="empty prediction"):
        accuracy(empty, ())
