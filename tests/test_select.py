"""Tests for PCA and KL-divergence feature selection."""

import numpy as np
import pytest

from ecgid.errors import (
    DimensionMismatch,
    InvariantViolation,
    MissingCondition,
    TooFewRows,
    TooFewSubjects,
)
from ecgid.features import FeatureMatrix
from ecgid.select import (
    PcaModel,
    SelectionWeights,
    apply_selection,
    kl_sym,
    pca_fit,
    pca_transform,
    rank_descending,
    save_selection_weights,
    select_features,
)


def toy_matrix(values, sids, conds, layout="toy"):
    values = np.asarray(values, float)
    return FeatureMatrix(values, tuple(sids), tuple(conds), layout)


def make_aux(n_subjects=4, rows_per=30, n_features=3, seed=0,
             subject_shift=0.0, condition_shift=0.0, noise=1.0):
    """Auxiliary cohort where feature 0 separates subjects, feature 1
    drifts with condition, feature 2 is noise."""
    rng = np.random.default_rng(seed)
    vals, sids, conds = [], [], []
    for s in range(n_subjects):
        for cond in ("rest", "post_exercise"):
            block = rng.normal(0.0, noise, size=(rows_per, n_features))
            block[:, 0] += subject_shift * s
            if cond == "post_exercise":
                block[:, 1] += condition_shift
            vals.append(block)
            sids += ["s%02d" % s] * rows_per
            conds += [cond] * rows_per
    return toy_matrix(np.vstack(vals), sids, conds)


# ===== kl_sym =============================================================

def test_kl_sym_identical_gaussians_is_zero():
    assert kl_sym(0.7, 1.3, 0.7, 1.3) == 0.0


def test_kl_sym_unit_mean_shift():
    # equal unit sigmas, means 0 and 1: (1+1)/2 + (1+1)/2 - 1 = 1
    assert kl_sym(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_kl_sym_sigma_ratio_two():
    # equal means, sigmas 1 and 2: 1/8 + 4/2 - 1 = 1.125
    assert kl_sym(0.0, 1.0, 0.0, 2.0) == pytest.approx(1.125, abs=1e-15)


def test_kl_sym_exactly_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m1, m2 = rng.normal(size=2)
        s1, s2 = rng.uniform(0.1, 3.0, size=2)
        assert kl_sym(m1, s1, m2, s2) == kl_sym(m2, s2, m1, s1)


def test_kl_sym_floors_tiny_sigma():
    assert kl_sym(0.0, 0.0, 0.0, 1.0) == kl_sym(0.0, 1e-6, 0.0, 1.0)
    assert np.isfinite(kl_sym(0.0, 0.0, 1.0, 0.0))


def test_kl_sym_nonnegative_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m1, m2 = rng.normal(scale=3.0, size=2)
        s1, s2 = rng.uniform(1e-8, 5.0, size=2)
        assert kl_sym(m1, s1, m2, s2) >= -1e-12


def test_kl_sym_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    m1, m2 = rng.normal(size=(2, 7))
    s1, s2 = rng.uniform(0.2, 2.0, size=(2, 7))
    vec = kl_sym(m1, s1, m2, s2)
    for i in range(7):
        assert vec[i] == kl_sym(m1[i], s1[i], m2[i], s2[i])


# ===== weights ============================================================

def test_weight_identity_exact():
    aux = make_aux(subject_shift=3.0, condition_shift=2.0, seed=1)
    for lam in (0.0, 0.3, 0.5, 1.0):
        sw = select_features(aux, lam, top_n=2)
        expect = lam * sw.w1 - (1.0 - lam) * sw.w2
        assert np.array_equal(sw.w, expect)


def test_hand_toy_selects_stable_separating_feature():
    aux = make_aux(n_subjects=3, subject_shift=6.0, condition_shift=6.0,
                   noise=0.3, seed=4)
    sw = select_features(aux, 0.3, top_n=1)
    # feature 0 separates subjects and ignores condition
    assert sw.selected == (0,)
    assert sw.w1[0] > sw.w1[1] and sw.w1[0] > sw.w1[2]
    assert sw.w2[1] > sw.w2[0] and sw.w2[1] > sw.w2[2]
    assert sw.w[1] < sw.w[2] < sw.w[0]


def test_lambda_one_ranks_by_w1():
    aux = make_aux(subject_shift=2.0, condition_shift=1.0, seed=6)
    sw = select_features(aux, 1.0, top_n=3)
    assert np.array_equal(rank_descending(sw.w), rank_descending(sw.w1))


def test_lambda_zero_ranks_by_ascending_w2():
    aux = make_aux(subject_shift=2.0, condition_shift=1.0, seed=7)
    sw = select_features(aux, 0.0, top_n=3)
    by_w2 = np.lexsort((np.arange(aux.dim), sw.w2))
    assert np.array_equal(rank_descending(sw.w), by_w2)


def test_ranking_affine_invariant():
    aux = make_aux(subject_shift=4.0, condition_shift=3.0, seed=8)
    sw = select_features(aux, 0.3, top_n=2)
    scaled = aux.values.copy()
    scaled[:, 0] = 5.0 * scaled[:, 0] - 11.0
    scaled[:, 2] = 0.25 * scaled[:, 2] + 3.0
    aux2 = toy_matrix(scaled, aux.subject_ids, aux.conditions)
    sw2 = select_features(aux2, 0.3, top_n=2)
    assert np.array_equal(rank_descending(sw.w), rank_descending(sw2.w))
    assert np.allclose(sw.w, sw2.w, rtol=1e-9, atol=1e-12)


def test_row_permutation_keeps_ranking():
    aux = make_aux(subject_shift=4.0, condition_shift=3.0, seed=9)
    rng = np.random.default_rng(0)
    perm = rng.permutation(aux.n_rows)
    aux2 = toy_matrix(aux.values[perm],
                      [aux.subject_ids[i] for i in perm],
                      [aux.conditions[i] for i in perm])
    sw = select_features(aux, 0.3, top_n=2)
    sw2 = select_features(aux2, 0.3, top_n=2)
    assert np.allclose(sw.w, sw2.w, rtol=1e-12, atol=1e-12)
    assert sw.selected == sw2.selected


def test_rank_descending_ties_ascending_index():
    ranked = rank_descending(np.array([1.0, 2.0, 2.0, 0.5]))
    assert list(ranked) == [1, 2, 0, 3]


def test_missing_condition_raises():
    aux = make_aux(seed=11)
    keep = [i for i, (s, c) in
            enumerate(zip(aux.subject_ids, aux.conditions))
            if not (s == "s01" and c == "rest")]
    broken = toy_matrix(aux.values[keep],
                        [aux.subject_ids[i] for i in keep],
                        [aux.conditions[i] for i in keep])
    with pytest.raises(MissingCondition):
        select_features(broken, 0.3, top_n=1)


def test_too_few_subjects_raises():
    aux = make_aux(n_subjects=1, seed=12)
    with pytest.raises(TooFewSubjects):
        select_features(aux, 0.3, top_n=1)


def test_select_validates_lambda_and_top_n():
    aux = make_aux(seed=13)
    with pytest.raises(InvariantViolation):
        select_features(aux, -0.1, top_n=1)
    with pytest.raises(InvariantViolation):
        select_features(aux, 1.1, top_n=1)
    with pytest.raises(InvariantViolation, match="lambda"):
        select_features(aux, float("nan"), top_n=1)
    with pytest.raises(InvariantViolation):
        select_features(aux, 0.3, top_n=0)
    with pytest.raises(InvariantViolation):
        select_features(aux, 0.3, top_n=aux.dim + 1)


def test_select_rejects_feature_values_too_large_to_score():
    aux = make_aux(seed=3, subject_shift=1.0)

    def scaled(factor):
        return toy_matrix(aux.values * factor, aux.subject_ids, aux.conditions)

    with np.errstate(over="ignore", invalid="ignore"):
        assert select_features(scaled(1e150), 0.3, top_n=2).selected == (0, 2)
        with pytest.raises(InvariantViolation, match="not finite.*too large"):
            select_features(scaled(1e200), 0.3, top_n=2)


def test_selection_weights_invariants():
    w1 = np.array([2.0, 1.0])
    w2 = np.array([0.5, 0.5])
    w = 0.5 * w1 - 0.5 * w2
    SelectionWeights(w, w1, w2, 0.5, (0,), 1)
    with pytest.raises(InvariantViolation):
        SelectionWeights(w + 1e-6, w1, w2, 0.5, (0,), 1)
    with pytest.raises(InvariantViolation):
        SelectionWeights(w, w1, w2, 0.5, (1,), 1)  # not the top weight
    with pytest.raises(InvariantViolation):
        SelectionWeights(w, -w1, w2, 0.5, (0,), 1)
    SelectionWeights(w, w1, w2, 0.5, (0, 1), 2)
    for selected, top_n in (((), 0), ((0,), -1), ((0, 1), 3), ((0,), -5)):
        with pytest.raises(InvariantViolation, match=r"top_n must lie"):
            SelectionWeights(w, w1, w2, 0.5, selected, top_n)
    for selected, top_n in (((0,), 2), ((0, 1), 1), ((), 1)):
        with pytest.raises(InvariantViolation, match=r"hold top_n"):
            SelectionWeights(w, w1, w2, 0.5, selected, top_n)


def test_apply_selection_orders_columns():
    aux = make_aux(n_subjects=3, subject_shift=6.0, condition_shift=6.0,
                   noise=0.3, seed=4)
    sw = select_features(aux, 0.3, top_n=2)
    out = apply_selection(sw, aux)
    assert out.dim == 2
    assert np.array_equal(out.values[:, 0], aux.values[:, sw.selected[0]])
    assert np.array_equal(out.values[:, 1], aux.values[:, sw.selected[1]])
    assert out.layout_id == "toy>kl2"
    with pytest.raises(DimensionMismatch):
        apply_selection(sw, toy_matrix(aux.values[:, :2], aux.subject_ids,
                                       aux.conditions))


def test_selection_weights_round_trip(tmp_path):
    aux = make_aux(subject_shift=3.0, condition_shift=2.0, seed=14)
    sw = select_features(aux, 0.3, top_n=2)
    path = tmp_path / "weights.csv"
    save_selection_weights(sw, path)
    head, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert head == "lambda=%r,top_n=%d" % (sw.lam, sw.top_n)
    fields = np.array([row.split(",") for row in rows], dtype=float)
    assert np.array_equal(fields[:, 0], np.arange(sw.w.size))
    assert np.array_equal(fields[:, 1], sw.w)
    assert np.array_equal(fields[:, 2], sw.w1)
    assert np.array_equal(fields[:, 3], sw.w2)
    assert set(np.flatnonzero(fields[:, 4])) == set(sw.selected)


# ===== PCA ================================================================

def _sign_fix(components):
    out = components.copy()
    for row in out:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    return out


def random_matrix(n, d, seed, scales=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if scales is not None:
        x = x * np.asarray(scales)
    sids = tuple("s%02d" % (i % 5) for i in range(n))
    conds = tuple("rest" for _ in range(n))
    return toy_matrix(x, sids, conds)


def test_pca_matches_eigh_oracle():
    m = random_matrix(40, 8, seed=0, scales=[8, 5, 3, 2, 1, 0.5, 0.3, 0.1])
    model = pca_fit(m, variance_retained=1.0)
    xc = m.values - m.values.mean(axis=0)
    cov = xc.T @ xc / (m.n_rows - 1)
    eigval, eigvec = np.linalg.eigh(cov)
    order = np.argsort(eigval)[::-1]
    assert np.allclose(model.explained_variances, eigval[order], atol=1e-10)
    oracle = _sign_fix(eigvec[:, order].T)
    assert np.allclose(model.components, oracle, atol=1e-8)


def test_pca_axis_aligned():
    m = random_matrix(500, 3, seed=1, scales=[10.0, 2.0, 0.5])
    model = pca_fit(m, variance_retained=1.0)
    expect = np.eye(3)
    for i in range(3):
        assert np.max(np.abs(np.abs(model.components[i]) - expect[i])) < 0.05


def test_pca_k_tracks_variance_retained():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(200, 3)) * np.array([10.0, 1.0, 1e-4])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = toy_matrix(base @ q, ["s%02d" % (i % 4) for i in range(200)],
                   ["rest"] * 200)
    lo = pca_fit(m, variance_retained=0.9)
    hi = pca_fit(m, variance_retained=0.999)
    assert lo.k == 1
    assert hi.k == 2


def test_pca_k_capped_by_rows():
    m = random_matrix(3, 10, seed=3)
    model = pca_fit(m, variance_retained=1.0)
    assert model.components.shape[0] <= 2
    assert model.k <= 2


def test_pca_gram_route_matches_direct():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 50)) * np.linspace(3, 0.1, 50)
    m = toy_matrix(x, ["s%02d" % (i % 4) for i in range(20)], ["rest"] * 20)
    model = pca_fit(m, variance_retained=1.0)
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / 19.0
    eigval, eigvec = np.linalg.eigh(cov)
    order = np.argsort(eigval)[::-1][:model.components.shape[0]]
    assert np.allclose(model.explained_variances, eigval[order], atol=1e-8)
    oracle = _sign_fix(eigvec[:, order].T)
    assert np.max(np.abs(model.components - oracle)) < 1e-7


def test_pca_full_reconstruction():
    m = random_matrix(40, 6, seed=5, scales=[5, 4, 3, 2, 1, 0.5])
    model = pca_fit(m, variance_retained=1.0)
    proj = pca_transform(model, m)
    recon = proj.values @ model.components[:model.k] + model.mean
    assert np.max(np.abs(recon - m.values)) < 1e-8


def test_pca_transform_centers_training_data():
    m = random_matrix(60, 5, seed=6, scales=[4, 3, 2, 1, 0.5])
    model = pca_fit(m, variance_retained=0.99)
    proj = pca_transform(model, m)
    assert np.max(np.abs(proj.values.mean(axis=0))) < 1e-9
    assert proj.layout_id == "toy>pca%d" % model.k


def test_pca_projection_non_expansive():
    m = random_matrix(30, 6, seed=7, scales=[5, 4, 3, 2, 1, 0.5])
    model = pca_fit(m, variance_retained=0.95)
    proj = pca_transform(model, m).values
    x = m.values
    rng = np.random.default_rng(8)
    for _ in range(100):
        i, j = rng.integers(0, 30, size=2)
        d_orig = np.linalg.norm(x[i] - x[j])
        d_proj = np.linalg.norm(proj[i] - proj[j])
        assert d_proj <= d_orig + 1e-9


def test_pca_errors():
    m = random_matrix(1, 4, seed=9)
    with pytest.raises(TooFewRows):
        pca_fit(m)
    big = random_matrix(10, 4, seed=10)
    model = pca_fit(big)
    with pytest.raises(DimensionMismatch):
        pca_transform(model, random_matrix(10, 5, seed=11))
    with pytest.raises(InvariantViolation):
        pca_fit(big, variance_retained=0.0)


def test_pca_model_invariants():
    with pytest.raises(InvariantViolation):
        PcaModel(np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]), 1)
    with pytest.raises(InvariantViolation):
        PcaModel(np.zeros(2), np.eye(2), np.array([1.0, 2.0]), 1)
    with pytest.raises(InvariantViolation):
        PcaModel(np.zeros(2), np.eye(2), np.array([2.0, 1.0]), 3)


def test_pca_deterministic_sign():
    m = random_matrix(40, 8, seed=12, scales=[8, 5, 3, 2, 1, 0.5, 0.3, 0.1])
    model = pca_fit(m, variance_retained=1.0)
    for row in model.components:
        assert row[int(np.argmax(np.abs(row)))] > 0
