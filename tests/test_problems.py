"""Problem-instance tests: closed-form synthetic, logistic regression, hyper-cleaning."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hozog import InnerSolver, InvalidConfig, evaluate, solve
from hozog.data_io import (
    SparseDataset,
    design_matrices,
    random_classification_dataset,
    split_2_1_1,
)
from hozog.errors import InsufficientData
from hozog.problems import (
    HyperCleanProblem,
    LogRegProblem,
    group_corruption_fractions,
    group_weighted_mean,
    hyperclean_objective,
    logreg_objective,
    logreg_test_error,
    make_hyperclean,
    make_synthetic,
    per_sample_cross_entropy,
    synthetic_analytic_hypergradient,
    synthetic_optimum,
)


def central_fd(fn, x, step=1e-6):
    return (fn(x + step) - fn(x - step)) / (2 * step)


class TestSynthetic:
    def test_minimizer_and_value_at_zero(self):
        spec = make_synthetic(3.0, 1.0)
        assert evaluate(spec, np.array([0.0])).f_value == pytest.approx(0.0, abs=1e-14)
        assert synthetic_optimum(3.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_negative_limit(self):
        spec = make_synthetic(3.0, 1.0)
        # e^-30 ~ 0, so w -> c and f -> 0.5*(3-1)^2 = 2
        assert evaluate(spec, np.array([-30.0])).f_value == pytest.approx(2.0, abs=1e-9)

    def test_invalid_targets(self):
        with pytest.raises(InvalidConfig):
            make_synthetic(2.0, 2.0)
        with pytest.raises(InvalidConfig):
            make_synthetic(1.0, -0.5)

    def test_hypergradient_zero_at_optimum(self):
        assert synthetic_analytic_hypergradient(3.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_hypergradient_matches_finite_difference(self):
        spec = make_synthetic(3.0, 1.0)
        fn = lambda lam: evaluate(spec, np.array([lam])).f_value
        got = synthetic_analytic_hypergradient(3.0, 1.0, 1.0)
        assert got == pytest.approx(central_fd(fn, 1.0), abs=1e-8)

    def test_hypergradient_sign_right_of_optimum(self):
        lam_star = synthetic_optimum(3.0, 1.0)
        for lam in (lam_star + 0.5, lam_star + 2.0, lam_star + 5.0):
            assert synthetic_analytic_hypergradient(3.0, 1.0, lam) > 0.0

    def test_hypergradient_grid_against_finite_differences(self):
        spec = make_synthetic(3.0, 1.0)
        fn = lambda lam: evaluate(spec, np.array([lam])).f_value
        for lam in np.arange(-3.0, 3.0 + 1e-9, 0.25):
            got = synthetic_analytic_hypergradient(3.0, 1.0, lam)
            assert abs(got - central_fd(fn, lam)) <= 1e-6
        # far right of the optimum w(lam) and w'(lam) vanish, with no overflow
        for lam in (400.0, 1000.0):
            got = synthetic_analytic_hypergradient(3.0, 1.0, lam)
            assert math.isfinite(got) and abs(got) <= 1e-150


def _tiny_dataset(rows):
    return SparseDataset(rows=tuple(rows))


class TestLogReg:
    def test_single_point_inner_loss_is_log_two_at_zero(self):
        train = _tiny_dataset([(1.0, ((1, 1.0),))])
        val = _tiny_dataset([(1.0, ((1, 1.0),))])
        test = _tiny_dataset([(-1.0, ((1, 2.0),))])
        prob = LogRegProblem.from_datasets(train, val, test)
        assert prob.inner_loss(np.zeros(1), np.array([0.0])) == pytest.approx(math.log(2.0))
        # regularizer vanishes at w = 0 regardless of lam
        assert prob.inner_loss(np.zeros(1), np.array([5.0])) == pytest.approx(math.log(2.0))

    def test_heavy_regularization_raises_validation_loss(self):
        ds = random_classification_dataset(100, 8, seed=7, class_sep=2.5)
        train, val, test = split_2_1_1(ds, seed=1)
        prob = LogRegProblem.from_datasets(train, val, test)
        spec = logreg_objective(prob, InnerSolver(steps=300, lr=0.02, variant="adam"))
        f_low = evaluate(spec, np.array([-10.0])).f_value
        f_high = evaluate(spec, np.array([10.0])).f_value
        assert f_low < f_high

    def test_empty_validation_split(self):
        train = _tiny_dataset([(1.0, ((1, 1.0),)), (-1.0, ((1, -1.0),))])
        empty = _tiny_dataset([])
        with pytest.raises(InsufficientData):
            LogRegProblem.from_datasets(train, empty, train)

    def test_declared_bounds(self):
        ds = random_classification_dataset(40, 4, seed=0)
        train, val, test = split_2_1_1(ds, seed=0)
        spec = logreg_objective(
            LogRegProblem.from_datasets(train, val, test), InnerSolver(steps=5, lr=0.05)
        )
        np.testing.assert_array_equal(spec.bounds, [[-10.0, 10.0]])

    def test_w0_independence_at_convergence(self):
        # strictly convex inner objective: the solution forgets w0
        ds = random_classification_dataset(60, 4, seed=9)
        train, val, test = split_2_1_1(ds, seed=2)
        prob = LogRegProblem.from_datasets(train, val, test)
        lam = np.array([[0.0]])  # a (p, k) block of one point
        a = InnerSolver(steps=3000, lr=0.02, w0=np.zeros(prob.d))
        b = InnerSolver(steps=3000, lr=0.02, w0=np.full(prob.d, 0.5))
        wa = solve(prob.inner_loss_grad, a, lam)
        wb = solve(prob.inner_loss_grad, b, lam)
        assert np.linalg.norm(wa - wb) <= 1e-4

    def test_sample_order_invariance(self):
        ds = random_classification_dataset(80, 6, seed=4)
        train, val, test = split_2_1_1(ds, seed=3)
        rng = np.random.default_rng(0)
        shuffled = tuple(train.rows[i] for i in rng.permutation(len(train)))
        prob_a = LogRegProblem.from_datasets(train, val, test)
        prob_b = LogRegProblem.from_datasets(
            SparseDataset(rows=shuffled, n_features=train.n_features), val, test
        )
        w = np.linspace(-0.3, 0.3, prob_a.d)
        lam = np.array([0.1])
        assert prob_a.inner_loss(w, lam) == pytest.approx(prob_b.inner_loss(w, lam), rel=1e-12)
        assert prob_a.outer_value(w[:, None], lam[:, None]) == prob_b.outer_value(w[:, None], lam[:, None])


class TestLogRegTestError:
    def _problem(self, test_rows):
        binary = _tiny_dataset([(1.0, ((1, 1.0),)), (-1.0, ((1, -1.0),))])
        return LogRegProblem.from_datasets(binary, binary, _tiny_dataset(test_rows))

    def test_zero_model_ties_count_as_errors(self):
        prob = self._problem([(1.0, ((1, 1.0),)), (-1.0, ((1, -2.0),))])
        assert logreg_test_error(prob, np.zeros(1)) == 1.0

    def test_perfect_separator(self):
        rows = [
            (1.0, ((1, 1.0),)),
            (1.0, ((1, 2.0), (2, -0.5))),
            (-1.0, ((1, -1.0),)),
            (-1.0, ((1, -2.0), (2, 0.5))),
        ]
        prob = self._problem(rows)
        w = np.zeros(prob.d)
        w[0] = 1.0
        assert logreg_test_error(prob, w) == 0.0

    def test_label_flip_symmetry(self):
        rows = [(1.0, ((1, 0.5),)), (1.0, ((1, -1.5),)), (-1.0, ((1, 2.0),)), (-1.0, ((1, -0.7),))]
        flipped = [(-label, feats) for label, feats in rows]
        w = np.array([1.0])
        e = logreg_test_error(self._problem(rows), w)
        e_flipped = logreg_test_error(self._problem(flipped), w)
        assert e_flipped == pytest.approx(1.0 - e)

    def test_empty_test_split(self):
        with pytest.raises(InsufficientData):
            self._problem([])


def _rows_storing(n_rows, stored, n_features):
    # rows that each store their first `stored` of n_features columns
    row = (1.0, tuple((j + 1, 1.0 + j) for j in range(stored)))
    return SparseDataset(rows=(row,) * n_rows, n_features=n_features)


@st.composite
def _splits(draw):
    n_features = draw(st.integers(1, 5))
    row = st.lists(st.integers(1, n_features), unique=True).map(
        lambda idx: (1.0, tuple((i, float(i)) for i in sorted(idx)))
    )
    return tuple(
        SparseDataset(rows=tuple(draw(st.lists(row, max_size=4))), n_features=n_features)
        for _ in range(3)
    )


class TestStorage:
    """Dense and CSR design matrices give the same objective; one helper picks."""

    # Dense and CSR products differ only in summation order.
    RTOL = 1e-12

    @pytest.mark.parametrize(
        "inner",
        [InnerSolver(steps=150, lr=0.1, variant="adam"), InnerSolver(steps=150, lr=2e-5)],
        ids=["adam", "gd"],
    )
    def test_dense_and_csr_values_agree(self, inner):
        data = random_classification_dataset(400, 20, seed=5, class_sep=2.0, noise_flip=0.05)
        dense = LogRegProblem.from_datasets(*split_2_1_1(data, seed=0))
        assert isinstance(dense.x_train, np.ndarray)
        csr = dataclasses.replace(
            dense,
            x_train=sp.csr_matrix(dense.x_train),
            x_val=sp.csr_matrix(dense.x_val),
            x_test=sp.csr_matrix(dense.x_test),
        )
        f_dense, f_csr = [], []
        for lam in np.linspace(-10.0, 10.0, 21):
            f_dense.append(evaluate(logreg_objective(dense, inner), np.array([lam])).f_value)
            f_csr.append(evaluate(logreg_objective(csr, inner), np.array([lam])).f_value)
        np.testing.assert_allclose(f_dense, f_csr, rtol=self.RTOL, atol=0.0)
        assert np.ptp(f_dense) > 1.0  # the grid spans values, not one constant

    def test_sparse_data_stays_csr(self):
        splits = [_rows_storing(4, 1, 4)] * 3  # density 0.25
        assert all(sp.issparse(m) for m in design_matrices(*splits))

    def test_half_density_is_dense(self):
        splits = [_rows_storing(2, 2, 4)] * 3  # density exactly 0.5
        assert all(isinstance(m, np.ndarray) for m in design_matrices(*splits))

    def test_one_storage_decides_for_all_splits(self):
        # a dense train split is stored CSR when the splits together are sparse
        train = _rows_storing(2, 4, 4)
        sparse = _rows_storing(10, 1, 4)
        x_train, x_val, x_test = design_matrices(train, sparse, sparse)
        assert sp.issparse(x_train) and sp.issparse(x_val) and sp.issparse(x_test)

    def test_empty_test_split(self):
        train, val = _rows_storing(2, 4, 4), _rows_storing(1, 4, 4)
        empty = SparseDataset(rows=())
        x_train, x_val, x_test = design_matrices(train, val, empty)
        assert isinstance(x_test, np.ndarray) and x_test.shape == (0, 4)
        with pytest.raises(InsufficientData):
            LogRegProblem.from_datasets(train, val, empty)

    @settings(max_examples=100)
    @given(_splits())
    def test_splits_share_one_storage_and_keep_their_values(self, splits):
        mats = design_matrices(*splits)
        assert len({type(m) for m in mats}) == 1
        stored = sum(len(feats) for ds in splits for _, feats in ds.rows)
        entries = sum(len(ds) for ds in splits) * splits[0].n_features
        assert isinstance(mats[0], np.ndarray) == (2 * stored >= entries)
        for ds, m in zip(splits, mats):
            assert m.shape == (len(ds), ds.n_features)
            np.testing.assert_array_equal(
                m if isinstance(m, np.ndarray) else m.toarray(), ds.to_csr().toarray()
            )


class TestGroupWeightedMean:
    def test_zero_lambda_halves_unweighted_mean(self):
        losses = np.array([0.2, 1.4, 0.9, 2.2])
        groups = np.array([0, 1, 0, 1])
        lam = np.zeros(2)
        expected = 0.5 * losses.mean()
        assert group_weighted_mean(losses, groups, lam) == pytest.approx(expected, rel=1e-12)

    def test_very_negative_lambda_suppresses_loss(self):
        losses = np.array([1.0, 2.0, 3.0])
        groups = np.array([0, 0, 0])
        assert group_weighted_mean(losses, groups, np.array([-20.0])) <= 1e-8 * losses.mean()

    def test_two_group_hand_arithmetic(self):
        # sigmoid(0)=0.5, sigmoid(20)~1: (0.5*1.0 + 1.0*3.0)/2 = 1.75
        losses = np.array([1.0, 3.0])
        groups = np.array([0, 1])
        value = group_weighted_mean(losses, groups, np.array([0.0, 20.0]))
        assert value == pytest.approx(1.75, abs=1e-8)


def _blob_dataset(n, n_classes, seed, n_features=6, class_sep=2.5):
    return random_classification_dataset(
        n, n_features, n_classes=n_classes, seed=seed, class_sep=class_sep
    )


class TestMakeHyperclean:
    def test_paper_scale_counts_small(self):
        ds = _blob_dataset(6000, 4, seed=1, n_features=5)
        prob = make_hyperclean(ds, n_train=1000, n_val=1000, n_test=4000, n_groups=500, corruption_seed=0)
        assert prob.p == 500
        assert int(prob.corrupted.sum()) == 500
        sizes = np.bincount(prob.group_ids)
        assert sizes.min() == sizes.max() == 2

    def test_paper_scale_counts_large(self):
        ds = _blob_dataset(20000, 4, seed=2, n_features=4)
        prob = make_hyperclean(
            ds, n_train=5000, n_val=5000, n_test=10000, n_groups=1250, corruption_seed=0
        )
        sizes = np.bincount(prob.group_ids)
        assert sizes.min() == sizes.max() == 4
        assert int(prob.corrupted.sum()) == 2500

    def test_ceiling_on_tiny_instance(self):
        ds = _blob_dataset(12, 2, seed=3)
        prob = make_hyperclean(ds, n_train=4, n_val=4, n_test=4, n_groups=2, corruption_seed=5)
        assert int(prob.corrupted.sum()) == 2

    @pytest.mark.parametrize("n_classes", [2, 3, 7])
    def test_corruption_draw_matches_a_per_row_loop(self, n_classes):
        # replay the stream: both shuffles, the rows to corrupt, then one draw per row
        ds = _blob_dataset(90, n_classes, seed=8)
        prob = make_hyperclean(ds, 41, 20, 20, 5, corruption_seed=3)
        rng = np.random.default_rng(3)
        rng.permutation(len(ds)), rng.permutation(41)
        y = prob.y_clean.copy()
        for i in rng.choice(41, size=21, replace=False):
            y[i] = np.delete(np.arange(n_classes), y[i])[rng.integers(0, n_classes - 1)]
        np.testing.assert_array_equal(prob.y_train, y)

    def test_pinned_output_for_one_seed(self):
        # label mapping, group blocks and corruption draws, as first recorded
        ds = _blob_dataset(60, 3, seed=4)
        prob = make_hyperclean(ds, 20, 20, 20, 5, corruption_seed=9)
        np.testing.assert_array_equal(
            prob.group_ids, [3, 1, 1, 2, 3, 3, 4, 0, 0, 2, 2, 0, 2, 4, 4, 0, 4, 1, 1, 3]
        )
        np.testing.assert_array_equal(
            prob.y_train, [0, 1, 1, 2, 0, 2, 1, 1, 1, 0, 0, 0, 1, 2, 0, 2, 1, 1, 2, 1]
        )
        np.testing.assert_array_equal(
            prob.corrupted.astype(int), [1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1]
        )

    def test_insufficient_data(self):
        ds = _blob_dataset(10, 2, seed=5)
        with pytest.raises(InsufficientData):
            make_hyperclean(ds, 8, 8, 8, 2, corruption_seed=0)


class TestHypercleanObjective:
    def test_zero_model_validation_loss_is_log_k(self):
        ds = _blob_dataset(60, 3, seed=6)
        prob = make_hyperclean(ds, 20, 20, 20, 4, corruption_seed=1)
        spec = hyperclean_objective(prob, InnerSolver(steps=0, lr=0.05))
        result = evaluate(spec, np.zeros(4))
        assert result.f_value == pytest.approx(math.log(3.0), rel=1e-12)

    def test_downweighting_pure_noise_group_improves_validation(self):
        # Hand-built instance: group 1's labels are all flipped; lowering
        # its weight and re-solving must reduce the validation loss.
        rng = np.random.default_rng(11)
        n_per, n_groups, d = 5, 4, 4
        n_tr = n_per * n_groups
        means = np.array([[2.0, 0, 0, 0], [-2.0, 0, 0, 0]])
        y_clean = np.tile([0, 1], n_tr // 2)
        x_tr = means[y_clean] + rng.standard_normal((n_tr, d))
        group_ids = np.repeat(np.arange(n_groups), n_per)
        y_noisy = y_clean.copy()
        y_noisy[group_ids == 1] = 1 - y_noisy[group_ids == 1]
        y_val = np.tile([0, 1], 20)
        x_val = means[y_val] + rng.standard_normal((40, d))
        prob = HyperCleanProblem(
            x_train=sp.csr_matrix(x_tr),
            y_train=y_noisy,
            y_clean=y_clean,
            group_ids=group_ids,
            x_val=sp.csr_matrix(x_val),
            y_val=y_val,
            x_test=sp.csr_matrix(x_val),
            y_test=y_val,
            n_classes=2,
            n_groups=n_groups,
        )
        spec = hyperclean_objective(prob, InnerSolver(steps=300, lr=0.5))
        lam0 = np.zeros(n_groups)
        lam_down = lam0.copy()
        lam_down[1] = -5.0
        assert evaluate(spec, lam_down).f_value < evaluate(spec, lam0).f_value

    def test_inner_loss_monotone_in_each_weight(self):
        ds = _blob_dataset(60, 3, seed=8)
        prob = make_hyperclean(ds, 30, 15, 15, 6, corruption_seed=3)
        rng = np.random.default_rng(1)
        weights = rng.standard_normal((3, prob.n_features)) * 0.3
        bias = rng.standard_normal(3) * 0.1
        lam = rng.standard_normal(6)
        w = np.concatenate([weights.ravel(), bias])
        base = prob.inner_loss(w, lam)
        for g in range(6):
            bumped = lam.copy()
            bumped[g] += 0.7
            assert prob.inner_loss(w, bumped) >= base

    def test_large_logits_gradient_matches_shifted_reference(self):
        ds = _blob_dataset(40, 3, seed=9, n_features=4)
        prob = make_hyperclean(ds, 20, 10, 10, 4, corruption_seed=4)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(prob.d) * 300.0
        lam = rng.standard_normal(4)
        weights, bias = prob.unflatten(w)
        x = prob.x_train.toarray()
        logits = x @ weights.T + bias
        assert np.abs(logits).max() > 800.0  # exp overflows without the shift
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        resid = shifted / shifted.sum(axis=1, keepdims=True)
        resid[np.arange(20), prob.y_train] -= 1.0
        resid *= (1.0 / (1.0 + np.exp(-lam)))[prob.group_ids][:, None] / 20
        expected = np.concatenate([(resid.T @ x).ravel(), resid.sum(axis=0)])
        grad = prob.inner_loss_grad(w[:, None], lam[:, None])[:, 0]
        assert np.all(np.isfinite(grad))
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)

    def test_group_corruption_fractions(self):
        ds = _blob_dataset(60, 2, seed=12)
        prob = make_hyperclean(ds, 30, 15, 15, 6, corruption_seed=6)
        fracs = group_corruption_fractions(prob)
        assert fracs.shape == (6,)
        sizes = np.bincount(prob.group_ids)
        total = float((fracs * sizes).sum())
        assert total == pytest.approx(prob.corrupted.sum())

    def test_one_group_per_row_scores_each_row_through_its_group(self):
        # with n_groups == n_train, group_ids is a permutation of the rows:
        # lambda_g weighs the row whose group id is g, not row g
        ds = _blob_dataset(60, 2, seed=12)
        prob = make_hyperclean(ds, 30, 15, 15, 30, corruption_seed=6)
        fracs = group_corruption_fractions(prob)
        np.testing.assert_array_equal(fracs[prob.group_ids], prob.corrupted)
        # this seed's permutation is not the identity, so row-indexed scoring fails
        assert not np.array_equal(fracs, prob.corrupted)


class TestPerSampleCrossEntropy:
    def test_uniform_model(self):
        x = np.eye(3)
        y = np.array([0, 1, 2])
        ce = per_sample_cross_entropy(np.zeros((3, 3)), np.zeros(3), x, y)
        np.testing.assert_allclose(ce, math.log(3.0))

    def test_large_logits_match_shifted_reference(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 4))
        y = rng.integers(0, 3, size=12)
        weights = rng.standard_normal((3, 4)) * 500.0
        bias = rng.standard_normal(3) * 100.0
        logits = x @ weights.T + bias
        assert np.abs(logits).max() > 800.0  # exp overflows without the shift
        shifted = logits - logits.max(axis=1, keepdims=True)
        expected = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(12), y]
        ce = per_sample_cross_entropy(weights, bias, x, y)
        assert np.all(np.isfinite(ce))
        np.testing.assert_allclose(ce, expected, rtol=1e-12)

    def test_confident_correct_model_vanishes(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        weights = 50.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        ce = per_sample_cross_entropy(weights, np.zeros(2), x, y)
        assert np.all(ce < 1e-8)
