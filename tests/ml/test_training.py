"""Equivalence and determinism suite for the histogram training backend.

Mirrors ``tests/ml/test_backend.py``'s role for the predict path: the
binned grower's contract is (a) *exactness when bins exhaust the
distinct values* — same training-set partitions and predictions as the
exact argsort grower, (b) **bitwise determinism** — same seed + same
data ⇒ identical flat tree arrays, run after run, refit after refit,
and (c) *flat-backend compatibility* — hist-grown trees compile into
the PR-2 node tensor with bitwise-identical votes.
"""

import numpy as np
import pytest

from repro.ml import (
    BaggingClassifier,
    BinMapper,
    BinnedDataset,
    DecisionTreeClassifier,
    RandomForestClassifier,
)
from repro.ml.training import grow_tree_binned
from tests.conftest import make_blobs


def assert_trees_identical(a, b):
    """Bitwise equality of two fitted trees' flat arrays."""
    np.testing.assert_array_equal(a.tree_.feature, b.tree_.feature)
    np.testing.assert_array_equal(a.tree_.threshold, b.tree_.threshold)
    np.testing.assert_array_equal(a.tree_.children_left, b.tree_.children_left)
    np.testing.assert_array_equal(a.tree_.value, b.tree_.value)


def assert_ensembles_identical(a, b):
    assert len(a.estimators_) == len(b.estimators_)
    for ta, tb in zip(a.estimators_, b.estimators_):
        assert_trees_identical(ta, tb)


class TestBinMapper:
    def test_edges_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 5))
        mapper = BinMapper(max_bins=32).fit(X)
        for edges, n_bins in zip(mapper.bin_edges_, mapper.n_bins_):
            assert np.all(np.diff(edges) > 0)
            assert n_bins == len(edges) + 1
            assert n_bins <= 32

    def test_codes_order_preserving(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 3))
        mapper = BinMapper(max_bins=16).fit(X)
        codes = mapper.transform(X)
        for f in range(3):
            order = np.argsort(X[:, f], kind="stable")
            assert np.all(np.diff(codes[order, f].astype(int)) >= 0)

    def test_few_distinct_values_get_exact_bins(self):
        X = np.array([[0.0], [1.0], [2.0], [1.0], [0.0]])
        mapper = BinMapper(max_bins=256).fit(X)
        codes = mapper.transform(X)
        # One bin per distinct value: codes are the value ranks.
        assert codes.ravel().tolist() == [0, 1, 2, 1, 0]

    def test_code_threshold_consistency(self):
        # code <= b  must be equivalent to  x <= edges[b], including for
        # values never seen at fit time (the predict-path contract).
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 1))
        mapper = BinMapper(max_bins=8).fit(X)
        edges = mapper.bin_edges_[0]
        probe = np.concatenate([edges, edges - 1e-12, edges + 1e-12, [-10, 10]])
        codes = mapper.transform(probe.reshape(-1, 1)).ravel()
        for b in range(len(edges)):
            np.testing.assert_array_equal(codes <= b, probe <= edges[b])

    def test_constant_feature_single_bin(self):
        X = np.column_stack([np.ones(50), np.arange(50, dtype=float)])
        mapper = BinMapper(max_bins=16).fit(X)
        assert mapper.n_bins_[0] == 1
        assert mapper.transform(X)[:, 0].max() == 0

    def test_max_bins_validated(self):
        with pytest.raises(ValueError):
            BinMapper(max_bins=1).fit(np.zeros((5, 1)))
        with pytest.raises(ValueError):
            BinMapper(max_bins=512).fit(np.zeros((5, 1)))

    def test_dataset_growth_buffer(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 4))
        dataset = BinnedDataset(BinMapper(max_bins=64), X)
        base_edges = [e.copy() for e in dataset.mapper.bin_edges_]
        for _ in range(5):
            dataset.append(rng.normal(size=(10, 4)))
        assert dataset.n_rows == 150
        assert dataset.codes.shape == (150, 4)
        # Warm bins: appending never reshapes the edge set.
        for before, after in zip(base_edges, dataset.mapper.bin_edges_):
            np.testing.assert_array_equal(before, after)


class TestExactVsBinnedEquivalence:
    """With one bin per distinct value the binned grower is exact."""

    def low_cardinality_data(self, seed=0, n=240, d=5, levels=17):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, d)).astype(float)
        y = (X[:, 0] + X[:, 1] + rng.normal(scale=2.0, size=n) > levels).astype(int)
        return X, y

    @pytest.mark.parametrize("max_depth", [1, 3, None])
    def test_same_training_predictions(self, max_depth):
        X, y = self.low_cardinality_data()
        exact = DecisionTreeClassifier(max_depth=max_depth, random_state=0).fit(X, y)
        hist = DecisionTreeClassifier(
            grower="hist", max_depth=max_depth, random_state=0
        ).fit(X, y)
        np.testing.assert_array_equal(exact.predict(X), hist.predict(X))

    def test_same_root_split(self):
        X, y = self.low_cardinality_data(seed=1)
        exact = DecisionTreeClassifier(max_depth=1).fit(X, y)
        hist = DecisionTreeClassifier(grower="hist", max_depth=1).fit(X, y)
        assert exact.tree_.feature[0] == hist.tree_.feature[0]
        assert exact.tree_.threshold[0] == hist.tree_.threshold[0]
        np.testing.assert_array_equal(exact.tree_.value, hist.tree_.value)

    def test_same_leaf_partition_full_depth(self):
        X, y = self.low_cardinality_data(seed=2)
        exact = DecisionTreeClassifier(random_state=0).fit(X, y)
        hist = DecisionTreeClassifier(grower="hist", random_state=0).fit(X, y)
        # Leaf ids differ, but co-membership of training rows must not.
        le, lh = exact.apply(X), hist.apply(X)
        _, inv_e = np.unique(le, return_inverse=True)
        _, inv_h = np.unique(lh, return_inverse=True)
        same_e = inv_e[:, None] == inv_e[None, :]
        same_h = inv_h[:, None] == inv_h[None, :]
        np.testing.assert_array_equal(same_e, same_h)

    def test_continuous_data_close_accuracy(self):
        X, y = make_blobs(n_per_class=150, separation=1.2, seed=5)
        X_test, y_test = make_blobs(n_per_class=150, separation=1.2, seed=6)
        exact = DecisionTreeClassifier(random_state=0).fit(X, y)
        hist = DecisionTreeClassifier(grower="hist", random_state=0).fit(X, y)
        assert abs(exact.score(X_test, y_test) - hist.score(X_test, y_test)) < 0.05


class TestHistGrowerProperties:
    def test_deterministic_across_runs(self):
        X, y = make_blobs(n_per_class=200, separation=1.0, seed=7)
        a = DecisionTreeClassifier(grower="hist", random_state=3).fit(X, y)
        b = DecisionTreeClassifier(grower="hist", random_state=3).fit(X, y)
        assert_trees_identical(a, b)

    def test_children_allocated_pairwise_for_backend(self):
        X, y = make_blobs(n_per_class=150, seed=8)
        tree = DecisionTreeClassifier(grower="hist", random_state=0).fit(X, y)
        feature = np.asarray(tree.tree_.feature)
        left = np.asarray(tree.tree_.children_left)
        right = np.asarray(tree.tree_.children_right)
        internal = feature >= 0
        np.testing.assert_array_equal(right[internal], left[internal] + 1)

    def test_flat_backend_bitwise_votes(self):
        X, y = make_blobs(n_per_class=120, separation=0.8, seed=9)
        for ensemble in (
            RandomForestClassifier(n_estimators=15, grower="hist", random_state=1),
            BaggingClassifier(
                DecisionTreeClassifier(grower="hist"),
                n_estimators=15,
                max_features=0.6,
                random_state=1,
            ),
            RandomForestClassifier(
                n_estimators=15, bootstrap=False, grower="hist", random_state=1
            ),
        ):
            ensemble.fit(X, y)
            np.testing.assert_array_equal(
                ensemble.decisions_fast(X), ensemble.decisions(X)
            )

    def test_max_depth_and_min_samples_respected(self):
        X, y = make_blobs(n_per_class=200, separation=0.5, seed=10)
        tree = DecisionTreeClassifier(
            grower="hist", max_depth=4, min_samples_leaf=7, random_state=0
        ).fit(X, y)
        assert tree.get_depth() <= 4
        leaf_sizes = np.asarray(tree.tree_.n_node_samples)[
            np.asarray(tree.tree_.feature) == -1
        ]
        assert leaf_sizes.min() >= 7

    def test_weighted_fit_matches_bootstrap_replication(self):
        # The ensemble fast path feeds bootstrap multiplicities as
        # weights; growing on the replicated rows must agree.
        rng = np.random.default_rng(11)
        X, y = make_blobs(n_per_class=120, separation=1.0, seed=12)
        idx = rng.integers(0, len(y), size=len(y))
        weights = np.bincount(idx, minlength=len(y)).astype(float)
        weighted = DecisionTreeClassifier(grower="hist", max_depth=3).fit(
            X, y, sample_weight=weights
        )
        replicated = DecisionTreeClassifier(grower="hist", max_depth=3).fit(
            np.repeat(X, weights.astype(int), axis=0),
            np.repeat(y, weights.astype(int)),
        )
        np.testing.assert_array_equal(weighted.predict(X), replicated.predict(X))
        np.testing.assert_array_equal(
            weighted.tree_.value[0], replicated.tree_.value[0]
        )

    def test_fractional_weights_accepted(self):
        X, y = make_blobs(n_per_class=60, seed=13)
        w = np.linspace(0.1, 2.0, len(y))
        tree = DecisionTreeClassifier(grower="hist").fit(X, y, sample_weight=w)
        assert tree.tree_.value[0].sum() == pytest.approx(w.sum())

    def test_single_class_degenerates_to_leaf(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        tree = DecisionTreeClassifier(grower="hist").fit(X, np.zeros(30))
        assert tree.get_n_leaves() == 1

    def test_multiclass(self):
        rng = np.random.default_rng(14)
        X = np.vstack([rng.normal(3 * k, 1.0, (60, 4)) for k in range(3)])
        y = np.repeat(np.arange(3), 60)
        tree = DecisionTreeClassifier(grower="hist", random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_entropy_criterion(self):
        X, y = make_blobs(n_per_class=100, seed=15)
        tree = DecisionTreeClassifier(
            grower="hist", criterion="entropy", random_state=0
        ).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_grow_tree_binned_direct(self):
        X, y = make_blobs(n_per_class=80, seed=16)
        dataset = BinnedDataset(BinMapper(max_bins=32), X)
        tree = grow_tree_binned(dataset.view(), y, 2, random_state=0)
        assert tree.node_count >= 3
        assert tree.value[0].tolist() == [80.0, 80.0]

    def test_invalid_grower_rejected(self):
        X, y = make_blobs(n_per_class=20, seed=17)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(grower="sorted").fit(X, y)


class TestSharedBinnedEnsembles:
    def test_ensemble_members_share_one_dataset(self):
        X, y = make_blobs(n_per_class=100, seed=18)
        forest = RandomForestClassifier(
            n_estimators=8, grower="hist", random_state=2
        ).fit(X, y)
        assert forest.supports_partial_refit()
        assert forest._binned_.n_rows == len(y)
        assert len(forest.estimators_) == 8

    def test_hist_forest_accuracy_matches_exact(self):
        X, y = make_blobs(n_per_class=150, separation=1.0, seed=19)
        X_test, y_test = make_blobs(n_per_class=150, separation=1.0, seed=20)
        exact = RandomForestClassifier(n_estimators=20, random_state=3).fit(X, y)
        hist = RandomForestClassifier(
            n_estimators=20, grower="hist", random_state=3
        ).fit(X, y)
        assert abs(exact.score(X_test, y_test) - hist.score(X_test, y_test)) < 0.05

    def test_ensemble_determinism(self):
        X, y = make_blobs(n_per_class=90, seed=21)
        a = RandomForestClassifier(n_estimators=6, grower="hist", random_state=4).fit(X, y)
        b = RandomForestClassifier(n_estimators=6, grower="hist", random_state=4).fit(X, y)
        assert_ensembles_identical(a, b)

    def test_exact_ensembles_do_not_gain_partial_refit(self):
        X, y = make_blobs(n_per_class=60, seed=22)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        assert not forest.supports_partial_refit()
        with pytest.raises(ValueError):
            forest.partial_refit(X[:5], y[:5])


class TestPartialRefit:
    def test_partial_refit_appends_and_learns_new_class(self):
        rng = np.random.default_rng(23)
        X, y = make_blobs(n_per_class=120, seed=24)
        forest = RandomForestClassifier(
            n_estimators=12, grower="hist", random_state=5
        ).fit(X, y)
        X_new = rng.normal(9.0, 0.5, size=(80, X.shape[1]))
        y_new = np.full(80, 2)
        forest.partial_refit(X_new, y_new)
        assert list(forest.classes_) == [0, 1, 2]
        assert forest._binned_.n_rows == len(y) + 80
        assert forest.score(X_new, y_new) > 0.95
        # Old classes are not forgotten.
        assert forest.score(X, y) > 0.9

    def test_partial_refit_recompiles_backend(self):
        X, y = make_blobs(n_per_class=80, seed=25)
        forest = RandomForestClassifier(
            n_estimators=6, grower="hist", random_state=6
        ).fit(X, y)
        first = forest.compile()
        forest.partial_refit(X[:10] + 5.0, y[:10])
        second = forest.compile()
        assert first is not second
        np.testing.assert_array_equal(
            forest.decisions_fast(X), forest.decisions(X)
        )

    def test_partial_refit_deterministic(self):
        X, y = make_blobs(n_per_class=80, seed=26)
        X_new = X[:30] + 4.0
        y_new = y[:30]
        a = RandomForestClassifier(n_estimators=5, grower="hist", random_state=7).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, grower="hist", random_state=7).fit(X, y)
        a.partial_refit(X_new, y_new)
        b.partial_refit(X_new, y_new)
        assert_ensembles_identical(a, b)

    def test_partial_refit_feature_width_checked(self):
        X, y = make_blobs(n_per_class=40, seed=27)
        forest = RandomForestClassifier(
            n_estimators=3, grower="hist", random_state=0
        ).fit(X, y)
        with pytest.raises(ValueError):
            forest.partial_refit(X[:5, :3], y[:5])

    def test_bagging_and_unbootstrapped_forest_partial_refit(self):
        X, y = make_blobs(n_per_class=80, seed=28)
        bag = BaggingClassifier(
            DecisionTreeClassifier(grower="hist"), n_estimators=5, random_state=1
        ).fit(X, y)
        forest = RandomForestClassifier(
            n_estimators=5, bootstrap=False, grower="hist", random_state=1
        ).fit(X, y)
        for ensemble in (bag, forest):
            assert ensemble.supports_partial_refit()
            ensemble.partial_refit(X[:20] + 3.0, y[:20])
            assert ensemble._binned_.n_rows == len(y) + 20
            np.testing.assert_array_equal(
                ensemble.decisions_fast(X), ensemble.decisions(X)
            )
