"""Tests for the CART decision tree."""

import pickle

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from tests.conftest import make_blobs


class TestFitBasics:
    def test_perfectly_separable_fits_exactly(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_threshold_between_classes(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        root_threshold = tree.tree_.threshold[0]
        assert 1.0 <= root_threshold < 2.0

    def test_pure_node_stops(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.zeros(20, dtype=int)
        y[0] = 1  # still needs both classes for a valid fit
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.tree_.node_count >= 1

    def test_single_class_tree_predicts_it(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        y = np.ones(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), 1)

    def test_deterministic_given_seed(self, blobs):
        X, y = blobs
        t1 = DecisionTreeClassifier(max_features="sqrt", random_state=3).fit(X, y)
        t2 = DecisionTreeClassifier(max_features="sqrt", random_state=3).fit(X, y)
        np.testing.assert_array_equal(t1.predict(X), t2.predict(X))

    def test_high_accuracy_on_blobs(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=8).fit(X, y)
        assert tree.score(X, y) > 0.98


class TestHyperparameters:
    def test_max_depth_zero_is_stump_leaf(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=0).fit(X, y)
        assert tree.get_depth() == 0
        assert tree.get_n_leaves() == 1

    def test_max_depth_respected(self, blobs):
        X, y = blobs
        for depth in (1, 2, 4):
            tree = DecisionTreeClassifier(max_depth=depth).fit(X, y)
            assert tree.get_depth() <= depth

    def test_min_samples_leaf_respected(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)
        leaf_mask = np.asarray(tree.tree_.feature) == -1
        assert np.asarray(tree.tree_.n_node_samples)[leaf_mask].min() >= 10

    def test_min_samples_split_respected(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(min_samples_split=50).fit(X, y)
        internal = np.asarray(tree.tree_.feature) >= 0
        assert np.asarray(tree.tree_.n_node_samples)[internal].min() >= 50

    def test_entropy_criterion_works(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(criterion="entropy", max_depth=6).fit(X, y)
        assert tree.score(X, y) > 0.95

    def test_invalid_criterion_raises(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError, match="criterion"):
            DecisionTreeClassifier(criterion="bogus").fit(X, y)

    def test_invalid_min_samples(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0).fit(X, y)

    @pytest.mark.parametrize("max_features", ["sqrt", "log2", 3, 0.5, None])
    def test_max_features_variants(self, blobs, max_features):
        X, y = blobs
        tree = DecisionTreeClassifier(
            max_features=max_features, random_state=0, max_depth=6
        ).fit(X, y)
        assert tree.score(X, y) > 0.85

    def test_invalid_max_features(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=100).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_features=0.0).fit(X, y)

    def test_min_impurity_decrease_prunes(self, blobs):
        X, y = blobs
        full = DecisionTreeClassifier().fit(X, y)
        pruned = DecisionTreeClassifier(min_impurity_decrease=0.2).fit(X, y)
        assert pruned.tree_.node_count <= full.tree_.node_count


class TestPrediction:
    def test_proba_rows_sum_to_one(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        tree = DecisionTreeClassifier(max_depth=4).fit(X_train, y_train)
        proba = tree.predict_proba(X_test)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_predict_matches_argmax_proba(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        tree = DecisionTreeClassifier(max_depth=4).fit(X_train, y_train)
        proba = tree.predict_proba(X_test)
        np.testing.assert_array_equal(
            tree.predict(X_test), tree.classes_[np.argmax(proba, axis=1)]
        )

    def test_apply_returns_leaves(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        tree = DecisionTreeClassifier(max_depth=3).fit(X_train, y_train)
        leaves = tree.apply(X_test)
        leaf_ids = np.flatnonzero(np.asarray(tree.tree_.feature) == -1)
        assert set(leaves.tolist()) <= set(leaf_ids.tolist())

    def test_string_labels_supported(self):
        X, y_int = make_blobs(n_per_class=30, seed=9)
        y = np.where(y_int == 0, "benign", "malware")
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        preds = tree.predict(X)
        assert set(np.unique(preds)) <= {"benign", "malware"}


class TestSampleWeight:
    def test_integer_weights_weight_the_counts(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        w = np.array([1, 1, 5, 5])
        tree = DecisionTreeClassifier().fit(X, y, sample_weight=w)
        # Weighted class counts replace the retired replicate-rows hack:
        # same mass as 12 replicated samples, but only 4 rows are grown.
        assert tree.tree_.value[0].tolist() == [2.0, 10.0]
        assert tree.tree_.n_node_samples[0] == 4

    def test_fractional_weights_match_replicated_integers(self):
        # The deprecation shim contract: fractional weights w find the
        # same split the old path found for the replicated integer
        # weights 2w (gains are scale-invariant in the total mass).
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 4))
        y = (X[:, 1] + 0.3 * rng.normal(size=80) > 0).astype(int)
        w = np.array([0.5, 1.0, 1.5, 2.0] * 20)
        repeat = np.round(2 * w).astype(int)
        native = DecisionTreeClassifier(max_depth=1).fit(X, y, sample_weight=w)
        replicated = DecisionTreeClassifier(max_depth=1).fit(
            np.repeat(X, repeat, axis=0), np.repeat(y, repeat)
        )
        assert native.tree_.feature[0] == replicated.tree_.feature[0]
        assert native.tree_.threshold[0] == replicated.tree_.threshold[0]
        np.testing.assert_allclose(
            np.asarray(native.tree_.value) * 2.0, replicated.tree_.value
        )

    def test_integer_weights_match_replication_structurally(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(int)
        w = np.array([1, 2, 3] * 20)
        native = DecisionTreeClassifier(max_depth=3).fit(X, y, sample_weight=w)
        replicated = DecisionTreeClassifier(max_depth=3).fit(
            np.repeat(X, w, axis=0), np.repeat(y, w)
        )
        np.testing.assert_array_equal(
            native.predict(X), replicated.predict(X)
        )

    def test_zero_weight_samples_excluded(self):
        X = np.array([[0.0], [1.0], [2.0], [50.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(
            X, y, sample_weight=[1.0, 1.0, 1.0, 0.0]
        )
        assert tree.tree_.n_node_samples[0] == 3
        # The zero-weight outlier cannot have shaped any threshold.
        assert np.asarray(tree.tree_.threshold).max() < 50.0

    def test_negative_weights_rejected(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y, sample_weight=[1.0, -0.5])

    def test_all_zero_weights_rejected(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, y, sample_weight=[0.0, 0.0])


class TestFeatureImportances:
    def test_informative_feature_dominates(self):
        rng = np.random.default_rng(10)
        n = 300
        informative = np.concatenate([rng.normal(-2, 1, n), rng.normal(2, 1, n)])
        noise = rng.normal(size=2 * n)
        X = np.column_stack([noise, informative])
        y = np.array([0] * n + [1] * n)
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        imp = tree.feature_importances_
        assert imp[1] > imp[0]
        assert imp.sum() == pytest.approx(1.0)

    def test_non_negative(self, blobs):
        X, y = blobs
        imp = DecisionTreeClassifier(max_depth=5).fit(X, y).feature_importances_
        assert np.all(imp >= 0)


class TestTreeStructure:
    def test_leaf_count_plus_internal_equals_total(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=5).fit(X, y)
        t = tree.tree_
        internal = int(np.sum(np.asarray(t.feature) >= 0))
        assert internal + t.n_leaves == t.node_count

    def test_binary_tree_invariant(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        t = tree.tree_
        # every internal node has exactly two children
        internal = np.asarray(t.feature) >= 0
        assert np.all(np.asarray(t.children_left)[internal] >= 0)
        assert np.all(np.asarray(t.children_right)[internal] >= 0)

    def test_children_sample_counts_sum(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=6).fit(X, y)
        t = tree.tree_
        for i in range(t.node_count):
            if t.feature[i] >= 0:
                assert (
                    t.n_node_samples[t.children_left[i]]
                    + t.n_node_samples[t.children_right[i]]
                    == t.n_node_samples[i]
                )


class TestPickle:
    def test_member_pickle_drops_compiled_cache(self, blobs):
        """The legacy member loop compiles each member's own flat
        backend; a pickled member carries none of it."""
        X, y = blobs
        forest = RandomForestClassifier(
            n_estimators=4, grower="hist", random_state=0
        ).fit(X, y)
        forest.decisions(X)
        member = forest.estimators_[0]
        assert "_backend_cache_" in member.__dict__
        blob = pickle.dumps(member)
        assert b"FlatForest" not in blob
        clone = pickle.loads(blob)
        assert "_backend_cache_" not in clone.__dict__
        np.testing.assert_array_equal(clone.predict(X), member.predict(X))
        assert b"FlatForest" not in pickle.dumps(forest)
