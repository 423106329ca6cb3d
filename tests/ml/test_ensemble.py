"""Tests for bagging and random forest ensembles."""

import numpy as np
import pytest

from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    LogisticRegression,
    RandomForestClassifier,
)
from tests.conftest import make_blobs


class TestBaggingClassifier:
    def test_default_base_is_tree(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        bag = BaggingClassifier(n_estimators=8, random_state=0).fit(X_train, y_train)
        assert all(isinstance(m, DecisionTreeClassifier) for m in bag.estimators_)
        assert bag.score(X_test, y_test) > 0.95

    def test_estimators_accessible(self, blobs_split):
        # The paper's framework hinges on accessing the fitted base
        # classifiers (sklearn's estimators_ attribute).
        X_train, _, y_train, _ = blobs_split
        bag = BaggingClassifier(n_estimators=12, random_state=0).fit(X_train, y_train)
        assert len(bag.estimators_) == 12
        assert len(bag.estimators_samples_) == 12

    def test_decisions_shape_and_content(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        bag = BaggingClassifier(n_estimators=7, random_state=0).fit(X_train, y_train)
        votes = bag.decisions(X_test)
        assert votes.shape == (len(X_test), 7)
        assert set(np.unique(votes)) <= set(bag.classes_)

    def test_vote_distribution_row_stochastic(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        bag = BaggingClassifier(n_estimators=9, random_state=0).fit(X_train, y_train)
        dist = bag.vote_distribution(X_test)
        np.testing.assert_allclose(dist.sum(axis=1), 1.0)
        assert np.all(dist >= 0)

    def test_predict_is_majority_vote(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        bag = BaggingClassifier(n_estimators=11, random_state=0).fit(X_train, y_train)
        votes = bag.decisions(X_test)
        majority = np.array(
            [bag.classes_[np.argmax(np.bincount(
                np.searchsorted(bag.classes_, row), minlength=len(bag.classes_)
            ))] for row in votes]
        )
        np.testing.assert_array_equal(bag.predict(X_test), majority)

    def test_bootstrap_replicates_differ(self, blobs):
        X, y = blobs
        bag = BaggingClassifier(n_estimators=2, random_state=0).fit(X, y)
        assert not np.array_equal(
            bag.estimators_samples_[0], bag.estimators_samples_[1]
        )

    def test_max_samples_fraction(self, blobs):
        X, y = blobs
        bag = BaggingClassifier(n_estimators=3, max_samples=0.5, random_state=0).fit(X, y)
        assert all(len(s) == len(y) // 2 for s in bag.estimators_samples_)

    def test_max_features_subsampling(self, blobs):
        X, y = blobs
        bag = BaggingClassifier(
            n_estimators=4, max_features=0.5, random_state=0
        ).fit(X, y)
        n_feats = X.shape[1] // 2
        assert all(len(f) == n_feats for f in bag.estimators_features_)

    def test_every_replicate_sees_both_classes(self, blobs):
        X, y = blobs
        bag = BaggingClassifier(n_estimators=10, max_samples=0.1, random_state=0).fit(X, y)
        for sample_idx in bag.estimators_samples_:
            assert len(np.unique(y[sample_idx])) == 2

    def test_heterogeneous_base(self, blobs_split):
        X_train, X_test, y_train, y_test = blobs_split
        bag = BaggingClassifier(
            LogisticRegression(), n_estimators=6, random_state=0
        ).fit(X_train, y_train)
        assert bag.score(X_test, y_test) > 0.95

    def test_deterministic_with_seed(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        a = BaggingClassifier(n_estimators=5, random_state=42).fit(X_train, y_train)
        b = BaggingClassifier(n_estimators=5, random_state=42).fit(X_train, y_train)
        np.testing.assert_array_equal(a.decisions(X_test), b.decisions(X_test))

    def test_invalid_params(self, blobs):
        X, y = blobs
        with pytest.raises(ValueError):
            BaggingClassifier(n_estimators=0).fit(X, y)
        with pytest.raises(ValueError):
            BaggingClassifier(max_samples=0.0).fit(X, y)
        with pytest.raises(ValueError):
            BaggingClassifier(on_base_failure="ignore").fit(X, y)


class TestRandomForest:
    def test_outperforms_single_tree_on_noisy_data(self):
        X, y = make_blobs(n_per_class=250, separation=1.4, seed=20)
        X_train, y_train = X[:350], y[:350]
        X_test, y_test = X[350:], y[350:]
        tree = DecisionTreeClassifier(random_state=0).fit(X_train, y_train)
        forest = RandomForestClassifier(n_estimators=40, random_state=0).fit(
            X_train, y_train
        )
        assert forest.score(X_test, y_test) >= tree.score(X_test, y_test)

    def test_decisions_interface(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        forest = RandomForestClassifier(n_estimators=15, random_state=0).fit(
            X_train, y_train
        )
        votes = forest.decisions(X_test)
        assert votes.shape == (len(X_test), 15)

    def test_predict_proba_smoother_than_votes(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(
            X_train, y_train
        )
        proba = forest.predict_proba(X_test)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_feature_importances_normalised(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(n_estimators=10, random_state=0).fit(X, y)
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_max_depth_forwarded_to_trees(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(
            n_estimators=5, max_depth=2, random_state=0
        ).fit(X, y)
        assert all(t.get_depth() <= 2 for t in forest.estimators_)

    def test_no_bootstrap_mode(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(
            n_estimators=4, bootstrap=False, random_state=0
        ).fit(X, y)
        for sample_idx in forest.estimators_samples_:
            assert len(np.unique(sample_idx)) == len(sample_idx)

    def test_max_samples_reduces_replicate(self, blobs):
        X, y = blobs
        forest = RandomForestClassifier(
            n_estimators=3, max_samples=0.25, random_state=0
        ).fit(X, y)
        assert all(len(s) == len(y) // 4 for s in forest.estimators_samples_)

