"""Property-based tests (hypothesis) for ML substrate invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml import DecisionTreeClassifier, StandardScaler
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
    squared_euclidean_distances,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def labelled_pairs(draw, min_size=2, max_size=60):
    """Matched (y_true, y_pred) binary label arrays."""
    n = draw(st.integers(min_size, max_size))
    y_true = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    y_pred = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return y_true, y_pred


@st.composite
def feature_matrices(draw, min_rows=4, max_rows=40, min_cols=1, max_cols=6):
    """Finite 2-d float arrays."""
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    return draw(arrays(np.float64, (rows, cols), elements=finite_floats))


class TestMetricProperties:
    @given(labelled_pairs())
    @settings(max_examples=60, deadline=None)
    def test_accuracy_bounded(self, pair):
        y_true, y_pred = pair
        assert 0.0 <= accuracy_score(y_true, y_pred) <= 1.0

    @given(labelled_pairs())
    @settings(max_examples=60, deadline=None)
    def test_confusion_matrix_total(self, pair):
        y_true, y_pred = pair
        cm = confusion_matrix(y_true, y_pred)
        assert cm.sum() == len(y_true)

    @given(labelled_pairs())
    @settings(max_examples=60, deadline=None)
    def test_f1_between_precision_and_recall(self, pair):
        y_true, y_pred = pair
        p = precision_score(y_true, y_pred)
        r = recall_score(y_true, y_pred)
        f = f1_score(y_true, y_pred)
        lo, hi = min(p, r), max(p, r)
        assert lo - 1e-9 <= f <= hi + 1e-9

    @given(labelled_pairs())
    @settings(max_examples=60, deadline=None)
    def test_perfect_prediction_all_ones(self, pair):
        y_true, _ = pair
        assert accuracy_score(y_true, y_true) == 1.0

    @given(feature_matrices())
    @settings(max_examples=40, deadline=None)
    def test_distances_symmetric_nonnegative(self, X):
        d2 = squared_euclidean_distances(X)
        assert np.all(d2 >= 0)
        # Tolerances scale with the squared data magnitude (catastrophic
        # cancellation is inherent to the expansion formula).
        atol = 1e-9 * max(1.0, float(np.abs(X).max()) ** 2)
        np.testing.assert_allclose(d2, d2.T, rtol=1e-6, atol=atol)
        assert np.allclose(np.diag(d2), 0.0, atol=atol)


class TestScalerProperties:
    @given(feature_matrices(min_rows=3))
    @settings(max_examples=40, deadline=None)
    def test_standard_scaler_roundtrip(self, X):
        scaler = StandardScaler().fit(X)
        X_rec = scaler.inverse_transform(scaler.transform(X))
        np.testing.assert_allclose(X_rec, X, rtol=1e-6, atol=1e-6)

    @given(feature_matrices(min_rows=3))
    @settings(max_examples=40, deadline=None)
    def test_standard_scaler_output_is_standardised(self, X):
        # Scaling twice must keep the defining properties: zero mean and
        # unit variance on every non-constant column.  (Elementwise
        # idempotence does not survive float cancellation on
        # near-constant columns, so we assert the statistics instead.)
        Z = StandardScaler().fit_transform(X)
        Z2 = StandardScaler().fit_transform(Z)
        np.testing.assert_allclose(Z2.mean(axis=0), 0.0, atol=1e-7)
        nonconstant = Z2.std(axis=0) > 0
        np.testing.assert_allclose(Z2.std(axis=0)[nonconstant], 1.0, atol=1e-7)


@st.composite
def classification_data(draw):
    """Feature matrix with binary labels containing both classes."""
    n = draw(st.integers(8, 40))
    cols = draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, cols), elements=finite_floats))
    y = np.zeros(n, dtype=np.int64)
    n_pos = draw(st.integers(1, n - 1))
    y[:n_pos] = 1
    return X, y


class TestModelProperties:
    @given(classification_data())
    @settings(max_examples=30, deadline=None)
    def test_tree_training_accuracy_with_distinct_rows(self, data):
        X, y = data
        tree = DecisionTreeClassifier().fit(X, y)
        preds = tree.predict(X)
        # Identical feature rows may carry conflicting labels; otherwise
        # a fully-grown tree must fit the training data exactly.
        _, inverse = np.unique(X, axis=0, return_inverse=True)
        consistent = True
        for group in np.unique(inverse):
            if len(np.unique(y[inverse == group])) > 1:
                consistent = False
                break
        if consistent:
            np.testing.assert_array_equal(preds, y)
        assert set(np.unique(preds)) <= {0, 1}

    @given(classification_data())
    @settings(max_examples=30, deadline=None)
    def test_tree_proba_valid(self, data):
        X, y = data
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(proba >= 0)
