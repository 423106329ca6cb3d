"""Equivalence suite for the flattened ensemble inference backend.

The backend's contract is *bitwise identity*: for any compilable
ensemble, ``decisions_fast`` must reproduce the legacy per-member
Python loop (``decisions``) exactly — votes, and therefore vote
distributions, entropies and downstream verdicts.  These tests sweep
randomized ensembles across the axes that stress the flattening
(ensemble size, tree depth, feature subsetting, class dtypes, stump
trees) and pin the cache-invalidation-on-refit behaviour.  Both
reductions of the shared routing loop — leaf ids and second-class
vote counts — are checked against the legacy loop in every compile
mode, at the chunk boundaries and through repeated compaction.
"""

import numpy as np
import pytest

from repro.ml import (
    BaggingClassifier,
    DecisionTreeClassifier,
    LogisticRegression,
    RandomForestClassifier,
    compile_flat_forest,
)
from repro.ml.backend import _SLOT_TARGET, FlatForest
from repro.uncertainty.entropy import vote_entropy
from tests.conftest import make_blobs


def assert_fast_path_identical(ensemble, X):
    """Votes and entropies through the backend match the legacy loop."""
    legacy = ensemble.decisions(X)
    fast = ensemble.decisions_fast(X)
    assert fast.dtype == legacy.dtype
    assert fast.shape == legacy.shape
    np.testing.assert_array_equal(fast, legacy)
    h_legacy = vote_entropy(legacy, ensemble.classes_)
    h_fast = vote_entropy(fast, ensemble.classes_)
    np.testing.assert_array_equal(h_fast, h_legacy)  # bitwise, no tolerance


def assert_reductions_match_legacy(ensemble, X, mode="flat"):
    """Leaf ids and second-class counts match the legacy member loop."""
    backend = ensemble.compile(mode=mode)
    legacy = ensemble.decisions(X)
    leaves = backend.apply(X)
    assert leaves.shape == legacy.shape
    np.testing.assert_array_equal(backend.leaf_label.take(leaves), legacy)
    if mode == "flat":
        # Node ids survive flattening (member-local id + member offset).
        members, features = ensemble._vote_members()
        for j, member in enumerate(members):
            Xm = X if features is None else X[:, features[j]]
            np.testing.assert_array_equal(
                leaves[:, j], member.apply(Xm) + backend.roots[j]
            )
    second = ensemble.classes_[-1]
    counts = backend.count_second(
        X, (backend.leaf_label == second).astype(np.int64)
    )
    np.testing.assert_array_equal(counts, np.sum(legacy == second, axis=1))


def chunk_rows(backend):
    """The most rows this forest routes as one traversal chunk."""
    return max(16, _SLOT_TARGET // backend.n_members)


def multiclass_blobs(n_classes=3, n_per_class=80, n_features=7, seed=3):
    rng = np.random.default_rng(seed)
    parts, labels = [], []
    for k in range(n_classes):
        centre = rng.normal(scale=2.0, size=n_features)
        parts.append(centre + rng.normal(size=(n_per_class, n_features)))
        labels.append(np.full(n_per_class, k))
    X = np.vstack(parts)
    y = np.concatenate(labels)
    order = rng.permutation(len(y))
    return X[order], y[order]


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("n_estimators", [1, 7, 40])
    @pytest.mark.parametrize("max_depth", [None, 1, 4])
    def test_random_forest(self, n_estimators, max_depth):
        X, y = make_blobs(n_per_class=90, seed=11)
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=max_depth, random_state=5
        ).fit(X, y)
        assert_fast_path_identical(forest, X + 0.3)

    @pytest.mark.parametrize("max_features", [1.0, 0.5])
    @pytest.mark.parametrize("max_samples", [1.0, 0.6])
    def test_bagging_feature_subsets(self, max_features, max_samples):
        # Bagging's per-member feature subsets exercise the global
        # feature remapping of the flattened node tensor.
        X, y = make_blobs(n_per_class=90, n_features=9, seed=12)
        bag = BaggingClassifier(
            n_estimators=25,
            max_features=max_features,
            max_samples=max_samples,
            random_state=6,
        ).fit(X, y)
        assert_fast_path_identical(bag, X - 0.1)

    def test_overlapping_classes_disagreeing_members(self):
        # Heavy class overlap makes members disagree, stressing vote
        # columns rather than unanimous rows.
        X, y = make_blobs(n_per_class=100, separation=0.4, seed=13)
        forest = RandomForestClassifier(n_estimators=31, random_state=7).fit(X, y)
        assert_fast_path_identical(forest, X)

    def test_multiclass_votes(self):
        X, y = multiclass_blobs()
        forest = RandomForestClassifier(n_estimators=15, random_state=8).fit(X, y)
        assert_fast_path_identical(forest, X)

    def test_string_class_labels(self):
        X, y_int = make_blobs(n_per_class=60, seed=14)
        y = np.array(["benign", "malware"])[y_int]
        forest = RandomForestClassifier(n_estimators=9, random_state=9).fit(X, y)
        votes = forest.decisions_fast(X)
        assert votes.dtype == forest.classes_.dtype
        assert_fast_path_identical(forest, X)

    def test_float_class_labels(self):
        X, y_int = make_blobs(n_per_class=60, seed=15)
        y = np.array([-1.5, 2.25])[y_int]
        bag = BaggingClassifier(n_estimators=10, random_state=10).fit(X, y)
        assert_fast_path_identical(bag, X)

    def test_stump_and_single_node_trees(self):
        X, y = make_blobs(n_per_class=60, seed=16)
        stumps = BaggingClassifier(
            DecisionTreeClassifier(max_depth=1), n_estimators=12, random_state=11
        ).fit(X, y)
        assert_fast_path_identical(stumps, X)
        # max_depth=0 trees are single leaf nodes: traversal depth 0.
        leaves = BaggingClassifier(
            DecisionTreeClassifier(max_depth=0), n_estimators=5, random_state=12
        ).fit(X, y)
        assert_fast_path_identical(leaves, X)

    def test_large_batch_chunking(self):
        # Batches larger than the traversal chunk must stitch cleanly.
        X, y = make_blobs(n_per_class=90, seed=18)
        forest = RandomForestClassifier(n_estimators=110, random_state=15).fit(X, y)
        X_big = np.vstack([X] * 40)  # 7200 rows x 110 members
        assert_fast_path_identical(forest, X_big)

    def test_single_row_batches(self):
        X, y = make_blobs(n_per_class=60, seed=19)
        forest = RandomForestClassifier(n_estimators=21, random_state=16).fit(X, y)
        for row in X[:5]:
            assert_fast_path_identical(forest, row.reshape(1, -1))


class TestRoutingReductions:
    """Leaves and counts of the one routing loop vs. the legacy loop."""

    @pytest.fixture(scope="class")
    def deep_forest(self):
        # Overlapping classes grow deep, ragged trees: slots settle at
        # very different depths, so the active set shrinks in steps.
        X, y = make_blobs(n_per_class=150, separation=0.5, seed=31)
        forest = RandomForestClassifier(n_estimators=40, random_state=3).fit(X, y)
        return forest, X

    @pytest.mark.parametrize("mode", ["flat"])
    @pytest.mark.parametrize("rows", ["one", "chunk", "chunk+1"])
    def test_chunk_boundaries(self, deep_forest, mode, rows):
        forest, X = deep_forest
        chunk = chunk_rows(forest.compile(mode=mode))
        n = {"one": 1, "chunk": chunk, "chunk+1": chunk + 1}[rows]
        probe = X[np.random.default_rng(n).integers(len(X), size=n)] + 0.01
        assert_reductions_match_legacy(forest, probe, mode)

    @pytest.mark.parametrize("mode", ["flat"])
    def test_stump_members(self, mode):
        X, y = make_blobs(n_per_class=80, seed=32)
        stumps = RandomForestClassifier(
            n_estimators=30, max_depth=1, random_state=4
        ).fit(X, y)
        assert stumps.compile(mode=mode).max_depth == 1
        assert_reductions_match_legacy(stumps, np.vstack([X] * 30), mode)

    @pytest.mark.parametrize("mode", ["flat"])
    def test_repeated_compaction(self, deep_forest, mode, monkeypatch):
        forest, X = deep_forest
        backend = forest.compile(mode=mode)
        rows = np.random.default_rng(5).integers(len(X), size=chunk_rows(backend))
        probe = X[rows]
        assert_reductions_match_legacy(forest, probe, mode)
        # One chunk's traversal: the active set stepped by the loop
        # shrank (a compaction) more than once.
        sizes = []
        advance = backend._advance

        def spy(rec, node, x, rows):
            sizes.append(len(node))
            return advance(rec, node, x, rows)

        monkeypatch.setattr(backend, "_advance", spy)
        backend.apply(probe)
        assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 2, sizes


@pytest.mark.usefixtures("numpy_kernel")
class TestRoutingReductionsNumpy(TestRoutingReductions):
    """The same reductions with the numpy loop counting: the class
    above counts through the native kernel wherever it is built."""


class TestHeterogeneousFallback:
    def test_bagging_non_tree_base_falls_back(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        bag = BaggingClassifier(
            LogisticRegression(max_iter=200), n_estimators=6, random_state=3
        ).fit(X_train, y_train)
        assert bag.compile() is None
        assert_fast_path_identical(bag, X_test)


class TestCompileCache:
    def test_compile_is_cached(self, blobs_split):
        X_train, _, y_train, _ = blobs_split
        forest = RandomForestClassifier(n_estimators=8, random_state=0).fit(
            X_train, y_train
        )
        assert forest.compile() is forest.compile()

    def test_refit_invalidates_backend(self):
        X1, y1 = make_blobs(n_per_class=70, seed=20)
        X2, y2 = make_blobs(n_per_class=70, n_features=6, separation=1.0, seed=21)
        forest = RandomForestClassifier(n_estimators=12, random_state=1).fit(X1, y1)
        first = forest.compile()
        forest.fit(X2, y2)
        second = forest.compile()
        assert first is not second
        # Votes after the refit must match a never-compiled clone.
        reference = RandomForestClassifier(n_estimators=12, random_state=1).fit(
            X2, y2
        )
        np.testing.assert_array_equal(
            forest.decisions_fast(X2), reference.decisions(X2)
        )

    def test_flat_forest_exposes_structure(self, blobs_split):
        X_train, _, y_train, _ = blobs_split
        forest = RandomForestClassifier(n_estimators=5, random_state=2).fit(
            X_train, y_train
        )
        flat = forest.compile()
        total_nodes = sum(t.tree_.node_count for t in forest.estimators_)
        assert flat.n_nodes == total_nodes
        assert flat.n_members == 5
        assert flat.max_depth == max(t.tree_.max_depth() for t in forest.estimators_)

    def test_compile_flat_forest_direct(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        forest = RandomForestClassifier(n_estimators=6, random_state=4).fit(
            X_train, y_train
        )
        flat = compile_flat_forest(
            forest.estimators_, forest.classes_, forest.n_features_in_
        )
        np.testing.assert_array_equal(
            flat.decisions(X_test), forest.decisions(X_test)
        )


class TestSingleTreeDelegation:
    def test_apply_matches_tree_structure(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        tree = DecisionTreeClassifier(random_state=0).fit(X_train, y_train)
        np.testing.assert_array_equal(tree.apply(X_test), tree.tree_.apply(X_test))

    def test_predict_proba_matches_leaf_counts(self, blobs_split):
        X_train, X_test, y_train, _ = blobs_split
        tree = DecisionTreeClassifier(random_state=0).fit(X_train, y_train)
        leaves = tree.tree_.apply(X_test)
        counts = tree.tree_.value[leaves]
        expected = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(tree.predict_proba(X_test), expected)

    def test_refit_invalidates_single_tree_backend(self):
        X1, y1 = make_blobs(n_per_class=50, seed=22)
        X2, y2 = make_blobs(n_per_class=50, separation=1.2, seed=23)
        tree = DecisionTreeClassifier(random_state=3).fit(X1, y1)
        tree.apply(X1)  # compiles against the first tree
        tree.fit(X2, y2)
        np.testing.assert_array_equal(tree.apply(X2), tree.tree_.apply(X2))

    def test_export_text_renders_flat_arrays(self, blobs_split):
        X_train, _, y_train, _ = blobs_split
        tree = DecisionTreeClassifier(max_depth=2, random_state=0).fit(
            X_train, y_train
        )
        text = tree.export_text()
        assert "<=" in text and ">" in text
        assert "class:" in text
        # One rendered line per reachable node within the depth cap.
        assert len(text.splitlines()) >= 3
        named = tree.export_text(feature_names=[f"s{i}" for i in range(6)])
        assert "s" in named.split("<=")[0]

    def test_export_text_stump(self):
        X, y = make_blobs(n_per_class=30, seed=24)
        stump = DecisionTreeClassifier(max_depth=0, random_state=0).fit(X, y)
        assert stump.export_text().startswith("|--- class:")
