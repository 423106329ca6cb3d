"""CART decision-tree classifier (from scratch, NumPy-vectorised).

This is the base learner behind both the Random Forest and the bagging
ensembles used throughout the paper.  The implementation favours the
array-based layout used by mature tree libraries:

* the fitted tree lives in flat arrays (``feature``, ``threshold``,
  ``children_left``, ``children_right``, ``value``) rather than node
  objects, which makes prediction a vectorised level-by-level routing
  loop instead of a per-sample Python walk;
* split search at each node is vectorised across *all* candidate
  features and split positions simultaneously via cumulative class
  counts over per-feature argsorts.

Two growers share this storage format (``grower`` parameter):

* ``"exact"`` (default) — the per-node argsort CART above;
* ``"hist"`` — the histogram-binned grower from
  :mod:`repro.ml.training`: features are quantile-binned once into
  ``uint8`` codes and each node accumulates per-bin class counts
  instead of sorting, with sibling subtraction.  Thresholds are real
  bin-edge values, so hist-grown trees predict on raw inputs and
  compile into the flattened inference backend unchanged.

``sample_weight`` is native and fractional for both growers: weights
enter the class counts (values, impurities, gains) directly, while the
structural ``min_samples_*`` limits keep counting raw samples.  The
old contract — integer weights applied by row replication — is
subsumed: under the default ``min_samples_*`` limits integer weights
produce the same splits without the memory blowup (gains are identical
either way; non-default limits now count raw rows where replication
counted duplicated ones), and the old "integer weights only" rejection
is retired.

Supported criteria: ``"gini"`` (default) and ``"entropy"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backend import BackendCompileError, compile_flat_forest
from .base import BaseEstimator, ClassifierMixin
from .validation import (
    check_random_state,
    check_sample_weight,
    check_X_y,
    column_or_1d,
)

__all__ = ["DecisionTreeClassifier", "TreeStructure"]

_NO_FEATURE = -1


@dataclass
class TreeStructure:
    """Flat-array storage for a fitted binary decision tree.

    ``feature[i] == -1`` marks node ``i`` as a leaf.  ``value[i]`` holds
    the class-count distribution of training samples that reached the
    node; prediction normalises it into probabilities.
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    children_left: list[int] = field(default_factory=list)
    children_right: list[int] = field(default_factory=list)
    value: list[np.ndarray] = field(default_factory=list)
    impurity: list[float] = field(default_factory=list)
    n_node_samples: list[int] = field(default_factory=list)

    def add_node(self, value: np.ndarray, impurity: float, n_samples: int) -> int:
        """Append a (provisional leaf) node; returns its index."""
        self.feature.append(_NO_FEATURE)
        self.threshold.append(0.0)
        self.children_left.append(-1)
        self.children_right.append(-1)
        self.value.append(value)
        self.impurity.append(impurity)
        self.n_node_samples.append(n_samples)
        return len(self.feature) - 1

    def finalize(self) -> None:
        """Convert the per-node lists into contiguous arrays."""
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.children_left = np.asarray(self.children_left, dtype=np.int64)
        self.children_right = np.asarray(self.children_right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.impurity = np.asarray(self.impurity, dtype=np.float64)
        self.n_node_samples = np.asarray(self.n_node_samples, dtype=np.int64)

    @property
    def node_count(self) -> int:
        """Total number of nodes (internal + leaves)."""
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.sum(np.asarray(self.feature) == _NO_FEATURE))

    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0).

        Vectorised frontier descent over the flat child arrays: each
        step gathers the whole next level at once, so the Python loop
        runs once per *level*, not once per node.
        """
        if not self.node_count:
            return 0
        left = np.asarray(self.children_left)
        right = np.asarray(self.children_right)
        depth = 0
        frontier = np.array([0], dtype=np.int64)
        while True:
            kids = np.concatenate([left[frontier], right[frontier]])
            kids = kids[kids >= 0]
            if kids.size == 0:
                return depth
            frontier = kids
            depth += 1

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Route each row of ``X`` to its leaf index (vectorised)."""
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        feature = self.feature
        while True:
            node_feature = feature[node]
            internal = node_feature >= 0
            if not internal.any():
                return node
            idx = np.flatnonzero(internal)
            f = node_feature[idx]
            thr = self.threshold[node[idx]]
            go_left = X[idx, f] <= thr
            next_node = np.where(
                go_left,
                self.children_left[node[idx]],
                self.children_right[node[idx]],
            )
            node[idx] = next_node

    def export_text(
        self,
        *,
        feature_names: list[str] | None = None,
        class_names: list[str] | None = None,
        decimals: int = 3,
        max_depth: int | None = None,
    ) -> str:
        """Pretty-print the tree directly from its flat arrays.

        Renders depth-first, sklearn-style::

            |--- feature_2 <= 0.450
            |   |--- class: malware  (n=12)
            |--- feature_2 >  0.450
            |   |--- class: benign  (n=30)

        All structure (children, thresholds, leaf values) is read from
        the flat storage — no per-node object graph is rebuilt.
        """
        if not self.node_count:
            return "(empty tree)"
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.children_left)
        right = np.asarray(self.children_right)
        value = np.asarray(self.value)
        n_samples = np.asarray(self.n_node_samples)

        def name_of(f: int) -> str:
            if feature_names is not None:
                return str(feature_names[f])
            return f"feature_{f}"

        def label_of(node: int) -> str:
            k = int(np.argmax(value[node]))
            if class_names is not None:
                return str(class_names[k])
            return f"class_{k}"

        lines: list[str] = []
        # LIFO work list of lines to emit and subtrees to expand.
        stack: list[str | tuple[int, int]] = [(0, 0)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                lines.append(item)
                continue
            node, depth = item
            prefix = "|   " * depth + "|--- "
            if feature[node] == _NO_FEATURE:
                lines.append(
                    f"{prefix}class: {label_of(node)}  (n={int(n_samples[node])})"
                )
                continue
            if max_depth is not None and depth >= max_depth:
                lines.append(f"{prefix}...")
                continue
            fname = name_of(int(feature[node]))
            thr = float(threshold[node])
            lines.append(f"{prefix}{fname} <= {thr:.{decimals}f}")
            stack.append((int(right[node]), depth + 1))
            stack.append(f"{prefix}{fname} >  {thr:.{decimals}f}")
            stack.append((int(left[node]), depth + 1))
        return "\n".join(lines)


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of class-count vectors along the last axis."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
    if criterion == "gini":
        return 1.0 - np.sum(p * p, axis=-1)
    if criterion == "entropy":
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0, np.log2(np.where(p > 0, p, 1.0)), 0.0)
        return -np.sum(p * logp, axis=-1)
    raise ValueError(f"Unknown criterion {criterion!r}; use 'gini' or 'entropy'.")


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART classifier with axis-aligned binary splits.

    Parameters
    ----------
    criterion:
        ``"gini"`` or ``"entropy"`` split quality.
    max_depth:
        Maximum tree depth; ``None`` grows until purity/limits.
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples in each child of a split.
    max_features:
        Features examined per split: ``None`` (all), ``"sqrt"``,
        ``"log2"``, an int, or a float fraction.  Random Forest passes
        ``"sqrt"``.
    min_impurity_decrease:
        Minimum weighted impurity decrease required for a split.
    grower:
        ``"exact"`` (per-node argsort CART) or ``"hist"`` (histogram-
        binned growth over quantile bin codes; see
        :mod:`repro.ml.training`).
    max_bins:
        Bins per feature for the ``"hist"`` grower (2..256); ignored by
        the exact grower.
    random_state:
        Seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        *,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        min_impurity_decrease: float = 0.0,
        grower: str = "exact",
        max_bins: int = 256,
        random_state: int | np.random.Generator | None = None,
    ):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.grower = grower
        self.max_bins = max_bins
        self.random_state = random_state

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features)))
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError(f"max_features fraction must be in (0, 1]; got {mf}.")
            return max(1, int(mf * n_features))
        if isinstance(mf, (int, np.integer)):
            if not 1 <= mf <= n_features:
                raise ValueError(
                    f"max_features={mf} out of range [1, {n_features}]."
                )
            return int(mf)
        raise ValueError(f"Unsupported max_features: {mf!r}.")

    def _check_growth_params(self) -> None:
        if self.grower not in ("exact", "hist"):
            raise ValueError(
                f"grower must be 'exact' or 'hist'; got {self.grower!r}."
            )
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2.")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1.")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None.")

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)``.

        ``sample_weight`` accepts arbitrary non-negative (fractional)
        weights, applied natively: weighted class counts drive values,
        impurities and gains, while ``min_samples_*`` limits count raw
        samples.  Under the default ``min_samples_*`` limits, integer
        weights reproduce the retired replicate-rows behaviour without
        the blowup (with non-default limits the raw-sample currency
        differs from replication's duplicated-row counts).
        """
        X, y = check_X_y(X, y)
        self._check_growth_params()
        weights = None
        if sample_weight is not None:
            weights = check_sample_weight(sample_weight, len(y))
            nonzero = weights > 0
            if not nonzero.any():
                raise ValueError("All sample weights are zero.")
            if not nonzero.all():
                X, y, weights = X[nonzero], y[nonzero], weights[nonzero]

        if self.grower == "hist":
            from .training import BinMapper, BinnedDataset

            binned = BinnedDataset(BinMapper(max_bins=self.max_bins), X)
            return self._fit_binned(binned.view(), y, sample_weight=weights)

        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        self.n_classes_ = len(self.classes_)
        self.n_features_in_ = X.shape[1]

        rng = check_random_state(self.random_state)
        n_candidate_features = self._resolve_max_features(self.n_features_in_)
        tree = TreeStructure()
        criterion = self.criterion
        max_depth = np.inf if self.max_depth is None else self.max_depth

        onehot = np.eye(self.n_classes_, dtype=np.float64)[y_encoded]
        if weights is not None:
            onehot = onehot * weights[:, None]

        # Depth-first growth; each stack entry is (sample_indices, depth,
        # parent_node, is_left_child).  Parent linkage patched after child
        # creation.
        root_counts = onehot.sum(axis=0)
        total_weight = float(root_counts.sum())
        root = tree.add_node(root_counts, float(_impurity(root_counts, criterion)), len(y))
        stack: list[tuple[np.ndarray, int, int]] = [(np.arange(len(y)), 0, root)]

        while stack:
            indices, depth, node_id = stack.pop()
            n_node = len(indices)
            counts = tree.value[node_id]
            node_impurity = tree.impurity[node_id]

            if (
                depth >= max_depth
                or n_node < self.min_samples_split
                or n_node < 2 * self.min_samples_leaf
                or node_impurity <= 1e-12
            ):
                continue  # stays a leaf

            split = self._best_split(
                X, onehot, indices, counts, node_impurity,
                n_candidate_features, rng, criterion,
            )
            if split is None:
                continue
            feature_idx, threshold, gain = split
            if gain * counts.sum() / total_weight < self.min_impurity_decrease:
                continue

            go_left = X[indices, feature_idx] <= threshold
            left_indices = indices[go_left]
            right_indices = indices[~go_left]
            if (
                len(left_indices) < self.min_samples_leaf
                or len(right_indices) < self.min_samples_leaf
            ):
                continue

            left_counts = onehot[left_indices].sum(axis=0)
            right_counts = counts - left_counts
            left_id = tree.add_node(
                left_counts, float(_impurity(left_counts, criterion)), len(left_indices)
            )
            right_id = tree.add_node(
                right_counts, float(_impurity(right_counts, criterion)), len(right_indices)
            )
            tree.feature[node_id] = feature_idx
            tree.threshold[node_id] = threshold
            tree.children_left[node_id] = left_id
            tree.children_right[node_id] = right_id
            stack.append((right_indices, depth + 1, right_id))
            stack.append((left_indices, depth + 1, left_id))

        tree.finalize()
        self.tree_ = tree
        # Any compiled flat backend refers to the previous tree.
        self.__dict__.pop("_backend_cache_", None)
        return self

    def _fit_binned(self, view, y, sample_weight=None) -> "DecisionTreeClassifier":
        """Grow from an already-binned dataset view (no re-binning).

        The ensemble fast path: Bagging/RF bin the training set once
        (:class:`~repro.ml.training.BinnedDataset`) and every member
        grows from the shared codes.  ``sample_weight`` carries
        bootstrap multiplicities natively;
        zero-weight rows are excluded from growth without copying the
        code matrix.
        """
        from .training import grow_tree_binned

        self._check_growth_params()
        y = column_or_1d(y)
        if len(y) != view.n_rows:
            raise ValueError(
                f"y has {len(y)} entries but the binned view has "
                f"{view.n_rows} rows."
            )
        rows = None
        weights = None
        if sample_weight is not None:
            weights = check_sample_weight(sample_weight, len(y))
            rows = np.flatnonzero(weights > 0).astype(np.intp)
            if rows.size == 0:
                raise ValueError("All sample weights are zero.")
        self.classes_ = np.unique(y if rows is None else y[rows])
        self.n_classes_ = len(self.classes_)
        self.n_features_in_ = view.n_features
        # Clip keeps excluded (zero-weight) rows' codes in range; their
        # labels never enter any histogram or prefix sum.
        y_encoded = np.clip(
            np.searchsorted(self.classes_, y), 0, self.n_classes_ - 1
        )
        self.tree_ = grow_tree_binned(
            view,
            y_encoded,
            self.n_classes_,
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            n_candidate_features=self._resolve_max_features(view.n_features),
            sample_weight=weights,
            rows=rows,
            random_state=self.random_state,
        )
        self.__dict__.pop("_backend_cache_", None)
        return self

    def _best_split(
        self,
        X: np.ndarray,
        onehot: np.ndarray,
        indices: np.ndarray,
        counts: np.ndarray,
        node_impurity: float,
        n_candidate_features: int,
        rng: np.random.Generator,
        criterion: str,
    ) -> tuple[int, float, float] | None:
        """Best (feature, threshold, impurity_gain) over a feature subset.

        Vectorised: for the chosen features, all node samples are sorted
        per feature, class counts are accumulated with prefix sums and
        the impurity of every admissible split position is evaluated at
        once.
        """
        n_node = len(indices)
        n_features = X.shape[1]
        if n_candidate_features < n_features:
            feats = rng.choice(n_features, size=n_candidate_features, replace=False)
        else:
            feats = np.arange(n_features)

        Xn = X[np.ix_(indices, feats)]              # (n_node, n_feats)
        order = np.argsort(Xn, axis=0, kind="stable")
        Xs = np.take_along_axis(Xn, order, axis=0)   # sorted values

        yn = onehot[indices]                         # (n_node, n_classes)
        # sorted class indicators per feature: (n_node, n_feats, n_classes)
        ys = yn[order]
        left_counts = np.cumsum(ys, axis=0)          # counts left of each cut
        total = counts[None, None, :]
        right_counts = total - left_counts

        # Split after position i uses threshold between Xs[i] and Xs[i+1].
        # Admissible cuts: value actually changes and both sides satisfy
        # min_samples_leaf.
        cuts = slice(self.min_samples_leaf - 1, n_node - self.min_samples_leaf)
        lc = left_counts[cuts]                       # (n_cuts, n_feats, k)
        rc = right_counts[cuts]
        if lc.shape[0] == 0:
            return None
        value_changes = Xs[cuts.start + 1 : cuts.stop + 1] > Xs[cuts]

        # Weighted child totals; equals the positional counts when the
        # fit is unweighted (onehot rows then sum to exactly 1).
        n_left = lc.sum(axis=-1)
        n_right = rc.sum(axis=-1)
        child_impurity = (
            n_left * _impurity(lc, criterion) + n_right * _impurity(rc, criterion)
        ) / counts.sum()
        gain = node_impurity - child_impurity
        gain = np.where(value_changes, gain, -np.inf)

        best_flat = int(np.argmax(gain))
        best_cut, best_feat_pos = np.unravel_index(best_flat, gain.shape)
        best_gain = gain[best_cut, best_feat_pos]
        if not np.isfinite(best_gain) or best_gain <= 1e-12:
            return None

        row = cuts.start + best_cut
        lo = Xs[row, best_feat_pos]
        hi = Xs[row + 1, best_feat_pos]
        threshold = float(lo + (hi - lo) / 2.0)
        if threshold == hi:  # guard midpoint rounding into the right side
            threshold = float(lo)
        return int(feats[best_feat_pos]), threshold, float(best_gain)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def __getstate__(self):
        # The compiled backend is a cache, never state: a pickle carries
        # none, and one found in an older pickle is dropped on load.
        state = self.__dict__.copy()
        state.pop("_backend_cache_", None)
        return state

    def __setstate__(self, state):
        state.pop("_backend_cache_", None)
        self.__dict__.update(state)

    def _flat(self):
        """Compiled single-member flat backend (cached per fitted tree).

        Node ids in the compiled tensor coincide with the tree's own
        flat-array indices (single member, zero offset), so the two
        storages are interchangeable.  ``None`` when compilation is
        unsupported (callers use ``tree_.apply`` directly).
        """
        cache = getattr(self, "_backend_cache_", None)
        if cache is not None and cache[0] is self.tree_:
            return cache[1]
        try:
            backend = compile_flat_forest(
                [self], self.classes_, self.n_features_in_
            )
        except BackendCompileError:
            backend = None
        self._backend_cache_ = (self.tree_, backend)
        return backend

    def _apply_validated(self, X: np.ndarray) -> np.ndarray:
        """Leaf ids for already-validated input, via the flat backend."""
        backend = self._flat()
        if backend is None:
            return self.tree_.apply(X)
        return backend.apply(X)[:, 0]

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities = normalised class counts at the leaf."""
        X = self._check_predict_input(X)
        counts = self.tree_.value[self._apply_validated(X)]
        totals = counts.sum(axis=1, keepdims=True)
        return counts / totals

    def predict(self, X) -> np.ndarray:
        """Most probable class per sample."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def apply(self, X) -> np.ndarray:
        """Leaf index for each sample."""
        X = self._check_predict_input(X)
        return self._apply_validated(X)

    def export_text(
        self,
        *,
        feature_names: list[str] | None = None,
        decimals: int = 3,
        max_depth: int | None = None,
    ) -> str:
        """Human-readable rendering of the fitted tree (flat-array walk)."""
        from .validation import check_is_fitted

        check_is_fitted(self)
        return self.tree_.export_text(
            feature_names=feature_names,
            class_names=[str(c) for c in self.classes_],
            decimals=decimals,
            max_depth=max_depth,
        )

    def get_depth(self) -> int:
        """Depth of the fitted tree."""
        return self.tree_.max_depth()

    def get_n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        return self.tree_.n_leaves

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalised to sum to 1.

        One vectorised pass over the flat arrays: the weighted impurity
        decrease of every internal node is computed at once and summed
        into its split feature with a weighted bincount.
        """
        tree = self.tree_
        feature = np.asarray(tree.feature)
        internal = np.flatnonzero(feature >= 0)
        if internal.size == 0:
            return np.zeros(self.n_features_in_)
        impurity = np.asarray(tree.impurity)
        # Weighted node totals (= sample counts for unweighted fits),
        # so weighted trees weigh decreases by the mass they act on.
        n_node = np.asarray(tree.value).sum(axis=1)
        left = np.asarray(tree.children_left)[internal]
        right = np.asarray(tree.children_right)[internal]
        decrease = n_node[internal] * impurity[internal] - (
            n_node[left] * impurity[left] + n_node[right] * impurity[right]
        )
        importances = np.bincount(
            feature[internal], weights=decrease, minlength=self.n_features_in_
        )
        total = importances.sum()
        return importances / total if total > 0 else importances
