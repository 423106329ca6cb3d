"""Ensemble classifiers: bagging and random forest.

The paper's uncertainty estimator is built directly on top of
:class:`BaggingClassifier`: bagging draws bootstrap replicates of the
training set (Breiman 1996), fits one base classifier per replicate, and
— crucially for the paper — exposes the fitted base classifiers via the
``estimators_`` attribute so the Uncertainty Estimator module can form
the *frequency distribution of their individual decisions* (Fig. 2,
Eq. 3-4 of the paper).

Both ensembles share the :class:`~repro.ml.backend.CompiledVotePath`
mixin: ``decisions`` is the legacy per-member reference loop, while
``decisions_fast`` / ``vote_distribution`` / ``predict`` route through
the flattened single-tensor backend (bitwise-identical votes, compiled
lazily and invalidated on refit).

Histogram-binned fitting: with tree members grown by the ``"hist"``
grower (:mod:`repro.ml.training`), the training set is quantile-binned
**once** and all M members grow from the same shared code matrix —
bootstrap replicates become per-member multiplicity weights instead of
row copies.  Those ensembles additionally support
:meth:`~repro.ml.training.BinnedPartialRefitMixin.partial_refit`:
analyst-labelled rows are appended to the binned growth buffer and all
members refit with warm bin edges, which is what makes live retraining
inside the fleet engine affordable.
"""

from __future__ import annotations

import numpy as np

from .backend import CompiledVotePath
from .base import BaseEstimator, ClassifierMixin, clone
from .exceptions import ConvergenceError
from .training import BinMapper, BinnedDataset, BinnedPartialRefitMixin
from .tree import DecisionTreeClassifier
from .validation import check_random_state, check_X_y

__all__ = ["BaggingClassifier", "RandomForestClassifier"]


def _resolve_count(value: int | float, total: int, name: str) -> int:
    """Interpret an int (absolute) or float (fraction) sampling size."""
    if isinstance(value, float):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"{name} fraction must be in (0, 1]; got {value}.")
        return max(1, int(round(value * total)))
    count = int(value)
    if not 1 <= count <= total:
        raise ValueError(f"{name}={value} out of range [1, {total}].")
    return count


class BaggingClassifier(
    CompiledVotePath, BinnedPartialRefitMixin, BaseEstimator, ClassifierMixin
):
    """Bootstrap-aggregating ensemble over an arbitrary base classifier.

    Parameters
    ----------
    estimator:
        Prototype base classifier; one unfitted clone is trained per
        bootstrap replicate.  Defaults to a decision tree.
    n_estimators:
        Ensemble size M.  The paper finds entropy estimates stabilise
        for M ≳ 20 (Fig. 9a) and uses M = 100 for headline results.
    max_samples:
        Bootstrap replicate size (int or fraction of n).
    max_features:
        Feature subsample per replicate (int or fraction).
    bootstrap:
        Sample with replacement (True = classic bagging).
    on_base_failure:
        What to do when a base classifier raises
        :class:`ConvergenceError` during fit: ``"raise"`` (default)
        propagates — this is how the HPC/SVM "failed to converge"
        observation from Section V.B surfaces — while ``"skip"`` drops
        the replicate (at least one must survive).
    """

    def __init__(
        self,
        estimator: BaseEstimator | None = None,
        *,
        n_estimators: int = 10,
        max_samples: int | float = 1.0,
        max_features: int | float = 1.0,
        bootstrap: bool = True,
        on_base_failure: str = "raise",
        random_state: int | np.random.Generator | None = None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.on_base_failure = on_base_failure
        self.random_state = random_state

    def _make_base(self) -> BaseEstimator:
        prototype = self.estimator
        if prototype is None:
            prototype = DecisionTreeClassifier()
        return clone(prototype)

    def fit(self, X, y) -> "BaggingClassifier":
        """Fit ``n_estimators`` clones on bootstrap replicates.

        Tree prototypes with ``grower="hist"`` take the shared-binned
        path: the training set is binned once, bootstrap replicates
        become multiplicity weights, and all members grow from the same
        code matrix (enabling :meth:`partial_refit`).
        """
        X, y = check_X_y(X, y)
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1.")
        if self.on_base_failure not in ("raise", "skip"):
            raise ValueError(
                f"on_base_failure must be 'raise' or 'skip'; got {self.on_base_failure!r}."
            )
        self._invalidate_backend()
        rng = check_random_state(self.random_state)
        self.classes_ = np.unique(y)
        self.n_features_in_ = X.shape[1]
        prototype = (
            self.estimator if self.estimator is not None else DecisionTreeClassifier()
        )
        if (
            isinstance(prototype, DecisionTreeClassifier)
            and getattr(prototype, "grower", "exact") == "hist"
        ):
            self._binned_ = BinnedDataset(BinMapper(max_bins=prototype.max_bins), X)
            self._train_y_ = y
            self._refit_members(rng)
        else:
            self._binned_ = None
            self._fit_members_exact(rng, X, y)
        return self

    def _fit_members_exact(self, rng, X, y) -> None:
        """The legacy member loop: materialised bootstrap replicates."""
        n_samples, n_features = X.shape
        n_draw = _resolve_count(self.max_samples, n_samples, "max_samples")
        n_feats = _resolve_count(self.max_features, n_features, "max_features")

        self.estimators_: list[BaseEstimator] = []
        self.estimators_features_: list[np.ndarray] = []
        self.estimators_samples_: list[np.ndarray] = []

        attempts = 0
        max_attempts = self.n_estimators * 3
        while len(self.estimators_) < self.n_estimators:
            attempts += 1
            if attempts > max_attempts:
                raise ConvergenceError(
                    f"Unable to fit {self.n_estimators} base classifiers after "
                    f"{max_attempts} attempts (too many ConvergenceErrors)."
                )
            sample_idx, feature_idx = self._draw_replicate(
                rng, n_samples, n_draw, n_features, n_feats, y
            )
            if sample_idx is None:
                continue
            base = self._make_base()
            if "random_state" in base.get_params():
                base.set_params(random_state=int(rng.integers(2**32)))
            try:
                base.fit(X[np.ix_(sample_idx, feature_idx)], y[sample_idx])
            except ConvergenceError:
                if self.on_base_failure == "raise":
                    raise
                continue
            self.estimators_.append(base)
            self.estimators_features_.append(feature_idx)
            self.estimators_samples_.append(sample_idx)

    def _refit_members(self, rng) -> None:
        """The shared-binned member loop (fit and partial_refit)."""
        binned = self._binned_
        y = self._train_y_
        n_samples = binned.n_rows
        n_features = binned.n_features
        n_draw = _resolve_count(self.max_samples, n_samples, "max_samples")
        n_feats = _resolve_count(self.max_features, n_features, "max_features")

        self.estimators_ = []
        self.estimators_features_ = []
        self.estimators_samples_ = []
        full_view = binned.view()
        attempts = 0
        max_attempts = self.n_estimators * 3
        while len(self.estimators_) < self.n_estimators:
            attempts += 1
            if attempts > max_attempts:
                raise ConvergenceError(
                    f"Unable to draw {self.n_estimators} class-complete "
                    f"replicates in {max_attempts} attempts."
                )
            sample_idx, feature_idx = self._draw_replicate(
                rng, n_samples, n_draw, n_features, n_feats, y
            )
            if sample_idx is None:
                continue
            view = (
                full_view if len(feature_idx) == n_features
                else binned.view(feature_idx)
            )
            # Bootstrap multiplicities ride as native weights: no row
            # replication, no per-member copy of the training matrix.
            weights = np.bincount(sample_idx, minlength=n_samples).astype(
                np.float64
            )
            base = self._make_base()
            if "random_state" in base.get_params():
                base.set_params(random_state=int(rng.integers(2**32)))
            base._fit_binned(view, y, sample_weight=weights)
            self.estimators_.append(base)
            self.estimators_features_.append(feature_idx)
            self.estimators_samples_.append(sample_idx)

    def _draw_replicate(self, rng, n_samples, n_draw, n_features, n_feats, y):
        """One bootstrap (rows, columns) draw; rows ``None`` on class miss."""
        if self.bootstrap:
            sample_idx = rng.integers(0, n_samples, size=n_draw)
        else:
            sample_idx = rng.permutation(n_samples)[:n_draw]
        # Guarantee every class appears in the replicate so each base
        # classifier sees the full label set.
        if len(np.unique(y[sample_idx])) < len(self.classes_):
            return None, None
        if n_feats < n_features:
            feature_idx = np.sort(
                rng.choice(n_features, size=n_feats, replace=False)
            )
        else:
            feature_idx = np.arange(n_features)
        return sample_idx, feature_idx

    # decisions / decisions_fast / vote_distribution / predict come from
    # CompiledVotePath; member feature subsets are folded into the
    # compiled node tensor via estimators_features_.

    def predict_proba(self, X) -> np.ndarray:
        """Ensemble probability = member vote fractions."""
        return self.vote_distribution(X)


class RandomForestClassifier(
    CompiledVotePath, BinnedPartialRefitMixin, BaseEstimator, ClassifierMixin
):
    """Random forest = bagged CART trees with per-split feature subsampling.

    Exposes the same ``estimators_`` / ``decisions`` /
    ``decisions_fast`` interface as :class:`BaggingClassifier` so the
    uncertainty estimator treats both uniformly.  With
    ``grower="hist"`` the forest bins the training set once and grows
    every tree from the shared codes, and supports
    :meth:`partial_refit` for warm-bin online retraining.
    """

    def __init__(
        self,
        *,
        n_estimators: int = 100,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        max_samples: int | float = 1.0,
        grower: str = "exact",
        max_bins: int = 256,
        random_state: int | np.random.Generator | None = None,
    ):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.max_samples = max_samples
        self.grower = grower
        self.max_bins = max_bins
        self.random_state = random_state

    def _make_tree(self, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            grower=self.grower,
            max_bins=self.max_bins,
            random_state=seed,
        )

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit ``n_estimators`` randomised trees on bootstrap replicates."""
        X, y = check_X_y(X, y)
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1.")
        self._invalidate_backend()
        rng = check_random_state(self.random_state)
        self.classes_ = np.unique(y)
        self.n_features_in_ = X.shape[1]
        if self.grower == "hist":
            self._binned_ = BinnedDataset(BinMapper(max_bins=self.max_bins), X)
            self._train_y_ = y
            self._refit_members(rng)
            return self
        self._binned_ = None
        n_samples = X.shape[0]
        n_draw = _resolve_count(self.max_samples, n_samples, "max_samples")
        self.estimators_: list[DecisionTreeClassifier] = []
        self.estimators_samples_: list[np.ndarray] = []
        while len(self.estimators_) < self.n_estimators:
            if self.bootstrap:
                sample_idx = rng.integers(0, n_samples, size=n_draw)
            else:
                sample_idx = rng.permutation(n_samples)[:n_draw]
            if len(np.unique(y[sample_idx])) < len(self.classes_):
                continue
            tree = self._make_tree(int(rng.integers(2**32)))
            tree.fit(X[sample_idx], y[sample_idx])
            self.estimators_.append(tree)
            self.estimators_samples_.append(sample_idx)
        return self

    def _refit_members(self, rng) -> None:
        """Shared-binned tree loop: bin once, grow M trees on the codes."""
        binned = self._binned_
        y = self._train_y_
        n_samples = binned.n_rows
        n_draw = _resolve_count(self.max_samples, n_samples, "max_samples")
        view = binned.view()
        self.estimators_ = []
        self.estimators_samples_ = []
        while len(self.estimators_) < self.n_estimators:
            if self.bootstrap:
                sample_idx = rng.integers(0, n_samples, size=n_draw)
            else:
                sample_idx = rng.permutation(n_samples)[:n_draw]
            if len(np.unique(y[sample_idx])) < len(self.classes_):
                continue
            weights = np.bincount(sample_idx, minlength=n_samples).astype(
                np.float64
            )
            tree = self._make_tree(int(rng.integers(2**32)))
            tree._fit_binned(view, y, sample_weight=weights)
            self.estimators_.append(tree)
            self.estimators_samples_.append(sample_idx)

    # decisions / decisions_fast / vote_distribution / predict come from
    # CompiledVotePath.

    def predict_proba(self, X) -> np.ndarray:
        """Mean of per-tree leaf probability estimates."""
        X = self._check_predict_input(X)
        proba = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self.estimators_:
            proba += tree.predict_proba(X)
        return proba / len(self.estimators_)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean impurity-decrease importances across trees."""
        importances = np.zeros(self.n_features_in_)
        for tree in self.estimators_:
            importances += tree.feature_importances_
        total = importances.sum()
        return importances / total if total > 0 else importances

