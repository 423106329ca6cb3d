"""Trusted vs. Untrusted HMD pipelines (Fig. 1 of the paper).

* :class:`UntrustedHMD` — the conventional black-box pipeline: feature
  scaling → (optional) dimensionality reduction → classifier → binary
  benign/malware decision, emitted unconditionally.
* :class:`TrustedHMD` — the proposed pipeline: the classifier is a
  bagging ensemble, an :class:`EnsembleUncertaintyEstimator` measures
  the dispersion of the member decisions, and a
  :class:`RejectionPolicy` withholds decisions whose entropy exceeds
  the operating threshold, flagging them for forensic analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml.backend import FlatForest, QuantizedForest
from ..ml.base import BaseEstimator, clone
from ..ml.decomposition import PCA
from ..ml.preprocessing import StandardScaler
from ..ml.validation import check_array, check_X_y
from .entropy import shannon_entropy, votes_to_distribution
from .estimator import EnsembleUncertaintyEstimator
from .rejection import RejectionPolicy, RejectionResult

__all__ = [
    "UntrustedHMD",
    "TrustedHMD",
    "TrustedVerdict",
    "VoteCountTables",
    "vote_counts",
]


class _FusedFrontMixin:
    """Cached scaler→PCA front collapsed into one affine map.

    Both HMD pipelines standardise and (optionally) project every batch
    before the classifier sees it.  Run naively that is two full passes
    over the batch (subtract/divide, then center/matmul).  Composing the
    two fitted affine maps once — ``Z = X @ weight + bias`` — turns the
    whole front into a single GEMM per batch.

    The fusion is rebuilt at ``fit`` time and after ``partial_refit``
    (which keeps scaler and PCA frozen but must never serve a stale
    front), and only engages when a PCA stage exists: without one the
    scaler is already a single elementwise pass, and keeping the
    original ``(X - mean) / scale`` op order preserves bitwise-identical
    transforms.  With PCA the fused result differs from the two-pass
    reference only by float associativity (≲1e-12 per feature; the
    ingest benchmark gates the drift at 1e-9).
    """

    scaler_: StandardScaler
    pca_: PCA | None

    def _build_fused_front(self) -> None:
        """(Re)compose the cached affine front from the fitted stages."""
        if self.pca_ is None:
            self._front_weight_ = None
            self._front_bias_ = None
            return
        mult, bias = self.scaler_.as_affine()
        weight, offset = self.pca_.as_affine()
        self._front_weight_ = mult[:, None] * weight
        self._front_bias_ = bias @ weight + offset

    def _transform(self, X) -> np.ndarray:
        weight = getattr(self, "_front_weight_", None)
        if weight is None and self.pca_ is not None:
            # Fitted before the fused front existed (e.g. unpickled
            # legacy state): compose it now.
            self._build_fused_front()
            weight = self._front_weight_
        if weight is None:
            return self.scaler_.transform(np.asarray(X, dtype=float))
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        return X @ weight + self._front_bias_


class UntrustedHMD(_FusedFrontMixin, BaseEstimator):
    """Conventional HMD: always emits a binary decision.

    Parameters
    ----------
    model:
        Any classifier following the :mod:`repro.ml` estimator API.
    n_components:
        Optional PCA dimensionality (``None`` disables reduction).
    """

    def __init__(self, model: BaseEstimator, *, n_components: int | float | None = None):
        self.model = model
        self.n_components = n_components

    def fit(self, X, y) -> "UntrustedHMD":
        """Fit scaler → (PCA) → classifier."""
        X, y = check_X_y(X, y)
        self.scaler_ = StandardScaler().fit(X)
        Z = self.scaler_.transform(X)
        if self.n_components is not None:
            self.pca_ = PCA(n_components=self.n_components).fit(Z)
            Z = self.pca_.transform(Z)
        else:
            self.pca_ = None
        self.model_ = clone(self.model)
        self.model_.fit(Z, y)
        self.classes_ = self.model_.classes_
        self.n_features_in_ = X.shape[1]
        self._build_fused_front()
        return self

    def predict(self, X) -> np.ndarray:
        """Unconditional benign/malware decisions."""
        return self.model_.predict(self._transform(X))


@dataclass(frozen=True)
class TrustedVerdict:
    """Output of the trusted HMD for a batch of signatures."""

    predictions: np.ndarray     # benign/malware labels for ALL inputs
    entropy: np.ndarray         # predictive uncertainty per input
    accepted: np.ndarray        # False = withheld for forensic analysis
    threshold: float

    @property
    def rejection_rate(self) -> float:
        """Fraction of withheld decisions."""
        return float(1.0 - self.accepted.mean()) if len(self.accepted) else 0.0

    def flagged_indices(self) -> np.ndarray:
        """Indices of inputs routed to the security analyst."""
        return np.flatnonzero(~self.accepted)


@dataclass(frozen=True, eq=False)
class VoteCountTables:
    """A binary ensemble's verdict for every second-class vote count.

    For two classes, a window's vote distribution — and therefore its
    prediction, Eq. 4 entropy and accept bit — depends only on how many
    of the M members voted for the second class.  Entry ``k`` of each
    table is what :meth:`TrustedHMD.analyze` returns for a window with
    ``k`` such votes, computed by feeding synthetic vote rows through
    the original :func:`votes_to_distribution` / :func:`shannon_entropy`
    (both reduce row-wise), so a table lookup is bitwise the analyze
    result.  ``leaf_is_second`` marks the forest nodes whose leaf votes
    for the second class: summing it over a row's leaves is the count.
    """

    prediction: np.ndarray      # (M + 1,) class label per count
    entropy: np.ndarray         # (M + 1,) Eq. 4 entropy per count
    accept: np.ndarray          # (M + 1,) bool, entropy <= threshold
    leaf_is_second: np.ndarray  # (n_nodes,) int64 0/1 per forest node

    @classmethod
    def build(cls, forest, classes, *, base, threshold) -> "VoteCountTables":
        """Tables for a compiled binary forest at one threshold."""
        m = forest.n_members
        counts = np.arange(m + 1)
        votes = np.where(
            np.arange(m)[None, :] < counts[:, None], classes[1], classes[0]
        )
        distribution = votes_to_distribution(votes, classes)
        entropy = shannon_entropy(distribution, base=base)
        return cls(
            prediction=classes[np.argmax(distribution, axis=1)],
            entropy=entropy,
            accept=entropy <= threshold,
            leaf_is_second=np.ascontiguousarray(
                (forest.leaf_label == classes[-1]).astype(np.int64)
            ),
        )

    def expand(self, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(predictions, entropy, accepted)`` for per-row vote counts."""
        return (
            self.prediction.take(counts),
            self.entropy.take(counts),
            self.accept.take(counts),
        )


def vote_counts(front, forest, leaf_is_second, X) -> np.ndarray:
    """Each row's second-class vote count: the fleet's one verdict value.

    ``front`` is the fused preprocessing map as a pair of arrays —
    ``(weight, bias)`` for ``X @ weight + bias`` (2-D weight, a PCA
    stage) or ``(mean, scale)`` for ``(X - mean) / scale`` (scaler
    only) — exactly the operations of :meth:`TrustedHMD._transform`.
    ``forest`` sums ``leaf_is_second`` over each row's leaves, and
    :meth:`VoteCountTables.expand` turns the counts into verdicts that
    are bitwise :meth:`TrustedHMD.analyze`.  The batch is validated
    first, with the messages ``analyze`` raises: a window with NaN or
    infinite features is an error on every engine, never a verdict.
    """
    X = np.asarray(X, dtype=float)
    a, b = front
    if X.ndim != 2 or X.shape[1] != a.shape[0]:
        raise ValueError(
            f"Expected {a.shape[0]} features, got an array of shape {X.shape}."
        )
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinite values.")
    # The second operation writes into the first's result: the same
    # values, and one temporary, not two, for a sweep of many rows.
    if a.ndim == 2:
        Z = X @ a
        np.add(Z, b, out=Z)
    else:
        Z = np.subtract(X, a)
        np.true_divide(Z, b, out=Z)
    return forest.count_second(Z, leaf_is_second)


class TrustedHMD(_FusedFrontMixin, BaseEstimator):
    """Uncertainty-aware HMD (the paper's proposed framework).

    Parameters
    ----------
    ensemble:
        *Unfitted* ensemble prototype exposing per-member ``decisions``
        after fit (e.g. ``BaggingClassifier``/``RandomForestClassifier``).
    threshold:
        Entropy rejection threshold (bits).  The paper's DVFS operating
        point is 0.40 for the RF ensemble.
    n_components:
        Optional PCA dimensionality applied after scaling.
    """

    def __init__(
        self,
        ensemble: BaseEstimator,
        *,
        threshold: float = 0.40,
        n_components: int | float | None = None,
    ):
        self.ensemble = ensemble
        self.threshold = threshold
        self.n_components = n_components

    def fit(self, X, y) -> "TrustedHMD":
        """Fit the pipeline and attach the uncertainty estimator."""
        X, y = check_X_y(X, y)
        self.scaler_ = StandardScaler().fit(X)
        Z = self.scaler_.transform(X)
        if self.n_components is not None:
            self.pca_ = PCA(n_components=self.n_components).fit(Z)
            Z = self.pca_.transform(Z)
        else:
            self.pca_ = None
        self.ensemble_ = clone(self.ensemble)
        self.ensemble_.fit(Z, y)
        self.estimator_ = EnsembleUncertaintyEstimator(self.ensemble_)
        self.policy_ = RejectionPolicy(self.threshold)
        self.classes_ = self.ensemble_.classes_
        self.n_features_in_ = X.shape[1]
        self._build_fused_front()
        return self

    #: Inference modes.  "float64" is the bitwise reference;
    #: "quantized" keeps the float64 front and traverses the forest in
    #: uint8 bin codes — votes exactly identical by construction,
    #: hist-grown ensembles only.
    COMPILE_MODES = ("float64", "quantized")

    _BACKEND_MODE = {"float64": "flat", "quantized": "quantized"}

    @property
    def compile_mode(self) -> str:
        """The current inference mode ("float64" until chosen otherwise)."""
        return getattr(self, "_compile_mode_", "float64")

    def compile(self, mode: str | None = None) -> "TrustedHMD":
        """Eagerly build the ensemble's flattened vote backend.

        The backend compiles lazily on the first analyze call anyway;
        monitors call this up front so the first window of live traffic
        does not pay the one-off flattening cost.  Also (re)composes the
        fused scaler→PCA front for the same reason.  No-op for
        ensembles without a compiled path.

        ``mode`` selects the kernel (:attr:`COMPILE_MODES`) and is
        *sticky*: once ``compile(mode="quantized")`` has been called,
        subsequent no-argument compiles — including the one inside
        :meth:`partial_refit` — rebuild the same kind of kernel, and
        the verdict tables are rebuilt for it (:meth:`verdict_key`
        includes the mode).  ``"quantized"`` requires a hist-grown
        ensemble; anything else raises ``ValueError``, as does a sticky
        mode this version no longer serves (an older pickle's).
        """
        if not hasattr(self, "ensemble_"):
            raise ValueError("hmd must be fitted before compiling.")
        if mode is None:
            mode = self.compile_mode
        if mode not in self.COMPILE_MODES:
            raise ValueError(
                f"unknown compile mode {mode!r}; expected one of "
                f"{self.COMPILE_MODES}."
            )
        self._compile_mode_ = mode
        compile_backend = getattr(self.ensemble_, "compile", None)
        if callable(compile_backend):
            from ..ml.backend import BackendCompileError

            try:
                compile_backend(mode=self._BACKEND_MODE[mode])
            except BackendCompileError as exc:
                raise ValueError(
                    f"this ensemble cannot serve mode {mode!r}: {exc} "
                    "(fit with grower='hist' for the quantized kernel)."
                ) from exc
        elif mode != "float64":
            raise ValueError(
                f"the fitted ensemble has no compiled vote path; mode "
                f"{mode!r} is unavailable."
            )
        self._build_fused_front()
        return self

    def supports_partial_refit(self) -> bool:
        """Whether a fitted ensemble can warm-refit from binned codes.

        True for ensembles fitted with the histogram grower
        (``grower="hist"``), which keep their shared
        :class:`~repro.ml.training.BinnedDataset` around.
        """
        ensemble = getattr(self, "ensemble_", None)
        supports = getattr(ensemble, "supports_partial_refit", None)
        return callable(supports) and supports()

    def partial_refit(self, X_new, y_new) -> "TrustedHMD":
        """Fold analyst-labelled rows in without a cold restart.

        The front of the pipeline stays *warm*: the scaler, the
        optional PCA and the ensemble's quantile bin edges are all kept
        from the original fit — only the member trees regrow, from the
        appended binned buffer — and the flattened prediction backend
        is recompiled before returning, so a live monitor's next batch
        runs on the refreshed model at full speed.  New class labels
        (a previously-unknown malware family) are picked up.
        """
        if not hasattr(self, "ensemble_"):
            raise ValueError("hmd must be fitted before partial_refit.")
        if not self.supports_partial_refit():
            raise ValueError(
                "The fitted ensemble has no binned training buffer "
                "(grower='hist'); retrain with fit() instead."
            )
        X_new, y_new = check_X_y(X_new, y_new)
        self.ensemble_.partial_refit(self._transform(X_new), y_new)
        self.classes_ = self.ensemble_.classes_
        self.estimator_ = EnsembleUncertaintyEstimator(self.ensemble_)
        return self.compile()

    def predict(self, X) -> np.ndarray:
        """Majority-vote labels (ignoring the rejection policy)."""
        return self.estimator_.predict(self._transform(X))

    def predictive_entropy(self, X) -> np.ndarray:
        """Uncertainty score per input (Eq. 4)."""
        return self.estimator_.predictive_entropy(self._transform(X))

    def analyze(self, X) -> TrustedVerdict:
        """Predictions + uncertainty + accept/withhold decision."""
        labels, entropy = self.estimator_.predict_with_uncertainty(
            self._transform(X)
        )
        result: RejectionResult = self.policy_.apply(labels, entropy)
        return TrustedVerdict(
            predictions=labels,
            entropy=entropy,
            accepted=result.accepted,
            threshold=self.policy_.threshold,
        )

    def verdict_key(self) -> tuple:
        """What :meth:`verdict_parts` are built from.

        The fitted member list (compared by identity: every refit and
        warm retrain rebuilds it), the operating threshold and the
        compile mode.  A change to any of them — :meth:`fit`,
        :meth:`partial_refit`, :meth:`with_threshold`,
        ``compile(mode=...)`` — makes parts built earlier stale.
        """
        return (
            getattr(self.ensemble_, "estimators_", None),
            float(self.policy_.threshold),
            self.compile_mode,
        )

    def is_current_key(self, key: tuple) -> bool:
        """Whether parts built under ``key`` still serve this model."""
        members, threshold, mode = self.verdict_key()
        return key[0] is members and key[1:] == (threshold, mode)

    def verdict_parts(self):
        """``(front, forest, tables)`` for :func:`vote_counts`.

        Built fresh on each call (the fleet's
        :class:`~repro.fleet.engine.PublishedHmd` holds them per
        :meth:`verdict_key`).  ``None`` when the count tables cannot
        serve this model — more than two classes, or no flat/quantized
        compiled forest — and the model is served by :meth:`analyze`
        (and :class:`~repro.uncertainty.online.OnlineMonitor`) only.
        """
        self.compile()
        compile_backend = getattr(self.ensemble_, "compile", None)
        forest = compile_backend() if callable(compile_backend) else None
        if len(self.classes_) != 2 or not isinstance(
            forest, (FlatForest, QuantizedForest)
        ):
            return None
        if self.pca_ is not None:
            front = (self._front_weight_, self._front_bias_)
        else:
            front = (self.scaler_.mean_, self.scaler_.scale_)
        tables = VoteCountTables.build(
            forest,
            np.asarray(self.classes_),
            base=self.estimator_.base,
            threshold=self.policy_.threshold,
        )
        return front, forest, tables

    def with_threshold(self, threshold: float) -> "TrustedHMD":
        """Return self with a new operating threshold (fitted state kept)."""
        self.threshold = float(threshold)
        self.policy_ = RejectionPolicy(self.threshold)
        return self

    def calibrate_threshold(self, X_validation, *, budget: float = 0.05) -> float:
        """Set the threshold from held-out known traffic (budget rule).

        Picks the largest threshold whose rejection rate on
        ``X_validation`` stays within ``budget`` (the paper's "<5% of
        known workloads" criterion) and installs it as the operating
        point.  Returns the chosen threshold.
        """
        from .thresholds import calibrate_threshold_by_budget

        entropy = self.predictive_entropy(X_validation)
        report = calibrate_threshold_by_budget(entropy, budget=budget)
        self.with_threshold(report.threshold)
        return report.threshold
