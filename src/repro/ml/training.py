"""Histogram-binned training backend for tree ensembles.

The exact CART grower in :mod:`repro.ml.tree` re-sorts every node's
samples for every candidate feature — ``O(n log n)`` per feature per
node, repeated down the whole tree.  This module implements the
LightGBM / ``HistGradientBoosting`` design instead:

* :class:`BinMapper` — per-feature quantile bin edges computed **once**
  per dataset, mapping every value to a small integer code (``uint8``,
  at most 256 bins).  Split thresholds are real bin-edge values, so
  trees grown on codes predict on *raw* feature vectors and compile
  into the flattened inference backend (:mod:`repro.ml.backend`)
  unchanged.  ``bin_edges_`` is the one copy of the edges: the uint8
  inference layout (:func:`~repro.ml.backend.compile_quantized_forest`)
  builds its native kernel's edge table from it.
* :class:`BinnedDataset` — the shared binned training matrix with an
  append-only growth buffer: ensembles bin once and fit all M members
  on the same codes; online retraining appends freshly binned rows
  without re-deriving edges (*warm bins*).
* :func:`grow_tree_binned` — the histogram grower.  Per node it
  accumulates **per-bin class counts** with one ``bincount`` pass
  (``O(n·d)``, no sorting), scans bins instead of sorted samples, and
  uses the classic *sibling-subtraction* trick: only the smaller child
  of a split pays a histogram pass, the other is derived as
  ``parent − sibling``.  Fractional ``sample_weight`` is native — the
  weights enter the histograms directly, with no integer-replication
  blowup.  The C kernel ``_grow.c`` (built by :mod:`repro.ml._native`)
  grows each tree in one call, bitwise equal to the numpy loop, which
  stays as the fallback and the reference.
* :class:`BinnedPartialRefitMixin` — the ensemble-facing ``partial_refit``
  contract: append analyst-labelled rows to the growth buffer, refit
  every member on the grown codes with warm bin edges, and recompile
  the flat prediction backend.

Weight semantics (shared with the exact grower): class counts,
impurities and split gains use *weighted* counts, while the structural
``min_samples_split`` / ``min_samples_leaf`` limits count raw samples
(zero-weight samples are dropped up front).  For integer weights under
the default ``min_samples_*`` limits this reproduces the old
replicate-rows behaviour; non-default limits count raw rows where
replication counted duplicates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import _native
from .validation import check_array, check_random_state

__all__ = [
    "BinMapper",
    "BinnedDataset",
    "BinnedView",
    "BinnedPartialRefitMixin",
    "grow_tree_binned",
]

_MAX_BINS_HARD_CAP = 256  # uint8 codes


class BinMapper:
    """Per-feature quantile binning into at most ``max_bins`` codes.

    Parameters
    ----------
    max_bins:
        Upper bound on bins per feature, in ``[2, 256]``.  Features with
        fewer distinct values get one bin per value (the binned grower
        is then *exact* for them).

    Attributes
    ----------
    bin_edges_:
        Per-feature sorted arrays of bin boundaries (length
        ``n_bins - 1``).  A value ``v`` belongs to bin ``b`` iff
        ``edges[b-1] < v <= edges[b]``, so a split "code <= b" is the
        real-valued split ``x <= edges[b]`` — the exact comparison the
        flattened prediction backend performs.
    n_bins_:
        Per-feature bin counts, ``len(edges) + 1``.
    """

    def __init__(self, max_bins: int = 256):
        self.max_bins = max_bins

    def fit(self, X) -> "BinMapper":
        """Compute bin edges from the (raw, unbinned) training matrix."""
        if not 2 <= self.max_bins <= _MAX_BINS_HARD_CAP:
            raise ValueError(
                f"max_bins must be in [2, {_MAX_BINS_HARD_CAP}]; got {self.max_bins}."
            )
        X = check_array(X)
        n_features = X.shape[1]
        self.bin_edges_: list[np.ndarray] = []
        for f in range(n_features):
            distinct = np.unique(X[:, f])
            if len(distinct) <= 1:
                edges = np.empty(0)
            elif len(distinct) <= self.max_bins:
                # One bin per distinct value: edges at midpoints, the
                # same cut values the exact grower would consider.
                edges = (distinct[:-1] + distinct[1:]) / 2.0
            else:
                quantiles = np.quantile(
                    distinct, np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
                )
                edges = np.unique(quantiles)
            self.bin_edges_.append(edges)
        self.n_bins_ = np.array(
            [len(edges) + 1 for edges in self.bin_edges_], dtype=np.intp
        )
        self.n_features_in_ = n_features
        return self

    def transform(self, X) -> np.ndarray:
        """Map raw values to ``uint8`` bin codes.

        Per feature, ``searchsorted(edges, v, side="left")``: the count
        of edges strictly below ``v``, so ``v <= edges[b]`` iff
        ``code <= b``.  The native vote kernel encodes float rows with
        the same rule (``_traverse.c``).
        """
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features; mapper expects {self.n_features_in_}."
            )
        codes = np.empty(X.shape, dtype=np.uint8)
        for f, edges in enumerate(self.bin_edges_):
            codes[:, f] = np.searchsorted(edges, X[:, f], side="left")
        return codes

    def fit_transform(self, X) -> np.ndarray:
        """Fit the edges and return the training codes."""
        return self.fit(X).transform(X)


@dataclass(frozen=True)
class BinnedView:
    """A (possibly column-subset) read view of a binned dataset."""

    codes: np.ndarray             # (n_rows, n_features) uint8
    bin_edges: list[np.ndarray]   # per-column real-valued boundaries
    n_bins: np.ndarray            # per-column bin counts

    @property
    def n_rows(self) -> int:
        """Rows in the view."""
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        """Columns in the view."""
        return self.codes.shape[1]


class BinnedDataset:
    """Shared binned training matrix with an append-only growth buffer.

    Ensembles bin the training set once and fit every member on the
    same codes.  :meth:`append` bins new rows with the already-fitted
    (*warm*) edges and stacks lazily — repeated appends stay ``O(new)``
    per call, the full matrix is materialised once per refit.
    """

    def __init__(self, mapper: BinMapper, X):
        if not hasattr(mapper, "bin_edges_"):
            mapper.fit(X)
        self.mapper = mapper
        self._blocks: list[np.ndarray] = [mapper.transform(X)]
        self._codes: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        """Total rows across all appended blocks."""
        return sum(len(block) for block in self._blocks)

    @property
    def n_features(self) -> int:
        """Feature-space width of the mapper."""
        return self.mapper.n_features_in_

    def append(self, X_new) -> None:
        """Bin ``X_new`` with the warm edges and add it to the buffer."""
        self._blocks.append(self.mapper.transform(X_new))
        self._codes = None

    @property
    def codes(self) -> np.ndarray:
        """The full code matrix (stacked once, cached until the next append)."""
        if self._codes is None:
            if len(self._blocks) == 1:
                self._codes = self._blocks[0]
            else:
                self._codes = np.vstack(self._blocks)
                self._blocks = [self._codes]
        return self._codes

    def view(self, columns=None) -> BinnedView:
        """A :class:`BinnedView`, optionally restricted to ``columns``."""
        codes = self.codes
        edges = self.mapper.bin_edges_
        n_bins = self.mapper.n_bins_
        if columns is None:
            return BinnedView(codes=codes, bin_edges=edges, n_bins=n_bins)
        columns = np.asarray(columns, dtype=np.intp)
        return BinnedView(
            codes=np.ascontiguousarray(codes[:, columns]),
            bin_edges=[edges[c] for c in columns],
            n_bins=n_bins[columns],
        )


# ----------------------------------------------------------------------
# histogram grower
# ----------------------------------------------------------------------


class _NodeHistogrammer:
    """Per-node class-count histograms over one binned matrix.

    Precomputes the flattened ``feature * n_bins + code`` cell index of
    every (row, feature) slot once per tree, so each node's histogram
    is a single gather + ``bincount`` with no sorting.
    """

    def __init__(self, codes: np.ndarray, y_encoded: np.ndarray,
                 n_classes: int, n_bins_max: int, weights: np.ndarray | None):
        n, d = codes.shape
        self.d = d
        self.B = n_bins_max
        self.K = n_classes
        self.weights = weights
        self.y = y_encoded.astype(np.intp)
        # cell[i, f] = f * B + codes[i, f]; adding y gives the flat
        # (feature, bin, class) index of the histogram cell row i feeds.
        self.cell = codes.astype(np.intp) + (
            np.arange(d, dtype=np.intp) * n_bins_max
        )[None, :]

    def compute(self, rows: np.ndarray, columns: np.ndarray | None = None):
        """``(class_hist, count_hist)`` over ``rows`` (and ``columns``).

        ``class_hist`` has shape ``(F, B, K)`` with weighted class
        counts; ``count_hist`` ``(F, B)`` with raw sample counts (the
        ``min_samples_*`` currency).
        """
        if columns is None:
            cells = self.cell[rows]
            F = self.d
        else:
            cells = self.cell[np.ix_(rows, columns)]
            # Remap the column base so the bincount stays dense.
            cells = cells - (columns * self.B - np.arange(len(columns)) * self.B)[None, :]
            F = len(columns)
        flat = (cells * self.K + self.y[rows][:, None]).ravel()
        if self.weights is None:
            class_hist = np.bincount(flat, minlength=F * self.B * self.K)
            class_hist = class_hist.astype(np.float64).reshape(F, self.B, self.K)
            count_hist = class_hist.sum(axis=2)
        else:
            w = np.repeat(self.weights[rows], cells.shape[1])
            class_hist = np.bincount(
                flat, weights=w, minlength=F * self.B * self.K
            ).reshape(F, self.B, self.K)
            count_hist = np.bincount(
                cells.ravel(), minlength=F * self.B
            ).astype(np.float64).reshape(F, self.B)
        return class_hist, count_hist


def _children_cost(left_w, right_w, wl, wr, criterion):
    """``wl·H(left) + wr·H(right)`` for every candidate cut at once.

    Closed forms avoid the probability normalisation of
    :func:`~repro.ml.tree._impurity` (and its errstate contexts) — this
    runs once per node over ``(F, B, K)`` arrays, so constant factors
    dominate the grower's runtime.  Zero-mass sides produce NaN here;
    callers mask those cuts out as inadmissible.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if criterion == "gini":
            # w·gini = w·(1 − Σp²) = w − Σc²/w
            return (
                wl - np.square(left_w).sum(axis=-1) / wl
                + wr - np.square(right_w).sum(axis=-1) / wr
            )
        if criterion == "entropy":
            # w·H = w·log2(w) − Σ c·log2(c), with 0·log2(0) = 0.
            def xlog2x(c):
                return np.where(c > 0, c, 1.0) * np.log2(np.where(c > 0, c, 1.0))

            return (
                xlog2x(wl) - xlog2x(left_w).sum(axis=-1)
                + xlog2x(wr) - xlog2x(right_w).sum(axis=-1)
            )
    raise ValueError(f"Unknown criterion {criterion!r}; use 'gini' or 'entropy'.")


def _scan_best_cut(class_hist, count_hist, cut_valid, node_counts,
                   n_node, min_samples_leaf, node_impurity, criterion):
    """Best (feature-pos, bin) cut by impurity gain over all bins at once."""
    left_w = np.cumsum(class_hist, axis=1)          # (F, B, K)
    left_c = np.cumsum(count_hist, axis=1)          # (F, B)
    right_w = node_counts[None, None, :] - left_w
    right_c = n_node - left_c
    wl = left_w.sum(axis=2)
    wr = right_w.sum(axis=2)
    w_node = float(node_counts.sum())
    cost = _children_cost(left_w, right_w, wl, wr, criterion)
    gain = node_impurity - cost / w_node
    admissible = (
        cut_valid
        & (left_c >= min_samples_leaf)
        & (right_c >= min_samples_leaf)
    )
    gain = np.where(admissible, gain, -np.inf)
    best_flat = int(np.argmax(gain))
    f_pos, b = np.unravel_index(best_flat, gain.shape)
    best_gain = gain[f_pos, b]
    if not np.isfinite(best_gain) or best_gain <= 1e-12:
        return None
    return int(f_pos), int(b), float(best_gain), left_w[f_pos, b]


def _sorted_best_cut(codes_sub, yw_sub, counts, min_samples_leaf,
                     node_impurity, criterion):
    """Small-node split search: sort the codes instead of scanning bins.

    For nodes with far fewer samples than bins, a stable argsort of the
    ``uint8`` codes plus a prefix-sum scan over the *samples* is much
    cheaper than a ``(F, B, K)`` bin sweep.  Candidate cuts, gains and
    the chosen cut bin are identical to the histogram scan's up to
    tie-break order (the scan breaks gain ties feature-major, this path
    cut-major — both deterministic).
    """
    m = codes_sub.shape[0]
    order = np.argsort(codes_sub, axis=0, kind="stable")
    Cs = np.take_along_axis(codes_sub, order, axis=0)   # (m, F)
    ys = yw_sub[order]                                  # (m, F, K)
    left = np.cumsum(ys, axis=0)
    cuts = slice(min_samples_leaf - 1, m - min_samples_leaf)
    lc = left[cuts]
    if lc.shape[0] == 0:
        return None
    value_changes = Cs[cuts.start + 1 : cuts.stop + 1] > Cs[cuts]
    rc = counts[None, None, :] - lc
    wl = lc.sum(axis=-1)
    wr = rc.sum(axis=-1)
    cost = _children_cost(lc, rc, wl, wr, criterion)
    gain = node_impurity - cost / float(counts.sum())
    gain = np.where(value_changes, gain, -np.inf)
    best_flat = int(np.argmax(gain))
    best_cut, f_pos = np.unravel_index(best_flat, gain.shape)
    best_gain = gain[best_cut, f_pos]
    if not np.isfinite(best_gain) or best_gain <= 1e-12:
        return None
    cut_bin = int(Cs[cuts.start + best_cut, f_pos])
    return int(f_pos), cut_bin, float(best_gain), lc[best_cut, f_pos]


def grow_tree_binned(
    view: BinnedView,
    y_encoded: np.ndarray,
    n_classes: int,
    *,
    criterion: str = "gini",
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    min_impurity_decrease: float = 0.0,
    n_candidate_features: int | None = None,
    sample_weight: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    random_state=None,
):
    """Grow a :class:`~repro.ml.tree.TreeStructure` from binned codes.

    The native kernel ``_grow.c`` grows the tree when
    :func:`_native_grower` says it covers the fit, and the numpy loop
    below (:func:`_grow_numpy`, the reference) otherwise; both return
    the same arrays, bit for bit, and advance ``random_state`` alike.
    """
    params = dict(
        criterion=criterion,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        min_impurity_decrease=min_impurity_decrease,
        n_candidate_features=(
            view.n_features if n_candidate_features is None else n_candidate_features
        ),
        sample_weight=sample_weight,
        rows=np.arange(view.n_rows, dtype=np.intp) if rows is None else rows,
        random_state=check_random_state(random_state),
    )
    lib = _native_grower(criterion, n_classes)
    if lib is not None:
        return _grow_native(lib, view, y_encoded, n_classes, **params)
    return _grow_numpy(view, y_encoded, n_classes, **params)


def _native_grower(criterion: str, n_classes: int):
    """The library when its grower covers the fit, else ``None``.

    The kernel folds class sums in order, which is numpy's order only
    below its 8-term pairwise block, and it has no entropy: C's
    ``log2`` is not shown to match numpy's bit for bit.
    """
    if criterion != "gini" or n_classes > _NATIVE_MAX_CLASSES:
        return None
    return _native.library()


_NATIVE_MAX_CLASSES = 7  # MAX_CLASSES in _grow.c
_DRAW, _NO_MEMORY = -1, -2  # hist_grow_* status codes
_workspaces = threading.local()


class _GrowWorkspace:
    """The kernel's grow-only workspace: one per thread, reused by every
    tree that thread grows."""

    def __init__(self, lib):
        self.lib = lib
        self.handle = lib.hist_grow_new()
        if not self.handle:
            raise MemoryError("cannot allocate the tree-growth workspace.")

    def __del__(self):
        self.lib.hist_grow_free(self.handle)

    @classmethod
    def of(cls, lib) -> "_GrowWorkspace":
        """This thread's workspace for ``lib``."""
        workspace = getattr(_workspaces, "grower", None)
        if workspace is None or workspace.lib is not lib:
            workspace = _workspaces.grower = cls(lib)
        return workspace


def _grow_native(lib, view, y_encoded, n_classes, *, criterion, max_depth,
                 min_samples_split, min_samples_leaf, min_impurity_decrease,
                 n_candidate_features, sample_weight, rows, random_state):
    """:func:`_grow_numpy` in one ``_grow.c`` call per tree, resumed
    once per node that draws its candidate features."""
    from .tree import TreeStructure

    codes = np.ascontiguousarray(view.codes, dtype=np.uint8)
    d = codes.shape[1]
    y = np.ascontiguousarray(y_encoded, dtype=np.int64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    weights = (
        None if sample_weight is None
        else np.ascontiguousarray(sample_weight, dtype=np.float64)
    )
    n_bins = np.asarray(view.n_bins, dtype=np.int64)
    # The kernel does no bounds checks: refuse what would take it
    # outside its arrays.
    n_indexable = min(len(codes), len(y), len(y if weights is None else weights))
    bad = bool((codes.max(axis=0, initial=0) >= n_bins).any())
    if rows.size and not bad:
        bad = rows.min() < 0 or rows.max() >= n_indexable
        bad = bad or not 0 <= y[rows].min() <= y[rows].max() < n_classes
    if bad:
        raise ValueError("refusing to grow: a row, class id or bin code is out of range.")
    cut_limit = n_bins - 1
    edges = np.concatenate([np.asarray(e, dtype=np.float64) for e in view.bin_edges])
    edge_offset = np.concatenate([[0], np.cumsum(cut_limit)[:-1]]).astype(np.int64)
    k = n_candidate_features
    draw = np.zeros(k, dtype=np.int64)
    handle = _GrowWorkspace.of(lib).handle
    status = lib.hist_grow_start(
        handle, codes.ctypes.data, d, y.ctypes.data,
        None if weights is None else weights.ctypes.data,
        rows.ctypes.data, len(rows), n_classes, cut_limit.ctypes.data,
        edges.ctypes.data, edge_offset.ctypes.data, int(n_bins.max()),
        np.iinfo(np.int64).max if max_depth is None else max_depth,
        min_samples_split, min_samples_leaf, float(min_impurity_decrease),
        k, draw.ctypes.data,
    )
    resume = lib.hist_grow_resume
    while status == _DRAW:
        draw[:] = np.sort(random_state.choice(d, size=k, replace=False))
        status = resume(handle)
    if status == _NO_MEMORY:
        raise MemoryError("the tree-growth workspace could not grow.")
    tree = TreeStructure(
        feature=np.empty(status, dtype=np.int64),
        threshold=np.empty(status, dtype=np.float64),
        children_left=np.empty(status, dtype=np.int64),
        children_right=np.empty(status, dtype=np.int64),
        value=np.empty((status, n_classes), dtype=np.float64),
        impurity=np.empty(status, dtype=np.float64),
        n_node_samples=np.empty(status, dtype=np.int64),
    )
    lib.hist_grow_take(handle, *(
        getattr(tree, name).ctypes.data
        for name in ("feature", "threshold", "children_left", "children_right",
                     "value", "impurity", "n_node_samples")
    ))
    return tree


def _grow_numpy(view, y_encoded, n_classes, *, criterion, max_depth,
                min_samples_split, min_samples_leaf, min_impurity_decrease,
                n_candidate_features, sample_weight, rows, random_state):
    """The histogram grower in numpy: the fallback and the reference.

    Two histogram strategies, chosen by the feature budget:

    * **all features** (``n_candidate_features == n_features``): each
      node carries its full ``(d, B, K)`` histogram; at a split only
      the smaller child is re-accumulated, the sibling is derived by
      subtraction (``child = parent − other``);
    * **per-node subsets** (random forests): histograms are built for
      the node's candidate columns only — subsets differ between parent
      and children, so subtraction does not apply, but the per-node
      work drops from ``d`` to ``max_features`` columns.

    Node ids allocate children back-to-back (``right == left + 1``),
    preserving the flattened prediction backend's goto invariant, and
    thresholds are real bin-edge values — the returned tree is
    prediction-compatible with exactly-grown trees.
    """
    from .tree import TreeStructure, _impurity

    codes = view.codes
    d = codes.shape[1]
    max_depth_f = np.inf if max_depth is None else max_depth

    B = int(view.n_bins.max())
    hist = _NodeHistogrammer(codes, y_encoded, n_classes, B, sample_weight)
    # Cut at bin b needs a real boundary edges[b]: b <= n_bins_f - 2.
    cut_valid_all = np.arange(B)[None, :] < (np.asarray(view.n_bins) - 1)[:, None]
    subtract = n_candidate_features >= d
    # Nodes with far fewer samples than bins switch to the sort-based
    # scan (O(m·F) instead of O(B·F)); the weighted one-hot matrix it
    # prefix-sums is shared across all of them.
    small_node = B
    onehot_w = np.eye(n_classes, dtype=np.float64)[y_encoded]
    if sample_weight is not None:
        onehot_w = onehot_w * sample_weight[:, None]

    if sample_weight is None:
        root_counts = np.bincount(
            y_encoded[rows], minlength=n_classes
        ).astype(np.float64)
        total_weight = float(len(rows))
    else:
        root_counts = np.bincount(
            y_encoded[rows], weights=sample_weight[rows], minlength=n_classes
        )
        total_weight = float(root_counts.sum())

    tree = TreeStructure()
    root = tree.add_node(
        root_counts, float(_impurity(root_counts, criterion)), len(rows)
    )
    # Stack entries: (rows, depth, node_id, full-feature histogram pair
    # or None).  Histograms ride the stack only in subtraction mode.
    stack = [(rows, 0, root, None)]

    while stack:
        node_rows, depth, node_id, node_hist = stack.pop()
        n_node = len(node_rows)
        counts = tree.value[node_id]
        node_impurity = tree.impurity[node_id]
        if (
            depth >= max_depth_f
            or n_node < min_samples_split
            or n_node < 2 * min_samples_leaf
            or node_impurity <= 1e-12
        ):
            continue  # stays a leaf

        if n_candidate_features < d:
            feats = np.sort(
                random_state.choice(d, size=n_candidate_features, replace=False)
            )
        else:
            feats = None

        if n_node <= small_node:
            codes_sub = (
                codes[node_rows] if feats is None
                else codes[np.ix_(node_rows, feats)]
            )
            best = _sorted_best_cut(
                codes_sub, onehot_w[node_rows], counts,
                min_samples_leaf, node_impurity, criterion,
            )
        else:
            if feats is not None:
                class_hist, count_hist = hist.compute(node_rows, feats)
                cut_valid = cut_valid_all[feats]
            else:
                if node_hist is None:
                    node_hist = hist.compute(node_rows)
                class_hist, count_hist = node_hist
                cut_valid = cut_valid_all
            best = _scan_best_cut(
                class_hist, count_hist, cut_valid, counts, n_node,
                min_samples_leaf, node_impurity, criterion,
            )
        if best is None:
            continue
        f_pos, cut_bin, gain, left_counts = best
        if gain * counts.sum() / total_weight < min_impurity_decrease:
            continue
        feature_idx = int(f_pos if feats is None else feats[f_pos])
        threshold = float(view.bin_edges[feature_idx][cut_bin])

        go_left = codes[node_rows, feature_idx] <= cut_bin
        left_rows = node_rows[go_left]
        right_rows = node_rows[~go_left]
        if (
            len(left_rows) < min_samples_leaf
            or len(right_rows) < min_samples_leaf
        ):
            continue

        # Sibling subtraction can leave ~1e-16-scale negatives on
        # weighted histograms; clamp so impurities stay defined.
        right_counts = np.maximum(counts - left_counts, 0.0)
        left_id = tree.add_node(
            left_counts, float(_impurity(left_counts, criterion)), len(left_rows)
        )
        right_id = tree.add_node(
            right_counts, float(_impurity(right_counts, criterion)), len(right_rows)
        )
        tree.feature[node_id] = feature_idx
        tree.threshold[node_id] = threshold
        tree.children_left[node_id] = left_id
        tree.children_right[node_id] = right_id

        left_hist = right_hist = None
        if subtract:
            # A child needs a histogram only if it can split AND will
            # use the bin scan (small children take the sort path).
            left_needed = len(left_rows) > small_node and _may_split(
                len(left_rows), depth + 1, max_depth_f,
                min_samples_split, min_samples_leaf,
            )
            right_needed = len(right_rows) > small_node and _may_split(
                len(right_rows), depth + 1, max_depth_f,
                min_samples_split, min_samples_leaf,
            )
            if left_needed or right_needed:
                small_rows, small_is_left = (
                    (left_rows, True)
                    if len(left_rows) <= len(right_rows)
                    else (right_rows, False)
                )
                small = hist.compute(small_rows)
                big = None
                if right_needed if small_is_left else left_needed:
                    big = (
                        np.maximum(class_hist - small[0], 0.0),
                        np.maximum(count_hist - small[1], 0.0),
                    )
                left_hist, right_hist = (
                    (small, big) if small_is_left else (big, small)
                )
        stack.append((right_rows, depth + 1, right_id, right_hist))
        stack.append((left_rows, depth + 1, left_id, left_hist))

    tree.finalize()
    return tree


def _may_split(n_node, depth, max_depth, min_samples_split, min_samples_leaf):
    """Whether a child node can possibly be split (cheap pre-filter)."""
    return (
        depth < max_depth
        and n_node >= min_samples_split
        and n_node >= 2 * min_samples_leaf
    )


class BinnedPartialRefitMixin:
    """Warm-bin online retraining for ensembles fitted with ``grower="hist"``.

    Hosts set ``self._binned_`` (:class:`BinnedDataset`) and
    ``self._train_y_`` during :meth:`fit`, and implement
    ``_refit_members(rng)`` — the member-fitting loop over the shared
    binned dataset.  The mixin turns those into the public
    :meth:`partial_refit` used by the online retraining loop.
    """

    def supports_partial_refit(self) -> bool:
        """True once fitted with a shared binned dataset."""
        return getattr(self, "_binned_", None) is not None

    def partial_refit(self, X_new, y_new):
        """Append labelled rows and refit all members with warm bins.

        The bin edges computed at :meth:`fit` time are reused — the new
        rows are binned with them and appended to the growth buffer —
        so the refit skips the quantile pass entirely and every member
        regrows from histograms over the grown code matrix.  The
        flattened prediction backend is recompiled before returning.
        """
        from .validation import check_X_y

        if not self.supports_partial_refit():
            raise ValueError(
                "partial_refit requires a fit with grower='hist' "
                "(no shared binned dataset is attached)."
            )
        X_new, y_new = check_X_y(X_new, y_new)
        if X_new.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X_new has {X_new.shape[1]} features; "
                f"the ensemble expects {self.n_features_in_}."
            )
        self._binned_.append(X_new)
        self._train_y_ = np.concatenate([self._train_y_, y_new])
        self.classes_ = np.unique(self._train_y_)
        self._invalidate_backend()
        self._refit_members(check_random_state(self.random_state))
        self.compile()
        return self
