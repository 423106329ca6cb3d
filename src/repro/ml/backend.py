"""Flattened ensemble inference backend.

The paper's vote path (Eq. 3-4) asks every ensemble member for a hard
decision on every window.  The reference implementation walks that as a
Python loop — ``for member in estimators_: member.predict(X)`` — which
pays per-member input validation, per-member tree routing and
per-member label gathering, M times per batch.  This module compiles a
fitted tree ensemble into **one contiguous node tensor** and evaluates
all members on a whole batch as a single level-synchronous array
program:

* :func:`compile_flat_forest` packs every member's flat
  :class:`~repro.ml.tree.TreeStructure` arrays into stacked
  ``(feature, goto)`` / ``threshold`` / ``leaf_label`` tensors with
  per-tree root offsets.  Member feature subsets (bagging's
  ``estimators_features_``) are folded in by remapping each node's
  feature index into the *global* input space, so no per-member column
  slicing survives at predict time.
* :class:`FlatForest` (float64 thresholds) and
  :class:`QuantizedForest` (uint8 bin codes) route all
  ``n_samples x n_members`` slots at once through one shared
  level-synchronous loop — one gather per node record per level, with
  active-set compaction once most slots have reached leaves — reduced
  either to leaf ids or to per-row second-class vote counts.
* :class:`CompiledVotePath` is the estimator-facing mixin: a cached
  ``compile()`` (auto-invalidated on refit) plus ``decisions_fast``,
  ``vote_distribution`` and ``predict`` routed through the backend.

Native vote counting
--------------------
``count_second`` (the fleet's one verdict path, through
:func:`~repro.uncertainty.trust.vote_counts`) runs the C kernel
in ``_traverse.c`` when :mod:`repro.ml._native` could build it: tree by
tree, a block of 128 rows at a time, the same ``goto + (x > cut)`` step
for the rows not yet on a leaf (each step drops the settled ones from
the block's live list), reduced straight to counts.  The uint8 entry
takes the float64 rows and encodes them inside the same call, from a
per-feature edge table derived once from the forest's encode tables;
its codes are :meth:`QuantizedForest.encode`'s bit for bit.  The
loader compiles the kernel on first use with the host ``cc`` into a
per-user cache (``~/.cache/repro``, mode ``0o700``, named by a hash of
source and flags; a temp file is moved into place with
``os.replace``, so concurrent builds are safe) and loads it with
``ctypes``.  Without a compiler, or if building or loading fails, the
numpy loop here serves; it is also the reference the kernel is tested
against, and the integer counts of the two are identical.  Before a
forest's first native call one check of its node and edge tables runs
(the C loop has none) and a corrupt table raises.  A ``ctypes`` call
releases the GIL, so threads can count in parallel.  ``apply`` and
``decisions`` stay on numpy: they feed ``TrustedHMD.analyze``, the
oracle the fleet's verdicts are checked against, so the oracle never
runs the code it checks.

Equivalence guarantee
---------------------
The compiled path performs the *same comparisons* (``x[f] <= t`` with
identical float64 operands) and the same leaf-label argmax as the
per-member loop, so votes are **bitwise identical** — and therefore so
are vote distributions, entropies, rejection decisions and fleet
verdicts.  ``tests/ml/test_backend.py`` asserts this across randomized
ensembles; ``benchmarks/test_bench_predict.py`` gates the speedup.
"""

from __future__ import annotations

import sys

import numpy as np

from . import _native

__all__ = [
    "BackendCompileError",
    "FlatForest",
    "QuantizedForest",
    "CompiledVotePath",
    "compile_flat_forest",
    "compile_quantized_forest",
    "COMPILE_MODES",
]

_LEAF = -1

# Traversal tuning, shared by both kernels and both reductions.  A
# batch is split into the fewest equal row chunks whose slot count
# (rows x members) stays within ``_SLOT_TARGET``, so the per-level
# working arrays stay cache-resident: a 256-row batch of a 100-member
# forest is one chunk, a 1024-row round a few.  Once fewer
# than ``_COMPACT_RATIO`` of a chunk's slots are still routing, the
# finished ones are banked and dropped, as long as the active set is big
# enough for the two compaction passes to pay.
_SLOT_TARGET = 25_600
_COMPACT_RATIO = 0.5
_MIN_COMPACT = 1024

# Backend compile modes: "flat" is the float64 reference kernel,
# "quantized" the uint8 bin-code kernel (vote-identical by
# construction, hist-grown only).
COMPILE_MODES = ("flat", "quantized")

# QuantizedForest node record: one int64 per node,
#   rec = (goto << 32) | (feature << 16) | code
# so one 8-byte gather per live slot per level replaces the float
# kernel's fg-row (16 B) + threshold (8 B) gathers.  Every field sits
# on its natural byte boundary — code in byte 0, feature in bytes 2-3,
# goto in bytes 4-7 (little-endian) — so the traversal extracts fields
# from a gathered record array as zero-copy strided *views* instead of
# paying three shift/mask passes per level.  Leaves store the sentinel
# code 255 (internal cut bins never exceed 254: max_bins is capped at
# 256, and a valid cut keeps both children non-empty so the cut bin is
# <= n_bins - 2), goto = self (the float kernel's self-loop trick) and
# feature 0 (any in-bounds index: the gathered code is compared
# against 255, which no uint8 value exceeds, so the slot self-loops
# forever).
_Q_GOTO_SHIFT = 32
_Q_FEAT_SHIFT = 16
_Q_FEAT_MASK = 0xFFFF
_Q_LEAF_CODE = 255

# Byte-view element offsets of (code: uint8, feature: uint16,
# goto: int32) inside each int64 record, by host endianness.
if sys.byteorder == "little":
    _Q_CODE_OFF, _Q_FEAT_OFF, _Q_GOTO_OFF = 0, 1, 1
else:  # pragma: no cover - big-endian hosts
    _Q_CODE_OFF, _Q_FEAT_OFF, _Q_GOTO_OFF = 7, 2, 0


def native_traversal() -> bool:
    """Whether vote counting runs the native kernel in this process."""
    return _native.library() is not None


class BackendCompileError(Exception):
    """An ensemble (or member) cannot be flattened; callers fall back."""


def _refused(what: str) -> ValueError:
    return ValueError(f"forest {what}; refusing to traverse it natively.")


class _RoutedForest:
    """The level-synchronous routing loop shared by both kernels.

    All ``rows x members`` slots of a chunk advance one tree level per
    iteration: gather each slot's node record, compare the slot's
    feature value against the node's cut, step to ``goto + (x > cut)``.
    Leaves point ``goto`` at themselves with a cut no value exceeds, so
    finished slots self-loop instead of branching.  The level-0 step is
    precomputed per chunk shape; from level 2 on, a liveness scan ends
    the loop once every slot has settled and compacts the active set
    when most have.

    A subclass supplies the node storage: :meth:`encode` (the batch in
    comparison space), the record gather — :meth:`_records` (one gather
    of node records) and :meth:`_fields` (a record's feature index, cut
    and goto) — and the liveness test :meth:`_alive` (which gathered
    records are internal nodes).  For the native count it names its C
    entry point and tables (:meth:`_native_tables`) and the per-call
    row arguments (:meth:`_native_rows`), and lists every node's
    feature read, goto and internal bit (:meth:`_node_fields`) for the
    bounds check.
    """

    # The native kernel's (entry name, node tables) once checked; False
    # when numpy serves this forest, None before the first count.
    _kernel = None

    def __init__(self, leaf_label, roots, n_features: int, max_depth: int):
        self.leaf_label = leaf_label
        self.roots = roots
        self.n_features = int(n_features)
        self.max_depth = int(max_depth)
        self.n_members = len(roots)
        self._setup_cache: dict[int, tuple] = {}

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id per (sample, member), shape ``(n, n_members)``.

        Always the numpy loop: leaf ids feed ``decisions`` and so
        ``TrustedHMD.analyze``, the reference the native counts are
        checked against.
        """
        return self._route(self.encode(X))

    def count_second(self, X, leaf_is_second: np.ndarray) -> np.ndarray:
        """Per-row sum of ``leaf_is_second`` over the members' leaves.

        With a 0/1 indicator of the leaves voting the second class,
        this is each row's second-class vote count.  The native kernel
        serves when it is loaded and the operands fit it (int64
        indicator, one entry per node, rows it can take: see
        :meth:`_native_rows`), in one call from the rows to the counts;
        otherwise the numpy loop reduces :meth:`encode`'s output chunk
        by chunk without materialising the ``(n, n_members)`` matrix.
        Both return the same integers.
        """
        lib = _native.library()
        rows = (
            self._native_rows(X)
            if lib is not None and self._native_fits(leaf_is_second)
            else None
        )
        if rows is None:
            return self._route(self.encode(X), leaf_is_second)
        entry, tables = self._kernel
        n = rows[0].shape[0]
        counts = np.empty(n, dtype=np.int64)
        getattr(lib, entry)(
            *tables,
            self.roots,
            self.n_members,
            self.max_depth,
            leaf_is_second,
            *rows,
            n,
            self.n_features,
            counts,
        )
        return counts

    def __setstate__(self, state):
        # The checked native entry belongs to the library of the process
        # that pickled the forest (and to its version of the entry's
        # arguments): check again before the first native count here.
        state.pop("_kernel", None)
        self.__dict__.update(state)

    def _native_fits(self, leaf_is_second) -> bool:
        """Whether the C kernel can take this indicator.

        The first call checks the node table (:meth:`_check_nodes`) and
        caches the answer; the indicator is checked on every call.
        """
        if self._kernel is None:
            self._kernel = self._check_nodes()
        return (
            bool(self._kernel)
            and leaf_is_second.dtype == np.int64
            and leaf_is_second.shape == (self.n_nodes,)
            and leaf_is_second.flags.c_contiguous
        )

    def _check_width(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"X has shape {x.shape}; backend expects {self.n_features} features."
            )

    def _check_nodes(self):
        """The kernel's ``(entry name, node tables)``, after a bounds
        check of every read the C loop makes, which has none of its own.

        A step from any node lands on ``goto`` (from an internal node
        also on ``goto + 1``) and reads the row at the node's feature;
        rows start at the roots.  Returns ``False`` when the tables do
        not have the kernel's dtypes and layout (numpy then serves),
        and raises ``ValueError`` when an index is out of bounds.
        """
        native = self._native_tables()
        roots = self.roots
        if native is None or roots.dtype != np.int64 or not roots.flags.c_contiguous:
            return False
        feature, goto, internal = self._node_fields()
        n = self.n_nodes
        if not (
            np.all((roots >= 0) & (roots < n))
            and np.all((goto >= 0) & (goto + internal < n))
            and np.all((feature >= 0) & (feature < self.n_features))
        ):
            raise _refused("node table indexes outside itself or the feature row")
        return native

    def decisions(self, X: np.ndarray) -> np.ndarray:
        """Per-member hard votes, shape ``(n, n_members)``.

        Bitwise identical to the legacy per-member predict loop.
        """
        leaves = self.apply(X)
        return self.leaf_label.take(leaves.ravel()).reshape(leaves.shape)

    def _route(self, x, leaf_is_second=None) -> np.ndarray:
        """The numpy kernel over an encoded batch."""
        n, m = x.shape[0], self.n_members
        n_chunks = max(1, -(-n * m // _SLOT_TARGET))
        chunk = max(16, -(-n // n_chunks))
        if leaf_is_second is None:
            leaves = np.empty(n * m, dtype=np.intp)
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                self._route_chunk(x[start:stop], leaves[start * m : stop * m])
            return leaves.reshape(n, m)
        counts = np.empty(n, dtype=np.intp)
        scratch = np.empty(min(chunk, n) * m, dtype=np.intp)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            leaves = scratch[: (stop - start) * m]
            self._route_chunk(x[start:stop], leaves)
            counts[start:stop] = (
                leaf_is_second.take(leaves).reshape(stop - start, m).sum(axis=1)
            )
        return counts

    def _setup(self, nc: int) -> tuple:
        """Per-chunk-shape constants: slot layout and the level-0 step.

        Level 0 visits each member's root for every row — the node ids,
        features and cuts are batch-independent, so the entire first
        gather/compare program is precomputed and cached.
        """
        cached = self._setup_cache.get(nc)
        if cached is not None:
            return cached
        if len(self._setup_cache) > 8:
            self._setup_cache.clear()
        rows = (np.arange(nc, dtype=np.intp) * self.n_features).repeat(
            self.n_members
        )
        f, cut, goto = self._fields(self._records(self.roots), self.roots)
        cached = (rows, rows + np.tile(f, nc), np.tile(cut, nc), np.tile(goto, nc))
        self._setup_cache[nc] = cached
        return cached

    def _route_chunk(self, x: np.ndarray, out: np.ndarray) -> None:
        """Route one chunk of encoded rows; ``out`` receives flat leaf ids."""
        rows, xi0, cut0, goto0 = self._setup(x.shape[0])
        x = x.ravel()
        node = self._step(goto0, x.take(xi0, mode="clip"), cut0)
        idx = None  # None = all slots still tracked full-width
        for level in range(1, self.max_depth):
            rec = self._records(node)
            if level >= 2:
                alive = self._alive(rec)
                n_alive = int(np.count_nonzero(alive))
                if n_alive == 0:
                    break
                size = node.size
                if size > _MIN_COMPACT and n_alive < _COMPACT_RATIO * size:
                    # Bank the settled slots' leaves, keep the live ones.
                    live = np.flatnonzero(alive)
                    if idx is None:
                        out[:] = node
                        idx = live
                    else:
                        dead = np.flatnonzero(~alive)
                        out[idx.take(dead)] = node.take(dead)
                        idx = idx.take(live)
                    rows = rows.take(live)
                    node = node.take(live)
                    rec = rec.take(live, axis=0)
            node = self._advance(rec, node, x, rows)
        if idx is None:
            out[:] = node
        else:
            out[idx] = node

    def _advance(self, rec, node, x, rows):
        """One level's step for the live slots.

        A function of its own so the step's chunk-sized temporaries die
        on return: keeping them alive across levels raises the peak
        allocation enough that the allocator hands pages back between
        batches and faults them in again, measured up to ~1.5x slower
        on 256-row batches interleaved with other work.
        """
        f, cut, goto = self._fields(rec, node)
        # Clip-mode gather: a float leaf's feature is -1, so row 0's
        # slot would index -1 (the compare against +inf ignores it).
        return self._step(goto, x.take(np.add(f, rows), mode="clip"), cut)

    @staticmethod
    def _step(goto, xv, cut):
        return np.add(goto, np.greater(xv, cut), dtype=np.intp)


class FlatForest(_RoutedForest):
    """All trees of an ensemble packed into one node tensor.

    Storage (``n_nodes`` = total nodes across members; all index
    arrays are ``intp`` — narrower dtypes force numpy's ``take`` onto a
    casting slow path that is ~4x more expensive per gather):

    ``fg``
        ``(n_nodes, 2) intp`` — column 0 the *global* feature index
        tested at the node (``-1`` for leaves), column 1 the ``goto``
        target: the left-child node id.  Right children are always
        allocated at ``left + 1`` (verified at compile time), so the
        routing update is ``node = goto[node] + (x > threshold)``.
        Leaves point ``goto`` at themselves with ``threshold = +inf``,
        making finished slots self-loop instead of branching.
    ``threshold``
        ``(n_nodes,) float64`` split thresholds (``+inf`` at leaves).
    ``leaf_label``
        ``(n_nodes,)`` of the ensemble's class dtype — the label the
        member emits if routing ends at that node (argmax of the
        normalised leaf class counts, i.e. exactly
        ``member.predict``'s choice including tie-breaks).
    ``roots``
        ``(n_members,) intp`` root node id per member.
    """

    feature_dtype = np.dtype(np.float64)

    def __init__(
        self,
        fg: np.ndarray,
        threshold: np.ndarray,
        leaf_label: np.ndarray,
        roots: np.ndarray,
        n_features: int,
        max_depth: int,
    ):
        super().__init__(leaf_label, roots, n_features, max_depth)
        self.fg = fg
        self.threshold = threshold
        self.n_nodes = len(threshold)

    def encode(self, X: np.ndarray) -> np.ndarray:
        """The traversal-ready feature matrix: a contiguous cast to
        :attr:`feature_dtype`."""
        X = np.ascontiguousarray(X, dtype=self.feature_dtype)
        self._check_width(X)
        return X

    def _native_rows(self, X):
        """The kernel's row arguments: the encoded batch."""
        return (self.encode(X),)

    def _native_tables(self):
        fg, threshold = self.fg, self.threshold
        if not (
            fg.dtype == np.int64
            and fg.shape == (self.n_nodes, 2)
            and threshold.dtype == self.feature_dtype
            and fg.flags.c_contiguous
            and threshold.flags.c_contiguous
        ):
            return None
        return "count_second_f64", (fg, threshold)

    def _node_fields(self):
        f = self.fg[:, 0]
        internal = f >= 0
        # A leaf (feature -1) never reads the row in C.
        return np.where(internal, f, 0), self.fg[:, 1], internal

    def _records(self, node):
        return self.fg.take(node, axis=0, mode="clip")

    def _fields(self, rec, node):
        return rec[:, 0], self.threshold.take(node), rec[:, 1]

    def _alive(self, rec):
        return rec[:, 0] >= 0


class QuantizedForest(_RoutedForest):
    """A hist-grown flat forest traversed entirely in uint8 bin codes.

    Histogram-grown trees (:mod:`repro.ml.training`) only ever split at
    real bin-edge values: every internal threshold is *exactly*
    ``bin_edges[f][b]`` for the cut bin ``b`` chosen by the grower.  And
    the bin code of a value ``v`` is ``searchsorted(edges, v,
    side="left")`` — the count of edges strictly below ``v`` — so for
    strictly increasing edges::

        code(v) > b   <=>   v > edges[f][b]        for every real v

    (``code <= b`` iff ``v <= edges[f][b]``: exactly ``b`` edges lie
    below ``edges[f][b]`` itself, and anything larger clears at least
    ``b + 1``).  Rewriting each node's float threshold as its cut-bin
    code therefore routes every window to the **same leaf** as the
    float64 kernel — votes are bitwise identical *by construction*, not
    by tolerance.

    The payoff is bandwidth: a batch is quantized **once**, after which
    each traversal step gathers one packed ``int64`` per live slot
    (goto | feature | code, layout at the module header) and one
    ``uint8`` feature code — versus the float kernel's 16-byte ``fg``
    row, 8-byte threshold and 8-byte feature value.  The code matrix
    for a 256-row batch is a few KB and stays cache-resident across all
    M members.  :meth:`encode` quantizes with one batched searchsorted
    (:func:`~repro.ml.training.quantize_with_tables`) for the numpy
    loop; the native ``count_second`` takes the float rows instead and
    quantizes them inside its one C call, a binary search per value
    over that feature's edges (:meth:`_edge_table`), to the same
    codes.

    Two further layout choices keep the kernel ahead of the float path
    on fleet-sized forests (node tables far larger than cache):

    * **level-major numbering** — :func:`compile_quantized_forest`
      renumbers nodes breadth-first across *all* members, so every
      traversal level's gathers land in one contiguous block of the
      packed array (the early levels span a few KB total) instead of
      striding across the whole table in the growers' depth-first
      order;
    * **byte-aligned fields** — code/feature/goto are read from the
      gathered records as zero-copy strided views, eliminating the
      three shift/mask passes a bit-packed layout would pay per level.

    Carries the per-feature edge tables (``edges_sorted`` /
    ``edge_prefix``) so it can encode raw float windows itself,
    without a fitted :class:`~repro.ml.training.BinMapper`.
    """

    feature_dtype = np.dtype(np.uint8)

    def __init__(
        self,
        packed: np.ndarray,
        leaf_label: np.ndarray,
        roots: np.ndarray,
        n_features: int,
        max_depth: int,
        edges_sorted: np.ndarray,
        edge_prefix: np.ndarray,
    ):
        super().__init__(leaf_label, roots, n_features, max_depth)
        self.packed = packed
        self.n_nodes = len(packed)
        self.edges_sorted = edges_sorted
        self.edge_prefix = edge_prefix

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Quantize a raw float batch to the uint8 code matrix.

        One batched searchsorted over the globally sorted edges plus a
        prefix-matrix gather — bitwise identical to
        ``BinMapper.transform`` (which is itself pinned against the
        per-feature reference loop).  Already-encoded uint8 input
        passes through untouched.
        """
        X = np.asarray(X)
        if X.dtype == np.uint8:
            codes = np.ascontiguousarray(X)
        else:
            from .training import quantize_with_tables

            codes = quantize_with_tables(self.edges_sorted, self.edge_prefix, X)
        self._check_width(codes)
        return codes

    def _native_rows(self, X):
        """The kernel's row arguments: the float64 batch, which it
        encodes itself, and a scratch matrix for the codes.  ``None``
        for a batch of codes already, which the numpy loop serves."""
        X = np.asarray(X)
        if X.dtype == np.uint8:
            return None
        x = np.ascontiguousarray(X, dtype=np.float64)
        self._check_width(x)
        return x, np.empty(x.shape, dtype=np.uint8)

    def _native_tables(self):
        packed = self.packed
        if packed.dtype != np.int64 or not packed.flags.c_contiguous:
            return None
        return "count_second_u8", (packed, *self._edge_table())

    def _edge_table(self):
        """Each feature's edges, concatenated in feature order, and the
        int64 offsets of every feature's run (``n_features + 1``).

        Derived from the encode tables: row ``r + 1`` of
        ``edge_prefix`` steps up in the column of the feature that owns
        ``edges_sorted[r]``, and its last row holds each feature's edge
        count.
        """
        prefix = np.asarray(self.edge_prefix)
        edges_sorted = np.asarray(self.edges_sorted, dtype=np.float64)
        if prefix.shape != (len(edges_sorted) + 1, self.n_features):
            raise _refused("encode tables do not match its width")
        _, rank = np.nonzero(np.diff(prefix, axis=0).T)
        offset = np.zeros(self.n_features + 1, dtype=np.int64)
        np.cumsum(prefix[-1] - prefix[0], out=offset[1:])
        return np.ascontiguousarray(edges_sorted[rank]), offset

    def _check_nodes(self):
        """The node check, then the edge table's: offsets monotone from
        0 to the table's end, at most 255 edges per feature (so codes
        fit a uint8) and each feature's edges strictly increasing and
        not NaN (the kernel's binary search assumes it)."""
        native = super()._check_nodes()
        if native:
            _, (_, edges, offset) = native
            size = np.diff(offset)
            increasing = np.diff(edges) > 0
            # A step between two features' runs may go down.
            ends = offset[1:-1]
            increasing[ends[(ends > 0) & (ends < len(edges))] - 1] = True
            if not (
                offset.shape == (self.n_features + 1,)
                and offset[0] == 0
                and offset[-1] == len(edges)
                and np.all((size >= 0) & (size <= 255))
                and np.all(increasing)
                and not np.isnan(edges).any()
            ):
                raise _refused("edge table is not sorted runs of at most 255 edges")
        return native

    def _node_fields(self):
        # A leaf reads its feature (0) too; its code 255 keeps it put.
        packed = self.packed
        internal = (packed & 0xFF) != _Q_LEAF_CODE
        feature = (packed >> _Q_FEAT_SHIFT) & _Q_FEAT_MASK
        return feature, packed >> _Q_GOTO_SHIFT, internal

    def _records(self, node):
        return self.packed.take(node)

    def _fields(self, rec, node):
        return (
            rec.view(np.uint16)[_Q_FEAT_OFF::4],
            rec.view(np.uint8)[_Q_CODE_OFF::8],
            rec.view(np.int32)[_Q_GOTO_OFF::2],
        )

    def _alive(self, rec):
        return rec.view(np.uint8)[_Q_CODE_OFF::8] != _Q_LEAF_CODE


def _flatten_member(
    member,
    classes: np.ndarray,
    n_features: int,
    feature_map: np.ndarray | None,
    offset: int,
):
    """One member's flat arrays, offset into the stacked tensor."""
    tree = getattr(member, "tree_", None)
    if tree is None:
        raise BackendCompileError(f"{type(member).__name__} has no flat tree.")
    feature = np.asarray(tree.feature)
    threshold = np.asarray(tree.threshold)
    left = np.asarray(tree.children_left)
    right = np.asarray(tree.children_right)
    value = np.asarray(tree.value)
    n_nodes = len(feature)
    leaf = feature < 0
    internal = ~leaf
    # The goto trick requires sibling pairs: fit() allocates children
    # back-to-back, so right == left + 1 for every internal node.
    if not np.array_equal(right[internal], left[internal] + 1):
        raise BackendCompileError("tree children are not paired consecutively.")

    member_classes = np.asarray(member.classes_)
    if member_classes.dtype != classes.dtype or not np.all(
        np.isin(member_classes, classes)
    ):
        raise BackendCompileError("member classes are not a subset of the ensemble's.")
    if feature_map is not None:
        feature_map = np.asarray(feature_map)
        if internal.any() and int(feature[internal].max()) >= len(feature_map):
            raise BackendCompileError("feature map shorter than tree features.")
        global_feature = np.where(
            leaf, _LEAF, feature_map[np.clip(feature, 0, None)]
        )
    else:
        global_feature = np.where(leaf, _LEAF, feature)
    if internal.any() and int(global_feature.max()) >= n_features:
        raise BackendCompileError("tree feature index exceeds input width.")

    self_ids = np.arange(n_nodes)
    goto = np.where(leaf, self_ids, left) + offset
    flat_threshold = np.where(leaf, np.inf, threshold)
    # Leaf label exactly as member.predict emits it: argmax over the
    # *normalised* counts, so float tie-breaks match bit for bit.
    proba = value / value.sum(axis=1, keepdims=True)
    leaf_label = member_classes[np.argmax(proba, axis=1)]
    try:
        depth = int(tree.max_depth())
    except AttributeError:
        raise BackendCompileError("tree storage lacks max_depth().")
    return global_feature, flat_threshold, goto, leaf_label, depth


def compile_flat_forest(
    members,
    classes: np.ndarray,
    n_features: int,
    features_list=None,
) -> FlatForest:
    """Stack fitted tree members into one :class:`FlatForest`.

    Parameters
    ----------
    members:
        Fitted estimators exposing ``tree_`` (a
        :class:`~repro.ml.tree.TreeStructure`) and ``classes_``.
    classes:
        The ensemble's class labels (vote dtype and argmax order).
    n_features:
        Width of the ensemble's input space.
    features_list:
        Optional per-member global feature-index maps
        (``estimators_features_``); folded into the node tensor.

    Raises
    ------
    BackendCompileError
        When any member cannot be flattened (no tree, incompatible
        classes, unpaired children).  Callers treat this as "use the
        legacy loop".
    """
    if not members:
        raise BackendCompileError("no members to compile.")
    classes = np.asarray(classes)
    features, thresholds, gotos, labels, roots = [], [], [], [], []
    offset = 0
    max_depth = 0
    for position, member in enumerate(members):
        feature_map = None if features_list is None else features_list[position]
        f, t, g, lab, depth = _flatten_member(
            member, classes, n_features, feature_map, offset
        )
        features.append(f)
        thresholds.append(t)
        gotos.append(g)
        labels.append(lab)
        roots.append(offset)
        offset += len(f)
        max_depth = max(max_depth, depth)
    fg = np.ascontiguousarray(
        np.stack(
            [np.concatenate(features), np.concatenate(gotos)], axis=1
        ).astype(np.intp)
    )
    return FlatForest(
        fg=fg,
        threshold=np.concatenate(thresholds),
        leaf_label=np.concatenate(labels).astype(classes.dtype),
        roots=np.asarray(roots, dtype=np.intp),
        n_features=n_features,
        max_depth=max_depth,
    )


def compile_quantized_forest(forest: FlatForest, mapper) -> QuantizedForest:
    """Rewrite a float64 flat forest into uint8 bin-code space.

    ``mapper`` is the fitted :class:`~repro.ml.training.BinMapper` the
    ensemble was grown on.  Every internal threshold must be *exactly*
    one of the mapper's edge values (the hist grower guarantees this:
    it splits at ``edges[f][cut_bin]`` verbatim); each is rewritten to
    its cut-bin code and the node record packed into one int64.  Any
    threshold that is not an exact edge — an exact-grown tree, a
    mapper/ensemble mismatch — raises :class:`BackendCompileError`:
    the vote-identity guarantee cannot be established, so there is no
    approximate fallback.

    Nodes are renumbered **level-major** across the whole forest: all
    members' depth-0 nodes first, then every depth-1 node, and so on,
    with each sibling pair adjacent (preserving the ``right = left +
    1`` convention).  The level-synchronous kernel then gathers from
    one contiguous block per level — the first few levels of even a
    multi-million-node forest span a few KB — instead of striding
    across the member-by-member depth-first layout the growers emit.
    """
    bin_edges = getattr(mapper, "bin_edges_", None)
    if bin_edges is None:
        raise BackendCompileError("mapper has no fitted bin edges.")
    if len(bin_edges) != forest.n_features:
        raise BackendCompileError("mapper width does not match the forest.")
    n_nodes = forest.n_nodes
    if n_nodes >= (1 << 31) or forest.n_features > _Q_FEAT_MASK:
        raise BackendCompileError("forest too large for the packed layout.")

    f = forest.fg[:, 0]
    goto = forest.fg[:, 1]
    leaf = f < 0
    code = np.full(n_nodes, _Q_LEAF_CODE, dtype=np.int64)
    for feature in np.unique(f[~leaf]):
        edges = np.asarray(bin_edges[feature], dtype=np.float64)
        mask = f == feature
        t = forest.threshold[mask]
        b = np.searchsorted(edges, t, side="left")
        # A cut bin is a valid code iff the threshold is *exactly* the
        # edge value (side="left" lands on the first >= entry, so an
        # off-grid threshold either overruns the edges or gathers a
        # different value).  BinMapper caps edges at 255 per feature,
        # keeping every cut code <= 254, below the leaf sentinel.
        if b.size and (
            int(b.max()) >= min(len(edges), _Q_LEAF_CODE)
            or not np.array_equal(edges[b], t)
        ):
            raise BackendCompileError(
                f"feature {int(feature)} has thresholds off the bin-edge "
                "grid; only hist-grown ensembles quantize."
            )
        code[mask] = b
    feature_packed = np.where(leaf, 0, f).astype(np.int64)
    goto64 = goto.astype(np.int64)

    # Level-major BFS renumbering: sweep one frontier per depth across
    # every member at once; children are appended as adjacent
    # (left, right) pairs so the right = left + 1 convention survives.
    new_id = np.full(n_nodes, -1, dtype=np.int64)
    frontier = np.asarray(forest.roots, dtype=np.int64)
    next_free = 0
    while len(frontier):
        new_id[frontier] = np.arange(next_free, next_free + len(frontier))
        next_free += len(frontier)
        internal = frontier[~leaf[frontier]]
        lefts = goto64[internal]
        frontier = np.column_stack([lefts, lefts + 1]).ravel()
    if next_free != n_nodes:
        raise BackendCompileError("forest has nodes unreachable from roots.")
    new_goto = np.where(leaf, new_id, new_id[np.clip(goto64, 0, n_nodes - 1)])

    packed = np.empty(n_nodes, dtype=np.int64)
    packed[new_id] = (
        (new_goto << _Q_GOTO_SHIFT) | (feature_packed << _Q_FEAT_SHIFT) | code
    )
    leaf_label = np.empty_like(forest.leaf_label)
    leaf_label[new_id] = forest.leaf_label
    roots = new_id[np.asarray(forest.roots, dtype=np.int64)].astype(np.intp)

    edges_sorted = getattr(mapper, "_edges_sorted_", None)
    if edges_sorted is None:
        mapper._build_flat_quantizer()
        edges_sorted = mapper._edges_sorted_
    return QuantizedForest(
        packed=packed,
        leaf_label=leaf_label,
        roots=roots,
        n_features=forest.n_features,
        max_depth=forest.max_depth,
        edges_sorted=edges_sorted,
        edge_prefix=mapper._edge_prefix_,
    )


class CompiledVotePath:
    """Mixin growing an ensemble a compiled, cached vote path.

    Hosts expose ``estimators_`` / ``classes_`` / ``n_features_in_``
    (and optionally ``estimators_features_``).  The mixin provides:

    * :meth:`decisions` — the legacy per-member Python loop, kept as
      the reference implementation and benchmark baseline;
    * :meth:`compile` — build and cache the flattened backend (a
      :class:`FlatForest`, or ``None`` when the members are not all
      trees);
    * :meth:`decisions_fast` — votes through the compiled backend,
      transparently falling back to :meth:`decisions`;
    * :meth:`vote_distribution` / :meth:`predict` — the shared Eq. 3
      vote-fraction path, routed through the fast votes.

    The compiled backend is keyed to the ``estimators_`` list object,
    so any refit (which rebuilds that list) invalidates it without the
    host having to remember to.
    """

    def _vote_members(self) -> tuple[list, list | None]:
        """Members and optional per-member global feature maps."""
        return self.estimators_, getattr(self, "estimators_features_", None)

    def _invalidate_backend(self) -> None:
        """Drop any compiled backend (called at the top of ``fit``)."""
        self.__dict__.pop("_backend_cache_", None)

    def compile(self, mode: str | None = None):
        """Build (or fetch the cached) flattened prediction backend.

        ``mode`` selects the kernel (see :data:`COMPILE_MODES`):

        * ``"flat"`` — the float64 reference kernel (default);
        * ``"quantized"`` — the uint8 bin-code kernel, available only
          for hist-grown ensembles (raises
          :class:`BackendCompileError` otherwise — vote identity
          cannot be established off the bin grid).

        The mode is *sticky*: ``compile()`` with no argument reuses the
        last requested mode, so refit paths that recompile internally
        (``partial_refit``) keep serving the caller's chosen kernel.
        Returns the backend object, or ``None`` when the ensemble is
        not compilable (the fast path then degrades to the legacy loop).
        Refitting invalidates the cache automatically; backends are
        cached per (member list, mode).
        """
        if mode is None:
            mode = getattr(self, "_compile_mode_", "flat")
        if mode not in COMPILE_MODES:
            raise ValueError(
                f"unknown compile mode {mode!r}; expected one of {COMPILE_MODES}."
            )
        self._compile_mode_ = mode
        members, features_list = self._vote_members()
        cache = getattr(self, "_backend_cache_", None)
        if cache is None or cache[0] is not members:
            cache = (members, {})
            self._backend_cache_ = cache
        by_mode = cache[1]
        if mode in by_mode:
            return by_mode[mode]

        if "flat" not in by_mode:
            by_mode["flat"] = self._compile_flat(members, features_list)
        base = by_mode["flat"]
        if mode == "quantized":
            binned = getattr(self, "_binned_", None)
            if binned is None or base is None:
                raise BackendCompileError(
                    "quantized compile requires a pure tree ensemble grown "
                    "with grower='hist' (no binned training buffer found)."
                )
            backend = compile_quantized_forest(base, binned.mapper)
        else:
            backend = base
        by_mode[mode] = backend
        return backend

    def _compile_flat(self, members, features_list):
        """The float64 backend build (flat, or ``None``)."""
        try:
            return compile_flat_forest(
                members, self.classes_, self.n_features_in_, features_list
            )
        except BackendCompileError:
            return None

    def decisions(self, X) -> np.ndarray:
        """Per-member hard votes via the legacy Python loop.

        One ``member.predict`` call per member — kept verbatim as the
        reference implementation the compiled backend is verified
        against (and benchmarked over).
        """
        X = self._check_predict_input(X)
        members, features_list = self._vote_members()
        votes = np.empty((X.shape[0], len(members)), dtype=self.classes_.dtype)
        for position, member in enumerate(members):
            Xm = X if features_list is None else X[:, features_list[position]]
            votes[:, position] = member.predict(Xm)
        return votes

    def decisions_fast(self, X) -> np.ndarray:
        """Per-member hard votes via the compiled backend.

        Bitwise identical to :meth:`decisions`; falls back to it when
        the ensemble cannot be compiled.
        """
        backend = self.compile() if hasattr(self, "estimators_") else None
        if backend is None:
            return self.decisions(X)
        X = self._check_predict_input(X)
        return backend.decisions(X)

    def vote_distribution(self, X) -> np.ndarray:
        """Frequency distribution of member decisions over classes.

        Shape ``(n_samples, n_classes)``; rows sum to 1 (Eq. 3).
        """
        # Local import: repro.ml must stay importable without pulling
        # the uncertainty package in at module load.
        from ..uncertainty.entropy import votes_to_distribution

        return votes_to_distribution(self.decisions_fast(X), self.classes_)

    def predict(self, X) -> np.ndarray:
        """Majority vote of the members (through the compiled path)."""
        distribution = self.vote_distribution(X)
        return self.classes_[np.argmax(distribution, axis=1)]
