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
* :class:`FlatForest` routes all ``n_samples x n_members`` slots at
  once through one level-synchronous numpy loop — one gather per node
  record per level, with active-set compaction once most slots have
  reached leaves — reduced either to leaf ids or to per-row
  second-class vote counts.
* :class:`QuantizedForest` is a hist-grown :class:`FlatForest`
  rewritten into the native uint8 kernel's layout and nothing else:
  its leaf ids and votes, and its counts when the kernel is not
  built, come from the :class:`FlatForest` it was compiled from.
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
takes the float64 rows and encodes them inside the same call, from the
per-feature edge table of the mapper's ``bin_edges_``; its codes are
:meth:`~repro.ml.training.BinMapper.transform`'s bit for bit.  The
loader compiles the kernel on first use with the host ``cc`` into a
per-user cache (``~/.cache/repro``, mode ``0o700``, named by a hash of
source and flags; a temp file is moved into place with
``os.replace``, so concurrent builds are safe) and loads it with
``ctypes``.  Without a compiler, or if building or loading fails, the
float64 numpy loop serves both layouts; it is also the reference the
kernels are tested against, and the integer counts are identical for
every finite row.  Before a forest's first native call one check of
its node and edge tables runs (the C loop has none) and a corrupt
table raises.  A ``ctypes`` call releases the GIL, so threads can
count in parallel.  ``apply`` and ``decisions`` stay on numpy: they
feed ``TrustedHMD.analyze``, the oracle the fleet's verdicts are
checked against, so the oracle never runs the code it checks.

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

# Traversal tuning of the numpy loop.  A batch is split into the
# fewest equal row chunks whose slot count (rows x members) stays
# within ``_SLOT_TARGET``, so the per-level working arrays stay
# cache-resident: a 256-row batch of a 100-member forest is one chunk,
# a 1024-row round a few.  Once fewer than ``_COMPACT_RATIO`` of a
# chunk's slots are still routing, the finished ones are banked and
# dropped, as long as the active set is big enough for the two
# compaction passes to pay.
_SLOT_TARGET = 25_600
_COMPACT_RATIO = 0.5
_MIN_COMPACT = 1024

# Backend compile modes: "flat" is the float64 reference kernel,
# "quantized" the uint8 bin-code kernel (vote-identical by
# construction, hist-grown only).
COMPILE_MODES = ("flat", "quantized")

# QuantizedForest node record, the native uint8 kernel's layout: one
# int64 per node,
#   rec = (goto << 32) | (feature << 16) | code
# so one 8-byte load per step replaces the float kernel's fg row
# (16 B) and threshold (8 B).  Leaves store the sentinel code 255
# (internal cut bins never exceed 254: max_bins is capped at 256, and a
# valid cut keeps both children non-empty so the cut bin is
# <= n_bins - 2), goto = self and feature 0 (any in-bounds index: no
# uint8 code exceeds 255, so the slot stays put).
_Q_GOTO_SHIFT = 32
_Q_FEAT_SHIFT = 16
_Q_FEAT_MASK = 0xFFFF
_Q_LEAF_CODE = 255


def native_traversal() -> bool:
    """Whether vote counting runs the native kernel in this process."""
    return _native.library() is not None


class BackendCompileError(Exception):
    """An ensemble (or member) cannot be flattened; callers fall back."""


def _refused(what: str) -> ValueError:
    return ValueError(f"forest {what}; refusing to traverse it natively.")


class _NativeCounted:
    """The native ``count_second`` call shared by both layouts.

    A subclass names its C entry point and node tables
    (:meth:`_native_tables`) and lists every node's feature read, goto
    and internal bit (:meth:`_node_fields`) for the bounds check that
    runs before its first native count.
    """

    # The native kernel's (entry name, node tables) once checked; False
    # when numpy serves this forest, None before the first count.
    _kernel = None

    def __setstate__(self, state):
        # The checked native entry belongs to the library of the process
        # that pickled the forest (and to its version of the entry's
        # arguments): check again before the first native count here.
        state.pop("_kernel", None)
        self.__dict__.update(state)

    def _native_count(self, leaf_is_second, *rows):
        """Counts from the C kernel over ``rows`` (its row arguments),
        or ``None`` when it is not loaded or cannot take the indicator
        (int64, one entry per node, C-contiguous)."""
        lib = _native.library()
        if lib is None:
            return None
        if self._kernel is None:
            self._kernel = self._check_nodes()
        if not (
            self._kernel
            and leaf_is_second.dtype == np.int64
            and leaf_is_second.shape == (self.n_nodes,)
            and leaf_is_second.flags.c_contiguous
        ):
            return None
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


class FlatForest(_NativeCounted):
    """All trees of an ensemble packed into one node tensor.

    All ``rows x members`` slots of a chunk advance one tree level per
    iteration: gather each slot's ``fg`` row, compare the slot's
    feature value against the node's threshold, step to ``goto + (x >
    threshold)``.  The level-0 step is precomputed per chunk shape;
    from level 2 on, a liveness scan ends the loop once every slot has
    settled and compacts the active set when most have.

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

    def __init__(
        self,
        fg: np.ndarray,
        threshold: np.ndarray,
        leaf_label: np.ndarray,
        roots: np.ndarray,
        n_features: int,
        max_depth: int,
    ):
        self.fg = fg
        self.threshold = threshold
        self.leaf_label = leaf_label
        self.roots = roots
        self.n_features = int(n_features)
        self.max_depth = int(max_depth)
        self.n_members = len(roots)
        self.n_nodes = len(threshold)
        self._setup_cache: dict[int, tuple] = {}

    def encode(self, X: np.ndarray) -> np.ndarray:
        """The batch as a contiguous float64 matrix of the forest's width."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"X has shape {X.shape}; backend expects {self.n_features} features."
            )
        return X

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id per (sample, member), shape ``(n, n_members)``.

        Always the numpy loop: leaf ids feed ``decisions`` and so
        ``TrustedHMD.analyze``, the reference the native counts are
        checked against.
        """
        return self._route(self.encode(X))

    def decisions(self, X: np.ndarray) -> np.ndarray:
        """Per-member hard votes, shape ``(n, n_members)``.

        Bitwise identical to the legacy per-member predict loop.
        """
        leaves = self.apply(X)
        return self.leaf_label.take(leaves.ravel()).reshape(leaves.shape)

    def count_second(self, X, leaf_is_second: np.ndarray) -> np.ndarray:
        """Per-row sum of ``leaf_is_second`` over the members' leaves.

        With a 0/1 indicator of the leaves voting the second class,
        this is each row's second-class vote count.  The native kernel
        serves when it is loaded and takes the indicator, in one call
        from the rows to the counts; otherwise the numpy loop reduces
        chunk by chunk without materialising the ``(n, n_members)``
        leaf matrix.  Both return the same integers.
        """
        x = self.encode(X)
        counts = self._native_count(leaf_is_second, x)
        return self._route(x, leaf_is_second) if counts is None else counts

    def _native_tables(self):
        fg, threshold = self.fg, self.threshold
        if not (
            fg.dtype == np.int64
            and fg.shape == (self.n_nodes, 2)
            and threshold.dtype == np.float64
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
        f, goto = self.fg[self.roots].T
        cut = self.threshold[self.roots]
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
            rec = self.fg.take(node, axis=0, mode="clip")
            if level >= 2:
                alive = rec[:, 0] >= 0
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
        # Clip-mode gather: a leaf's feature is -1, so row 0's slot
        # would index -1 (the compare against +inf ignores it).
        xv = x.take(np.add(rec[:, 0], rows), mode="clip")
        return self._step(rec[:, 1], xv, self.threshold.take(node))

    @staticmethod
    def _step(goto, xv, cut):
        return np.add(goto, np.greater(xv, cut), dtype=np.intp)


class QuantizedForest(_NativeCounted):
    """A hist-grown flat forest in the native uint8 kernel's layout.

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
    code therefore routes every finite window to the **same leaf** as
    the float64 kernel — votes are bitwise identical *by construction*,
    not by tolerance.  NaN is the exception (it sorts above every edge
    but compares false), so :meth:`count_second` refuses non-finite
    rows on every path.

    The payoff is bandwidth in the C walk: each step loads one packed
    ``int64`` record (goto | feature | code, layout at the module
    header) and one ``uint8`` code, versus the float kernel's 16-byte
    ``fg`` row, 8-byte threshold and 8-byte feature value.  The kernel
    encodes the float rows itself, from ``edges`` (every feature's
    ``bin_edges_``, concatenated) and ``edge_offset`` (int64, feature
    ``f``'s edges are ``edges[edge_offset[f]:edge_offset[f + 1]]``).

    Nodes are numbered **level-major** across all members
    (:func:`compile_quantized_forest`), so the early steps of every
    tree load from one small block of ``packed``: the native u8 walk
    read 3.68–4.27 µs/row level-major against 3.93–4.81 member-major
    on the bench's 123,678-node hpc forest.  ``order`` maps each node
    of ``flat``, the :class:`FlatForest` this was compiled from, to its
    id here.  There is no numpy walk of this layout: :meth:`apply`,
    :meth:`decisions` and, without the library, :meth:`count_second`
    route through ``flat``.
    """

    def __init__(
        self,
        packed: np.ndarray,
        leaf_label: np.ndarray,
        roots: np.ndarray,
        n_features: int,
        max_depth: int,
        edges: np.ndarray,
        edge_offset: np.ndarray,
        flat: FlatForest,
        order: np.ndarray,
    ):
        self.packed = packed
        self.leaf_label = leaf_label
        self.roots = roots
        self.n_features = int(n_features)
        self.max_depth = int(max_depth)
        self.n_members = len(roots)
        self.n_nodes = len(packed)
        self.edges = edges
        self.edge_offset = edge_offset
        self.flat = flat
        self.order = order

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id (in this layout) per (sample, member)."""
        return self.order[self.flat.apply(X)]

    def decisions(self, X: np.ndarray) -> np.ndarray:
        """Per-member hard votes: ``flat``'s, which are this layout's."""
        return self.flat.decisions(X)

    def count_second(self, X, leaf_is_second: np.ndarray) -> np.ndarray:
        """Per-row sum of ``leaf_is_second`` (indexed by this layout's
        node ids) over the members' leaves.

        The native uint8 kernel encodes and walks the float rows in one
        call; without it, ``flat`` counts them with the indicator
        carried over through ``order``.  A row with NaN or infinite
        features raises ``ValueError`` on both paths, so the counts
        never depend on whether the library loaded.
        """
        x = self.flat.encode(X)
        if not np.isfinite(x).all():
            raise ValueError("X contains NaN or infinite values.")
        counts = self._native_count(
            leaf_is_second, x, np.empty(x.shape, dtype=np.uint8)
        )
        if counts is None:
            counts = self.flat._route(x, leaf_is_second[self.order])
        return counts

    def _native_tables(self):
        packed, edges, offset = self.packed, self.edges, self.edge_offset
        if not (
            packed.dtype == np.int64
            and edges.dtype == np.float64
            and offset.dtype == np.int64
            and packed.flags.c_contiguous
            and edges.flags.c_contiguous
            and offset.flags.c_contiguous
        ):
            return None
        return "count_second_u8", (packed, edges, offset)

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
    1`` convention), so the native walk's early steps load from a few
    KB of records instead of striding across the member-by-member
    depth-first layout the growers emit (measured at
    :class:`QuantizedForest`).  The kernel's edge table is built once,
    here, from ``mapper.bin_edges_``.
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

    per_feature = [np.asarray(e, dtype=np.float64) for e in bin_edges]
    edge_offset = np.zeros(len(per_feature) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in per_feature], out=edge_offset[1:])
    return QuantizedForest(
        packed=packed,
        leaf_label=leaf_label,
        roots=roots,
        n_features=forest.n_features,
        max_depth=forest.max_depth,
        edges=np.concatenate([np.empty(0), *per_feature]),
        edge_offset=edge_offset,
        flat=forest,
        order=new_id,
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
    host having to remember to.  It is a cache, never state: a pickle
    carries none and drops one it finds, so the first use after
    loading compiles the backend of this version again, whatever
    layout the pickling version had.
    """

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_backend_cache_", None)
        return state

    def __setstate__(self, state):
        state.pop("_backend_cache_", None)
        self.__dict__.update(state)

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
