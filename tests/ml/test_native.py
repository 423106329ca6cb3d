"""The native traversal kernel against the numpy loop it replaces.

``_RoutedForest.count_second`` runs ``_traverse.c`` when the loader
built it and the numpy level-synchronous loop otherwise; the two must
return the same integers for every forest.  The property test below
draws ragged random forests (single-node trees, stumps, spines down to
depth 31) in both record layouts and compares the two kernels at
the block-size edges.  The uint8 entry encodes its float rows itself:
a second property pins its codes to ``quantize_with_tables`` on exact
edges, their neighbours, +-inf, +-0.0 and NaN.  The rest pin the
loader (fallback without a compiler, a cached second load, the bounds
and edge-table checks) and that ``TrustedHMD.analyze`` never reaches
C.
"""

import os
import pickle
import re
import stat
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetMonitor, PublishedHmd
from repro.fleet.engine import batch_verdict_key
from repro.ml import RandomForestClassifier, _native
from repro.ml.backend import FlatForest, QuantizedForest
from repro.ml.training import BinMapper, quantize_with_tables
from repro.uncertainty import TrustedHMD
from tests.conftest import Trap, make_blobs

needs_native = pytest.mark.skipif(
    _native.library() is None, reason="no C compiler: only numpy can serve"
)

# Rows per block of the native walk, read from its source.
BLOCK = int(
    re.search(r"#define BLOCK (\d+)", _native._SOURCES[0].read_text()).group(1)
)


def random_forest_arrays(rng, n_trees, depths, n_features):
    """Stacked ``(feature, goto, internal)`` arrays of random ragged trees.

    Each tree is grown breadth-first with sibling pairs adjacent (the
    ``right = left + 1`` convention) and self-looping leaves; a tree of
    target depth ``d`` keeps one spine of internal left children down
    to ``d`` and branches elsewhere at random, so trees are deep but
    small.
    """
    feature, goto, internal = [], [], []
    roots, max_depth = [], 0
    for t in range(n_trees):
        base = len(feature)
        roots.append(base)
        frontier = [(base, 0, True)]
        feature.append(0)
        goto.append(base)
        internal.append(False)
        while frontier:
            node, depth, spine = frontier.pop(0)
            split = depth < depths[t] and (spine or rng.random() < 0.45)
            if not split:
                continue
            left = len(feature)
            feature[node] = int(rng.integers(n_features))
            goto[node] = left
            internal[node] = True
            for child, child_spine in ((left, spine), (left + 1, False)):
                feature.append(0)
                goto.append(child)
                internal.append(False)
                frontier.append((child, depth + 1, child_spine))
            max_depth = max(max_depth, depth + 1)
    return (
        np.asarray(feature, dtype=np.int64),
        np.asarray(goto, dtype=np.int64),
        np.asarray(internal),
        np.asarray(roots, dtype=np.intp),
        max_depth,
    )


def encode_tables(per_feature):
    """``(edges_sorted, edge_prefix)`` of per-feature edge arrays, as a
    fitted :class:`BinMapper` builds them."""
    mapper = BinMapper()
    mapper.bin_edges_ = [np.asarray(e, dtype=np.float64) for e in per_feature]
    mapper.n_features_in_ = len(per_feature)
    mapper._build_flat_quantizer()
    return mapper._edges_sorted_, mapper._edge_prefix_


SPECIALS = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])


def edge_rows(rng, per_feature, n):
    """``n`` float rows whose columns hit each feature's edges exactly,
    their ``nextafter`` neighbours, +-inf, +-0.0 and NaN."""
    columns = []
    for edges in per_feature:
        pool = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                SPECIALS,
                rng.normal(scale=30.0, size=4),
            ]
        )
        columns.append(rng.choice(pool, n))
    return np.stack(columns, axis=1)


def build_forest(layout, rng, n_trees, depths, n_features):
    """A random forest in one record layout, plus a batch to route."""
    feature, goto, internal, roots, max_depth = random_forest_arrays(
        rng, n_trees, depths, n_features
    )
    n_nodes = len(feature)
    shape = dict(
        leaf_label=np.zeros(n_nodes, dtype=np.int64),
        roots=roots,
        n_features=n_features,
        max_depth=max_depth,
    )
    if layout == "quantized":
        # Coarse edge grids (0 to 160 edges a feature) and cuts that
        # span each feature's codes.
        grid = np.arange(-80, 81) / 4.0
        per_feature = [
            np.sort(rng.choice(grid, int(rng.integers(0, len(grid))), replace=False))
            for _ in range(n_features)
        ]
        edges_sorted, edge_prefix = encode_tables(per_feature)
        n_edges = np.array([len(e) for e in per_feature])
        code = rng.integers(0, np.minimum(n_edges[feature] + 1, 255))
        code = np.where(internal, code, 255)
        packed = (goto << 32) | (np.where(internal, feature, 0) << 16) | code
        forest = QuantizedForest(
            packed=packed,
            edges_sorted=edges_sorted,
            edge_prefix=edge_prefix,
            **shape,
        )
        return forest, (lambda n: edge_rows(rng, per_feature, n))
    # A coarse grid of cuts and values makes exact ties (x == cut) common.
    cut = np.where(internal, rng.integers(-4, 5, n_nodes) / 2.0, np.inf)
    fg = np.stack([np.where(internal, feature, -1), goto], axis=1)
    forest = FlatForest(
        fg=np.ascontiguousarray(fg, dtype=np.intp),
        threshold=cut,
        **shape,
    )
    return forest, (lambda n: rng.integers(-5, 6, (n, n_features)) / 2.0)


def stump_forest(per_feature):
    """A forest whose count is every feature's code, 8 bits each.

    One stump per (feature ``f``, cut ``c`` in 0..254): its right leaf
    is worth ``1 << 8 f``, so a row's count is the sum over features of
    ``code_f << 8 f`` (a code is at most 255: no carry).
    """
    n_features = len(per_feature)
    feature = np.repeat(np.arange(n_features), 255)
    cut = np.tile(np.arange(255), n_features)
    root = 3 * np.arange(len(feature))
    packed = np.full(3 * len(feature), 255, dtype=np.int64)
    packed[1::3] |= (root + 1) << 32  # leaves loop on themselves
    packed[2::3] |= (root + 2) << 32
    packed[root] = ((root + 1) << 32) | (feature << 16) | cut
    weight = np.zeros(len(packed), dtype=np.int64)
    weight[root + 2] = 1 << (8 * feature)
    edges_sorted, edge_prefix = encode_tables(per_feature)
    forest = QuantizedForest(
        packed=packed,
        leaf_label=np.zeros(len(packed), dtype=np.int64),
        roots=root.astype(np.intp),
        n_features=n_features,
        max_depth=1,
        edges_sorted=edges_sorted,
        edge_prefix=edge_prefix,
    )
    return forest, weight


@needs_native
class TestKernelsAgree:
    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["float64", "quantized"]),
        seed=st.integers(0, 2**32 - 1),
        depths=st.lists(st.integers(0, 31), min_size=1, max_size=12),
        n_features=st.integers(1, 9),
        n_rows=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
    )
    def test_random_ragged_forests(self, layout, seed, depths, n_features, n_rows):
        rng = np.random.default_rng(seed)
        forest, batch = build_forest(layout, rng, len(depths), depths, n_features)
        X = batch(n_rows)
        leaf_is_second = rng.integers(0, 2, forest.n_nodes).astype(np.int64)
        native = forest.count_second(X, leaf_is_second)
        assert forest._kernel, "the native kernel did not serve"
        reference = forest._route(forest.encode(X), leaf_is_second)
        assert native.dtype == reference.dtype
        np.testing.assert_array_equal(native, reference)
        if layout == "quantized":
            # A batch of codes is not encoded again: numpy routes it.
            from_codes = forest.count_second(forest.encode(X), leaf_is_second)
            np.testing.assert_array_equal(from_codes, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 255), max_size=5),
        n_rows=st.sampled_from([1, BLOCK + 1, 300]),
    )
    def test_fused_encode_is_quantize_with_tables(self, seed, sizes, n_rows):
        """The uint8 entry's codes, read back through a stump forest,
        equal the numpy encode's on every row, for features with 0 and
        with 255 edges among them."""
        rng = np.random.default_rng(seed)
        grid = np.arange(-400, 400) / 8.0  # holds 0.0: ties with +-0.0
        per_feature = [
            np.sort(rng.choice(grid, size, replace=False))
            for size in rng.permutation([0, 255, *sizes])
        ]
        forest, weight = stump_forest(per_feature)
        X = edge_rows(rng, per_feature, n_rows)
        counts = forest.count_second(X, weight)
        assert forest._kernel, "the native kernel did not serve"
        codes = quantize_with_tables(forest.edges_sorted, forest.edge_prefix, X)
        for f in range(len(per_feature)):
            np.testing.assert_array_equal((counts >> (8 * f)) & 0xFF, codes[:, f])
        np.testing.assert_array_equal(
            counts, forest._route(forest.encode(X), weight)
        )

    def test_forest_pickled_before_the_fused_encode_serves(self):
        """A forest pickled with the old entry's checked tables cached
        drops them on load and serves with the derived edge table."""
        rng = np.random.default_rng(3)
        forest, batch = build_forest("quantized", rng, 4, [5, 0, 9, 3], 3)
        forest._kernel = ("count_second_u8", (forest.packed,))
        restored = pickle.loads(pickle.dumps(forest))
        X = batch(40)
        leaf_is_second = rng.integers(0, 2, forest.n_nodes).astype(np.int64)
        counts = restored.count_second(X, leaf_is_second)
        assert len(restored._kernel[1]) == 3  # packed, edges, offsets
        np.testing.assert_array_equal(
            counts, restored._route(restored.encode(X), leaf_is_second)
        )

    @pytest.mark.parametrize("layout", ["float64", "quantized"])
    def test_corrupt_goto_is_refused(self, layout):
        rng = np.random.default_rng(1)
        forest, batch = build_forest(layout, rng, 3, [4, 0, 6], 5)
        leaf_is_second = np.zeros(forest.n_nodes, dtype=np.int64)
        # An internal node whose right child would be node n_nodes.
        if layout == "quantized":
            internal = np.flatnonzero((forest.packed & 0xFF) != 255)
            forest.packed = forest.packed.copy()
            rec = forest.packed[internal[0]]
            forest.packed[internal[0]] = (rec & 0xFFFFFFFF) | (
                (forest.n_nodes - 1) << 32
            )
        else:
            internal = np.flatnonzero(forest.fg[:, 0] >= 0)
            forest.fg = forest.fg.copy()
            forest.fg[internal[0], 1] = forest.n_nodes - 1
        with pytest.raises(ValueError, match="refusing to traverse"):
            forest.count_second(batch(4), leaf_is_second)

    def test_feature_out_of_range_is_refused(self):
        forest, batch = build_forest("float64", np.random.default_rng(2), 2, [3, 3], 4)
        forest.n_features = 2  # features 2 and 3 now index past the row
        forest.fg = forest.fg.copy()
        forest.fg[forest.fg[:, 0] >= 0, 0] = 3
        with pytest.raises(ValueError, match="refusing to traverse"):
            forest.count_second(batch(3)[:, :2], np.zeros(forest.n_nodes, np.int64))

    @pytest.mark.parametrize(
        "corruption",
        ["unsorted", "nan edge", "over 255 edges", "offset past the end", "offsets fall"],
    )
    def test_corrupt_edge_table_is_refused(self, corruption, monkeypatch):
        grid = np.arange(-40, 41) / 4.0
        per_feature = [grid[::3], grid[1::7], grid[::2]]
        forest, weight = stump_forest(per_feature)
        edges, offset = forest._edge_table()
        edges, offset = edges.copy(), offset.copy()
        if corruption == "unsorted":
            edges[[1, 2]] = edges[[2, 1]]
        elif corruption == "nan edge":
            edges[offset[1]] = np.nan
        elif corruption == "over 255 edges":
            edges = np.concatenate([np.arange(256.0), edges[offset[1] :]])
            offset[1:] += 256 - offset[1]
        elif corruption == "offset past the end":
            offset[-1] += 1
        else:
            offset[1] = offset[2] + 1
        monkeypatch.setattr(forest, "_edge_table", lambda: (edges, offset))
        with pytest.raises(ValueError, match="refusing to traverse"):
            forest.count_second(edge_rows(np.random.default_rng(0), per_feature, 4), weight)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded kernel with an empty cache directory."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "_handle", _native._UNSET)
    monkeypatch.setattr(_native, "_cache_dir", lambda: cache)
    return cache


def hmd_and_rows():
    X, y = make_blobs(n_per_class=150, separation=1.0, seed=41)
    hmd = TrustedHMD(
        RandomForestClassifier(n_estimators=25, random_state=2, grower="hist"),
        threshold=0.4,
        n_components=4,
    ).fit(X, y)
    hmd.compile(mode="quantized")
    return hmd, X


class TestLoader:
    @needs_native
    def test_one_traversal_entry_per_layout(self):
        lib = _native.library()
        assert lib.count_second_u8 and lib.count_second_f64
        assert not hasattr(lib, "count_second_f32")

    @needs_native
    def test_second_load_does_not_compile(self, fresh_loader, monkeypatch):
        calls = []
        run = subprocess.run

        def spy(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(_native.subprocess, "run", spy)
        assert _native.library() is not None
        assert len(calls) == 1
        assert stat.S_IMODE(os.stat(fresh_loader).st_mode) == 0o700
        assert [p.suffix for p in fresh_loader.iterdir()] == [".so"]
        monkeypatch.setattr(_native, "_handle", _native._UNSET)
        assert _native.library() is not None
        assert len(calls) == 1

    @needs_native
    def test_no_compiler_falls_back_bitwise(self, monkeypatch, request):
        hmd, X = hmd_and_rows()
        native = PublishedHmd(hmd).verdict(X)
        request.getfixturevalue("fresh_loader")
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        assert _native.library() is None
        fallback = PublishedHmd(hmd).verdict(X)
        for got, want in zip(fallback, native):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_unsafe_cache_directory_is_not_loaded(self, fresh_loader):
        fresh_loader.mkdir(mode=0o777)
        os.chmod(fresh_loader, 0o777)
        assert _native.library() is None


class TestWhereNativeServes:
    def test_analyze_never_calls_c(self, monkeypatch):
        """``analyze`` (the bench's oracle) stays on numpy, while the
        fleet's verdict path reaches the kernel."""

        hmd, X = hmd_and_rows()
        reference = hmd.analyze(X)
        published = PublishedHmd(hmd)
        monkeypatch.setattr(_native, "_handle", Trap())
        again = hmd.analyze(X)
        np.testing.assert_array_equal(again.entropy, reference.entropy)
        with pytest.raises(AssertionError, match="native count_second_u8"):
            published.verdict(X)

    @needs_native
    def test_fleet_verdicts_match_across_kernels(self, monkeypatch):
        hmd, X = hmd_and_rows()
        assert hmd.compile_mode == "quantized"

        def drain():
            monitor = FleetMonitor(hmd, batch_size=64)
            for i, row in enumerate(X):
                monitor.submit(f"dev-{i % 7}", row)
            return batch_verdict_key(monitor.drain())

        first = drain()
        monkeypatch.setattr(_native, "_handle", None)
        assert drain() == first
