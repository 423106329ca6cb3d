"""The native traversal kernel against the numpy loop it replaces.

``count_second`` runs ``_traverse.c`` when the loader built it; the
numpy float64 loop (``FlatForest._route``) is the fallback of both
layouts and the reference of both kernels.  The property tests below
draw ragged random forests (single-node trees, stumps, spines down to
depth 31) on a bin-edge grid and compare the native counts of each
layout with the float64 loop at the block-size edges; for the uint8
layout that compares two independent layouts of one forest.  The uint8
entry encodes its float rows itself: a stump property pins its codes to
``BinMapper.transform``'s rule on exact edges, their neighbours,
+-inf, +-0.0 and NaN.  The rest pin the refusal of non-finite rows,
the loader (fallback without a compiler, a cached second load, the
bounds and edge-table checks) and that ``TrustedHMD.analyze`` never
reaches C.
"""

import os
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
from repro.ml.backend import FlatForest, QuantizedForest, compile_quantized_forest
from repro.ml.training import BinMapper
from repro.uncertainty import TrustedHMD
from tests.conftest import Trap, make_blobs

needs_native = pytest.mark.skipif(
    _native.library() is None, reason="no C compiler: only numpy can serve"
)

# Rows per block and bytes per row tile of the native walk, read from
# its source.
_TRAVERSE = _native._SOURCES[0].read_text()
BLOCK = int(re.search(r"#define BLOCK (\d+)", _TRAVERSE).group(1))
TILE_BYTES = int(
    np.prod(
        [int(k) for k in re.search(
            r"#define TILE_BYTES \((\d+) \* (\d+)\)", _TRAVERSE
        ).groups()]
    )
)


def tile_rows(n_features: int, itemsize: int) -> int:
    """Rows per tile of the walk: the tile bytes over the row bytes,
    rounded down to whole blocks, at least one block."""
    return max(BLOCK, TILE_BYTES // (n_features * itemsize) // BLOCK * BLOCK)


# Row counts at the walk's seams, as (unit, multiple, offset): one row,
# either side of one and two blocks, and either side of one and two
# tiles.
SEAMS = [
    ("block", 0, 1),
    ("block", 1, -1),
    ("block", 1, 0),
    ("block", 1, 1),
    ("block", 2, 1),
    ("tile", 1, -1),
    ("tile", 1, 0),
    ("tile", 1, 1),
    ("tile", 2, 1),
]


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


def flat_forest(feature, goto, threshold, internal, roots, max_depth, n_features):
    """A :class:`FlatForest` of the given node arrays."""
    fg = np.stack([np.where(internal, feature, -1), goto], axis=1)
    return FlatForest(
        fg=np.ascontiguousarray(fg, dtype=np.intp),
        threshold=np.where(internal, threshold, np.inf),
        leaf_label=np.zeros(len(feature), dtype=np.int64),
        roots=roots,
        n_features=n_features,
        max_depth=max_depth,
    )


def mapper_of(per_feature):
    """A :class:`BinMapper` fitted to the given per-feature edges."""
    mapper = BinMapper()
    mapper.bin_edges_ = [np.asarray(e, dtype=np.float64) for e in per_feature]
    mapper.n_bins_ = np.array([len(e) + 1 for e in per_feature], dtype=np.intp)
    mapper.n_features_in_ = len(per_feature)
    return mapper


SPECIALS = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])


def edge_rows(rng, per_feature, n, finite=True):
    """``n`` float rows whose columns hit each feature's edges exactly,
    their ``nextafter`` neighbours and +-0.0 (and, unless ``finite``,
    +-inf and NaN)."""
    specials = SPECIALS[np.isfinite(SPECIALS)] if finite else SPECIALS
    columns = []
    for edges in per_feature:
        pool = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                specials,
                rng.normal(scale=30.0, size=4),
            ]
        )
        columns.append(rng.choice(pool, n))
    return np.stack(columns, axis=1)


def float64_route(forest, X, leaf_is_second):
    """Counts of the numpy float64 loop, the reference of both layouts."""
    if isinstance(forest, QuantizedForest):
        forest, leaf_is_second = forest.flat, leaf_is_second[forest.order]
    return forest._route(forest.encode(X), leaf_is_second)


def build_forest(layout, rng, n_trees, depths, n_features):
    """A random forest in one layout, plus a batch to route."""
    feature, goto, internal, roots, max_depth = random_forest_arrays(
        rng, n_trees, depths, n_features
    )
    shape = (internal, roots, max_depth, n_features)
    if layout == "quantized":
        # Coarse edge grids (1 to 160 edges a feature), cut at edges
        # that span each feature's codes, rewritten by the compiler.
        grid = np.arange(-80, 81) / 4.0
        per_feature = [
            np.sort(rng.choice(grid, int(rng.integers(1, len(grid))), replace=False))
            for _ in range(n_features)
        ]
        cut = [per_feature[f][rng.integers(len(per_feature[f]))] for f in feature]
        flat = flat_forest(feature, goto, np.asarray(cut), *shape)
        forest = compile_quantized_forest(flat, mapper_of(per_feature))
        return forest, (lambda n: edge_rows(rng, per_feature, n))
    # A coarse grid of cuts and values makes exact ties (x == cut) common.
    cut = rng.integers(-4, 5, len(feature)) / 2.0
    forest = flat_forest(feature, goto, cut, *shape)
    return forest, (lambda n: rng.integers(-5, 6, (n, n_features)) / 2.0)


def stump_forest(per_feature):
    """A uint8 forest whose count is every feature's code, 8 bits each.

    One stump per (feature ``f``, edge ``c``): its right leaf is worth
    ``1 << 8 f``, so a row's count is the sum over features of
    ``code_f << 8 f`` (a code is at most 255: no carry).  Returns the
    forest and that indicator, in the forest's node ids.
    """
    feature = np.concatenate(
        [np.full(len(e), f) for f, e in enumerate(per_feature)]
    ).astype(np.int64)
    cut = np.concatenate([np.empty(0), *per_feature])
    root = 3 * np.arange(len(feature))
    n_nodes = 3 * len(feature)
    node_feature = np.zeros(n_nodes, dtype=np.int64)
    node_feature[root] = feature
    threshold = np.zeros(n_nodes)
    threshold[root] = cut
    goto = np.arange(n_nodes)
    goto[root] = root + 1
    internal = np.zeros(n_nodes, dtype=bool)
    internal[root] = True
    flat = flat_forest(
        node_feature, goto, threshold, internal, root, 1, len(per_feature)
    )
    forest = compile_quantized_forest(flat, mapper_of(per_feature))
    weight = np.zeros(n_nodes, dtype=np.int64)
    weight[forest.order[root + 2]] = 1 << (8 * feature)
    return forest, weight


def searchsorted_codes(per_feature, X):
    """``BinMapper.transform``'s rule, without its finiteness check."""
    return np.stack(
        [np.searchsorted(e, X[:, f], side="left") for f, e in enumerate(per_feature)],
        axis=1,
    )


@needs_native
class TestKernelsAgree:
    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["float64", "quantized"]),
        seed=st.integers(0, 2**32 - 1),
        depths=st.lists(st.integers(0, 31), min_size=1, max_size=12),
        n_features=st.integers(1, 9),
        seam=st.sampled_from(SEAMS),
    )
    def test_random_ragged_forests(self, layout, seed, depths, n_features, seam):
        rng = np.random.default_rng(seed)
        forest, batch = build_forest(layout, rng, len(depths), depths, n_features)
        # The uint8 walk tiles its code rows, the float64 walk its rows.
        itemsize = 1 if layout == "quantized" else 8
        unit, multiple, offset = seam
        rows = BLOCK if unit == "block" else tile_rows(n_features, itemsize)
        X = batch(multiple * rows + offset)
        leaf_is_second = rng.integers(0, 2, forest.n_nodes).astype(np.int64)
        native = forest.count_second(X, leaf_is_second)
        assert forest._kernel, "the native kernel did not serve"
        reference = float64_route(forest, X, leaf_is_second)
        assert native.dtype == reference.dtype
        np.testing.assert_array_equal(native, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 255), max_size=5),
        n_rows=st.sampled_from([1, BLOCK + 1, 300]),
    )
    def test_fused_encode_is_transform(self, seed, sizes, n_rows):
        """The uint8 entry's codes are ``BinMapper.transform``'s, for
        features with 0 and with 255 edges among them; its counts over
        a stump forest read the codes back and equal the float64
        loop's."""
        rng = np.random.default_rng(seed)
        grid = np.arange(-400, 400) / 8.0  # holds 0.0: ties with +-0.0
        per_feature = [
            np.sort(rng.choice(grid, size, replace=False))
            for size in rng.permutation([0, 255, *sizes])
        ]
        forest, weight = stump_forest(per_feature)
        # The C encode on every value, NaN and +-inf included, read
        # from the entry's scratch (count_second refuses such rows).
        X = edge_rows(rng, per_feature, n_rows, finite=False)
        codes = np.empty(X.shape, dtype=np.uint8)
        assert forest._native_count(weight, X, codes) is not None
        np.testing.assert_array_equal(codes, searchsorted_codes(per_feature, X))
        X = edge_rows(rng, per_feature, n_rows)
        transform = mapper_of(per_feature).transform(X)
        counts = forest.count_second(X, weight)
        for f in range(len(per_feature)):
            np.testing.assert_array_equal((counts >> (8 * f)) & 0xFF, transform[:, f])
        np.testing.assert_array_equal(counts, float64_route(forest, X, weight))

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
    def test_corrupt_edge_table_is_refused(self, corruption):
        grid = np.arange(-40, 41) / 4.0
        per_feature = [grid[::3], grid[1::7], grid[::2]]
        forest, weight = stump_forest(per_feature)
        edges, offset = forest.edges.copy(), forest.edge_offset.copy()
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
        forest.edges, forest.edge_offset = edges, offset
        with pytest.raises(ValueError, match="refusing to traverse"):
            forest.count_second(edge_rows(np.random.default_rng(0), per_feature, 4), weight)


@pytest.mark.parametrize("kernel", ["native", "numpy"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_refused(kernel, value, monkeypatch):
    """The bin search and the float64 walk disagree on NaN, so the
    uint8 layout counts no non-finite row, with or without the
    library."""
    if kernel == "native" and _native.library() is None:
        pytest.skip("no C compiler: only numpy can serve")
    if kernel == "numpy":
        monkeypatch.setattr(_native, "_handle", None)
    per_feature = [np.arange(-3.0, 4.0), np.array([0.5])]
    forest, weight = stump_forest(per_feature)
    X = edge_rows(np.random.default_rng(4), per_feature, 6)
    X[3, 1] = value
    with pytest.raises(ValueError, match="NaN or infinite"):
        forest.count_second(X, weight)


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
