"""The native traversal kernel against the numpy loop it replaces.

``_RoutedForest.count_second`` runs ``_traverse.c`` when the loader
built it and the numpy level-synchronous loop otherwise; the two must
return the same integers for every forest.  The property test below
draws ragged random forests (single-node trees, stumps, spines down to
depth 31) in both record layouts and compares the two kernels at
the block-size edges.  The rest pin the loader (fallback without a
compiler, a cached second load, the bounds check) and that
``TrustedHMD.analyze`` never reaches C.
"""

import os
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
from repro.uncertainty import TrustedHMD
from tests.conftest import Trap, make_blobs

needs_native = pytest.mark.skipif(
    _native.library() is None, reason="no C compiler: only numpy can serve"
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
        code = np.where(internal, rng.integers(0, 255, n_nodes), 255)
        packed = (goto << 32) | (np.where(internal, feature, 0) << 16) | code
        forest = QuantizedForest(
            packed=packed,
            edges_sorted=np.empty(0),
            edge_prefix=np.empty((n_features, 0), dtype=np.int64),
            **shape,
        )
        return forest, (lambda n: rng.integers(0, 256, (n, n_features), np.uint8))
    # A coarse grid of cuts and values makes exact ties (x == cut) common.
    cut = np.where(internal, rng.integers(-4, 5, n_nodes) / 2.0, np.inf)
    fg = np.stack([np.where(internal, feature, -1), goto], axis=1)
    forest = FlatForest(
        fg=np.ascontiguousarray(fg, dtype=np.intp),
        threshold=cut,
        **shape,
    )
    return forest, (lambda n: rng.integers(-5, 6, (n, n_features)) / 2.0)


@needs_native
class TestKernelsAgree:
    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["float64", "quantized"]),
        seed=st.integers(0, 2**32 - 1),
        depths=st.lists(st.integers(0, 31), min_size=1, max_size=12),
        n_features=st.integers(1, 9),
        n_rows=st.sampled_from([1, 31, 32, 33, 257]),
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
