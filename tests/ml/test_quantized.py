"""Equivalence suite for the quantized inference kernel.

The **quantized** (uint8 bin-code) kernel must reproduce the float64
flat kernel *bitwise* — every hist-tree threshold is exactly a bin
edge, so rewriting ``x > edges[b]`` as ``code > b`` cannot change a
single vote.

:meth:`BinMapper.transform` is pinned against an independent count of
the edges strictly below each value, including degenerate inputs
(constant features, exact edge values, out-of-range probes).  The
quantized layout has no numpy walk of its own: its leaf ids, votes and
(without the library) counts go through the float64 forest it was
compiled from, and are pinned against the legacy member loop here.
"""

import pickle

import numpy as np
import pytest

from repro.ml import (
    BaggingClassifier,
    BinMapper,
    DecisionTreeClassifier,
    QuantizedForest,
    RandomForestClassifier,
    compile_quantized_forest,
)
from repro.ml.backend import COMPILE_MODES, BackendCompileError
from tests.conftest import make_blobs
from tests.ml.test_backend import assert_reductions_match_legacy, chunk_rows


def hist_forest(n_estimators=12, max_depth=None, seed=0, n_per_class=120):
    X, y = make_blobs(n_per_class=n_per_class, seed=seed)
    ensemble = RandomForestClassifier(
        n_estimators=n_estimators,
        max_depth=max_depth,
        random_state=seed,
        grower="hist",
    ).fit(X, y)
    return ensemble, X


def edges_below(mapper, X):
    """Per feature, how many edges lie strictly below each value."""
    return np.stack(
        [
            (edges[None, :] < X[:, [f]]).sum(axis=1)
            for f, edges in enumerate(mapper.bin_edges_)
        ],
        axis=1,
    )


def assert_votes_identical(ensemble, X):
    """Quantized, flat and legacy votes all agree bitwise."""
    legacy = ensemble.decisions(X)
    flat = ensemble.compile(mode="flat").decisions(X)
    quant = ensemble.compile(mode="quantized").decisions(X)
    np.testing.assert_array_equal(flat, legacy)
    np.testing.assert_array_equal(quant, legacy)


class TestVectorizedTransform:
    """BinMapper.transform counts the edges strictly below each value."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_bins", [2, 17, 256])
    def test_random_matrices(self, seed, max_bins):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 6)) * rng.gamma(1.0, size=6)
        mapper = BinMapper(max_bins=max_bins).fit(X)
        probe = rng.normal(scale=3.0, size=(97, 6))
        np.testing.assert_array_equal(mapper.transform(probe), edges_below(mapper, probe))

    def test_degenerate_columns(self):
        rng = np.random.default_rng(5)
        X = np.column_stack(
            [
                np.full(150, 3.25),                  # constant → no edges
                rng.integers(0, 3, size=150),        # few distinct values
                rng.normal(size=150),                # > max_bins distinct
                np.repeat([-1.0, 0.0, 1.0], 50),     # exact repeated values
            ]
        )
        mapper = BinMapper(max_bins=8).fit(X)
        probe = np.vstack([X, X + 1e3, X - 1e3, np.zeros((3, 4))])
        np.testing.assert_array_equal(mapper.transform(probe), edges_below(mapper, probe))

    def test_exact_edge_values(self):
        """Probes sitting exactly on bin edges take the left bin."""
        X = np.random.default_rng(9).normal(size=(300, 3))
        mapper = BinMapper(max_bins=32).fit(X)
        edges = mapper.bin_edges_
        probe = np.column_stack(
            [np.resize(edges[f], 40) for f in range(3)]
        )
        codes = mapper.transform(probe)
        np.testing.assert_array_equal(codes, edges_below(mapper, probe))
        # side="left": a value equal to edges[b] has exactly b edges
        # strictly below it, so it lands in bin b (the left side).
        for f in range(3):
            expected = np.searchsorted(edges[f], probe[:, f], side="left")
            np.testing.assert_array_equal(codes[:, f], expected)


class TestQuantizedVoteIdentity:
    """Tentpole: uint8 traversal is vote-identical by construction."""

    @pytest.mark.parametrize("n_estimators", [1, 9, 40])
    def test_random_forest(self, n_estimators):
        ensemble, X = hist_forest(n_estimators=n_estimators, seed=11)
        probe = np.vstack([X, np.random.default_rng(0).normal(size=(80, 6))])
        assert_votes_identical(ensemble, probe)

    def test_bagging_hist_prototype(self):
        X, y = make_blobs(n_per_class=100, seed=22)
        ensemble = BaggingClassifier(
            DecisionTreeClassifier(grower="hist"),
            n_estimators=10,
            random_state=2,
        ).fit(X, y)
        assert_votes_identical(ensemble, X)

    def test_stumps(self):
        ensemble, X = hist_forest(n_estimators=20, max_depth=1, seed=13)
        assert_votes_identical(ensemble, X)

    def test_adversarial_probes_on_the_bin_grid(self):
        """Rows placed exactly at every threshold still vote identically."""
        ensemble, X = hist_forest(n_estimators=8, seed=17)
        flat = ensemble.compile(mode="flat")
        internal = np.isfinite(flat.threshold)
        rng = np.random.default_rng(17)
        cuts = flat.threshold[internal]
        feats = flat.fg[internal, 0] % X.shape[1]
        probe = X[rng.integers(len(X), size=len(cuts))].copy()
        probe[np.arange(len(cuts)), feats] = cuts
        assert_votes_identical(ensemble, probe)

    def test_backend_structure(self):
        ensemble, X = hist_forest(n_estimators=6, seed=3)
        backend = ensemble.compile(mode="quantized")
        assert isinstance(backend, QuantizedForest)
        assert backend.n_members == 6
        assert backend.packed.dtype == np.int64
        # Leaves carry the sentinel code 255 and self-loop.
        codes = backend.packed & 0xFF
        gotos = backend.packed >> 32
        leaves = codes == 255
        np.testing.assert_array_equal(
            gotos[leaves], np.nonzero(leaves)[0]
        )
        # The float64 forest it was compiled from, and each of its
        # nodes' id here.
        flat = ensemble.compile(mode="flat")
        assert backend.flat is flat
        np.testing.assert_array_equal(backend.leaf_label[backend.order], flat.leaf_label)
        np.testing.assert_array_equal(backend.roots, backend.order[flat.roots])

    def test_compile_quantized_forest_direct(self):
        ensemble, X = hist_forest(n_estimators=5, seed=4)
        flat = ensemble.compile(mode="flat")
        quant = compile_quantized_forest(flat, ensemble._binned_.mapper)
        np.testing.assert_array_equal(quant.decisions(X), flat.decisions(X))

    def test_quantized_survives_pickle(self):
        ensemble, X = hist_forest(n_estimators=7, seed=5)
        reference = ensemble.compile(mode="quantized").decisions(X)
        clone = pickle.loads(pickle.dumps(ensemble))
        np.testing.assert_array_equal(
            clone.compile(mode="quantized").decisions(X), reference
        )


class TestQuantizedReductions:
    """Leaves and counts of the uint8 kernel vs. the legacy loop."""

    @pytest.fixture(scope="class")
    def deep_forest(self):
        X, y = make_blobs(n_per_class=150, separation=0.5, seed=31)
        ensemble = RandomForestClassifier(
            n_estimators=40, random_state=3, grower="hist"
        ).fit(X, y)
        return ensemble, X

    @pytest.mark.parametrize("rows", ["one", "chunk", "chunk+1"])
    def test_chunk_boundaries(self, deep_forest, rows):
        ensemble, X = deep_forest
        chunk = chunk_rows(ensemble.compile(mode="quantized"))
        n = {"one": 1, "chunk": chunk, "chunk+1": chunk + 1}[rows]
        probe = X[np.random.default_rng(n).integers(len(X), size=n)] + 0.01
        assert_reductions_match_legacy(ensemble, probe, "quantized")

    def test_stump_members(self):
        ensemble, X = hist_forest(n_estimators=30, max_depth=1, seed=13)
        assert ensemble.compile(mode="quantized").max_depth == 1
        assert_reductions_match_legacy(ensemble, np.vstack([X] * 30), "quantized")

    def test_repeated_compaction(self, deep_forest, monkeypatch):
        ensemble, X = deep_forest
        backend = ensemble.compile(mode="quantized")
        rows = np.random.default_rng(5).integers(len(X), size=chunk_rows(backend))
        probe = X[rows]
        assert_reductions_match_legacy(ensemble, probe, "quantized")
        # Leaf ids come from the float64 forest's loop, which compacts.
        sizes = []
        advance = backend.flat._advance

        def spy(rec, node, x, rows):
            sizes.append(len(node))
            return advance(rec, node, x, rows)

        monkeypatch.setattr(backend.flat, "_advance", spy)
        backend.apply(probe)
        assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 2, sizes


@pytest.mark.usefixtures("numpy_kernel")
class TestQuantizedReductionsNumpy(TestQuantizedReductions):
    """The uint8 reductions with the numpy loop counting."""


class TestCompileModes:
    def test_mode_lattice(self):
        assert COMPILE_MODES == ("flat", "quantized")

    def test_unknown_mode_rejected(self):
        ensemble, _ = hist_forest(n_estimators=3)
        with pytest.raises(ValueError, match="unknown compile mode"):
            ensemble.compile(mode="uint4")
        with pytest.raises(ValueError, match="unknown compile mode"):
            ensemble.compile(mode="float32")

    def test_exact_grower_cannot_quantize(self):
        X, y = make_blobs(n_per_class=80, seed=6)
        ensemble = RandomForestClassifier(
            n_estimators=5, random_state=0, grower="exact"
        ).fit(X, y)
        with pytest.raises(BackendCompileError, match="hist"):
            ensemble.compile(mode="quantized")

    def test_modes_cached_separately_and_sticky(self):
        ensemble, X = hist_forest(n_estimators=4, seed=7)
        flat = ensemble.compile(mode="flat")
        quant = ensemble.compile(mode="quantized")
        assert ensemble.compile(mode="flat") is flat
        assert ensemble.compile(mode="quantized") is quant
        # Sticky: a no-argument compile reuses the last requested mode.
        assert ensemble.compile() is quant
        # decisions_fast serves the sticky mode.
        np.testing.assert_array_equal(
            ensemble.decisions_fast(X), quant.decisions(X)
        )

    def test_refit_invalidates_all_modes(self):
        ensemble, X = hist_forest(n_estimators=4, seed=8)
        quant = ensemble.compile(mode="quantized")
        X2, y2 = make_blobs(n_per_class=90, seed=80)
        ensemble.fit(X2, y2)
        rebuilt = ensemble.compile(mode="quantized")
        assert rebuilt is not quant
        np.testing.assert_array_equal(
            rebuilt.decisions(X2), ensemble.decisions(X2)
        )
