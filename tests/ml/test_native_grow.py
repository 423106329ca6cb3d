"""The native histogram grower against the numpy loop it replaces.

``grow_tree_binned`` runs ``_grow.c`` when the loader built it and
``_native_grower`` covers the fit, and the numpy loop otherwise; the
two must return the same bits in every member array and leave the
tree's Generator in the same state.  Each test grows its model twice,
once with the library and once with the handle set to ``None`` (what
the ``numpy_kernel`` fixture does), and compares: the hpc benchmark
forest at smoke size, the shared ``tests/ml`` fixtures, warm
``partial_refit`` (which adds a class), a caller-owned Generator, and
a property over random data and parameters in both histogram modes.
The rest pin which kernel serves and that the kernel refuses operands
out of range.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bench.workloads import DEPLOYMENT_SEED, SMOKE, _fit
from repro.data import build_hpc_dataset
from repro.ml import (
    BaggingClassifier,
    BinMapper,
    BinnedDataset,
    DecisionTreeClassifier,
    RandomForestClassifier,
    _native,
)
from repro.ml.training import grow_tree_binned
from tests.conftest import Spy, Trap, make_blobs

needs_native = pytest.mark.skipif(
    _native.library() is None, reason="no C compiler: only numpy can serve"
)

TREE_ARRAYS = (
    "feature",
    "threshold",
    "children_left",
    "children_right",
    "value",
    "impurity",
    "n_node_samples",
)


def with_handle(handle, fit):
    saved = _native._handle
    _native._handle = handle
    try:
        return fit()
    finally:
        _native._handle = saved


def grow_both(fit):
    """``fit()`` under the native grower (checked to serve) and under numpy."""
    spy = Spy(_native.library())
    native = with_handle(spy, fit)
    assert "hist_grow_start" in spy.resolved, "the native grower did not serve"
    return native, with_handle(None, fit)


def trees_of(model):
    if hasattr(model, "estimators_"):
        return [member.tree_ for member in model.estimators_]
    return [model.tree_]


def assert_same_trees(native, reference):
    """Every member array equal in dtype, shape and bits."""
    native, reference = trees_of(native), trees_of(reference)
    assert len(native) == len(reference)
    for i, (a, b) in enumerate(zip(native, reference)):
        for name in TREE_ARRAYS:
            got = np.asarray(getattr(a, name))
            want = np.asarray(getattr(b, name))
            assert got.dtype == want.dtype, (i, name)
            assert got.shape == want.shape, (i, name)
            assert got.tobytes() == want.tobytes(), (i, name)


@needs_native
class TestKernelsAgree:
    def test_hpc_bench_forest_at_smoke_size(self):
        dataset = build_hpc_dataset(seed=DEPLOYMENT_SEED, scale=SMOKE.hpc_scale)
        native, reference = grow_both(
            lambda: _fit(
                dataset.train.X, dataset.train.y, SMOKE,
                grower="hist", n_components=0.95,
            ).ensemble_
        )
        assert_same_trees(native, reference)

    @pytest.mark.parametrize("data", ["blobs", "overlapping_blobs", "hpc_small"])
    def test_fixture_forests(self, data, request):
        data = request.getfixturevalue(data)
        X, y = (data.train.X, data.train.y) if hasattr(data, "train") else data
        for make in (
            lambda: RandomForestClassifier(
                n_estimators=8, grower="hist", random_state=3
            ),
            lambda: BaggingClassifier(
                DecisionTreeClassifier(grower="hist", max_bins=32),
                n_estimators=8,
                random_state=3,
            ),
        ):
            assert_same_trees(*grow_both(lambda: make().fit(X, y)))

    def test_partial_refit_adding_a_class(self, blobs):
        X, y = blobs
        rng = np.random.default_rng(5)
        X_new = rng.normal(loc=6.0, size=(40, X.shape[1]))
        y_new = np.full(40, 2)

        def refit():
            forest = RandomForestClassifier(
                n_estimators=6, grower="hist", random_state=4
            ).fit(X, y)
            return forest.partial_refit(X_new, y_new)

        native, reference = grow_both(refit)
        assert native.estimators_[0].n_classes_ == 3
        assert_same_trees(native, reference)

    def test_caller_owned_generator_ends_in_the_same_state(self, overlapping_blobs):
        X, y = overlapping_blobs
        generators = []

        def fit():
            rng = np.random.default_rng(11)
            generators.append(rng)
            return DecisionTreeClassifier(
                grower="hist", max_features="sqrt", random_state=rng
            ).fit(X, y)

        native, reference = grow_both(fit)
        assert_same_trees(native, reference)
        assert generators[0].bit_generator.state == generators[1].bit_generator.state
        # The draws really moved it.
        assert generators[0].bit_generator.state != (
            np.random.default_rng(11).bit_generator.state
        )

    @pytest.mark.parametrize("values", [[0, 1, 2], [0, 0, 1, 2]])
    def test_a_nan_gain_makes_a_leaf(self, values):
        """The cut after value 1 leaves a right side whose weight
        (1e-10) rounds away: 0/0 gives a NaN gain, numpy's argmax
        returns it, and the root stays a leaf although the cut after
        value 0 has a positive gain.  Three rows take the sorted scan,
        four (more than the three bins) the histogram scan."""
        X = np.array(values, dtype=float)[:, None]
        y = (X[:, 0] == 1).astype(int)
        weights = np.array([1e10, 1.0, 1e-10])[np.asarray(values)]
        native, reference = grow_both(
            lambda: DecisionTreeClassifier(grower="hist", max_bins=3).fit(
                X, y, sample_weight=weights
            )
        )
        assert native.tree_.node_count == 1
        assert_same_trees(native, reference)

    def test_equal_children_subtract_into_the_right_one(self):
        """A root split into two equal halves above B rows: the left
        child's histogram is filled from its rows and the right one's is
        parent - left, and with weights of wild magnitudes the two
        derivations differ in their low bits."""
        rng = np.random.default_rng(8)
        X = np.column_stack([np.repeat([0.0, 1.0], 200), rng.normal(size=400)])
        y = ((X[:, 0] + 0.3 * X[:, 1] + rng.normal(scale=0.3, size=400)) > 0.5)
        weights = 10.0 ** rng.uniform(-6, 6, 400)
        native, reference = grow_both(
            lambda: DecisionTreeClassifier(grower="hist", max_bins=8).fit(
                X, y.astype(int), sample_weight=weights
            )
        )
        assert native.tree_.feature[0] == 0
        assert native.tree_.n_node_samples[1:3].tolist() == [200, 200]
        assert_same_trees(native, reference)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(3, 700),
        n_features=st.integers(1, 6),
        n_classes=st.sampled_from([2, 3]),
        mode=st.sampled_from(["tree", "forest", "bagging"]),
        max_features=st.sampled_from([None, 1, 2, "sqrt"]),
        max_bins=st.sampled_from([2, 5, 32, 256]),
        max_depth=st.sampled_from([None, 0, 1, 3, 8]),
        min_samples_leaf=st.integers(1, 5),
        min_impurity_decrease=st.sampled_from([0.0, 0.0, 1e-3, 0.05]),
        weights=st.sampled_from([None, "fractional", "tiny", "wild"]),
    )
    def test_random_fits(self, seed, n_rows, n_features, n_classes, mode,
                         max_features, max_bins, max_depth, min_samples_leaf,
                         min_impurity_decrease, weights):
        """Subset mode (a draw per node) and subtraction mode (all
        features: histograms ride the stack), fractional weights, coarse
        values that make gain ties common."""
        assume(mode == "tree" or n_rows >= 24)  # class-complete bootstraps
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n_rows, n_features)), 1)
        y = (X[:, 0] > 0).astype(int) + rng.integers(0, 2, n_rows)
        y = np.minimum(y, n_classes - 1)
        y[: n_classes] = np.arange(n_classes)  # every class present
        if isinstance(max_features, int):
            max_features = min(max_features, n_features)
        tree = DecisionTreeClassifier(
            grower="hist",
            max_features=max_features,
            max_bins=max_bins,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease,
            random_state=seed % 1000,
        )
        sample_weight = None
        if weights == "wild":
            # Magnitudes far apart: a side's weight can round away in
            # counts - left, giving zero (NaN gains) or negative sides.
            sample_weight = 10.0 ** rng.uniform(-12, 12, n_rows)
        elif weights is not None:
            scale = 1e-3 if weights == "tiny" else 3.0
            sample_weight = rng.uniform(0.0, scale, n_rows)
            sample_weight[rng.random(n_rows) < 0.1] = 0.0
            sample_weight[: n_classes] = scale / 3  # some weight survives

        def fit():
            if mode == "tree":
                return DecisionTreeClassifier(**tree.get_params()).fit(
                    X, y, sample_weight=sample_weight
                )
            if mode == "forest":
                return RandomForestClassifier(
                    n_estimators=3,
                    grower="hist",
                    max_features=max_features,
                    max_bins=max_bins,
                    max_depth=max_depth,
                    min_samples_leaf=min_samples_leaf,
                    random_state=seed % 1000,
                ).fit(X, y)
            return BaggingClassifier(
                tree.set_params(max_features=None),
                n_estimators=3,
                random_state=seed % 1000,
            ).fit(X, y)

        assert_same_trees(*grow_both(fit))


@needs_native
@pytest.mark.parametrize("defect", ["class", "row", "code"])
def test_out_of_range_operands_are_refused(defect):
    view = BinnedDataset(BinMapper(max_bins=8), make_blobs(n_per_class=20)[0]).view()
    y = np.arange(view.n_rows) % 2
    rows = np.arange(view.n_rows)
    if defect == "class":
        y[3] = 2
    elif defect == "row":
        rows[5] = view.n_rows
    else:
        view.codes[7, 1] = view.n_bins[1]
    with pytest.raises(ValueError, match="refusing to grow"):
        grow_tree_binned(view, y, 2, rows=rows)


class TestWhichKernelServes:
    def test_entropy_stays_in_numpy(self, blobs):
        X, y = blobs
        with_handle(Trap(), lambda: RandomForestClassifier(
            n_estimators=3, grower="hist", criterion="entropy", random_state=0
        ).fit(X, y))

    def test_eight_classes_stay_in_numpy(self):
        X, y = make_blobs(n_per_class=40, seed=3)
        y = np.arange(len(y)) % 8
        with_handle(Trap(), lambda: DecisionTreeClassifier(grower="hist").fit(X, y))

    def test_exact_grower_never_reaches_c(self, blobs):
        X, y = blobs
        with_handle(Trap(), lambda: DecisionTreeClassifier().fit(X, y))

    def test_numpy_serves_without_the_library(self, numpy_kernel, blobs):
        X, y = blobs
        forest = RandomForestClassifier(
            n_estimators=4, grower="hist", random_state=0
        ).fit(X, y)
        assert forest.score(X, y) > 0.95
