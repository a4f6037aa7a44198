import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enose.classifiers.tree import TreeParams, best_split, dt_fit, gini_impurity
from enose.errors import DimensionMismatch, EmptyNode, ShapeMismatch

# naive reimplementation used as the exhaustive-split oracle


def oracle_gini(labels, n_classes):
    counts = [0] * n_classes
    for y in labels:
        counts[y] += 1
    n = len(labels)
    return 1.0 - sum((c / n) ** 2 for c in counts)


def oracle_best_split(X, y, n_classes, min_leaf=1):
    n, d = X.shape
    parent = oracle_gini(list(y), n_classes)
    best = None
    for f in range(d):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values, values[1:]):
            threshold = 0.5 * (lo + hi)
            left = [y[i] for i in range(n) if X[i, f] <= threshold]
            right = [y[i] for i in range(n) if X[i, f] > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            dec = parent - (len(left) * oracle_gini(left, n_classes)
                            + len(right) * oracle_gini(right, n_classes)) / n
            if dec > 1e-15 and (best is None or dec > best[2] + 1e-15):
                best = (f, threshold, dec)
    return best


def test_gini_values():
    assert gini_impurity([10, 0]) == 0.0
    assert gini_impurity([5, 5]) == pytest.approx(0.5)
    assert gini_impurity([2, 2, 2, 2, 2]) == pytest.approx(0.8)


def test_gini_empty_node():
    with pytest.raises(EmptyNode):
        gini_impurity([0, 0])


@given(st.lists(st.integers(0, 20), min_size=2, max_size=6).filter(lambda c: sum(c) > 0))
@settings(max_examples=60, deadline=None)
def test_gini_bounds(counts):
    g = gini_impurity(counts)
    k = len(counts)
    assert 0.0 <= g <= 1.0 - 1.0 / k + 1e-12


def test_dt_toy_root_split():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    model = dt_fit(X, y)
    assert model.root.feature == 0
    assert model.root.threshold == pytest.approx(2.5)
    assert (model.predict(X) == y).all()


def test_dt_pure_labels_single_leaf():
    model = dt_fit(np.arange(6, dtype=float)[:, None], np.zeros(6, dtype=int), n_classes=2)
    assert model.root.is_leaf


def test_dt_min_samples_leaf_forces_single_leaf():
    X = np.arange(8, dtype=float)[:, None]
    y = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    model = dt_fit(X, y, TreeParams(min_samples_leaf=8))
    assert model.root.is_leaf
    assert model.predict(X).tolist() == [0] * 8  # majority class


def test_dt_max_depth_zero_is_leaf():
    X = np.arange(4, dtype=float)[:, None]
    y = np.array([0, 1, 0, 1])
    assert dt_fit(X, y, TreeParams(max_depth=0)).root.is_leaf


def test_dt_leaf_probabilities():
    X = np.array([[0.0], [0.0], [0.0], [1.0]])
    y = np.array([0, 0, 1, 1])
    model = dt_fit(X, y, TreeParams(max_depth=1))
    proba = model.predict_proba(np.array([[0.0]]))
    assert proba[0] == pytest.approx([2 / 3, 1 / 3])


def test_dt_pure_leaf_one_hot():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    proba = dt_fit(X, y).predict_proba(X)
    assert np.array_equal(proba, np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float))


def test_dt_routing_deterministic():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 3, size=50)
    model = dt_fit(X, y)
    q = rng.normal(size=(10, 3))
    assert np.array_equal(model.predict_proba(q), model.predict_proba(q))


def test_dt_memorizes_consistent_data():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 2))
    y = rng.integers(0, 4, size=40)
    model = dt_fit(X, y)
    assert (model.predict(X) == y).mean() == 1.0


def test_dt_row_permutation_invariance():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    model_a = dt_fit(X, y)
    perm = rng.permutation(30)
    model_b = dt_fit(X[perm], y[perm])
    q = rng.normal(size=(20, 3))
    assert np.array_equal(model_a.predict(q), model_b.predict(q))


def test_dt_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dt_fit(np.zeros((3, 2)), np.zeros(4, dtype=int))


def test_dt_predict_dimension_mismatch():
    model = dt_fit(np.zeros((4, 2)), np.array([0, 0, 1, 1]))
    with pytest.raises(DimensionMismatch):
        model.predict(np.zeros((2, 3)))


def test_dt_row_stochastic_output():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 5, size=60)
    proba = dt_fit(X, y, TreeParams(max_depth=3)).predict_proba(X)
    assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9
    assert (proba >= 0).all() and (proba <= 1).all()


def test_best_split_matches_oracle_small():
    rng = np.random.default_rng(4)
    for min_leaf in (1, 2, 3):
        for trial in range(30):
            n = int(rng.integers(4, 25))
            d = int(rng.integers(1, 4))
            X = np.round(rng.normal(size=(n, d)), 2)
            y = rng.integers(0, 3, size=n)
            if np.unique(y).size < 2:
                continue
            mine = best_split(X, y.astype(np.int64), 3, np.arange(d), min_leaf)
            ref = oracle_best_split(X, y, 3, min_leaf)
            if ref is None:
                assert mine is None
            else:
                assert mine is not None
                assert mine[0] == ref[0]
                assert mine[1] == ref[1]  # both are 0.5 * (lo + hi) of the same values
