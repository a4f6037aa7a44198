import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enose.classifiers.base import argmax_rows
from enose.classifiers.forest import (
    ForestParams, RandomForest, draw_features, resolve_max_features, rf_fit,
)
from enose.classifiers.tree import DecisionTree, TreeNode, TreeParams, dt_fit
from enose.errors import ConfigError, ShapeMismatch
from enose.rng import derive_rng


def _data(n=60, d=4, C=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, C, size=n)
    return X, y


@pytest.mark.parametrize("change, message", [
    ({"n_estimators": 0}, "n_estimators must be an integer >= 1, got 0"),
    ({"n_estimators": 2.0}, "n_estimators must be an integer >= 1, got 2.0"),
    ({"max_features": False}, "max_features must be sqrt, log2, all or a fraction, got False"),
    ({"max_features": "half"}, "max_features must be sqrt, log2, all or a fraction, got 'half'"),
    ({"max_features": 1.5}, "max_features fraction 1.5 outside (0, 1]"),
    ({"bootstrap": 1}, "bootstrap must be true or false, got 1"),
    ({"seed": 1.0}, "seed must be an integer, got 1.0"),
])
def test_fit_checks_the_forest_params(change, message):
    X, y = _data()
    with pytest.raises(ConfigError, match=re.escape(message)):
        rf_fit(X, y, ForestParams(**{"n_estimators": 2, "seed": 0, **change}), n_classes=3)


def test_resolve_max_features():
    assert resolve_max_features("sqrt", 9) == 3
    assert resolve_max_features("sqrt", 7) == 3  # ceil, min 1
    assert resolve_max_features("log2", 8) == 3
    assert resolve_max_features("all", 5) == 5
    assert resolve_max_features(0.5, 7) == 4
    assert resolve_max_features("sqrt", 1) == 1


@pytest.mark.parametrize("spec", [0.0, 1.5, -0.2, "half"])
def test_bad_max_features_is_config_error(spec):
    with pytest.raises(ConfigError):
        resolve_max_features(spec, 7)


def test_single_tree_no_bootstrap_equals_dt():
    X, y = _data()
    params = ForestParams(n_estimators=1, max_features="all", bootstrap=False, seed=5)
    forest = rf_fit(X, y, params, n_classes=3)
    tree = dt_fit(X, y, TreeParams(), n_classes=3)
    q = np.random.default_rng(1).normal(size=(25, 4))
    assert np.array_equal(forest.predict_proba(q), tree.predict_proba(q))
    assert np.array_equal(forest.predict(q), tree.predict(q))


def test_probability_average_and_tie_break():
    leaf_a = TreeNode(counts=np.array([1.0, 0.0]))
    leaf_b = TreeNode(counts=np.array([0.0, 1.0]))
    t_a = DecisionTree(TreeParams(), 2, 1, leaf_a)
    t_b = DecisionTree(TreeParams(), 2, 1, leaf_b)
    forest = RandomForest(ForestParams(n_estimators=2), [t_a, t_b], 2)
    proba = forest.predict_proba(np.array([[0.0]]))
    assert proba[0] == pytest.approx([0.5, 0.5])
    assert forest.predict(np.array([[0.0]]))[0] == 0  # lowest index wins ties


def test_determinism_same_seed():
    X, y = _data(seed=2)
    params = ForestParams(n_estimators=8, max_features="sqrt", seed=11)
    a = rf_fit(X, y, params, n_classes=3)
    b = rf_fit(X, y, params, n_classes=3)
    q = np.random.default_rng(3).normal(size=(30, 4))
    assert np.array_equal(a.predict_proba(q), b.predict_proba(q))
    c = rf_fit(X, y, ForestParams(n_estimators=8, max_features="sqrt", seed=12), n_classes=3)
    assert not np.array_equal(a.predict_proba(q), c.predict_proba(q))


def test_forest_probability_bounded_by_members():
    X, y = _data(seed=4)
    forest = rf_fit(X, y, ForestParams(n_estimators=5, seed=0), n_classes=3)
    q = np.random.default_rng(5).normal(size=(20, 4))
    member = np.stack([t.predict_proba(q) for t in forest.trees])
    proba = forest.predict_proba(q)
    assert (proba >= member.min(axis=0) - 1e-12).all()
    assert (proba <= member.max(axis=0) + 1e-12).all()


def test_forest_row_stochastic():
    X, y = _data(seed=6)
    forest = rf_fit(X, y, ForestParams(n_estimators=4, seed=1), n_classes=3)
    proba = forest.predict_proba(X)
    assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9


def test_forest_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        rf_fit(np.zeros((3, 2)), np.zeros(5, dtype=int), ForestParams(n_estimators=1))


def test_forest_improves_over_stump_on_noisy_data():
    rng = np.random.default_rng(7)
    n = 300
    X = rng.normal(size=(n, 5))
    y = ((X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=n)) > 0).astype(int)
    forest = rf_fit(X[:200], y[:200], ForestParams(n_estimators=30, seed=3), n_classes=2)
    acc = (forest.predict(X[200:]) == y[200:]).mean()
    assert acc > 0.8


def _nodes(node):
    yield node
    if not node.is_leaf:
        yield from _nodes(node.left)
        yield from _nodes(node.right)


def _assert_same_tree(a, b):
    for na, nb in zip(_nodes(a), _nodes(b), strict=True):
        assert na.feature == nb.feature
        assert na.threshold == nb.threshold
        assert np.array_equal(na.counts, nb.counts)


def _replica_tree(X, y, params, n_classes, t):
    """Tree t grown the plain way: on the duplicated bootstrap rows X[idx], y[idx]."""
    n, d = X.shape
    k = resolve_max_features(params.max_features, d)
    rng = derive_rng(params.seed, "tree", t)
    if params.bootstrap:
        idx = rng.integers(0, n, size=n)
        X, y = X[idx], y[idx]
    sampler = None
    if k < d:
        def sampler(n_features):
            return draw_features(rng, n_features, k)
    return dt_fit(X, y, params.tree, n_classes=n_classes, feature_sampler=sampler)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    d=st.integers(1, 5),
    n_classes=st.integers(2, 4),
    ties=st.booleans(),
    bootstrap=st.booleans(),
    max_features=st.sampled_from(["sqrt", "all"]),
    min_samples_leaf=st.sampled_from([1, 3]),
    max_depth=st.sampled_from([None, 3]),
)
@settings(max_examples=60, deadline=None)
def test_forest_trees_equal_trees_on_explicit_replicas(
    seed, n, d, n_classes, ties, bootstrap, max_features, min_samples_leaf, max_depth
):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if ties:
        X = np.round(X, 1)
    y = rng.integers(0, n_classes, size=n)
    params = ForestParams(n_estimators=3, max_features=max_features, bootstrap=bootstrap,
                          tree=TreeParams(max_depth=max_depth, min_samples_leaf=min_samples_leaf),
                          seed=seed)
    forest = rf_fit(X, y, params, n_classes=n_classes)
    for t, tree in enumerate(forest.trees):
        _assert_same_tree(tree.root, _replica_tree(X, y, params, n_classes, t).root)


def test_node_counts_own_their_data():
    # a view into a split's scratch buffer would keep the whole buffer alive
    X, y = _data(n=200, d=5, C=4, seed=8)
    forest = rf_fit(X, y, ForestParams(n_estimators=5, seed=3), n_classes=4)
    for tree in [dt_fit(X, y, n_classes=4), *forest.trees]:
        for node in _nodes(tree.root):
            assert node.counts.base is None


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 40),
    d=st.integers(1, 5),
    n_classes=st.integers(2, 4),
    big=st.integers(1, 6),
    data=st.data(),
    bootstrap=st.booleans(),
    max_features=st.sampled_from(["sqrt", "log2", "all", 0.5]),
    max_depth=st.sampled_from([None, 3]),
)
@settings(max_examples=60, deadline=None)
def test_smaller_forest_is_a_prefix_of_a_larger_one(
    seed, rows, d, n_classes, big, data, bootstrap, max_features, max_depth
):
    from enose.models import FAMILIES

    n = data.draw(st.integers(1, big), label="n")
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, d))
    y = rng.integers(0, n_classes, size=rows)
    rf = FAMILIES["rf"]
    params = {"max_features": max_features, "bootstrap": bootstrap, "max_depth": max_depth,
              "seed": seed}
    small_params = {**params, "n_estimators": n}
    key, size = rf.identity(small_params, d)
    assert (key, size) == (rf.identity({**params, "n_estimators": big}, d)[0], n)
    cut = rf.cut(rf.fit(X, y, {**params, "n_estimators": big}, n_classes), small_params)
    small = rf.fit(X, y, small_params, n_classes)
    assert cut.params == small.params and len(cut.trees) == len(small.trees) == n
    for a, b in zip(cut.trees, small.trees):
        _assert_same_tree(a.root, b.root)
    q = rng.normal(size=(7, d))
    assert np.array_equal(cut.predict_proba(q), small.predict_proba(q))


@pytest.mark.parametrize("max_features", ["sqrt", "all"])
@pytest.mark.parametrize("bootstrap", [True, False])
def test_trees_grown_in_uneven_ranges_join_into_the_whole_forest(max_features, bootstrap):
    import pickle

    from enose.classifiers.forest import grow_trees

    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 6))
    y = rng.integers(0, 3, size=60)
    params = ForestParams(n_estimators=9, max_features=max_features, bootstrap=bootstrap,
                          seed=12)
    whole = rf_fit(X, y, params, n_classes=3)
    trees = [t for part in (range(0, 2), range(2, 7), range(7, 9))
             for t in grow_trees(X, y, params, 3, part)]
    assert pickle.dumps(RandomForest(params, trees, 3)) == pickle.dumps(whole)


def _oracle_tree_proba(tree, X):
    """One tree's probabilities in their own array, each leaf writing counts / total."""
    out = np.empty((X.shape[0], tree.n_classes))
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.counts / node.counts.sum()
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


def _oracle_forest_proba(forest, X):
    """The trees' own probability arrays summed in order, then divided by their number."""
    proba = _oracle_tree_proba(forest.trees[0], X)
    for tree in forest.trees[1:]:
        proba += _oracle_tree_proba(tree, X)
    proba /= len(forest.trees)
    return proba


@pytest.mark.parametrize("max_depth", [None, 2])
def test_forest_proba_is_bitwise_the_sum_of_tree_arrays(max_depth):
    # duplicated rows with different labels end in impure leaves at any depth
    X, y = _data(n=90, d=3, C=4, seed=8)
    X = np.concatenate([X, X[:30]])
    y = np.concatenate([y, (y[:30] + 1) % 4])
    forest = rf_fit(X, y, ForestParams(n_estimators=25, tree=TreeParams(max_depth=max_depth),
                                       seed=4), n_classes=4)
    leaves = [node for tree in forest.trees for node in _nodes(tree.root) if node.is_leaf]
    assert any(np.count_nonzero(node.counts) > 1 for node in leaves)
    assert any(np.count_nonzero(node.counts) == 1 for node in leaves)
    q = np.concatenate([X, np.random.default_rng(9).normal(size=(200, 3))])
    assert forest.predict_proba(q).tobytes() == _oracle_forest_proba(forest, q).tobytes()
    tree = forest.trees[0]
    assert tree.predict_proba(q).tobytes() == _oracle_tree_proba(tree, q).tobytes()


@st.composite
def _forests_and_queries(draw):
    """A small forest, its impure leaves from shallow trees and rows duplicated with
    other labels, and query rows of 0, 1, a few or thousands, some NaN or infinite."""
    seed = draw(st.integers(0, 2**16))
    d, C = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    X, y = _data(n=draw(st.integers(4, 40)), d=d, C=C, seed=seed)
    dup = draw(st.integers(0, X.shape[0]))
    X = np.concatenate([X, X[:dup]])
    y = np.concatenate([y, (y[:dup] + 1) % C])
    params = ForestParams(n_estimators=draw(st.integers(1, 6)),
                          max_features=draw(st.sampled_from(["sqrt", "all"])),
                          bootstrap=draw(st.booleans()),
                          tree=TreeParams(max_depth=draw(st.sampled_from([1, 2, 3, None]))),
                          seed=seed)
    forest = rf_fit(X, y, params, n_classes=C)
    q = np.random.default_rng(seed + 1).normal(size=(draw(st.sampled_from([0, 1, 9, 3000])), d))
    if q.size:
        special = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=5))
        cells = draw(st.lists(st.integers(0, q.size - 1), min_size=len(special),
                              max_size=len(special)))
        q.flat[cells] = special
    return forest, q


@given(_forests_and_queries())
@settings(max_examples=80, deadline=None)
def test_predict_proba_is_bitwise_the_oracle(case):
    forest, q = case
    assert forest.predict_proba(q).tobytes() == _oracle_forest_proba(forest, q).tobytes()
    for tree in forest.trees:
        assert tree.predict_proba(q).tobytes() == _oracle_tree_proba(tree, q).tobytes()


@given(st.integers(0, 40), st.integers(1, 5), st.booleans(),
       st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf]),
                min_size=200, max_size=200))
@settings(max_examples=200, deadline=None)
def test_argmax_rows_is_numpys_argmax_in_either_layout(n, C, class_major, values):
    # ties, signed zeros, infinities and NaNs: the first NaN of a row wins
    proba = np.array(values[:n * C]).reshape(n, C)
    if class_major:
        proba = np.ascontiguousarray(proba.T).T
    got = argmax_rows(proba)
    assert got.dtype == np.int64
    assert got.tolist() == np.argmax(proba, axis=1).tolist()


def test_forest_predicts_through_each_tree_once_in_order(monkeypatch):
    # perfbench's tracer counts tree.predict_rows from these calls' first dimension
    X, y = _data(n=80, d=3, C=3, seed=2)
    forest = rf_fit(X, y, ForestParams(n_estimators=7, seed=6), n_classes=3)
    q = np.random.default_rng(3).normal(size=(50, 3))
    calls = []
    predict_proba = DecisionTree.predict_proba

    def recorded(tree, X, **kwargs):
        out = predict_proba(tree, X, **kwargs)
        calls.append((tree, out.shape))
        return out

    monkeypatch.setattr(DecisionTree, "predict_proba", recorded)
    forest.predict_proba(q)
    assert [tree for tree, _ in calls] == forest.trees  # the same objects, in order
    assert [shape for _, shape in calls] == [(50, 3)] * 7


def test_forest_predict_holds_one_probability_array():
    X, y = _data(n=300, d=7, C=10, seed=10)
    forest = rf_fit(X, y, ForestParams(n_estimators=100, seed=1), n_classes=10)
    q = np.random.default_rng(11).normal(size=(50_000, 7))
    tracemalloc.start()
    try:
        proba = forest.predict_proba(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * proba.nbytes  # one array per tree as well would be 2x
