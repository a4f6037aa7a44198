from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enose.classifiers.tree import TreeNode, TreeParams, _search, _weighted_table, dt_fit, presort
from enose.errors import ConfigError, DimensionMismatch, ProblemTooLarge, ShapeMismatch
from enose.serialize import save_model


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    feature_indices: np.ndarray,
    min_samples_leaf: int = 1,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, gini_decrease) over the candidate features, by
    the search ``dt_fit`` grows with.

    Thresholds are midpoints between consecutive distinct sorted values, or
    the lower value where the midpoint rounds onto the upper one.
    Ties break by (lower feature index, lower threshold).  Returns None when
    no split with positive decrease satisfies the leaf-size constraint.
    """
    X = np.asarray(X, dtype=np.float64)
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    split = _search(X, _weighted_table(y, np.ones(y.shape[0]), n_classes), presort(X), counts,
                    y.shape[0], np.asarray(feature_indices), min_samples_leaf)
    return None if split is None else split[:3]


# naive reimplementation used as the exhaustive-split oracle


def oracle_gini(labels, n_classes):
    counts = [0] * n_classes
    for y in labels:
        counts[y] += 1
    n = len(labels)
    return 1.0 - sum((c / n) ** 2 for c in counts)


def gini_impurity(counts) -> float:
    """1 - sum_k (n_k/n)^2 for the per-class counts of a non-empty node."""
    p = np.asarray(counts, dtype=np.float64) / np.sum(counts)
    return float(1.0 - (p * p).sum())


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


@pytest.mark.parametrize("name, value", [
    ("max_depth", -1), ("max_depth", float("nan")), ("max_depth", 2.0),
    ("min_samples_split", 1), ("min_samples_split", -1), ("min_samples_leaf", 0),
    ("min_samples_leaf", True),
])
def test_dt_bad_params_are_config_errors(name, value):
    X = np.arange(4, dtype=float)[:, None]
    with pytest.raises(ConfigError, match=f"tree {name} must be"):
        dt_fit(X, np.array([0, 1, 0, 1]), TreeParams(**{name: value}))


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


@pytest.mark.parametrize("lo, hi", [
    (1.0000000000000002, 1.0000000000000004),  # adjacent doubles: the midpoint rounds onto hi
    (1e308, 1.5e308),                          # the midpoint overflows to inf
    (-1.5e308, -1e308),                        # and to -inf
])
def test_threshold_separates_its_two_values(lo, hi):
    X = np.array([[lo], [hi]])
    model = dt_fit(X, np.array([0, 1]), n_classes=2)
    assert lo <= model.root.threshold < hi
    assert model.predict(X).tolist() == [0, 1]


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


# exact-arithmetic oracle: the lowest (feature, threshold) among the exact maximisers


def fraction_best_split(X, y, w, n_classes, min_leaf=1):
    """Best split by Fractions over the rows of positive integer weight ``w``."""
    rows = [i for i in range(len(y)) if w[i] > 0]
    n = sum(int(w[i]) for i in rows)

    def weighted_gini(part):
        size = sum(int(w[i]) for i in part)
        counts = [0] * n_classes
        for i in part:
            counts[y[i]] += int(w[i])
        return size, 1 - sum(Fraction(c, size) ** 2 for c in counts)

    _, parent = weighted_gini(rows)
    best = None
    for f in range(X.shape[1]):
        values = sorted({X[i, f] for i in rows})
        for lo, hi in zip(values, values[1:]):
            threshold = 0.5 * (lo + hi)
            nl, gl = weighted_gini([i for i in rows if X[i, f] <= threshold])
            nr, gr = weighted_gini([i for i in rows if X[i, f] > threshold])
            if nl < min_leaf or nr < min_leaf:
                continue
            dec = parent - (nl * gl + nr * gr) / n
            if dec > 0 and (best is None or dec > best[2]):
                best = (f, threshold, dec)
    return best


def _assert_exact_splits(X, y, n_classes, w=None, min_leaf=1):
    """Every node of a grown tree splits at the exact lowest maximiser of its rows."""
    w = np.ones(len(y), dtype=np.int64) if w is None else w
    model = dt_fit(X, y, TreeParams(min_samples_leaf=min_leaf), n_classes=n_classes,
                   weights=w.astype(np.float64))
    stack = [(model.root, np.ones(len(y), dtype=bool))]
    while stack:
        node, mask = stack.pop()
        ref = fraction_best_split(X, y, np.where(mask, w, 0), n_classes, min_leaf)
        if node.is_leaf:
            assert ref is None
            continue
        assert ref is not None and (node.feature, node.threshold) == ref[:2]
        go_left = X[:, node.feature] <= node.threshold
        stack += [(node.left, mask & go_left), (node.right, mask & ~go_left)]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    d=st.integers(1, 4),
    n_classes=st.integers(2, 4),
    max_weight=st.sampled_from([1, 3]),
    min_leaf=st.sampled_from([1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_splits_are_exact_lowest_maximisers(seed, n, d, n_classes, max_weight, min_leaf):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 1)
    y = rng.integers(0, n_classes, size=n)
    w = rng.integers(0 if max_weight > 1 else 1, max_weight + 1, size=n)
    if w.sum() == 0:
        w[0] = 1
    _assert_exact_splits(X, y, n_classes, w, min_leaf)


def test_exact_tie_four_ordered_classes_takes_lowest_threshold():
    # 4 classes of 48 rows ordered along feature 1: all three splits decrease Gini by 1/4
    rng = np.random.default_rng(0)
    x = np.sort(rng.normal(size=192))
    X = np.column_stack([rng.normal(size=192), x])
    y = np.repeat(np.arange(4), 48)
    f, threshold, dec = best_split(X, y, 4, np.arange(2))
    assert (f, threshold) == (1, 0.5 * (x[47] + x[48]))
    assert dec == pytest.approx(0.25)
    _assert_exact_splits(X, y, 4)


@pytest.mark.parametrize("y, w", [
    ([0, 2, 3, 0, 2, 2, 3, 3, 1, 0], [2, 3, 2, 3, 2, 1, 1, 1, 2, 1]),
    ([0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 3], [1, 3, 1, 3, 2, 2, 3, 1, 3, 1, 3]),
])
def test_exact_tie_that_rounding_breaks_takes_lowest_threshold(y, w):
    # weighted rows along one feature whose two best splits tie exactly, while
    # the rounded proxy scores the higher threshold larger in its last bit
    y, w = np.array(y), np.array(w)
    _assert_exact_splits(np.arange(len(y), dtype=np.float64)[:, None], y, 4, w)


@given(seed=st.integers(0, 2**32 - 1), half=st.integers(2, 12), n_classes=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_mirrored_exact_ties_take_lowest_feature_and_threshold(seed, half, n_classes):
    # labels that read the same forwards and backwards along feature 0 tie every
    # split with its mirror; feature 1 repeats feature 0 and feature 2 reverses it
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=half)
    y = np.concatenate([y, y[::-1]])
    x = np.sort(rng.choice(1000, size=2 * half, replace=False)) / 10.0
    X = np.column_stack([x, x, -x])
    _assert_exact_splits(X, y, n_classes)


def recursive_tree(X, y, n_classes, params, sampler, rows, depth=0):
    """Recursive CART growth, each node's rows sorted afresh: the oracle for the
    stack-grown tree, whose feature sampler must draw in this preorder."""
    counts = np.bincount(y[rows], minlength=n_classes).astype(np.float64)
    node = TreeNode(counts)
    n = counts.sum()
    if (counts.max() == n or n < params.min_samples_split or n < 2 * params.min_samples_leaf
            or (params.max_depth is not None and depth >= params.max_depth)):
        return node
    order = rows[presort(X[rows])]
    split = _search(X, _weighted_table(y, np.ones(y.shape[0]), n_classes), order, counts, n,
                    sampler(X.shape[1]), params.min_samples_leaf)
    if split is None:
        return node
    node.feature, node.threshold, _, n_left, _ = split
    left = np.sort(order[node.feature, :n_left])
    node.left = recursive_tree(X, y, n_classes, params, sampler, left, depth + 1)
    node.right = recursive_tree(X, y, n_classes, params, sampler, np.setdiff1d(rows, left),
                                depth + 1)
    return node


def preorder(root):
    """(counts, feature, threshold) of every node in preorder; a split's feature is
    set and a leaf's is None, so the list fixes the tree."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append((node.counts.tolist(), node.feature, node.threshold))
        if not node.is_leaf:
            stack += (node.right, node.left)
    return nodes


@pytest.mark.parametrize("params", [TreeParams(), TreeParams(max_depth=4, min_samples_leaf=3)])
def test_stack_growth_is_the_recursive_preorder(params):
    rng = np.random.default_rng(12)
    X = np.round(rng.normal(size=(300, 5)), 1)  # rounded, so features tie
    y = rng.integers(0, 3, size=300)

    def sampler(seed):
        draws = np.random.default_rng(seed)
        return lambda d: draws.choice(d, size=2, replace=False)

    grown = dt_fit(X, y, params, n_classes=3, feature_sampler=sampler(5))
    oracle = recursive_tree(X, y, 3, params, sampler(5), np.arange(300))
    assert preorder(grown.root) == preorder(oracle)


def test_dt_grows_past_the_recursion_limit_but_does_not_save(tmp_path):
    # one feature with alternating labels: every split peels off one row
    X, y = np.arange(4000, dtype=np.float64)[:, None], np.arange(4000) % 2
    tree = dt_fit(X, y)
    assert np.array_equal(tree.predict(X), y)
    path = tmp_path / "deep.model.json"
    with pytest.raises(ProblemTooLarge, match="a tree of depth 3999 is deeper than the 500"):
        save_model(str(path), tree)
    assert not path.exists()
