import numpy as np
import pytest

from enose.errors import BadComponentCount, DegenerateInput, DimensionMismatch, SingleClass
from enose.reduce import lda_fit, pca_fit


def _line_points(n=50, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return np.column_stack([x, 2.0 * x])


def test_pca_line_direction():
    model = pca_fit(_line_points(), 2)
    expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert model.components[0] == pytest.approx(expected, abs=1e-9)
    assert model.eigenvalues[1] <= 1e-12


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
    model = pca_fit(X, 5)
    back = model.inverse_transform(model.transform(X))
    assert np.abs(back - X).max() < 1e-8


def test_pca_bad_component_count():
    X = np.random.default_rng(2).normal(size=(10, 3))
    with pytest.raises(BadComponentCount):
        pca_fit(X, 4)
    with pytest.raises(BadComponentCount):
        pca_fit(X, 0)


def test_pca_degenerate_input():
    with pytest.raises(DegenerateInput):
        pca_fit(np.zeros((1, 3)), 1)


def test_pca_transform_of_mean_is_zero():
    X = np.random.default_rng(3).normal(size=(30, 4))
    model = pca_fit(X, 4)
    score = model.transform(X.mean(axis=0)[None, :])
    assert np.abs(score).max() < 1e-12


def test_pca_score_variance_equals_eigenvalue():
    X = np.random.default_rng(4).normal(size=(200, 5)) * np.array([3, 1, 0.5, 2, 0.1])
    model = pca_fit(X, 5)
    scores = model.transform(X)
    var = scores.var(axis=0, ddof=1)
    assert var == pytest.approx(model.eigenvalues, abs=1e-8)


def test_pca_unit_component_score():
    X = np.random.default_rng(5).normal(size=(50, 3))
    model = pca_fit(X, 3)
    row = model.means + model.components[0]
    score = model.transform(row[None, :])[0]
    assert score == pytest.approx([1.0, 0.0, 0.0], abs=1e-9)


def test_pca_orthonormal_components():
    X = np.random.default_rng(6).normal(size=(80, 6))
    model = pca_fit(X, 6)
    gram = model.components @ model.components.T
    assert np.abs(gram - np.eye(6)).max() < 1e-9


def test_pca_eigenvalue_sum_is_total_variance():
    X = np.random.default_rng(7).normal(size=(100, 4)) * np.array([1, 4, 2, 0.3])
    model = pca_fit(X, 4)
    Xc = X - X.mean(axis=0)
    total = np.trace(Xc.T @ Xc / (X.shape[0] - 1))
    assert model.eigenvalues.sum() == pytest.approx(total, abs=1e-8)


def test_pca_reconstruction_error_nonincreasing():
    X = np.random.default_rng(8).normal(size=(60, 5)) * np.array([3, 2, 1, 0.5, 0.2])
    errors = []
    for m in range(1, 6):
        model = pca_fit(X, m)
        back = model.inverse_transform(model.transform(X))
        errors.append(float(((back - X) ** 2).sum()))
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


def test_pca_dimension_mismatch():
    model = pca_fit(np.random.default_rng(9).normal(size=(10, 3)), 2)
    with pytest.raises(DimensionMismatch):
        model.transform(np.zeros((2, 4)))


def test_pca_affine_transform():
    X = np.random.default_rng(10).normal(size=(30, 4))
    model = pca_fit(X, 3)
    x, z = X[0], X[1]
    alpha = 0.3
    lhs = model.transform((alpha * x + (1 - alpha) * z)[None, :])[0]
    rhs = alpha * model.transform(x[None, :])[0] + (1 - alpha) * model.transform(z[None, :])[0]
    assert lhs == pytest.approx(rhs, abs=1e-9)


# --- LDA ---------------------------------------------------------------------


def _two_gaussians(n=200, seed=0, spread=None):
    rng = np.random.default_rng(seed)
    if spread is None:
        spread = np.eye(2)
    a = rng.normal(size=(n, 2)) @ spread + np.array([0.0, 0.0])
    b = rng.normal(size=(n, 2)) @ spread + np.array([6.0, 3.0])
    X = np.vstack([a, b])
    y = np.r_[np.zeros(n, dtype=int), np.ones(n, dtype=int)]
    return X, y


def test_lda_two_class_closed_form():
    X, y = _two_gaussians(seed=11)
    model = lda_fit(X, y, 1)
    # closed form: w proportional to Sw^-1 (mu1 - mu0)
    mu0 = X[y == 0].mean(axis=0)
    mu1 = X[y == 1].mean(axis=0)
    Sw = np.zeros((2, 2))
    for c, mu in ((0, mu0), (1, mu1)):
        d = X[y == c] - mu
        Sw += d.T @ d
    w = np.linalg.solve(Sw, mu1 - mu0)
    w /= np.linalg.norm(w)
    cos = abs(float(model.directions[0] @ w))
    assert np.arccos(min(1.0, cos)) < 1e-3


def test_lda_rank_bound():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(100, 9)) + rng.integers(0, 10, size=(100, 1))
    y = rng.integers(0, 10, size=100)
    # all 10 classes present?
    y[:10] = np.arange(10)
    y[10:20] = np.arange(10)
    lda_fit(X, y, 9)
    with pytest.raises(BadComponentCount):
        lda_fit(X, y, 10)


def test_lda_single_class():
    with pytest.raises(SingleClass):
        lda_fit(np.zeros((4, 2)), np.zeros(4, dtype=int), 1)


def test_lda_singular_within_scatter_survives():
    # duplicated points make S_w exactly singular; the ridge keeps it finite
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    model = lda_fit(X, y, 1)
    assert np.isfinite(model.directions).all()


def test_lda_unit_norm_directions():
    X, y = _two_gaussians(seed=13)
    model = lda_fit(X, y, 1)
    assert np.linalg.norm(model.directions[0]) == pytest.approx(1.0, abs=1e-9)


def test_lda_projection_separates_two_classes():
    X, y = _two_gaussians(seed=14)
    model = lda_fit(X, y, 1)
    z = model.transform(X)[:, 0]
    m0, m1 = z[y == 0].mean(), z[y == 1].mean()
    assert abs(m1 - m0) > 3 * max(z[y == 0].std(), z[y == 1].std())


def test_lda_affine_transform():
    X, y = _two_gaussians(seed=15)
    model = lda_fit(X, y, 1)
    a, b = X[0], X[5]
    alpha = 0.7
    lhs = model.transform((alpha * a + (1 - alpha) * b)[None, :])[0]
    rhs = alpha * model.transform(a[None, :])[0] + (1 - alpha) * model.transform(b[None, :])[0]
    assert lhs == pytest.approx(rhs, abs=1e-9)
