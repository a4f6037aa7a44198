import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enose.classifiers import svm
from enose.classifiers.svm import (
    SvmParams,
    _Wss2,
    dual_objective,
    kernel_matrix,
    softmax,
    svm_fit_binary,
    svm_fit_multiclass,
)
from enose.errors import ConfigError, DegenerateLabels, ProblemTooLarge, ShapeMismatch


def test_two_point_analytic_case():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([-1.0, 1.0])
    model = svm_fit_binary(X, y, SvmParams(kernel="linear", C=1.0))
    w = (model.sv_alpha * model.sv_y) @ model.sv_x
    assert w == pytest.approx([1.0, 0.0], abs=1e-6)
    assert model.b == pytest.approx(0.0, abs=1e-6)
    assert np.sort(model.sv_alpha) == pytest.approx([0.5, 0.5], abs=1e-6)
    f = model.decision_function(X)
    assert f == pytest.approx([-1.0, 1.0], abs=1e-6)  # margin 1 on both points


def test_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        svm_fit_binary(np.zeros((3, 2)), np.ones(3))


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        svm_fit_binary(np.zeros((3, 2)), np.array([1.0, -1.0]))


def _separable(n=30, seed=0, d=2, gap=4.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(size=(half, d)) - gap / 2
    b = rng.normal(size=(n - half, d)) + gap / 2
    X = np.vstack([a, b])
    y = np.r_[-np.ones(half), np.ones(n - half)]
    return X, y


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_dual_feasibility_at_convergence(kernel):
    for seed in range(4):
        X, y = _separable(seed=seed)
        params = SvmParams(kernel=kernel, C=1.0, gamma=0.5)
        model = svm_fit_binary(X, y, params)
        assert model.converged
        # box constraints and the equality constraint hold
        assert (model.sv_alpha >= -1e-12).all()
        assert (model.sv_alpha <= params.C + 1e-12).all()
        assert abs((model.sv_alpha * model.sv_y).sum()) < 1e-8


def test_kkt_residuals_within_tol():
    X, y = _separable(n=40, seed=9)
    params = SvmParams(kernel="linear", C=10.0, tol=1e-3)
    model = svm_fit_binary(X, y, params)
    f = model.decision_function(X)
    E = f - y
    # reconstruct full alpha vector (non-SVs have alpha 0)
    alpha = np.zeros(X.shape[0])
    sv_rows = {tuple(r): a for r, a in zip(model.sv_x, model.sv_alpha)}
    for i, row in enumerate(X):
        alpha[i] = sv_rows.get(tuple(row), 0.0)
    r = E * y
    violations = ((r < -params.tol) & (alpha < params.C - 1e-9)) | ((r > params.tol) & (alpha > 1e-9))
    assert not violations.any()


def test_dual_objective_nondecreasing_per_step():
    X, y = _separable(n=24, seed=3)
    params = SvmParams(kernel="rbf", C=2.0, gamma=0.3)
    K = kernel_matrix(params, 0.3, X, X)
    solver = _Wss2(K, y, params.C, params.tol)
    objectives = [dual_objective(K, y, solver.alpha)]
    for _ in range(25 * X.shape[0]):
        if not solver.step():
            break
        objectives.append(dual_objective(K, y, solver.alpha))
    else:
        pytest.fail("solver did not reach tol within 25 * n steps")
    assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))
    assert objectives[-1] > objectives[0]


def test_separable_training_accuracy():
    X, y = _separable(n=40, seed=5, gap=6.0)
    model = svm_fit_binary(X, y, SvmParams(kernel="linear", C=10.0))
    assert (np.sign(model.decision_function(X)) == y).all()


# --- multiclass ---------------------------------------------------------------


def test_softmax_derived_example():
    p = softmax(np.array([[2.0, 0.0, -2.0]]))[0]
    assert p == pytest.approx([0.8668, 0.1173, 0.0159], abs=5e-5)


def _three_blobs(n_per=15, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    X = np.vstack([rng.normal(size=(n_per, 2)) * 0.5 + c for c in centers])
    y = np.repeat(np.arange(3), n_per)
    return X, y


def test_multiclass_ovr_machine_count():
    X, y = _three_blobs()
    model = svm_fit_multiclass(X, y, SvmParams(kernel="linear", C=1.0))
    assert len(model.machines) == 3


def test_binary_multiclass_sign_consistency():
    X, y = _separable(n=30, seed=1)
    labels = (y > 0).astype(int)
    model = svm_fit_multiclass(X, labels, SvmParams(kernel="linear", C=1.0))
    assert len(model.machines) == 2
    pred = model.predict(X)
    positive = model.machines[1].decision_function(X)
    assert np.array_equal(pred, (positive > 0).astype(int))


def test_proba_row_stochastic_and_argmax_consistent():
    X, y = _three_blobs(seed=2)
    model = svm_fit_multiclass(X, y, SvmParams(kernel="rbf", C=1.0, gamma=0.5))
    proba = model.predict_proba(X)
    assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9
    assert np.array_equal(np.argmax(proba, axis=1), np.argmax(model.decision_values(X), axis=1))
    assert (model.predict(X) == y).mean() > 0.95


def test_nonconvergence_is_flagged_not_fatal():
    X, y = _separable(n=30, seed=7, gap=0.1)  # heavily overlapping
    model = svm_fit_binary(X, y, SvmParams(kernel="rbf", C=100.0, gamma=5.0, max_passes=1))
    assert model.converged is False
    model.decision_function(X)  # best iterate still usable


# --- shared Gram matrix, WSS2 optimality, memory guard ------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 30),
    dups=st.integers(0, 6),
    kernel=st.sampled_from(["linear", "rbf"]),
    C=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_shared_gram_machines_match_standalone_and_satisfy_kkt(seed, n, dups, kernel, C):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    X = np.vstack([X, X[rng.integers(0, n, size=dups)]])  # duplicate rows
    labels = rng.integers(0, 3, size=X.shape[0])
    labels[:3] = [0, 1, 2]
    params = SvmParams(kernel=kernel, C=C, gamma="scale")
    multi = svm_fit_multiclass(X, labels, params, n_classes=3)
    K = kernel_matrix(params, multi.machines[0].gamma, X, X)
    for c, m in enumerate(multi.machines):
        yc = np.where(labels == c, 1.0, -1.0)
        alone = svm_fit_binary(X, yc, params)
        for attr in ("sv_x", "sv_y", "sv_alpha"):
            assert np.array_equal(getattr(m, attr), getattr(alone, attr))
        assert (m.b, m.gamma, m.converged, m.n_passes) == (
            alone.b, alone.gamma, alone.converged, alone.n_passes)

        solver = _Wss2(K, yc, C, params.tol)
        for _ in range(params.max_passes * X.shape[0]):
            if not solver.step():
                break
        alpha = solver.alpha
        assert np.array_equal(alpha[alpha > 1e-12], m.sv_alpha)
        assert (alpha >= 0.0).all() and (alpha <= C).all()
        assert abs(alpha @ yc) < 1e-8
        if not m.converged:
            # only the step cap may stop the solver short of tol (rank-deficient
            # linear problems with large C can need more than max_passes * n steps)
            assert m.n_passes == params.max_passes
            continue
        r = yc * m.decision_function(X) - 1.0
        violations = (((r < -params.tol) & (alpha < C - 1e-9))
                      | ((r > params.tol) & (alpha > 1e-9)))
        assert not violations.any()


def test_multiclass_builds_one_gram_matrix(monkeypatch):
    X, y = _three_blobs()
    calls = []
    real = svm.kernel_matrix
    monkeypatch.setattr(svm, "kernel_matrix", lambda *a: calls.append(a[2].shape) or real(*a))
    svm_fit_multiclass(X, y, SvmParams(kernel="rbf", C=1.0))
    assert calls == [X.shape]


def test_gram_memory_guard_refuses_before_allocating():
    X = np.zeros((20000, 1))
    y = np.where(np.arange(20000) % 2 == 0, 1.0, -1.0)
    with pytest.raises(ProblemTooLarge, match="n=20000.*3200000000 bytes"):
        svm_fit_binary(X, y)
    with pytest.raises(ProblemTooLarge, match="n=20000"):
        svm_fit_multiclass(X, (y > 0).astype(int))


@pytest.mark.parametrize("gamma", [-1.0, 0.0, "wide"])
def test_bad_gamma_is_config_error(gamma):
    X, y = _separable(n=10)
    with pytest.raises(ConfigError):
        svm_fit_binary(X, y, SvmParams(kernel="rbf", gamma=gamma))


def test_unknown_kernel_is_config_error():
    X, y = _separable(n=10)
    with pytest.raises(ConfigError):
        svm_fit_binary(X, y, SvmParams(kernel="poly"))
