import json
import mmap
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enose.classifiers import svm
from enose.classifiers.svm import (
    TAU,
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


def test_multiclass_without_rows_is_a_shape_mismatch():
    # the class count of no labels used to be a numpy ValueError
    with pytest.raises(ShapeMismatch, match=r"X \(0, 3\) incompatible"):
        svm_fit_multiclass(np.zeros((0, 3)), np.zeros(0, dtype=int))


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


# --- parameter checks ---------------------------------------------------------


@pytest.mark.parametrize("fit", [svm_fit_binary, svm_fit_multiclass])
@pytest.mark.parametrize("name, value", [
    ("C", 0.0), ("C", -1.0), ("C", float("nan")), ("C", float("inf")),
    ("tol", 0.0), ("tol", -1e-3), ("tol", float("nan")), ("tol", float("inf")),
    ("max_passes", 0), ("max_passes", 2.5), ("C", True),
    ("gamma", -1.0), ("gamma", float("inf")), ("gamma", "0.5"),
])
def test_bad_solver_params_are_config_errors_before_the_gram(monkeypatch, fit, name, value):
    X, y = _separable(n=10)
    labels = y if fit is svm_fit_binary else (y > 0).astype(int)
    calls = []
    monkeypatch.setattr(svm, "kernel_matrix", lambda *a: calls.append(a))
    with pytest.raises(ConfigError, match=f"SVM {name} must be"):
        fit(X, labels, SvmParams(kernel="rbf", **{name: value}))
    assert calls == []


# --- the kernel in one buffer -------------------------------------------------


def _kernel_oracle(params, gamma, A, B):
    """kernel_matrix as one expression, with an n x m temporary per operation."""
    if params.kernel == "linear":
        return A @ B.T
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


ROWS = svm.RBF_BLOCK_FLOATS // 64  # the rows of one rbf block at m = 64
ROW_COUNTS = [1, 5, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS, 2 * ROWS + 37]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows_a=st.sampled_from(ROW_COUNTS),
    rows_b=st.integers(1, 300),
    d=st.integers(1, 9),
    gram=st.booleans(),
    kernel=st.sampled_from(["linear", "rbf"]),
    gamma=st.floats(1e-3, 10.0),
)
def test_kernel_matrix_is_bitwise_the_one_expression(seed, rows_a, rows_b, d, gram, kernel, gamma):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rows_a, d)) * rng.uniform(0.01, 100.0)
    if gram:
        B = A
    else:
        B = rng.normal(size=(rows_b, d)) * rng.uniform(0.01, 100.0)
        B[: rows_b // 2] = A[rng.integers(0, rows_a, size=rows_b // 2)]  # distance ~0
    params = SvmParams(kernel=kernel)
    want = _kernel_oracle(params, gamma, A, B)
    got = kernel_matrix(params, gamma, A, B)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", ["linear", "rbf"])
def test_gram_matrix_peak_memory_is_one_buffer(kernel):
    X = np.random.default_rng(0).normal(size=(2000, 7))
    tracemalloc.start()
    try:
        K = svm.gram_matrix(SvmParams(kernel=kernel), 0.1, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # tracemalloc sees the heap, not the Gram matrix's own mapping: add its bytes
    assert isinstance(K.base, mmap.mmap) and len(K.base) == K.nbytes
    assert peak + len(K.base) <= 1.15 * K.nbytes, (peak + len(K.base)) / K.nbytes


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    d=st.integers(1, 9),
    kernel=st.sampled_from(["linear", "rbf"]),
    gamma=st.floats(1e-3, 10.0),
)
def test_gram_matrix_is_bitwise_the_one_expression(seed, n, d, kernel, gamma):
    X = np.random.default_rng(seed).normal(size=(n, d))
    params = SvmParams(kernel=kernel)
    got = svm.gram_matrix(params, gamma, X)
    assert got.shape == (n, n) and got.tobytes() == _kernel_oracle(params, gamma, X, X).tobytes()


SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_fits_hold_one_gram_matrix_at_a_time():
    # From malloc, the first fit's freed Gram matrix raised glibc's mmap threshold,
    # so the rbf block temporaries of the next fit came from the heap, which kept
    # them beside its Gram matrix: 1.38x the 800-row one.  A fresh interpreter, so
    # that no earlier test's heap hides that; it reads its own peak, VmHWM, because
    # a child's ru_maxrss starts at the peak of the process that spawned it.
    code = """
import json, re
import numpy as np
from enose.classifiers.svm import SvmParams, svm_fit_multiclass
def peak():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)) * 1024
X = np.random.default_rng(0).normal(size=(800, 7))
y = np.arange(800) % 10
svm_fit_multiclass(X[:20], y[:20], SvmParams(kernel="rbf"))  # BLAS buffers, lazy imports
before = peak()
for n in (640, 800):
    svm_fit_multiclass(X[:n], y[:n], SvmParams(kernel="rbf"))
print(json.dumps(peak() - before))
"""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth = json.loads(proc.stdout.strip().splitlines()[-1])
    gram = 800 * 800 * 8
    assert growth <= gram + (1 << 20), growth / gram


# --- the solver against the plain-F form ---------------------------------------


class _Wss2Oracle:
    """WSS2 SMO that rebuilds both masked F vectors at every step."""

    def __init__(self, K, y, C, tol):
        self.K = K
        self.Kd = np.diag(K).copy()
        self.y = y = np.asarray(y, dtype=np.float64)
        self.C = C
        self.tol = tol
        self.alpha = np.zeros(y.shape[0])
        self.F = y.copy()
        self.up = y > 0
        self.low = y < 0

    def _extremes(self):
        Fu = np.where(self.up, self.F, -np.inf)
        i = int(Fu.argmax())
        return i, float(Fu[i]), np.where(self.low, self.F, np.inf)

    def select(self):
        i, m, Fl = self._extremes()
        M = Fl.min()
        if m - M < self.tol or m <= M:
            return None
        b = m - Fl
        a = self.Kd[i] + self.Kd - 2.0 * self.K[i]
        a = np.where(a > 0, a, TAU)
        j = int(np.where(b > 0, b * b / a, -1.0).argmax())
        return i, j

    def update(self, i, j):
        K, y, alpha, C = self.K, self.y, self.alpha, self.C
        a = self.Kd[i] + self.Kd[j] - 2.0 * K[i, j]
        t = (self.F[i] - self.F[j]) / (a if a > 0 else TAU)
        room_i = C - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else C - alpha[j]
        t = min(t, room_i, room_j)
        ai = (C if y[i] > 0 else 0.0) if t == room_i else alpha[i] + y[i] * t
        aj = (0.0 if y[j] > 0 else C) if t == room_j else alpha[j] - y[j] * t
        self.F -= y[i] * (ai - alpha[i]) * K[i] + y[j] * (aj - alpha[j]) * K[j]
        alpha[i], alpha[j] = ai, aj
        for k, ak in ((i, ai), (j, aj)):
            pos = y[k] > 0
            self.up[k] = ak < C if pos else ak > 0.0
            self.low[k] = ak > 0.0 if pos else ak < C

    def step(self):
        pair = self.select()
        if pair is None:
            return False
        self.update(*pair)
        return True

    def bias(self):
        free = self.up & self.low
        if free.any():
            return float(self.F[free].mean())
        _, m, Fl = self._extremes()
        return 0.5 * (m + float(Fl.min()))


def _lockstep(K, y, C, tol, cap):
    """Step the oracle and _Wss2 together; every pair and iterate must match bitwise."""
    ref, new = _Wss2Oracle(K, y, C, tol), _Wss2(K, y, C, tol)
    steps = 0
    while steps < cap:
        pair = ref.select()
        assert new.select() == pair
        assert new.step() == ref.step() == (pair is not None)
        if pair is None:
            break
        steps += 1
        assert new.alpha.tobytes() == ref.alpha.tobytes()
        assert new.Fu.tobytes() == np.where(ref.up, ref.F, -np.inf).tobytes()
        assert new.Fl.tobytes() == np.where(ref.low, ref.F, np.inf).tobytes()
    converged = ref.select() is None
    assert (new.select() is None) == converged
    assert np.float64(new.bias()).tobytes() == np.float64(ref.bias()).tobytes()
    return steps, converged


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 30),
    dups=st.integers(0, 6),
    kernel=st.sampled_from(["linear", "rbf"]),
    C=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_solver_matches_the_plain_f_oracle_step_by_step(seed, n, dups, kernel, C):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    X = np.vstack([X, X[rng.integers(0, n, size=dups)]])  # duplicate rows
    y = np.where(rng.integers(0, 2, size=X.shape[0]) == 1, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    params = SvmParams(kernel=kernel, C=C)
    K = kernel_matrix(params, svm.resolve_gamma("scale", X), X, X)
    _lockstep(K, y, C, params.tol, params.max_passes * X.shape[0])


def test_solver_matches_the_oracle_up_to_the_step_cap():
    # rank-deficient linear problem with large C: WSS2 creeps along a flat
    # direction of Q and stops at max_passes * n steps, short of tol
    rng = np.random.default_rng(40)
    X = rng.normal(size=(18, 3))
    y = np.where(rng.integers(0, 2, size=18) == 1, 1.0, -1.0)
    params = SvmParams(kernel="linear", C=10.0)
    cap = params.max_passes * X.shape[0]
    steps, converged = _lockstep(X @ X.T, y, params.C, params.tol, cap)
    assert (steps, converged) == (cap, False)
