"""Soft-margin kernel SVM trained by SMO with second-order working-set selection."""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from ..errors import (
    ConfigError, DegenerateLabels, DimensionMismatch, ProblemTooLarge, ShapeMismatch,
)
from ..dataset import distinct
from .base import Classifier, fit_input, softmax


@dataclass(frozen=True)
class SvmParams:
    kernel: str = "rbf"          # one of KERNELS
    C: float = 1.0
    gamma: float | str = "scale"  # rbf width; "scale" = 1 / (d * var(X))
    tol: float = 1e-3
    max_passes: int = 200


def resolve_gamma(gamma: float | str, X: np.ndarray) -> float:
    if gamma == "scale":
        v = X.var()
        return 1.0 / (X.shape[1] * v) if v > 0 else 1.0
    try:
        g = float(gamma)
    except (TypeError, ValueError):
        raise ConfigError(f"gamma must be 'scale' or a number, got {gamma!r}") from None
    if not g > 0:
        raise ConfigError(f"gamma must be positive, got {g}")
    return g


KERNELS = ("linear", "rbf")


# Entries of the rbf buffer that take |a|^2 + |b|^2 at a time, in whole rows
# (one row when m is larger): that sum's temporary stays below glibc's default
# 128 KiB mmap threshold, so freeing it never raises the threshold.
RBF_BLOCK_FLOATS = 16_000


def kernel_matrix(params: SvmParams, gamma: float, A: np.ndarray, B: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """K(A, B), built in ``out`` or else in the one n x m buffer that ``A @ B.T`` allocates.

    The rbf entries are exp(-gamma * max((|a|^2 + |b|^2) - 2 a.b, 0)) with
    every operation rounded as in that expression: the GEMM is one call over
    all rows, scaling by -2 is exact, and IEEE addition is commutative.
    """
    if params.kernel not in KERNELS:
        raise ConfigError(f"unknown kernel {params.kernel!r}")
    K = np.matmul(A, B.T, out=out)
    if params.kernel == "rbf":
        K *= -2.0
        a2 = (A * A).sum(axis=1)[:, None]
        b2 = (B * B).sum(axis=1)[None, :]
        rows = max(1, RBF_BLOCK_FLOATS // max(1, K.shape[1]))
        for lo in range(0, K.shape[0], rows):
            hi = lo + rows
            K[lo:hi] += a2[lo:hi] + b2
        np.maximum(K, 0.0, out=K)
        K *= -gamma
        np.exp(K, out=K)
    return K


# The dense n x n float64 Gram matrix may take at most this much memory
# (2 GiB: up to n = 16,384 training rows).  Building it maps that one buffer
# and allocates a temporary of at most max(RBF_BLOCK_FLOATS, n) floats, so the
# limit bounds the fit's peak.
GRAM_LIMIT_BYTES = 2 << 30


def gram_matrix(params: SvmParams, gamma: float, X: np.ndarray) -> np.ndarray:
    """K(X, X) in its own anonymous mapping, refused before it is mapped when it
    would exceed GRAM_LIMIT_BYTES.

    The mapping is unmapped when the last array over it is dropped.  From
    malloc, a freed Gram matrix would raise glibc's dynamic mmap threshold to
    its size, so that every later one would come from the heap, which keeps
    its pages after the fit.
    """
    n = X.shape[0]
    need = n * n * 8
    if need > GRAM_LIMIT_BYTES:
        raise ProblemTooLarge(
            f"SVM Gram matrix for n={n} training rows needs {need} bytes "
            f"({need / 2**30:.2f} GiB), over the {GRAM_LIMIT_BYTES}-byte limit"
        )
    # private, as malloc's own mappings are; a length of 0 is refused
    buf = mmap.mmap(-1, max(need, 8), flags=mmap.MAP_PRIVATE)
    return kernel_matrix(params, gamma, X, X, np.ndarray((n, n), np.float64, buf))


class BinarySvm:
    """Binary margin machine: f(x) = sum_i alpha_i y_i K(x_i, x) + b."""

    def __init__(self, params, gamma, sv_x, sv_y, sv_alpha, b, converged, n_passes):
        self.params = params
        self.gamma = gamma
        self.sv_x = sv_x
        self.sv_y = sv_y
        self.sv_alpha = sv_alpha
        self.b = b
        self.converged = converged
        self.n_passes = n_passes

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != self.sv_x.shape[1]:
            raise DimensionMismatch(f"expected {self.sv_x.shape[1]} features, got {X.shape[1]}")
        K = kernel_matrix(self.params, self.gamma, X, self.sv_x)
        return K @ (self.sv_alpha * self.sv_y) + self.b


def dual_objective(K: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


TAU = 1e-12  # curvature used when K_ii + K_jj - 2 K_ij <= 0 (duplicate rows)


class _Wss2:
    """SMO with second-order working-set selection (Fan, Chen & Lin, JMLR 2005).

    Minimises 1/2 a'Qa - e'a with Q_ij = y_i y_j K_ij, 0 <= a <= C, y'a = 0.
    The state is F = -y * G = y - K(a * y), G being the gradient; I_up holds
    the indices whose a_i may move along +y_i, I_low those that may move
    along -y_i.  The iterate is optimal to within tol once
    m = max F[I_up] and M = min F[I_low] satisfy m - M < tol.

    F is kept only as its two masked copies, Fu (-inf off I_up) and Fl (+inf
    off I_low), and both take every update that F would.  With C > 0 each
    index is in I_up or I_low, so F[k] is always in one of them: the working
    i is in I_up and j in I_low.  The O(1) pair update runs on Python floats.
    """

    def __init__(self, K: np.ndarray, y: np.ndarray, C: float, tol: float):
        self.K = K
        self.Kd = np.diag(K).copy()
        y = np.asarray(y, dtype=np.float64)
        self._kd = self.Kd.tolist()
        self._y = y.tolist()
        self._alpha = [0.0] * y.shape[0]
        self.C = float(C)
        self.tol = tol
        self.Fu = np.where(y > 0, y, -np.inf)  # a < C for y = +1, a > 0 for y = -1
        self.Fl = np.where(y < 0, y, np.inf)   # a > 0 for y = +1, a < C for y = -1

    @property
    def alpha(self) -> np.ndarray:
        return np.array(self._alpha)

    def select(self) -> tuple[int, int] | None:
        """The working pair (i, j), or None once m - M < tol."""
        Fu, Fl = self.Fu, self.Fl
        i = int(Fu.argmax())
        m = Fu.item(i)
        M = Fl.min()
        if m - M < self.tol or m <= M:
            return None
        b = m - Fl  # > 0 exactly where j in I_low can improve the pair
        a = self._kd[i] + self.Kd - 2.0 * self.K[i]
        a = np.where(a > 0, a, TAU)
        j = int(np.where(b > 0, b * b / a, -1.0).argmax())
        return i, j

    def update(self, i: int, j: int) -> None:
        """Move a_i by +y_i t and a_j by -y_j t for the clipped Newton step t."""
        C, Ki, Kj = self.C, self.K[i], self.K[j]
        yi, yj, ai0, aj0 = self._y[i], self._y[j], self._alpha[i], self._alpha[j]
        a = self._kd[i] + self._kd[j] - 2.0 * Ki.item(j)
        t = (self.Fu.item(i) - self.Fl.item(j)) / (a if a > 0 else TAU)
        room_i = C - ai0 if yi > 0 else ai0
        room_j = aj0 if yj > 0 else C - aj0
        t = min(t, room_i, room_j)
        ai = (C if yi > 0 else 0.0) if t == room_i else ai0 + yi * t
        aj = (0.0 if yj > 0 else C) if t == room_j else aj0 - yj * t
        dF = yi * (ai - ai0) * Ki + yj * (aj - aj0) * Kj
        self.Fu -= dF
        self.Fl -= dF
        self._alpha[i], self._alpha[j] = ai, aj
        for k, ak, Fk in ((i, ai, self.Fu.item(i)), (j, aj, self.Fl.item(j))):
            pos = self._y[k] > 0
            self.Fu[k] = Fk if (ak < C if pos else ak > 0.0) else -np.inf
            self.Fl[k] = Fk if (ak > 0.0 if pos else ak < C) else np.inf

    def step(self) -> bool:
        """One working-set step; False (and no change) once optimal to tol."""
        pair = self.select()
        if pair is None:
            return False
        self.update(*pair)
        return True

    def bias(self) -> float:
        """b = -rho: mean F over free vectors, else the midpoint of m and M."""
        free = (self.Fu > -np.inf) & (self.Fl < np.inf)
        if free.any():
            return float(self.Fu[free].mean())
        return 0.5 * (float(self.Fu.max()) + float(self.Fl.min()))


def _check_shapes(X: np.ndarray, y: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"X {X.shape} incompatible with y {y.shape}")


def _check_params(params: SvmParams) -> None:
    """C = 0 gives a NaN bias, C < 0 or max_passes < 1 a fit that takes no step."""
    for name in ("C", "tol"):
        value = getattr(params, name)
        if not 0.0 < value < math.inf:
            raise ConfigError(f"SVM {name} must be finite and positive, got {value!r}")
    if params.max_passes < 1:
        raise ConfigError(f"SVM max_passes must be >= 1, got {params.max_passes!r}")


def svm_fit_binary(
    X: np.ndarray, y: np.ndarray, params: SvmParams = SvmParams(), *,
    gram: np.ndarray | None = None,
) -> BinarySvm:
    """Solve the soft-margin dual for labels in {-1, +1} by WSS2 SMO.

    ``gram`` is K(X, X) for ``params`` when the caller already has it (one
    matrix shared by every machine of a one-vs-rest fit).  At most
    ``max_passes * n`` working-set steps are taken; ``n_passes`` reports
    ceil(steps / n).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_shapes(X, y)
    _check_params(params)
    if distinct(y).shape[0] < 2:
        raise DegenerateLabels("both -1 and +1 labels are required")
    n = X.shape[0]
    gamma = resolve_gamma(params.gamma, X)
    K = gram_matrix(params, gamma, X) if gram is None else gram
    if K.shape != (n, n):
        raise ShapeMismatch(f"Gram matrix {K.shape} does not match {n} rows")
    solver = _Wss2(K, y, params.C, params.tol)

    cap = params.max_passes * n
    steps = 0
    while steps < cap and solver.step():
        steps += 1
    converged = solver.select() is None

    alpha = solver.alpha
    mask = alpha > 1e-12
    return BinarySvm(
        params, gamma, X[mask], y[mask], alpha[mask],
        solver.bias(), converged, -(-steps // n),
    )


class MulticlassSvm(Classifier):
    """One-vs-rest reduction; probabilities via softmax over decision values."""

    def __init__(self, machines: list[BinarySvm], n_classes: int):
        self.machines = machines
        self.n_classes = n_classes

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        return np.column_stack([m.decision_function(X) for m in self.machines])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_values(X))


def svm_fit_multiclass(
    X: np.ndarray, y: np.ndarray, params: SvmParams = SvmParams(), n_classes: int | None = None
) -> MulticlassSvm:
    """One machine per class, all solved over one shared Gram matrix."""
    X, y, n_classes = fit_input(X, y, n_classes)
    _check_params(params)
    if n_classes < 2:
        raise DegenerateLabels("multiclass SVM needs at least 2 classes")
    K = gram_matrix(params, resolve_gamma(params.gamma, X), X)
    machines = []
    for c in range(n_classes):
        yc = np.where(y == c, 1.0, -1.0)
        machines.append(svm_fit_binary(X, yc, params, gram=K))
    return MulticlassSvm(machines, n_classes)
