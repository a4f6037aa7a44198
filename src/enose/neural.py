"""Feed-forward classifier trained from scratch: dense layers, batch
normalization, dropout, Gaussian input noise, softmax cross-entropy, and
Adam/RMSprop optimizers.  All math is float64 numpy."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadSpec, DimensionMismatch, NonFiniteLoss, ShapeMismatch, UnknownVariant
from .rng import derive_rng
from .classifiers.base import Classifier, softmax

VARIANT_NAMES = ("baseline", "deeper", "wider", "l2", "rmsprop")

# forward-pass modes
TRAIN = "train"    # batch stats, noise, dropout active
EVAL = "eval"      # running stats, no stochastic layers
FROZEN = "frozen"  # like eval but gradients flow; used for gradient checks

# batch norm: running-statistics decay and the variance floor
BN_MOMENTUM = 0.9
BN_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"   # adam | rmsprop
    lr: float = 1e-3
    beta1: float = 0.9   # adam only
    beta2: float = 0.999  # adam decay2 / rmsprop rho
    eps: float = 1e-8


@dataclass(frozen=True)
class MlpSpec:
    input_dim: int
    n_classes: int
    hidden_sizes: tuple[int, ...] = (128, 64, 32)
    noise_sigma: float = 0.1
    dropout_p: float = 0.2
    use_batchnorm: bool = True
    l2_lambda: float = 0.0
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0


def variant_spec(name: str, input_dim: int, n_classes: int, **overrides) -> MlpSpec:
    """Concrete spec for one of the five named architecture variants."""
    if name not in VARIANT_NAMES:
        raise UnknownVariant(f"unknown variant {name!r}; expected one of {VARIANT_NAMES}")
    base = MlpSpec(input_dim=input_dim, n_classes=n_classes)
    if name == "deeper":
        base = replace(base, hidden_sizes=(128, 64, 32, 32, 16))
    elif name == "wider":
        base = replace(base, hidden_sizes=(512, 256, 128))
    elif name == "l2":
        base = replace(base, l2_lambda=1e-4)
    elif name == "rmsprop":
        base = replace(base, optimizer=OptimizerSpec(kind="rmsprop", lr=1e-3, beta2=0.9))
    return replace(base, **overrides)


# --- layers -------------------------------------------------------------------


class GaussianNoise:
    def __init__(self, sigma: float, rng: np.random.Generator):
        self.sigma = sigma
        self.rng = rng

    def forward(self, x, mode):
        if mode == TRAIN and self.sigma > 0:
            return x + self.rng.normal(0.0, self.sigma, size=x.shape)
        return x


class Dense:
    # trainable arrays; MlpModel rebinds each, and its gradient "d" + name,
    # to a view of one flat vector
    TRAINABLE = ("W", "b")

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (d_in + d_out))  # Glorot uniform
        self.W = rng.uniform(-limit, limit, size=(d_in, d_out))
        self.b = np.zeros(d_out)
        self._x = None

    def forward(self, x, mode):
        self._x = None if mode == EVAL else x
        h = x @ self.W
        h += self.b
        return h

    def backward(self, dout, input_grad: bool = True):
        np.matmul(self._x.T, dout, out=self.dW)
        np.sum(dout, axis=0, out=self.db)
        return dout @ self.W.T if input_grad else None


class BatchNorm:
    """Per-feature normalization; 2 trainable + 2 running parameters each."""

    TRAINABLE = ("gamma", "beta")

    def __init__(self, width: int):
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self._cache = None

    def forward(self, x, mode):
        if mode == TRAIN:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        if mode == EVAL:
            # x is the fresh output of the Dense below; the same operations, in place
            x -= mean
            x *= inv_std
            x *= self.gamma
            x += self.beta
            self._cache = None
            return x
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std, mode)
        return self.gamma * xhat + self.beta

    def backward(self, dout):
        xhat, inv_std, mode = self._cache
        np.sum(dout * xhat, axis=0, out=self.dgamma)
        np.sum(dout, axis=0, out=self.dbeta)
        dxhat = dout * self.gamma
        if mode == TRAIN:
            return inv_std * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
        return dxhat * inv_std  # frozen stats: plain affine map


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, mode):
        if mode == EVAL:
            # in place, as the array below is fresh; x * 0.0 keeps -0.0, np.maximum would not
            self._mask = None
            return np.multiply(x, x > 0, out=x)
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


class Dropout:
    def __init__(self, p: float, rng: np.random.Generator):
        self.p = p
        self.rng = rng
        self._mask = None

    def forward(self, x, mode):
        if mode == TRAIN and self.p > 0:
            self._mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
            return x * self._mask
        self._mask = None
        return x

    def backward(self, dout):
        if self._mask is not None:
            return dout * self._mask
        return dout


# --- model --------------------------------------------------------------------


class MlpModel(Classifier):
    def __init__(self, spec: MlpSpec):
        if not (0.0 <= spec.dropout_p < 1.0):
            raise BadSpec(f"dropout_p must be in [0, 1), got {spec.dropout_p}")
        if spec.noise_sigma < 0 or spec.l2_lambda < 0:
            raise BadSpec("noise_sigma and l2_lambda must be nonnegative")
        if spec.input_dim < 1 or spec.n_classes < 2:
            raise BadSpec("need input_dim >= 1 and n_classes >= 2")
        if spec.optimizer.kind not in ("adam", "rmsprop"):
            raise BadSpec(f"unknown optimizer {spec.optimizer.kind!r}")
        self.spec = spec
        rng = derive_rng(spec.seed, "init")
        self.layers: list = [GaussianNoise(spec.noise_sigma, derive_rng(spec.seed, "noise"))]
        d = spec.input_dim
        for width in spec.hidden_sizes:
            self.layers.append(Dense(d, width, rng))
            if spec.use_batchnorm:
                self.layers.append(BatchNorm(width))
            self.layers.append(ReLU())
            self.layers.append(Dropout(spec.dropout_p, derive_rng(spec.seed, "dropout")))
            d = width
        self.layers.append(Dense(d, spec.n_classes, rng))
        # every trainable array becomes a view of theta, its gradient a view of grad
        self.theta = np.concatenate([getattr(l, n).ravel() for l in self.layers
                                     for n in getattr(l, "TRAINABLE", ())])
        self.grad = np.zeros_like(self.theta)
        self._bind()
        self.history: list[dict] = []

    def _bind(self) -> None:
        start = 0
        for layer in self.layers:
            for name in getattr(layer, "TRAINABLE", ()):
                value = getattr(layer, name)
                end = start + value.size
                setattr(layer, name, self.theta[start:end].reshape(value.shape))
                setattr(layer, "d" + name, self.grad[start:end].reshape(value.shape))
                start = end

    def __setstate__(self, state: dict) -> None:
        # pickle copies each view apart from theta; they become views again
        self.__dict__.update(state)
        self._bind()

    @property
    def n_classes(self) -> int:
        return self.spec.n_classes

    def parameter_count(self) -> int:
        """The trainable parameters and every batch norm's running mean and variance."""
        return self.theta.size + sum(2 * layer.running_mean.size for layer in self.layers
                                     if isinstance(layer, BatchNorm))

    def forward(self, X: np.ndarray, mode: str = EVAL) -> np.ndarray:
        h = np.asarray(X, dtype=np.float64)
        if h.shape[1] != self.spec.input_dim:
            raise DimensionMismatch(f"expected {self.spec.input_dim} features, got {h.shape[1]}")
        for layer in self.layers:
            h = layer.forward(h, mode)
        return h

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray, mode: str = TRAIN) -> float:
        """Cross-entropy (+ L2) loss; fills every layer's gradient buffers."""
        logits = self.forward(X, mode)
        n = X.shape[0]
        probs = softmax(logits)
        data_loss = float(-np.log(probs[np.arange(n), y] + 1e-300).mean())
        reg = self.spec.l2_lambda
        if reg > 0:
            data_loss += reg * sum(
                float((l.W * l.W).sum()) for l in self.layers if isinstance(l, Dense)
            )
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        grad = dlogits
        for layer in reversed(self.layers[2:]):
            grad = layer.backward(grad)
        # layers[1] is the first Dense; nothing below it has parameters
        self.layers[1].backward(grad, input_grad=False)
        if reg > 0:
            for l in self.layers:
                if isinstance(l, Dense):
                    l.dW += 2.0 * reg * l.W
        return data_loss

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.forward(X, EVAL))

    # Classifier's predict, bound in this class too: perfbench's tracer wraps the
    # entry MlpModel.__dict__["predict"]
    predict = Classifier.predict

    def trainable_params(self):
        """(layer, name, value, gradient) of every trainable array; views of theta and grad."""
        for layer in self.layers:
            for name in getattr(layer, "TRAINABLE", ()):
                yield layer, name, getattr(layer, name), getattr(layer, "d" + name)


def mlp_build(spec: MlpSpec) -> MlpModel:
    return MlpModel(spec)


class _Optimizer:
    """Adam, or RMSprop with rho = beta2, over one whole parameter vector."""

    def __init__(self, opt: OptimizerSpec, size: int):
        self.opt = opt
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        o = self.opt
        self.v *= o.beta2
        self.v += (1 - o.beta2) * grad * grad
        if o.kind == "rmsprop":
            theta -= o.lr * grad / (np.sqrt(self.v) + o.eps)
            return
        self.t += 1
        self.m *= o.beta1
        self.m += (1 - o.beta1) * grad
        mhat = self.m / (1 - o.beta1 ** self.t)
        vhat = self.v / (1 - o.beta2 ** self.t)
        theta -= o.lr * mhat / (np.sqrt(vhat) + o.eps)


def mlp_train(model: MlpModel, X: np.ndarray, y: np.ndarray) -> MlpModel:
    """Mini-batch training; history records (epoch, loss, train_acc)."""
    spec = model.spec
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[1] != spec.input_dim:
        raise ShapeMismatch(f"train features have {X.shape[1]} columns, spec wants {spec.input_dim}")
    if y.max() >= spec.n_classes:
        raise ShapeMismatch("label index out of range for spec.n_classes")
    opt = _Optimizer(spec.optimizer, model.theta.size)
    n = X.shape[0]
    # a diverging run overflows before its loss turns non-finite; NonFiniteLoss
    # reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(spec.epochs):
            order = derive_rng(spec.seed, "shuffle", epoch).permutation(n)
            losses = []
            for start in range(0, n, spec.batch_size):
                idx = order[start:start + spec.batch_size]
                loss = model.loss_and_grads(X[idx], y[idx], TRAIN)
                if not np.isfinite(loss):
                    raise NonFiniteLoss(epoch=epoch, batch=start // spec.batch_size, loss=loss)
                losses.append(loss)
                opt.step(model.theta, model.grad)
            model.history.append({
                "epoch": epoch,
                "loss": float(np.mean(losses)),
                "train_acc": float((model.predict(X) == y).mean()),
            })
    return model

