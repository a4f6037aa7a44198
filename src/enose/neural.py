"""Feed-forward classifier trained from scratch: dense layers, batch
normalization, dropout, Gaussian input noise, softmax cross-entropy, and
Adam/RMSprop optimizers.  All math is float64 numpy."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadSpec, DimensionMismatch, NonFiniteLoss, ShapeMismatch, UnknownVariant
from .rng import derive_rng
from .classifiers.base import predict_from_proba, softmax

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

    def backward(self, dout):
        return dout

    def params(self):
        return []


class Dense:
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (d_in + d_out))  # Glorot uniform
        self.W = rng.uniform(-limit, limit, size=(d_in, d_out))
        self.b = np.zeros(d_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x, mode):
        self._x = x
        return x @ self.W + self.b

    def backward(self, dout, input_grad: bool = True):
        self.dW = self._x.T @ dout
        self.db = dout.sum(axis=0)
        return dout @ self.W.T if input_grad else None

    def params(self):
        return [("W", self.W, self.dW), ("b", self.b, self.db)]

    @property
    def n_params(self) -> int:
        return self.W.size + self.b.size


class BatchNorm:
    """Per-feature normalization; 2 trainable + 2 running parameters each."""

    def __init__(self, width: int):
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.dgamma = np.zeros(width)
        self.dbeta = np.zeros(width)
        self._cache = None
        self.last_normalized = None

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
        xhat = (x - mean) * inv_std
        self._cache = (xhat, inv_std, mode)
        self.last_normalized = xhat
        return self.gamma * xhat + self.beta

    def backward(self, dout):
        xhat, inv_std, mode = self._cache
        self.dgamma = (dout * xhat).sum(axis=0)
        self.dbeta = dout.sum(axis=0)
        dxhat = dout * self.gamma
        if mode == TRAIN:
            return inv_std * (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0))
        return dxhat * inv_std  # frozen stats: plain affine map

    def params(self):
        return [("gamma", self.gamma, self.dgamma), ("beta", self.beta, self.dbeta)]

    @property
    def n_params(self) -> int:
        # trainable scale/shift plus the running mean/variance buffers
        return 4 * self.gamma.size


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, mode):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask

    def params(self):
        return []


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

    def params(self):
        return []


# --- model --------------------------------------------------------------------


class MlpModel:
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
        self.history: list[dict] = []

    @property
    def n_classes(self) -> int:
        return self.spec.n_classes

    def parameter_count(self) -> int:
        return sum(layer.n_params for layer in self.layers if hasattr(layer, "n_params"))

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

    def predict(self, X: np.ndarray) -> np.ndarray:
        return predict_from_proba(self.predict_proba(X))

    def trainable_params(self):
        for layer in self.layers:
            for name, value, grad in layer.params():
                yield layer, name, value, grad


def mlp_build(spec: MlpSpec) -> MlpModel:
    return MlpModel(spec)


class _Adam:
    def __init__(self, opt: OptimizerSpec):
        self.opt = opt
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, params):
        self.t += 1
        o = self.opt
        for key, (value, grad) in params.items():
            m = self.m.setdefault(key, np.zeros_like(value))
            v = self.v.setdefault(key, np.zeros_like(value))
            m *= o.beta1
            m += (1 - o.beta1) * grad
            v *= o.beta2
            v += (1 - o.beta2) * grad * grad
            mhat = m / (1 - o.beta1 ** self.t)
            vhat = v / (1 - o.beta2 ** self.t)
            value -= o.lr * mhat / (np.sqrt(vhat) + o.eps)


class _RmsProp:
    def __init__(self, opt: OptimizerSpec):
        self.opt = opt
        self.v: dict = {}

    def step(self, params):
        o = self.opt
        rho = o.beta2
        for key, (value, grad) in params.items():
            v = self.v.setdefault(key, np.zeros_like(value))
            v *= rho
            v += (1 - rho) * grad * grad
            value -= o.lr * grad / (np.sqrt(v) + o.eps)


def mlp_train(model: MlpModel, X: np.ndarray, y: np.ndarray) -> MlpModel:
    """Mini-batch training; history records (epoch, loss, train_acc)."""
    spec = model.spec
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[1] != spec.input_dim:
        raise ShapeMismatch(f"train features have {X.shape[1]} columns, spec wants {spec.input_dim}")
    if y.max() >= spec.n_classes:
        raise ShapeMismatch("label index out of range for spec.n_classes")
    opt = _Adam(spec.optimizer) if spec.optimizer.kind == "adam" else _RmsProp(spec.optimizer)
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
                params = {
                    (id(layer), name): (value, grad)
                    for layer, name, value, grad in model.trainable_params()
                }
                opt.step(params)
            model.history.append({
                "epoch": epoch,
                "loss": float(np.mean(losses)),
                "train_acc": float((model.predict(X) == y).mean()),
            })
    return model


def history_csv(model: MlpModel) -> str:
    # the val_acc column stays, empty, so the file keeps its layout
    lines = ["epoch,loss,train_acc,val_acc"]
    lines += [f"{r['epoch']},{r['loss']!r},{r['train_acc']!r}," for r in model.history]
    return "\n".join(lines) + "\n"
