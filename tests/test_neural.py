import tracemalloc

import numpy as np
import pytest

from enose.errors import BadSpec, NonFiniteLoss, ShapeMismatch, UnknownVariant
from enose.neural import (
    BN_EPS,
    EVAL,
    FROZEN,
    TRAIN,
    VARIANT_NAMES,
    BatchNorm,
    Dense,
    MlpSpec,
    OptimizerSpec,
    ReLU,
    mlp_build,
    mlp_train,
    variant_spec,
)
from enose.rng import derive_rng
from enose.serialize import load_model, save_model
from tests.conftest import make_dataset


def test_wider_parameter_count():
    model = mlp_build(variant_spec("wider", 7, 10))
    assert model.parameter_count() == 173_194


def test_parameter_count_closed_form_all_variants():
    for name in ("baseline", "deeper", "wider", "l2", "rmsprop"):
        spec = variant_spec(name, 7, 10)
        model = mlp_build(spec)
        expected = 0
        dims = [7, *spec.hidden_sizes, 10]
        for a, b in zip(dims, dims[1:]):
            expected += a * b + b
        if spec.use_batchnorm:
            expected += 4 * sum(spec.hidden_sizes)
        assert model.parameter_count() == expected


def test_no_hidden_layer_count():
    spec = MlpSpec(input_dim=3, n_classes=2, hidden_sizes=(), use_batchnorm=False,
                   noise_sigma=0.0, dropout_p=0.0)
    assert mlp_build(spec).parameter_count() == 8


def test_variant_table():
    wider = variant_spec("wider", 7, 10)
    assert wider.hidden_sizes == (512, 256, 128)
    assert wider.use_batchnorm and wider.dropout_p > 0 and wider.noise_sigma > 0
    assert wider.optimizer.kind == "adam"

    base = variant_spec("baseline", 7, 10)
    rms = variant_spec("rmsprop", 7, 10)
    assert rms.hidden_sizes == base.hidden_sizes
    assert rms.optimizer.kind == "rmsprop"

    l2 = variant_spec("l2", 7, 10)
    assert l2.l2_lambda == pytest.approx(1e-4)
    assert l2.hidden_sizes == base.hidden_sizes

    deeper = variant_spec("deeper", 7, 10)
    assert len(deeper.hidden_sizes) > len(base.hidden_sizes)


def test_unknown_variant():
    with pytest.raises(UnknownVariant):
        variant_spec("gigantic", 7, 10)


def test_bad_spec_dropout():
    with pytest.raises(BadSpec):
        mlp_build(MlpSpec(input_dim=3, n_classes=2, dropout_p=1.0))


def test_bad_spec_optimizer():
    with pytest.raises(BadSpec):
        mlp_build(MlpSpec(input_dim=3, n_classes=2,
                          optimizer=OptimizerSpec(kind="sgd")))


def _grad_check(spec, n=2, step=1e-5, seed=0):
    model = mlp_build(spec)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, spec.input_dim))
    y = rng.integers(0, spec.n_classes, size=n)
    # give batchnorm non-trivial running statistics before freezing them
    model.forward(rng.normal(size=(16, spec.input_dim)), TRAIN)
    model.loss_and_grads(X, y, FROZEN)
    worst = 0.0
    for layer, name, value, grad in list(model.trainable_params()):
        flat = value.ravel()
        gflat = grad.ravel()
        idx = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp = model.loss_and_grads(X, y, FROZEN)
            flat[i] = orig - step
            lm = model.loss_and_grads(X, y, FROZEN)
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            model.loss_and_grads(X, y, FROZEN)
            g = model_grad(model, layer, name).ravel()[i]
            denom = max(abs(fd), abs(g), 1e-8)
            worst = max(worst, abs(fd - g) / denom)
    return worst


def model_grad(model, target_layer, target_name):
    for layer, name, value, grad in model.trainable_params():
        if layer is target_layer and name == target_name:
            return grad
    raise KeyError(target_name)


def test_gradient_check_dense_only():
    spec = MlpSpec(input_dim=4, n_classes=3, hidden_sizes=(6,), use_batchnorm=False,
                   noise_sigma=0.0, dropout_p=0.0)
    assert _grad_check(spec) < 1e-4


def test_gradient_check_with_batchnorm_and_l2():
    spec = MlpSpec(input_dim=5, n_classes=4, hidden_sizes=(7, 5), use_batchnorm=True,
                   noise_sigma=0.1, dropout_p=0.2, l2_lambda=1e-3)
    assert _grad_check(spec) < 1e-4


def test_batchnorm_training_statistics():
    bn = BatchNorm(6)
    x = np.random.default_rng(0).normal(size=(64, 6)) * 3 + 2
    xhat = bn.forward(x, TRAIN)  # gamma is ones and beta zeros at init: the output is xhat
    assert np.abs(xhat.mean(axis=0)).max() < 1e-6
    assert np.abs(xhat.var(axis=0) - 1.0).max() < 1e-6


def test_train_eval_consistency_without_stochastic_layers():
    spec = MlpSpec(input_dim=4, n_classes=3, hidden_sizes=(8, 6), use_batchnorm=False,
                   noise_sigma=0.0, dropout_p=0.0)
    model = mlp_build(spec)
    X = np.random.default_rng(1).normal(size=(10, 4))
    assert np.abs(model.forward(X, TRAIN) - model.forward(X, EVAL)).max() < 1e-9


def test_l2_penalty_increases_loss():
    spec0 = MlpSpec(input_dim=4, n_classes=3, hidden_sizes=(6,), use_batchnorm=False,
                    noise_sigma=0.0, dropout_p=0.0, l2_lambda=0.0, seed=3)
    spec1 = MlpSpec(input_dim=4, n_classes=3, hidden_sizes=(6,), use_batchnorm=False,
                    noise_sigma=0.0, dropout_p=0.0, l2_lambda=1e-2, seed=3)
    m0, m1 = mlp_build(spec0), mlp_build(spec1)  # identical seeded weights
    X = np.random.default_rng(2).normal(size=(8, 4))
    y = np.random.default_rng(2).integers(0, 3, size=8)
    assert m1.loss_and_grads(X, y, FROZEN) > m0.loss_and_grads(X, y, FROZEN)


def test_proba_row_stochastic_and_uniform_at_zero_weights():
    spec = MlpSpec(input_dim=3, n_classes=4, hidden_sizes=(5,), use_batchnorm=False,
                   noise_sigma=0.0, dropout_p=0.0)
    model = mlp_build(spec)
    for layer in model.layers:
        if isinstance(layer, Dense):
            layer.W[:] = 0.0
            layer.b[:] = 0.0
    proba = model.predict_proba(np.random.default_rng(4).normal(size=(6, 3)))
    assert np.abs(proba.sum(axis=1) - 1.0).max() < 1e-9
    assert proba == pytest.approx(np.full((6, 4), 0.25), abs=1e-12)


def test_inference_deterministic():
    model = mlp_build(variant_spec("baseline", 5, 3))
    X = np.random.default_rng(5).normal(size=(7, 5))
    assert np.array_equal(model.predict_proba(X), model.predict_proba(X))


def _toy_two_class(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n // 2, 2)) * 0.4 + np.array([-2.0, 0.0])
    b = rng.normal(size=(n // 2, 2)) * 0.4 + np.array([2.0, 0.0])
    X = np.vstack([a, b])
    y = np.r_[np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)]
    return make_dataset(X, y)


def test_training_reaches_full_accuracy_on_separable_toy():
    ds = _toy_two_class()
    # nearest-centroid oracle confirms the toy really is separable
    mu0 = ds.features[ds.labels == 0].mean(axis=0)
    mu1 = ds.features[ds.labels == 1].mean(axis=0)
    d0 = np.linalg.norm(ds.features - mu0, axis=1)
    d1 = np.linalg.norm(ds.features - mu1, axis=1)
    assert ((d1 < d0).astype(int) == ds.labels).all()

    spec = variant_spec("baseline", 2, 2, epochs=200, seed=1)
    model = mlp_train(mlp_build(spec), ds.features, ds.labels)
    assert (model.predict(ds.features) == ds.labels).mean() == 1.0
    assert all(np.isfinite(row["loss"]) for row in model.history)


def test_training_deterministic_given_seed():
    ds = _toy_two_class(seed=2)
    spec = variant_spec("baseline", 2, 2, epochs=5, seed=9)
    a = mlp_train(mlp_build(spec), ds.features, ds.labels)
    b = mlp_train(mlp_build(spec), ds.features, ds.labels)
    X = np.random.default_rng(3).normal(size=(10, 2))
    assert np.array_equal(a.predict_proba(X), b.predict_proba(X))
    assert a.history == b.history


def test_train_shape_mismatch():
    ds = _toy_two_class()
    spec = variant_spec("baseline", 5, 2)
    with pytest.raises(ShapeMismatch):
        mlp_train(mlp_build(spec), ds.features, ds.labels)


def test_rmsprop_trains():
    ds = _toy_two_class(seed=4)
    spec = variant_spec("rmsprop", 2, 2, epochs=60, seed=2)
    model = mlp_train(mlp_build(spec), ds.features, ds.labels)
    assert (model.predict(ds.features) == ds.labels).mean() > 0.95


def test_diverging_training_stops_without_runtime_warnings(recwarn):
    ds = _toy_two_class()
    spec = variant_spec("baseline", 2, 2, epochs=2, optimizer=OptimizerSpec(lr=1e300))
    with pytest.raises(NonFiniteLoss):
        mlp_train(mlp_build(spec), ds.features, ds.labels)
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


# --- one parameter vector -------------------------------------------------------
# The per-array optimizers and the per-step dict that fed them, kept as the
# oracle for the one step over the whole vector.


class _OracleAdam:
    def __init__(self, opt):
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


class _OracleRmsProp:
    def __init__(self, opt):
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


def _oracle_train(model, X, y):
    """``mlp_train``'s batches and steps, each step over a dict of the layers' arrays."""
    spec = model.spec
    opt = (_OracleAdam if spec.optimizer.kind == "adam" else _OracleRmsProp)(spec.optimizer)
    steps = 0
    for epoch in range(spec.epochs):
        order = derive_rng(spec.seed, "shuffle", epoch).permutation(X.shape[0])
        for start in range(0, X.shape[0], spec.batch_size):
            idx = order[start:start + spec.batch_size]
            model.loss_and_grads(X[idx], y[idx], TRAIN)
            opt.step({(id(layer), name): (value, grad)
                      for layer, name, value, grad in model.trainable_params()})
            steps += 1
    return steps


@pytest.mark.parametrize("overrides", [
    {},
    {"optimizer": OptimizerSpec(kind="rmsprop", beta2=0.9)},
    {"l2_lambda": 1e-3},
], ids=["adam", "rmsprop", "l2"])
def test_flat_step_matches_per_array_oracle(overrides):
    spec = MlpSpec(input_dim=4, n_classes=3, hidden_sizes=(8, 6), epochs=25, batch_size=8,
                   seed=7, **overrides)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(64, 4))
    y = rng.integers(0, 3, size=64)
    flat = mlp_train(mlp_build(spec), X, y)
    oracle = mlp_build(spec)
    assert _oracle_train(oracle, X, y) >= 200
    assert flat.theta.tobytes() == oracle.theta.tobytes()
    for a, b in zip(flat.layers, oracle.layers):
        if isinstance(a, BatchNorm):
            assert a.running_mean.tobytes() == b.running_mean.tobytes()
            assert a.running_var.tobytes() == b.running_var.tobytes()


def _assert_views(model):
    params = list(model.trainable_params())
    assert sum(value.size for _, _, value, _ in params) == model.theta.size
    for _, _, value, grad in params:
        assert np.shares_memory(value, model.theta) and np.shares_memory(grad, model.grad)


def test_trainable_arrays_are_views_after_build_and_load(tmp_path):
    ds = _toy_two_class(seed=5)
    model = mlp_build(variant_spec("baseline", 2, 2, epochs=2, seed=3))
    _assert_views(model)
    mlp_train(model, ds.features, ds.labels)
    path = str(tmp_path / "ann.model.json")
    save_model(path, model)
    back = load_model(path)[0]
    _assert_views(back)
    assert back.theta.tobytes() == model.theta.tobytes()


def test_trainable_arrays_are_views_after_a_pickle_round_trip():
    import pickle

    from enose.models import _mlp_to_dict

    ds = _toy_two_class(seed=7)
    model = mlp_train(mlp_build(variant_spec("baseline", 2, 2, epochs=2, seed=4)),
                      ds.features, ds.labels)
    back = pickle.loads(pickle.dumps(model))
    _assert_views(back)
    X = np.random.default_rng(8).normal(size=(9, 2))
    assert back.predict_proba(X).tobytes() == model.predict_proba(X).tobytes()
    assert _mlp_to_dict(back) == _mlp_to_dict(model)
    back.theta += 1.0  # a step of the optimizer moves every layer of the copy
    assert not np.array_equal(back.predict_proba(X), model.predict_proba(X))


def test_predict_keeps_no_activations():
    ds = _toy_two_class(seed=6)
    model = mlp_train(mlp_build(variant_spec("baseline", 2, 2, epochs=1)), ds.features, ds.labels)
    X = np.random.default_rng(7).normal(size=(5_000, 2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.predict_proba(X)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
    for layer in model.layers:
        assert all(getattr(layer, a, None) is None for a in ("_x", "_mask", "_cache"))


def _oracle_eval_proba(model, X):
    """The eval forward and softmax with a new array for every operation."""
    h = X
    for layer in model.layers:
        if isinstance(layer, Dense):
            h = h @ layer.W + layer.b
        elif isinstance(layer, BatchNorm):
            inv_std = 1.0 / np.sqrt(layer.running_var + BN_EPS)
            h = layer.gamma * ((h - layer.running_mean) * inv_std) + layer.beta
        elif isinstance(layer, ReLU):
            h = h * (h > 0)
        # the noise and dropout layers pass their input through in eval mode
    z = h - h.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _scrambled(variant, input_dim=7, n_classes=10, seed=0):
    """A variant's model with random parameters and batch-norm running statistics."""
    model = mlp_build(variant_spec(variant, input_dim, n_classes))
    rng = np.random.default_rng(seed)
    model.theta[:] = rng.normal(scale=0.5, size=model.theta.size)
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            layer.running_mean[:] = rng.normal(size=layer.running_mean.size)
            layer.running_var[:] = rng.uniform(0.2, 3.0, size=layer.running_var.size)
    return model


@pytest.mark.parametrize("variant", VARIANT_NAMES)
def test_in_place_eval_is_bitwise_the_oracle(variant):
    model = _scrambled(variant)
    X = np.random.default_rng(1).normal(scale=2.0, size=(3_000, 7))
    X[:5] = 0.0
    kept = X.copy()
    assert model.predict_proba(X).tobytes() == _oracle_eval_proba(model, X).tobytes()
    assert X.tobytes() == kept.tobytes()  # the caller's rows are not written to


def test_eval_relu_keeps_the_sign_of_zeros():
    h = ReLU().forward(np.array([[-2.0, -0.0, 0.0, 3.0]]), EVAL)
    assert np.signbit(h).tolist() == [[True, True, False, False]]


def test_eval_forward_holds_about_one_activation_at_a_time():
    model = _scrambled("baseline")
    X = np.random.default_rng(2).normal(size=(5_000, 7))
    widest = X.shape[0] * max(model.spec.hidden_sizes) * 8
    tracemalloc.start()
    try:
        model.predict_proba(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * widest  # a new array for every operation peaks near 4x
