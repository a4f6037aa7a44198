import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enose import pool
from enose.dataset import stratified_kfold
from enose.errors import BadSizes, ConfigError, EmptyGrid, EmptyMatrix, LabelOutOfRange
from enose.evaluate import (
    FeaturePipeline,
    GridSpec,
    binary_roc,
    confusion_matrix,
    curve_folds,
    grid_search,
    learning_curve,
    prepare_folds,
    prf_report,
    roc_auc,
)
from enose.models import FAMILIES
from tests.conftest import make_dataset


class ConstantModel:
    def __init__(self, params):
        self.n_classes = None

    def fit(self, X, y, n_classes):
        self.n_classes = n_classes
        return self

    def predict(self, X):
        return np.zeros(np.asarray(X).shape[0], dtype=np.int64)

    def predict_proba(self, X):
        out = np.zeros((np.asarray(X).shape[0], self.n_classes))
        out[:, 0] = 1.0
        return out


def fit_with(cls):
    """A ``Family.fit``-shaped function that builds and fits a ``cls``."""
    return lambda X, y, params, n_classes: cls(params).fit(X, y, n_classes)


def _selection(family):
    """A family's ``grid_search`` arguments after the folds: fit, identity and cut."""
    entry = FAMILIES[family]
    return entry.fit, entry.identity, entry.cut


def _balanced_ds(n_per=10, C=10, seed=0):
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(C), n_per)
    X = rng.normal(size=(y.shape[0], 3))
    return make_dataset(X, y, n_classes=C)


def test_constant_model_cv_accuracy():
    ds = _balanced_ds()
    plan = stratified_kfold(ds.labels, 5, 0)
    cv = grid_search([{}], prepare_folds(ds, plan.folds), fit_with(ConstantModel)).best
    assert cv.accuracies == pytest.approx([0.1] * 5)


@pytest.fixture
def one_process(monkeypatch):
    """Selection on the one-process path, where an in-process spy sees every fit."""
    monkeypatch.setattr(pool, "cpu_count", lambda: 1)


def _logged(fit, path, record):
    """``fit`` that appends ``[pid, record(X, model)]`` as one JSON line of ``path`` from
    whichever process fits, so that fits made in forked workers are seen too."""
    def logged(X, y, params, n_classes):
        model = fit(X, y, params, n_classes)
        with open(path, "a") as fh:
            fh.write(json.dumps([os.getpid(), record(X, model)]) + "\n")
        return model
    return logged


def _serial_and_pooled(monkeypatch, path, run):
    """``run()`` on the one-process path, then with two forked workers: per run, its
    result, the records its fits appended to ``path`` and the processes that fit."""
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(pool, "cpu_count", lambda: workers)
        result = run()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        path.unlink()
        runs.append((result, sorted(record for _, record in lines), {pid for pid, _ in lines}))
    return runs


@pytest.mark.usefixtures("one_process")
def test_cv_never_fits_on_validation_rows():
    # feature = sample index; the fold-local z-score is affine, so the spy can
    # recover exactly which original rows reached fit via the train statistics
    C, n_per = 4, 8
    y = np.repeat(np.arange(C), n_per)
    X = np.arange(y.shape[0], dtype=float)[:, None]
    ds = make_dataset(X, y, n_classes=C)
    plan = stratified_kfold(ds.labels, 4, 1)
    seen = []

    class Spy(ConstantModel):
        def fit(self, X, y, n_classes):
            seen.append(np.asarray(X)[:, 0].copy())
            return super().fit(X, y, n_classes)

    grid_search([{}], prepare_folds(ds, plan.folds, "V1"), fit_with(Spy))
    assert len(seen) == 4
    for (train_idx, val_idx), scaled in zip(plan.folds, seen):
        assert scaled.shape[0] == train_idx.shape[0]
        mu = train_idx.mean()
        sd = train_idx.std()
        recovered = set(np.rint(scaled * sd + mu).astype(int).tolist())
        assert recovered == set(train_idx.tolist())
        assert not (recovered & set(val_idx.tolist()))


def test_pooled_cv_fits_the_same_train_rows_as_the_serial_run(tmp_path, monkeypatch):
    y = np.repeat(np.arange(4), 8)
    ds = make_dataset(np.arange(y.shape[0], dtype=float)[:, None], y, n_classes=4)
    folds = prepare_folds(ds, stratified_kfold(ds.labels, 4, 1).folds, "V1")
    log = tmp_path / "fits.jsonl"
    fit = _logged(fit_with(ConstantModel), log, lambda X, model: np.asarray(X)[:, 0].tolist())
    serial, pooled = _serial_and_pooled(monkeypatch, log, lambda: grid_search([{}], folds, fit))
    assert serial[2] == {os.getpid()} and os.getpid() not in pooled[2]
    assert len(pooled[1]) == 4 and pooled[1] == serial[1]  # the same train rows, in any order
    assert pooled[0] == serial[0]


def test_cv_matches_independent_reimplementation():
    ds = _balanced_ds(n_per=30, C=4, seed=3)
    # add class signal
    ds.features[:, 0] += ds.labels * 2.0
    plan = stratified_kfold(ds.labels, 3, 2)
    fit = FAMILIES["rf"].fit
    params = {"n_estimators": 10, "seed": 5}
    cv = grid_search([params], prepare_folds(ds, plan.folds), fit).best

    # independent reimplementation of the CV loop (own scaling, own scoring)
    ref = []
    for train_idx, val_idx in plan.folds:
        Xtr, ytr = ds.features[train_idx], ds.labels[train_idx]
        Xv, yv = ds.features[val_idx], ds.labels[val_idx]
        mu, sd = Xtr.mean(axis=0), Xtr.std(axis=0)
        sd[sd == 0] = 1.0
        model = fit((Xtr - mu) / sd, ytr, params, ds.n_classes)
        ref.append(float((model.predict((Xv - mu) / sd) == yv).mean()))
    assert abs(cv.mean - float(np.mean(ref))) <= 0.02


def test_prepare_folds_fits_one_pipeline_on_each_train_part(tiny_split):
    train, _ = tiny_split
    plan = stratified_kfold(train.labels, 3, 0)
    folds = prepare_folds(train, plan.folds, "V3")
    assert len(folds) == 3
    for (train_idx, val_idx), (t, v) in zip(plan.folds, folds):
        pipe = FeaturePipeline("V3").fit(train.subset(train_idx))
        for part, idx in ((t, train_idx), (v, val_idx)):
            expect = pipe.transform(train.subset(idx))
            assert part.feature_names == expect.feature_names
            assert np.array_equal(part.features, expect.features)
            assert np.array_equal(part.labels, train.labels[idx])


def test_grid_singleton():
    ds = _balanced_ds(n_per=6, C=3, seed=1)
    plan = stratified_kfold(ds.labels, 2, 0)
    spec = GridSpec((("max_depth", (2,)),))
    result = grid_search(spec.cells(), prepare_folds(ds, plan.folds), *_selection("dt"))
    assert result.best_index == 0
    assert result.best.mean == pytest.approx(np.mean(result.best.accuracies))


def test_grid_prefers_deeper_tree_on_xor():
    # XOR of two thresholds: stumps cannot beat 0.75, depth-3 fits exactly
    reps = 20
    X = np.tile(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), (reps, 1))
    X = X + np.random.default_rng(0).normal(scale=0.01, size=X.shape)
    y = np.tile(np.array([0, 1, 1, 0]), reps)
    ds = make_dataset(X, y, n_classes=2)
    plan = stratified_kfold(ds.labels, 4, 3)
    spec = GridSpec((("max_depth", (1, 6)),))
    result = grid_search(spec.cells(), prepare_folds(ds, plan.folds), *_selection("dt"))
    assert result.best.params["max_depth"] == 6
    assert result.cells[0].mean <= 0.75 + 1e-9
    assert result.best.mean > 0.85


def test_grid_tie_earliest_wins():
    ds = _balanced_ds(n_per=6, C=2, seed=2)
    plan = stratified_kfold(ds.labels, 2, 0)
    # two cells that produce the same constant model → exactly equal means
    spec = GridSpec((("x", (1, 2)),))
    result = grid_search(spec.cells(), prepare_folds(ds, plan.folds), fit_with(ConstantModel))
    assert result.cells[0].mean == result.cells[1].mean
    assert result.best_index == 0


def test_grid_row_major_enumeration():
    spec = GridSpec((("a", (1, 2)), ("b", ("x", "y"))))
    cells = spec.cells()
    assert cells == [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
        {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
    ]


def test_grid_empty():
    with pytest.raises(EmptyGrid):
        GridSpec(()).cells()


def test_grid_failed_cell_scores_neg_inf():
    ds = _balanced_ds(n_per=6, C=2, seed=4)
    plan = stratified_kfold(ds.labels, 2, 0)

    class Exploding(ConstantModel):
        def fit(self, X, y, n_classes):
            if self.boom:
                raise ConfigError("bad hyperparameters")
            return super().fit(X, y, n_classes)

    def fit(X, y, params, n_classes):
        m = Exploding(params)
        m.boom = params["boom"]
        return m.fit(X, y, n_classes)

    spec = GridSpec((("boom", (True, False)),))
    result = grid_search(spec.cells(), prepare_folds(ds, plan.folds), fit)
    assert result.cells[0].mean == float("-inf")
    assert result.best_index == 1


def test_grid_propagates_programmer_errors():
    ds = _balanced_ds(n_per=6, C=2, seed=4)
    plan = stratified_kfold(ds.labels, 2, 0)

    class Buggy(ConstantModel):
        def fit(self, X, y, n_classes):
            return self.no_such_attribute

    spec = GridSpec((("x", (1, 2)),))
    with pytest.raises(AttributeError):
        grid_search(spec.cells(), prepare_folds(ds, plan.folds), fit_with(Buggy))


def test_grid_negative_gamma_cell_is_fold_failure():
    ds = _balanced_ds(n_per=6, C=2, seed=4)
    plan = stratified_kfold(ds.labels, 2, 0)
    spec = GridSpec((("gamma", (-1.0, 1.0)),))
    result = grid_search(spec.cells(), prepare_folds(ds, plan.folds), *_selection("svm"))
    bad, good = result.cells
    assert bad.mean == float("-inf") and bad.accuracies == []
    assert len(bad.failures) == 2 and all("gamma must be positive" in f for f in bad.failures)
    assert good.failures == [] and len(good.accuracies) == 2
    assert result.best_index == 1


def test_grid_bad_max_features_cell_is_fold_failure():
    # the error is raised while the cell's identity is resolved; it fails that
    # cell's folds, not the run
    ds = _balanced_ds(n_per=6, C=2, seed=4)
    plan = stratified_kfold(ds.labels, 2, 0)
    cells = [{"n_estimators": 3, "max_features": "half"}, {"n_estimators": 3}]
    result = grid_search(cells, prepare_folds(ds, plan.folds), *_selection("rf"))
    bad, good = result.cells
    assert bad.mean == float("-inf") and bad.accuracies == []
    assert bad.failures == [f"fold {i}: max_features must be sqrt, log2, all or a fraction, "
                            f"got 'half'" for i in range(2)]
    assert good.failures == [] and len(good.accuracies) == 2


@pytest.mark.usefixtures("one_process")
def test_grid_fits_each_distinct_model_once_per_fold_and_scores_as_separate_fits():
    ds = _balanced_ds(n_per=20, C=3, seed=6)
    ds.features[:, 0] += ds.labels
    ds.features[:, 1] -= ds.labels
    plan = stratified_kfold(ds.labels, 3, 1)
    folds = prepare_folds(ds, plan.folds)
    fit, identity, cut = _selection("rf")
    sizes = []

    def counted(X, y, params, n_classes):
        model = fit(X, y, params, n_classes)
        sizes.append(len(model.trees))
        return model

    # at d=3, sqrt and log2 both resolve to k=2, so the first three cells are cuts
    # of one 9-tree forest; "all" (k=3) and another seed are forests of their own
    cells = [{"n_estimators": 4, "seed": 1}, {"n_estimators": 9, "seed": 1},
             {"n_estimators": 6, "max_features": "log2", "seed": 1},
             {"n_estimators": 5, "max_features": "all", "seed": 1},
             {"n_estimators": 4, "seed": 2}]
    shared = grid_search(cells, folds, counted, identity, cut)
    assert sizes == [9] * 3 + [5] * 3 + [4] * 3  # one fit per distinct forest and fold
    alone = grid_search(cells, folds, fit)
    assert [c.accuracies for c in shared.cells] == [c.accuracies for c in alone.cells]


def test_pooled_grid_fits_the_same_distinct_models_as_the_serial_run(tmp_path, monkeypatch):
    ds = _balanced_ds(n_per=20, C=3, seed=6)
    ds.features[:, 0] += ds.labels
    ds.features[:, 1] -= ds.labels
    folds = prepare_folds(ds, stratified_kfold(ds.labels, 3, 1).folds)
    fit, identity, cut = _selection("rf")
    cells = [{"n_estimators": 4, "seed": 1}, {"n_estimators": 9, "seed": 1},
             {"n_estimators": 6, "max_features": "log2", "seed": 1},
             {"n_estimators": 5, "max_features": "all", "seed": 1},
             {"n_estimators": 4, "seed": 2}]
    log = tmp_path / "fits.jsonl"
    counted = _logged(fit, log, lambda X, model: len(model.trees))
    serial, pooled = _serial_and_pooled(monkeypatch, log,
                                        lambda: grid_search(cells, folds, counted, identity, cut))
    assert serial[2] == {os.getpid()} and os.getpid() not in pooled[2]
    assert pooled[1] == serial[1] == sorted([9] * 3 + [5] * 3 + [4] * 3)
    assert pooled[0] == serial[0]


# --- metrics ------------------------------------------------------------------


def test_confusion_hand_count():
    cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert cm.tolist() == [[1, 1], [0, 2]]


def test_confusion_perfect_diagonal():
    y = np.array([0, 1, 2, 2, 1, 0])
    cm = confusion_matrix(y, y, 3)
    assert np.array_equal(cm, np.diag([2, 2, 2]))


def test_confusion_row_sums_are_supports():
    rng = np.random.default_rng(6)
    y = rng.integers(0, 4, size=100)
    p = rng.integers(0, 4, size=100)
    cm = confusion_matrix(y, p, 4)
    assert np.array_equal(cm.sum(axis=1), np.bincount(y, minlength=4))
    assert cm.sum() == 100


def test_confusion_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        confusion_matrix([0, 3], [0, 1], 2)


def test_prf_basic():
    cm = np.array([[8, 2], [1, 9]])
    report = prf_report(cm, ["a", "b"])
    a = report.per_class["a"]
    assert a.precision == pytest.approx(8 / 9)
    assert a.recall == pytest.approx(0.8)
    assert report.accuracy == pytest.approx(17 / 20)
    assert report.accuracy == pytest.approx(np.trace(cm) / cm.sum())


def test_prf_f1_harmonic_identity():
    rng = np.random.default_rng(7)
    y = rng.integers(0, 5, size=300)
    p = rng.integers(0, 5, size=300)
    report = prf_report(confusion_matrix(y, p, 5))
    for m in report.per_class.values():
        if m.precision + m.recall > 0:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(expected, abs=1e-9)


def test_prf_never_predicted_class():
    cm = np.array([[5, 0], [3, 0]])  # class 1 never predicted
    report = prf_report(cm, ["a", "b"])
    assert report.per_class["b"].precision == 0.0
    assert report.per_class["b"].f1 == 0.0
    assert report.per_class["b"].degenerate


def test_prf_balanced_macro_equals_weighted():
    cm = np.array([[17, 2, 1], [3, 15, 2], [0, 4, 16]])  # equal supports of 20
    report = prf_report(cm)
    assert report.macro == pytest.approx(report.weighted, abs=1e-12)


def test_prf_empty():
    with pytest.raises(EmptyMatrix):
        prf_report(np.zeros((2, 2), dtype=int))


def test_roc_perfect_ranking():
    _, _, auc = binary_roc(np.array([1, 1, 0, 0], dtype=bool), np.array([0.9, 0.8, 0.3, 0.1]))
    assert auc == 1.0


def test_roc_constant_scores_chance():
    _, _, auc = binary_roc(np.array([1, 0, 1, 0], dtype=bool), np.full(4, 0.5))
    assert auc == pytest.approx(0.5, abs=1e-9)


def test_roc_derived_pair_count():
    # 3 of the 4 positive/negative pairs are correctly ordered
    _, _, auc = binary_roc(np.array([1, 0, 1, 0], dtype=bool), np.array([0.9, 0.8, 0.4, 0.2]))
    assert auc == pytest.approx(0.75)


def test_roc_auc_multiclass_and_degenerate():
    y = np.array([0, 0, 1, 1])
    probas = np.array([[0.9, 0.1, 0.0], [0.8, 0.2, 0.0], [0.1, 0.9, 0.0], [0.3, 0.7, 0.0]])
    result = roc_auc(y, probas, ["a", "b", "c"])
    assert result["per_class"]["a"] == 1.0
    assert result["per_class"]["c"] is None
    assert "c" in result["degenerate"]
    assert result["macro"] == pytest.approx(1.0)


# --- ROC from per-class score counts: the rows x classes version as oracle -------


def _oracle_binary_roc(y_pos, scores):
    """The argsort-and-cumsum ROC over every row that counts replaced."""
    y_pos = np.asarray(y_pos, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    P = int(y_pos.sum())
    N = int((~y_pos).sum())
    order = np.argsort(-scores, kind="stable")
    ys = y_pos[order]
    ss = scores[order]
    tps = np.cumsum(ys)
    fps = np.cumsum(~ys)
    last = np.r_[np.flatnonzero(ss[:-1] > ss[1:]), ss.size - 1]
    tpr = np.r_[0.0, tps[last] / P] if P else np.zeros(last.size + 1)
    fpr = np.r_[0.0, fps[last] / N] if N else np.zeros(last.size + 1)
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2))
    return fpr, tpr, auc


def _oracle_roc_auc(y_true, probas, class_names=None):
    """The micro average over the raveled scores and a one-hot label matrix."""
    y_true = np.asarray(y_true, dtype=np.int64)
    probas = np.asarray(probas, dtype=np.float64)
    C = probas.shape[1]
    if class_names is None:
        class_names = [str(i) for i in range(C)]
    per_class, curves, defined, degenerate = {}, {}, [], []
    for k in range(C):
        pos = y_true == k
        if pos.all() or not pos.any():
            per_class[class_names[k]] = None
            degenerate.append(class_names[k])
            continue
        fpr, tpr, auc = _oracle_binary_roc(pos, probas[:, k])
        curves[class_names[k]] = (fpr, tpr)
        per_class[class_names[k]] = auc
        defined.append(auc)
    onehot = np.zeros_like(probas, dtype=bool)
    onehot[np.arange(y_true.shape[0]), y_true] = True
    _, _, micro = _oracle_binary_roc(onehot.ravel(), probas.ravel())
    macro = float(np.mean(defined)) if defined else None
    return {"per_class": per_class, "curves": curves, "micro": micro, "macro": macro,
            "degenerate": degenerate}


# few distinct values (signed zeros among them), or any finite float
_SCORES = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.25, 0.5, 1.0, -3.0]),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def _roc_inputs(draw):
    """Labels over C classes, possibly missing some or all but one, and n x C scores."""
    C = draw(st.integers(1, 5))
    present = draw(st.lists(st.integers(0, C - 1), min_size=1, max_size=C, unique=True))
    y = draw(st.lists(st.sampled_from(present), min_size=1, max_size=40))
    scores = draw(st.lists(_SCORES, min_size=len(y) * C, max_size=len(y) * C))
    return np.array(y), np.array(scores).reshape(len(y), C)


def _same_curve(got, want):
    return all(g.tobytes() == w.tobytes() for g, w in zip(got[:2], want[:2]))


@given(_roc_inputs())
@settings(max_examples=300, deadline=None)
def test_roc_from_counts_is_bitwise_the_row_sweep(inputs):
    y, probas = inputs
    got, want = roc_auc(y, probas), _oracle_roc_auc(y, probas)
    assert got["curves"].keys() == want["curves"].keys()
    assert all(_same_curve(got["curves"][k], want["curves"][k]) for k in want["curves"])
    for key in ("per_class", "micro", "macro", "degenerate"):
        assert got[key] == want[key], key
    for k in range(probas.shape[1]):  # every class, single-class labels included
        got, want = binary_roc(y == k, probas[:, k]), _oracle_binary_roc(y == k, probas[:, k])
        assert _same_curve(got, want) and got[2] == want[2]


def _roc_peak(fn, y, probas) -> int:
    tracemalloc.start()
    try:
        fn(y, probas)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_roc_of_forest_scores_needs_no_rows_x_classes_temporary():
    # a 100-tree forest's probabilities: multiples of 1/100, about 100 distinct values
    rng = np.random.default_rng(0)
    y = rng.integers(0, 10, size=50_000)
    p = np.exp(rng.normal(size=(y.size, 10)) + 2.0 * np.eye(10)[y])
    probas = rng.multinomial(100, p / p.sum(axis=1, keepdims=True)) / 100.0
    assert np.unique(probas).size <= 101
    peak = _roc_peak(roc_auc, y, probas)
    assert peak < probas.nbytes / 2, peak / probas.nbytes


def test_roc_of_continuous_scores_peaks_no_higher_than_the_row_sweep():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 10, size=50_000)
    e = np.exp(rng.normal(size=(y.size, 10)))
    probas = e / e.sum(axis=1, keepdims=True)
    assert _roc_peak(roc_auc, y, probas) <= _roc_peak(_oracle_roc_auc, y, probas)


def test_learning_curve_full_size_matches_cv():
    ds = _balanced_ds(n_per=12, C=3, seed=8)
    ds.features[:, 0] += 3.0 * ds.labels
    plan = stratified_kfold(ds.labels, 3, 4)
    fit = FAMILIES["dt"].fit
    params = {"max_depth": 3}
    folds = prepare_folds(ds, plan.folds)
    rows = learning_curve(fit, params, curve_folds(ds, [0.5, 1.0], plan.folds, folds))
    cv = grid_search([params], folds, fit).best
    assert rows[-1]["val_acc"] == pytest.approx(cv.mean)
    assert len(rows) == 2
    assert all({"size", "train_acc", "val_acc"} <= set(r) for r in rows)


def test_learning_curve_bad_sizes():
    ds = _balanced_ds(n_per=6, C=2, seed=9)
    plan = stratified_kfold(ds.labels, 2, 0)
    folds = prepare_folds(ds, plan.folds)
    with pytest.raises(BadSizes):
        curve_folds(ds, [0.5, 0.2], plan.folds, folds)
    with pytest.raises(BadSizes):
        curve_folds(ds, [0.0, 0.5], plan.folds, folds)
    with pytest.raises(BadSizes):
        curve_folds(ds, [], plan.folds, folds)


def test_pipeline_v3_v4_shapes(tiny_split):
    train, test = tiny_split
    for version, expect in (("V1", 9), ("V2", 7), ("V3", 7), ("V4", 7)):
        pipe = FeaturePipeline(version).fit(train)
        out = pipe.transform(test)
        if version == "V4":
            assert out.d <= 9  # LDA rank bound C-1 = 9, capped at feature count
        else:
            assert out.d == expect
        assert np.array_equal(out.labels, test.labels)
