"""Cross-validated model selection and the metric/reporting suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import pool
from .classifiers.base import argmax_rows
from .dataset import Dataset, distinct
from .errors import (BadSizes, EmptyGrid, EmptyMatrix, ENoseError, LabelOutOfRange,
                     NonFiniteScores)
from .preprocess import DROPPED_AMBIENT, drop_columns, fit_scaler
from .reduce import LdaModel, PcaModel, lda_fit, pca_fit


# --- per-fold feature pipeline ------------------------------------------------


def _fit_pca(Z: np.ndarray, ds: Dataset):
    return pca_fit(Z, Z.shape[1])


def _fit_lda(Z: np.ndarray, ds: Dataset):
    return lda_fit(Z, ds.labels, min(ds.n_classes - 1, Z.shape[1]))


@dataclass(frozen=True)
class Reduction:
    """The projection a feature version applies after scaling, and how it is saved."""

    kind: str  # the saved reducer's "kind"
    model: type
    fit: Callable  # (scaled training features, training Dataset) -> fitted model
    prefix: str  # score columns are named prefix1, prefix2, ...


# the reduction of each feature version that has one; V1 and V2 stop after scaling
REDUCTIONS = {
    "V3": Reduction("pca", PcaModel, _fit_pca, "pc"),
    "V4": Reduction("lda", LdaModel, _fit_lda, "ld"),
}


class FeaturePipeline:
    """Version projection + z-score scaling, fit on training data only.

    Order: drop ambient columns (V2+), standardize, then reduce (V3/V4).
    """

    def __init__(self, version: str = "V1"):
        self.version = version
        self.scaler = None
        self.reducer = None

    def _project(self, ds: Dataset) -> Dataset:
        return ds if self.version == "V1" else drop_columns(ds, DROPPED_AMBIENT)

    def fit(self, ds: Dataset) -> "FeaturePipeline":
        work = self._project(ds)
        self.scaler = fit_scaler(work.features)
        if self.version in REDUCTIONS:
            Z = self.scaler.transform(work.features, copy=work is ds)
            self.reducer = REDUCTIONS[self.version].fit(Z, ds)
        return self

    def transform(self, ds: Dataset) -> Dataset:
        work = self._project(ds)
        # a projection is a fresh copy, scaled in place; V1 keeps the caller's array
        Z = self.scaler.transform(work.features, copy=work is ds)
        if self.reducer is None:
            return work.with_features(work.feature_names, Z)
        scores = self.reducer.transform(Z)
        prefix = REDUCTIONS[self.version].prefix
        return work.with_features(tuple(f"{prefix}{i + 1}" for i in range(scores.shape[1])),
                                  scores)


def prepare_folds(ds: Dataset, pairs, version: str = "V1") -> list[tuple[Dataset, Dataset]]:
    """For each ``(train_idx, val_idx)`` pair, the (train, val) rows transformed by
    one pipeline fit on the train rows: the only place a pipeline is fit on a fold."""
    folds = []
    for train_idx, val_idx in pairs:
        train = ds.subset(train_idx)
        pipe = FeaturePipeline(version).fit(train)
        folds.append((pipe.transform(train), pipe.transform(ds.subset(val_idx))))
    return folds


# --- cross-validation and grid search -----------------------------------------


@dataclass
class CvResult:
    """One cross-validated candidate: the baseline or a grid cell."""

    params: dict
    accuracies: list[float]
    failures: list[str]

    @property
    def mean(self) -> float:  # a cell with no scored fold ranks last
        return float(np.mean(self.accuracies)) if self.accuracies else float("-inf")

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies)) if self.accuracies else float("nan")


def cross_validate(fit, group: list[CvResult], fold_id: int, fold, cut=None) -> CvResult:
    """Fit ``group``'s one model on one prepared fold and score every member on it.

    ``group[0].params`` is fit on the fold's train part (``fit(X, y, params,
    n_classes)`` is a ``Family.fit``) and every member is scored on its validation
    part through ``cut(model, its params)``, the model itself when ``cut`` is None.
    A fit or score that fails with a toolkit error or a numerical failure is
    recorded under ``fold_id``; any other exception is a bug and propagates.
    Returns ``group[0]``.
    """
    train, val = fold
    try:
        model = fit(train.features, train.labels, group[0].params, train.n_classes)
    except (ENoseError, FloatingPointError, np.linalg.LinAlgError) as exc:
        for member in group:
            member.failures.append(f"fold {fold_id}: {exc}")
        return group[0]
    for member in group:
        try:
            scored = model if cut is None else cut(model, member.params)
            member.accuracies.append(_accuracy(scored, val))
        except (ENoseError, FloatingPointError, np.linalg.LinAlgError) as exc:
            member.failures.append(f"fold {fold_id}: {exc}")
    return group[0]


def _accuracy(model, part: Dataset) -> float:
    return float((model.predict(part.features) == part.labels).mean())


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[tuple[str, tuple], ...]  # ordered (name, values); row-major product

    def cells(self) -> list[dict]:
        if not self.axes:
            raise EmptyGrid("grid has no axes")
        names = [a[0] for a in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*(a[1] for a in self.axes))]


@dataclass
class GridResult:
    cells: list[CvResult]  # one per candidate, in order

    @property
    def best_index(self) -> int:
        """The first candidate with the maximal mean, so the earliest wins ties."""
        means = [c.mean for c in self.cells]
        return means.index(max(means))

    @property
    def best(self) -> CvResult:
        return self.cells[self.best_index]


def identity_groups(candidates: list[dict], n_features: int, identity=None) -> list[list[int]]:
    """``candidates`` indices grouped by fitted identity.

    ``identity(params, n_features)`` gives ``(key, size)``: candidates with equal
    keys are one model up to a cut, and each group lists its largest (then
    earliest) member first, the one to fit.  Without ``identity``, or when it
    raises a toolkit error, a candidate is a group of its own, whose fit then
    fails the same way.
    """
    groups: dict = {}
    for i, params in enumerate(candidates):
        key, size = object(), 0  # a group of its own
        if identity is not None:
            try:
                key, size = identity(params, n_features)
            except ENoseError:
                pass
        groups.setdefault(key, []).append((-size, i))
    return [[i for _, i in sorted(members)] for members in groups.values()]


def selection_units(candidates: list[dict], folds, fit, identity=None, cut=None) -> list:
    """The units of the one model-selection pass, which cross-validates every
    candidate on the prepared folds fitting each distinct model
    (``identity_groups``) once per fold: one ``(group, score)`` per (identity
    group, fold) pair, where ``score()`` fits the group's model on the fold and
    returns each member's accuracies and failures there (``merge_selection``).
    """
    # every prepared fold has the width of the version's pipeline
    groups = identity_groups(candidates, folds[0][0].d, identity)

    def score(group: list[int], fold_id: int) -> list[tuple[list, list]]:
        members = [CvResult(candidates[i], [], []) for i in group]
        cross_validate(fit, members, fold_id, folds[fold_id], cut)
        return [(m.accuracies, m.failures) for m in members]

    return [(group, partial(score, group, fold_id))
            for group in groups for fold_id in range(len(folds))]


def merge_selection(candidates: list[dict], units: list, scores: list) -> GridResult:
    """Each candidate's ``CvResult`` from the ``scores`` of its ``selection_units``,
    merged in unit order, so the result does not depend on where a unit ran.  A
    candidate with no scored fold has mean ``-inf``; the earliest candidate with
    the best mean wins."""
    results = [CvResult(params, [], []) for params in candidates]
    for (group, _), unit_scores in zip(units, scores):
        for i, (accuracies, failures) in zip(group, unit_scores):
            results[i].accuracies += accuracies
            results[i].failures += failures
    return GridResult(results)


def grid_search(candidates: list[dict], folds, fit, identity=None, cut=None) -> GridResult:
    """Model selection on its own: the ``selection_units`` run across the CPUs
    (``pool.map_units``) and merged.  ``enose run`` runs the same units in one
    ``map_units`` call with its train fits and merges them the same way."""
    units = selection_units(candidates, folds, fit, identity, cut)
    return merge_selection(candidates, units, pool.map_units(lambda i: units[i][1](), len(units)))


# --- metrics ------------------------------------------------------------------


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    for name, y in (("y_true", y_true), ("y_pred", y_pred)):
        if y.size and (y.min() < 0 or y.max() >= n_classes):
            raise LabelOutOfRange(f"{name} contains labels outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    degenerate: bool = False  # never-predicted or empty class


@dataclass
class EvalReport:
    confusion: np.ndarray
    per_class: dict[str, ClassMetrics]
    macro: tuple[float, float, float]
    weighted: tuple[float, float, float]
    accuracy: float
    auc: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "per_class": {
                name: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for name, m in self.per_class.items()
            },
            "macro": {"precision": self.macro[0], "recall": self.macro[1], "f1": self.macro[2]},
            "weighted": {"precision": self.weighted[0], "recall": self.weighted[1], "f1": self.weighted[2]},
        }
        if self.auc is not None:
            out["auc"] = {
                "micro": self.auc["micro"],
                "macro": self.auc["macro"],
                "per_class": self.auc["per_class"],
            }
        return out


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def prf_report(confusion: np.ndarray, class_names: list[str] | None = None) -> EvalReport:
    """Precision/recall/F1 per class with macro and support-weighted means."""
    cm = np.asarray(confusion, dtype=np.int64)
    total = int(cm.sum())
    if cm.size == 0 or total == 0:
        raise EmptyMatrix("empty confusion matrix")
    C = cm.shape[0]
    if class_names is None:
        class_names = [str(i) for i in range(C)]
    diag = np.diag(cm).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)
    per_class: dict[str, ClassMetrics] = {}
    for k in range(C):
        p = diag[k] / col[k] if col[k] > 0 else 0.0
        r = diag[k] / row[k] if row[k] > 0 else 0.0
        per_class[class_names[k]] = ClassMetrics(
            precision=float(p), recall=float(r), f1=f1_score(p, r),
            support=int(row[k]), degenerate=col[k] == 0 or row[k] == 0,
        )
    ms = list(per_class.values())
    macro = tuple(float(np.mean([getattr(m, a) for m in ms])) for a in ("precision", "recall", "f1"))
    w = row / total
    weighted = tuple(float(np.sum(w * [getattr(m, a) for m in ms])) for a in ("precision", "recall", "f1"))
    return EvalReport(cm, per_class, macro, weighted, accuracy=float(diag.sum() / total))


def _blocks(ascending: np.ndarray) -> np.ndarray:
    """The index where each run of equal values of a sorted array starts."""
    return np.flatnonzero(np.r_[True, ascending[1:] > ascending[:-1]])


def _tally(y_pos: np.ndarray, scores: np.ndarray):
    """The distinct scores, ascending, with the positive and the negative rows at each.

    Counts are int32 (there are fewer than 2**31 scores), so the micro average's
    merge of all classes' tables stays small when scores are continuous.
    """
    ordered = np.sort(scores)
    starts = _blocks(ordered)
    values = ordered[starts]
    rows = np.diff(starts, append=ordered.size)
    pos = np.diff(np.searchsorted(np.sort(scores[y_pos]), values), append=y_pos.sum())
    return values, pos.astype(np.int32), (rows - pos).astype(np.int32)


def _curve(pos: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """ROC points and trapezoidal AUC from the positive and negative counts at each
    distinct score, ascending (a ``_tally``).

    Thresholds sweep the distinct scores descending, with a sentinel above the
    maximum so the curve starts at (0, 0).
    """
    fpr, tpr = (np.zeros(counts.size + 1) for counts in (neg, pos))
    for rate, counts in ((fpr, neg), (tpr, pos)):
        # rows at or above each threshold: float sums of counts are exact integers
        np.cumsum(counts[::-1], dtype=np.float64, out=rate[1:])
        if rate[-1]:
            rate /= rate[-1]
    # the trapezoid rule written out, so it does not depend on numpy's trapz ->
    # trapezoid rename; in place, with the rounding of diff(fpr) * (sum of tpr) / 2
    area = np.diff(fpr)
    area *= tpr[1:] + tpr[:-1]
    area /= 2
    return fpr, tpr, float(np.sum(area))


def binary_roc(y_pos: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One-vs-rest ROC points and trapezoidal AUC (see ``_curve``)."""
    _, pos, neg = _tally(np.asarray(y_pos, dtype=bool), np.asarray(scores, dtype=np.float64))
    return _curve(pos, neg)


def roc_auc(y_true: np.ndarray, probas: np.ndarray, class_names: list[str] | None = None) -> dict:
    """Per-class one-vs-rest ROC plus micro- and macro-averaged AUC.

    Every curve comes from per-class counts of distinct scores (``_tally``).  The
    micro average, the ROC of all (row, class) scores, merges the classes'
    tables, so no rows x classes array is built.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    probas = np.asarray(probas, dtype=np.float64)
    C = probas.shape[1]
    if class_names is None:
        class_names = [str(i) for i in range(C)]
    per_class: dict[str, float | None] = {}
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    defined: list[float] = []
    degenerate: list[str] = []
    tables = []
    for k in range(C):
        pos = y_true == k
        table = _tally(pos, probas[:, k])
        tables.append(table)
        if pos.all() or not pos.any():
            per_class[class_names[k]] = None
            degenerate.append(class_names[k])
            continue
        fpr, tpr, auc = _curve(*table[1:])
        curves[class_names[k]] = (fpr, tpr)
        per_class[class_names[k]] = auc
        defined.append(auc)
    # the micro table: every class's counts summed per distinct score; each array
    # is dropped once merged, which keeps the peak low for continuous scores
    values, pos, neg = (np.concatenate(column) for column in zip(*tables))
    del tables
    order = np.argsort(values, kind="stable")  # merges the C ascending runs
    starts = _blocks(values[order])
    del values
    pos, neg = (np.add.reduceat(counts[order], starts, dtype=np.int32) for counts in (pos, neg))
    del order, starts
    micro = _curve(pos, neg)[2]
    macro = float(np.mean(defined)) if defined else None
    return {
        "per_class": per_class,
        "curves": curves,
        "micro": micro,
        "macro": macro,
        "degenerate": degenerate,
    }


def evaluate_model(model, X: np.ndarray, y: np.ndarray, class_names: list[str]) -> EvalReport:
    """Full EvalReport (confusion, P/R/F1, ROC/AUC) for a fitted model.

    NonFiniteScores if a class probability is NaN or infinite.
    """
    proba = model.predict_proba(X)
    finite = np.count_nonzero(np.isfinite(proba))
    if finite < proba.size:
        raise NonFiniteScores(f"{proba.size - finite} of {proba.size} class probabilities "
                              f"are NaN or infinite")
    y_pred = argmax_rows(proba)
    cm = confusion_matrix(y, y_pred, len(class_names))
    report = prf_report(cm, class_names)
    report.auc = roc_auc(y, proba, class_names)
    return report


# --- learning curves ----------------------------------------------------------


def stratified_head(indices: np.ndarray, labels: np.ndarray, count: int) -> np.ndarray:
    """First ~count indices, taking a proportional head of every class."""
    frac = count / indices.shape[0]
    parts = []
    for c in distinct(labels[indices]):
        cls_idx = indices[labels[indices] == c]
        parts.append(cls_idx[: max(1, math.ceil(frac * cls_idx.shape[0]))])
    return np.sort(np.concatenate(parts))


def check_curve_sizes(sizes) -> list[float]:
    """The learning-curve size fractions: non-empty, each in (0, 1], strictly ascending."""
    sizes = list(sizes)
    if not sizes or any(not (0.0 < s <= 1.0) for s in sizes):
        raise BadSizes(f"sizes must lie in (0, 1], got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise BadSizes(f"sizes must be strictly ascending, got {sizes}")
    return sizes


def curve_folds(ds: Dataset, sizes, pairs, folds, version: str = "V1") -> list[tuple[float, list]]:
    """``(size, prepared folds)`` for each training-set size fraction.

    At each size a fold trains on the stratified head of its train rows.  ``folds``
    is ``prepare_folds(ds, pairs, version)``; a head that is its fold's whole train
    rows (every ``stratified_kfold`` fold at size 1.0) reuses that prepared fold, so
    no pipeline is fit twice on the same rows.
    """
    curve = []
    for s in check_curve_sizes(sizes):
        size_folds = []
        for (train_idx, val_idx), fold in zip(pairs, folds):
            head = stratified_head(train_idx, ds.labels, math.ceil(s * train_idx.shape[0]))
            if not np.array_equal(head, train_idx):
                fold = prepare_folds(ds, [(head, val_idx)], version)[0]
            size_folds.append(fold)
        curve.append((s, size_folds))
    return curve


def learning_curve(fit, params: dict, curve) -> list[dict]:
    """Mean train/validation accuracy at each size of ``curve_folds`` output."""
    rows = []
    for s, folds in curve:
        train_accs = []
        val_accs = []
        for t, v in folds:
            model = fit(t.features, t.labels, params, t.n_classes)
            train_accs.append(_accuracy(model, t))
            val_accs.append(_accuracy(model, v))
        rows.append({
            "size": s,
            "train_acc": float(np.mean(train_accs)),
            "val_acc": float(np.mean(val_accs)),
        })
    return rows
