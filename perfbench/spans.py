"""In-memory span tracer and the wrappers that time calls into each enose layer.

The tracer wraps public functions and methods from outside by replacing
module and class attributes, so the program itself is unchanged.  A wrapped
function is replaced in every loaded ``enose`` module that holds it, which
also covers names a module imported into its own namespace (for example
``enose.cli.cross_validate`` or ``enose.models.rf_fit``).

Each span records name, start, end and parent.  The parent stack is per
thread; a span opened on a worker thread with no open span of its own is
parented to the innermost open span of the thread that created the tracer,
which is where ``grid_search`` waits on its pool.  Counts are read from
arguments and return values after the span's end time is taken, so they add
nothing to the timed interval.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, **counts) -> None:
        """Add a span measured elsewhere, under the current open span."""
        stack = self._stack()
        self.spans.append(Span(next(self._ids), stack[-1] if stack else None,
                               name, start, end, counts))

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(result, args, kwargs)`` gives counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = Span(next(self._ids), parent, name, 0.0, 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)  # also when fn raised, so children keep a parent
            if count is not None:
                span.counts = count(result, args, kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load_spans(path: str, id_offset: int = 0) -> list[Span]:
    """Spans written by ``Tracer.dump``, with ``id_offset`` added to every id."""
    with open(path, encoding="utf-8") as fh:
        spans = [Span(**d) for d in json.load(fh)]
    for s in spans:
        s.id += id_offset
        if s.parent is not None:
            s.parent += id_offset
    return spans


# --- what gets wrapped ---------------------------------------------------------


def _tree_nodes(node) -> int:
    stack, n = [node], 0
    while stack:
        node = stack.pop()
        n += 1
        if node.left is not None:
            stack.extend((node.left, node.right))
    return n


def _file_bytes(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (span name, module, attribute or Class.method, count function)
TARGETS = (
    ("dataset.parse_run_csv", "enose.dataset", "parse_run_csv",
     lambda r, a, k: {"rows": int(r.rows.shape[0])}),
    ("dataset.stratified_split", "enose.dataset", "stratified_split", None),
    ("dataset.stratified_kfold", "enose.dataset", "stratified_kfold", None),
    ("synth.generate", "enose.synth", "generate", None),
    ("preprocess.feature_target_correlation", "enose.preprocess",
     "feature_target_correlation", None),
    ("reduce.pca_fit", "enose.reduce", "pca_fit", None),
    ("evaluate.FeaturePipeline.fit", "enose.evaluate", "FeaturePipeline.fit", None),
    ("evaluate.FeaturePipeline.transform", "enose.evaluate", "FeaturePipeline.transform", None),
    ("evaluate.cross_validate", "enose.evaluate", "cross_validate",
     lambda r, a, k: {"folds": len(r.accuracies) + len(r.failures),
                      "failures": len(r.failures)}),
    ("evaluate.grid_search", "enose.evaluate", "grid_search", None),
    ("evaluate.evaluate_model", "enose.evaluate", "evaluate_model", None),
    ("evaluate.roc_auc", "enose.evaluate", "roc_auc", None),
    ("tree.dt_fit", "enose.classifiers.tree", "dt_fit",
     lambda r, a, k: {"nodes": _tree_nodes(r.root)}),
    ("tree.DecisionTree.predict_proba", "enose.classifiers.tree",
     "DecisionTree.predict_proba", lambda r, a, k: {"rows": int(r.shape[0])}),
    ("forest.rf_fit", "enose.classifiers.forest", "rf_fit",
     lambda r, a, k: {"trees": len(r.trees)}),
    ("forest.RandomForest.predict_proba", "enose.classifiers.forest",
     "RandomForest.predict_proba", None),
    ("svm.svm_fit_multiclass", "enose.classifiers.svm", "svm_fit_multiclass", None),
    ("svm.svm_fit_binary", "enose.classifiers.svm", "svm_fit_binary",
     lambda r, a, k: {"passes": r.n_passes, "converged": int(r.converged),
                      "support_vectors": int(r.sv_x.shape[0])}),
    ("svm.kernel_matrix", "enose.classifiers.svm", "kernel_matrix",
     lambda r, a, k: {"bytes": int(r.nbytes)}),
    ("svm.MulticlassSvm.predict_proba", "enose.classifiers.svm",
     "MulticlassSvm.predict_proba", None),
    ("neural.mlp_train", "enose.neural", "mlp_train",
     lambda r, a, k: {"final_loss": r.history[-1]["loss"] if r.history else 0.0}),
    ("neural.MlpModel.loss_and_grads", "enose.neural", "MlpModel.loss_and_grads", None),
    ("neural.MlpModel.predict", "enose.neural", "MlpModel.predict", None),
    ("ensemble.VotingEnsemble.predict_proba", "enose.ensemble",
     "VotingEnsemble.predict_proba", None),
    ("serialize.save_model", "enose.serialize", "save_model", _file_bytes),
    ("serialize.load_model", "enose.serialize", "load_model", _file_bytes),
)


def install(tracer: Tracer) -> None:
    """Replace every target, wherever an ``enose`` module holds it, by its traced form."""
    importlib.import_module("enose.cli")
    for name, module, attr, count in TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], count))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "enose" or mod_name.startswith("enose."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


# --- from spans to per-layer metrics -------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on worker threads may overlap each other, so their intervals
    are merged (and clipped to the parent) before being subtracted.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


# per-layer metric name -> unit; layer_metrics returns exactly these keys
LAYER_UNITS = {
    "cli.import_s": "s",
    "dataset.parse_s": "s",
    "dataset.rows_parsed": "count",
    "dataset.split_s": "s",
    "synth.generate_s": "s",
    "evaluate.pipeline_fit_s": "s",
    "evaluate.pipeline_transform_s": "s",
    "reduce.pca_fit_s": "s",
    "preprocess.correlation_s": "s",
    "tree.fit_s": "s",
    "tree.fits": "count",
    "tree.nodes": "count",
    "tree.predict_s": "s",
    "tree.predict_rows": "count",
    "forest.fit_s": "s",
    "forest.trees": "count",
    "forest.tree_fit_ms": "ms",
    "forest.predict_s": "s",
    "svm.fit_s": "s",
    "svm.binary_fits": "count",
    "svm.kernel_s": "s",
    "svm.kernel_calls": "count",
    "svm.gram_mb": "MB",
    "svm.smo_s": "s",
    "svm.passes": "count",
    "svm.converged_ratio": "fraction",
    "svm.support_vectors": "count",
    "svm.predict_s": "s",
    "neural.train_s": "s",
    "neural.steps": "count",
    "neural.step_ms": "ms",
    "neural.epoch_predict_s": "s",
    "neural.final_loss": "nats",
    "evaluate.cv_s": "s",
    "evaluate.folds": "count",
    "evaluate.fold_failures": "count",
    "evaluate.grid_s": "s",
    "evaluate.grid_cells": "count",
    "evaluate.grid_overlap": "ratio",
    "evaluate.report_s": "s",
    "evaluate.roc_s": "s",
    "ensemble.predict_s": "s",
    "serialize.save_s": "s",
    "serialize.bytes_written": "bytes",
    "serialize.load_s": "s",
    "serialize.bytes_read": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.count_mismatches": "count",
}

MB = float(1 << 20)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced operation (the ``trace.*`` keys excluded)."""
    by_id = {s.id: s for s in spans}

    def named(name, parent=None):
        return [s for s in spans if s.name == name
                and (parent is None or (s.parent is not None and by_id[s.parent].name == parent))]

    def secs(*names):
        return sum(s.duration for n in names for s in named(n))

    def total(name, key, parent=None):
        return sum(s.counts.get(key, 0) for s in named(name, parent))

    selfs = self_times(spans)
    tree_fits = named("tree.dt_fit")
    forest_trees = named("tree.dt_fit", "forest.rf_fit")
    binary = named("svm.svm_fit_binary")
    mlp = named("neural.mlp_train")
    steps = len(named("neural.MlpModel.loss_and_grads"))
    epoch_predict = sum(s.duration for s in named("neural.MlpModel.predict", "neural.mlp_train"))
    cv = named("evaluate.cross_validate")
    cells = named("evaluate.cross_validate", "evaluate.grid_search")
    cell_ids = {s.id for s in cells}
    grid_s = secs("evaluate.grid_search")
    train_s = secs("neural.mlp_train")
    return {
        "cli.import_s": secs("cli.import"),
        "dataset.parse_s": secs("dataset.parse_run_csv"),
        "dataset.rows_parsed": total("dataset.parse_run_csv", "rows"),
        "dataset.split_s": secs("dataset.stratified_split", "dataset.stratified_kfold"),
        "synth.generate_s": secs("synth.generate"),
        "evaluate.pipeline_fit_s": secs("evaluate.FeaturePipeline.fit"),
        "evaluate.pipeline_transform_s": secs("evaluate.FeaturePipeline.transform"),
        "reduce.pca_fit_s": secs("reduce.pca_fit"),
        "preprocess.correlation_s": secs("preprocess.feature_target_correlation"),
        "tree.fit_s": sum(s.duration for s in tree_fits),
        "tree.fits": len(tree_fits),
        "tree.nodes": total("tree.dt_fit", "nodes"),
        "tree.predict_s": secs("tree.DecisionTree.predict_proba"),
        "tree.predict_rows": total("tree.DecisionTree.predict_proba", "rows"),
        "forest.fit_s": secs("forest.rf_fit"),
        "forest.trees": total("forest.rf_fit", "trees"),
        "forest.tree_fit_ms": (1000.0 * sum(s.duration for s in forest_trees) / len(forest_trees)
                               if forest_trees else 0.0),
        "forest.predict_s": secs("forest.RandomForest.predict_proba"),
        "svm.fit_s": secs("svm.svm_fit_multiclass"),
        "svm.binary_fits": len(binary),
        "svm.kernel_s": secs("svm.kernel_matrix"),
        "svm.kernel_calls": len(named("svm.kernel_matrix")),
        "svm.gram_mb": total("svm.kernel_matrix", "bytes", "svm.svm_fit_binary") / MB,
        "svm.smo_s": sum(selfs[s.id] for s in binary),
        "svm.passes": total("svm.svm_fit_binary", "passes"),
        "svm.converged_ratio": (total("svm.svm_fit_binary", "converged") / len(binary)
                                if binary else 0.0),
        "svm.support_vectors": total("svm.svm_fit_binary", "support_vectors"),
        "svm.predict_s": secs("svm.MulticlassSvm.predict_proba"),
        "neural.train_s": train_s,
        "neural.steps": steps,
        "neural.step_ms": 1000.0 * (train_s - epoch_predict) / steps if steps else 0.0,
        "neural.epoch_predict_s": epoch_predict,
        "neural.final_loss": mlp[-1].counts["final_loss"] if mlp else 0.0,
        "evaluate.cv_s": sum(s.duration for s in cv if s.id not in cell_ids),
        "evaluate.folds": total("evaluate.cross_validate", "folds"),
        "evaluate.fold_failures": total("evaluate.cross_validate", "failures"),
        "evaluate.grid_s": grid_s,
        "evaluate.grid_cells": len(cells),
        "evaluate.grid_overlap": sum(s.duration for s in cells) / grid_s if grid_s else 0.0,
        "evaluate.report_s": secs("evaluate.evaluate_model"),
        "evaluate.roc_s": secs("evaluate.roc_auc"),
        "ensemble.predict_s": secs("ensemble.VotingEnsemble.predict_proba"),
        "serialize.save_s": secs("serialize.save_model"),
        "serialize.bytes_written": total("serialize.save_model", "bytes"),
        "serialize.load_s": secs("serialize.load_model"),
        "serialize.bytes_read": total("serialize.load_model", "bytes"),
    }
