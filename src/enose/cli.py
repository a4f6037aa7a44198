"""Command-line front end: synth, ingest, inspect, run, evaluate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import dataset as ds_mod
from . import synth as synth_mod
from .config import FORMATS, PipelineConfig, apply_overrides, load_config
from .dataset import stratified_kfold, stratified_split
from .ensemble import VotingEnsemble
from .errors import ConfigError, DimensionMismatch, ENoseError, NonFiniteScores
from .evaluate import (
    CvResult,
    FeaturePipeline,
    curve_folds,
    evaluate_model,
    fit_candidates,
    grid_search,
    learning_curve,
    prepare_folds,
)
from .models import FAMILIES, candidates, default_grid
from .neural import history_csv
from .preprocess import VERSIONS, correlation_report_csv, feature_target_correlation
from .rng import derive_seed
from .serialize import load_model, save_model
from .svgplot import confusion_svg, line_chart_svg

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def _load_data(cfg: PipelineConfig):
    if cfg.source == "synth":
        spec = synth_mod.default_spec(cfg.samples, cfg.seed, drift_enabled=cfg.drift)
        return synth_mod.generate(spec)
    if cfg.source == "manifest":
        return ds_mod.load_manifest(cfg.manifest)
    return ds_mod.load_glob(cfg.glob)


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def cmd_synth(cfg: PipelineConfig) -> int:
    spec = synth_mod.default_spec(cfg.samples, cfg.seed, drift_enabled=cfg.drift)
    data = synth_mod.generate(spec)
    manifest = synth_mod.write_run_files(data, cfg.out_dir)
    print(f"wrote {len(data.classes)} run files + manifest to {cfg.out_dir}")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_ingest(cfg: PipelineConfig) -> int:
    data = _load_data(cfg)
    counts = np.bincount(data.labels, minlength=data.n_classes)
    print(f"samples: {data.n}  features: {data.d}  classes: {data.n_classes}")
    for name, c in zip(data.classes, counts):
        print(f"  {name}: {c}")
    return EXIT_OK


def cmd_inspect(cfg: PipelineConfig) -> int:
    data = _load_data(cfg)
    ranking = feature_target_correlation(data)
    path = os.path.join(cfg.out_dir, "correlation.csv")
    _write(path, correlation_report_csv(ranking))
    top = ranking[0]
    bottom = ranking[-1]
    print(f"most positive: {top[0]} (r={top[1]:+.4f})")
    print(f"most negative: {bottom[0]} (r={bottom[1]:+.4f})")
    print(f"wrote {path}")
    return EXIT_OK


def _grid_csv(cells: list[CvResult], axes) -> str:
    """One row per candidate (the baseline, unless it is also a grid cell, then the
    cells) and one column per grid axis."""
    if cells[0].params in [c.params for c in cells[1:]]:
        cells = cells[1:]
    names = sorted(name for name, _ in axes)
    lines = [",".join(names) + ",mean,std,failures"]
    for cell in cells:
        vals = [str(cell.params[n]) for n in names]
        lines.append(",".join(vals) + f",{cell.mean!r},{cell.std!r},{len(cell.failures)}")
    return "\n".join(lines) + "\n"


def _roc_csv(auc: dict) -> str:
    lines = ["class,fpr,tpr"]
    for name, (fpr, tpr) in auc["curves"].items():
        for x, y in zip(fpr, tpr):
            lines.append(f"{name},{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def _curve_csv(rows: list[dict]) -> str:
    lines = ["size,train_acc,val_acc"]
    for r in rows:
        lines.append(f"{r['size']!r},{r['train_acc']!r},{r['val_acc']!r}")
    return "\n".join(lines) + "\n"


@contextmanager
def _stage(name: str):
    """One named stage of ``cmd_run``: a toolkit or OS error in it becomes a StageError."""
    try:
        yield
    except (ENoseError, OSError) as exc:
        raise StageError(name, exc) from exc


def cmd_run(cfg: PipelineConfig) -> int:
    out = cfg.out_dir
    with _stage("ingest"):
        data = _load_data(cfg)
    classes = list(data.classes)

    with _stage("inspect"):
        ranking = feature_target_correlation(data)
        _write(os.path.join(out, "correlation.csv"), correlation_report_csv(ranking))

    with _stage("split"):
        train, test = stratified_split(data, cfg.test_fraction, derive_seed(cfg.seed, "split"))
        plan = stratified_kfold(train.labels, cfg.folds, derive_seed(cfg.seed, "cv"))

    with _stage("pipeline"):
        pipe = FeaturePipeline(cfg.version).fit(train)
        train_t = pipe.transform(train)
        test_t = pipe.transform(test)
        folds = prepare_folds(train, plan.folds, cfg.version)
        if cfg.learning_curves:
            curve = curve_folds(train, cfg.learning_curve_sizes, plan.folds, folds, cfg.version)

    summary: list[dict] = []
    fitted: dict[str, object] = {}
    tuned_classical: list[str] = []

    def register(name, model, cv: CvResult | None = None):
        report = evaluate_model(model, test_t.features, test_t.labels, classes)
        if "json" in cfg.formats:
            _write(os.path.join(out, "reports", f"{name}.report.json"),
                   _json_text(report.to_dict()))
        if "csv" in cfg.formats:
            _write(os.path.join(out, "roc", f"{name}.roc.csv"), _roc_csv(report.auc))
        if "svg" in cfg.formats:
            _write(os.path.join(out, "svg", f"{name}.confusion.svg"),
                   confusion_svg(report.confusion, classes))
            _write(os.path.join(out, "svg", f"{name}.roc.svg"),
                   line_chart_svg(report.auc["curves"], "false positive rate",
                                  "true positive rate"))
        summary.append({
            "model": name,
            "cv_mean": None if cv is None else cv.mean,
            "cv_std": None if cv is None else cv.std,
            "cv_failures": None if cv is None else cv.failures,
            "train_acc": float((model.predict(train_t.features) == train_t.labels).mean()),
            "test_acc": report.accuracy,
        })
        fitted[name] = model

    for family in cfg.families:
        entry = FAMILIES[family]
        with _stage(f"baseline:{family}"):
            # one selection pass over the baseline and the grid cells; then one train
            # fit per fitted identity of the baseline and the earliest best candidate
            params = candidates(family, cfg.grid, derive_seed(cfg.seed, family, "baseline"))
            result = grid_search(params, folds, entry.fit, entry.identity, entry.cut)
            best = result.best_index
            models = fit_candidates([params[0], params[best]], train_t, entry.fit,
                                    entry.identity, entry.cut)
            register(f"{family}_baseline", models[0], result.cells[0])

        if cfg.grid == "none":
            continue
        with _stage(f"grid:{family}"):
            if "csv" in cfg.formats:
                _write(os.path.join(out, "grids", f"{family}.grid.csv"),
                       _grid_csv(result.cells, default_grid(family, cfg.grid).axes))
            register(f"{family}_tuned", models[1], result.cells[best])
            tuned_classical.append(f"{family}_tuned")

        if not cfg.learning_curves:
            continue
        with _stage(f"learning_curve:{family}"):
            rows = learning_curve(entry.fit, params[best], curve)
            if "csv" in cfg.formats:
                _write(os.path.join(out, "curves", f"{family}.learning_curve.csv"),
                       _curve_csv(rows))
            if "svg" in cfg.formats:
                xs = np.array([r["size"] for r in rows])
                _write(os.path.join(out, "svg", f"{family}.learning_curve.svg"),
                       line_chart_svg({
                           "train": (xs, np.array([r["train_acc"] for r in rows])),
                           "validation": (xs, np.array([r["val_acc"] for r in rows])),
                       }, "training-set fraction", "accuracy"))

    for variant in cfg.ann_variants:
        with _stage(f"ann:{variant}"):
            model = FAMILIES["mlp"].fit(train_t.features, train_t.labels,
                                        {"variant": variant, "epochs": cfg.ann_epochs,
                                         "seed": derive_seed(cfg.seed, "ann", variant)},
                                        data.n_classes)
            register(f"ann_{variant}", model)
            if "csv" in cfg.formats:
                _write(os.path.join(out, "curves", f"ann_{variant}.history.csv"),
                       history_csv(model))

    if cfg.ensemble and len(tuned_classical) >= 2:
        with _stage("ensemble"):
            register("ensemble", VotingEnsemble([fitted[n] for n in tuned_classical]))

    with _stage("summary"):
        best_row = max(summary, key=lambda r: r["test_acc"])
        for row in summary:
            row["best"] = row is best_row
        if "csv" in cfg.formats:
            lines = ["model,cv_mean,cv_std,train_acc,test_acc,best"]
            for row in summary:
                cvm = "" if row["cv_mean"] is None else repr(row["cv_mean"])
                cvs = "" if row["cv_std"] is None else repr(row["cv_std"])
                lines.append(f"{row['model']},{cvm},{cvs},{row['train_acc']!r},"
                             f"{row['test_acc']!r},{int(row['best'])}")
            _write(os.path.join(out, "summary.csv"), "\n".join(lines) + "\n")
        if "json" in cfg.formats:
            _write(os.path.join(out, "summary.json"), _json_text(summary))

    with _stage("models"):
        os.makedirs(os.path.join(out, "models"), exist_ok=True)
        for name, model in fitted.items():
            save_model(os.path.join(out, "models", f"{name}.model.json"), model, pipe, classes)

    for row in summary:
        marker = " *" if row["best"] else ""
        print(f"{row['model']}: test={row['test_acc']:.4f}{marker}")
    return EXIT_OK


def cmd_evaluate(cfg: PipelineConfig, model_path: str) -> int:
    model, pipe, classes = load_model(model_path)
    data = _load_data(cfg)
    if classes is not None and tuple(classes) != data.classes:
        raise ConfigError(
            f"model classes {classes} do not match data classes {list(data.classes)}"
        )
    try:
        work = pipe.transform(data) if pipe is not None else data
        report = evaluate_model(model, work.features, work.labels, list(data.classes))
    except (DimensionMismatch, NonFiniteScores) as exc:
        raise type(exc)(f"{model_path}: {exc}") from exc
    path = os.path.join(cfg.out_dir, "evaluate.report.json")
    _write(path, _json_text(report.to_dict()))
    print(f"accuracy: {report.accuracy:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enose",
        description="Gas-sensor fusion classification toolkit",
    )
    parser.add_argument("--config", help="INI-style config file")
    # each override flag's dest is the PipelineConfig field it sets
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--version", choices=VERSIONS,
                        help="feature-set version override")
    parser.add_argument("--samples", type=int, help="synthetic samples per class")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--format", dest="formats", action="append", choices=FORMATS,
                        help="report format (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="generate synthetic run files + manifest")
    sub.add_parser("ingest", help="load and summarize a dataset")
    sub.add_parser("inspect", help="feature-target correlation report")
    sub.add_parser("run", help="end-to-end pipeline: tune, fit, evaluate, report")
    p_eval = sub.add_parser("evaluate", help="evaluate a serialized model on a dataset")
    p_eval.add_argument("model", help="path to a .model.json document")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args).validate()
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.model)
        commands = {"synth": cmd_synth, "ingest": cmd_ingest, "inspect": cmd_inspect,
                    "run": cmd_run}
        return commands[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageError as exc:
        code = EXIT_VALIDATION if isinstance(exc.cause, ConfigError) else EXIT_RUNTIME
        print(f"error: {exc}", file=sys.stderr)
        return code
    except (ENoseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
