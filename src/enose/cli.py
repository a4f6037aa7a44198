"""Command-line front end: synth, ingest, inspect, run, evaluate."""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import partial

import numpy as np

from . import dataset as ds_mod
from . import pool
from . import synth as synth_mod
from .config import FORMATS, PipelineConfig, apply_overrides, load_config
from .dataset import stratified_kfold, stratified_split
from .ensemble import VotingEnsemble
from .errors import ConfigError, ENoseError, WorkerDied, naming
from .evaluate import (
    CvResult,
    FeaturePipeline,
    curve_folds,
    evaluate_model,
    identity_groups,
    learning_curve,
    merge_selection,
    prepare_folds,
    selection_units,
)
from .models import FAMILIES, candidates, default_grid
from .preprocess import VERSIONS, feature_target_correlation
from .rng import derive_seed
from .serialize import load_model, save_model, write_json
from .svgplot import confusion_svg, line_chart_svg

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


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


def _table(path: str, header: list[str], rows) -> None:
    """One CSV table. A cell is quoted only when it holds a comma, quote or newline;
    a number is written as ``str`` (a float's repr) and ``None`` as an empty cell."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    _table(path, ["feature", "r"], ranking)
    top = ranking[0]
    bottom = ranking[-1]
    print(f"most positive: {top[0]} (r={top[1]:+.4f})")
    print(f"most negative: {bottom[0]} (r={bottom[1]:+.4f})")
    print(f"wrote {path}")
    return EXIT_OK


def _stage(name: str):
    """One named stage of ``cmd_run``: a toolkit or OS error in it names the stage."""
    return naming(f"[{name}]")


def _run_jobs(jobs: list[tuple]) -> list:
    """``call()`` of each ``(stage, long, call)`` of ``jobs``, through one
    ``pool.map_units`` that takes the long ones first.  A toolkit or OS error in a
    call names its stage, and so does a worker that dies (the stage of the lowest
    job it left without a result)."""
    def work(i: int):
        stage, _, call = jobs[i]
        with _stage(stage):
            return call()

    long_first = sorted(range(len(jobs)), key=lambda i: not jobs[i][1])
    try:
        return pool.map_units(work, len(jobs), long_first)
    except WorkerDied as exc:
        with _stage(jobs[exc.unit][0]):
            raise


def cmd_run(cfg: PipelineConfig) -> int:
    out = cfg.out_dir
    with _stage("ingest"):
        data = _load_data(cfg)
    classes = list(data.classes)

    with _stage("inspect"):
        ranking = feature_target_correlation(data)
        _table(os.path.join(out, "correlation.csv"), ["feature", "r"], ranking)

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

    def register(name, model, cv: CvResult | None = None, train_acc: float | None = None):
        report = evaluate_model(model, test_t.features, test_t.labels, classes)
        if "json" in cfg.formats:
            write_json(os.path.join(out, "reports", f"{name}.report.json"), report.to_dict())
        if "csv" in cfg.formats:
            _table(os.path.join(out, "roc", f"{name}.roc.csv"), ["class", "fpr", "tpr"],
                   [[c, x, y] for c, (fpr, tpr) in report.auc["curves"].items()
                    for x, y in zip(fpr.tolist(), tpr.tolist())])
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
            "train_acc": float((model.predict(train_t.features) == train_t.labels).mean())
            if train_acc is None else train_acc,
            "test_acc": report.accuracy,
        })
        fitted[name] = model

    # every fit but the learning curves' (fit below, in this process) goes through
    # pool.map_units, as jobs (stage, long, call): first each family's selection units
    # and baseline train fit and every ANN variant, then the tuned train fits that are
    # no cut of their baseline; a train fit is long, a selection unit (one model on one
    # fold) is not
    jobs: list[tuple] = []

    def train_fit(stage: str, family: str, params: dict, members: list = ()):
        """Adds the jobs that fit ``params`` on the train set and returns what makes
        ``(model, its members)`` of their results: a family that ``grow``s its members
        grows those after ``members``, in one run of indices per CPU."""
        entry, first = FAMILIES[family], len(jobs)
        args = (train_t.features, train_t.labels, params, train_t.n_classes)
        if entry.grow is None:
            jobs.append((stage, True, partial(entry.fit, *args)))
            return lambda done: (done[first], ())
        size = entry.identity(params, train_t.d)[1]
        todo = range(len(members), size)
        parts = min(pool.cpu_count(), len(todo))
        for w in range(parts):
            part = todo[len(todo) * w // parts:len(todo) * (w + 1) // parts]
            jobs.append((stage, True, partial(entry.grow, *args, part)))
        end = len(jobs)

        def join(done):
            grown = [*members, *(m for part in done[first:end] for m in part)]
            return entry.join(params, grown, train_t.n_classes), grown
        return join

    plans = []
    for family in cfg.families:
        entry = FAMILIES[family]
        with _stage(f"baseline:{family}"):
            params = candidates(family, cfg.grid, derive_seed(cfg.seed, family, "baseline"))
            units = selection_units(params, folds, entry.fit, entry.identity, entry.cut)
            jobs += [(f"baseline:{family}", False, score) for _, score in units]
            plans.append((family, params, units, len(jobs),
                          train_fit(f"baseline:{family}", family, params[0])))
    anns = [train_fit(f"ann:{variant}", "mlp", {"variant": variant, "epochs": cfg.ann_epochs,
                                                "seed": derive_seed(cfg.seed, "ann", variant)})
            for variant in cfg.ann_variants]
    done, jobs = _run_jobs(jobs), []

    picks = []
    for family, params, units, stop, baseline in plans:
        entry = FAMILIES[family]
        result = merge_selection(params, units, done[stop - len(units):stop])
        best, (baseline, members) = result.best_index, baseline(done)
        # one train fit per fitted identity of the baseline and the earliest best
        # candidate: the tuned model is a cut of the baseline, grows on from its
        # members, or is fit on its own
        group, *other = identity_groups([params[0], params[best]], train_t.d, entry.identity)
        with _stage(f"baseline:{family}"):
            if not other and group[0] == 0:
                cut = baseline if entry.cut is None else entry.cut(baseline, params[best])
                tuned = lambda done, cut=cut: (cut, ())
            else:
                tuned = train_fit(f"baseline:{family}", family, params[best],
                                  () if other else members)
        picks.append((family, params, result, best, baseline, tuned))
    tuned_done = _run_jobs(jobs)

    for family, params, result, best, baseline, tuned in picks:
        with _stage(f"baseline:{family}"):
            register(f"{family}_baseline", baseline, result.cells[0])

        if cfg.grid == "none":
            continue
        with _stage(f"grid:{family}"):
            if "csv" in cfg.formats:
                # one row per candidate (the baseline, unless it is also a grid cell,
                # then the cells) and one column per grid axis
                cells = result.cells[1:] if params[0] in params[1:] else result.cells
                names = sorted(name for name, _ in default_grid(family, cfg.grid).axes)
                _table(os.path.join(out, "grids", f"{family}.grid.csv"),
                       names + ["mean", "std", "failures"],
                       [[str(c.params[n]) for n in names] + [c.mean, c.std, len(c.failures)]
                        for c in cells])
            register(f"{family}_tuned", tuned(tuned_done)[0], result.cells[best])
            tuned_classical.append(f"{family}_tuned")

        if not cfg.learning_curves:
            continue
        with _stage(f"learning_curve:{family}"):
            rows = learning_curve(FAMILIES[family].fit, params[best], curve)
            if "csv" in cfg.formats:
                _table(os.path.join(out, "curves", f"{family}.learning_curve.csv"),
                       ["size", "train_acc", "val_acc"],
                       [[r["size"], r["train_acc"], r["val_acc"]] for r in rows])
            if "svg" in cfg.formats:
                xs = np.array([r["size"] for r in rows])
                _write(os.path.join(out, "svg", f"{family}.learning_curve.svg"),
                       line_chart_svg({
                           "train": (xs, np.array([r["train_acc"] for r in rows])),
                           "validation": (xs, np.array([r["val_acc"] for r in rows])),
                       }, "training-set fraction", "accuracy"))

    for variant, ann in zip(cfg.ann_variants, anns):
        model = ann(done)[0]
        with _stage(f"ann:{variant}"):
            register(f"ann_{variant}", model, train_acc=model.history[-1]["train_acc"])
            if "csv" in cfg.formats:
                # the val_acc column stays, empty, so the file keeps its layout
                _table(os.path.join(out, "curves", f"ann_{variant}.history.csv"),
                       ["epoch", "loss", "train_acc", "val_acc"],
                       [[r["epoch"], r["loss"], r["train_acc"], None] for r in model.history])

    if cfg.ensemble and len(tuned_classical) >= 2:
        with _stage("ensemble"):
            register("ensemble", VotingEnsemble([fitted[n] for n in tuned_classical]))

    with _stage("summary"):
        best_row = max(summary, key=lambda r: r["test_acc"])
        for row in summary:
            row["best"] = row is best_row
        if "csv" in cfg.formats:
            columns = ["model", "cv_mean", "cv_std", "train_acc", "test_acc"]
            _table(os.path.join(out, "summary.csv"), columns + ["best"],
                   [[row[k] for k in columns] + [int(row["best"])] for row in summary])
        if "json" in cfg.formats:
            write_json(os.path.join(out, "summary.json"), summary)

    with _stage("models"):
        for name, model in fitted.items():
            save_model(os.path.join(out, "models", f"{name}.model.json"), model, pipe, classes)

    for row in summary:
        marker = " *" if row["best"] else ""
        print(f"{row['model']}: test={row['test_acc']:.4f}{marker}")
    return EXIT_OK


def cmd_evaluate(cfg: PipelineConfig, model_path: str) -> int:
    model, pipe, classes = load_model(model_path)
    data = _load_data(cfg)
    with naming(f"{model_path}:"):
        if classes is not None and tuple(classes) != data.classes:
            raise ConfigError(
                f"model classes {classes} do not match data classes {list(data.classes)}"
            )
        work = pipe.transform(data) if pipe is not None else data
        del data  # the raw session, no longer needed once transformed
        report = evaluate_model(model, work.features, work.labels, list(work.classes))
    path = os.path.join(cfg.out_dir, "evaluate.report.json")
    write_json(path, report.to_dict())
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
    except (ENoseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
