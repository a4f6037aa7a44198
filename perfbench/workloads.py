"""The benchmark's workloads: inputs made from a seed, the CLI call, its checks.

Each workload writes its inputs (config file, run CSVs, saved model) under a
work directory, names one ``enose`` CLI invocation, checks that invocation's
outputs, and states the per-layer counts its config implies, which the traced
run compares with what it recorded.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics
from dataclasses import dataclass

# module references, not imported names, so a traced set-up sees the wrappers
from enose import evaluate, models, serialize, synth
from enose.classifiers import forest

# every model's test accuracy, and the scored session's accuracy, must reach
# this floor (acceptance criterion 8 of the program's test suite)
ACC_FLOOR = 0.93

N_CLASSES = len(synth.DEFAULT_CLASSES)
FOLDS = 5
TEST_FRACTION = 0.2
ANN_EPOCHS = 30
ANN_BATCH = 128            # MlpSpec default batch size
RF_BASELINE_TREES = 100    # Estimator default n_estimators

FOREST_SAMPLES = 60        # per class, synth source inside the run
SVM_SAMPLES = 100          # per class, written as run CSVs
SCORE_TRAIN_SAMPLES = 200  # per class, the saved forest's training session
SCORE_SESSION_SAMPLES = 5_000  # per class, the scored session


def sub_seed(seed: int, purpose: str) -> int:
    """A 31-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class Job:
    """One prepared workload: the CLI call and what its checks need."""

    config: str
    command: list[str]
    out: str
    seeds: dict
    result_file: str
    models: tuple[str, ...] = ()

    @property
    def argv(self) -> list[str]:
        return ["--config", self.config, *self.command]

    @property
    def warmup_argv(self) -> list[str]:
        return ["--config", self.config, "ingest"]


def _write_config(path: str, sections: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def _load_json(path: str, problems: list[str]):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{os.path.basename(path)}: {exc}")
        return None


def _accuracy_ok(name: str, acc, problems: list[str]) -> None:
    if not isinstance(acc, (int, float)) or not math.isfinite(acc) or acc < ACC_FLOOR:
        problems.append(f"{name}: accuracy {acc!r} below the {ACC_FLOOR} floor")


def check_run(out: str, models: tuple[str, ...]) -> tuple[list[str], float | None]:
    """Problems with an ``enose run`` output tree, and its mean test accuracy."""
    problems: list[str] = []
    summary = _load_json(os.path.join(out, "summary.json"), problems)
    if not isinstance(summary, list):
        return problems or ["summary.json is not a list of rows"], None
    names = sorted(str(row.get("model")) for row in summary)
    if names != sorted(models):
        problems.append(f"summary.json lists models {names}, expected {sorted(models)}")
    accs = []
    for row in summary:
        name = str(row.get("model"))
        _accuracy_ok(name, row.get("test_acc"), problems)
        accs.append(row.get("test_acc"))
        report = _load_json(os.path.join(out, "reports", f"{name}.report.json"), problems)
        if report is not None and report.get("accuracy") != row.get("test_acc"):
            problems.append(f"{name}: report accuracy disagrees with summary.json")
        model = _load_json(os.path.join(out, "models", f"{name}.model.json"), problems)
        if model is not None and "model" not in model:
            problems.append(f"{name}.model.json holds no model")
    if problems:
        return problems, None
    return problems, statistics.fmean(accs)


def check_evaluate(out: str) -> tuple[list[str], float | None]:
    """Problems with an ``enose evaluate`` output, and its accuracy."""
    problems: list[str] = []
    report = _load_json(os.path.join(out, "evaluate.report.json"), problems)
    if report is None:
        return problems, None
    acc = report.get("accuracy")
    _accuracy_ok("evaluate.report.json", acc, problems)
    return problems, (None if problems else float(acc))


def _n_train(samples: int) -> int:
    # stratified_split sends round-half-up(samples * fraction) per class to test
    return N_CLASSES * (samples - math.floor(samples * TEST_FRACTION + 0.5))


def _cells(family: str) -> list[dict]:
    """The grid cells the config's ``grid = small`` expands to."""
    return models.default_grid(family, "small").cells()


def _winning_trees(out: str) -> int:
    """``n_estimators`` of the grid cell the run chose, read from its grid CSV."""
    with open(os.path.join(out, "grids", "rf.grid.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    best = rows[0]
    for row in rows[1:]:
        if float(row["mean"]) > float(best["mean"]):  # earliest cell wins ties
            best = row
    return int(best["n_estimators"])


class Workload:
    """Why each workload was chosen is in BENCHMARK.json and perfbench/README.md."""

    name = ""

    def setup(self, work: str, seed: int) -> Job:
        raise NotImplementedError

    def check(self, job: Job, exit_code: int) -> tuple[list[str], float | None]:
        """Problems with one operation, and its accuracy when there are none."""
        if exit_code != 0:
            return [f"exit code {exit_code}"], None
        return self.check_outputs(job)

    def check_outputs(self, job: Job) -> tuple[list[str], float | None]:
        return check_run(job.out, job.models)

    def expected_counts(self, job: Job) -> dict[str, float]:
        """Per-layer counts that the config implies for a traced set-up plus operation."""
        raise NotImplementedError


class TrainForest(Workload):
    name = "train-forest"

    def setup(self, work: str, seed: int) -> Job:
        cfg_seed = sub_seed(seed, "config")
        out = os.path.join(work, "out")
        config = os.path.join(work, "train-forest.ini")
        _write_config(config, {
            "data": {"source": "synth", "samples": FOREST_SAMPLES, "drift": "true"},
            "pipeline": {"version": "V2", "seed": cfg_seed, "folds": FOLDS,
                         "test_fraction": TEST_FRACTION},
            "models": {"families": "dt,rf", "grid": "small", "ann_variants": "baseline",
                       "ann_epochs": ANN_EPOCHS, "ensemble": "true"},
            "output": {"dir": out, "formats": "json,csv",
                       "workers": min(2, len(os.sched_getaffinity(0)))},
        })
        models = ("dt_baseline", "dt_tuned", "rf_baseline", "rf_tuned", "ann_baseline",
                  "ensemble")
        return Job(config, ["run"], out, {"config": cfg_seed}, "summary.json", models)

    def expected_counts(self, job: Job) -> dict[str, float]:
        dt_cells = len(_cells("dt"))
        rf_cells = _cells("rf")
        rf_grid_trees = sum(cell["n_estimators"] for cell in rf_cells)
        trees = (FOLDS * RF_BASELINE_TREES + RF_BASELINE_TREES
                 + FOLDS * rf_grid_trees + _winning_trees(job.out))
        dt_fits = FOLDS * (1 + dt_cells) + 2
        return {
            "forest.trees": trees,
            "tree.fits": trees + dt_fits,
            "evaluate.folds": FOLDS * (2 + dt_cells + len(rf_cells)),
            "evaluate.grid_cells": dt_cells + len(rf_cells),
            "neural.steps": ANN_EPOCHS * math.ceil(_n_train(FOREST_SAMPLES) / ANN_BATCH),
        }


class TrainSvmCsv(Workload):
    name = "train-svm-csv"

    def setup(self, work: str, seed: int) -> Job:
        session_seed = sub_seed(seed, "session")
        cfg_seed = sub_seed(seed, "config")
        data = synth.generate(synth.default_spec(SVM_SAMPLES, session_seed))
        manifest = synth.write_run_files(data, os.path.join(work, "session"))
        out = os.path.join(work, "out")
        config = os.path.join(work, "train-svm-csv.ini")
        _write_config(config, {
            "data": {"source": "manifest", "manifest": manifest},
            "pipeline": {"version": "V3", "seed": cfg_seed, "folds": FOLDS,
                         "test_fraction": TEST_FRACTION},
            "models": {"families": "svm", "grid": "small", "ann_variants": "",
                       "ensemble": "false"},
            "output": {"dir": out, "formats": "json,csv", "workers": 1},
        })
        return Job(config, ["run"], out, {"session": session_seed, "config": cfg_seed},
                   "summary.json", ("svm_baseline", "svm_tuned"))

    def expected_counts(self, job: Job) -> dict[str, float]:
        cells = len(_cells("svm"))
        return {
            "svm.binary_fits": N_CLASSES * (FOLDS * (1 + cells) + 2),
            "evaluate.folds": FOLDS * (1 + cells),
            "evaluate.grid_cells": cells,
            "dataset.rows_parsed": N_CLASSES * SVM_SAMPLES,
        }


class ScoreSaved(Workload):
    name = "score-saved"

    def setup(self, work: str, seed: int) -> Job:
        seeds = {name: sub_seed(seed, name) for name in ("train", "fit", "session")}
        train = synth.generate(synth.default_spec(SCORE_TRAIN_SAMPLES, seeds["train"]))
        pipe = evaluate.FeaturePipeline("V2").fit(train)
        t = pipe.transform(train)
        rf = forest.rf_fit(t.features, t.labels,
                           forest.ForestParams(n_estimators=RF_BASELINE_TREES, seed=seeds["fit"]),
                           n_classes=train.n_classes)
        model = os.path.join(work, "rf.model.json")
        serialize.save_model(model, rf, pipe, list(train.classes))
        session = synth.generate(synth.default_spec(SCORE_SESSION_SAMPLES, seeds["session"]))
        manifest = synth.write_run_files(session, os.path.join(work, "session"))
        out = os.path.join(work, "out")
        config = os.path.join(work, "score-saved.ini")
        _write_config(config, {
            "data": {"source": "manifest", "manifest": manifest},
            "output": {"dir": out},
        })
        return Job(config, ["evaluate", model], out, seeds, "evaluate.report.json")

    def check_outputs(self, job: Job) -> tuple[list[str], float | None]:
        return check_evaluate(job.out)

    def expected_counts(self, job: Job) -> dict[str, float]:
        rows = N_CLASSES * SCORE_SESSION_SAMPLES
        return {
            "forest.trees": RF_BASELINE_TREES,
            "tree.fits": RF_BASELINE_TREES,
            "dataset.rows_parsed": rows,
            "tree.predict_rows": RF_BASELINE_TREES * rows,
            "serialize.bytes_read": os.path.getsize(job.command[-1]),  # the model file
        }


WORKLOADS = {w.name: w for w in (TrainForest(), TrainSvmCsv(), ScoreSaved())}
