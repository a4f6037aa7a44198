"""Run-file parsing, dataset assembly, and stratified splitting."""

from __future__ import annotations

import csv
import glob as _glob
import math
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    BadK,
    ClassTooSmall,
    EmptyInput,
    EmptyRun,
    ENoseError,
    InvalidFraction,
    MalformedCell,
    RaggedRow,
    SchemaMismatch,
    TooFewPerClass,
    naming,
)
from .rng import derive_rng

LABEL_COLUMN = "target"
PARSE_CHUNK_ROWS = 512  # run-CSV rows whose tokens and floats exist at once while parsing

# canonical 9-channel header (configurable at ingest time)
CANONICAL_CHANNELS = (
    "co", "no2", "voc", "ethanol", "co2", "tvoc",
    "temperature", "humidity", "pressure",
)


@dataclass(frozen=True)
class RunTable:
    """One acquisition run: a feature matrix plus its class name."""

    feature_names: tuple[str, ...]
    rows: np.ndarray  # n x d, float64
    label: str


@dataclass(frozen=True)
class Dataset:
    """Merged labeled dataset; the currency passed between pipeline stages.

    ``classes`` is the full class table of the parent population, so encoded
    labels stay aligned across derived subsets (a split may leave a class
    empty on one side).
    """

    feature_names: tuple[str, ...]
    features: np.ndarray  # n x d, float64
    labels: np.ndarray    # n, int64 in [0, C)
    classes: tuple[str, ...]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.feature_names, self.features[idx], self.labels[idx], self.classes)

    def with_features(self, names: tuple[str, ...], features: np.ndarray) -> "Dataset":
        return Dataset(tuple(names), np.asarray(features, dtype=np.float64), self.labels, self.classes)


@dataclass(frozen=True)
class FoldPlan:
    """k disjoint (train_indices, val_indices) pairs covering all samples."""

    folds: tuple[tuple[np.ndarray, np.ndarray], ...]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _first_bad_cell(tokens: list[str]) -> int | None:
    """Index of the first token that ``float`` rejects or reads as non-finite."""
    for i, token in enumerate(tokens):
        try:
            if not math.isfinite(float(token)):
                return i
        except ValueError:
            return i


def _header(line: str) -> tuple[list[str], int | None, list[int]]:
    """The header's cells, the index of its ``target`` column (or None), and its feature columns."""
    header = [h.strip() for h in line.split(",")]
    label_col = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
    return header, label_col, [i for i in range(len(header)) if i != label_col]


def parse_run_csv(text: str, label: str | None = None, out: np.ndarray | None = None) -> RunTable:
    """Parse one run's CSV content into a RunTable.

    The first line is a comma-separated header; subsequent lines are numeric.
    An optional ``target`` column carries the class name in-file; it must be
    constant and, if ``label`` is also given, must agree with it.  Cells are
    read as Python's ``float`` reads them once stripped.  A bad file fails at
    its earliest bad row; within a row a wrong cell count beats a target
    mismatch, which beats the leftmost bad cell.  ``out``, if given, is a
    float64 array with at least one row per data line and one column per
    feature; the rows are parsed into its first rows.
    """
    lines = list(filter(str.strip, text.replace("\r\n", "\n").split("\n")))  # non-blank
    if not lines:
        raise EmptyRun("no header line")
    header, label_col, feature_cols = _header(lines[0])
    body = lines[1:]
    if not body:
        raise EmptyRun("header only, no data rows")
    d = len(feature_cols)
    if out is None:
        out = np.empty((len(body), d))
    elif out.shape[0] < len(body) or out.shape[1] != d:
        raise SchemaMismatch(f"{len(body)} data rows of {d} features do not fit the "
                             f"{out.shape} rows counted when the file was first read")
    out = out[:len(body)]
    width = len(header)
    file_label: str | None = None
    for start in range(0, len(body), PARSE_CHUNK_ROWS):
        stop = min(start + PARSE_CHUNK_ROWS, len(body))
        part = body[start:stop]
        if label_col is None:
            # numpy's C reader takes a cell only where ``float`` reads it to the same
            # value, and refuses a wrong cell count; a chunk it refuses, or that holds
            # a value that is not finite, is read again below, token by token
            try:
                chunk = np.loadtxt(part, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                chunk = None
            if chunk is not None and chunk.shape == (stop - start, d) and np.isfinite(chunk).all():
                out[start:stop] = chunk
                continue
        # the rows before the chunk's first ragged one are split and converted at
        # once; a failing row or cell is located only once that bulk pass shows one
        commas = np.fromiter(map(str.count, part, repeat(",")), dtype=np.int64, count=len(part))
        ragged = np.flatnonzero(commas != width - 1)
        n = int(ragged[0]) if ragged.size else len(part)
        tokens = list(map(str.strip, ",".join(part[:n]).split(","))) if n else []
        mismatch = None
        if label_col is not None and n:
            targets = tokens[label_col::width]
            if file_label is None:
                file_label = targets[0]
            if targets.count(file_label) != len(targets):
                mismatch = next(r for r, t in enumerate(targets) if t != file_label)
            del tokens[label_col::width]
        try:
            chunk = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
            nonfinite = np.flatnonzero(~np.isfinite(chunk))
            bad = int(nonfinite[0]) if nonfinite.size else None
        except ValueError:
            bad = _first_bad_cell(tokens)
        if mismatch is not None and (bad is None or mismatch <= bad // d):
            raise SchemaMismatch(f"target column is not constant: {file_label!r} vs "
                                 f"{targets[mismatch]!r} at row {start + mismatch + 1}")
        if bad is not None:
            raise MalformedCell(row=start + bad // d + 1, col=feature_cols[bad % d] + 1,
                                token=tokens[bad])
        if n < len(part):
            raise RaggedRow(row=start + n + 1, expected=width, got=int(commas[n]) + 1)
        out[start:stop] = chunk.reshape(n, d)

    if file_label is not None and label is not None and file_label != label:
        raise SchemaMismatch(f"in-file target {file_label!r} disagrees with supplied label {label!r}")
    final_label = label if label is not None else file_label
    if final_label is None:
        raise EmptyInput("no label supplied and no target column present")
    return RunTable(tuple(header[i] for i in feature_cols), out, final_label)


def encode_class_names(names) -> tuple[str, ...]:
    """Deduplicated, lexicographically sorted class table."""
    return tuple(sorted(set(names)))


def merge_runs(tables: list[RunTable], features: np.ndarray | None = None) -> Dataset:
    """Runs (in input order) as one labeled Dataset.

    ``features`` is the tables' rows stacked, where the caller parsed them
    into one array; without it they are concatenated.
    """
    if not tables:
        raise EmptyInput("no run tables to merge")
    names = tables[0].feature_names
    for t in tables[1:]:
        if t.feature_names != names:
            raise SchemaMismatch(f"headers differ: {names} vs {t.feature_names}")
    classes = encode_class_names(t.label for t in tables)
    index = {c: i for i, c in enumerate(classes)}
    if features is None:
        features = np.concatenate([t.rows for t in tables], axis=0)
    labels = np.repeat(np.array([index[t.label] for t in tables], dtype=np.int64),
                       [t.rows.shape[0] for t in tables])
    return Dataset(names, features, labels, classes)


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D array, NaNs as one, as ``np.unique`` gives them.

    ``np.unique`` imports ``numpy.ma`` on its first call in numpy 2.x (about
    1 MB and 18 ms); this sort and neighbour compare does not.
    """
    s = np.sort(values)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    keep[1:] &= s[:-1] == s[:-1]  # NaNs sort last: only the first is kept
    return s[keep]


def stratified_split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded stratified train/test split.

    Per class c the test side receives round-half-up(n_c * test_fraction)
    samples chosen by a seeded shuffle of that class's indices.
    """
    if not (0.0 < test_fraction < 1.0):
        raise InvalidFraction(f"test_fraction {test_fraction} outside (0, 1)")
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    present = np.flatnonzero(counts)
    small = [ds.classes[c] for c in present if counts[c] < 2]
    if small:
        raise ClassTooSmall(f"classes with fewer than 2 samples: {small}")

    test_parts = []
    train_parts = []
    for c in present:
        idx = np.flatnonzero(ds.labels == c)
        rng = derive_rng(seed, "split", int(c))
        perm = rng.permutation(idx.shape[0])
        n_test = _round_half_up(idx.shape[0] * test_fraction)
        shuffled = idx[perm]
        test_parts.append(shuffled[:n_test])
        train_parts.append(shuffled[n_test:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return ds.subset(train_idx), ds.subset(test_idx)


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> FoldPlan:
    """Seeded stratified k-fold plan over encoded labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise BadK(f"k must be >= 2, got {k}")
    folds_val: list[list[np.ndarray]] = [[] for _ in range(k)]
    for c in distinct(labels):
        idx = np.flatnonzero(labels == c)
        if idx.shape[0] < k:
            raise TooFewPerClass(f"class {c} has {idx.shape[0]} samples, fewer than k={k}")
        rng = derive_rng(seed, "kfold", int(c))
        shuffled = idx[rng.permutation(idx.shape[0])]
        for f in range(k):
            folds_val[f].append(shuffled[f::k])
    n = labels.shape[0]
    all_idx = np.arange(n)
    folds = []
    for f in range(k):
        val = np.sort(np.concatenate(folds_val[f]))
        mask = np.ones(n, dtype=bool)
        mask[val] = False
        folds.append((all_idx[mask], val))
    return FoldPlan(tuple(folds))


# --- file-level ingestion ----------------------------------------------------

def label_from_filename(path: str) -> str | None:
    """Extract the class name from a ``<class>__<run_id>.csv`` file name."""
    stem = os.path.splitext(os.path.basename(path))[0]
    if "__" in stem:
        return stem.split("__", 1)[0]
    return None


def _read_text(path: str) -> str:
    """The file's UTF-8 text; a file that cannot be read is an ingestion error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise EmptyInput(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # not UTF-8 (UnicodeDecodeError), or a NUL byte in the path
        raise SchemaMismatch(f"{path}: not readable as UTF-8 text ({exc})") from exc


def load_run_file(path: str, label: str | None = None, out: np.ndarray | None = None) -> RunTable:
    if label is None:
        label = label_from_filename(path)
    text = _read_text(path)
    with naming(f"{path}:"):
        return parse_run_csv(text, label, out)


def _shape(text: str) -> tuple[tuple[str, ...], int]:
    """A run file's feature names and a bound on its data lines: the newlines after
    its header, its first non-blank line.  The text is neither split nor kept."""
    text = text.lstrip()
    if not text:
        return (), 0
    end = text.find("\n")
    header, _, feature_cols = _header(text[:end] if end >= 0 else text)
    return tuple(header[i] for i in feature_cols), text.count("\n")


def _load_runs(runs: list[tuple[str, str | None]]) -> tuple[list[RunTable], np.ndarray]:
    """Each ``(path, label)`` run parsed, in order, into its rows of one features array.

    A first pass bounds each file's data lines by the newlines after its header,
    up to the first file it cannot read; the second parses them, so the errors
    come in the order of parsing the files one by one.  A file whose header
    differs from the first's is parsed on its own, for its errors, and
    ``merge_runs`` rejects it.
    """
    shapes = []
    for path, _ in runs:
        try:
            shapes.append(_shape(_read_text(path)))
        except ENoseError:
            break
    names = shapes[0][0] if shapes else ()
    features = np.empty((sum(n for h, n in shapes if h == names), len(names)))
    tables, start = [], 0
    for (path, label), (header, n) in zip(runs, shapes):
        out = features[start:start + n] if header == names else None
        tables.append(load_run_file(path, label, out))
        if out is not None:
            start += tables[-1].rows.shape[0]
    if len(shapes) < len(runs):
        path = runs[len(shapes)][0]
        _read_text(path)  # raises the error that ended the count
        raise EmptyInput(f"{path}: became readable while the run files were read")
    return tables, features[:start]


def load_manifest(path: str) -> Dataset:
    """Load runs listed in a manifest of ``<path>,<class_name>`` CSV rows.

    A cell may be quoted (RFC 4180), so a path or class name may hold a comma.
    Blank lines and lines starting with ``#`` are skipped; a row without a class
    name takes it from the run file's name.  A row of more than two cells, or
    one that is not CSV, is a SchemaMismatch naming the manifest and the line.
    """
    base = os.path.dirname(os.path.abspath(path))
    runs = []
    for number, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            cells = next(csv.reader([line], strict=True, skipinitialspace=True))
        except csv.Error as exc:
            raise SchemaMismatch(f"{path}: line {number} is not a CSV row ({exc})") from exc
        if len(cells) > 2:
            raise SchemaMismatch(f"{path}: line {number} has {len(cells)} cells, expected a "
                                 f"run path and a class name")
        run_path, cls = cells[0].strip(), cells[1].strip() if len(cells) == 2 else ""
        if not os.path.isabs(run_path):
            run_path = os.path.join(base, run_path)
        runs.append((run_path, cls or None))
    tables, features = _load_runs(runs)
    with naming(f"{path}:"):
        return merge_runs(tables, features)


def load_glob(pattern: str) -> Dataset:
    """Load every run file matching a glob; labels come from file names."""
    paths = sorted(_glob.glob(pattern))
    if not paths:
        raise EmptyInput(f"no files match {pattern!r}")
    return merge_runs(*_load_runs([(p, None) for p in paths]))
