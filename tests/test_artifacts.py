"""The artifact contract: a small run matrix writes the same bytes as recorded.

``artifact_digests.json`` holds the sha256 of every file and of stdout that the
matrix below writes, and the environment they were recorded in: Python, numpy,
scipy and OpenBLAS (its build configuration and the core it runs on), whose
versions and kernels set the rounding of every float.  A run in another
environment fails and names the difference.

The file changes only with an announced artifact change (README
"Determinism").  ``python tests/test_artifacts.py`` prints the document for the
code as it is, for that reviewed diff; nothing rewrites the file.
"""

import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
from pathlib import Path

import numpy as np
import scipy

from enose.cli import main

DIGESTS = Path(__file__).with_name("artifact_digests.json")

# every version runs every family with the small grid, all five ANN variants
# (two epochs), the ensemble, learning curves and every output format, and
# ``enose evaluate`` scores each model it saves
CONFIG = """\
[data]
source = synth
samples = 20

[pipeline]
version = {version}
seed = 3
folds = 2

[models]
families = dt,rf,svm
grid = small
ann_variants = baseline,deeper,wider,l2,rmsprop
ann_epochs = 2
ensemble = yes
learning_curves = yes
learning_curve_sizes = 0.5,1.0

[output]
formats = json,csv,svg
"""
VERSIONS = ("V1", "V2", "V3", "V4")
# the numeric columns of the CSV tables, and the (table kind, column) cells the
# writer leaves empty where it got None; a table's kind is its name's second-last
# dot part, as in ``ann_baseline.history.csv``
NUMERIC = {"r", "fpr", "tpr", "mean", "std", "failures", "size", "train_acc", "val_acc",
           "epoch", "loss", "cv_mean", "cv_std", "test_acc", "best"}
MAY_BE_EMPTY = {("summary", "cv_mean"), ("summary", "cv_std"), ("history", "val_acc")}


def _openblas_core() -> str | None:
    """The core OpenBLAS picked at run time, or None where numpy links another BLAS."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                      "libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("openblas configuration", blas["name"]),
            "blas_core": _openblas_core()}


def _call(argv: list[str]) -> bytes:
    """stdout of ``enose argv``, run in this process; it must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0, (argv, out.getvalue())
    return out.getvalue().encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(work: Path) -> dict[str, str]:
    """sha256 of every file and stdout the matrix writes under ``work``, by relative path."""
    cwd = os.getcwd()
    os.chdir(work)  # relative paths keep stdout free of the work directory
    try:
        digests = {}
        for version in VERSIONS:
            Path(f"{version}.ini").write_text(CONFIG.format(version=version))
            config = ["--config", f"{version}.ini"]
            digests[f"{version}/stdout"] = _sha(_call([*config, "--out", version, "run"]))
            for name in sorted(p.name.removesuffix(".model.json")
                               for p in Path(version, "models").iterdir()):
                out = f"{version}-evaluate/{name}"
                stdout = _call([*config, "--out", out, "evaluate",
                                f"{version}/models/{name}.model.json"])
                digests[f"{out}/stdout"] = _sha(stdout)
        for path in sorted(Path().rglob("*")):
            if path.is_file() and path.suffix != ".ini":
                digests[path.as_posix()] = _sha(path.read_bytes())
        return dict(sorted(digests.items()))
    finally:
        os.chdir(cwd)


def _malformed_cells(work: Path) -> list[tuple[str, int, str]]:
    """(file, line, reason) for every CSV row under ``work`` that is not as wide as its
    header, or whose numeric cell neither parses with ``float`` nor is an allowed empty."""
    bad = []
    for path in sorted(work.rglob("*.csv")):
        with path.open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        name, kind = path.relative_to(work).as_posix(), path.name.split(".")[-2]
        for line, row in enumerate(rows, start=2):
            if len(row) != len(header):
                bad.append((name, line, f"{len(row)} cells, header has {len(header)}"))
                continue
            for column, cell in zip(header, row):
                if column not in NUMERIC or (cell == "" and (kind, column) in MAY_BE_EMPTY):
                    continue
                try:
                    float(cell)
                except ValueError:
                    bad.append((name, line, f"{column} = {cell!r}"))
    return bad


def test_the_run_matrix_writes_the_recorded_bytes(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    env = environment()
    differ = {k: (recorded["environment"].get(k), v) for k, v in env.items()
              if recorded["environment"].get(k) != v}
    assert not differ, (f"{DIGESTS.name} was recorded in another environment "
                        f"(recorded, here): {differ}")
    got, want = run_matrix(tmp_path), recorded["digests"]
    bad = _malformed_cells(tmp_path)
    assert not bad, f"{len(bad)} malformed CSV cells, the first: {bad[:3]}"
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing, new = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (changed or missing or new), (f"artifacts differ from {DIGESTS.name}: changed "
                                            f"{changed}, missing {missing}, new {new}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        doc = {"environment": environment(), "digests": run_matrix(Path(work))}
    print(json.dumps(doc, indent=1, sort_keys=True))
