"""scipy is imported only when an LDA (V4) pipeline is fitted, and hashlib only
when a seed is derived.

Every ``enose`` process used to import ``scipy.linalg`` at start-up, which cost
a quarter of a second and about 24 MB for commands that never fit LDA, and
``hashlib``, which maps OpenSSL (about 3.6 MB) for commands that draw no random
stream, such as scoring a saved model.  ``multiprocessing`` and
``concurrent.futures`` are never imported by these commands: model selection
forks its workers itself (``enose.pool``), because importing
``multiprocessing.pool`` alone adds about 1 MB of RSS.  Each check runs a fresh
interpreter, so modules the test process already holds do not hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from enose.classifiers.tree import TreeParams, dt_fit
from enose.evaluate import FeaturePipeline
from enose.serialize import save_model
from enose.synth import default_spec, generate, write_run_files

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_python(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON document as its last line."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LAZY = ("scipy", "hashlib", "_hashlib", "multiprocessing", "concurrent.futures")


def test_importing_the_cli_does_not_import_scipy():
    seen = fresh_python("import json, sys\nimport enose.cli\n"
                        f"print(json.dumps([m in sys.modules for m in {LAZY!r}]))")
    assert seen == [False] * len(LAZY)


def test_ingest_and_evaluate_of_a_v2_model_do_not_import_scipy(tmp_path):
    data = generate(default_spec(20, 3))
    manifest = write_run_files(data, str(tmp_path / "runs"))
    pipe = FeaturePipeline("V2").fit(data)
    work = pipe.transform(data)
    model = dt_fit(work.features, work.labels, TreeParams(max_depth=3), n_classes=data.n_classes)
    model_path = str(tmp_path / "dt.model.json")
    save_model(model_path, model, pipe, list(data.classes))
    cfg = tmp_path / "eval.ini"
    cfg.write_text(f"[data]\nsource = manifest\nmanifest = {manifest}\n")
    seen = fresh_python(f"""
import json, sys
from enose.cli import main
codes = [main(["--config", {str(cfg)!r}, "ingest"]),
         main(["--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r},
               "evaluate", {model_path!r}])]
print(json.dumps([codes, [m in sys.modules for m in {LAZY!r}]]))
""")
    assert seen == [[0, 0], [False] * len(LAZY)]
    assert (tmp_path / "out" / "evaluate.report.json").exists()


def test_fitting_a_v4_pipeline_imports_scipy():
    seen = fresh_python("""
import json, sys
from enose.evaluate import FeaturePipeline
from enose.synth import default_spec, generate
data = generate(default_spec(20, 3))
before = "scipy" in sys.modules
width = FeaturePipeline("V4").fit(data).transform(data).d
print(json.dumps([before, "scipy" in sys.modules, width]))
""")
    assert seen[:2] == [False, True] and seen[2] >= 1


def test_a_run_imports_hashlib(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[data]\nsamples = 20\n[pipeline]\nfolds = 2\n"
                   "[models]\nfamilies = dt\ngrid = none\nann_variants =\nensemble = no\n")
    seen = fresh_python(f"""
import json, sys
from enose.cli import main
before = [m in sys.modules for m in ("hashlib", "_hashlib")]
code = main(["--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}, "run"])
print(json.dumps([before, code, [m in sys.modules for m in ("hashlib", "_hashlib")]]))
""")
    assert seen == [[False, False], 0, [True, True]]


def test_a_run_imports_numpy_ma_only_if_numpy_does(tmp_path):
    # np.unique imports numpy.ma on its first call in numpy 2.x; numpy 1.x imports it
    # with numpy itself, where there is nothing to avoid
    cfg = tmp_path / "run.ini"
    cfg.write_text("[data]\nsamples = 20\n[pipeline]\nversion = V3\nfolds = 2\n"
                   "[models]\nfamilies = svm,dt\ngrid = none\nann_variants =\nensemble = no\n")
    seen = fresh_python(f"""
import json, sys
import numpy
with_numpy = "numpy.ma" in sys.modules
from enose.cli import main
code = main(["--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}, "run"])
print(json.dumps([with_numpy, code, "numpy.ma" in sys.modules]))
""")
    assert seen[1] == 0
    assert seen[2] == seen[0]
