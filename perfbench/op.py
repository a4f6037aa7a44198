"""Run one ``enose`` CLI invocation from the source tree, optionally traced.

    python3 perfbench/op.py [--trace-out SPANS.json] <enose arguments...>

numpy 2.x removed ``np.trapz``, and ``enose.evaluate.binary_roc`` still names
it as the eager default of ``getattr(np, "trapezoid", np.trapz)``.  When numpy
lacks it, ``np.trapz`` is pointed at ``np.trapezoid`` so that expression can
be evaluated; the AUC is still computed by ``np.trapezoid``.  On a numpy that
has ``np.trapz``, or once the program stops naming it, this does nothing.

With ``--trace-out`` the calls into each enose layer are recorded as spans
(see ``spans.py``) and written to the given file when the command ends.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import enose.cli
    end = time.perf_counter()
    import numpy as np
    if not hasattr(np, "trapz"):
        np.trapz = np.trapezoid
    if trace_out is None:
        return enose.cli.main(argv)

    sys.path.insert(0, HERE)
    import spans
    tracer = spans.Tracer()
    tracer.record("cli.import", start, end)
    spans.install(tracer)
    try:
        return enose.cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
