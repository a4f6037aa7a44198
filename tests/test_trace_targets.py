"""Every target of the benchmark's tracer (``perfbench/spans.py``'s ``TARGETS``) exists.

The tracer replaces each target by a timed wrapper: a plain name through the
module attribute, a dotted ``Class.method`` through the class's own
``__dict__``.  A refactor that renames or moves one (a method inherited from a
base class, say) breaks ``perfbench/run.py --trace 1``, so it fails here.  The
targets are read from the source with ``ast``; nothing is imported from
``perfbench``.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def trace_targets() -> list[tuple[str, str, str]]:
    """(span name, module, attribute) of each entry of ``TARGETS``."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [tuple(ast.literal_eval(part) for part in entry.elts[:3])
                    for entry in node.value.elts]
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert len(targets) > 20
    missing = []
    for name, module, attr in targets:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            found = method in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{name}: {module}.{attr}")
    assert not missing, "trace targets that no longer resolve:\n" + "\n".join(missing)
