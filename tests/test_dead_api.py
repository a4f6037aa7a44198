"""Every function, method and property the package defines is referenced somewhere.

A function nobody calls is dead public API: it has to be read, kept working and
tested, and it tells a reader that something uses it.  This test reads the
sources with ``ast`` and fails on a function, method or property defined in
``src/enose`` whose name appears nowhere in ``src``, ``tests``, ``scripts`` or
``perfbench`` outside its own definition.  A reference is a name, an attribute
(``model.predict``) or a string that spells a dotted name (``"FeaturePipeline.fit"``,
as the benchmark's tracer names its targets).  Dunder methods are exempt.
Dataclass fields are out of scope: ``serialize`` reads them through ``fields()``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINING = sorted((ROOT / "src" / "enose").rglob("*.py"))
READING = [p for d in ("src", "tests", "scripts", "perfbench")
           for p in sorted((ROOT / d).rglob("*.py"))]
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(tree: ast.Module):
    """(name, first line, last line, is a method) of every function, method and property."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node.end_lineno, id(node) in methods


def references(tree: ast.Module):
    """(name, line, is a bare name) of every name, attribute and dotted-name string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_NAME.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno, False


def unreferenced(defining: dict[str, ast.Module], reading: dict[str, ast.Module]) -> list[str]:
    """Definitions with no reference outside themselves.

    A method or property is reached through an attribute or a string, so a bare
    name (a local variable ``k``) does not count as a reference to one.
    """
    refs: dict[str, list[tuple[str, int, bool]]] = {}
    for path, tree in reading.items():
        for name, line, bare in references(tree):
            refs.setdefault(name, []).append((path, line, bare))
    dead = []
    for path, tree in defining.items():
        for name, first, last, method in definitions(tree):
            outside = [(p, ln) for p, ln, bare in refs.get(name, [])
                       if (p != path or not first <= ln <= last) and not (method and bare)]
            if not outside:
                dead.append(f"{path}:{first}: {name}")
    return dead


def _parse(paths) -> dict[str, ast.Module]:
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text(), filename=str(p)) for p in paths}


def test_unreferenced_sees_only_outside_references():
    src = ast.parse(
        "def used(): pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class A:\n"
        "    def __len__(self): return 0\n"
        "    @property\n    def traced(self): return 1\n"
        "    def dead(self): return self.dead()\n"
        "    def shadowed(self): return 2\n"
    )
    other = ast.parse("used()\nTARGET = 'A.traced'\nnote = 'the dead branch'\nshadowed = 3\n")
    assert unreferenced({"m.py": src}, {"m.py": src, "t.py": other}) == [
        "m.py:2: recursive", "m.py:8: dead", "m.py:9: shadowed"]


def test_every_definition_is_referenced():
    assert DEFINING, "no sources found under src/enose"
    dead = unreferenced(_parse(DEFINING), _parse(READING))
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
