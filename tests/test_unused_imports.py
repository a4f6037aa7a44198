"""Every name the package and scripts import is used in the importing module.

A deleted function or class easily leaves its import behind.  This test reads
the sources with ``ast`` and fails on an import that binds a name nothing in
its module reads.  Package ``__init__.py`` files are checked too: the package
keeps no re-exports, so an import there also needs a reader.  Names inside
string annotations (``-> "Dataset"``) count as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "enose").rglob("*.py"))
SOURCES += sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (``import a.b`` binds ``a``) -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def test_used_names_sees_string_annotations():
    tree = ast.parse('import a\nimport b.c\nfrom d import e as f\ndef g(x: "a") -> "list[f]": pass\n')
    assert imported_names(tree) == {"a": 1, "b": 2, "f": 3}
    assert set(imported_names(tree)) - used_names(tree) == {"b"}


def test_every_import_is_used():
    assert SOURCES, "no sources found under src/enose or scripts"
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in sorted(imported_names(tree).items()) if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
