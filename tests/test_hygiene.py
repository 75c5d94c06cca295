"""Static hygiene of the package source, checked with `ast`: no unused
imports, and no exception class in errors.py that nothing else names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fmcalc"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported_names(tree):
    """(bound name, line) for every import in the module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, node.lineno))
    return out


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        used = _used_names(tree)
        unused += [
            "%s:%d %s" % (path.name, line, name)
            for name, line in _imported_names(tree)
            if name not in used
        ]
    assert not unused, "unused imports: %s" % ", ".join(unused)


def test_every_error_class_is_named_elsewhere():
    errors = _parse(SRC / "errors.py")
    classes = {n.name for n in errors.body if isinstance(n, ast.ClassDef)}
    named = set()
    for path in SRC.glob("*.py"):
        if path.name == "errors.py":
            continue
        tree = _parse(path)
        named |= _used_names(tree)
        named |= {name for name, _ in _imported_names(tree)}
    assert not classes - named, "unused error classes: %s" % sorted(classes - named)
