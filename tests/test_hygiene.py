"""Static hygiene of the package source, checked with `ast`: no unused
imports, no exception class in errors.py that nothing else names, and no
function or method that nothing in the source, tests, benchmark or tools
names.  Also, every function perfbench/tracer.py wraps by name exists, and
every cached function is in fmcalc.cli.PROCESS_CACHES."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fmcalc"


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


def _named(tree, strings):
    """Every name a module uses: identifiers, attributes, imported names
    and, with `strings`, the dotted parts of string constants.  Only
    perfbench/ gets `strings` (tracer.py names the functions it wraps by
    string); elsewhere a JSON key that happens to match a method name would
    hide that the method is dead."""
    named = _used_names(tree) | {name for name, _ in _imported_names(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named |= {alias.name for alias in node.names}
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            named |= set(node.value.split("."))
    return named


def test_every_function_and_method_is_named():
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            bodies = [node] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                bodies = [n for n in node.body if isinstance(n, ast.FunctionDef)]
            defined += [
                ("%s:%d %s" % (path.name, f.lineno, f.name), f.name)
                for f in bodies
                if not (f.name.startswith("__") and f.name.endswith("__"))
            ]
    named = set()
    for tree_dir in ("src", "tests", "perfbench", "tools"):
        for path in (ROOT / tree_dir).rglob("*.py"):
            named |= _named(_parse(path), strings=tree_dir == "perfbench")
    unnamed = [where for where, name in defined if name not in named]
    assert not unnamed, "functions and methods nothing names: %s" % ", ".join(unnamed)


def test_every_tracer_target_resolves():
    """perfbench/tracer.py wraps each (module, attribute or Class.method) of
    its TARGETS by name when a traced run starts, and a method only where
    its class defines it; a target that no longer exists would crash every
    traced run.  The list is read without installing the tracer."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, attr, _ in tracer.TARGETS:
        namespace = vars(importlib.import_module("fmcalc." + modname))
        for part in attr.split("."):
            value = namespace.get(part)
            namespace = vars(value) if isinstance(value, type) else {}
        if not callable(value):
            missing.append("%s.%s" % (modname, attr))
    assert not missing, "tracer targets that fmcalc does not define: %s" % ", ".join(missing)


def test_every_cached_function_is_a_process_cache():
    """tools/workcount.py clears fmcalc.cli.PROCESS_CACHES between jobs to
    count as fresh interpreters do, so a cache left out of it would carry
    work from one job to the next unseen."""
    from fmcalc.cli import PROCESS_CACHES

    decorated = set()
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and any(
                ast.unparse(d).startswith(("functools.cache", "functools.lru_cache"))
                for d in node.decorator_list
            ):
                decorated.add("%s.%s" % (path.stem, node.name))
    listed = {"%s.%s" % (c.__module__.rsplit(".", 1)[1], c.__wrapped__.__name__)
              for c in PROCESS_CACHES}
    assert decorated == listed
