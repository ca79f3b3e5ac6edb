"""Every function, method and class of the package is reached from outside
its own definition: by another part of the package, a script or the
benchmark. A name only the tests (or the package's re-exports) use is code
that nothing needs.

References are counted by name: AST names, attribute names, import aliases,
and the parts of dotted string constants (the benchmark tracer names its
targets as strings, such as "GreenProvider.robin_H_many"). A method or
property is reached only through an attribute or a dotted string: a bare name
of the same spelling is some local variable or function, not the method.
Dunder names are exempt, since the language calls them.
"""

import ast
import pathlib
import re
from collections import Counter

import sinhpierce

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path(sinhpierce.__file__).resolve().parent

# names allowed to go unreached; keep it empty
ALLOWED = set()

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(node, bare=True):
    """The names node refers to, one entry per occurrence; bare=False leaves
    out AST names and import aliases, which cannot reach a method."""
    if isinstance(node, ast.Name) and bare:
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias) and bare:
        return [node.name.rsplit(".", 1)[-1]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and _DOTTED.fullmatch(node.value):
        return node.value.split(".")
    return []


def _references(tree, bare=True):
    """How often each name is referred to anywhere in tree."""
    return Counter(name for node in ast.walk(tree)
                   for name in _referenced_names(node, bare))


def _methods(tree):
    """The function definitions directly in a class body of tree."""
    return {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _sources():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return {p: ast.parse(p.read_text()) for p in files}


def test_every_definition_is_reached():
    trees = _sources()
    total = sum((_references(t) for t in trees.values()), Counter())
    qualified = sum((_references(t, bare=False) for t in trees.values()), Counter())
    unreached = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        methods = _methods(tree)
        for node in ast.walk(tree):
            if not isinstance(node, _DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            bare = id(node) not in methods
            seen = total if bare else qualified
            # a reference inside the definition itself (recursion) does not count
            if seen[name] - _references(node, bare)[name] == 0:
                unreached.append(f"{path.stem}.{name}")
    unreached = sorted(set(unreached) - ALLOWED)
    assert len(trees) > 10
    assert not unreached, "reached only from tests: " + ", ".join(unreached)
