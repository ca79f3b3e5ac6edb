"""The package's import graph is layered: every import between sinhpierce
modules sits at module level and points down ORDER, so the module headers
say which module may use which. No import is named as an exception."""

import ast
import pathlib

import sinhpierce

# each module may import only the modules before it
ORDER = ("errors", "geometry", "operators", "bubbles", "greens", "coeffs", "corrector",
         "potentials", "runconfig", "verify", "cli")

ALLOWED = set()   # (module, function, imported module) imported inside a function body

SOURCES = sorted(pathlib.Path(sinhpierce.__file__).parent.glob("*.py"))


def _package_imports(node):
    """The sinhpierce modules an import statement names, by short name."""
    if isinstance(node, ast.ImportFrom) and node.level > 0:
        if node.module:
            return [node.module.split(".")[0]]
        return [a.name for a in node.names]          # from . import verify
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sinhpierce"):
        rest = node.module.split(".")[1:]
        return rest[:1] or [a.name for a in node.names]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("sinhpierce.")]
    return []


def _function_imports(tree):
    """(function name, imported sinhpierce module) for every import of a
    package module inside a function body."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            found += [(fn.name, module) for module in _package_imports(node)]
    return found


def test_no_package_import_inside_a_function():
    found = set()
    for path in SOURCES:
        for fn, module in _function_imports(ast.parse(path.read_text())):
            found.add((path.stem, fn, module))
    assert len(SOURCES) > 10
    assert found - ALLOWED == set()
    assert ALLOWED <= found   # a named edge must still be there; drop it once it is gone


def test_module_level_imports_follow_the_order():
    stems = {path.stem for path in SOURCES} - {"__init__"}
    assert stems == set(ORDER)
    upward = []
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        rank = ORDER.index(path.stem)
        for node in ast.parse(path.read_text()).body:
            for module in _package_imports(node):
                if ORDER.index(module) >= rank:
                    upward.append((path.stem, module))
    assert upward == []


def test_only_blowupconfig_reads_m1():
    # BlowupConfig owns the sign split: every other reader asks it (sign,
    # weigh, couple, feed, potentials_at) instead of comparing with m1
    readers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owner = [id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "BlowupConfig"
                 for node in ast.walk(cls)]
        readers += [(path.stem, node.lineno) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "m1"
                    and id(node) not in owner]
    assert readers == []
