"""Every import between sinhpierce modules sits at module level, so the import
graph is what the module headers say. One edge is named: operators'
semianalytic_laplacian_U imports bubbles in its body, since bubbles imports
operators and the defect R, which needs the bubble sources, stays in
operators, where the benchmark tracer wraps it."""

import ast
import pathlib

import sinhpierce

ALLOWED = {("operators", "semianalytic_laplacian_U", "bubbles")}


def _function_imports(tree):
    """(function name, imported sinhpierce module) for every import of a
    package module inside a function body."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found.append((fn.name, node.module or "."))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sinhpierce"):
                found.append((fn.name, node.module))
            elif isinstance(node, ast.Import):
                found += [(fn.name, a.name) for a in node.names
                          if a.name.startswith("sinhpierce")]
    return found


def test_no_package_import_inside_a_function():
    sources = sorted(pathlib.Path(sinhpierce.__file__).parent.glob("*.py"))
    found = set()
    for path in sources:
        for fn, module in _function_imports(ast.parse(path.read_text())):
            found.add((path.stem, fn, module))
    assert len(sources) > 10
    assert found - ALLOWED == set()
    assert ALLOWED <= found   # the named edge is still there; drop it once it is gone
