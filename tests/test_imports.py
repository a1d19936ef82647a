"""Every imported name is used by the module that imports it, and every
function parameter by the function that takes it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names a module imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    src = "import os\nimport numpy as np\nfrom a import b, c as d\nnp.x(d)\n"
    assert unused_imports(src) == ["os", "b"]


def test_no_unused_imports():
    # the package __init__ imports to re-export
    files = [p for p in sorted((ROOT / "src" / "psbicm").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in files}
    assert {k: v for k, v in found.items() if v} == {}


def unused_parameters(source):
    """``function: parameter`` for each parameter its function never reads,
    in source order; reads in nested functions count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs,
                  args.kwarg]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}: {a.arg}" for a in params
                  if a is not None and a.arg not in read]
    return found


def test_unused_parameters_are_found():
    src = ("def f(a, b, *c, d=1, **e):\n    return a + e['x']\n"
           "def g(x, y):\n    def h():\n        return x\n    return h\n")
    assert unused_parameters(src) == ["f: b", "f: c", "f: d", "g: y"]


def test_no_unused_parameters():
    found = {p.stem: unused_parameters(p.read_text())
             for p in sorted((ROOT / "src" / "psbicm").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}
