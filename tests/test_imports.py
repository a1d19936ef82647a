"""Every imported name is used by the module that imports it."""

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
