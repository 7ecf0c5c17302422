"""Source checks that need no tool beyond the standard library."""

import ast
from pathlib import Path

import pytest

import mathcorpus

MODULES = sorted(Path(mathcorpus.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_flags_an_unused_import():
    source = "import numpy as np\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["np", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
