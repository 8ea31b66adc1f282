"""The runtime has no dependencies: every absolute import in
``src/schedsim`` names a standard-library module or ``schedsim`` itself.
Relative imports stay inside the package, so they always pass."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "schedsim"
ALLOWED = sys.stdlib_module_names | {"schedsim"}


def foreign_imports(source: str) -> list:
    """Absolute imports in `source` outside the standard library and schedsim."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_checker_flags_third_party_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, networkx as nx\n"
        "from numpy.linalg import norm\n"
        "from . import engine\n"
        "from schedsim import prng\n"
        "def f():\n"
        "    import hypothesis\n"
    )
    assert foreign_imports(source) == ["networkx", "numpy.linalg", "hypothesis"]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 5
    foreign = {path.name: foreign_imports(path.read_text()) for path in sources}
    assert {name: names for name, names in foreign.items() if names} == {}
