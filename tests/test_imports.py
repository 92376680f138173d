"""Every module under src/msmil uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "msmil"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nnp.zeros(c)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
