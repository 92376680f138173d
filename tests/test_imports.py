"""Every module under src/msmil uses each name it imports, and importing
the package defaults BLAS to one thread."""

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize("given,want", [(None, "1"), ("3", "3")], ids=["unset", "set"])
def test_import_defaults_blas_to_one_thread(given, want):
    """`import msmil` in a fresh interpreter sets OPENBLAS_NUM_THREADS to 1
    when it is unset, and keeps a value the environment gives."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    env["PYTHONPATH"] = str(SRC.parent)
    proc = subprocess.run([sys.executable, "-c", "import os, msmil; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == want
