"""Every name a module of modmult imports is read in it.

modmult/__init__.py is left out: its imports are the public API.  An
import kept for another reason carries ``# noqa: F401`` on its line.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modmult"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                imported.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_names_are_found():
    source = ("from dataclasses import dataclass, field\n"
              "import os.path\n"
              "from .dimensions import dims  # noqa: F401\n"
              "from .reps import (QuotientPair,\n"
              "                   parity_of)\n"
              "@dataclass\n"
              "class A:\n"
              "    pair: QuotientPair\n")
    assert unused_imports(source) == ["field", "os", "parity_of"]
