"""Every name a module of modmult imports is read in it, and importing
modmult.cli loads no module that only code generation needs.

modmult/__init__.py is left out of the first check: its imports are the
public API.  An import kept for another reason carries ``# noqa: F401`` on
its line.
"""
import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_no_code_generators():
    """Importing modmult.cli loads none of the modules that building
    dataclasses needs.  The child takes the difference of sys.modules
    itself, so what site and pytest load does not count."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import modmult.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    added = set(out.split())
    assert "modmult.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis"})
