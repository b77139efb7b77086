"""The package's runtime imports against its declared dependencies.

``pyproject.toml`` is the one dependency list every install reads, so
a third-party import the package runs must be named there, and a
declared dependency the package needs nothing from must not be.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"


def _declared() -> set[str]:
    """Top-level names of ``[project] dependencies`` (``numpy>=1.24`` -> numpy)."""
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    return {re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0] for spec in project["dependencies"]}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _runtime_imports(tree: ast.AST) -> set[str]:
    """Top-level modules ``tree`` imports outside ``if TYPE_CHECKING:``."""
    found: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _third_party_imports() -> dict[str, list[str]]:
    """Third-party top-level module -> the package files importing it."""
    users: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for name in _runtime_imports(ast.parse(path.read_text(), str(path))):
            if name != "repro" and name not in sys.stdlib_module_names:
                users.setdefault(name, []).append(str(path.relative_to(PACKAGE)))
    return users


def test_every_runtime_import_is_a_declared_dependency():
    imported = _third_party_imports()
    undeclared = {name: files for name, files in imported.items() if name not in _declared()}
    assert undeclared == {}
    assert _declared() == set(imported)


def test_the_runtime_import_walk_skips_type_checking_blocks():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n    import pandas\nelse:\n    import scipy\n"
        "def f():\n    from networkx.algorithms import tree\n"
    )
    assert _runtime_imports(tree) == {"typing", "numpy", "scipy", "networkx"}


def test_the_system_runs_without_networkx(tmp_path):
    """Import the CLI, publish and ingest a simulated day and answer a
    percentage with networkx made unimportable (a ``None`` entry in
    ``sys.modules``)."""
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from datetime import date\n"
        "import repro.cli\n"
        "from repro.core.query import AnalysisQuery\n"
        "from repro.system import RasedSystem\n"
        f"system = RasedSystem.create(root={str(tmp_path)!r})\n"
        "system.publish_day(date(2021, 1, 1))\n"
        "system.pipeline.run_daily()\n"
        "query = AnalysisQuery(start=date(2021, 1, 1), end=date(2021, 1, 7),"
        " metric='percentage')\n"
        "print(sorted(system.dashboard.analysis(query).rows))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[()]"
