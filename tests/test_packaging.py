"""Every package ``src/repro`` imports is either stdlib or declared.

A module that imports a third-party package the ``[project]
dependencies`` of ``pyproject.toml`` do not name works wherever that
package happens to be installed and fails on a clean ``pip install``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared() -> set[str]:
    """Module names of ``[project] dependencies`` (read without tomllib,
    which Python 3.10 lacks)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    specs = re.findall(r'"([^"]+)"', block)
    return {re.match(r"[A-Za-z0-9_.-]+", s).group(0).lower().replace("-", "_") for s in specs}


def imported() -> dict[str, list[str]]:
    """Top-level package of every absolute import in ``src/repro`` -> where."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.setdefault(name.split(".")[0], []).append(where)
    return found


def test_every_import_is_stdlib_or_declared():
    allowed = set(sys.stdlib_module_names) | declared() | {"repro"}
    undeclared = {name: where for name, where in imported().items() if name not in allowed}
    assert not undeclared, f"imports missing from [project] dependencies: {undeclared}"
