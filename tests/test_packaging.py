"""Packaging tells the truth: every third-party import is declared."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_levels() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(str(node.module).split(".")[0])
    return names


def _declared() -> set[str]:
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]
    requirements = list(project.get("dependencies", []))
    for extra in project.get("optional-dependencies", {}).values():
        requirements.extend(extra)
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def test_third_party_imports_are_declared():
    third_party = {
        name
        for name in _imported_top_levels()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert "numpy" in third_party  # the scan sees the real imports
    assert third_party <= _declared(), third_party - _declared()


def test_readme_is_the_project_readme():
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]
    assert project["readme"] == "README.md"
    assert (ROOT / project["readme"]).is_file()
