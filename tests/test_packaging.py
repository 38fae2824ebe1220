"""Packaging tells the truth: every third-party import is declared, and
every declared runtime dependency is imported."""

from __future__ import annotations

import ast
import os
import re
import subprocess
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


def _project() -> dict:
    return tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]


def _names(requirements) -> set[str]:
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def _declared() -> set[str]:
    project = _project()
    requirements = list(project.get("dependencies", []))
    for extra in project.get("optional-dependencies", {}).values():
        requirements.extend(extra)
    return _names(requirements)


def test_third_party_imports_are_declared():
    imported = _imported_top_levels()
    third_party = {
        name
        for name in imported
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert "numpy" in third_party  # the scan sees the real imports
    assert third_party <= _declared(), third_party - _declared()
    # ...and the reverse: a runtime dependency nothing imports is a lie
    # too.  Optional extras (test tooling, the native tier) are exempt.
    runtime = _names(_project().get("dependencies", []))
    assert runtime <= imported, runtime - imported


def test_import_and_numeric_inverse_load_no_scipy():
    script = (
        "import sys, repro\n"
        "solver = repro.InverseSolver(\n"
        "    repro.ibm_mems_prototype(), repro.table1_workload()\n"
        ")\n"
        "solver.buffer_for_energy_saving_numeric(0.7, 1_024_000.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout


def test_readme_is_the_project_readme():
    project = _project()
    assert project["readme"] == "README.md"
    assert (ROOT / project["readme"]).is_file()
