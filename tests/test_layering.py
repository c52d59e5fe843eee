"""Module boundaries of the package.

Each module owns its private helpers: jordan the eigen work, division the
triangular congruences, randmat the sampling, contfrac the tail-first
kernel.  A sibling that needs one goes through a public name.  jordan also
owns the certification policy: no other module names its tolerances.
"""

import ast
from pathlib import Path

import conecf

from helpers import run_cli_module

PACKAGE = Path(conecf.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every ``_``-prefixed name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("conecf"):
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path))
    }
    assert offenders == {}


POLICY_NAMES = {"CONE_TOL", "ASSERT_TOL", "_SINGULAR_TOL"}


def policy_references(path: Path) -> set[str]:
    """Certification tolerances named anywhere in a module: as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found & POLICY_NAMES


def test_only_jordan_names_the_certification_tolerances():
    offenders = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "jordan.py" and (names := policy_references(path))
    }
    assert offenders == {}


def test_module_entry_point_runs_without_runtime_warnings():
    proc = run_cli_module("--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: conecf" in proc.stdout
